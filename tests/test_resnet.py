import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings, strategies as st

from resdimlab.cornergraph import corner_graph
from resdimlab import resnet
from resdimlab.hierarchy import Schedule
from resdimlab.resnet import LevelGraph, eff_resistance, trace
from conftest import (merged_eff_resistance, min_energy_flow, pinv_resistance,
                      random_connected_graph, single_pair_resistance)

UNIT_CYCLE = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)]


def test_cycle_opposite_corners():
    g = LevelGraph(4, UNIT_CYCLE)
    assert eff_resistance(g, [0], [2]).value == pytest.approx(1.0, abs=1e-12)


def test_single_edge():
    g = LevelGraph(2, [(0, 1, 2.5)])
    assert eff_resistance(g, [0], [1]).value == pytest.approx(0.4, abs=1e-12)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_path_series_law(n):
    g = LevelGraph(n + 1, [(i, i + 1, 1.0) for i in range(n)])
    assert eff_resistance(g, [0], [n]).value == pytest.approx(n, rel=1e-12)


def test_eff_resistance_errors():
    g = LevelGraph(4, UNIT_CYCLE)
    with pytest.raises(ValueError, match="empty"):
        eff_resistance(g, [], [1])
    with pytest.raises(ValueError, match="intersect"):
        eff_resistance(g, [0, 1], [1])


def test_disconnected_tagged_infinite():
    g = LevelGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    res = eff_resistance(g, [0], [2])
    assert res.flag == "infinite" and math.isinf(res.value)


def test_other_component_ignored():
    g = LevelGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
    res = eff_resistance(g, [0], [2])
    assert res.flag == "ok"
    assert res.value == pytest.approx(2.0, abs=1e-12)
    _, energy = min_energy_flow(g, [0], [2])
    assert energy == pytest.approx(2.0, abs=1e-12)


def test_potential_normalization():
    # the potential behind the Thomson oracle: 1 on A, 0 on B, harmonic between
    g = LevelGraph(4, UNIT_CYCLE)
    _, pot = merged_eff_resistance(g, [0], [2])
    assert pot.tolist() == pytest.approx([1.0, 0.5, 0.0, 0.5])


def test_trace_series():
    g = LevelGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    t = trace(g, [0, 2])
    assert t.n == 2 and len(t.conductance) == 1
    assert t.conductance[0] == pytest.approx(0.5, abs=1e-12)


def test_trace_identity():
    g = LevelGraph(4, UNIT_CYCLE)
    t = trace(g, [0, 1, 2, 3])
    assert sorted(zip(t.edge_u, t.edge_v)) == sorted(zip(g.edge_u, g.edge_v))
    assert np.allclose(t.conductance, g.conductance)


def test_trace_preserves_resistances():
    g = LevelGraph(4, UNIT_CYCLE)
    t = trace(g, [0, 1, 2])
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        want = eff_resistance(g, [a], [b]).value
        got = eff_resistance(t, [a], [b]).value
        assert got == pytest.approx(want, rel=1e-12)


def test_trace_empty_set_error():
    g = LevelGraph(4, UNIT_CYCLE)
    with pytest.raises(ValueError):
        trace(g, [])


@pytest.mark.parametrize("S", [[-1, 0], [0, 5]])
def test_trace_vertex_out_of_range(S):
    # -1 would index the last vertex, and 5 the Laplacian past its end
    g = LevelGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError, match="terminal vertex out of range"):
        trace(g, S)


def test_nested_trace_consistency():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_connected_graph(rng, n_max=30)
        verts = rng.permutation(g.n)
        s_small = sorted(int(v) for v in verts[:4])
        s_big = sorted(set(s_small) | {int(v) for v in verts[4:10]})
        t_big = trace(g, s_big)
        pos = {lbl: i for i, lbl in enumerate(t_big.labels)}
        t_direct = trace(g, s_small)
        t_nested = trace(t_big, [pos[v] for v in s_small])
        mu_a = -t_direct.laplacian().toarray()
        mu_b = -t_nested.laplacian().toarray()
        assert np.allclose(mu_a, mu_b, rtol=1e-9, atol=1e-12)


def test_trace_constant_on_fixed_singletons():
    # pairwise resistances between traced vertices never move
    rng = np.random.default_rng(11)
    g = random_connected_graph(rng, n_max=40)
    rest = [v for v in range(g.n) if v not in (0, g.n - 1)]
    full = eff_resistance(g, [0], [g.n - 1]).value
    for cut in (0, len(rest) // 2, len(rest)):
        S = sorted([0, g.n - 1] + rest[:cut])
        t = trace(g, S)
        pos = {lbl: i for i, lbl in enumerate(t.labels)}
        got = eff_resistance(t, [pos[0]], [pos[g.n - 1]]).value
        assert got == pytest.approx(full, rel=1e-9)


def test_monotone_traced_set_resistance():
    """With terminal sets A, B fixed in the full graph, the set resistance of
    the trace onto growing V_n (terminals A∩V_n, B∩V_n) is nonincreasing and
    ends at the full-graph value."""
    rng = np.random.default_rng(13)
    g = random_connected_graph(rng, n_max=40)
    perm = [int(v) for v in rng.permutation(g.n)]
    A = sorted(perm[:3])
    B = sorted(perm[3:6])
    interior = perm[6:]
    nested = [
        {A[0], B[0]},
        {A[0], A[1], B[0], B[1]} | set(interior[: len(interior) // 2]),
        set(range(g.n)),
    ]
    values = []
    for S in nested:
        t = trace(g, sorted(S))
        pos = {lbl: i for i, lbl in enumerate(t.labels)}
        a_n = [pos[v] for v in A if v in pos]
        b_n = [pos[v] for v in B if v in pos]
        values.append(eff_resistance(t, a_n, b_n).value)
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-9
    assert values[-1] == pytest.approx(eff_resistance(g, A, B).value, rel=1e-9)


def test_resistance_weights_sc_trace_nonnegative():
    cg2 = corner_graph(Schedule.pure_sc(), 2)
    coarse = np.flatnonzero((cg2.grid % 3 == 0).all(axis=1))  # the level-1 corners
    t = trace(cg2.graph, coarse)
    mu = -t.laplacian().toarray()
    off = mu - np.diag(np.diag(mu))
    assert off.min() >= -1e-10 * max(1.0, off.max())


def test_min_energy_flow_cycle():
    g = LevelGraph(4, UNIT_CYCLE)
    flow, energy = min_energy_flow(g, [0], [2])
    assert energy == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.abs(flow), 0.5)
    bal = np.zeros(4)
    np.add.at(bal, g.edge_u, flow)
    np.add.at(bal, g.edge_v, -flow)
    assert bal[0] == pytest.approx(1.0)
    assert bal[2] == pytest.approx(-1.0)
    assert abs(bal[1]) < 1e-12 and abs(bal[3]) < 1e-12


def test_min_energy_flow_single_edge():
    g = LevelGraph(2, [(0, 1, 4.0)])
    flow, energy = min_energy_flow(g, [0], [1])
    assert energy == pytest.approx(0.25, abs=1e-14)
    assert flow[0] == pytest.approx(1.0)


def test_oracle_agreement_random_graphs():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        g = random_connected_graph(rng)
        a, b = 0, g.n - 1
        r_pot = eff_resistance(g, [a], [b]).value
        _, r_flow = min_energy_flow(g, [a], [b])
        r_pinv = pinv_resistance(g, [a], [b])
        assert r_flow == pytest.approx(r_pot, rel=1e-8)
        assert r_pinv == pytest.approx(r_pot, rel=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n_max=15)
    solver = g.grounded_solver()
    x, y, z = rng.integers(0, g.n, size=3)
    rxy, ryz, rxz = solver.pair_resistances([x, y, x], [y, z, z])
    assert rxz <= rxy + ryz + 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_set_vs_point_domination(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n_max=15)
    verts = rng.permutation(g.n)
    A = [int(v) for v in verts[:2]]
    B = [int(v) for v in verts[2:4]]
    set_r = eff_resistance(g, A, B).value
    solver = g.grounded_solver()
    point_min = solver.pair_resistances(np.repeat(A, len(B)), np.tile(B, len(A))).min()
    assert set_r <= point_min + 1e-9


def test_parallel_edges_merge():
    g = LevelGraph(2, [(0, 1, 1.0), (1, 0, 2.0)])
    assert len(g.conductance) == 1
    assert g.conductance[0] == pytest.approx(3.0)


def test_invalid_edges():
    with pytest.raises(ValueError):
        LevelGraph(2, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        LevelGraph(2, [(0, 1, -1.0)])
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="positive and finite"):
            LevelGraph(3, [(0, 1, float(bad)), (1, 2, 1.0)])


# -- oracles for the grounded-set solves -------------------------------------

def dense_schur(g, S):
    """Dense Schur complement of the Laplacian onto the sorted set S."""
    S = np.array(sorted(set(S)))
    I = np.setdiff1d(np.arange(g.n), S)
    L = g.laplacian().toarray()
    return L[np.ix_(S, S)] - L[np.ix_(S, I)] @ np.linalg.solve(L[np.ix_(I, I)], L[np.ix_(I, S)])


def with_other_component(g, rng):
    """g plus a disjoint random component, numbered after g's vertices."""
    h = random_connected_graph(rng, n_max=10)
    edges = np.column_stack([g.edge_u, g.edge_v, g.conductance])
    extra = np.column_stack([h.edge_u + g.n, h.edge_v + g.n, h.conductance])
    return LevelGraph(g.n + h.n, np.vstack([edges, extra]))


def test_eff_resistance_matches_merged_graph():
    rng = np.random.default_rng(7)
    for trial in range(30):
        g = random_connected_graph(rng)
        verts = [int(v) for v in rng.permutation(g.n)]
        na, nb = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        A, B = verts[:min(na, g.n - 1)], verts[min(na, g.n - 1):][:nb]
        if trial % 3 == 0:
            g = with_other_component(g, rng)
        want, _ = merged_eff_resistance(g, A, B)
        assert abs(eff_resistance(g, A, B).value - want) <= 1e-10 * want


def test_trace_matches_dense_schur():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = random_connected_graph(rng)
        verts = [int(v) for v in rng.permutation(g.n)]
        S = sorted(verts[:max(3, g.n // 3)])
        schur = dense_schur(g, S)
        got = trace(g, S).laplacian().toarray()
        np.fill_diagonal(got, 0.0)
        want = schur - np.diag(np.diag(schur))
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_solve_refines_only_the_columns_above_the_bound(monkeypatch):
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(50):
        g = random_connected_graph(rng, n_max=40)
        solver = g.grounded_solver()
        # free rows only, one contiguous column per right side
        b = np.asfortranarray(rng.standard_normal((len(solver.free), 6)))
        x = solver._lu.solve(b)
        res = np.linalg.norm(solver.lap_ff @ x - b, axis=0) / np.linalg.norm(b, axis=0)
        worst = int(np.argmax(res))
        bound = 0.5 * (res[worst] + np.max(np.delete(res, worst)))
        refined = x[:, worst] + solver._lu.solve(b[:, worst] - solver.lap_ff @ x[:, worst])
        after = np.linalg.norm(solver.lap_ff @ refined - b[:, worst]) / np.linalg.norm(b[:, worst])
        if after > bound:
            continue  # refinement would not pass this bound; draw another batch
        found += 1
        # exactly one column is above the bound
        monkeypatch.setattr(resnet, "RESIDUAL_TOL", bound)
        batch = solver.solve(b)
        assert batch.shape == b.shape and batch.flags.f_contiguous
        for k in range(b.shape[1]):
            assert np.array_equal(batch[:, k], solver.solve(b[:, k]))
        assert np.array_equal(batch[:, worst], refined)
        assert np.array_equal(np.delete(batch, worst, axis=1), np.delete(x, worst, axis=1))
    assert found >= 5


def pair_batch(rng, n):
    """Pairs with repeated endpoints, x == y and the ground vertex 0."""
    xs = rng.integers(0, n, size=30)
    ys = rng.integers(0, n, size=30)
    ys[:5] = xs[:5]
    xs[5:8] = 0
    ys[8:11] = 0
    xs[11:14] = xs[14]
    return xs, ys


def test_pair_resistances_match_single_solves(monkeypatch):
    rng = np.random.default_rng(12)
    for trial in range(30):
        g = random_connected_graph(rng, n_max=60)
        solver = g.grounded_solver()
        xs, ys = pair_batch(rng, g.n)
        # two columns per block, so each batch spans several blocks
        monkeypatch.setattr(resnet, "PAIR_BLOCK_BYTES", 8 * g.n * 2)
        got = solver.pair_resistances(xs, ys)
        want = np.array([single_pair_resistance(solver, int(x), int(y)) for x, y in zip(xs, ys)])
        assert len(np.unique(np.concatenate([xs, ys]))) > 2
        assert np.all(got[xs == ys] == 0.0)
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        assert solver.pair_resistances(xs[5:6], ys[5:6])[0] == got[5]


@pytest.mark.parametrize("v", [-1, 3])
def test_pair_resistances_vertex_out_of_range(v):
    solver = LevelGraph(3, [(0, 1, 1.0), (1, 2, 1.0)]).grounded_solver()
    for xs, ys in (([v], [0]), ([1], [v])):
        with pytest.raises(ValueError, match="vertex out of range"):
            solver.pair_resistances(xs, ys)
    assert len(solver._ends) == 0


def test_green_block_cap(monkeypatch):
    """The kept block refuses a query that would hold more than VECTOR_CAP
    endpoints, and keeps what it held."""
    monkeypatch.setattr(resnet, "VECTOR_CAP", 4)
    solver = LevelGraph(5, [(i, i + 1, 1.0) for i in range(4)]).grounded_solver()
    assert solver.pair_resistances([1, 2], [3, 4]).tolist() == pytest.approx([2.0, 2.0])
    with pytest.raises(ValueError, match="at most 4 endpoints \\(5 asked\\)"):
        solver.pair_resistances(np.zeros(5, dtype=int), np.arange(5))
    assert solver._ends.tolist() == [1, 2, 3, 4]


# -- oracle: R(x, .) from the dense inverse ----------------------------------

def dense_resistance_vector(g, x):
    """R(x, z) for every z, from the diagonal of the dense inverse grounded at x."""
    lap = g.laplacian().toarray()
    keep = [v for v in range(g.n) if v != x]
    inv = np.linalg.inv(lap[np.ix_(keep, keep)])
    out = np.zeros(g.n)
    out[keep] = np.diag(inv)
    return out


def test_profile_block_matches_dense_inverse():
    """R(x, .) read from the Green's block grounded at 0 against the dense
    inverse grounded at x."""
    rng = np.random.default_rng(13)
    graphs = [(g, int(rng.integers(0, g.n)))
              for g in (random_connected_graph(rng, n_max=60) for _ in range(30))]
    for schedule, n, corner in ((Schedule.pure_sc(), 3, True), (Schedule.pure_vicsek(), 3, False),
                                (Schedule.mixed(), 4, False)):
        cg = corner_graph(schedule, n)
        centre = int(np.argmin(np.sum(cg.coords_float() ** 2, axis=1)))
        graphs.append((cg.graph, cg.corner_vertices()[2] if corner else centre))
    for g, x in graphs:
        got = g.grounded_solver().pair_resistances(np.full(g.n, x), np.arange(g.n))
        want = dense_resistance_vector(g, x)
        assert got[x] == 0.0
        assert np.all(np.abs(got - want) <= 1e-10 * want)


# -- oracle: Laplacians and components by edge loops -------------------------

def loop_laplacian(g):
    """Laplacian by a loop over the edges: minus the conductances off the
    diagonal, row sums of the conductances on it."""
    lap = np.zeros((g.n, g.n))
    for u, v, c in zip(g.edge_u, g.edge_v, g.conductance):
        lap[u, v] -= c
        lap[v, u] -= c
    np.fill_diagonal(lap, 0.0)
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap


def adjacency_components(g):
    """Component labels from a 0/1 adjacency matrix of the edges."""
    adj = sp.csr_matrix((np.ones(2 * len(g.edge_u)), (np.concatenate([g.edge_u, g.edge_v]),
                                            np.concatenate([g.edge_v, g.edge_u]))),
                        shape=(g.n, g.n))
    return csgraph.connected_components(adj, directed=False)[1]


def test_weights_and_components_match_edge_loops(sc_cache):
    rng = np.random.default_rng(14)
    graphs = []
    for trial in range(30):
        g = random_connected_graph(rng)
        graphs.append(with_other_component(g, rng) if trial % 3 == 0 else g)
    graphs += [LevelGraph(4, [(0, 1, 1.0)]), trace(sc_cache.graph(2).graph, range(0, 40, 3)),
               sc_cache.graph(3).graph]
    for g in graphs:
        assert g.components().tolist() == adjacency_components(g).tolist()
        got, want = g.laplacian().toarray(), loop_laplacian(g)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
