import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from resdimlab.cornergraph import corner_graph, corner_vertices_at_level
from resdimlab import cornergraph, resnet
from resdimlab.hierarchy import Schedule, build_hierarchy
from resdimlab.resnet import (LevelGraph, cross_weight_decay,
                              eff_resistance, graph_from_csv, graph_to_csv,
                              localized_resistance, min_energy_flow,
                              pinv_resistance, resistance_weights, trace,
                              traced_cross_weight)
from conftest import random_connected_graph, single_pair_resistance

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
    assert not res.finite and math.isinf(res.value)


def test_other_component_ignored():
    g = LevelGraph(5, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)])
    res = eff_resistance(g, [0], [2], return_potential=True)
    assert res.finite
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.potential.tolist() == pytest.approx([1.0, 0.5, 0.0, 0.0, 0.0])
    _, energy = min_energy_flow(g, [0], [2])
    assert energy == pytest.approx(2.0, abs=1e-12)


def test_potential_normalization():
    g = LevelGraph(4, UNIT_CYCLE)
    res = eff_resistance(g, [0], [2], return_potential=True)
    assert res.potential[0] == pytest.approx(1.0)
    assert res.potential[2] == pytest.approx(0.0)
    assert res.potential[1] == pytest.approx(0.5)


def test_trace_series():
    g = LevelGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    t = trace(g, [0, 2])
    assert t.n == 2 and t.m == 1
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
        mu_a = resistance_weights(t_direct)
        mu_b = resistance_weights(t_nested)
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


def test_resistance_weights_structure():
    g = LevelGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    mu = resistance_weights(trace(g, [0, 2]))
    assert mu[0, 1] == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(mu.sum(axis=1), 0.0, atol=1e-12)


def test_resistance_weights_sc_trace_nonnegative(sc_cache):
    cg2 = corner_graph(Schedule.pure_sc(), 2, 0)
    coarse = corner_vertices_at_level(cg2, 1)
    t = trace(cg2.graph, coarse)
    mu = resistance_weights(t)
    off = mu - np.diag(np.diag(mu))
    assert off.min() >= -1e-10 * max(1.0, off.max())


def test_min_energy_flow_cycle():
    g = LevelGraph(4, UNIT_CYCLE)
    flow, energy = min_energy_flow(g, [0], [2])
    assert energy == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.abs(flow.flow), 0.5)
    bal = flow.node_balance(4)
    assert bal[0] == pytest.approx(1.0)
    assert bal[2] == pytest.approx(-1.0)
    assert abs(bal[1]) < 1e-12 and abs(bal[3]) < 1e-12


def test_min_energy_flow_single_edge():
    g = LevelGraph(2, [(0, 1, 4.0)])
    flow, energy = min_energy_flow(g, [0], [1])
    assert energy == pytest.approx(0.25, abs=1e-14)
    assert flow.flow[0] == pytest.approx(1.0)


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


def test_localized_resistance_whole_graph():
    g = LevelGraph(5, [(i, i + 1, 1.0) for i in range(4)])
    out = localized_resistance(g, 0, 4, 2.0)
    assert out["ratio"] == pytest.approx(1.0, abs=1e-12)
    assert out["ball_size"] == 5


def test_localized_resistance_sc_level3():
    cg = corner_graph(Schedule.pure_sc(), 3, 0)
    x = cg.vertex_at(1, 0)
    y = cg.vertex_at(2, 0)
    out = localized_resistance(cg.graph, x, y, 4.0)
    assert out["flag"] == "ok"
    assert out["ratio"] <= 2.0


def test_localized_resistance_errors():
    g = LevelGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(ValueError):
        localized_resistance(g, 0, 0, 2.0)
    with pytest.raises(ValueError):
        localized_resistance(g, 0, 1, 1.0)
    with pytest.raises(ValueError, match="vertex out of range"):
        localized_resistance(g, -1, 1, 2.0)


def test_cross_weight_decay_sc(sc_h6):
    out = cross_weight_decay(sc_h6, [(1,)], [(5,)], [2, 3, 4])
    w = out["cross_weights"]
    assert all(v > 0 for v in w)
    assert w[0] > w[1] > w[2]


def test_cross_weight_decay_adjacent_error(sc_h6):
    with pytest.raises(ValueError, match="adjacent"):
        cross_weight_decay(sc_h6, [(1,)], [(2,)], [2])


def test_cross_weight_decay_single_level(sc_h6):
    out = cross_weight_decay(sc_h6, [(1,)], [(5,)], [3])
    assert len(out["cross_weights"]) == 1


def test_cross_weight_decay_word_below_base_level():
    h = build_hierarchy(Schedule.pure_sc(), 4)
    with pytest.raises(ValueError, match=r"word \(1, 1, 1, 1\) is deeper than the base level N = 3"):
        cross_weight_decay(h, [(1, 1, 1, 1)], [(5,)], [1, 2])


def test_csv_roundtrip(tmp_path):
    g = LevelGraph(4, UNIT_CYCLE)
    path = tmp_path / "g.csv"
    graph_to_csv(g, str(path))
    g2 = graph_from_csv(str(path))
    assert g2.n == 4 and g2.m == 4
    assert eff_resistance(g2, [0], [2]).value == pytest.approx(1.0)


def test_parallel_edges_merge():
    g = LevelGraph(2, [(0, 1, 1.0), (1, 0, 2.0)])
    assert g.m == 1
    assert g.conductance[0] == pytest.approx(3.0)


def test_invalid_edges(tmp_path):
    with pytest.raises(ValueError):
        LevelGraph(2, [(0, 0, 1.0)])
    with pytest.raises(ValueError):
        LevelGraph(2, [(0, 1, -1.0)])
    for bad in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match="positive and finite"):
            LevelGraph(3, [(0, 1, float(bad)), (1, 2, 1.0)])
        path = tmp_path / f"{bad}.csv"
        path.write_text(f"u,v,conductance\n0,1,1\n1,2,{bad}\n")
        with pytest.raises(ValueError, match="positive and finite"):
            graph_from_csv(str(path))


# -- oracles for the grounded-set solves -------------------------------------

def merged_eff_resistance(g, A, B):
    """Reference set resistance by identification: restrict to the component
    of A and B, identify A and B to single vertices, ground the B vertex and
    solve for a unit current.  Returns (R, potential with A at 1, B at 0,
    0 elsewhere)."""
    A, B = sorted(set(A)), sorted(set(B))
    comp = g.components()
    ids = np.flatnonzero(comp == comp[A[0]])
    sub = g if len(ids) == g.n else g.subgraph(ids)[0]
    merged, mapping = sub.merged([np.searchsorted(ids, A), np.searchsorted(ids, B)])
    keep = np.array([v for v in range(merged.n) if v != 1])
    lap = merged.laplacian().tocsc()
    rhs = np.zeros(merged.n)
    rhs[0], rhs[1] = 1.0, -1.0
    u = np.zeros(merged.n)
    u[keep] = spla.splu(lap[keep][:, keep].tocsc()).solve(rhs[keep])
    pot = np.zeros(g.n)
    pot[ids] = u[mapping] / u[0]
    return float(u[0]), pot


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
        want, want_pot = merged_eff_resistance(g, A, B)
        res = eff_resistance(g, A, B, return_potential=True)
        assert abs(res.value - want) <= 1e-10 * want
        assert np.abs(res.potential - want_pot).max() <= 1e-10


def test_trace_and_cross_weight_match_dense_schur():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = random_connected_graph(rng)
        verts = [int(v) for v in rng.permutation(g.n)]
        S = sorted(verts[:max(3, g.n // 3)])
        schur = dense_schur(g, S)
        got = -resistance_weights(trace(g, S))
        np.fill_diagonal(got, 0.0)
        want = schur - np.diag(np.diag(schur))
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        k = len(S) // 2
        S1, S2 = S[:k], S[k:]
        ind1 = np.isin(S, S1).astype(float)
        ind2 = np.isin(S, S2).astype(float)
        want_w = -(ind1 @ schur @ ind2)
        assert abs(traced_cross_weight(g, S, S1, S2) - want_w) <= 1e-10 * want_w


def test_solve_refines_only_the_columns_above_the_bound(monkeypatch):
    rng = np.random.default_rng(11)
    found = 0
    for _ in range(50):
        g = random_connected_graph(rng, n_max=40)
        solver = g.grounded_solver()
        rhs = rng.standard_normal((g.n, 6))
        b = rhs[solver.free]
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
        batch = solver.solve(rhs)
        for k in range(rhs.shape[1]):
            assert np.array_equal(batch[:, k], solver.solve(rhs[:, k]))
        assert np.array_equal(batch[solver.free][:, worst], refined)
        assert np.array_equal(np.delete(batch[solver.free], worst, axis=1),
                              np.delete(x, worst, axis=1))
    assert found >= 5


def pair_batch(rng, n, ground):
    """Pairs with repeated endpoints, x == y and the ground vertex."""
    xs = rng.integers(0, n, size=30)
    ys = rng.integers(0, n, size=30)
    ys[:5] = xs[:5]
    xs[5:8] = ground
    ys[8:11] = ground
    xs[11:14] = xs[14]
    return xs, ys


def test_pair_resistances_match_single_solves(monkeypatch):
    rng = np.random.default_rng(12)
    for trial in range(30):
        g = random_connected_graph(rng, n_max=60)
        ground = int(rng.integers(0, g.n)) if trial % 2 else 0
        solver = g.grounded_solver(ground)
        xs, ys = pair_batch(rng, g.n, ground)
        # two columns per block, so each batch spans several blocks
        monkeypatch.setattr(resnet, "PAIR_BLOCK_BYTES", 8 * g.n * 2)
        got = solver.pair_resistances(xs, ys)
        want = np.array([single_pair_resistance(solver, int(x), int(y)) for x, y in zip(xs, ys)])
        assert len(np.unique(np.concatenate([xs, ys]))) > 2
        assert np.all(got[xs == ys] == 0.0)
        assert np.all(np.abs(got - want) <= 1e-12 * want)
        assert solver.pair_resistances(xs[5:6], ys[5:6])[0] == got[5]


# -- oracle: R(x, .) from the dense inverse ----------------------------------

def dense_resistance_vector(g, x):
    """R(x, z) for every z, from the diagonal of the dense inverse grounded at x."""
    lap = g.laplacian().toarray()
    keep = [v for v in range(g.n) if v != x]
    inv = np.linalg.inv(lap[np.ix_(keep, keep)])
    out = np.zeros(g.n)
    out[keep] = np.diag(inv)
    return out


def test_resistance_vector_matches_dense_inverse():
    rng = np.random.default_rng(13)
    graphs = [(g, int(rng.integers(0, g.n)))
              for g in (random_connected_graph(rng, n_max=60) for _ in range(30))]
    for schedule, n, corner in ((Schedule.pure_sc(), 3, True), (Schedule.pure_vicsek(), 3, False),
                                (Schedule.mixed(), 4, False)):
        cg = corner_graph(schedule, n, 0)
        centre = int(np.argmin(np.sum(cg.coords_float() ** 2, axis=1)))
        graphs.append((cg.graph, cg.corner_vertices()[2] if corner else centre))
    for g, x in graphs:
        got = resnet.resistance_vector(g, x)
        want = dense_resistance_vector(g, x)
        assert got[x] == 0.0
        assert np.all(np.abs(got - want) <= 1e-10 * want)


def test_resistance_vector_cap(monkeypatch):
    monkeypatch.setattr(resnet, "VECTOR_CAP", 4)
    with pytest.raises(ValueError, match="one solve per vertex"):
        resnet.resistance_vector(LevelGraph(5, [(i, i + 1, 1.0) for i in range(4)]), 0)


# -- oracle: weights and components by edge loops ----------------------------

def loop_resistance_weights(g):
    """Weight table by a loop over the edges: conductances off the diagonal,
    negative row sums on it."""
    mu = np.zeros((g.n, g.n))
    for u, v, c in zip(g.edge_u, g.edge_v, g.conductance):
        mu[u, v] += c
        mu[v, u] += c
    np.fill_diagonal(mu, 0.0)
    np.fill_diagonal(mu, -mu.sum(axis=1))
    return mu


def adjacency_components(g):
    """Component labels from a 0/1 adjacency matrix of the edges."""
    adj = sp.csr_matrix((np.ones(2 * g.m), (np.concatenate([g.edge_u, g.edge_v]),
                                            np.concatenate([g.edge_v, g.edge_u]))),
                        shape=(g.n, g.n))
    return csgraph.connected_components(adj, directed=False)[1]


def test_weights_and_components_match_edge_loops(sc_cache):
    rng = np.random.default_rng(14)
    graphs = []
    for trial in range(30):
        g = random_connected_graph(rng)
        graphs.append(with_other_component(g, rng) if trial % 3 == 0 else g)
    graphs += [LevelGraph(4, [(0, 1, 1.0)]), trace(sc_cache.graph(2, 0).graph, range(0, 40, 3)),
               sc_cache.graph(3, 0).graph]
    for g in graphs:
        assert g.components().tolist() == adjacency_components(g).tolist()
        got, want = resistance_weights(g), loop_resistance_weights(g)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


# -- oracle: word boxes by scale lcm and per-vertex loops --------------------

def lcm_word_box(h, word):
    return h.cell_box(len(word), h.index_of(tuple(word)))


def lcm_boxes_touch(b1, b2):
    ix1, iy1, s1 = b1
    ix2, iy2, s2 = b2
    s = np.lcm(s1, s2)
    f1, f2 = s // s1, s // s2
    x_gap = max(ix2 * f2 - (ix1 + 1) * f1, ix1 * f1 - (ix2 + 1) * f2)
    y_gap = max(iy2 * f2 - (iy1 + 1) * f1, iy1 * f1 - (iy2 + 1) * f2)
    return x_gap <= 0 and y_gap <= 0


def loop_vertex_in_boxes(cg, v, boxes, N):
    gx, gy = cg.grid[v]
    for ix, iy, s in boxes:
        f = 3 ** N // s
        if ix * f <= gx <= (ix + 1) * f and iy * f <= gy <= (iy + 1) * f:
            return True
    return False


@pytest.mark.parametrize("schedule", [Schedule.pure_sc(), Schedule.pure_vicsek()],
                         ids=["sc", "vicsek"])
def test_cross_weight_sets_match_box_loops(monkeypatch, schedule):
    """Touch decisions and S1/S2 lists equal those of the lcm box test and the
    per-vertex loop, over unions of words of lengths 0..3."""
    h = build_hierarchy(schedule, 3)
    levels, N = [1, 2], 3
    seen = []

    def record(g, S, S1, S2):
        seen.append((S1, S2))
        return 1.0

    monkeypatch.setattr(resnet, "traced_cross_weight", record)
    monkeypatch.setattr(cornergraph, "corner_graph",
                        functools.lru_cache(maxsize=None)(cornergraph.corner_graph))
    cg = cornergraph.corner_graph(h.schedule, N, 0)
    rng = np.random.default_rng(15)

    def union():  # one or two words of lengths 0..3
        return [h.address(n, int(rng.integers(0, h.levels[n].count)))
                for n in rng.integers(0, 4, size=rng.integers(1, 3))]

    touches = lists = 0
    for _ in range(450):
        a1, a2 = union(), union()
        boxes1, boxes2 = [lcm_word_box(h, w) for w in a1], [lcm_word_box(h, w) for w in a2]
        touch = any(lcm_boxes_touch(b1, b2) for b1 in boxes1 for b2 in boxes2)
        want = []
        for n in levels:
            S = corner_vertices_at_level(cg, n)
            want.append(([v for v in S if loop_vertex_in_boxes(cg, v, boxes1, N)],
                         [v for v in S if loop_vertex_in_boxes(cg, v, boxes2, N)]))
        seen.clear()
        try:
            cross_weight_decay(h, a1, a2, levels)
        except ValueError as exc:
            assert ("adjacent" in str(exc)) == touch
            touches += touch
            if not touch:  # stopped at the first level with an empty side
                assert not all(want[len(seen)]) and seen == want[:len(seen)]
            continue
        assert not touch and seen == want
        lists += 2 * len(want)
    assert touches >= 200 and lists >= 100
