import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from resdimlab.cornergraph import corner_graph, corner_vertices_at_level
from resdimlab.hierarchy import Schedule
from resdimlab.resnet import (LevelGraph, cross_weight_decay,
                              eff_resistance, graph_from_csv, graph_to_csv,
                              localized_resistance, min_energy_flow,
                              pinv_resistance, resistance_weights, trace,
                              traced_cross_weight)
from conftest import random_connected_graph

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
    rxy = solver.pair_resistance(int(x), int(y))
    ryz = solver.pair_resistance(int(y), int(z))
    rxz = solver.pair_resistance(int(x), int(z))
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
    point_min = min(solver.pair_resistance(a, b) for a in A for b in B)
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
