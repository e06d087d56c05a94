import json
import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from resdimlab import hierarchy
from resdimlab.hierarchy import (Schedule, adjacency, build_hierarchy, chain_ball,
                                 delta_level, nstar_estimate, validate_framework)

CORNER_SW = (Fraction(-1, 2), Fraction(-1, 2))
CORNER_NE = (Fraction(1, 2), Fraction(1, 2))


def test_cell_counts():
    assert build_hierarchy(Schedule.pure_sc(), 2).levels[2].count == 64
    assert build_hierarchy(Schedule.pure_vicsek(), 3).levels[3].count == 125
    assert build_hierarchy(Schedule.mixed(), 5).levels[5].count == 8 * 5 * 5 * 5 * 8


def test_mixed_indicator_blocks():
    sched = Schedule.mixed()
    bits = [sched.F(n) for n in range(1, 28)]
    assert bits[0] == 1
    assert bits[1:4] == [0, 0, 0]
    assert bits[4:8] == [1, 1, 1, 1]
    assert bits[8:18] == [0] * 10
    assert bits[18:27] == [1] * 9


def test_depth_cap_rejected(monkeypatch):
    monkeypatch.setattr(hierarchy, "CELL_CAP", 10_000)
    with pytest.raises(ValueError, match="above the cap 10000"):
        build_hierarchy(Schedule.pure_sc(), 10)


def test_unknown_rule_tag():
    with pytest.raises(ValueError, match="unknown structure"):
        Schedule.by_name("menger")


def test_adjacency_level1_counts():
    sc = build_hierarchy(Schedule.pure_sc(), 1)
    assert len(adjacency(sc, 1).edges) == 12
    vs = build_hierarchy(Schedule.pure_vicsek(), 1)
    assert len(adjacency(vs, 1).edges) == 4
    assert len(adjacency(sc, 0).edges) == 0


def _assert_adjacency_oracle(h, level):
    g = adjacency(h, level)
    assert np.all(g.edges[:, 0] < g.edges[:, 1])
    # exhaustive pairwise oracle: closed boxes intersect
    lvl = h.levels[level]
    ix, iy = lvl.ix.tolist(), lvl.iy.tolist()
    expected = []
    for i in range(lvl.count):
        for j in range(i + 1, lvl.count):
            if abs(ix[i] - ix[j]) <= 1 and abs(iy[i] - iy[j]) <= 1:
                expected.append((i, j))
    # edges come in lexicographic order
    assert expected == [(int(a), int(b)) for a, b in g.edges]


def test_adjacency_symmetric_no_self_loops(sc_h6):
    _assert_adjacency_oracle(sc_h6, 2)


@pytest.mark.parametrize("hierarchy, level", [("vs_h6", 2), ("vs_h6", 3),
                                              ("mx_h5", 2), ("mx_h5", 3)])
def test_adjacency_oracle_vicsek_mixed(request, hierarchy, level):
    _assert_adjacency_oracle(request.getfixturevalue(hierarchy), level)


def test_partition_disjoint_interiors(sc_h6):
    lvl = sc_h6.levels[3]
    boxes = set(zip(lvl.ix.tolist(), lvl.iy.tolist()))
    assert len(boxes) == lvl.count


def test_delta_level_examples():
    sc = build_hierarchy(Schedule.pure_sc(), 3)
    d, clipped = delta_level(sc, CORNER_SW, CORNER_NE, 1)
    assert d == 0 and not clipped
    vs = build_hierarchy(Schedule.pure_vicsek(), 3)
    d, clipped = delta_level(vs, CORNER_SW, CORNER_NE, 2)
    assert d >= 1
    # two corners of the SW finest cell: clipped at depth
    d, clipped = delta_level(sc, CORNER_SW,
                             (Fraction(-1, 2) + Fraction(1, 27), Fraction(-1, 2)), 1)
    assert d == 3 and clipped


def _plain_bfs(h, level, sources):
    """Distances from `sources` on the level cell graph; None where unreachable."""
    nbrs = [[] for _ in range(h.levels[level].count)]
    for i, j in adjacency(h, level).edges.tolist():
        nbrs[i].append(j)
        nbrs[j].append(i)
    dist = [None] * len(nbrs)
    queue = deque(sources)
    for s in sources:
        dist[s] = 0
    while queue:
        v = queue.popleft()
        for u in nbrs[v]:
            if dist[u] is None:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def _plain_delta_level(h, x, y, m):
    best = None
    for n in range(h.depth + 1):
        wx, wy = h.cells_containing(n, *x), h.cells_containing(n, *y)
        if wx and wy:
            dist = _plain_bfs(h, n, wx)
            if min(dist[v] for v in wy) <= m:
                best = n
    return best, best == h.depth


@pytest.mark.parametrize("schedule", [Schedule.pure_sc(), Schedule.pure_vicsek(),
                                      Schedule.mixed()], ids=["sc", "vicsek", "mixed"])
def test_chain_distances_match_plain_bfs(schedule):
    h = build_hierarchy(schedule, 3)
    for level in (1, 2, 3):
        count = h.levels[level].count
        for sources in ([0], [count // 2], [count - 1], [0, count // 2]):
            dist = _plain_bfs(h, level, sources)
            for radius in range(4):
                expected = [v for v, d in enumerate(dist) if d is not None and d <= radius]
                assert chain_ball(adjacency(h, level), sources, radius).tolist() == expected
    rng = np.random.default_rng(0)
    lvl, s = h.levels[3], 27
    for _ in range(40):
        i, j = rng.integers(0, lvl.count, size=2)
        cx = rng.integers(0, 2, size=4)
        x = (Fraction(int(lvl.ix[i] + cx[0]), s) - Fraction(1, 2),
             Fraction(int(lvl.iy[i] + cx[1]), s) - Fraction(1, 2))
        y = (Fraction(int(lvl.ix[j] + cx[2]), s) - Fraction(1, 2),
             Fraction(int(lvl.iy[j] + cx[3]), s) - Fraction(1, 2))
        if x != y:
            for m in (1, 2):
                assert delta_level(h, x, y, m) == _plain_delta_level(h, x, y, m)


def test_delta_level_errors():
    sc = build_hierarchy(Schedule.pure_sc(), 2)
    with pytest.raises(ValueError, match="distinct"):
        delta_level(sc, CORNER_SW, CORNER_SW, 1)
    with pytest.raises(ValueError, match="outside"):
        delta_level(sc, (Fraction(2), Fraction(0)), CORNER_SW, 1)
    with pytest.raises(ValueError, match="chain radius must be >= 0"):
        delta_level(sc, CORNER_SW, CORNER_NE, -1)


def test_nstar_values(sc_h6, vs_h6, mx_h5):
    assert nstar_estimate(sc_h6, 4)["n_star"] == pytest.approx(8.0)
    assert nstar_estimate(vs_h6, 4)["n_star"] == pytest.approx(5.0)
    out = nstar_estimate(mx_h5, 6, horizon=30)
    assert out["n_star"] == pytest.approx(8.0)
    assert all(abs(r - 8.0) < 1e-9 for r in out["roots"])


def test_nstar_submultiplicative(mx_h5):
    out = nstar_estimate(mx_h5, 6, horizon=40)
    sups = dict(zip(out["k"], out["sup_counts"]))
    for j in sups:
        for k in sups:
            if j + k in sups:
                assert sups[j + k] <= sups[j] * sups[k]


def test_nstar_kmax_error(sc_h6):
    with pytest.raises(ValueError):
        nstar_estimate(sc_h6, 0)


def test_validate_framework_sc():
    h = build_hierarchy(Schedule.pure_sc(), 3)
    params = validate_framework(h)
    assert params.zeta == Fraction(1, 3)
    assert params.diam_ratio == pytest.approx(math.sqrt(2.0), abs=1e-15)
    assert params.violations == []
    assert math.isfinite(params.b3_band_ratio)
    assert params.b3_samples >= 1000


def test_validate_framework_vicsek_degree():
    h = build_hierarchy(Schedule.pure_vicsek(), 3)
    params = validate_framework(h)
    assert params.l_star == 4
    assert params.violations == []


def test_validate_framework_depth0():
    h = build_hierarchy(Schedule.pure_sc(), 0)
    params = validate_framework(h)
    assert params.violations == []


def test_marker_nesting_and_inner_ball(mx_h5):
    for n in range(mx_h5.depth):
        coarse = {mx_h5.marker(n, i) for i in range(mx_h5.levels[n].count)}
        fine = {mx_h5.marker(n + 1, i) for i in range(mx_h5.levels[n + 1].count)}
        assert coarse <= fine
    xi = Fraction(1, 6)
    for n in range(mx_h5.depth + 1):
        rel = mx_h5._marker_rel_y(n)
        assert Fraction(1, 2) - abs(rel) >= xi


def _set_marker_nesting(h, depth):
    """Marker-nesting violations from exact marker sets of every cell."""
    for n in range(depth):
        coarse = {h.marker(n, i) for i in range(h.levels[n].count)}
        fine = {h.marker(n + 1, i) for i in range(h.levels[n + 1].count)}
        if not coarse.issubset(fine):
            return [f"marker nesting fails {n} -> {n + 1}"]
    return []


def _nesting_violations(h, depth):
    params = validate_framework(h, depth, pair_samples=20)
    return [v for v in params.violations if v.startswith("marker nesting")]


@pytest.mark.parametrize("schedule, depth", [
    (Schedule.pure_sc(), 5), (Schedule.pure_vicsek(), 5), (Schedule.mixed(), 5),
    (Schedule.from_table([1, 0, 0, 1, 1, 0]), 5)], ids=["sc", "vicsek", "mixed", "table"])
def test_marker_nesting_matches_marker_sets(schedule, depth):
    h = build_hierarchy(schedule, depth)
    for d in range(depth + 1):
        assert _nesting_violations(h, d) == _set_marker_nesting(h, d) == []


@pytest.mark.parametrize("schedule, level, digit", [
    (Schedule.pure_sc(), 3, 4), (Schedule.pure_vicsek(), 2, 2)], ids=["carpet", "plus-sign"])
def test_marker_nesting_detects_bad_descent(monkeypatch, schedule, level, digit):
    h = build_hierarchy(schedule, 4)
    descent = h._descent_digit
    monkeypatch.setattr(h, "_descent_digit", lambda j: digit if j == level else descent(j))
    expect = [f"marker nesting fails {level - 1} -> {level}"]
    assert _set_marker_nesting(h, 4) == expect
    assert _nesting_violations(h, 4) == expect


def test_grid_index_box_matches_mask():
    rng = np.random.default_rng(7)
    for schedule in (Schedule.pure_sc(), Schedule.mixed()):
        lvl = build_hierarchy(schedule, 4).levels[4]
        keys = lvl.ix * 81 + lvl.iy
        for _ in range(60):
            xlo, xhi, ylo, yhi = (int(v) for v in rng.integers(-5, 86, size=4))
            inside = (lvl.ix >= xlo) & (lvl.ix <= xhi) & (lvl.iy >= ylo) & (lvl.iy <= yhi)
            expect = np.flatnonzero(inside)
            expect = expect[np.argsort(keys[expect])]
            assert lvl.grid_index.box(xlo, xhi, ylo, yhi).tolist() == expect.tolist()


def test_address_words_match_address(mx_h5):
    for n in range(mx_h5.depth + 1):
        words = mx_h5._address_words(n)
        assert words == ["".join(map(str, mx_h5.address(n, i))) for i in range(mx_h5.levels[n].count)]


def test_marker_is_center_for_vicsek(vs_h6):
    mx, my = vs_h6.marker(2, 7)
    ix, iy, s = vs_h6.cell_box(2, 7)
    assert mx == Fraction(2 * ix + 1, 2 * s) - Fraction(1, 2)
    assert my == Fraction(2 * iy + 1, 2 * s) - Fraction(1, 2)


def test_exports_roundtrip(tmp_path):
    h = build_hierarchy(Schedule.pure_vicsek(), 2)
    path = tmp_path / "cells.json"
    h.export_cells(str(path), 2)
    data = json.loads(path.read_text())
    assert data["count"] == 25
    cell = data["cells"][0]
    num, den = cell["x_min"].split("/")
    assert Fraction(int(num), int(den)) >= Fraction(-1, 2)
    edge_path = tmp_path / "edges.csv"
    h.export_edges_csv(str(edge_path), [1])
    lines = edge_path.read_text().strip().splitlines()
    assert lines[0] == "level,w,v"
    assert len(lines) == 1 + 4


def test_address_index_roundtrip(mx_h5):
    for i in (0, 123, 4567):
        word = mx_h5.address(5, i)
        assert mx_h5.index_of(word) == i


def test_custom_schedule_table():
    sched = Schedule.from_table([1, 0, 1])
    h = build_hierarchy(sched, 3)
    assert h.levels[3].count == 8 * 5 * 8
    with pytest.raises(ValueError):
        build_hierarchy(sched, 4)
