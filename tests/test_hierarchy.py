import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from resdimlab import hierarchy
from resdimlab.hierarchy import (D4, M_STAR, GridIndex, Schedule, adjacency, build_hierarchy,
                                 chain_ball, delta_level, nstar_estimate, sample_corners,
                                 validate_framework)


def test_cell_counts():
    assert build_hierarchy(Schedule.pure_sc(), 2).levels[2].count == 64
    assert build_hierarchy(Schedule.pure_vicsek(), 3).levels[3].count == 125
    assert build_hierarchy(Schedule.mixed(), 5).levels[5].count == 8 * 5 * 5 * 5 * 8


def test_grid_permutation_matches_point_loop():
    # the image of each point under each symmetry of the square, found by a
    # dictionary of the points; -1 where the image is not a point
    rng = np.random.default_rng(5)
    side = 7
    pts = np.unique(rng.integers(0, side, (30, 2)), axis=0)[rng.permutation(25)]
    where = {(int(a), int(b)): i for i, (a, b) in enumerate(pts)}
    index = GridIndex(pts[:, 0], pts[:, 1], side)
    for swap, mirror_x, mirror_y in D4:
        want = []
        for a, b in pts.tolist():
            a, b = (b, a) if swap else (a, b)
            want.append(where.get((side - 1 - a if mirror_x else a,
                                   side - 1 - b if mirror_y else b), -1))
        assert index.permutation((swap, mirror_x, mirror_y)).tolist() == want
    full = GridIndex(*np.divmod(np.arange(side * side), side), side)
    perms = {tuple(full.permutation(e).tolist()) for e in D4}
    assert len(perms) == 8 and tuple(range(side * side)) in perms


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
    with pytest.raises(ValueError, match="unknown structure"):
        Schedule.by_name("vs")


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
    # points are integers on the 27-grid of depth 3: (0, 0) is the SW corner
    # (-1/2, -1/2), (27, 27) the NE corner (1/2, 1/2)
    sc = build_hierarchy(Schedule.pure_sc(), 3)
    d, clipped = delta_level(sc, (0, 0), (27, 27))
    assert d == 0 and not clipped
    # two corners of the SW finest cell, (-1/2, -1/2) and (-1/2 + 1/27, -1/2):
    # clipped at depth
    d, clipped = delta_level(sc, (0, 0), (1, 0))
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


def _fraction_cells_containing(h, n, x, y):
    """Level-n cells whose closed square holds the exact point (x, y) of Q."""
    u, v = (x + Fraction(1, 2)) * 3 ** n, (y + Fraction(1, 2)) * 3 ** n
    return h.levels[n].grid_index.box(math.ceil(u) - 1, math.floor(u),
                                      math.ceil(v) - 1, math.floor(v)).tolist()


def _plain_delta_level(h, x, y):
    """delta_level from exact Fraction points and full shortest-path distances."""
    best = None
    for n in range(h.depth + 1):
        wx, wy = _fraction_cells_containing(h, n, *x), _fraction_cells_containing(h, n, *y)
        if wx and wy:
            dist = dijkstra(adjacency(h, n).csr, unweighted=True, indices=wx, min_only=True)
            if dist[wy].min() <= M_STAR:
                best = n
    return best, best == h.depth


def _oracle_points(h, count, rng):
    """Grid points of the depth grid: corners of finest cells, points drawn
    anywhere in Q (holes included) and points on the boundary of Q."""
    side = 3 ** h.depth
    lvl = h.levels[h.depth]
    pts = []
    for kind in rng.integers(0, 3, count).tolist():
        if kind == 0:
            i = int(rng.integers(0, lvl.count))
            pts.append((int(lvl.ix[i]) + int(rng.integers(0, 2)),
                        int(lvl.iy[i]) + int(rng.integers(0, 2))))
        elif kind == 1:
            pts.append(tuple(int(v) for v in rng.integers(0, side + 1, 2)))
        else:
            edge, t = int(rng.integers(0, 2)) * side, int(rng.integers(0, side + 1))
            pts.append((edge, t) if rng.integers(0, 2) else (t, edge))
    return pts


@pytest.mark.parametrize("schedule", [Schedule.pure_sc(), Schedule.pure_vicsek(),
                                      Schedule.mixed()], ids=["sc", "vicsek", "mixed"])
def test_chain_distances_match_plain_bfs(schedule):
    h = build_hierarchy(schedule, 3)
    for level in (1, 2, 3):
        count = h.levels[level].count
        for sources in ([0], [count // 2], [count - 1], [0, count // 2]):
            dist = _plain_bfs(h, level, sources)
            expected = [v for v, d in enumerate(dist) if d is not None and d <= M_STAR]
            assert chain_ball(adjacency(h, level), sources).tolist() == expected
    rng = np.random.default_rng(0)
    for depth in (3, 5):
        h = build_hierarchy(schedule, depth)
        side = 3 ** depth
        pts = _oracle_points(h, 400, rng)
        # near pairs reach the deep levels and the clipped case
        near = [tuple(np.clip(np.add(x, rng.integers(-2, 3, 2)), 0, side).tolist())
                for x in pts[:60]]
        pairs = [(x, y) for x, y in zip(pts[::2] + pts[:60], pts[1::2] + near) if x != y]
        assert len(pairs) >= 200
        for x, y in pairs:
            fx, fy = (tuple(Fraction(g, side) - Fraction(1, 2) for g in p) for p in (x, y))
            assert delta_level(h, x, y) == _plain_delta_level(h, fx, fy)


@pytest.mark.parametrize("sources, bad", [([-1], -1), ([8], 8), ([0, 8], 8), ([-1, 8], -1)],
                         ids=["-1", "8", "0,8", "-1,8"])
def test_chain_ball_source_out_of_range(sources, bad):
    # on the 8 level-1 carpet cells, -1 would join its own ball unchecked and
    # 8 would read the CSR row pointers past their end
    g = adjacency(build_hierarchy(Schedule.pure_sc(), 1), 1)
    with pytest.raises(ValueError, match=f"source cell {bad} outside 0..7"):
        chain_ball(g, sources)


def test_delta_level_errors():
    sc = build_hierarchy(Schedule.pure_sc(), 2)  # points on the 9-grid
    with pytest.raises(ValueError, match="distinct"):
        delta_level(sc, (0, 0), (0, 0))
    # (10, 4) and (4, -1) lie just right of and just below Q
    for outside in ((10, 4), (4, -1)):
        with pytest.raises(ValueError, match="outside"):
            delta_level(sc, outside, (0, 0))
    # a Fraction point of Q is not a grid point
    with pytest.raises(TypeError):
        delta_level(sc, (Fraction(-1, 2), Fraction(-1, 2)), (9, 9))


def _old_sample_centers(h, level, count, seed):
    """Centres as the sampler of measure drew them before sample_corners."""
    rng = np.random.default_rng(seed)
    lvl = h.levels[level]
    s = 3 ** level
    picks = rng.integers(0, lvl.count, size=count)
    corner = rng.integers(0, 2, size=(count, 2))
    return [((int(lvl.ix[i]) + int(cx)) / s - 0.5, (int(lvl.iy[i]) + int(cy)) / s - 0.5)
            for i, (cx, cy) in zip(picks, corner)]


def _old_b3_points(h, depth, attempts, seed):
    """Point pairs of the (B3) attempt loop of validate_framework before
    sample_corners, as exact Fractions."""
    rng = np.random.default_rng(seed)
    lvl = h.levels[depth]
    s = 3 ** depth
    out = []
    for _ in range(attempts):
        i, j = rng.integers(0, lvl.count, size=2)
        cx = rng.integers(0, 2, size=4)
        px = Fraction(int(lvl.ix[i]) + int(cx[0]), s) - Fraction(1, 2)
        py = Fraction(int(lvl.iy[i]) + int(cx[1]), s) - Fraction(1, 2)
        qx = Fraction(int(lvl.ix[j]) + int(cx[2]), s) - Fraction(1, 2)
        qy = Fraction(int(lvl.iy[j]) + int(cx[3]), s) - Fraction(1, 2)
        out.append(((px, py), (qx, qy)))
    return out


@pytest.mark.parametrize("schedule", [Schedule.pure_sc(), Schedule.pure_vicsek(),
                                      Schedule.mixed()], ids=["sc", "vicsek", "mixed"])
def test_sample_corners_match_old_draws(schedule):
    h = build_hierarchy(schedule, 4)
    for level in (1, 2, 3, 4):
        s = 3 ** level
        for seed in (0, 1, 2, 3):
            g = sample_corners(h, level, 40, np.random.default_rng(seed))
            assert g.dtype == np.int64 and g.shape == (40, 2)
            centers = [tuple(c) for c in (g / s - 0.5).tolist()]
            assert centers == _old_sample_centers(h, level, 40, seed)
            rng = np.random.default_rng(seed)
            new = [tuple(tuple(Fraction(int(v), s) - Fraction(1, 2) for v in pt)
                         for pt in sample_corners(h, level, 2, rng)) for _ in range(30)]
            assert new == _old_b3_points(h, level, 30, seed)


def test_nstar_values(monkeypatch, sc_h6, vs_h6):
    monkeypatch.setattr(hierarchy, "NSTAR_KMAX", 4)
    assert nstar_estimate(sc_h6)["n_star"] == 8.0
    assert nstar_estimate(vs_h6)["n_star"] == 5.0
    monkeypatch.setattr(hierarchy, "NSTAR_KMAX", 6)
    monkeypatch.setattr(hierarchy, "NSTAR_HORIZON", 30)
    out = nstar_estimate(build_hierarchy(Schedule.mixed(), 6))
    assert out["n_star"] == 8.0
    assert all(abs(r - 8.0) < 1e-9 for r in out["roots"])


def test_nstar_submultiplicative(monkeypatch):
    monkeypatch.setattr(hierarchy, "NSTAR_HORIZON", 40)
    out = nstar_estimate(build_hierarchy(Schedule.mixed(), 6))
    # each window sup is an integer count, the k-th power of its root
    sups = {k: round(r ** k) for k, r in enumerate(out["roots"], 1)}
    for j in sups:
        for k in sups:
            if j + k in sups:
                assert sups[j + k] <= sups[j] * sups[k]


def test_nstar_kmax_error():
    """At depth 0 no window length k >= 1 is built."""
    with pytest.raises(ValueError, match="depth >= 1"):
        nstar_estimate(build_hierarchy(Schedule.pure_sc(), 0))


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


def _marker(h, n, i):
    """Nested interior point x_w of cell i at level n (exact): x at the
    cell's centre, y at the descent chain's limit inside the cell."""
    ix, iy, s = int(h.levels[n].ix[i]), int(h.levels[n].iy[i]), 3 ** n
    mx = Fraction(2 * ix + 1, 2 * s) - Fraction(1, 2)
    my = Fraction(iy, s) + (Fraction(1, 2) + h._marker_rel_y(n)) / s - Fraction(1, 2)
    return (mx, my)


def test_marker_nesting_and_inner_ball(mx_h5):
    for n in range(mx_h5.depth):
        coarse = {_marker(mx_h5, n, i) for i in range(mx_h5.levels[n].count)}
        fine = {_marker(mx_h5, n + 1, i) for i in range(mx_h5.levels[n + 1].count)}
        assert coarse <= fine
    xi = Fraction(1, 6)
    for n in range(mx_h5.depth + 1):
        rel = mx_h5._marker_rel_y(n)
        assert Fraction(1, 2) - abs(rel) >= xi


def _set_marker_nesting(h, depth):
    """Marker-nesting violations from exact marker sets of every cell."""
    for n in range(depth):
        coarse = {_marker(h, n, i) for i in range(h.levels[n].count)}
        fine = {_marker(h, n + 1, i) for i in range(h.levels[n + 1].count)}
        if not coarse.issubset(fine):
            return [f"marker nesting fails {n} -> {n + 1}"]
    return []


def _nesting_violations(h, monkeypatch):
    monkeypatch.setattr(hierarchy, "B3_PAIRS", 20)
    return [v for v in validate_framework(h).violations if v.startswith("marker nesting")]


@pytest.mark.parametrize("schedule, depth", [
    (Schedule.pure_sc(), 5), (Schedule.pure_vicsek(), 5), (Schedule.mixed(), 5),
    (Schedule.from_table([1, 0, 0, 1, 1, 0]), 5)], ids=["sc", "vicsek", "mixed", "table"])
def test_marker_nesting_matches_marker_sets(monkeypatch, schedule, depth):
    for d in range(depth + 1):
        h = build_hierarchy(schedule, d)
        assert _nesting_violations(h, monkeypatch) == _set_marker_nesting(h, d) == []


@pytest.mark.parametrize("schedule, level, digit", [
    (Schedule.pure_sc(), 3, 4), (Schedule.pure_vicsek(), 2, 2)], ids=["carpet", "plus-sign"])
def test_marker_nesting_detects_bad_descent(monkeypatch, schedule, level, digit):
    h = build_hierarchy(schedule, 4)
    descent = h._descent_digit
    monkeypatch.setattr(h, "_descent_digit", lambda j: digit if j == level else descent(j))
    expect = [f"marker nesting fails {level - 1} -> {level}"]
    assert _set_marker_nesting(h, 4) == expect
    assert _nesting_violations(h, monkeypatch) == expect


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


def _walk_address(h, n, i):
    """Reference: cell i's digit word, read up its parents from level n."""
    digits = []
    for m in range(n, 0, -1):
        digits.append(str(h.levels[m].digit[i]))
        i = h.levels[m].parent[i]
    return "".join(reversed(digits))


def test_address_words_match_address(mx_h5):
    for n in range(mx_h5.depth + 1):
        words = mx_h5.address_words(n)
        assert words == [_walk_address(mx_h5, n, i) for i in range(mx_h5.levels[n].count)]


def test_marker_is_center_for_vicsek(vs_h6):
    mx, my = _marker(vs_h6, 2, 7)
    ix, iy, s = int(vs_h6.levels[2].ix[7]), int(vs_h6.levels[2].iy[7]), 3 ** 2
    assert mx == Fraction(2 * ix + 1, 2 * s) - Fraction(1, 2)
    assert my == Fraction(2 * iy + 1, 2 * s) - Fraction(1, 2)


def test_exports_roundtrip():
    h = build_hierarchy(Schedule.pure_vicsek(), 2)
    data = h.cells_json(2)
    assert data["count"] == 25 == len(data["cells"])
    cell = data["cells"][0]
    num, den = cell["x_min"].split("/")
    assert Fraction(int(num), int(den)) >= Fraction(-1, 2)
    assert len(adjacency(h, 1).edges) == 4


def test_custom_schedule_table():
    sched = Schedule.from_table([1, 0, 1])
    h = build_hierarchy(sched, 3)
    assert h.levels[3].count == 8 * 5 * 8
    with pytest.raises(ValueError):
        build_hierarchy(sched, 4)
