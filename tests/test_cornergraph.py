import numpy as np
import pytest

from resdimlab import cornergraph
from resdimlab.cornergraph import corner_graph, pt_quarter, tb_quarter
from resdimlab.hierarchy import (CHILD_OFFSET, SC_DIGITS, VICSEK_DIGITS, Schedule,
                                 SubdivisionRule, build_hierarchy)
from resdimlab.resnet import LevelGraph, eff_resistance

from conftest import relative_corner_graph


def _dict_corner_graph(schedule, n, m):
    """Reference builder: tuple-keyed dicts, vertex ids by first appearance."""
    cells = [(0, 0)]
    for lvl in range(m + 1, n + 1):
        offs = [CHILD_OFFSET[d] for d in schedule.rule_at(lvl).digits]
        cells = [(3 * ix + dx, 3 * iy + dy) for ix, iy in cells for dx, dy in offs]
    vid, corners, mult = {}, [], {}
    for ix, iy in cells:
        cell = [vid.setdefault(p, len(vid))
                for p in ((ix, iy), (ix + 1, iy), (ix + 1, iy + 1), (ix, iy + 1))]
        corners.append(cell)
        for a, b in zip(cell, cell[1:] + cell[:1]):
            key = (min(a, b), max(a, b))
            mult[key] = mult.get(key, 0) + 1
    edges = sorted(mult)
    return np.array(list(vid), dtype=np.int64), np.array(corners), edges, [float(mult[e]) for e in edges]


@pytest.mark.parametrize("structure", ["sc", "vicsek", "mixed"])
@pytest.mark.parametrize("n, m", [(1, 0), (2, 0), (3, 0), (4, 0), (4, 2)])
def test_matches_dict_builder(structure, n, m):
    sched = Schedule.by_name(structure)
    grid, corners, edges, cond = _dict_corner_graph(sched, n, m)
    cg = corner_graph(sched, n) if m == 0 else relative_corner_graph(sched, n, m)
    assert np.array_equal(cg.grid, grid)
    assert np.array_equal(cg.cell_corners, corners)
    assert list(zip(cg.graph.edge_u.tolist(), cg.graph.edge_v.tolist())) == edges
    assert cg.graph.conductance.tolist() == cond


def test_level_pair_nn_is_unit_cycle():
    cg = corner_graph(Schedule.mixed(), 0)
    assert cg.graph.n == 4
    assert len(cg.graph.conductance) == 4
    assert np.all(cg.graph.conductance == 1.0)
    p1, p3, p5, p7 = cg.corner_vertices()
    assert eff_resistance(cg.graph, [p1], [p5]).value == pytest.approx(1.0)


def test_sc_one_level_vertex_count():
    cg = corner_graph(Schedule.pure_sc(), 1)
    assert cg.graph.n == 16
    assert len(cg.graph.conductance) == 24
    # shared sides carry the doubled conductance
    assert sorted(set(cg.graph.conductance)) == [1.0, 2.0]


def test_vicsek_one_level():
    cg = corner_graph(Schedule.pure_vicsek(), 1)
    assert cg.graph.n == 16
    # junction points (+-1/6, +-1/6) exist and are identified
    for gx in (1, 2):
        for gy in (1, 2):
            cg.vertex_at(gx, gy)
    assert np.all(cg.graph.conductance == 1.0)


def test_cells_align_with_hierarchy():
    sched = Schedule.mixed()
    h = build_hierarchy(sched, 3)
    cg = corner_graph(sched, 3)
    lower_left = cg.grid[cg.cell_corners[:, 0]]
    assert np.array_equal(lower_left[:, 0], h.levels[3].ix)
    assert np.array_equal(lower_left[:, 1], h.levels[3].iy)


def _quarter_of_full_graph(cg, which):
    """The quarter labelling applied to the full corner graph, as the quarter
    builders were before they built only the quarter's cells."""
    g, (x, y), s = cg.graph, cg.grid.T, cg.span
    if which == "pt":
        q = y <= x
        inside, mirror, gain = q & (x + y > s), q & (x + y == s), 1.0
    else:
        left = 2 * x < s
        inside, mirror, gain = left & (2 * y > s), left & (2 * y == s - 1), 2.0
    terminal = int(np.count_nonzero(inside))
    label = np.full(g.n, -1, dtype=np.int64)
    label[inside] = np.arange(terminal)
    label[mirror] = terminal
    lu, lv = label[g.edge_u], label[g.edge_v]
    keep = (lu >= 0) & (lv >= 0) & (lu != lv)
    c = np.where((lu == terminal) | (lv == terminal), gain, 1.0) * g.conductance
    quarter = LevelGraph(terminal + 1, np.column_stack([lu[keep], lv[keep], c[keep]]))
    A = ([int(label[cg.vertex_at(s, s)])] if which == "pt"
         else label[left & (y == s)].tolist())
    return quarter, A, [terminal]


@pytest.mark.parametrize("structure, n_max", [("sc", 5), ("vicsek", 6), ("mixed", 6)])
def test_quarters_equal_full_graph_quarters(structure, n_max):
    """Quarters built from their own cells equal the quarters cut from the
    full corner graph bit for bit, every (n, m) with n <= n_max."""
    sched = Schedule.by_name(structure)
    for n in range(n_max + 1):
        for m in range(n + 1):
            cg = relative_corner_graph(sched, n, m)
            for which, build in (("pt", pt_quarter), ("tb", tb_quarter)):
                g, A, B = build(sched, n, m)
                want, wA, wB = _quarter_of_full_graph(cg, which)
                assert (g.n, A, B) == (want.n, wA, wB)
                assert np.array_equal(g.edge_u, want.edge_u)
                assert np.array_equal(g.edge_v, want.edge_v)
                assert np.array_equal(g.conductance, want.conductance)


def test_quarter_cap_counts_kept_cells(monkeypatch):
    sched = Schedule.pure_sc()
    cg = corner_graph(sched, 3)
    x0, y0 = cg.grid[cg.cell_corners[:, 0]].T  # the lower-left corner of each cell
    s = cg.span
    x1, y1 = x0 + 1, y0 + 1
    kept = {pt_quarter: int(np.count_nonzero((y0 <= x1) & (x1 + np.minimum(y1, x1) >= s))),
            tb_quarter: int(np.count_nonzero((2 * x0 <= s - 1) & (2 * y1 >= s - 1)))}
    monkeypatch.setattr(cornergraph, "VERTEX_CAP", 4 * len(x0) - 1)
    with pytest.raises(ValueError, match=f"about {4 * len(x0)} corner vertices"):
        corner_graph(sched, 3)
    for build, k in kept.items():
        assert k < len(x0)
        monkeypatch.setattr(cornergraph, "VERTEX_CAP", 4 * k)
        build(sched, 3)
        monkeypatch.setattr(cornergraph, "VERTEX_CAP", 4 * k - 1)
        with pytest.raises(ValueError, match=f"about {4 * k} corner vertices"):
            build(sched, 3)


def test_depth_cap():
    with pytest.raises(ValueError, match="cap"):
        corner_graph(Schedule.pure_sc(), 8)


@pytest.mark.parametrize("digits", [(1, 2, 3), (2, 6), (1, 2, 3, 4, 5, 6, 7), (0, 1, 1, 3, 5, 7),
                                    (0, 9)])
def test_rules_refuse_broken_symmetry(digits):
    with pytest.raises(ValueError, match="symmetries of the square"):
        SubdivisionRule("broken", digits)


def test_symmetric_rules_accepted():
    for digits in (SC_DIGITS, VICSEK_DIGITS, (1, 3, 5, 7), (0, 2, 4, 6, 8), (0,)):
        assert SubdivisionRule("ok", digits).digits == digits
