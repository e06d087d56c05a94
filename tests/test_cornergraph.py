import numpy as np
import pytest

from resdimlab.cornergraph import corner_graph
from resdimlab.hierarchy import (CHILD_OFFSET, SC_DIGITS, VICSEK_DIGITS, Schedule,
                                 SubdivisionRule, build_hierarchy)
from resdimlab.resnet import eff_resistance


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
    cg = corner_graph(sched, n, m)
    assert np.array_equal(cg.grid, grid)
    assert np.array_equal(cg.cell_corners, corners)
    assert list(zip(cg.graph.edge_u.tolist(), cg.graph.edge_v.tolist())) == edges
    assert cg.graph.conductance.tolist() == cond


def test_level_pair_nn_is_unit_cycle():
    cg = corner_graph(Schedule.mixed(), 1, 1)
    assert cg.graph.n == 4
    assert cg.graph.m == 4
    assert np.all(cg.graph.conductance == 1.0)
    p1, p3, p5, p7 = cg.corner_vertices()
    assert eff_resistance(cg.graph, [p1], [p5]).value == pytest.approx(1.0)


def test_sc_one_level_vertex_count():
    cg = corner_graph(Schedule.pure_sc(), 1, 0)
    assert cg.graph.n == 16
    assert cg.graph.m == 24
    # shared sides carry the doubled conductance
    assert sorted(set(cg.graph.conductance)) == [1.0, 2.0]


def test_vicsek_one_level():
    cg = corner_graph(Schedule.pure_vicsek(), 1, 0)
    assert cg.graph.n == 16
    # junction points (+-1/6, +-1/6) exist and are identified
    for gx in (1, 2):
        for gy in (1, 2):
            cg.vertex_at(gx, gy)
    assert np.all(cg.graph.conductance == 1.0)


def test_cells_align_with_hierarchy():
    sched = Schedule.mixed()
    h = build_hierarchy(sched, 3)
    cg = corner_graph(sched, 3, 0)
    assert np.array_equal(cg.cells_ix, h.levels[3].ix)
    assert np.array_equal(cg.cells_iy, h.levels[3].iy)


def test_depth_cap():
    with pytest.raises(ValueError, match="cap"):
        corner_graph(Schedule.pure_sc(), 8, 0)


@pytest.mark.parametrize("digits", [(1, 2, 3), (2, 6), (1, 2, 3, 4, 5, 6, 7), (0, 1, 1, 3, 5, 7),
                                    (0, 9)])
def test_rules_refuse_broken_symmetry(digits):
    with pytest.raises(ValueError, match="symmetries of the square"):
        SubdivisionRule("broken", digits)


def test_symmetric_rules_accepted():
    for digits in (SC_DIGITS, VICSEK_DIGITS, (1, 3, 5, 7), (0, 2, 4, 6, 8), (0,)):
        assert SubdivisionRule("ok", digits).digits == digits
