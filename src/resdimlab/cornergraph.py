"""Corner graphs of subdivision schedules.

The level pair (n, m) names the graph obtained by subdividing the unit
square with the rules of levels m+1..n and wiring, for every cell, the
4-cycle on its corner points.  Corners shared between cells are identified
by their exact grid coordinates; a side shared by two cells contributes its
edge twice, and the parallel copies are merged into one conductance-2 edge.
`corner_graph` builds the pairs (n, 0); the quarters below take any pair.

Vertices sit on the integer grid {0..3^(n-m)}^2 (coordinate p/3^(n-m) - 1/2)
and are numbered by first appearance over the cells, each cell listing its
corners counterclockwise from the lower left.

Every subdivision rule is invariant under the dihedral group D4 of the
square, checked exactly when the rule is built (`SubdivisionRule`), so every
corner graph is too.  The (Pt) and (TB) resistances are therefore solved
exactly on a quarter of the graph (`pt_quarter`, `tb_quarter`): with
s = 3^(n-m) odd and every edge a unit axis-parallel step, no edge crosses a
mirror line without touching it, except the edges that cross x = s/2 or
y = s/2 at their midpoints.  A quarter is built from the schedule, keeping
at every level only the cells whose closed box meets it, never from the full
graph.  Every cell that touches a quarter vertex is kept, and the kept cells
are a subsequence of the full cell order, so the quarter is the one the full
graph would give, vertex numbering and edge order included.  The vertex cap
counts the kept cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from .hierarchy import GridIndex, Schedule, child_boxes
from .resnet import LevelGraph

__all__ = ["CornerGraph", "corner_graph", "pt_quarter", "tb_quarter"]

VERTEX_CAP = 4_000_000
DEPTH_CAP = 7


@dataclass
class CornerGraph:
    """Level n, the identified corner vertices, and the cell incidence."""

    n: int
    graph: LevelGraph
    grid: np.ndarray        # (n_vertices, 2) int64 grid coordinates
    cell_corners: np.ndarray  # (n_cells, 4) vertex ids, ccw from lower-left

    @property
    def span(self) -> int:
        return 3 ** self.n

    @cached_property
    def grid_index(self) -> GridIndex:
        return GridIndex(self.grid[:, 0], self.grid[:, 1], self.span + 1)

    def vertex_at(self, gx, gy):
        """Vertex id at grid (gx, gy); array ids for array coordinates."""
        idx = self.grid_index.lookup(gx, gy)
        if (idx < 0).any():
            raise KeyError(f"no corner vertex at grid ({gx}, {gy})")
        return int(idx) if idx.ndim == 0 else idx

    def corner_vertices(self) -> Tuple[int, int, int, int]:
        """p1, p3, p5, p7 (the four corners of the unit square)."""
        s = self.span
        return (self.vertex_at(s, s), self.vertex_at(0, s),
                self.vertex_at(0, 0), self.vertex_at(s, 0))

    def coords_float(self) -> np.ndarray:
        return self.grid / self.span - 0.5


def _cells(schedule: Schedule, n: int, m: int, keep=None):
    """The corners of the cells of the relative hierarchy driven by levels
    m+1..n, parent-major (c5, c7, c1, c3 per cell, ids by first appearance
    over the cells), and the grid point of each id.

    With `keep`, every level drops the cells whose closed box
    [X0, X1] x [Y0, Y1], on the grid {0..3^(n-m)}^2, fails keep(X0, X1, Y0, Y1);
    the cells left are a subsequence of the full order.  The vertex cap
    counts the cells left.
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    if n - m > DEPTH_CAP:
        raise ValueError(f"corner graph depth {n - m} above the cap {DEPTH_CAP}")
    depth = n - m
    span = 3 ** depth
    cells_ix = np.zeros(1, dtype=np.int64)
    cells_iy = np.zeros(1, dtype=np.int64)
    for lvl in range(1, depth + 1):
        cells_ix, cells_iy = child_boxes(cells_ix, cells_iy, schedule.rule_at(m + lvl).digits)
        if keep is not None:
            f = 3 ** (depth - lvl)
            inside = keep(f * cells_ix, f * (cells_ix + 1), f * cells_iy, f * (cells_iy + 1))
            cells_ix, cells_iy = cells_ix[inside], cells_iy[inside]

    if 4 * len(cells_ix) > VERTEX_CAP:
        raise ValueError(f"about {4 * len(cells_ix)} corner vertices, above the cap {VERTEX_CAP}")

    gx = cells_ix[:, None] + np.array([0, 1, 1, 0])
    gy = cells_iy[:, None] + np.array([0, 0, 1, 1])
    keys, first, inverse = np.unique((gx * (span + 1) + gy).reshape(-1),
                                     return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty(len(keys), dtype=np.int64)
    rank[by_first] = np.arange(len(keys))
    cell_corners = rank[inverse].reshape(-1, 4)
    grid = np.stack(np.divmod(keys[by_first], span + 1), axis=1)
    return cell_corners, grid


def _sides(cell_corners: np.ndarray) -> np.ndarray:
    """One (u, v) row per cell side, four per cell."""
    return np.stack([cell_corners, np.roll(cell_corners, -1, axis=1)], axis=2).reshape(-1, 2)


def corner_graph(schedule: Schedule, n: int) -> CornerGraph:
    """Build the level-n corner graph of `schedule`, the (n, 0) pair.

    Refuses above the depth cap; level 0 is the plain 4-cycle.
    """
    cell_corners, grid = _cells(schedule, n, 0)
    # One unit-conductance edge per cell side; LevelGraph adds the shared copies.
    sides = _sides(cell_corners)
    g = LevelGraph(len(grid), np.column_stack([sides, np.ones(len(sides))]))
    return CornerGraph(n, g, grid, cell_corners)


def _quarter(cell_corners: np.ndarray, inside: np.ndarray, mirror: np.ndarray,
             gain: float) -> Tuple[LevelGraph, np.ndarray]:
    """The graph the cell sides induce on the `inside` vertices plus one
    terminal, the last vertex, that stands for the `mirror` vertices; edges
    to the terminal have conductance `gain` per side.  Returns it with the
    map from cell-corner ids to its vertices (-1 off it)."""
    terminal = int(np.count_nonzero(inside))
    label = np.full(len(inside), -1, dtype=np.int64)
    label[inside] = np.arange(terminal)
    label[mirror] = terminal
    lu, lv = label[_sides(cell_corners)].T
    keep = (lu >= 0) & (lv >= 0) & (lu != lv)
    c = np.where((lu == terminal) | (lv == terminal), gain, 1.0)
    edges = np.column_stack([lu[keep], lv[keep], c[keep]])
    return LevelGraph(terminal + 1, edges), label


def pt_quarter(schedule: Schedule, n: int, m: int = 0) -> Tuple[LevelGraph, List[int], List[int]]:
    """(graph, A, B) with eff_resistance(graph, A, B) = R(p1, p5) = (Pt)_{n,m}.

    The antidiagonal reflection (x, y) -> (s-y, s-x) swaps p1 and p5 and
    takes the potential u to 1 - u, so u = 1/2 on D = {x + y = s}; the
    diagonal reflection fixes p1 and D and splits the current from p1 evenly.
    On Q = {x + y >= s, y <= x} with D merged into one terminal, R(p1, D) is
    (Pt/2) * 2 = Pt.  Exact because every rule is D4-invariant (`SubdivisionRule`).
    """
    s = 3 ** (n - m)
    cell_corners, grid = _cells(
        schedule, n, m, lambda x0, x1, y0, y1: (y0 <= x1) & (x1 + np.minimum(y1, x1) >= s))
    x, y = grid.T
    q = y <= x
    g, label = _quarter(cell_corners, q & (x + y > s), q & (x + y == s), 1.0)
    return g, label[(x == s) & (y == s)].tolist(), [g.n - 1]


def tb_quarter(schedule: Schedule, n: int, m: int = 0) -> Tuple[LevelGraph, List[int], List[int]]:
    """(graph, A, B) with eff_resistance(graph, A, B) = R(top, bottom) = (TB)_{n,m}.

    The reflection y -> s-y swaps the sides and takes u to 1 - u, so the
    midpoint of every vertical edge across y = s/2 sits at 1/2: half of such
    an edge of conductance c is an edge of conductance 2c to a terminal at
    1/2.  The reflection x -> s-x keeps u, so the horizontal edges across
    x = s/2 carry no current.  On Q = {x < s/2, y > s/2}, R(top, terminal)
    is (TB/2) * 2 = TB.  Exact because every rule is D4-invariant (`SubdivisionRule`).
    """
    s = 3 ** (n - m)
    cell_corners, grid = _cells(
        schedule, n, m, lambda x0, x1, y0, y1: (2 * x0 <= s - 1) & (2 * y1 >= s - 1))
    x, y = grid.T
    left = 2 * x < s
    g, label = _quarter(cell_corners, left & (2 * y > s), left & (2 * y == s - 1), 2.0)
    return g, label[left & (y == s)].tolist(), [g.n - 1]
