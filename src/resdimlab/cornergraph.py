"""Corner graphs of subdivision schedules.

The level pair (n, m) names the graph obtained by subdividing the unit
square with the rules of levels m+1..n and wiring, for every cell, the
4-cycle on its corner points.  Corners shared between cells are identified
by their exact grid coordinates; a side shared by two cells contributes its
edge twice, and the parallel copies are merged into one conductance-2 edge.

Vertices sit on the integer grid {0..3^(n-m)}^2 (coordinate p/3^(n-m) - 1/2)
and are numbered by first appearance over the cells, each cell listing its
corners counterclockwise from the lower left.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from .hierarchy import GridIndex, Schedule, child_boxes
from .resnet import LevelGraph

__all__ = ["CornerGraph", "corner_graph", "corner_vertices_at_level"]

VERTEX_CAP = 4_000_000
DEPTH_CAP = 7


@dataclass
class CornerGraph:
    """Levels (n, m), the identified corner vertices, and the cell incidence."""

    n: int
    m: int
    graph: LevelGraph
    grid: np.ndarray        # (n_vertices, 2) int64 grid coordinates
    cell_corners: np.ndarray  # (n_cells, 4) vertex ids, ccw from lower-left
    cells_ix: np.ndarray
    cells_iy: np.ndarray

    @property
    def span(self) -> int:
        return 3 ** (self.n - self.m)

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

    def side_vertices(self, side: str) -> List[int]:
        s = self.span
        if side == "top":
            sel = self.grid[:, 1] == s
        elif side == "bottom":
            sel = self.grid[:, 1] == 0
        elif side == "left":
            sel = self.grid[:, 0] == 0
        elif side == "right":
            sel = self.grid[:, 0] == s
        else:
            raise ValueError(f"unknown side {side!r}")
        return [int(v) for v in np.where(sel)[0]]

    def coords_float(self) -> np.ndarray:
        return self.grid / self.span - 0.5


def corner_graph(schedule: Schedule, n: int, m: int = 0) -> CornerGraph:
    """Build the (n, m) corner graph of `schedule`.

    Refuses above the depth cap; the pair (n, n) is the plain 4-cycle.
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    if n - m > DEPTH_CAP:
        raise ValueError(f"corner graph depth {n - m} above the cap {DEPTH_CAP}")

    # Cells of the relative hierarchy driven by levels m+1..n.
    depth = n - m
    cells_ix = np.zeros(1, dtype=np.int64)
    cells_iy = np.zeros(1, dtype=np.int64)
    for lvl in range(1, depth + 1):
        cells_ix, cells_iy = child_boxes(cells_ix, cells_iy, schedule.rule_at(m + lvl).digits)

    if 4 * len(cells_ix) > VERTEX_CAP:
        raise ValueError(f"about {4 * len(cells_ix)} corner vertices, above the cap {VERTEX_CAP}")

    # Corners c5, c7, c1, c3 of every cell; ids by first appearance in this order.
    span = 3 ** depth
    gx = cells_ix[:, None] + np.array([0, 1, 1, 0])
    gy = cells_iy[:, None] + np.array([0, 0, 1, 1])
    keys, first, inverse = np.unique((gx * (span + 1) + gy).reshape(-1),
                                     return_index=True, return_inverse=True)
    by_first = np.argsort(first)
    rank = np.empty(len(keys), dtype=np.int64)
    rank[by_first] = np.arange(len(keys))
    cell_corners = rank[inverse].reshape(-1, 4)
    grid = np.stack(np.divmod(keys[by_first], span + 1), axis=1)

    # One unit-conductance edge per cell side; LevelGraph adds the shared copies.
    sides = np.stack([cell_corners, np.roll(cell_corners, -1, axis=1)], axis=2).reshape(-1, 2)
    edges = np.column_stack([sides, np.ones(len(sides))])
    g = LevelGraph(len(keys), edges, coords=grid / span - 0.5)
    return CornerGraph(n, m, g, grid, cell_corners, cells_ix, cells_iy)


def corner_vertices_at_level(cg: CornerGraph, level: int) -> List[int]:
    """Vertex ids of the coarser level-`level` corner set inside cg (m = 0).

    Valid because both rules keep all four corner children, so coarse corner
    points persist at every finer level.
    """
    if cg.m != 0:
        raise ValueError("level embedding assumes m = 0")
    if not 0 <= level <= cg.n:
        raise ValueError("level out of range")
    f = 3 ** (cg.n - level)
    # grid positions inside holes simply do not exist; that is expected
    gx, gy = np.meshgrid(np.arange(3 ** level + 1) * f, np.arange(3 ** level + 1) * f,
                         indexing="ij")
    ids = cg.grid_index.lookup(gx.ravel(), gy.ravel())
    return ids[ids >= 0].tolist()
