"""Partition hierarchies for square-based subdivision schedules.

Cells live on the exact 3-adic grid of the unit square Q = [-1/2, 1/2]^2:
a level-n cell is an integer box (ix, iy) with 0 <= ix, iy < 3**n standing
for [-1/2 + ix*3^-n, -1/2 + (ix+1)*3^-n] x [-1/2 + iy*3^-n, -1/2 + (iy+1)*3^-n].
All intersection and containment tests are integer arithmetic on the box
coordinates: a level's GridIndex answers every "which cells lie in this
grid window" query (adjacency, point location, ball covers).  Points are
integers too: (gx, gy) on the grid of the built depth stands for
(gx/3^depth - 1/2, gy/3^depth - 1/2), and its level-n slots come from
divmod, so none of these tests carries a tolerance.

Two subdivision rules are supported per level: the eight-cell carpet rule
(child digits 1..8, the center ninth removed) and the five-cell plus-sign
rule (digits 0,1,3,5,7).  A Schedule assigns one rule to each level; the
mixed schedule switches rule by the predicate k^2(k-1) < n <= k^3.

A level stores its cell boxes only, parent-major, so a cell's parent and
child digit follow from its index and the level's rule.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SC_DIGITS",
    "VICSEK_DIGITS",
    "CHILD_OFFSET",
    "SubdivisionRule",
    "RULE_SC",
    "RULE_VICSEK",
    "Schedule",
    "child_boxes",
    "D4",
    "GridIndex",
    "AdjacencyGraph",
    "FrameworkParams",
    "PartitionHierarchy",
    "build_hierarchy",
    "adjacency",
    "chain_ball",
    "sample_corners",
    "delta_level",
    "validate_framework",
    "nstar_estimate",
]

# Digit -> offset of the child box inside the 3x3 refinement of its parent.
# Digits follow the boundary-point numbering: 1 top-right corner, then
# counterclockwise; 0 is the center.
CHILD_OFFSET: Dict[int, Tuple[int, int]] = {
    0: (1, 1),
    1: (2, 2),
    2: (1, 2),
    3: (0, 2),
    4: (0, 1),
    5: (0, 0),
    6: (1, 0),
    7: (2, 0),
    8: (2, 1),
}

SC_DIGITS: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
VICSEK_DIGITS: Tuple[int, ...] = (0, 1, 3, 5, 7)

# Levels of the marker descent chain kept below the built depth.
MARKER_TAIL = 40

# Most cells a hierarchy may hold on its deepest level.
CELL_CAP = 5_000_000

# The partition framework's constants: the chain radius M_* of the separation
# problems, the window lengths k <= NSTAR_KMAX and the levels (up to
# NSTAR_HORIZON) behind the branching rate N*, and the corner pairs sampled
# for the (B3) chain comparison.
M_STAR = 1
NSTAR_KMAX = 6
NSTAR_HORIZON = 64
B3_PAIRS = 1200


@dataclass(frozen=True)
class SubdivisionRule:
    """One level's subdivision: a named set of child digits, ratio 1/3.

    The child offsets must be invariant under x -> 2 - x and (x, y) -> (y, x),
    which generate the symmetry group D4 of the square.  By induction over
    `child_boxes`, every cell set built from such rules, and every corner
    graph on it, is then D4-invariant: the one check behind the symmetry
    reductions of `cornergraph`, `heat` and `penergy`.
    """

    name: str
    digits: Tuple[int, ...]

    def __post_init__(self):
        offsets = {CHILD_OFFSET[d] for d in self.digits if d in CHILD_OFFSET}
        if (len(offsets) != len(self.digits) or offsets != {(2 - x, y) for x, y in offsets}
                or offsets != {(y, x) for x, y in offsets}):
            raise ValueError(f"rule {self.name}: digits {self.digits} are not distinct "
                             "child digits invariant under the symmetries of the square")

    @property
    def branching(self) -> int:
        return len(self.digits)


RULE_SC = SubdivisionRule("SC", SC_DIGITS)
RULE_VICSEK = SubdivisionRule("Vicsek", VICSEK_DIGITS)


def mixed_indicator(n: int) -> int:
    """1 iff k^2(k-1) < n <= k^3 for some positive integer k."""
    if n < 1:
        raise ValueError("schedule index must be >= 1")
    k = 1
    while k * k * k < n:
        k += 1
    return 1 if k * k * (k - 1) < n <= k ** 3 else 0


class Schedule:
    """level -> subdivision rule; levels are 1-based.

    The indicator F(n) selects the rule: F(n) = 1 means the carpet rule,
    F(n) = 0 the plus-sign rule.  Formula-backed schedules extend to any
    level; table-backed ones carry a finite horizon.
    """

    def __init__(self, indicator: Callable[[int], int], name: str, horizon: Optional[int] = None):
        self._indicator = indicator
        self.name = name
        self.horizon = horizon  # None = unbounded

    @classmethod
    def pure_sc(cls) -> "Schedule":
        return cls(lambda n: 1, "sc")

    @classmethod
    def pure_vicsek(cls) -> "Schedule":
        return cls(lambda n: 0, "vicsek")

    @classmethod
    def mixed(cls) -> "Schedule":
        return cls(mixed_indicator, "mixed")

    @classmethod
    def from_table(cls, bits: Sequence[int]) -> "Schedule":
        bits = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("schedule table entries must be 0 or 1")

        def indicator(n: int) -> int:
            if not 1 <= n <= len(bits):
                raise ValueError(f"custom schedule defined only for 1..{len(bits)}")
            return bits[n - 1]

        return cls(indicator, "custom", horizon=len(bits))

    @classmethod
    def by_name(cls, name: str) -> "Schedule":
        key = name.lower()
        if key == "sc":
            return cls.pure_sc()
        if key == "vicsek":
            return cls.pure_vicsek()
        if key == "mixed":
            return cls.mixed()
        raise ValueError(f"unknown structure {name!r} (expected sc, vicsek or mixed)")

    def F(self, n: int) -> int:
        if n < 1:
            raise ValueError("schedule index must be >= 1")
        if self.horizon is not None and n > self.horizon:
            raise ValueError(f"schedule {self.name} defined only up to level {self.horizon}")
        val = int(self._indicator(n))
        if val not in (0, 1):
            raise ValueError(f"indicator returned {val}, expected 0/1")
        return val

    def rule_at(self, n: int) -> SubdivisionRule:
        return RULE_SC if self.F(n) == 1 else RULE_VICSEK

    def branching(self, n: int) -> int:
        return self.rule_at(n).branching


def child_boxes(ix: np.ndarray, iy: np.ndarray,
                digits: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """Grid boxes of the children of every box (ix, iy), one level down:
    parent-major, each parent's children in the order of `digits`."""
    offs = np.array([CHILD_OFFSET[d] for d in digits], dtype=np.int64)
    return ((3 * ix[:, None] + offs[None, :, 0]).reshape(-1),
            (3 * iy[:, None] + offs[None, :, 1]).reshape(-1))


# The symmetries of the square as (swap, mirror_x, mirror_y), identity first:
# swap the axes if `swap`, then x -> side-1-x if `mirror_x` and y -> side-1-y
# if `mirror_y`.
D4: Tuple[Tuple[bool, bool, bool], ...] = tuple(itertools.product((False, True), repeat=3))


class GridIndex:
    """Ids of distinct points of the integer grid {0..side-1}^2.

    The points are packed into int64 keys x*side + y and kept sorted, with the
    permutation back to their ids, so a lookup is one np.searchsorted.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, side: int):
        self.side = int(side)
        keys = np.asarray(x, dtype=np.int64) * self.side + np.asarray(y, dtype=np.int64)
        self._ids = np.argsort(keys, kind="stable")
        self._keys = keys[self._ids]

    def lookup(self, x, y) -> np.ndarray:
        """Ids of the points (x, y), broadcast; -1 where no point is indexed."""
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        inside = (x >= 0) & (x < self.side) & (y >= 0) & (y < self.side)
        keys = np.where(inside, x * self.side + y, -1)
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return np.where(inside & (self._keys[pos] == keys), self._ids[pos], -1)

    def permutation(self, element: Tuple[bool, bool, bool]) -> np.ndarray:
        """perm[i]: the id of the image of point i under `element` of D4, -1
        where the image is not indexed."""
        swap, mirror_x, mirror_y = element
        x, y = np.divmod(self._keys, self.side)
        if swap:
            x, y = y, x
        perm = np.empty_like(self._ids)
        perm[self._ids] = self.lookup(self.side - 1 - x if mirror_x else x,
                                      self.side - 1 - y if mirror_y else y)
        return perm

    def box(self, xlo: int, xhi: int, ylo: int, yhi: int) -> np.ndarray:
        """Ids of the points with xlo <= x <= xhi and ylo <= y <= yhi, clipped
        to the grid, in key order (x-major)."""
        xlo, ylo = max(xlo, 0), max(ylo, 0)
        xhi, yhi = min(xhi, self.side - 1), min(yhi, self.side - 1)
        if xlo > xhi or ylo > yhi:
            return np.empty(0, dtype=np.int64)
        start, stop = self.column_ranges(np.arange(xlo, xhi + 1, dtype=np.int64), ylo, yhi)
        return np.concatenate([self._ids[a:b] for a, b in zip(start.tolist(), stop.tolist())])

    def column_ranges(self, x: np.ndarray, ylo, yhi) -> Tuple[np.ndarray, np.ndarray]:
        """Key-order positions [start, stop) of the points of column x[i] with
        ylo[i] <= y <= yhi[i], broadcast; the range is empty where yhi < ylo.
        Rows are taken within the grid: 0 <= ylo and yhi < side."""
        cols = np.asarray(x, dtype=np.int64) * self.side
        start = np.searchsorted(self._keys, cols + ylo)
        stop = np.searchsorted(self._keys, cols + yhi, side="right")
        return start, np.maximum(stop, start)

    def prefix_sums(self, values: np.ndarray) -> np.ndarray:
        """Running sums of per-id values in key order, from 0: the points at key
        positions [start, stop) hold out[stop] - out[start] in total."""
        values = np.asarray(values)
        return np.concatenate([np.zeros(1, dtype=values.dtype), np.cumsum(values[self._ids])])


@dataclass
class _Level:
    """Cell boxes of one level, in lexicographic address order.

    The order is parent-major: with b the branching of the level's rule,
    cell i is child `rule.digits[i % b]` of previous-level cell i // b.
    """

    n: int
    ix: np.ndarray          # int64, grid x of the box
    iy: np.ndarray          # int64

    @cached_property
    def grid_index(self) -> GridIndex:
        return GridIndex(self.ix, self.iy, 3 ** self.n)

    @property
    def count(self) -> int:
        return len(self.ix)


@dataclass
class AdjacencyGraph:
    """Same-level cell adjacency: edge iff closed cells intersect."""

    count: int
    edges: np.ndarray  # (m, 2) int64, i < j

    @cached_property
    def csr(self) -> sp.csr_matrix:
        """Symmetric 0/1 adjacency matrix; row i's indices are i's neighbours."""
        u, v = self.edges[:, 0], self.edges[:, 1]
        rows, cols = np.concatenate([u, v]), np.concatenate([v, u])
        return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(self.count, self.count))


@dataclass
class FrameworkParams:
    zeta: Fraction
    xi: Fraction
    m_star: int
    l_star: int
    n_star: float
    diam_ratio: float
    b3_band: Tuple[float, float]
    b3_band_ratio: float
    b3_samples: int
    violations: List[str] = field(default_factory=list)


class PartitionHierarchy:
    """Materialized cells of a schedule down to a fixed depth.

    Immutable after construction; every query is a pure read.
    """

    def __init__(self, schedule: Schedule, depth: int):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if schedule.horizon is not None and depth > schedule.horizon:
            raise ValueError("depth exceeds schedule horizon")
        self.schedule = schedule
        self.depth = depth
        self.levels: List[_Level] = []
        self._adjacency_cache: Dict[int, AdjacencyGraph] = {}
        self._marker_rel_cache: Dict[int, Fraction] = {}

        total = 1
        self.levels.append(_Level(0, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)))
        for n in range(1, depth + 1):
            rule = schedule.rule_at(n)
            prev = self.levels[-1]
            total *= rule.branching
            if total > CELL_CAP:
                raise ValueError(
                    f"level {n} would hold {total} cells, above the cap {CELL_CAP}"
                )
            self.levels.append(_Level(n, *child_boxes(prev.ix, prev.iy, rule.digits)))

    # -- addresses ---------------------------------------------------------

    def address_words(self, n: int) -> List[str]:
        """The digit word of every level-n cell, its child digits from level 1
        down (the empty word at the root), built one level at a time."""
        words = np.array([""])
        for m in range(1, n + 1):
            digits = self.schedule.rule_at(m).digits
            words = np.char.add(np.repeat(words, len(digits)),
                                np.tile(np.array(digits).astype("U1"), len(words)))
        return words.tolist()

    # -- markers -----------------------------------------------------------

    def _descent_digit(self, level: int) -> int:
        """Global nested-point descent: center child on plus-sign levels,
        alternating edge-mid children (2/6 by carpet-level parity) elsewhere."""
        if self.schedule.F(level) == 0:
            return 0
        parity = sum(self.schedule.F(j) for j in range(1, level + 1)) % 2
        return 2 if parity == 1 else 6

    def _marker_rel_y(self, n: int) -> Fraction:
        """Relative y of the marker inside a level-n cell (x is centered).

        Exact limit of the descent chain, truncated MARKER_TAIL levels below
        the built depth; the truncation sits inside the chain cell so nesting
        across built levels is exact.  A descent child at row dy moves the
        point by (dy - 1)/3 of its parent's side.
        """
        if n in self._marker_rel_cache:
            return self._marker_rel_cache[n]
        stop = self.depth + MARKER_TAIL
        if self.schedule.horizon is not None:
            stop = min(stop, self.schedule.horizon)
        acc = Fraction(0)
        scale = Fraction(1)
        for j in range(n + 1, stop + 1):
            dy = CHILD_OFFSET[self._descent_digit(j)][1]
            acc += Fraction(dy - 1, 3) * scale
            scale /= 3
        self._marker_rel_cache[n] = acc
        return acc

    # -- point location ----------------------------------------------------

    def cells_containing(self, n: int, gx: int, gy: int) -> List[int]:
        """Indices of the level-n cells whose closed square contains the
        point (gx, gy) of the depth grid."""
        f = 3 ** (self.depth - n)
        (u, du), (v, dv) = divmod(gx, f), divmod(gy, f)
        # a point on a grid line lies in the slots on both sides of it
        return self.levels[n].grid_index.box(u - (du == 0), u, v - (dv == 0), v).tolist()

    # -- exports -----------------------------------------------------------

    def cells_json(self, n: int) -> dict:
        lvl = self.levels[n]
        s = 3 ** n
        # grid line k sits at -1/2 + k/s; every box edge is one of these
        line = [_frac_str(Fraction(2 * k - s, 2 * s)) for k in range(s + 1)]
        cells = [{"address": word, "x_min": line[ix], "y_min": line[iy],
                  "x_max": line[ix + 1], "y_max": line[iy + 1]}
                 for word, ix, iy in zip(self.address_words(n), lvl.ix.tolist(), lvl.iy.tolist())]
        return {"level": n, "count": lvl.count, "cells": cells}


def _frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def build_hierarchy(schedule: Schedule, depth: int) -> PartitionHierarchy:
    """Materialize all cells of `schedule` down to `depth`."""
    return PartitionHierarchy(schedule, depth)


def adjacency(h: PartitionHierarchy, n: int) -> AdjacencyGraph:
    """Level-n cell graph: (w, v) iff the closed cells intersect, w != v.

    On the 3-adic grid two same-level closed boxes intersect exactly when
    their integer coordinates differ by at most 1 in each axis.
    """
    if n > h.depth:
        raise ValueError(f"level {n} not built (depth {h.depth})")
    if n in h._adjacency_cache:
        return h._adjacency_cache[n]
    lvl = h.levels[n]
    # cells in grid-key order, so each lookup streams through the sorted keys
    i = lvl.grid_index._ids
    x, y = lvl.ix[i], lvl.iy[i]
    pairs = []  # packed keys min*count + max of the adjacent pairs
    # one offset of each opposite pair, so every adjacent pair is found from one end
    for dx, dy in ((0, 1), (1, -1), (1, 0), (1, 1)):
        j = lvl.grid_index.lookup(x + dx, y + dy)
        a, b = i[j >= 0], j[j >= 0]
        pairs.append(np.minimum(a, b) * lvl.count + np.maximum(a, b))
    edges = np.stack(np.divmod(np.sort(np.concatenate(pairs)), lvl.count), axis=1)
    g = AdjacencyGraph(lvl.count, edges)
    h._adjacency_cache[n] = g
    return g


def chain_ball(g: AdjacencyGraph, sources: Sequence[int]) -> np.ndarray:
    """Sorted ids of the cells within the chain radius M_STAR of `sources`.

    Each of M_STAR rounds joins the CSR rows of the ball's cells into one
    Python set, so a query touches only the cells of the ball."""
    ball = set(np.asarray(sources, dtype=np.int64).tolist())
    bad = [s for s in sorted(ball) if not 0 <= s < g.count]
    if bad:
        raise ValueError(f"source cell {bad[0]} outside 0..{g.count - 1}")
    indptr, indices = g.csr.indptr, g.csr.indices
    for _ in range(M_STAR):
        ball.update(*[indices[indptr[v]:indptr[v + 1]].tolist() for v in ball])
    return np.array(sorted(ball), dtype=np.int64)


def sample_corners(h: PartitionHierarchy, level: int, count: int,
                   rng: np.random.Generator) -> np.ndarray:
    """(count, 2) int64 points of the 3**level grid: each a corner, drawn
    second, of a level cell drawn uniformly first."""
    lvl = h.levels[level]
    picks = rng.integers(0, lvl.count, count)
    return np.column_stack([lvl.ix[picks], lvl.iy[picks]]) + rng.integers(0, 2, (count, 2))


def delta_level(h: PartitionHierarchy, x: Tuple[int, int],
                y: Tuple[int, int]) -> Tuple[int, bool]:
    """Largest built n admitting cells w ∋ x, v ∋ y with l_n(w, v) <= M_STAR.

    x and y are points (gx, gy) of the grid of h.depth, standing for
    (gx/3^depth - 1/2, gy/3^depth - 1/2).  Returns (delta, clipped); clipped
    means the condition still held at the built depth, so the true value
    may exceed it.

    The condition holds at level 0, where the root holds every point, and
    once it fails it fails on every deeper level, for any M_STAR: the
    parents of a chain of intersecting closed cells form a chain of at most
    as many steps, and a point in no level-n cell lies in no deeper one.  So
    the walk goes down from level 1 and stops at the first level that fails.
    """
    x = (operator.index(x[0]), operator.index(x[1]))
    y = (operator.index(y[0]), operator.index(y[1]))
    if x == y:
        raise ValueError("delta_level needs two distinct points")
    side = 3 ** h.depth
    for p in (x, y):
        if not (0 <= p[0] <= side and 0 <= p[1] <= side):
            raise ValueError("point outside the root cell")
    for n in range(1, h.depth + 1):
        wx = h.cells_containing(n, *x)
        wy = h.cells_containing(n, *y)
        if not wx or not wy or set(wy).isdisjoint(chain_ball(adjacency(h, n), wx).tolist()):
            return n - 1, False
    return h.depth, True


def nstar_estimate(h: PartitionHierarchy) -> dict:
    """Window sups (sup_w #children^k)^(1/k) for k <= min(NSTAR_KMAX, depth)
    and their inf, N*: the one estimate of the branching rate.

    The window start ranges over the levels up to NSTAR_HORIZON, clipped to
    a table schedule's own horizon, which is at least the built depth.  A
    sup that is an exact k-th power r^k has the root r exactly; other roots
    are the rounded float power.  "roots" lists them by k, from k = 1.
    """
    if h.depth < 1:
        raise ValueError("nstar_estimate needs depth >= 1")
    kmax = min(NSTAR_KMAX, h.depth)
    sched = h.schedule
    top = NSTAR_HORIZON if sched.horizon is None else min(NSTAR_HORIZON, sched.horizon)
    branch = [sched.branching(j) for j in range(1, top + 1)]
    seq: List[float] = []
    for k in range(1, kmax + 1):
        best = max(math.prod(branch[start:start + k]) for start in range(top - k + 1))
        root = round(best ** (1.0 / k))
        seq.append(float(root) if root ** k == best else best ** (1.0 / k))
    return {"roots": seq, "n_star": min(seq)}


def validate_framework(h: PartitionHierarchy, seed: int = 0) -> FrameworkParams:
    """Check the per-level framework constants and the chain comparison on
    every built level, with the chain radius M_STAR.

    diam ratio is exact (every cell is a square of side 3^-n); the inner
    ball witness is the nested marker with xi = 1/6; the degree bound L* is
    the most edges at one cell of a level 1..depth, counted off the edge
    list, so no level's CSR is built for it; the chain comparison band is
    sampled over B3_PAIRS corner-point pairs at the built depth, each
    pair's delta from `delta_level`, which queries levels 1..delta+1 only;
    N* is `nstar_estimate`'s (0 at depth 0).
    """
    violations: List[str] = []
    if h.depth == 0:
        return FrameworkParams(Fraction(1, 3), Fraction(1, 6), M_STAR, 0, 0.0,
                               float(np.sqrt(2.0)), (0.0, 0.0), 0.0, 0,
                               violations)

    # (B1): every cell is a square of side 3^-n, so diam/zeta^n = sqrt(2).
    diam_ratio = float(np.sqrt(2.0))

    # (B2) with xi = 1/6: the marker's L-inf depth inside its own square.
    xi = Fraction(1, 6)
    for n in range(h.depth + 1):
        rel = h._marker_rel_y(n)
        depth_rel = Fraction(1, 2) - abs(rel)
        if depth_rel < xi:
            violations.append(f"inner-ball failure at level {n}: depth {depth_rel} < {xi}")

    # Marker nesting across built levels: every level-n cell has the level
    # n+1 descent child, and that child's marker is its parent's marker.
    for n in range(h.depth):
        d = h._descent_digit(n + 1)
        dx, dy = CHILD_OFFSET[d]
        if (d not in h.schedule.rule_at(n + 1).digits or dx != 1
                or 3 * h._marker_rel_y(n) != (dy - 1) + h._marker_rel_y(n + 1)):
            violations.append(f"marker nesting fails {n} -> {n + 1}")
            break

    # (B4) degree bound: the most edges at one cell of a level.
    l_star = max(int(np.bincount(adjacency(h, n).edges.ravel()).max())
                 for n in range(1, h.depth + 1))

    # (B3) band over sampled corner pairs at the finest level.
    rng = np.random.default_rng(seed)
    s = 3 ** h.depth
    ratios: List[float] = []
    attempts = 0
    while len(ratios) < B3_PAIRS and attempts < 20 * B3_PAIRS:
        attempts += 1
        p, q = sample_corners(h, h.depth, 2, rng)
        if (p == q).all():
            continue
        delta, clipped = delta_level(h, tuple(p), tuple(q))
        if clipped:
            continue  # same finest cell: the ratio is a one-sided bound only
        dist = float(np.hypot(*((p - q) / s)))
        ratios.append(dist * 3.0 ** delta)
    if ratios:
        band = (min(ratios), max(ratios))
        band_ratio = band[1] / band[0]
    else:
        band = (0.0, 0.0)
        band_ratio = float("inf")
        violations.append("no unclipped pairs sampled for the chain comparison")

    return FrameworkParams(
        zeta=Fraction(1, 3),
        xi=xi,
        m_star=M_STAR,
        l_star=l_star,
        n_star=float(nstar_estimate(h)["n_star"]),
        diam_ratio=diam_ratio,
        b3_band=band,
        b3_band_ratio=band_ratio,
        b3_samples=len(ratios),
        violations=violations,
    )
