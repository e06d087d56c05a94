"""Hierarchical measures, volume profiles, and the volume-route dimension.

A measure's cell masses have one representation, `exact_masses`: per level,
int64 numerators in cell order over one common denominator.  `heat.build_form`
sums it into corner shares rounded once by `_quotients`, and ball masses are
bracketed between inner and outer cell covers at the resolution level: a ball
query adds, per grid column, the prefix-sum difference of the table (in
GridIndex key order) over its run of covered rows, so both brackets are exact
sums, rounded once.  `HierMeasure` is the uniform measure, the one every
dimension estimate reads; the psi-measure implements the interior-child
weighting that realizes controlled volume growth (N_* + eps)^k.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .hierarchy import PartitionHierarchy, adjacency, nstar_estimate, sample_corners

__all__ = [
    "HierMeasure",
    "PsiMeasure",
    "hier_measure",
    "doubling_check",
    "psi_measure",
    "olds_volume",
    "fekete_limit",
    "h_profile",
]


class _MassTable:
    """The integer mass table behind every mass view; subclasses compute a
    level's (numerators, denominator) in `_numerators`."""

    def __init__(self, h: PartitionHierarchy):
        self.h = h
        self._exact: Dict[int, Tuple[np.ndarray, int]] = {}
        self._prefix: Optional[Tuple[np.ndarray, int]] = None

    def exact_masses(self, n: int) -> Tuple[np.ndarray, int]:
        """(numerators, denominator) of the level-n cell masses, in cell order."""
        if n not in self._exact:
            self._exact[n] = self._numerators(n)
        return self._exact[n]

    def _ball_table(self) -> Tuple[np.ndarray, int]:
        """The resolution level's table as key-order prefix sums, all a ball query keeps."""
        if self._prefix is None:
            num, denom = self._numerators(self.resolution())
            self._prefix = (self.h.levels[self.resolution()].grid_index.prefix_sums(num), denom)
        return self._prefix

    def ball_mass(self, x: Tuple[float, float], r: float) -> Tuple[float, float]:
        """(inner, outer) bracket of the mass of B(x, r) by cell covers at the
        resolution level."""
        return _cover_bracket(self.h.levels[self.resolution()], *self._ball_table(), x, r)


class HierMeasure(_MassTable):
    """The uniform measure: each cell's mass splits equally among its children, so
    a level-n cell has mass 1/count_n (8^-k1 5^-(n-k1) on the mixed schedule)."""

    def _numerators(self, n: int) -> Tuple[np.ndarray, int]:
        count = self.h.levels[n].count
        return np.ones(count, dtype=np.int64), count

    def resolution(self) -> int:
        return self.h.depth

    # bound in each view's own body: bench/spans.py traces the methods a class defines
    ball_mass = _MassTable.ball_mass


def _quotients(num: np.ndarray, denom: int) -> np.ndarray:
    """num / denom per entry, correctly rounded: one Python-int division per
    distinct numerator, so equal numerators give bitwise-equal floats."""
    values, inverse = np.unique(num, return_inverse=True)
    return np.array([v / denom for v in values.tolist()], dtype=np.float64)[inverse]


def _cover_bracket(lvl, prefix: np.ndarray, denom: int,
                   x: Tuple[float, float], r: float) -> Tuple[float, float]:
    """(inner, outer) ball-mass bracket: the mass of the cells of level `lvl`
    inside the open ball B(x, r), and of those meeting it.

    A cell is inside when dmax2 < r2 and meets the ball when dmin2 < r2, with
    dmin2 and dmax2 its least and greatest squared distance to x in floating
    point.  Along a grid column each test passes on one run of rows: both
    distances are maxima of a nondecreasing and a nonincreasing function of
    the row, and rounding keeps that order.  So each column costs a search
    for the two ends of its run, one for each test, and the mass of the run
    is a difference of the integer prefix sums `prefix` (cell masses times
    `denom`, in the GridIndex key order); the two sums over the columns are
    exact, and dividing them by `denom` rounds each bracket correctly.
    Only the columns and rows of the grid window around the ball's bounding
    box, widened by one cell on each side, are searched: every cell meeting
    the ball lies in it.
    """
    if not (math.isfinite(x[0]) and math.isfinite(x[1]) and math.isfinite(r) and r >= 0):
        raise ValueError(f"ball needs a finite centre and radius >= 0, got {tuple(x)}, {r}")
    s = 3 ** lvl.n
    xlo, xhi = _window(x[0] - r, x[0] + r, s)
    ylo, yhi = _window(x[1] - r, x[1] + r, s)
    xlo, ylo, xhi, yhi = max(xlo, 0), max(ylo, 0), min(xhi, s - 1), min(yhi, s - 1)
    if xlo > xhi or ylo > yhi:
        return 0.0, 0.0
    # a power-of-two scale keeps every square below finite, however large the
    # ball or far its centre; it is 1 unless max(|x|, r) >= 2^500
    scale = math.ldexp(1.0, -max(math.frexp(max(abs(x[0]), abs(x[1]), r))[1] - 500, 0))
    x0, x1, rs = x[0] * scale, x[1] * scale, r * scale
    r2 = rs * rs
    side = 1.0 / s
    cols = np.arange(xlo, xhi + 1)
    xmin = (cols * side - 0.5) * scale
    ymin = (np.arange(ylo, yhi + 1) * side - 0.5) * scale
    step = side * scale
    dx = np.maximum(np.maximum(xmin - x0, x0 - (xmin + step)), 0.0)
    dy = np.maximum(np.maximum(ymin - x1, x1 - (ymin + step)), 0.0)
    fx = np.maximum(np.abs(x0 - xmin), np.abs(x0 - (xmin + step)))
    fy = np.maximum(np.abs(x1 - ymin), np.abs(x1 - (ymin + step)))
    out = []
    for a, b in ((fx * fx, fy * fy), (dx * dx, dy * dy)):  # dmax2, then dmin2
        lo, hi = _row_runs(a, b, r2)
        start, stop = lvl.grid_index.column_ranges(cols, ylo + lo, ylo + hi)
        out.append(int((prefix[stop] - prefix[start]).sum()) / denom)
    return out[0], out[1]


def _row_runs(a: np.ndarray, b: np.ndarray, r2: float) -> Tuple[np.ndarray, np.ndarray]:
    """Per column c, the first and last row i with a[c] + b[i] < r2 in floating
    point (last < first where there is none), for a row profile b that falls
    and then rises."""
    m = int(np.argmin(b))
    up = _leading(b[m:], a, r2)       # rows m, m + 1, ... that pass
    down = _leading(b[m::-1], a, r2)  # rows m, m - 1, ...
    return m + 1 - down, m - 1 + up


def _leading(v: np.ndarray, a: np.ndarray, r2: float) -> np.ndarray:
    """Per a[c], how many leading entries of the nondecreasing v pass a[c] + v < r2.

    The pass set is a prefix, since rounding keeps a + v nondecreasing in v;
    a search for r2 - a[c] lands at or next to its end, and the exact test
    moves it the rest of the way.
    """
    k = np.searchsorted(v, r2 - a)
    last = len(v) - 1
    while True:
        grow = (k <= last) & (a + v[np.minimum(k, last)] < r2)
        shrink = (k > 0) & ~(a + v[np.maximum(k - 1, 0)] < r2)
        if not (grow.any() or shrink.any()):
            return k
        k = k + grow - shrink


def _check_denominator(denom: int) -> None:
    """Ball masses sum int64 numerators over `denom`; refuse one that overflows."""
    if denom > np.iinfo(np.int64).max:
        raise ValueError(f"common mass denominator {denom} does not fit in int64")


def _window(lo: float, hi: float, s: int) -> Tuple[int, int]:
    """Grid indices of the cells meeting [lo, hi], plus one; clamped so huge balls cannot overflow."""
    lo, hi = (min(max((v + 0.5) * s, -2.0), s + 1.0) for v in (lo, hi))
    return math.floor(lo) - 2, math.floor(hi) + 1


def hier_measure(h: PartitionHierarchy) -> HierMeasure:
    """The uniform measure of `h`."""
    return HierMeasure(h)


def _sample_centers(h: PartitionHierarchy, level: int, samples: int, seed: int) -> list:
    """`sample_corners` of level min(level, depth), seeded, as points of [-1/2, 1/2]^2."""
    level = min(level, h.depth)
    return (sample_corners(h, level, samples, np.random.default_rng(seed)) / 3 ** level
            - 0.5).tolist()


def doubling_check(m: HierMeasure, samples: int = 40, seed: int = 0) -> dict:
    """Empirical doubling constant sup V(x, 2r)/V(x, r), plus a fitted
    reverse-doubling factor gamma1 with V(x, r/gamma1) <= V(x, r)/2, over
    `samples` level-2 cell corners x and r = 3^-j, 1 <= j < max(2, depth - 1).

    Brackets are used conservatively: outer cover on top, inner below.
    """
    if samples < 1:
        raise ValueError(f"doubling_check needs samples >= 1 (samples = {samples})")
    levels = range(1, max(2, m.h.depth - 1))
    centers = _sample_centers(m.h, 2, samples, seed)
    balls: Dict[Tuple[int, float], Tuple[float, float]] = {}

    def vol(ci: int, r: float) -> Tuple[float, float]:
        """Bracket of V(centers[ci], r); each ball is queried once."""
        if (ci, r) not in balls:
            balls[ci, r] = m.ball_mass(centers[ci], r)
        return balls[ci, r]

    worst = 0.0
    for ci in range(len(centers)):
        for j in levels:
            r = 3.0 ** (-j)
            lo_r, _ = vol(ci, r)
            _, hi_2r = vol(ci, 2 * r)
            if lo_r > 0:
                worst = max(worst, hi_2r / lo_r)

    def halves(g: float) -> bool:
        """Whether V(x, r/g) <= V(x, r)/2 for every sampled x and r = 3^-j."""
        return all(vol(ci, 3.0 ** (-j) / g)[1] <= vol(ci, 3.0 ** (-j))[0] / 2 + 1e-15
                   for ci in range(len(centers)) for j in levels)

    gamma1 = next((3.0 ** j for j in (1, 2, 3) if halves(3.0 ** j)), None)
    return {"doubling_constant": worst, "gamma1": gamma1}


class PsiMeasure(_MassTable):
    """Interior-child weighted measure on the k-step coarsened tree.

    Bit j of a cell's int64 code is set when its ancestor after coarse step
    j + 1 is the interior child of its parent; psi(cell) = value[level][code].
    """

    def __init__(self, h: PartitionHierarchy, k: int, eps: Fraction, n_star: int):
        super().__init__(h)
        self.k = k
        self.eps = Fraction(eps)
        self.n_star = n_star
        self.base = Fraction(n_star) + self.eps
        self.coarse_levels = list(range(0, h.depth + 1, k))
        self.interior_child: Dict[int, np.ndarray] = {}  # coarse level -> child id per cell
        self.code: Dict[int, np.ndarray] = {}            # coarse level -> code per cell
        self.value: Dict[int, List[Fraction]] = {}       # coarse level -> psi per code
        self._build()

    def _build(self) -> None:
        h, k = self.h, self.k
        grow = self.base ** k
        span = 3 ** k
        code = np.zeros(1, dtype=np.int64)
        value = [Fraction(1)]
        self.code[0], self.value[0] = code, value
        for step, (top, bot) in enumerate(zip(self.coarse_levels, self.coarse_levels[1:])):
            t, b = h.levels[top], h.levels[bot]
            # the descendants of top cell w are the contiguous ids w*count .. w*count + count-1
            count = b.count // t.count
            if Fraction(count) > grow:
                raise ValueError(
                    f"(N*+eps)^k = {grow} below the branching {count}; increase eps or k")
            rx = b.ix.reshape(t.count, count) - span * t.ix[:, None]
            ry = b.iy.reshape(t.count, count) - span * t.iy[:, None]
            inside = (rx >= 1) & (rx <= span - 2) & (ry >= 1) & (ry <= span - 2)
            found = inside.any(axis=1)
            if not found.all():
                raise ValueError(f"no interior descendant at offset {k} below cell "
                                 f"{int(np.argmin(found))} (level {top})")
            interior = np.arange(t.count) * count + inside.argmax(axis=1)
            bit = np.zeros(b.count, dtype=np.int64)
            bit[interior] = 1 << step
            code = np.repeat(code, count) | bit
            small = 1 / grow
            big = 1 - Fraction(count - 1) / grow
            value = [q * small for q in value] + [q * big for q in value]
            self.interior_child[top] = interior
            self.code[bot], self.value[bot] = code, value
        _check_denominator(_lcm_denominator(value))

    def _numerators(self, coarse_level: int) -> Tuple[np.ndarray, int]:
        if coarse_level not in self.value:
            raise ValueError(f"no coarse level {coarse_level}: the levels are {self.coarse_levels}")
        values = self.value[coarse_level]
        denom = _lcm_denominator(values)
        table = np.array([int(q * denom) for q in values], dtype=np.int64)
        return table[self.code[coarse_level]], denom

    def resolution(self) -> int:
        return self.coarse_levels[-1]

    ball_mass = _MassTable.ball_mass  # bound here for the trace, as in HierMeasure

    def neighbor_comparability(self) -> dict:
        """Exact check of ((N*+eps)^k - 1) psi(w) >= psi(u) on adjacent pairs,
        once per distinct ordered pair of codes, weighted by its count."""
        bound = self.base ** self.k - 1
        violations = 0
        for n in self.coarse_levels[1:]:
            edges = adjacency(self.h, n).edges
            value = self.value[n]
            cu, cv = self.code[n][edges[:, 0]], self.code[n][edges[:, 1]]
            keys = np.concatenate([cu * len(value) + cv, cv * len(value) + cu])
            pairs, counts = np.unique(keys, return_counts=True)
            for key, cnt in zip(pairs.tolist(), counts.tolist()):
                a, b = divmod(key, len(value))
                if bound * value[a] < value[b]:
                    violations += cnt
        return {"violations": violations, "bound": bound}

    def growth_exponent(self, samples: int = 30, seed: int = 0) -> dict:
        """Per-original-level volume growth exponent, sup over sampled centers.

        Per center, the exponent is the least-squares slope of log V against
        the level across every coarse scale (midpoint ball masses); the
        longest window suppresses the O(1) cover constants that a single-lag
        ratio would inherit.
        """
        centers = _sample_centers(self.h, self.k, samples, seed)
        slopes = []
        for x in centers:
            js, vs = [], []
            for lvl in self.coarse_levels:
                lo, hi = self.ball_mass(x, 3.0 ** (-lvl))
                mid = 0.5 * (lo + hi) if lo > 0 else hi
                if mid > 0:
                    js.append(lvl)
                    vs.append(math.log(mid))
            if len(js) >= 2:
                slope = float(np.polyfit(np.array(js, dtype=float), np.array(vs), 1)[0])
                slopes.append(-slope)
        if not slopes:
            raise ValueError("no usable centers for the growth exponent")
        return {"growth_exponent": max(slopes), "bound": math.log(float(self.base))}


def _lcm_denominator(values: Sequence[Fraction]) -> int:
    return math.lcm(*(q.denominator for q in values))


def psi_measure(h: PartitionHierarchy, eps: Fraction, k: int) -> PsiMeasure:
    """Interior-child weighted measure on the k-step coarsened tree."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if h.depth < k:
        raise ValueError("depth too shallow for the requested offset")
    root = nstar_estimate(h)["roots"][-1]
    if not root.is_integer():
        raise ValueError(f"branching rate {root} is not an integer")
    return PsiMeasure(h, k, Fraction(eps), int(root))


def fekete_limit(ts: Sequence[int], fs: Sequence[float]) -> dict:
    """inf f(t)/t over a grid of distinct positive integer lags t, with the pairs
    t <= s where f(t + s) > f(t) + f(s) + 1e-12 reported as violations."""
    if len(ts) != len(fs) or len(ts) < 1:
        raise ValueError("need matching nonempty grids")
    if not all(isinstance(t, numbers.Integral) and t > 0 for t in ts) or len(set(ts)) < len(ts):
        raise ValueError(f"lags must be distinct positive integers, got {list(ts)}")
    f = {int(t): float(v) for t, v in zip(ts, fs)}
    lags = sorted(f)
    violations = [(t, s) for i, t in enumerate(lags) for s in lags[i:]
                  if t + s in f and f[t + s] > f[t] + f[s] + 1e-12]
    return {"limit": min(f[t] / t for t in lags), "violations": violations}


def olds_volume(m, zeta_r_log: float, window: Sequence[int],
                samples: int = 40, seed: int = 0) -> dict:
    """Volume-route spectral dimension on a window of levels.

    The dimension of a volume rate is 2*rate/(rate + zeta_r_log), with
    zeta_r_log = log(1/zeta_R) the per-level resistance log-scale.  The
    headline `ds_estimate` takes the median over centers of the per-center
    least-squares rate; `ds_sup_window` takes the Fekete inf over lags of
    the sup (over centers and scales) of the per-level volume log-ratio,
    and `sup_window_violations` counts the lag pairs where that sup breaks
    subadditivity, so the Fekete inf is no limit there.
    """
    window = sorted(set(int(j) for j in window))
    if len(window) < 2:
        raise ValueError("window must span at least two scales")
    if samples < 1:
        raise ValueError(f"olds_volume needs samples >= 1 (samples = {samples})")
    centers = _sample_centers(m.h, 2, samples, seed)

    # V(x, c*3^-j) midpoints of the cover bracket, per center and factor c
    logs: Dict[Tuple[int, int], List[float]] = {}
    for ci, x in enumerate(centers):
        for fi, c in enumerate((1.0, 1.5)):
            vals = []
            for j in window:
                lo, hi = m.ball_mass(x, c * 3.0 ** (-j))
                vals.append(0.5 * (lo + hi) if lo > 0 else hi)
            logs[(ci, fi)] = [math.log(v) if v > 0 else -math.inf for v in vals]

    lags = list(range(1, len(window)))
    sup_ratio = []
    for lag in lags:
        best = -math.inf
        for series in logs.values():
            for a in range(len(window) - lag):
                dj = window[a + lag] - window[a]
                if math.isfinite(series[a]) and math.isfinite(series[a + lag]):
                    best = max(best, (series[a] - series[a + lag]) / dj)
        sup_ratio.append(best)
    fk = fekete_limit([window[lag] - window[0] for lag in lags],
                      [s * (window[lag] - window[0]) for lag, s in zip(lags, sup_ratio)])

    def dim(rt: float) -> float:
        if rt <= 0 or rt + zeta_r_log <= 0:
            return float("nan")
        return 2.0 * rt / (rt + zeta_r_log)

    pointwise = []
    for series in logs.values():
        ok = [(j, v) for j, v in zip(window, series) if math.isfinite(v)]
        if len(ok) >= 2:
            js = np.array([j for j, _ in ok], dtype=float)
            vs = np.array([v for _, v in ok])
            slope = float(np.polyfit(js, vs, 1)[0])
            pointwise.append(-slope)
    pw_rate = float(np.median(pointwise)) if pointwise else float("nan")
    return {
        # headline: the per-point limit, the quantity the pointwise spectral
        # dimension computation actually takes at a fixed center
        "ds_estimate": dim(pw_rate),
        # sup-window variant: upper bracket with the O(1)/lag transient
        "ds_sup_window": dim(fk["limit"]),
        "sup_window_violations": len(fk["violations"]),
    }


def h_profile(m: HierMeasure, cg, renormalizer: float) -> dict:
    """Profiles h(x, r) = V(x, r) * sup-resistance over the Euclidean ball,
    at two centres x (the corner p5 = (-1/2, -1/2) and the vertex nearest
    the middle of the square) and the radii r = 2 * 3^-j, 0 <= j <= n.

    `cg` is a corner graph whose resistances, divided by `renormalizer`,
    stand in for the limit metric.  R(x, .) is one pair query on the graph's
    grounded solver, with every vertex an endpoint, so the first centre
    solves the Green's block on all of the graph and the other reads it;
    graphs above `resnet.VECTOR_CAP` vertices are refused.  Returns the rows
    (x_id, r, V brackets, olR, h brackets), whether h is nondecreasing in r
    at both centres, and the fitted halving factor gamma2 with
    h(x, r/gamma2) <= h(x, r)/2.
    """
    g = cg.graph
    coords = cg.coords_float()
    centers = [int(cg.corner_vertices()[2]), int(np.argmin(np.sum(coords ** 2, axis=1)))]
    radii = [2.0 * 3.0 ** (-j) for j in range(cg.n, -1, -1)]
    solver = g.grounded_solver()
    rows: List[dict] = []
    mids: List[List[float]] = []  # per centre, the h bracket midpoints by radius
    for x in centers:
        rvec = solver.pair_resistances(np.full(g.n, x), np.arange(g.n)) / renormalizer
        dist = np.hypot(coords[:, 0] - coords[x, 0], coords[:, 1] - coords[x, 1])
        for r in radii:
            inside = dist < r
            ol_r = float(rvec[inside].max()) if inside.any() else 0.0
            v_lo, v_hi = m.ball_mass((float(coords[x, 0]), float(coords[x, 1])), r)
            rows.append({"x_id": int(x), "r": r, "V_lo": v_lo, "V_hi": v_hi,
                         "olR": ol_r, "h_lo": v_lo * ol_r, "h_hi": v_hi * ol_r})
        mids.append([0.5 * (row["h_lo"] + row["h_hi"]) for row in rows[-len(radii):]])
    monotone = not any(b < a - 1e-12 for ms in mids for a, b in zip(ms, ms[1:]))
    # the radius grid is geometric with ratio 3, so gamma2 = 3^exp compares
    # grid indices exactly (no float key lookups)
    gamma2 = next((3.0 ** exp for exp in (1, 2, 3)
                   if not any(ms[i] > ms[i + exp] / 2 + 1e-12
                              for ms in mids for i in range(len(ms) - exp))), None)
    return {"rows": rows, "monotone": monotone, "gamma2": gamma2}

