"""Discrete p-energies on level cell graphs and the critical-exponent search.

The separation problem for a base cell w and depth offset k pins the value 1
on the k-th generation inside w and 0 on every cell whose level-[w] ancestor
sits at chain distance > M_* from w, then minimizes the p-power edge energy
over the level-([w]+k) cell graph.  p = 2 is one sparse solve; p != 2 runs
reweighted least squares with an L-BFGS-B polish under the box [0, 1].
Energies, gradients and the reweighted systems all come from one signed
edge-cell incidence matrix D per problem.

Energy convention: sum of |f(x) - f(y)|^p over unordered adjacency edges
(half the symmetric double sum), so the p = 2 value is the effective
conductance between the pinned sets.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .hierarchy import PartitionHierarchy, adjacency

__all__ = [
    "SeparationProblem",
    "PEnergyValue",
    "SpectralDimEstimate",
    "build_separation",
    "p_energy",
    "sup_energy",
    "sup_energy_table",
    "critical_p",
    "p_spectral_dims",
    "fit_rates",
    "rate_table_to_csv",
]

RATE_TOL = 1e-3  # see critical_p


@dataclass
class SeparationProblem:
    base_level: int
    base_index: int
    k: int
    level: int
    edges: np.ndarray           # (m, 2) unordered cell-graph edges
    n_cells: int
    inner: np.ndarray           # indices pinned to 1
    outer: np.ndarray           # indices pinned to 0
    empty_outer: bool = False


@dataclass
class PEnergyValue:
    p: float
    value: float
    potential: Optional[np.ndarray] = None
    residual: float = 0.0
    flag: str = "ok"            # "ok" | "empty-outer" | "no-convergence"


@dataclass
class SpectralDimEstimate:
    p: float
    ks: List[int]
    log_sup: List[float]
    rate_ls: float
    rate_limsup: float
    rate_liminf: float
    n_star: float
    dim_upper: float
    dim_lower: float
    flag: str = "ok"


def _ancestor_map(h: PartitionHierarchy, n: int, base: int) -> np.ndarray:
    anc = np.arange(h.levels[n].count, dtype=np.int64)
    for m in range(n, base, -1):
        anc = h.levels[m].parent[anc]
    return anc


def _level_distances(h: PartitionHierarchy, level: int, source: int) -> np.ndarray:
    """Chain distances from `source` on the level cell graph; int64 max where unreachable."""
    dist = csgraph.shortest_path(adjacency(h, level).csr, unweighted=True, indices=source)
    out = np.full(len(dist), np.iinfo(np.int64).max, dtype=np.int64)
    reach = np.isfinite(dist)
    out[reach] = dist[reach]
    return out


def build_separation(h: PartitionHierarchy, base_level: int, base_index: int,
                     k: int, m_star: int = 1) -> SeparationProblem:
    """Assemble the neighborhood-separation problem for one base cell."""
    n = base_level + k
    if n > h.depth:
        raise ValueError(f"level {n} not built (depth {h.depth})")
    g = adjacency(h, n)
    anc = _ancestor_map(h, n, base_level)
    dist = _level_distances(h, base_level, base_index)
    inner = np.where(anc == base_index)[0]
    outer = np.where(dist[anc] > m_star)[0]
    return SeparationProblem(
        base_level=base_level, base_index=base_index, k=k, level=n,
        edges=g.edges, n_cells=g.count, inner=inner, outer=outer,
        empty_outer=len(outer) == 0)


def _energy_and_grad(f: np.ndarray, D: sp.csr_matrix, p: float):
    d = D @ f
    a = np.abs(d)
    e = float(np.sum(a ** p))
    if p >= 2:
        gd = p * a ** (p - 1) * np.sign(d)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            gd = np.where(a > 0, p * a ** (p - 1) * np.sign(d), 0.0)
    return e, D.T @ gd


def p_energy(problem: SeparationProblem, p: float, tol: float = 1e-7) -> PEnergyValue:
    """Minimize the p-power energy with the problem's 0/1 pins.

    Everything is read from the signed edge-cell incidence matrix D (+1 at
    the first cell of an edge, -1 at the second): the energy is
    sum |D f|^p and its gradient is D^T (p |D f|^(p-1) sign(D f)).  p = 2
    reduces to one linear solve; p > 1 runs eps-smoothed IRLS warmed from the
    p = 2 potential, then an L-BFGS-B polish.  Each IRLS step solves
    D_F^T W D_F f_F = -D_F^T W D f_pinned, with D_F the columns of the free
    cells, W the edge weights and f_pinned the pins (0 on free cells).  The
    certificate is the first-order gap bound sum(|grad|) over free cells,
    relative to the energy; above `tol` the value is flagged no-convergence.
    """
    if p < 1:
        raise ValueError("p < 1 is outside the convex setting")
    if problem.empty_outer:
        return PEnergyValue(p, 0.0, flag="empty-outer")
    n = problem.n_cells
    m = len(problem.edges)
    D = sp.csr_matrix((np.tile([1.0, -1.0], m),
                       (np.repeat(np.arange(m), 2), problem.edges.reshape(-1))),
                      shape=(m, n))
    f = np.zeros(n)
    f[problem.inner] = 1.0
    free = np.setdiff1d(np.arange(n), np.concatenate([problem.inner, problem.outer]))
    D_F = D[:, free]
    D_Ft = D_F.T.tocsr()
    drive = D @ f  # D f_pinned: f holds only the pins here

    def weighted_solve(w: np.ndarray) -> None:
        # weighted graph Laplacian solve for the free block
        lap = (D_Ft @ (sp.diags(w) @ D_F)).tocsc()
        sol = spla.splu(lap).solve(-(D_Ft @ (w * drive)))
        f[free] = np.clip(sol, 0.0, 1.0)

    # p = 2 start (exact for p = 2)
    weighted_solve(np.ones(m))
    if p != 2 and len(free):
        for eps in (1e-2, 1e-4, 1e-6, 1e-9, 1e-12):
            for _ in range(12):
                d = D @ f
                w = (d * d + eps * eps) ** ((p - 2.0) / 2.0)
                w = np.clip(w, 1e-14, 1e14)
                prev = f[free].copy()
                weighted_solve(w)
                if np.max(np.abs(f[free] - prev)) < 1e-12:
                    break

        def objective(x):
            f[free] = x
            e, g = _energy_and_grad(f, D, p)
            return e, g[free]

        # polish on the exact objective
        out = scipy.optimize.minimize(
            objective, f[free], jac=True, method="L-BFGS-B",
            bounds=[(0.0, 1.0)] * len(free),
            options={"maxiter": 200, "ftol": 1e-16, "gtol": 1e-12})
        f[free] = np.clip(out.x, 0.0, 1.0)
    e, g = _energy_and_grad(f, D, p)
    gf = g[free]
    # components pinned at an active bound with inward gradient do not
    # contribute to the first-order gap
    act_lo = (f[free] <= 0.0) & (gf > 0)
    act_hi = (f[free] >= 1.0) & (gf < 0)
    res = float(np.abs(np.where(act_lo | act_hi, 0.0, gf)).sum())
    flag = "no-convergence" if res > tol * max(e, 1e-30) else "ok"
    return PEnergyValue(p, e, potential=f, residual=res, flag=flag)


def symmetry_classes(h: PartitionHierarchy, level: int) -> Dict[Tuple[int, int], List[int]]:
    """Cells grouped by the orbit of their box under the symmetries of Q.

    The key is the lexicographically least of the 8 images of (ix, iy):
    (min(a, b), max(a, b)) with a, b the coordinates folded to the lower half.
    Classes appear in the order of their first member; members ascend.
    """
    lvl = h.levels[level]
    s = 3 ** level
    a = np.minimum(lvl.ix, s - 1 - lvl.ix)
    b = np.minimum(lvl.iy, s - 1 - lvl.iy)
    keys, first, inverse = np.unique(np.minimum(a, b) * s + np.maximum(a, b),
                                     return_index=True, return_inverse=True)
    members = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
    return {divmod(int(keys[c]), s): members[c].tolist() for c in np.argsort(first)}


def sup_energy(h: PartitionHierarchy, base_level: int, k: int, p: float,
               m_star: int = 1, symmetry_reduce: bool = True,
               cells: Optional[Sequence[int]] = None) -> dict:
    """sup over base cells of the separation energies, with the argmax cell.

    Both rules are symmetric under the dihedral group of the square, so one
    representative per box class suffices; `symmetry_reduce=False` forces the
    exhaustive sweep (used to verify the reduction).
    """
    if base_level + k > h.depth:
        raise ValueError("horizon exceeds built depth")
    if cells is not None:
        reps = list(cells)
    elif symmetry_reduce:
        reps = [members[0] for members in symmetry_classes(h, base_level).values()]
    else:
        reps = list(range(h.levels[base_level].count))
    best = None
    for w in reps:
        prob = build_separation(h, base_level, w, k, m_star=m_star)
        val = p_energy(prob, p)
        if best is None or val.value > best[0].value:
            best = (val, w)
    val, w = best
    word = "".join(str(d) for d in h.address(base_level, w))
    return {"value": val.value, "argmax_index": w, "argmax_cell": word,
            "flag": val.flag, "representatives": len(reps)}


def sup_energy_table(h: PartitionHierarchy, p: float, ks: Sequence[int],
                     base_level: int = 1, m_star: int = 1) -> Dict[int, float]:
    return {k: sup_energy(h, base_level, k, p, m_star=m_star)["value"] for k in ks}


def fit_rates(ks: Sequence[int], log_vals: Sequence[float]) -> Tuple[float, float, float]:
    """(least-squares tail slope, max tail step, min tail step).

    The tail is the last ceil(len/2) points, never fewer than two; the
    max/min successive steps over the tail mimic limsup/liminf.
    """
    ks = list(ks)
    log_vals = list(log_vals)
    if len(ks) < 2:
        raise ValueError("need at least two k values to fit a rate")
    tail = max(2, math.ceil(len(ks) / 2))
    kt = np.array(ks[-tail:], dtype=float)
    vt = np.array(log_vals[-tail:], dtype=float)
    slope = float(np.polyfit(kt, vt, 1)[0])
    steps = np.diff(vt) / np.diff(kt)
    return slope, float(steps.max()), float(steps.min())


def critical_p(h: PartitionHierarchy, kmax: int, p_range: Tuple[float, float] = (1.0, 2.5),
               tol: float = 0.05, base_level: int = 1, m_star: int = 1) -> dict:
    """Bisection on p of the fitted decay rate of k -> sup energy.

    rate < 0 means p is above the critical exponent.  Rates inside
    [-RATE_TOL, RATE_TOL] are treated as not-yet-decaying and widen the
    reported interval with a flag.
    """
    if kmax < 3:
        raise ValueError("kmax must be >= 3")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    if not 1 <= p_range[0] < p_range[1] < math.inf:
        raise ValueError("p_range must satisfy 1 <= lo < hi < inf")
    ks = list(range(1, kmax + 1))
    table: List[dict] = []

    def rate_of(p: float) -> float:
        sups = sup_energy_table(h, p, ks, base_level=base_level, m_star=m_star)
        logs = [math.log(max(v, 1e-300)) for v in sups.values()]
        slope, up, lo = fit_rates(ks, logs)
        table.append({"p": p, "rate": slope, "rate_limsup": up, "rate_liminf": lo,
                      "sup_energies": list(sups.values())})
        return slope

    lo, hi = p_range
    flag = "ok"
    r_lo = rate_of(lo)
    if r_lo < -RATE_TOL:
        return {"interval": (lo, lo), "flag": "critical-below-range", "rates": table}
    r_hi = rate_of(hi)
    if r_hi > RATE_TOL:
        return {"interval": (hi, hi), "flag": "critical-above-range", "rates": table}
    if abs(r_lo) <= RATE_TOL or abs(r_hi) <= RATE_TOL:
        flag = "rate-indistinguishable-at-bracket"
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        r = rate_of(mid)
        if abs(r) <= RATE_TOL:
            flag = "rate-indistinguishable-at-bracket"
            # ambiguous: keep the wider side by shrinking toward the middle
            # from whichever bound is further
            if hi - mid >= mid - lo:
                hi = hi - (hi - mid) / 2
            else:
                lo = lo + (mid - lo) / 2
            continue
        if r < 0:
            hi = mid
        else:
            lo = mid
    return {"interval": (lo, hi), "flag": flag, "rates": table}


def p_spectral_dims(h: PartitionHierarchy, p: float, kmax: int,
                    base_level: int = 1, m_star: int = 1,
                    n_star: Optional[float] = None) -> SpectralDimEstimate:
    """Upper/lower p-spectral dimensions from the fitted energy decay."""
    if kmax < 2:
        raise ValueError("kmax must be >= 2")
    if n_star is None:
        from .hierarchy import nstar_estimate
        n_star = nstar_estimate(h, kmax=min(6, max(1, h.depth)))["n_star"]
    ks = list(range(1, kmax + 1))
    sups = sup_energy_table(h, p, ks, base_level=base_level, m_star=m_star)
    logs = [math.log(max(v, 1e-300)) for v in sups.values()]
    ls, up, lo = fit_rates(ks, logs)
    logN = math.log(n_star)
    flag = "ok"

    def dim(rate: float) -> float:
        if rate >= logN:
            return float("nan")
        return p / (1.0 - rate / logN)

    d_up = dim(up)
    d_lo = dim(lo)
    if math.isnan(d_up) or math.isnan(d_lo):
        flag = "rate-at-or-above-logN"
    return SpectralDimEstimate(
        p=p, ks=ks, log_sup=logs, rate_ls=ls, rate_limsup=up, rate_liminf=lo,
        n_star=float(n_star), dim_upper=d_up, dim_lower=d_lo, flag=flag)


def rate_table_to_csv(rows: Sequence[dict], path: str) -> None:
    """CSV rate table: p,k,sup_energy,argmax_cell."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "k", "sup_energy", "argmax_cell"])
        for row in rows:
            writer.writerow([f"{row['p']:.17g}", row["k"],
                             f"{row['sup_energy']:.17g}", row["argmax_cell"]])
