"""Finite Dirichlet forms and exact spectral heat kernels.

A form is a corner graph with conductances divided by the level's resistance
renormalizer and a vertex measure obtained by splitting each cell's mass
equally among its four corners.  Heat kernels come from the dense
generalized eigenproblem L phi = lambda M phi with the eigenvectors
orthonormal in the mass inner product, so

    p(t, x, y) = sum_k exp(-lambda_k t) phi_k(x) phi_k(y)

is exact up to the factorization; invariants (monotonicity, the 1/mu(X)
floor, Chapman-Kolmogorov) are checked against it directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .cornergraph import corner_graph
from .hierarchy import PartitionHierarchy
from .measure import HierMeasure
from .resnet import LevelGraph

__all__ = [
    "FiniteDirichletForm",
    "HeatCurve",
    "build_form",
    "heat_kernel",
    "time_window",
    "ol_ds_heat",
    "ds_pointwise",
    "chapman_kolmogorov_error",
]

DENSE_EIG_CAP = 6000


class FiniteDirichletForm:
    """Weighted graph + vertex measure; the generator is M^-1 L."""

    def __init__(self, graph: LevelGraph, mass: np.ndarray):
        mass = np.asarray(mass, dtype=np.float64)
        if len(mass) != graph.n:
            raise ValueError("mass vector length mismatch")
        if np.any(mass <= 0):
            raise ValueError("zero-mass vertex")
        if graph.n > DENSE_EIG_CAP:
            raise ValueError(
                f"{graph.n} vertices above the dense eigendecomposition cap {DENSE_EIG_CAP}; "
                "build a lower level")
        self.graph = graph
        self.mass = mass
        self.total_mass = float(mass.sum())
        self._eig: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def eig(self) -> Tuple[np.ndarray, np.ndarray]:
        """(eigenvalues ascending, phi) with phi columns mu-orthonormal."""
        if self._eig is None:
            # scaled in place (rows, then columns) and handed to LAPACK to
            # overwrite, so the n x n matrix is held once; eigh reads one triangle
            sym = self.graph.laplacian().toarray(order="F")
            inv_sqrt = 1.0 / np.sqrt(self.mass)
            sym *= inv_sqrt[:, None]
            sym *= inv_sqrt[None, :]
            w, phi = scipy.linalg.eigh(sym, driver="evd", overwrite_a=True)
            w[0] = max(w[0], 0.0)
            phi *= inv_sqrt[:, None]
            self._eig = (w, phi)
        return self._eig

    @property
    def lambda_max(self) -> float:
        return float(self.eig()[0][-1])

    def p_diag(self, times: Sequence[float], xs: Optional[Sequence[int]] = None) -> np.ndarray:
        """p(t, x, x) as an array (len(xs), len(times)); xs None = all."""
        w, phi = self.eig()
        sq = phi ** 2 if xs is None else phi[np.asarray(xs)] ** 2
        expm = np.exp(-np.outer(w, np.asarray(times, dtype=float)))
        return sq @ expm

    def p_pair(self, t: float, x: int, y: int) -> float:
        w, phi = self.eig()
        return float(np.sum(np.exp(-w * t) * phi[x] * phi[y]))

    def p_row(self, t: float, x: int) -> np.ndarray:
        w, phi = self.eig()
        return phi @ (np.exp(-w * t) * phi[x])


def build_form(h: PartitionHierarchy, level: int, measure: HierMeasure,
               renormalizer: float) -> FiniteDirichletForm:
    """Renormalized corner-graph form with cell masses split over corners."""
    if level > h.depth:
        raise ValueError("level not built")
    if renormalizer <= 0:
        raise ValueError("renormalizer must be positive")
    cg = corner_graph(h.schedule, level, 0)
    cell_mass = measure.masses_float(level)
    if len(cell_mass) != len(cg.cell_corners):
        raise ValueError("measure resolution does not match the level")
    mass = np.zeros(cg.graph.n)
    np.add.at(mass, cg.cell_corners.reshape(-1), np.repeat(cell_mass / 4.0, 4))
    edges = np.column_stack([cg.graph.edge_u, cg.graph.edge_v,
                             cg.graph.conductance / renormalizer])
    graph = LevelGraph(cg.graph.n, edges, coords=cg.coords_float())
    return FiniteDirichletForm(graph, mass)


@dataclass
class HeatCurve:
    x: int
    times: np.ndarray
    values: np.ndarray
    floor: float


def heat_kernel(form: FiniteDirichletForm, x: int, times: Sequence[float]) -> HeatCurve:
    times = np.asarray(sorted(float(t) for t in times))
    if np.any(times <= 0):
        raise ValueError("times must be positive")
    vals = form.p_diag(times, xs=[x])[0]
    return HeatCurve(x=x, times=times, values=vals, floor=1.0 / form.total_mass)


def time_window(form: FiniteDirichletForm) -> Tuple[float, float, float]:
    """(t_lo, t_hi, t_mix): resolved window [30/lambda_max, 0.5 t_mix].

    Below ~30/lambda_max the on-diagonal kernel still tracks the single
    vertex mass (p ~ 1/m(x)) instead of the cascade, which would inflate the
    sup-over-x ratios; one dyadic decade above the naive 3/lambda_max clears
    that saturation.  t_mix is the first time on a 1.5x grid at which every
    p(t, x, x) is within 1% of the floor 1/mu(X).
    """
    t_lo = 30.0 / form.lambda_max
    floor = 1.0 / form.total_mass
    t = t_lo
    t_mix = None
    for _ in range(200):
        pmax = float(form.p_diag([t]).max())
        if pmax <= floor * 1.01:
            t_mix = t
            break
        t *= 1.5
    if t_mix is None:
        raise RuntimeError("mixing time not found; spectrum looks degenerate")
    return t_lo, 0.5 * t_mix, t_mix


def ol_ds_heat(form: FiniteDirichletForm,
               window: Optional[Tuple[float, float]] = None) -> dict:
    """Windowed uniform spectral-dimension estimate from on-diagonal ratios.

    On the dyadic lattice t_j = t_lo 2^j inside the resolved window, the
    estimate at scale ratio 2^j is

        sup over x and lattice s of 2 log(p(s / 2^j, x, x) / p(s, x, x)) / log 2^j,

    and the reported value is the inf over j (the subadditive limit
    surrogate); the largest-ratio value is kept alongside.
    """
    if window is None:
        t_lo, t_hi, t_mix = time_window(form)
    else:
        t_lo, t_hi = window
        t_mix = float("nan")
    if not (t_hi > t_lo > 0):
        raise ValueError("window empty after range clipping")
    n_oct = int(math.floor(math.log(t_hi / t_lo, 2)))
    if n_oct < 1:
        return {"estimate": float("nan"), "flag": "window-too-short",
                "window": (t_lo, t_hi)}
    lattice = t_lo * 2.0 ** np.arange(n_oct + 1)
    logp = np.log(form.p_diag(lattice))
    per_ratio = {}
    for j in range(1, n_oct + 1):
        # s = lattice[m], s/t = lattice[m-j], t = 2^j
        diffs = logp[:, : n_oct + 1 - j] - logp[:, j:]
        best = float(diffs.max())
        per_ratio[j] = 2.0 * best / (j * math.log(2.0))
    estimate = min(per_ratio.values())
    return {
        "estimate": estimate,
        "per_ratio": per_ratio,
        "estimate_max_ratio": per_ratio[n_oct],
        "window": (t_lo, t_hi),
        "t_mix": t_mix,
        "lattice_size": len(lattice),
        "flag": "ok",
    }


def ds_pointwise(form: FiniteDirichletForm, x: int,
                 times: Optional[Sequence[float]] = None) -> List[dict]:
    """Per-scale slope table -2 dlog p(t,x,x) / dlog t on a dyadic grid.

    The dyadic increment form is normalization-free (a raw quotient of
    log p by log t would shift with the time units); slopes flatten to zero
    in the lattice-cutoff regime (flagged unresolved) and past mixing
    (flagged saturated).  No limit is asserted; callers compare windows.
    """
    t_lo, t_hi, t_mix = time_window(form)
    if times is None:
        lo = math.floor(math.log2(t_lo / 8))
        hi = math.ceil(math.log2(t_mix * 4))
        times = [2.0 ** j for j in range(lo, hi + 1)]
    times = sorted(float(t) for t in times)
    rows = []
    vals = form.p_diag(times, xs=[x])[0]
    for (t0, p0), (t1, p1) in zip(zip(times, vals), zip(times[1:], vals[1:])):
        if t1 < t_lo:
            flag = "unresolved"
        elif t0 > t_mix:
            flag = "saturated"
        else:
            flag = "ok"
        slope = -2.0 * (math.log(p1) - math.log(p0)) / (math.log(t1) - math.log(t0))
        rows.append({"t": t0, "p": float(p0), "slope": slope, "flag": flag})
    return rows


def chapman_kolmogorov_error(form: FiniteDirichletForm, n_samples: int = 20,
                             seed: int = 0) -> float:
    """Max error of p(t+s, x, y) = sum_z p(t,x,z) p(s,z,y) m(z) on sampled
    triples, relative to the diagonal scale sqrt(p(t+s,x,x) p(t+s,y,y)).

    Off-diagonal kernel values between far points underflow to the noise of
    the eigen expansion; the Cauchy-Schwarz bound is the honest yardstick.
    """
    rng = np.random.default_rng(seed)
    t_lo, t_hi, _ = time_window(form)
    worst = 0.0
    for _ in range(n_samples):
        x = int(rng.integers(0, form.graph.n))
        y = int(rng.integers(0, form.graph.n))
        t = float(t_lo * (t_hi / t_lo) ** rng.random())
        s = float(t_lo * (t_hi / t_lo) ** rng.random())
        lhs = form.p_pair(t + s, x, y)
        rhs = float(np.sum(form.p_row(t, x) * form.p_row(s, y) * form.mass))
        scale = math.sqrt(form.p_pair(t + s, x, x) * form.p_pair(t + s, y, y))
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst
