"""Finite Dirichlet forms and exact spectral heat kernels.

A form is a corner graph with conductances divided by the level's resistance
renormalizer and a vertex measure obtained by splitting each cell's mass
equally among its four corners, summed exactly and rounded once.  Heat
kernels come from the generalized eigenproblem L phi = lambda M phi with the
eigenvectors orthonormal in the mass inner product, so

    p(t, x, y) = sum_k exp(-lambda_k t) phi_k(x) phi_k(y)

is exact up to the factorization; invariants (monotonicity, the 1/mu(X)
floor, Chapman-Kolmogorov) are checked against it directly.

The eigenproblem is split by the candidate mirrors that are exact symmetries
of the form (every edge onto an edge of equal conductance, every mass onto
an equal mass); `build_form` offers the integer-grid reflections x -> s - x
and y -> s - y of the corner graph.  They generate an abelian group G of
order 1, 2 or 4 whose irreducible characters are signs, so the
symmetry-adapted basis (Serre, Linear Representations of Finite Groups) is
one signed, normalized orbit sum per (character, vertex orbit) pair.  Each
character's block B^T (M^-1/2 L M^-1/2) B is solved with a dense eigh, and
the kernel is evaluated block by block on orbit columns:
phi_k(v) = amp[v] U[col[v], k].  No n x n eigenvector matrix is formed.  A
form without an exact mirror (one the measure is not invariant under) has the
trivial group and one block, the whole scaled Laplacian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .cornergraph import corner_graph
from .hierarchy import PartitionHierarchy
from .measure import HierMeasure, _quotients
from .resnet import LevelGraph

__all__ = [
    "FiniteDirichletForm",
    "build_form",
    "time_window",
    "ol_ds_heat",
    "chapman_kolmogorov_error",
]

DENSE_EIG_CAP = 6000
MIX_BATCH = 16  # times of the mixing grid evaluated per p_diag call
CK_SAMPLES = 10  # triples chapman_kolmogorov_error samples


@dataclass
class SpectralBlock:
    """One character's eigenpairs (w ascending, U) on its orbit columns.

    col[v] is the column of v's orbit and amp[v] its signed, mass-scaled
    coefficient, so the mu-orthonormal eigenvectors are
    phi_k(v) = amp[v] U[col[v], k]; amp is 0 (and col 0) on the vertices
    whose orbit the character annihilates.
    """

    w: np.ndarray
    U: np.ndarray
    col: np.ndarray
    amp: np.ndarray


def _symmetries(graph: LevelGraph, mass: np.ndarray,
                perms: Sequence[np.ndarray]) -> List[np.ndarray]:
    """The group generated by the candidate `perms` that are exact symmetries
    of the form, as vertex permutations, identity first.

    A candidate is kept when it is a permutation and an involution that
    commutes with the ones kept before it and is not already in their group,
    and maps every edge onto an edge of exactly equal conductance and every
    mass onto an exactly equal mass.  Element i applies kept candidate j
    iff bit j of i is set.
    """
    n = graph.n
    group = [np.arange(n)]
    edge_keys = graph.edge_u * n + graph.edge_v  # sorted: edges are in (u < v) order
    for perm in perms:
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (n,) or not np.array_equal(np.sort(perm), group[0]):
            continue
        pu, pv = perm[graph.edge_u], perm[graph.edge_v]
        image_edges = np.minimum(pu, pv) * n + np.maximum(pu, pv)
        by_key = np.argsort(image_edges)  # edge by_key[i] maps onto edge i
        if (np.array_equal(mass[perm], mass)
                and np.array_equal(image_edges[by_key], edge_keys)
                and np.array_equal(graph.conductance[by_key], graph.conductance)
                and np.array_equal(perm[perm], group[0])
                and all(np.array_equal(perm[g], g[perm]) for g in group)
                and not any(np.array_equal(perm, g) for g in group)):
            group += [perm[g] for g in group]
    return group


class FiniteDirichletForm:
    """Weighted graph + vertex measure; the generator is M^-1 L.

    `mirrors` are candidate vertex permutations; the eigenproblem is split by
    those that are exact symmetries of the form (`_symmetries`).
    """

    def __init__(self, graph: LevelGraph, mass: np.ndarray,
                 mirrors: Sequence[np.ndarray] = ()):
        mass = np.asarray(mass, dtype=np.float64)
        if len(mass) != graph.n:
            raise ValueError("mass vector length mismatch")
        if not np.all(np.isfinite(mass)):
            raise ValueError("vertex masses must be finite")
        if np.any(mass <= 0):
            raise ValueError("zero-mass vertex")
        if graph.n > DENSE_EIG_CAP:
            raise ValueError(
                f"{graph.n} vertices above the dense eigendecomposition cap {DENSE_EIG_CAP}; "
                "build a lower level")
        self.graph = graph
        self.mass = mass
        self.mirrors = tuple(mirrors)
        self.total_mass = float(mass.sum())
        self._eig: Optional[Tuple[np.ndarray, List[SpectralBlock]]] = None
        self._window: Optional[Tuple[float, float, float]] = None

    def eig(self) -> Tuple[np.ndarray, List[SpectralBlock]]:
        """(the whole spectrum ascending, one SpectralBlock per character).

        The first block belongs to the trivial character; it holds the zero
        mode, whose eigenvalue is clamped at 0.
        """
        if self._eig is None:
            n = self.graph.n
            elems = _symmetries(self.graph, self.mass, self.mirrors)
            stack = np.stack(elems)
            rep = stack.min(axis=0)  # orbit representative
            fixes = stack == np.arange(n)
            size = len(elems) // fixes.sum(axis=0)  # orbit size
            # an element sending v to rep(v); each is an involution, so it
            # also sends rep(v) to v
            via = np.argmax(stack == rep, axis=0)
            scale = 1.0 / np.sqrt(self.mass)
            lap = self.graph.laplacian()
            blocks = []
            for c in range(len(elems)):
                chi = np.array([(-1.0) ** bin(c & i).count("1") for i in range(len(elems))])
                inside = np.all(~fixes | (chi[:, None] == 1.0), axis=0)
                reps = np.unique(rep[inside])
                col = np.where(inside, np.searchsorted(reps, rep), 0)
                amp = np.where(inside, chi[via] * scale / np.sqrt(size), 0.0)
                rows = np.flatnonzero(inside)
                basis = sp.csr_matrix((amp[rows], (rows, col[rows])), shape=(n, len(reps)))
                # B^T (M^-1/2 L M^-1/2) B, handed to LAPACK to overwrite
                sym = (basis.T @ lap @ basis).toarray(order="F")
                w, U = scipy.linalg.eigh(sym, driver="evd", overwrite_a=True)
                if c == 0:
                    w[0] = max(w[0], 0.0)
                blocks.append(SpectralBlock(w, U, col, amp))
            self._eig = (np.sort(np.concatenate([b.w for b in blocks])), blocks)
        return self._eig

    @property
    def lambda_max(self) -> float:
        return float(self.eig()[0][-1])

    def _vertices(self, xs) -> np.ndarray:
        ids = np.asarray(xs).reshape(-1)
        if ids.size and ids.dtype.kind not in "iu":
            raise TypeError("vertex ids must be integers")
        if np.any((ids < 0) | (ids >= self.graph.n)):
            raise ValueError("vertex out of range")
        return ids.astype(np.int64)

    def p_diag(self, times: Sequence[float], xs: Optional[Sequence[int]] = None) -> np.ndarray:
        """p(t, x, x) as an array (len(xs), len(times)); xs None = all."""
        ids = np.arange(self.graph.n) if xs is None else self._vertices(xs)
        times = np.asarray(times, dtype=float)
        out = np.zeros((len(ids), len(times)))
        for b in self.eig()[1]:
            cols, at = np.unique(b.col[ids], return_inverse=True)
            sq = b.U[cols]
            sq *= sq
            out += (b.amp[ids] ** 2)[:, None] * (sq @ np.exp(-np.outer(b.w, times)))[at]
        return out

    def p_pair(self, t: float, x: int, y: int) -> float:
        x, y = self._vertices([x, y])
        return float(sum(b.amp[x] * b.amp[y] * np.dot(np.exp(-b.w * t) * b.U[b.col[x]],
                                                      b.U[b.col[y]])
                         for b in self.eig()[1]))

    def p_row(self, t: float, x: int) -> np.ndarray:
        (x,) = self._vertices([x])
        out = np.zeros(self.graph.n)
        for b in self.eig()[1]:
            orbit_row = b.U @ (np.exp(-b.w * t) * b.U[b.col[x]])
            out += b.amp[x] * b.amp * orbit_row[b.col]
        return out


def build_form(h: PartitionHierarchy, level: int, measure: HierMeasure,
               renormalizer: float) -> FiniteDirichletForm:
    """Renormalized corner-graph form with cell masses split over corners."""
    if level > h.depth:
        raise ValueError("level not built")
    if renormalizer <= 0:
        raise ValueError("renormalizer must be positive")
    cg = corner_graph(h.schedule, level)
    num, denom = measure.exact_masses(level)
    if len(num) != len(cg.cell_corners):
        raise ValueError("measure resolution does not match the level")
    # a vertex's cells' numerators sum to at most denom: exact in int64
    shares = np.zeros(cg.graph.n, dtype=np.int64)
    np.add.at(shares, cg.cell_corners.reshape(-1), np.repeat(num, 4))
    mass = _quotients(shares, 4 * denom)
    edges = np.column_stack([cg.graph.edge_u, cg.graph.edge_v,
                             cg.graph.conductance / renormalizer])
    # the two axis mirrors of the square, x -> span - x and y -> span - y
    mirrors = tuple(cg.grid_index.permutation(g) for g in ((False, True, False),
                                                           (False, False, True)))
    return FiniteDirichletForm(LevelGraph(cg.graph.n, edges), mass, mirrors)


def time_window(form: FiniteDirichletForm) -> Tuple[float, float, float]:
    """(t_lo, t_hi, t_mix): resolved window [30/lambda_max, 0.5 t_mix].

    Below ~30/lambda_max the on-diagonal kernel still tracks the single
    vertex mass (p ~ 1/m(x)) instead of the cascade, which would inflate the
    sup-over-x ratios; one dyadic decade above the naive 3/lambda_max clears
    that saturation.  t_mix is the first time on a 1.5x grid at which every
    p(t, x, x) is within 1% of the floor 1/mu(X); the grid is evaluated
    MIX_BATCH times per call.  The window is computed once per form.
    """
    if form._window is None:
        t_lo = 30.0 / form.lambda_max
        floor = 1.0 / form.total_mass
        grid = [t_lo]
        for _ in range(199):
            grid.append(grid[-1] * 1.5)
        for start in range(0, len(grid), MIX_BATCH):
            batch = grid[start:start + MIX_BATCH]
            mixed = np.flatnonzero(form.p_diag(batch).max(axis=0) <= floor * 1.01)
            if len(mixed):
                t_mix = batch[mixed[0]]
                form._window = (t_lo, 0.5 * t_mix, t_mix)
                break
        else:
            raise RuntimeError("mixing time not found; spectrum looks degenerate")
    return form._window


def ol_ds_heat(form: FiniteDirichletForm) -> dict:
    """Windowed uniform spectral-dimension estimate from on-diagonal ratios.

    On the dyadic lattice t_j = t_lo 2^j inside the resolved window
    [t_lo, t_hi] of `time_window`, the estimate at scale ratio 2^j is

        sup over x and lattice s of 2 log(p(s / 2^j, x, x) / p(s, x, x)) / log 2^j,

    and the reported value is the inf over j (the subadditive limit
    surrogate).
    """
    t_lo, t_hi, _ = time_window(form)
    if not (t_hi > t_lo > 0):
        raise ValueError("window empty after range clipping")
    n_oct = int(math.floor(math.log(t_hi / t_lo, 2)))
    if n_oct < 1:
        return {"estimate": float("nan"), "flag": "window-too-short",
                "window": (t_lo, t_hi)}
    lattice = t_lo * 2.0 ** np.arange(n_oct + 1)
    logp = np.log(form.p_diag(lattice))
    # s = lattice[m], s/t = lattice[m-j], t = 2^j
    estimate = min(2.0 * float((logp[:, : n_oct + 1 - j] - logp[:, j:]).max()) / (j * math.log(2.0))
                   for j in range(1, n_oct + 1))
    return {"estimate": estimate, "flag": "ok", "window": (t_lo, t_hi)}


def chapman_kolmogorov_error(form: FiniteDirichletForm, seed: int) -> float:
    """Max error of p(t+s, x, y) = sum_z p(t,x,z) p(s,z,y) m(z) on CK_SAMPLES
    sampled triples, relative to the diagonal scale sqrt(p(t+s,x,x) p(t+s,y,y)).

    Off-diagonal kernel values between far points underflow to the noise of
    the eigen expansion; the Cauchy-Schwarz bound is the honest yardstick.
    """
    rng = np.random.default_rng(seed)
    t_lo, t_hi, _ = time_window(form)
    worst = 0.0
    for _ in range(CK_SAMPLES):
        x = int(rng.integers(0, form.graph.n))
        y = int(rng.integers(0, form.graph.n))
        t = float(t_lo * (t_hi / t_lo) ** rng.random())
        s = float(t_lo * (t_hi / t_lo) ** rng.random())
        lhs = form.p_pair(t + s, x, y)
        rhs = float(np.sum(form.p_row(t, x) * form.p_row(s, y) * form.mass))
        scale = math.sqrt(form.p_pair(t + s, x, x) * form.p_pair(t + s, y, y))
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst
