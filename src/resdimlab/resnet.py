"""Weighted-graph electrical machinery.

Laplacian solves for effective resistances (point and set queries),
resistance profiles and Schur-complement traces.

Solver policy: one Dirichlet solve.  `_Grounded` pins a vertex set (holding
a vertex of every component) and factors the Laplacian block of the free
vertices with one sparse LU (COLAMD ordering), at every size the corner-graph
caps admit.  Its `solve` works on the free rows alone: right sides and
solutions hold one row per free vertex and one column per right side, in
Fortran order so that every column is contiguous; `extend` gathers and
scatters full vectors itself.  That one factorization serves pair
resistances (one grounded vertex), set resistances (A pinned at 1, B and
other components at 0) and traces (the set pinned to unit potentials, 256
right sides per solve).  Pair resistances have one path: each graph's
cached solver, grounded at vertex 0, keeps its Green's function G on the
endpoints asked so far, and R(x, y) = G_xx + G_yy - 2 G_xy is read from
that block.  A query solves one unit right side per new free endpoint, built
on the free rows, in column blocks of at most PAIR_BLOCK_BYTES, and mirrors
the new columns against the old endpoints; the ground vertex's row and
column of G are 0 and are not solved.  A resistance profile R(x, .) is one
such query, with every vertex an endpoint, so the block refuses to keep
more than VECTOR_CAP endpoints.  Every solve is checked against a
relative-residual bound of 1e-10 per right side, one column at a time; a
right side above it gets one step of iterative refinement with the same
factors, and the solve fails if it is still above.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

__all__ = [
    "LevelGraph",
    "ResistanceValue",
    "SolverError",
    "eff_resistance",
    "trace",
]

RESIDUAL_TOL = 1e-10
PAIR_BLOCK_BYTES = 8 * 2 ** 20  # one dense free-rows x block array of Green's columns
VECTOR_CAP = 4000  # endpoints of one kept Green's block: a profile asks every vertex


class SolverError(RuntimeError):
    pass


class LevelGraph:
    """Finite weighted graph; conductances finite and strictly positive.

    `edges` holds (u, v, conductance) triples, as an iterable or an (m, 3)
    array.  Parallel edges are merged on construction (conductances add, in
    input order) and the edges are kept in lexicographic (u < v) order; self
    loops are rejected.  Immutable once built; factorizations are cached.
    """

    def __init__(self, n: int, edges: Iterable[Tuple[int, int, float]],
                 labels: Optional[Sequence] = None):
        self.n = int(n)
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        triples = np.asarray(edges, dtype=np.float64).reshape(-1, 3)
        u = triples[:, 0].astype(np.int64)
        v = triples[:, 1].astype(np.int64)
        c = triples[:, 2]
        loop = u == v
        outside = (np.minimum(u, v) < 0) | (np.maximum(u, v) >= self.n)
        bad = loop | outside | ~(np.isfinite(c) & (c > 0))
        if bad.any():
            i = int(np.argmax(bad))  # report the first bad edge, as a scan would
            raise ValueError("self loop" if loop[i] else "edge endpoint out of range"
                             if outside[i] else "conductance must be positive and finite")
        keys, inverse = np.unique(np.minimum(u, v) * self.n + np.maximum(u, v),
                                  return_inverse=True)
        self.edge_u, self.edge_v = np.divmod(keys, self.n)
        self.conductance = np.bincount(inverse, weights=c, minlength=len(keys))
        self.labels = list(labels) if labels is not None else None
        self._lap: Optional[sp.csr_matrix] = None
        self._grounded: Optional[_Grounded] = None
        self._components: Optional[np.ndarray] = None

    def laplacian(self) -> sp.csr_matrix:
        if self._lap is None:
            u, v, c = self.edge_u, self.edge_v, self.conductance
            rows = np.concatenate([u, v, u, v])
            cols = np.concatenate([v, u, u, v])
            vals = np.concatenate([-c, -c, c, c])
            self._lap = sp.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))
        return self._lap

    def components(self) -> np.ndarray:
        if self._components is None:
            # every edge is a nonzero of the Laplacian (conductances are > 0)
            _, self._components = csgraph.connected_components(self.laplacian(), directed=False)
        return self._components

    def is_connected(self) -> bool:
        return self.n <= 1 or int(self.components().max()) == 0

    def grounded_solver(self) -> "_Grounded":
        """The factorization grounded at vertex 0, built once and kept with
        its Green's block."""
        if self._grounded is None:
            self._grounded = _Grounded(self, [0])
        return self._grounded


class _Grounded:
    """Factorization of the Laplacian block off a grounded vertex set.

    Every connected component must hold a grounded vertex, so the free block
    is nonsingular.
    """

    def __init__(self, g: LevelGraph, ground: Sequence[int]):
        self.g = g
        grounded = np.zeros(g.n, dtype=bool)
        grounded[np.asarray(ground, dtype=np.int64)] = True
        comp = g.components()
        if not np.isin(comp, comp[grounded]).all():
            raise SolverError("a connected component holds no grounded vertex")
        self.free = np.flatnonzero(~grounded)
        self.pos = np.full(g.n, -1, dtype=np.int64)  # vertex -> free row, -1 on the ground set
        self.pos[self.free] = np.arange(len(self.free))
        lap = g.laplacian()
        self.lap_ff = lap[self.free][:, self.free].tocsc()
        try:
            self._lu = spla.splu(self.lap_ff)
        except RuntimeError as exc:  # singular pivot
            raise SolverError(f"sparse factorization failed: {exc}") from exc
        self._ends = np.zeros(0, dtype=np.int64)  # endpoints of the kept Green's block
        self._block = np.zeros((0, 0))  # G[_ends][:, _ends]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve L x = b on the free vertices, with u = 0 on the ground set.

        b and x hold the free rows only (row i is vertex free[i]), one column
        per right side; in Fortran order every column is contiguous.  Each
        column must meet the residual bound, checked one column at a time,
        so a column gets the same residual in any batch.
        """
        x = self._lu.solve(b)
        b2, x2 = (b[:, None], x[:, None]) if b.ndim == 1 else (b, x)
        nb = _norms(b2.T)
        nb[nb == 0] = 1.0
        redo = np.flatnonzero(_norms(self._residuals(x2, b2)) / nb > RESIDUAL_TOL)
        if len(redo):  # refine only the columns above the bound
            x2[:, redo] += self._lu.solve(np.array(self._residuals(x2[:, redo], b2[:, redo])).T)
            res = float(np.max(_norms(self._residuals(x2[:, redo], b2[:, redo])) / nb[redo]))
            if res > RESIDUAL_TOL:
                raise SolverError(f"solve residual {res:.3e} above {RESIDUAL_TOL}")
        return x

    def _residuals(self, x: np.ndarray, b: np.ndarray) -> List[np.ndarray]:
        """b - L x, column by column."""
        return [bj - self.lap_ff @ xj for xj, bj in zip(x.T, b.T)]

    def extend(self, pinned: np.ndarray) -> np.ndarray:
        """Harmonic extension: u = pinned on the ground set, L u = 0 off it.

        `pinned` holds the ground-set values and 0 on the free vertices, one
        column per right side.
        """
        u = np.array(pinned, dtype=np.float64)
        u[self.free] = self.solve(-(self.g.laplacian() @ pinned)[self.free])
        return u

    def pair_resistances(self, xs: Sequence[int], ys: Sequence[int]) -> np.ndarray:
        """R(x, y) = G_xx + G_yy - 2 G_xy for every pair (xs[i], ys[i]), read
        from the Green's block G[_ends][:, _ends] kept between calls.  The
        columns of the endpoints it lacks are solved first, one unit right
        side per free endpoint in blocks of at most PAIR_BLOCK_BYTES; their
        entries against the earlier endpoints are mirrored, since G is
        symmetric.  Rows and columns of ground endpoints are 0."""
        xs = np.asarray(xs, dtype=np.int64).reshape(-1)
        ys = np.asarray(ys, dtype=np.int64).reshape(-1)
        new = np.setdiff1d(np.concatenate([xs, ys]), self._ends)
        if len(new):
            if new[0] < 0 or new[-1] >= self.g.n:  # new is sorted
                raise ValueError("vertex out of range")
            k = len(self._ends)
            ends = np.concatenate([self._ends, new])
            if len(ends) > VECTOR_CAP:
                raise ValueError(f"a Green's block keeps at most {VECTOR_CAP} endpoints "
                                 f"({len(ends)} asked)")
            frows, fnew = self.pos[ends], self.pos[new]
            r = np.flatnonzero(frows >= 0)
            j_free = np.flatnonzero(fnew >= 0)
            cols = np.zeros((len(ends), len(new)))
            width = max(1, PAIR_BLOCK_BYTES // (8 * max(1, len(self.free))))
            for lo in range(0, len(j_free), width):
                j = j_free[lo:lo + width]
                b = np.zeros((len(self.free), len(j)), order="F")
                b[fnew[j], np.arange(len(j))] = 1.0
                cols[np.ix_(r, j)] = self.solve(b)[frows[r]]
            self._block = np.block([[self._block, cols[:k]], [cols[:k].T, cols[k:]]])
            self._ends = ends
        order = np.argsort(self._ends)
        ix, iy = (order[np.searchsorted(self._ends, v, sorter=order)] for v in (xs, ys))
        d = np.diagonal(self._block)
        return d[ix] + d[iy] - 2.0 * self._block[ix, iy]  # exactly 0 where x == y


def _norms(columns) -> np.ndarray:
    """The 2-norm of each column, one column at a time, so that a column gets
    the same norm in any batch."""
    return np.array([np.linalg.norm(c) for c in columns])


@dataclass
class ResistanceValue:
    value: float


def _check_sets(g: LevelGraph, A: Sequence[int], B: Sequence[int]) -> Tuple[List[int], List[int]]:
    A = sorted(set(int(a) for a in A))
    B = sorted(set(int(b) for b in B))
    if not A or not B:
        raise ValueError("empty terminal set")
    if set(A) & set(B):
        raise ValueError("terminal sets intersect")
    for v in A + B:
        if not 0 <= v < g.n:
            raise ValueError("terminal vertex out of range")
    return A, B


def eff_resistance(g: LevelGraph, A: Sequence[int], B: Sequence[int]) -> ResistanceValue:
    """Resistance between vertex sets: pin A at 1, and B and every other
    component at 0, solve for the free vertices, and return 1 / (current out
    of A).

    A disconnected query returns the value inf rather than raising.
    """
    A, B = _check_sets(g, A, B)
    comp = g.components()
    if len({int(comp[v]) for v in A + B}) > 1:
        return ResistanceValue(float("inf"))
    # uncached, so its factors are freed on return
    solver = _Grounded(g, np.concatenate([A, B, np.flatnonzero(comp != comp[A[0]])]))
    pinned = np.zeros(g.n)
    pinned[A] = 1.0
    u = solver.extend(pinned)
    current = float((g.laplacian()[A] @ u).sum())
    return ResistanceValue(1.0 / current)


def trace(g: LevelGraph, S: Sequence[int]) -> LevelGraph:
    """Trace onto S: Schur complement of the Laplacian, exact on resistances.

    Column j of the Schur complement is (L u)[S] for the harmonic extension u
    of the unit potential at S[j].  The result's labels carry the original
    vertex ids of S.
    """
    S = sorted(set(int(s) for s in S))
    if not S:
        raise ValueError("trace onto the empty set")
    if S[0] < 0 or S[-1] >= g.n:
        raise ValueError("terminal vertex out of range")
    if not g.is_connected():
        raise ValueError("trace requires a connected graph")
    Sarr = np.array(S, dtype=np.int64)
    solver = _Grounded(g, Sarr)
    lap_s = g.laplacian()[Sarr]
    schur = np.empty((len(S), len(S)))
    for lo in range(0, len(S), 256):  # 256 right-hand sides per solve
        hi = min(lo + 256, len(S))
        pinned = np.zeros((g.n, hi - lo))
        pinned[Sarr[lo:hi], np.arange(hi - lo)] = 1.0
        schur[:, lo:hi] = lap_s @ solver.extend(pinned)
    scale = float(np.abs(np.diag(schur)).max())
    cond = -np.triu(schur, 1)  # traced conductances above the diagonal
    positive = cond < -1e-10 * scale
    if positive.any():
        raise SolverError(f"Schur complement produced a positive off-diagonal "
                          f"{float(-cond[positive].min()):.3e} (scale {scale:.3e})")
    i, j = np.nonzero(cond > 1e-13 * scale)
    return LevelGraph(len(S), np.column_stack([i, j, cond[i, j]]), labels=[int(s) for s in S])
