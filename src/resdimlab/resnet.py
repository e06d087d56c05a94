"""Weighted-graph electrical machinery.

Laplacian solves for effective resistances (point and set queries),
Schur-complement traces, resistance weights, minimum energy unit flows, and
the locality diagnostics (localized resistance and cross-set weight decay).

Solver policy: one Dirichlet solve.  `_Grounded` pins a vertex set (holding
a vertex of every component) and factors the Laplacian block of the free
vertices with one sparse LU (COLAMD ordering), at every size the corner-graph
caps admit.  That one factorization serves pair resistances (one grounded
vertex), set resistances (A pinned at 1, B and other components at 0),
traces and cross weights (the set pinned to unit potentials, 256 right sides
per solve).  Every solve is checked against a relative-residual bound of
1e-10 per right side; a solve above it gets one step of iterative refinement
with the same factors and fails if still above.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

__all__ = [
    "LevelGraph",
    "ResistanceValue",
    "UnitFlow",
    "SolverError",
    "eff_resistance",
    "trace",
    "resistance_weights",
    "min_energy_flow",
    "localized_resistance",
    "cross_weight_decay",
    "pinv_resistance",
    "graph_from_csv",
    "graph_to_csv",
]

RESIDUAL_TOL = 1e-10


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
                 coords: Optional[np.ndarray] = None,
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
        self.coords = None if coords is None else np.asarray(coords, dtype=np.float64)
        self.labels = list(labels) if labels is not None else None
        self._lap: Optional[sp.csr_matrix] = None
        self._grounded: Dict[int, object] = {}
        self._components: Optional[np.ndarray] = None

    @property
    def m(self) -> int:
        return len(self.edge_u)

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
            adj = sp.csr_matrix(
                (np.ones(2 * self.m), (np.concatenate([self.edge_u, self.edge_v]),
                                       np.concatenate([self.edge_v, self.edge_u]))),
                shape=(self.n, self.n))
            _, labels = csgraph.connected_components(adj, directed=False)
            self._components = labels
        return self._components

    def is_connected(self) -> bool:
        return self.n <= 1 or int(self.components().max()) == 0

    def grounded_solver(self, ground: int = 0) -> "_Grounded":
        if ground not in self._grounded:
            self._grounded[ground] = _Grounded(self, [ground])
        return self._grounded[ground]

    def merged(self, groups: Sequence[Sequence[int]]) -> Tuple["LevelGraph", np.ndarray]:
        """Identify each vertex group to a single vertex (exact set queries).

        Returns the quotient graph and the vertex -> quotient-vertex map.
        Edges interior to a group vanish; parallel edges add.  The remaining
        vertices follow the groups, in increasing order.
        """
        members = [np.asarray(grp, dtype=np.int64).reshape(-1) for grp in groups]
        grouped = np.concatenate(members + [np.zeros(0, dtype=np.int64)])
        if len(np.unique(grouped)) < len(grouped):
            raise ValueError("merge groups overlap")
        mapping = np.full(self.n, -1, dtype=np.int64)
        mapping[grouped] = np.repeat(np.arange(len(groups)), [len(m) for m in members])
        free = np.flatnonzero(mapping == -1)
        mapping[free] = len(groups) + np.arange(len(free))
        mu, mv = mapping[self.edge_u], mapping[self.edge_v]
        cross = mu != mv
        edges = np.column_stack([mu[cross], mv[cross], self.conductance[cross]])
        return LevelGraph(len(groups) + len(free), edges), mapping

    def subgraph(self, vertices: Sequence[int]) -> Tuple["LevelGraph", np.ndarray]:
        vertices = np.unique(np.asarray(vertices, dtype=np.int64))
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[vertices] = np.arange(len(vertices))
        pu, pv = pos[self.edge_u], pos[self.edge_v]
        inside = (pu >= 0) & (pv >= 0)
        g = LevelGraph(len(vertices), np.column_stack([pu[inside], pv[inside],
                                                       self.conductance[inside]]),
                       coords=None if self.coords is None else self.coords[vertices])
        return g, vertices


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
        lap = g.laplacian()
        self.lap_ff = lap[self.free][:, self.free].tocsc()
        try:
            self._lu = spla.splu(self.lap_ff)
        except RuntimeError as exc:  # singular pivot
            raise SolverError(f"sparse factorization failed: {exc}") from exc

    def solve(self, rhs_full: np.ndarray) -> np.ndarray:
        """Solve L u = rhs on the free vertices with u = 0 on the ground set.

        rhs is indexed on all vertices (one column per right side); its
        ground rows are ignored.  Each column must meet the residual bound.
        """
        b = rhs_full[self.free]
        nb = np.linalg.norm(b, axis=0)

        def worst_residual(x):
            res = np.linalg.norm(self.lap_ff @ x - b, axis=0) / np.where(nb > 0, nb, 1.0)
            return float(np.max(res, initial=0.0))

        x = self._lu.solve(b)
        if worst_residual(x) > RESIDUAL_TOL:
            x = x + self._lu.solve(b - self.lap_ff @ x)
            res = worst_residual(x)
            if res > RESIDUAL_TOL:
                raise SolverError(f"solve residual {res:.3e} above {RESIDUAL_TOL}")
        u = np.zeros(rhs_full.shape)
        u[self.free] = x
        return u

    def extend(self, pinned: np.ndarray) -> np.ndarray:
        """Harmonic extension: u = pinned on the ground set, L u = 0 off it.

        `pinned` holds the ground-set values and 0 on the free vertices, one
        column per right side.
        """
        return self.solve(-(self.g.laplacian() @ pinned)) + pinned

    def pair_resistance(self, x: int, y: int) -> float:
        if x == y:
            return 0.0
        rhs = np.zeros(self.g.n)
        rhs[x] += 1.0
        rhs[y] -= 1.0
        u = self.solve(rhs)
        return float(u[x] - u[y])


@dataclass
class ResistanceValue:
    value: float
    flag: str = "ok"          # "ok" | "infinite"
    potential: Optional[np.ndarray] = None

    @property
    def finite(self) -> bool:
        return self.flag == "ok"


@dataclass
class UnitFlow:
    edge_u: np.ndarray
    edge_v: np.ndarray
    flow: np.ndarray          # flow from edge_u to edge_v
    source: Tuple[int, ...]
    sink: Tuple[int, ...]
    energy: float

    def node_balance(self, n: int) -> np.ndarray:
        bal = np.zeros(n)
        np.add.at(bal, self.edge_u, self.flow)
        np.add.at(bal, self.edge_v, -self.flow)
        return bal


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


def eff_resistance(g: LevelGraph, A: Sequence[int], B: Sequence[int],
                   return_potential: bool = False) -> ResistanceValue:
    """Resistance between vertex sets: pin A at 1, and B and every other
    component at 0, solve for the free vertices, and return 1 / (current out
    of A).

    Disconnected queries return a tagged infinite value rather than raising.
    The potential is 1 on A, 0 on B and 0 off the component that holds them.
    """
    A, B = _check_sets(g, A, B)
    comp = g.components()
    if len({int(comp[v]) for v in A + B}) > 1:
        return ResistanceValue(float("inf"), "infinite")
    # uncached, so its factors are freed on return
    solver = _Grounded(g, np.concatenate([A, B, np.flatnonzero(comp != comp[A[0]])]))
    pinned = np.zeros(g.n)
    pinned[A] = 1.0
    u = solver.extend(pinned)
    current = float((g.laplacian()[A] @ u).sum())
    return ResistanceValue(1.0 / current, "ok", potential=u if return_potential else None)


def trace(g: LevelGraph, S: Sequence[int]) -> LevelGraph:
    """Trace onto S: Schur complement of the Laplacian, exact on resistances.

    Column j of the Schur complement is (L u)[S] for the harmonic extension u
    of the unit potential at S[j].  The result's labels carry the original
    vertex ids of S.
    """
    S = sorted(set(int(s) for s in S))
    if not S:
        raise ValueError("trace onto the empty set")
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
    scale = float(np.abs(np.diag(schur)).max()) if len(S) else 1.0
    cond = -np.triu(schur, 1)  # traced conductances above the diagonal
    positive = cond < -1e-10 * scale
    if positive.any():
        raise SolverError(f"Schur complement produced a positive off-diagonal "
                          f"{float(-cond[positive].min()):.3e} (scale {scale:.3e})")
    i, j = np.nonzero(cond > 1e-13 * scale)
    coords = None if g.coords is None else g.coords[Sarr]
    return LevelGraph(len(S), np.column_stack([i, j, cond[i, j]]), coords=coords,
                      labels=[int(s) for s in S])


def resistance_weights(g_traced: LevelGraph, tol: float = 1e-10) -> np.ndarray:
    """Dense weight table mu_{x,y} of a finite form: conductances off the
    diagonal, negative row sums on it.  Rows sum to zero by construction."""
    n = g_traced.n
    mu = np.zeros((n, n))
    for u, v, c in zip(g_traced.edge_u, g_traced.edge_v, g_traced.conductance):
        mu[u, v] += c
        mu[v, u] += c
    scale = mu.max() if mu.size else 1.0
    if np.any(mu < -tol * max(scale, 1.0)):
        raise SolverError("negative resistance weight beyond tolerance")
    np.fill_diagonal(mu, 0.0)
    np.fill_diagonal(mu, -mu.sum(axis=1))
    return mu


def min_energy_flow(g: LevelGraph, A: Sequence[int], B: Sequence[int]) -> Tuple[UnitFlow, float]:
    """Optimal unit flow from A to B and its energy (= effective resistance)."""
    A, B = _check_sets(g, A, B)
    res = eff_resistance(g, A, B, return_potential=True)
    if not res.finite:
        raise ValueError("terminals are disconnected; no unit flow exists")
    u = res.potential  # 1 on A, 0 on B
    du = u[g.edge_u] - u[g.edge_v]
    raw = g.conductance * du
    # unit potential drop drives total current 1/R; rescale to unit flux
    flow = raw * res.value
    energy = float(np.sum(flow * flow / g.conductance))
    uf = UnitFlow(g.edge_u.copy(), g.edge_v.copy(), flow, tuple(A), tuple(B), energy)
    return uf, energy


def resistance_vector(g: LevelGraph, x: int, dense_cap: int = 4000) -> np.ndarray:
    """R(x, z) for every z, from the diagonal of the inverse grounded at x."""
    if g.n > dense_cap:
        raise ValueError(f"resistance_vector is dense-only (n={g.n} > {dense_cap})")
    lap = g.laplacian().toarray()
    keep = [v for v in range(g.n) if v != x]
    inv = np.linalg.inv(lap[np.ix_(keep, keep)])
    out = np.zeros(g.n)
    out[keep] = np.diag(inv)
    return out


def localized_resistance(g: LevelGraph, x: int, y: int, alpha: float,
                         dense_cap: int = 4000) -> dict:
    """Resistance between x and y inside the resistance ball B(x, alpha*R(x,y)).

    Reports the ratio to the global value; a disconnected ball yields an
    infinite ratio, flagged.
    """
    if x == y:
        raise ValueError("localized resistance needs distinct vertices")
    if alpha <= 1:
        raise ValueError("alpha must exceed 1")
    rvec = resistance_vector(g, x, dense_cap=dense_cap)
    r_global = float(rvec[y])
    radius = alpha * r_global
    ball = [v for v in range(g.n) if v == x or rvec[v] < radius]
    sub, ids = g.subgraph(ball)
    pos = {int(v): i for i, v in enumerate(ids)}
    res = eff_resistance(sub, [pos[x]], [pos[y]])
    if not res.finite:
        return {"global": r_global, "local": float("inf"), "ratio": float("inf"),
                "flag": "disconnected-ball", "ball_size": len(ball)}
    return {"global": r_global, "local": res.value, "ratio": res.value / r_global,
            "flag": "ok", "ball_size": len(ball)}


def traced_cross_weight(g: LevelGraph, S: Sequence[int], S1: Sequence[int],
                        S2: Sequence[int]) -> float:
    """Sum of traced weights mu_{x,y} over S1 x S2 without materializing the
    Schur complement: minus the current into S1 of the harmonic extension of
    the indicator of S2 (pinned on S)."""
    S = sorted(set(int(s) for s in S))
    set_s = set(S)
    S1 = [v for v in S1 if v in set_s]
    S2 = [v for v in S2 if v in set_s]
    if set(S1) & set(S2):
        raise ValueError("cross-weight sets overlap")
    pinned = np.zeros(g.n)
    pinned[S2] = 1.0
    u = _Grounded(g, S).extend(pinned)
    return float(-(g.laplacian()[S1] @ u).sum())


def cross_weight_decay(h, a1_words: Sequence[Tuple[int, ...]],
                       a2_words: Sequence[Tuple[int, ...]],
                       levels: Sequence[int],
                       base_level: Optional[int] = None) -> dict:
    """Traced cross-weights between two non-adjacent cell unions, per level.

    The underlying form is the corner graph one level below the deepest
    requested trace (or `base_level`); each entry traces it onto the level-n
    corner vertices and sums the weights across the two unions.
    """
    from .cornergraph import corner_graph, corner_vertices_at_level

    levels = sorted(set(int(n) for n in levels))
    if not levels:
        raise ValueError("no levels requested")
    N = base_level if base_level is not None else max(levels) + 1
    if levels[-1] >= N:
        raise ValueError("trace level must stay below the base level")

    boxes1 = [_word_box(h, w) for w in a1_words]
    boxes2 = [_word_box(h, w) for w in a2_words]
    for b1 in boxes1:
        for b2 in boxes2:
            if _boxes_touch(b1, b2):
                raise ValueError("cell unions are adjacent; positive-distance precondition fails")

    cg = corner_graph(h.schedule, N, 0)
    sums = []
    for n in levels:
        S = corner_vertices_at_level(cg, n)
        S1 = [v for v in S if _vertex_in_boxes(cg, v, boxes1, N)]
        S2 = [v for v in S if _vertex_in_boxes(cg, v, boxes2, N)]
        if not S1 or not S2:
            raise ValueError(f"no level-{n} corner vertices inside a union")
        sums.append(traced_cross_weight(cg.graph, S, S1, S2))
    return {"levels": levels, "cross_weights": sums, "base_level": N}


def _word_box(h, word: Tuple[int, ...]) -> Tuple[int, int, int]:
    n = len(word)
    i = h.index_of(tuple(word))
    return h.cell_box(n, i)


def _boxes_touch(b1: Tuple[int, int, int], b2: Tuple[int, int, int]) -> bool:
    ix1, iy1, s1 = b1
    ix2, iy2, s2 = b2
    s = np.lcm(s1, s2)
    f1, f2 = s // s1, s // s2
    x_gap = max(ix2 * f2 - (ix1 + 1) * f1, ix1 * f1 - (ix2 + 1) * f2)
    y_gap = max(iy2 * f2 - (iy1 + 1) * f1, iy1 * f1 - (iy2 + 1) * f2)
    return x_gap <= 0 and y_gap <= 0


def _vertex_in_boxes(cg, v: int, boxes, N: int) -> bool:
    gx, gy = cg.grid[v]
    for ix, iy, s in boxes:
        f = 3 ** N // s
        if ix * f <= gx <= (ix + 1) * f and iy * f <= gy <= (iy + 1) * f:
            return True
    return False


# -- oracles ---------------------------------------------------------------

def pinv_resistance(g: LevelGraph, A: Sequence[int], B: Sequence[int]) -> float:
    """Dense pseudo-inverse oracle for the set resistance (merge, then pinv)."""
    A, B = _check_sets(g, A, B)
    merged, _ = g.merged([A, B])
    lap = merged.laplacian().toarray()
    plus = np.linalg.pinv(lap)
    return float(plus[0, 0] - 2 * plus[0, 1] + plus[1, 1])


# -- CSV interfaces ---------------------------------------------------------

def graph_from_csv(path: str) -> LevelGraph:
    edges = []
    top = -1
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [c.strip() for c in header] != ["u", "v", "conductance"]:
            raise ValueError("expected header u,v,conductance")
        for row in reader:
            u, v, c = int(row[0]), int(row[1]), float(row[2])
            top = max(top, u, v)
            edges.append((u, v, c))
    return LevelGraph(top + 1, edges)


def graph_to_csv(g: LevelGraph, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["u", "v", "conductance"])
        for u, v, c in zip(g.edge_u, g.edge_v, g.conductance):
            writer.writerow([int(u), int(v), f"{c:.17g}"])


def results_to_csv(rows: Sequence[Tuple[str, float, str]], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "value", "flag"])
        for qid, value, flag in rows:
            writer.writerow([qid, f"{value:.17g}", flag])
