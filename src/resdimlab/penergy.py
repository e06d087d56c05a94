"""Discrete p-energies on level cell graphs and the critical-exponent search.

The separation problem for a level-1 base cell w and depth offset k pins the
value 1 on the k-th generation inside w and 0 on every cell whose level-1
ancestor sits at chain distance > M_* = `hierarchy.M_STAR` from w, then finds
the least p-power edge energy over the level-(1+k) cell graph.  p = 1 is an
exact minimum cut; p = 2 is one sparse solve; other p take projected Newton
steps on an eps-smoothed energy under the box [0, 1], with energies,
gradients and the Newton systems all from one signed edge-cell incidence
matrix D per problem; a rung of the eps ladder before the last ends after
its first step with decrement <= RUNG_HANDOFF times the smoothed energy,
the precision the next rung can use.  Every value is bracketed: above by
the energy of its potential, below by the maximum flow at p = 1 and
otherwise by Hölder's bound for a flow made conservative with the last
Newton factorization; a Newton descent ends as soon as that bracket closes,
and a value is certified when its gap is within CERT_TOL of it.  The
reflections of the square that fix w fix the problem, and its energy is
convex, so every flow and Newton system is solved on the quotient by that
stabilizer (half the cells or fewer); the potential and flow are lifted
back, and the bracket, flag and
residual are taken on the cells.  Every solve reads only the problem's live
edges, those with a free end or with ends pinned to different values (a
quarter to a half of them): an edge inside `inner` or inside `outer` carries
no energy at any p.  The bracket's upper end is still summed over every
edge, the dead ones exactly 0.  Each problem is reduced once, on its first
solve, and the min cut and the Newton system read that one reduction: the
live edges and their quotient.  The Newton data is built once, on the first
solve at p != 1, and kept on the problem: D, the p = 2 potential from one
factorization of D_F^T D_F, its column ordering, and one sparsity pattern,
in that ordering, for every Newton system.  Every sup energy (the `penergy`
and `dims` commands, the gap report, `critical_p`) comes from a `SupSweep(h, ks)`
over its base cells, the least level-1 cell of each orbit under the
symmetries of the square (one label array, the least image of each cell
under the D4 permutations, and its distinct values): each problem built once,
solved once per p, each p > 1 started from its certified potential at the
nearest p solved (the last eps rung, then the whole ladder from the p = 2
potential if that bracket does not close).  `SupSweep.spectral_dims` reads
the p = 2 spectral dimensions off the sups' decay against N* (`hierarchy`'s
`nstar_estimate`), and `critical_p` bisects `P_RANGE` for the p where that
decay starts.

Energy convention: sum of |f(x) - f(y)|^p over unordered adjacency edges
(half the symmetric double sum), so the p = 2 value is the effective
conductance between the pinned sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .hierarchy import D4, PartitionHierarchy, adjacency, chain_ball, nstar_estimate

__all__ = [
    "SeparationProblem",
    "PEnergyValue",
    "SpectralDimEstimate",
    "build_separation",
    "p_energy",
    "SupSweep",
    "critical_p",
    "fit_rates",
]

RATE_TOL = 1e-3  # see critical_p
P_RANGE = (1.0, 2.5)  # the p bracket critical_p bisects
EPS_LADDER = (1e-2, 1e-4, 1e-6, 1e-9, 1e-12)  # see p_energy
BRACKET_CLOSED = 1e-12  # a descent ends once upper - lower <= this times upper
RUNG_HANDOFF = 1e-6  # see p_energy: a rung before the last ends at this decrement
CERT_TOL = 1e-7  # see p_energy


@dataclass
class SeparationProblem:
    edges: np.ndarray           # (m, 2) unordered cell-graph edges
    n_cells: int
    inner: np.ndarray           # indices pinned to 1
    outer: np.ndarray           # indices pinned to 0
    # cell -> label of its orbit under the symmetries of the problem (equal
    # labels, one orbit); None: every cell its own orbit
    orbit: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.orbit is None:
            self.orbit = np.arange(self.n_cells)

    @property
    def empty_outer(self) -> bool:
        return len(self.outer) == 0

    @cached_property
    def _reduced(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, "SeparationProblem"]:
        """What every solve reads, built once: (the live-edge mask, each
        cell's orbit as 0..r-1, the least cell of each orbit, the live edges
        that join two orbits, the problem on the r orbits, whose edges are
        those edges' orbit pairs, repeats kept).  An edge is live when it has
        a free end or ends pinned to different values; any other has d = 0
        under every admissible potential, so it adds nothing to the energy,
        its gradient, H(w), a flow or a cut at any p."""
        pin = np.zeros(self.n_cells, dtype=np.int8)
        pin[self.inner] = 1
        pin[self.outer] = 2
        a, b = pin[self.edges.T]
        live = (a != b) | (a == 0)
        _, first, lift = np.unique(self.orbit, return_index=True, return_inverse=True)
        ends = lift[self.edges[live]]
        kept = np.flatnonzero(ends[:, 0] != ends[:, 1])
        quotient = SeparationProblem(edges=ends[kept], n_cells=len(first),
                                     inner=np.unique(lift[self.inner]),
                                     outer=np.unique(lift[self.outer]))
        return live, lift, first, kept, quotient

    @cached_property
    def _newton(self) -> "_NewtonSystem":
        # built on the first solve at p != 1 and kept for every later p
        return _NewtonSystem(self)


@dataclass
class PEnergyValue:
    value: float                # the upper end of the bracket: the energy of `potential`
    potential: Optional[np.ndarray] = None
    residual: float = 0.0       # first-order gap, recorded (the gate only at p = 2)
    flag: str = "ok"            # "ok" | "empty-outer" | "no-convergence"
    lower: float = 0.0          # a proven lower bound on the least energy

    @property
    def upper(self) -> float:
        return self.value


@dataclass
class SpectralDimEstimate:
    rate_ls: float
    rate_limsup: float
    rate_liminf: float
    n_star: float
    dim_upper: float
    dim_lower: float
    dim_ls: float               # the central value, from rate_ls
    flag: str = "ok"
    uncertified: int = 0        # sup energies behind the fit flagged no-convergence


def build_separation(h: PartitionHierarchy, base_index: int, k: int) -> SeparationProblem:
    """Assemble the neighborhood-separation problem for level-1 base cell `base_index`, k levels
    down; its `orbit` labels each cell by the least cell of its orbit under the
    stabilizer of the base cell in D4, which fixes the graph and the pins."""
    if not 0 <= base_index < h.levels[1].count:
        raise ValueError(f"base index {base_index} outside 0..{h.levels[1].count - 1}")
    if k < 0:
        raise ValueError("k must be >= 0")
    n = 1 + k
    if n > h.depth:
        raise ValueError(f"level {n} not built (depth {h.depth})")
    g = adjacency(h, n)
    # level-1 ancestors: cells are parent-major, as many below each level-1 cell
    anc = np.arange(g.count, dtype=np.int64) // (g.count // h.levels[1].count)
    near = chain_ball(adjacency(h, 1), [base_index])
    inner = np.where(anc == base_index)[0]
    outer = np.where(~np.isin(anc, near))[0]
    base_grid = h.levels[1].grid_index
    stabilizer = [e for e in D4 if base_grid.permutation(e)[base_index] == base_index]
    orbit = np.min([h.levels[n].grid_index.permutation(e) for e in stabilizer], axis=0)
    return SeparationProblem(edges=g.edges, n_cells=g.count, inner=inner, outer=outer, orbit=orbit)


def _min_cut(problem: SeparationProblem) -> PEnergyValue:
    """p = 1: the smallest minimum cut, from a maximum flow on the problem's
    quotient (`SeparationProblem._reduced`) with unit capacity both ways on
    each of its edges (repeats add up) and m + 1, m the number of those
    edges, on the hubs into `inner` and out of `outer`.  A dead edge lies on
    no residual path that can matter (every inner cell is reached through
    its hub, and no outer cell is reached once the flow is maximal), so the
    source side is the one the whole problem gives.  That cut is invariant,
    so lifted it is the cells' own; its energy, summed over the quotient
    edges in whole numbers, equals the flow value, which certifies it."""
    _, lift, _, _, quotient = problem._reduced
    n, m = quotient.n_cells, len(quotient.edges)
    eu, ev = quotient.edges.T
    rows = np.concatenate([eu, ev, np.full(len(quotient.inner), n), quotient.outer])
    cols = np.concatenate([ev, eu, quotient.inner, np.full(len(quotient.outer), n + 1)])
    caps = np.where(np.arange(len(rows)) < 2 * m, 1, m + 1).astype(np.int32)
    cap = sp.csr_array((caps, (rows, cols)), shape=(n + 2, n + 2))
    flow = csgraph.maximum_flow(cap, n, n + 1)
    # the source side: orbits reached by residual edges (sparse subtraction
    # stores no zeros, so saturated edges drop out)
    reach = csgraph.breadth_first_order(cap - flow.flow, n, return_predecessors=False)
    g = np.zeros(n)
    g[reach[reach < n]] = 1.0
    e = float(np.abs(g[eu] - g[ev]).sum())
    gap = abs(e - flow.flow_value)
    return PEnergyValue(e, g[lift], gap, "ok" if gap == 0 else "no-convergence",
                        float(flow.flow_value))


def p_energy(problem: SeparationProblem, p: float,
             start: Optional[np.ndarray] = None) -> PEnergyValue:
    """The least p-power energy with the problem's 0/1 pins.

    Every solve runs on the quotient by the problem's orbits and returns the
    potential lifted to the cells, with the bracket, flag and residual taken
    on the cells; single-cell orbits leave the problem as it is.  Every solve
    reads only the live edges; both come from the problem's one reduction
    (`SeparationProblem._reduced`).  So p = 1 values and the p = 2 potential
    are those of the whole problem bit for bit, and so is `upper`, which is
    summed over every edge; at other p the smoothed energy E_eps below lacks
    eps^p per dead edge, so the iterates may move in the last digits.  Every value carries a bracket
    lower <= least energy <= upper = value.

    p = 1 is an exact minimum cut (`_min_cut`), bracketed by its flow value.
    Other p read everything from the signed edge-cell incidence matrix D (+1
    at the first cell of an edge, -1 at the second): the energy is
    sum |D f|^p.  p = 2 is one solve of D_F^T D_F f_F = -D_F^T D f_pinned
    (D_F: the free columns; f_pinned: the pins, 0 on free cells), flagged
    no-convergence when its first-order gap sum(|grad|) over free cells is
    above CERT_TOL times the energy.  Other p start there and take Newton steps
    on E_eps = sum (d^2 + eps^2)^(p/2), d = D f, for eps = 1e-2 ... 1e-12,
    with Hessian H = D_F^T W D_F, W = diag(p (d^2+eps^2)^(p/2-2) ((p-1) d^2 +
    eps^2)), and Armijo backtracking on f_F <- clip(f_F + t s, 0, 1).  The
    last rung ends when the Newton decrement is <= 1e-15 E_eps; a rung before
    it ends right after the first accepted step whose decrement was
    <= RUNG_HANDOFF (1e-6) E_eps, which in the quadratic regime leaves about
    1e-12 E_eps, as much as the next rung, restarting at a smaller eps, can
    use.  Any rung ends when no step decreases E_eps, or after 30 steps.
    Once a step's decrement or accepted decrease is below 1e-8 E_eps, the
    Hölder bracket (`_NewtonSystem.bracket`) is taken at the new iterate
    with the factorization just used, and the whole ladder ends as soon as
    upper - lower <= BRACKET_CLOSED * upper.
    A gap above CERT_TOL times upper flags the value no-convergence; the
    first-order gap is kept as `residual`.

    `start` is the potential of a certified solve of the same problem at
    another p.  For p other than 1 and 2 (exact routes, which ignore it),
    Newton then takes the free values from `start` at the least cell of each
    orbit (clipped to [0, 1]), keeps the pins, and runs the last rung only;
    unless its bracket closes, the call runs the whole ladder from the p = 2
    potential instead and returns that, so a warm start never flags a value
    the cold solve would certify, and a warm value is within BRACKET_CLOSED
    of the least energy.

    The solver data (`_NewtonSystem`) is built on the problem's first solve
    at p != 1 and kept on it.  The p = 2 start factors H(1) = D_F^T D_F, the
    sparse product, once (its entries are small integers).  The one Newton
    pattern is built on first use with a scatter matrix S so that S @ w is
    the data of D_F^T diag(w) D_F, stored in the column ordering the p = 2
    factorization picked (COLAMD); each Newton system is factored in that
    order on its diagonal pivots (the weights are floored above 0, so the
    system is symmetric positive definite).  A singular system raises.
    """
    if not (math.isfinite(p) and p >= 1):
        raise ValueError("p must be finite and >= 1")
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (problem.n_cells,):
            raise ValueError(f"start must hold one value per cell ({problem.n_cells})")
        if not np.all(np.isfinite(start)):
            raise ValueError("start must be finite")
    if problem.empty_outer:
        return PEnergyValue(0.0, flag="empty-outer")
    if p == 1:
        return _min_cut(problem)
    system = problem._newton
    if start is not None and p != 2:
        f = system.f2.copy()
        f[system.free] = np.clip(start[system.first[system.free]], 0.0, 1.0)
        val = _descend(system, p, f, EPS_LADDER[-1:])
        if val.flag == "ok" and _closed(val.upper, val.lower):
            return val
    return _descend(system, p, system.f2.copy(), () if p == 2 else EPS_LADDER)


def _incidence(problem: SeparationProblem, edges: np.ndarray) -> Tuple[sp.csr_matrix, np.ndarray]:
    """(D: +1 at the first cell of each of `edges` and -1 at the second, the
    problem's free cells)."""
    n, m = problem.n_cells, len(edges)
    return (sp.csr_matrix((np.tile([1.0, -1.0], m), (np.repeat(np.arange(m), 2), edges.reshape(-1))),
                          shape=(m, n)),
            np.setdiff1d(np.arange(n), np.concatenate([problem.inner, problem.outer])))


class _NewtonSystem:
    """What every p != 1 solve of one problem shares, all read from its
    reduction (`SeparationProblem._reduced`): on the quotient, D, the free
    orbits, D_F, D_F^T, D f_pinned, the p = 2 potential and column ordering,
    and the Newton pattern in that ordering (built on first use); on the
    cells, the live mask, the lift, the kept edges and the bracket's D, D_F^T
    and D f_pinned on the live edges.  It depends only on the problem, so no
    value depends on the order of the solves."""

    def __init__(self, problem: SeparationProblem):
        self.live, self.lift, self.first, self.kept, quotient = problem._reduced
        self.cells_D, self.cells_free = _incidence(problem, problem.edges[self.live])
        self.cells_D_Ft = self.cells_D[:, self.cells_free].T.tocsr()
        pins = np.zeros(problem.n_cells)
        pins[problem.inner] = 1.0
        self.cells_drive = self.cells_D @ pins
        self.edges = quotient.edges
        D, self.free = _incidence(quotient, quotient.edges)
        f = np.zeros(quotient.n_cells)
        f[quotient.inner] = 1.0
        self.nf = len(self.free)
        self.D_F = D[:, self.free]
        self.D_Ft = self.D_F.T.tocsr()
        self.drive = D @ f  # D f_pinned: f holds only the pins here
        # H(1) = D_F^T D_F, factored once: its entries are small integers
        lu = spla.splu((self.D_Ft @ self.D_F).tocsc())
        f[self.free] = np.clip(lu.solve(-(self.D_Ft @ self.drive)), 0.0, 1.0)
        self.f2 = f
        self.perm = lu.perm_c
        self.order = np.argsort(self.perm)

    @cached_property
    def newton_pattern(self) -> Tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """The Newton systems' pattern, stored in the p = 2 column ordering:
        (the scatter matrix S, nnz(H) x m, whose product S @ w is H(w)'s data,
        H's CSC indices, its indptr).  H(w) = D_F^T diag(w) D_F: edge e adds
        w_e at (i, i) for each free end i, and -w_e at (i, j) and (j, i) when
        both ends are free."""
        nf = self.nf
        label = np.full(len(self.f2), -1)  # orbit -> its column in that ordering (free ones only)
        label[self.free] = self.perm
        ends = label[self.edges.reshape(-1)]
        a, b = ends[0::2], ends[1::2]
        diag = np.flatnonzero(ends >= 0)
        both = np.flatnonzero((a >= 0) & (b >= 0))
        rows = np.concatenate([ends[diag], a[both], b[both]])
        cols = np.concatenate([ends[diag], b[both], a[both]])
        key, slot = np.unique(cols * np.int64(nf) + rows, return_inverse=True)
        scatter = sp.csr_matrix((np.repeat([1.0, -1.0], [len(diag), 2 * len(both)]),
                                 (slot, np.concatenate([diag // 2, both, both]))),
                                shape=(len(key), len(self.edges)))
        return scatter, key % nf, np.searchsorted(key, np.arange(nf + 1) * nf)

    def factor(self, w: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Solves with H(w), from one factorization."""
        S, indices, indptr = self.newton_pattern
        H = sp.csc_matrix((S @ w, indices, indptr), shape=(self.nf, self.nf))
        lu = spla.splu(H, permc_spec="NATURAL", diag_pivot_thresh=0,
                       options={"SymmetricMode": True})
        return lambda rhs: lu.solve(rhs[self.order])[self.perm]

    def bracket(self, g: np.ndarray, p: float, project=None) -> Tuple[float, float, float]:
        """(upper, lower, first-order gap) for the cells at the quotient
        potential g lifted; upper is its energy sum |d|^p, d = D f, summed
        over every edge of the problem with the dead ones exactly 0, so that
        it is bit for bit the energy of f on the problem's own edge array (a
        sum over the live edges alone can differ in the last bit).  The rest
        reads the live edges only; a dead edge has d = 0, so it adds nothing
        to j, F, the leak or ||j||_q.

        lower is Hölder's bound ((F - sum |l|)_+ / ||j||_q)^p, q = p/(p-1),
        for a flow j on the live cell edges with F = <j, D f_pinned> and leak
        l = D_F^T j.  It holds for any j: a minimizer f* lies in the box
        [0, 1], so F - sum |l| <= F + <l, f*_F> = <j, D f*> <= ||j||_q E(f*)^(1/p).
        j is |d|^(p-2) d, made conservative on the quotient, when `project` is
        (w, a solve with H(w)), as j - diag(w) D_F H(w)^-1 D_F^T j; F, l and
        the norm are taken on the cells.  The first-order gap sums |grad E|
        over free cells, leaving out those at a bound with inward gradient."""
        f = g[self.lift]
        d = self.cells_D @ f
        a = np.abs(d)
        energies = np.zeros(len(self.live))
        energies[self.live] = a ** p
        upper = float(energies.sum())
        j = np.sign(d) * a ** (p - 1)
        gf = self.cells_D_Ft @ (p * j)
        x = f[self.cells_free]
        act = ((x <= 0.0) & (gf > 0)) | ((x >= 1.0) & (gf < 0))
        res = float(np.abs(np.where(act, 0.0, gf)).sum())
        if project is not None:
            w, solve = project
            j[self.kept] -= w * (self.D_F @ solve(self.D_Ft @ j[self.kept]))
        leak = float(np.abs(self.cells_D_Ft @ j).sum())
        # ||j||_q as top * ||j / top||_q: near p = 1, q is in the hundreds and |j|^q overflows
        top = float(np.abs(j).max(initial=0.0))
        norm = top * float(np.sum((np.abs(j) / top) ** (p / (p - 1)))) ** ((p - 1) / p) if top else 0.0
        lower = (max(float(j @ self.cells_drive) - leak, 0.0) / norm) ** p if norm else 0.0
        return upper, lower, res


def _descend(system: _NewtonSystem, p: float, f: np.ndarray,
             rungs: Sequence[float]) -> PEnergyValue:
    """Newton from the quotient potential f (updated in place) down the given
    eps rungs (`_newton`); the value at the end, lifted, with its bracket and
    flag: at p = 2 from the first-order gap, otherwise from the bracket."""
    upper, lower, res = _newton(system, p, f, rungs)
    ok = res <= CERT_TOL * max(upper, 1e-30) if p == 2 else upper - lower <= CERT_TOL * upper
    return PEnergyValue(upper, f[system.lift], res, "ok" if ok else "no-convergence", lower)


def _newton(system: _NewtonSystem, p: float, f: np.ndarray,
            rungs: Sequence[float]) -> Tuple[float, float, float]:
    """Projected Newton steps down the rungs (each before the last handed
    on at RUNG_HANDOFF, the last run to 1e-15), ended as soon as the bracket
    closes; the bracket at the end, from the last factorization."""
    free, D_F, D_Ft, drive = system.free, system.D_F, system.D_Ft, system.drive
    project = None  # (weights, solve) of the last factorization
    for eps in rungs if system.nf else ():
        last = eps == rungs[-1]
        for _ in range(30):
            x = f[free]
            d = D_F @ x + drive
            r = d * d + eps * eps
            e = float(np.sum(r ** (p / 2)))
            g = D_Ft @ (p * d * r ** (p / 2 - 1))
            w = p * r ** (p / 2 - 2) * ((p - 1) * d * d + eps * eps)
            w = np.maximum(w, 1e-14 * w.max())
            project = None  # free the last factorization before the next
            project = w, system.factor(w)
            s = project[1](-g)
            dec = -float(g @ s)
            if dec <= 1e-15 * e:
                break
            for t in 0.5 ** np.arange(34):
                xt = np.clip(x + t * s, 0.0, 1.0)
                et = float(np.sum(((D_F @ xt + drive) ** 2 + eps * eps) ** (p / 2)))
                if et <= e - 1e-4 * t * dec:
                    f[free] = xt
                    break
            else:
                break  # no decrease left on this rung
            if min(dec, e - et) <= 1e-8 * e:
                bracket = system.bracket(f, p, project)
                if _closed(*bracket[:2]):
                    return bracket
            if not last and dec <= RUNG_HANDOFF * e:
                break  # quadratic: about 1e-12 E_eps left, as much as the next rung can use
    return system.bracket(f, p, project)


def _closed(upper: float, lower: float) -> bool:
    return upper - lower <= BRACKET_CLOSED * upper


class SupSweep:
    """Sups over level-1 base cells of the separation energies k levels down,
    k in `ks`.  The base cells (`cells`, ascending) are the least cell of
    each orbit of the level-1 cells under the symmetries of Q, the D4
    permutations (`GridIndex.permutation`) whose stabilizers also give each
    separation problem its orbits.  The images of a cell are cells because
    every rule is D4-invariant, which `SubdivisionRule` checks when it is
    built; the separation energy is D4-invariant too, so one cell per orbit
    gives the sup.  Each problem (`problems[j][i]`:
    `build_separation(h, cells[i], ks[j])`) is built once and solved once
    per p; a p > 1 starts from its certified potential at the nearest p > 1
    already solved, the lower p on a tie, or cold when there is none."""

    def __init__(self, h: PartitionHierarchy, ks: Sequence[int]):
        self.h, self.ks = h, list(ks)
        if not self.ks:
            raise ValueError("no k values to sweep")
        if 1 + max(self.ks) > h.depth:
            raise ValueError("horizon exceeds built depth")
        grid = h.levels[1].grid_index
        self.cells = np.unique(np.min([grid.permutation(e) for e in D4], axis=0)).tolist()
        self.problems = [[build_separation(h, w, k) for w in self.cells] for k in self.ks]
        self._solved: Dict[float, List[List[PEnergyValue]]] = {}

    def values(self, p: float) -> List[List[PEnergyValue]]:
        """Every problem's energy at p, laid out as `problems`."""
        if p not in self._solved:
            self._solved[p] = [[p_energy(prob, p, start=self._start(j, i, p))
                                for i, prob in enumerate(row)]
                               for j, row in enumerate(self.problems)]
        return self._solved[p]

    def _start(self, j: int, i: int, p: float) -> Optional[np.ndarray]:
        known = {q: vals[j][i].potential for q, vals in self._solved.items()
                 if q > 1 and vals[j][i].flag == "ok"}
        return known[min(known, key=lambda q: (abs(q - p), q))] if known else None

    def sups(self, p: float) -> List[Tuple[int, PEnergyValue]]:
        """Per k, (argmax base cell, its energy) at p; the first of equal values wins."""
        return [max(zip(self.cells, row), key=lambda cv: cv[1].value) for row in self.values(p)]

    def fit(self, p: float) -> Tuple[List[PEnergyValue], int, Tuple[float, ...]]:
        """At p: the sups per k, their no-convergence count and the fit_rates
        of their logs."""
        sups = [val for _, val in self.sups(p)]
        logs = [math.log(max(s.value, 1e-300)) for s in sups]
        return sups, sum(s.flag == "no-convergence" for s in sups), fit_rates(self.ks, logs)

    def spectral_dims(self) -> SpectralDimEstimate:
        """Upper, lower and central p-spectral dimensions at p = 2, from the
        fitted decay of the p = 2 sups against the branching rate N* of
        `nstar_estimate`.  `uncertified` counts the sups behind the fit
        flagged no-convergence; when it is positive, a flag that would read
        "ok" reads "uncertified-energy"."""
        n_star = nstar_estimate(self.h)["n_star"]
        _, uncertified, (ls, up, lo) = self.fit(2.0)
        logN = math.log(n_star)
        flag = "ok"

        def dim(rate: float) -> float:
            if rate >= logN:
                return float("nan")
            return 2.0 / (1.0 - rate / logN)

        d_up = dim(up)
        d_lo = dim(lo)
        if math.isnan(d_up) or math.isnan(d_lo):
            flag = "rate-at-or-above-logN"
        elif uncertified:
            flag = "uncertified-energy"
        return SpectralDimEstimate(
            rate_ls=ls, rate_limsup=up, rate_liminf=lo,
            n_star=float(n_star), dim_upper=d_up, dim_lower=d_lo, dim_ls=dim(ls), flag=flag,
            uncertified=uncertified)


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


def critical_p(h: PartitionHierarchy, kmax: int, tol: float = 0.05) -> dict:
    """Bisection on p in `P_RANGE`, to width `tol`, of the fitted decay rate
    of k -> sup energy.

    The sups come from one `SupSweep` over k = 1..kmax, so each
    (representative, k) problem is built once and each p > 1 starts from
    that problem's certified potential at the nearest p already solved.

    rate < 0 means p is above the critical exponent.  Rates inside
    [-RATE_TOL, RATE_TOL] are treated as not-yet-decaying and widen the
    reported interval with a flag.  Each row of "rates" counts, as
    "uncertified", its sup energies flagged no-convergence.
    """
    if kmax < 3:
        raise ValueError("kmax must be >= 3")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    sweep = SupSweep(h, range(1, kmax + 1))
    table: List[dict] = []

    def rate_of(p: float) -> float:
        sups, uncertified, (slope, up, lo) = sweep.fit(p)
        table.append({"p": p, "rate": slope, "rate_limsup": up, "rate_liminf": lo,
                      "sup_energies": [s.value for s in sups], "uncertified": uncertified})
        return slope

    lo, hi = P_RANGE
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
