import collections
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from resdimlab.hierarchy import Schedule, build_hierarchy
from resdimlab.measure import hier_measure
from resdimlab.mixedcarpet import ScaleCache


@pytest.fixture(scope="session")
def sc_h6():
    return build_hierarchy(Schedule.pure_sc(), 6)


@pytest.fixture(scope="session")
def vs_h6():
    return build_hierarchy(Schedule.pure_vicsek(), 6)


@pytest.fixture(scope="session")
def mx_h5():
    return build_hierarchy(Schedule.mixed(), 5)


@pytest.fixture(scope="session")
def sc_cache():
    return ScaleCache(Schedule.pure_sc())


@pytest.fixture(scope="session")
def vs_cache():
    return ScaleCache(Schedule.pure_vicsek())


@pytest.fixture(scope="session")
def mx_cache():
    return ScaleCache(Schedule.mixed())


@pytest.fixture(scope="session")
def sc_form4(sc_h6, sc_cache):
    """Renormalized level-4 carpet form with its eigendecomposition (heavy)."""
    from resdimlab.heat import build_form
    form = build_form(sc_h6, 4, hier_measure(sc_h6), sc_cache.pt(4))
    form.eig()
    return form


@pytest.fixture(scope="session")
def vs_form4(vs_h6, vs_cache):
    from resdimlab.heat import build_form
    form = build_form(vs_h6, 4, hier_measure(vs_h6), vs_cache.pt(4))
    form.eig()
    return form


@pytest.fixture(scope="session")
def sc_sup2(sc_h6):
    """SC p=2 sup-energy table, k = 1..5."""
    from resdimlab.penergy import SupSweep
    sweep = SupSweep(sc_h6, range(1, 6))
    return {k: val.value for k, (_, val) in zip(sweep.ks, sweep.sups(2.0))}


@pytest.fixture(scope="session")
def vs_sup2(vs_h6):
    from resdimlab.penergy import SupSweep
    sweep = SupSweep(vs_h6, range(1, 6))
    return {k: val.value for k, (_, val) in zip(sweep.ks, sweep.sups(2.0))}


class SpluCalls(list):
    """The permc_spec of every splu call, in order (None: the default), with
    the shape of each factored matrix, in the same order, in `shapes`."""

    def __init__(self):
        super().__init__()
        self.shapes = []


@pytest.fixture
def splu_orderings(monkeypatch):
    calls = SpluCalls()
    splu = spla.splu

    def counted(A, *args, **kwargs):
        calls.append(kwargs.get("permc_spec"))
        calls.shapes.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    return calls


@pytest.fixture
def small_gap_report(monkeypatch):
    """gap_report at hierarchy depth 2 and kmax 3, with a stub volume route
    (its window needs depth 3); only the heat forms read the caches."""
    from resdimlab import measure, mixedcarpet
    for name, value in (("DEPTH_SC", 2), ("DEPTH_VICSEK", 2), ("KMAX_SC", 3),
                        ("KMAX_VICSEK", 3), ("DIM_ARC_KMAX", 3)):
        monkeypatch.setattr(mixedcarpet, name, value)
    monkeypatch.setattr(measure, "olds_volume", lambda *args, **kwargs: {"ds_estimate": 1.0})


@pytest.fixture
def quarter_solves(monkeypatch):
    """Counter of (quarter, schedule name, n, m) over the (Pt) and (TB)
    quarters `mixedcarpet` builds, one build per solve."""
    from resdimlab import mixedcarpet
    solves = collections.Counter()
    for name in ("pt_quarter", "tb_quarter"):
        def counted(schedule, n, m=0, _name=name, _build=getattr(mixedcarpet, name)):
            solves[_name, schedule.name, n, m] += 1
            return _build(schedule, n, m)
        monkeypatch.setattr(mixedcarpet, name, counted)
    return solves


def pipeline_quarters(n_max):
    """The quarters behind evres_fit(n_max = n_max) and the `small_gap_report`:
    (Pt) and (TB) of each mixed (n, m) with m < n <= n_max, (Pt)_4 and (Pt)_5
    of the carpet (the ratio rho_hat), (Pt)_1..5 of the plus-sign set, and
    the carpet (Pt)_2 that only the report's depth-2 heat form reads."""
    return sorted([(quarter, "mixed", n, m) for n in range(1, n_max + 1) for m in range(n)
                   for quarter in ("pt_quarter", "tb_quarter")]
                  + [("pt_quarter", "sc", n, 0) for n in (2, 4, 5)]
                  + [("pt_quarter", "vicsek", n, 0) for n in range(1, 6)])


def random_connected_graph(rng, n_max=50):
    """Random weighted connected graph on 3..n_max vertices."""
    from resdimlab.resnet import LevelGraph
    n = int(rng.integers(3, n_max + 1))
    edges = []
    perm = rng.permutation(n)
    for a, b in zip(perm, perm[1:]):
        edges.append((int(a), int(b), float(rng.uniform(0.2, 5.0))))
    extra = int(rng.integers(0, 2 * n))
    for _ in range(extra):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((int(u), int(v), float(rng.uniform(0.2, 5.0))))
    return LevelGraph(n, edges)


# -- resistance oracles: merge each terminal set to one vertex ---------------

def merged(g, groups):
    """Identify each vertex group of g to a single vertex (exact set queries).

    Returns the quotient graph and the vertex -> quotient-vertex map.  Edges
    interior to a group vanish; parallel edges add.  The remaining vertices
    follow the groups, in increasing order.
    """
    from resdimlab.resnet import LevelGraph
    members = [np.asarray(grp, dtype=np.int64).reshape(-1) for grp in groups]
    grouped = np.concatenate(members + [np.zeros(0, dtype=np.int64)])
    if len(np.unique(grouped)) < len(grouped):
        raise ValueError("merge groups overlap")
    mapping = np.full(g.n, -1, dtype=np.int64)
    mapping[grouped] = np.repeat(np.arange(len(groups)), [len(m) for m in members])
    free = np.flatnonzero(mapping == -1)
    mapping[free] = len(groups) + np.arange(len(free))
    mu, mv = mapping[g.edge_u], mapping[g.edge_v]
    cross = mu != mv
    edges = np.column_stack([mu[cross], mv[cross], g.conductance[cross]])
    return LevelGraph(len(groups) + len(free), edges), mapping


def merged_eff_resistance(g, A, B):
    """Reference set resistance by identification: restrict to the component
    of A and B, identify A and B to single vertices, ground the B vertex and
    solve for a unit current.  Returns (R, potential with A at 1, B at 0,
    0 elsewhere)."""
    from resdimlab.resnet import LevelGraph
    A, B = sorted(set(A)), sorted(set(B))
    comp = g.components()
    ids = np.flatnonzero(comp == comp[A[0]])
    pos = np.full(g.n, -1)
    pos[ids] = np.arange(len(ids))
    inside = pos[g.edge_u] >= 0  # an edge lies in one component
    sub = LevelGraph(len(ids), np.column_stack([pos[g.edge_u[inside]], pos[g.edge_v[inside]],
                                                g.conductance[inside]]))
    quotient, mapping = merged(sub, [np.searchsorted(ids, A), np.searchsorted(ids, B)])
    keep = np.array([v for v in range(quotient.n) if v != 1])
    lap = quotient.laplacian().tocsc()
    rhs = np.zeros(quotient.n)
    rhs[0], rhs[1] = 1.0, -1.0
    u = np.zeros(quotient.n)
    u[keep] = spla.splu(lap[keep][:, keep].tocsc()).solve(rhs[keep])
    pot = np.zeros(g.n)
    pot[ids] = u[mapping] / u[0]
    return float(u[0]), pot


def min_energy_flow(g, A, B):
    """Thomson oracle: the unit flow from A to B driven by the potential of
    `merged_eff_resistance`, one value per edge of g (from edge_u to
    edge_v), and its energy sum flow^2 / c, which equals R."""
    r, pot = merged_eff_resistance(g, A, B)
    # a unit potential drop drives the current 1/R; rescale to a unit flux
    flow = g.conductance * (pot[g.edge_u] - pot[g.edge_v]) * r
    return flow, float(np.sum(flow * flow / g.conductance))


def pinv_resistance(g, A, B):
    """Dense pseudo-inverse oracle for the set resistance (merge, then pinv)."""
    quotient, _ = merged(g, [sorted(set(A)), sorted(set(B))])
    plus = np.linalg.pinv(quotient.laplacian().toarray())
    return float(plus[0, 0] - 2 * plus[0, 1] + plus[1, 1])


def single_pair_resistance(solver, x, y):
    """Oracle: the one e_x - e_y solve per pair that pair resistances made
    before they were batched into Green's-function blocks."""
    if x == y:
        return 0.0
    u = np.zeros(solver.g.n)
    b = np.zeros(len(solver.free))
    for v, s in ((x, 1.0), (y, -1.0)):
        if solver.pos[v] >= 0:  # the ground rows of e_x - e_y are dropped
            b[solver.pos[v]] = s
    u[solver.free] = solver.solve(b)
    return float(u[x] - u[y])


def exact_mass(m, n, i):
    """The mass of level-n cell i of the measure m, as a Fraction read from
    its exact table."""
    num, denom = m.exact_masses(n)
    return Fraction(int(num[i]), denom)


def relative_corner_graph(schedule, n, m):
    """The corner graph of the relative pair (n, m): the rules of levels
    m+1..n on the unit square, built as `corner_graph` builds (n, 0), as a
    CornerGraph of level n - m, whose span is 3^(n-m)."""
    from resdimlab.cornergraph import CornerGraph, _cells, _sides
    from resdimlab.resnet import LevelGraph
    cell_corners, grid = _cells(schedule, n, m)
    sides = _sides(cell_corners)
    return CornerGraph(n - m, LevelGraph(len(grid), np.column_stack([sides, np.ones(len(sides))])),
                       grid, cell_corners)
