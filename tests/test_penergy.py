import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from resdimlab.hierarchy import Schedule, adjacency, build_hierarchy, chain_ball
from resdimlab import hierarchy, penergy
from resdimlab.penergy import (PEnergyValue, SeparationProblem, SupSweep, build_separation,
                               critical_p, fit_rates, p_energy)
from resdimlab.resnet import LevelGraph, eff_resistance


def path_problem():
    return SeparationProblem(edges=np.array([[0, 1], [1, 2]]), n_cells=3,
                             inner=np.array([0]), outer=np.array([2]))


def test_path_p2():
    assert p_energy(path_problem(), 2.0).value == pytest.approx(0.5, abs=1e-12)


def test_path_p1():
    # the minimum cut of a path is one edge
    val = p_energy(path_problem(), 1.0)
    assert val.value == 1.0 and val.flag == "ok" and val.residual == 0.0
    # the smallest minimum cut: only the pinned cell is on the source side
    assert val.potential.tolist() == [1.0, 0.0, 0.0]


def random_problem(rng, n_free):
    """A random graph on 1-3 inner, 1-3 outer and `n_free` free cells."""
    n_in, n_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    n = n_in + n_out + n_free
    pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
    keep = rng.random(len(pairs)) < rng.uniform(0.15, 0.6)
    cells = rng.permutation(n)
    return SeparationProblem(edges=pairs[keep], n_cells=n,
                             inner=np.sort(cells[:n_in]),
                             outer=np.sort(cells[n_in:n_in + n_out]))


def brute_min_cut(problem):
    """Least sum |f(u) - f(v)| over every 0/1 assignment of the free cells."""
    n = problem.n_cells
    free = np.setdiff1d(np.arange(n), np.concatenate([problem.inner, problem.outer]))
    bits = (np.arange(2 ** len(free))[:, None] >> np.arange(len(free))) & 1
    f = np.zeros((len(bits), n))
    f[:, problem.inner] = 1.0
    f[:, free] = bits
    eu, ev = problem.edges[:, 0], problem.edges[:, 1]
    return float(np.abs(f[:, eu] - f[:, ev]).sum(axis=1).min())


def test_p1_min_cut_matches_brute_force():
    rng = np.random.default_rng(7)
    for trial in range(60):
        prob = random_problem(rng, int(rng.integers(0, 15)))
        val = p_energy(prob, 1.0)
        assert val.value == brute_min_cut(prob), trial
        assert val.flag == "ok" and val.residual == 0.0
        f = val.potential
        assert set(np.unique(f)) <= {0.0, 1.0}
        assert np.all(f[prob.inner] == 1.0) and np.all(f[prob.outer] == 0.0)
        eu, ev = prob.edges[:, 0], prob.edges[:, 1]
        assert np.abs(f[eu] - f[ev]).sum() == val.value


# the bracket is evaluated in floating point: its ends hold up to their own
# rounding, a few ulps amplified by p
ROUNDING = 1e-14


@pytest.mark.parametrize("p", [1.1, 1.3, 1.5, 1.8, 2.5, 3.0])
def test_path_matches_brute_force(p):
    # one free cell: the grid holds the minimizer t = 1/2, so the grid
    # minimum is the least energy to rounding, and the bracket contains it
    ts = np.linspace(0.0, 1.0, 200001)
    brute = float(np.min((1 - ts) ** p + ts ** p))
    val = p_energy(path_problem(), p)
    assert val.value == pytest.approx(brute, rel=1e-7)
    assert val.flag == "ok" and val.upper == val.value
    assert val.lower <= brute * (1 + ROUNDING) and brute <= val.upper * (1 + ROUNDING)


def test_single_edge_all_p():
    prob = SeparationProblem(edges=np.array([[0, 1]]), n_cells=2,
                             inner=np.array([0]), outer=np.array([1]))
    for p in (1.0, 1.3, 2.0, 4.0):
        assert p_energy(prob, p).value == pytest.approx(1.0, abs=1e-12)


def test_p_below_one_rejected():
    with pytest.raises(ValueError):
        p_energy(path_problem(), 0.9)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_non_finite_p_rejected(monkeypatch, p):
    def no_solve(*args, **kwargs):
        raise AssertionError("factorized before the arguments were checked")

    monkeypatch.setattr(spla, "splu", no_solve)
    with pytest.raises(ValueError, match="p must be finite and >= 1"):
        p_energy(path_problem(), p)


@pytest.mark.parametrize("base_index, k", [
    (0, -1), (0, 3), (-1, 1), (8, 1), (99, 1),
], ids=["k=-1", "level>depth", "index=-1", "index=count", "index=99"])
def test_build_separation_bad_arguments(base_index, k):
    h = build_hierarchy(Schedule.pure_sc(), 3)
    with pytest.raises(ValueError):
        build_separation(h, base_index, k)


def test_build_separation_edge_arguments():
    h = build_hierarchy(Schedule.pure_sc(), 3)
    assert build_separation(h, 0, 0).inner.tolist() == [0]
    prob = build_separation(h, 7, 2)
    assert (prob.n_cells, prob.inner.tolist()) == (8 ** 3, list(range(7 * 64, 8 * 64)))


def shortest_path_separation(h, base_index, k, m_star):
    """(inner, outer) as build_separation found them from csgraph.shortest_path
    chain distances over the whole of level 1."""
    n = 1 + k
    anc = np.arange(h.levels[n].count)
    for m in range(n, 1, -1):
        anc = h.levels[m].parent[anc]
    dist = csgraph.shortest_path(adjacency(h, 1).csr, unweighted=True,
                                 indices=base_index)
    far = np.full(len(dist), np.iinfo(np.int64).max, dtype=np.int64)
    far[np.isfinite(dist)] = dist[np.isfinite(dist)]
    return np.where(anc == base_index)[0], np.where(far[anc] > m_star)[0]


@pytest.mark.parametrize("schedule", [Schedule.pure_sc(), Schedule.pure_vicsek(),
                                      Schedule.mixed()], ids=["sc", "vicsek", "mixed"])
def test_build_separation_matches_shortest_path(monkeypatch, schedule):
    h = build_hierarchy(schedule, 4)
    for base_index in range(h.levels[1].count):
        for k in (0, 1, 2, 3):
            for m_star in (1, 2):
                monkeypatch.setattr(hierarchy, "M_STAR", m_star)
                prob = build_separation(h, base_index, k)
                inner, outer = shortest_path_separation(h, base_index, k, m_star)
                assert prob.inner.tolist() == inner.tolist()
                assert prob.outer.tolist() == outer.tolist()


def test_empty_outer_flagged(vs_h6):
    # the center cell of the plus-sign level-1 graph is adjacent to all
    prob = build_separation(vs_h6, 0, 1)
    assert prob.empty_outer
    val = p_energy(prob, 2.0)
    assert val.value == 0.0 and val.flag == "empty-outer"


@pytest.mark.parametrize("edges", [[[0, 1], [1, 2]], [[0, 1]]], ids=["path", "free-cell-off-inner"])
def test_hand_built_empty_outer_flagged(edges):
    # `empty_outer` is read off `outer`, so a problem built by hand with no
    # outer cell is flagged too, whether or not every free cell touches the
    # inner set (cell 2 of the second problem has no edge)
    prob = SeparationProblem(edges=np.array(edges), n_cells=3, inner=np.array([0]),
                             outer=np.array([], dtype=int))
    assert prob.empty_outer
    for p in (1.0, 1.5, 2.0):
        val = p_energy(prob, p)
        assert (val.value, val.flag) == (0.0, "empty-outer"), p


def test_monotone_in_p(sc_h6):
    prob = build_separation(sc_h6, 0, 2)
    if prob.empty_outer:
        prob = build_separation(sc_h6, 1, 2)
    vals = [p_energy(prob, p).value for p in (1.0, 1.3, 1.7, 2.0, 2.5, 3.0)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-8


def test_markov_truncation(sc_h6):
    prob = build_separation(sc_h6, 1, 1)
    rng = np.random.default_rng(0)
    eu, ev = prob.edges[:, 0], prob.edges[:, 1]
    for p in (1.5, 2.0):
        for _ in range(5):
            f = rng.uniform(-0.5, 1.5, size=prob.n_cells)
            f[prob.inner] = 1.0
            f[prob.outer] = 0.0
            clipped = np.clip(f, 0.0, 1.0)
            e_raw = np.sum(np.abs(f[eu] - f[ev]) ** p)
            e_clip = np.sum(np.abs(clipped[eu] - clipped[ev]) ** p)
            assert e_clip <= e_raw + 1e-12


def test_p2_equals_effective_conductance(sc_h6):
    prob = build_separation(sc_h6, 1, 2)
    e2 = p_energy(prob, 2.0).value
    g = LevelGraph(prob.n_cells, [(int(u), int(v), 1.0) for u, v in prob.edges])
    cond = 1.0 / eff_resistance(g, list(prob.inner), list(prob.outer)).value
    assert e2 == pytest.approx(cond, rel=1e-9)


def test_symmetry_reduction_matches_exhaustive(sc_h6, vs_h6):
    for h, k in ((sc_h6, 2), (vs_h6, 2)):
        [(_, fast)] = SupSweep(h, [k]).sups(2.0)
        slow = max(p_energy(build_separation(h, w, k), 2.0).value
                   for w in range(h.levels[1].count))
        assert fast.value == pytest.approx(slow, rel=1e-9)


def test_symmetry_classes_level1(sc_h6, vs_h6):
    assert SupSweep(sc_h6, [1]).cells == [0, 1]   # a corner and an edge cell
    assert SupSweep(vs_h6, [1]).cells == [0, 1]   # the center and a corner cell


def _loop_symmetry_classes(h, level):
    """Symmetry classes from the least of the 8 images of each box, cell by cell."""
    lvl = h.levels[level]
    s = 3 ** level
    classes = {}
    for i in range(lvl.count):
        ix, iy = int(lvl.ix[i]), int(lvl.iy[i])
        best = None
        for a, b in ((ix, iy), (iy, ix)):
            for ra in (a, s - 1 - a):
                for rb in (b, s - 1 - b):
                    if best is None or (ra, rb) < best:
                        best = (ra, rb)
        classes.setdefault(best, []).append(i)
    return classes


def _class_firsts(h):
    """The first member of each level-1 class of the cell loop, class by class."""
    return [members[0] for members in _loop_symmetry_classes(h, 1).values()]


@pytest.mark.parametrize("schedule", [Schedule.pure_sc(), Schedule.pure_vicsek(), Schedule.mixed(),
                                      Schedule.from_table([0, 1, 1, 0])],
                         ids=["sc", "vicsek", "mixed", "table"])
def test_symmetry_classes_match_cell_loop(schedule):
    # the base cells are the first members of the loop's classes, in order
    h = build_hierarchy(schedule, 2)
    assert SupSweep(h, [1]).cells == _class_firsts(h)


def test_sup_energy_argmax_deterministic(sc_h6):
    [(a, _)] = SupSweep(sc_h6, [2]).sups(2.0)
    [(b, _)] = SupSweep(sc_h6, [2]).sups(2.0)
    assert a == b


def test_horizon_error(sc_h6):
    with pytest.raises(ValueError, match="horizon"):
        SupSweep(sc_h6, [sc_h6.depth])


def test_fit_rates_tail():
    ls, up, lo = fit_rates([1, 2, 3, 4], [0.0, -1.0, -2.5, -4.5])
    # tail = last two points for four entries
    assert ls == pytest.approx(-2.0)
    assert up == pytest.approx(-2.0)
    assert lo == pytest.approx(-2.0)


def test_vicsek_rate_is_log3(vs_sup2):
    ks = sorted(vs_sup2)
    logs = [math.log(vs_sup2[k]) for k in ks]
    ls, up, lo = fit_rates(ks, logs)
    assert ls == pytest.approx(-math.log(3.0), abs=0.08)


def test_p_spectral_dims_vicsek(vs_h6):
    est = SupSweep(vs_h6, range(1, 6)).spectral_dims()
    ref = 2 * math.log(5) / math.log(15)
    central = 2.0 / (1.0 - est.rate_ls / math.log(est.n_star))
    assert est.dim_ls == central
    assert central == pytest.approx(ref, abs=0.05)
    assert est.dim_lower <= est.dim_upper + 1e-12


def test_p_spectral_dims_single_tail(vs_h6):
    est = SupSweep(vs_h6, [1, 2]).spectral_dims()
    # two k values: tail slopes collapse to the single step
    assert est.rate_limsup == pytest.approx(est.rate_liminf)


def test_critical_p_vicsek(vs_h6):
    out = critical_p(vs_h6, 4, tol=0.05)
    lo, hi = out["interval"]
    assert lo >= 1.0
    assert hi <= 1.3


def test_critical_p_kmax_error(vs_h6):
    with pytest.raises(ValueError):
        critical_p(vs_h6, 2)


@pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -0.05}, {"tol": math.nan}])
def test_critical_p_bad_arguments(vs_h6, kwargs):
    # rejected before any energy is computed, so tol = 0 cannot loop
    with pytest.raises(ValueError):
        critical_p(vs_h6, 4, **kwargs)


def test_p2_flag_follows_residual(monkeypatch):
    prob = build_separation(build_hierarchy(Schedule.pure_sc(), 3), 0, 2)
    assert p_energy(prob, 2.0).flag == "ok"
    monkeypatch.setattr(penergy, "CERT_TOL", 1e-30)
    val = p_energy(prob, 2.0)
    assert val.residual > 0 and val.flag == "no-convergence"


# -- oracle: p-energy with COO-assembled IRLS systems -------------------------

def coo_energy_and_grad(f, eu, ev, p):
    d = f[eu] - f[ev]
    a = np.abs(d)
    e = float(np.sum(a ** p))
    if p >= 2:
        gd = p * a ** (p - 1) * np.sign(d)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            gd = np.where(a > 0, p * a ** (p - 1) * np.sign(d), 0.0)
    g = np.zeros_like(f)
    np.add.at(g, eu, gd)
    np.add.at(g, ev, -gd)
    return e, g


def coo_p_energy(problem, p, tol=1e-7):
    """Reference p_energy: IRLS systems assembled as COO Laplacians of the
    free block with np.add.at scatters; returns (energy, flag)."""
    n = problem.n_cells
    eu, ev = problem.edges[:, 0], problem.edges[:, 1]
    f = np.zeros(n)
    f[problem.inner] = 1.0
    fixed = np.zeros(n, dtype=bool)
    fixed[problem.inner] = True
    fixed[problem.outer] = True
    free = np.where(~fixed)[0]
    free_pos = np.full(n, -1, dtype=np.int64)
    free_pos[free] = np.arange(len(free))

    def weighted_solve(w):
        mask_ff = (free_pos[eu] >= 0) & (free_pos[ev] >= 0)
        mask_fb = (free_pos[eu] >= 0) ^ (free_pos[ev] >= 0)
        rows, cols, vals = free_pos[eu[mask_ff]], free_pos[ev[mask_ff]], w[mask_ff]
        nf = len(free)
        off = sp.csr_matrix((np.concatenate([-vals, -vals]),
                             (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
                            shape=(nf, nf))
        deg = np.zeros(nf)
        np.add.at(deg, rows, vals)
        np.add.at(deg, cols, vals)
        b = np.zeros(nf)
        u_b, v_b, w_b = eu[mask_fb], ev[mask_fb], w[mask_fb]
        fu, fv = free_pos[u_b], free_pos[v_b]
        np.add.at(deg, fu[fu >= 0], w_b[fu >= 0])
        np.add.at(deg, fv[fv >= 0], w_b[fv >= 0])
        np.add.at(b, fu[fu >= 0], w_b[fu >= 0] * f[v_b[fu >= 0]])
        np.add.at(b, fv[fv >= 0], w_b[fv >= 0] * f[u_b[fv >= 0]])
        lap = sp.diags(deg) + off
        f[free] = np.clip(spla.splu(lap.tocsc()).solve(b), 0.0, 1.0)

    weighted_solve(np.ones(len(eu)))
    if p != 2:
        for eps in (1e-2, 1e-4, 1e-6, 1e-9, 1e-12):
            for _ in range(12):
                d = f[eu] - f[ev]
                w = np.clip((d * d + eps * eps) ** ((p - 2.0) / 2.0), 1e-14, 1e14)
                prev = f[free].copy()
                weighted_solve(w)
                if np.max(np.abs(f[free] - prev)) < 1e-12:
                    break

        def objective(x):
            f[free] = x
            e, g = coo_energy_and_grad(f, eu, ev, p)
            return e, g[free]

        out = scipy.optimize.minimize(
            objective, f[free], jac=True, method="L-BFGS-B",
            bounds=[(0.0, 1.0)] * len(free),
            options={"maxiter": 200, "ftol": 1e-16, "gtol": 1e-12})
        f[free] = np.clip(out.x, 0.0, 1.0)
    e, g = coo_energy_and_grad(f, eu, ev, p)
    gf = g[free]
    act = ((f[free] <= 0.0) & (gf > 0)) | ((f[free] >= 1.0) & (gf < 0))
    res = float(np.abs(np.where(act, 0.0, gf)).sum())
    return e, "no-convergence" if res > tol * max(e, 1e-30) else "ok"


SCHEDULES = pytest.mark.parametrize(
    "schedule", [Schedule.pure_sc(), Schedule.pure_vicsek(), Schedule.mixed()],
    ids=["sc", "vicsek", "mixed"])


def separation_problems(schedule):
    """(base cell, k, problem) for every level-1 class representative at
    k = 1, 2, 3 on depth 4, outer nonempty."""
    h = build_hierarchy(schedule, 4)
    for cell in _class_firsts(h):
        for k in (1, 2, 3):
            prob = build_separation(h, cell, k)
            if not prob.empty_outer:
                yield cell, k, prob


@SCHEDULES
def test_p_energy_matches_coo_assembly(schedule):
    # the Newton solve against the IRLS + L-BFGS-B oracle: equal energies
    # where both are certified, and no certificate lost
    compared = 0
    for cell, k, prob in separation_problems(schedule):
        for p in (1.3, 1.5, 1.75, 2.0, 2.125, 2.5):
            want, want_flag = coo_p_energy(prob, p)
            got = p_energy(prob, p)
            f = got.potential
            assert np.all(f[prob.inner] == 1.0) and np.all(f[prob.outer] == 0.0)
            assert f.min() >= 0.0 and f.max() <= 1.0
            assert not (want_flag == "ok" and got.flag == "no-convergence"), (cell, k, p)
            if want_flag == "ok" and got.flag == "ok":
                assert abs(got.value - want) <= 1e-9 * want
                compared += 1
    assert compared >= 13


@SCHEDULES
def test_p1_min_cut_matches_oracle(schedule):
    for *_, prob in separation_problems(schedule):
        want, _ = coo_p_energy(prob, 1.0)
        got = p_energy(prob, 1.0)
        assert got.flag == "ok" and got.value == round(got.value)
        assert abs(got.value - want) <= 1e-8 * want


def test_energy_resistance_product_band(sc_sup2, vs_sup2, sc_cache, vs_cache):
    # separation conductances against the corner-graph resistance growth
    for sups, cache in ((sc_sup2, sc_cache), (vs_sup2, vs_cache)):
        prods = [sups[k] * cache.pt(k) for k in range(1, 5)]
        assert max(prods) / min(prods) <= 20.0


def test_annulus_resistance_scale_band(sc_h6, sc_cache):
    """Renormalized annulus resistances R(K_w, A_w) stay comparable to the
    per-level resistance scale."""
    band = []
    for base in (1, 2):
        n = base + 2
        cg = sc_cache.graph(n)
        h = sc_h6
        w = h.levels[base].count // 2
        near = chain_ball(adjacency(h, base), [w])
        f = 3 ** (n - base)
        wx, wy = int(h.levels[base].ix[w]), int(h.levels[base].iy[w])
        inner, outer = [], []
        for v in range(cg.graph.n):
            gx, gy = cg.grid[v]
            if wx * f <= gx <= (wx + 1) * f and wy * f <= gy <= (wy + 1) * f:
                inner.append(v)
        far_cells = np.setdiff1d(np.arange(h.levels[base].count), near)
        far_boxes = {(int(h.levels[base].ix[c]), int(h.levels[base].iy[c])) for c in far_cells}
        for v in range(cg.graph.n):
            gx, gy = cg.grid[v]
            if any(bx * f <= gx <= (bx + 1) * f and by * f <= gy <= (by + 1) * f
                   for bx, by in far_boxes):
                outer.append(v)
        inner = [v for v in inner if v not in set(outer)]
        r = eff_resistance(cg.graph, inner, outer).value
        band.append(r * sc_cache.pt(base) / sc_cache.pt(n))
    assert max(band) / min(band) <= 20.0
    assert all(b > 0 for b in band)


# -- oracle: Newton systems assembled and ordered at every step ---------------

def product_p_energy(problem, p, tol=1e-7):
    """Reference p_energy: the same minimum cut at p = 1 and Newton ladder
    otherwise, with each system assembled as D_F^T diag(w) D_F by sparse
    products and factored by splu with its default ordering."""
    if problem.empty_outer:
        return PEnergyValue(0.0, flag="empty-outer")
    if p == 1:
        return penergy._min_cut(problem)
    n, m = problem.n_cells, len(problem.edges)
    D = sp.csr_matrix((np.tile([1.0, -1.0], m),
                       (np.repeat(np.arange(m), 2), problem.edges.reshape(-1))),
                      shape=(m, n))
    f = np.zeros(n)
    f[problem.inner] = 1.0
    free = np.setdiff1d(np.arange(n), np.concatenate([problem.inner, problem.outer]))
    D_F = D[:, free]
    D_Ft = D_F.T.tocsr()
    drive = D @ f

    def weighted_solve(w, rhs):
        return spla.splu((D_Ft @ (sp.diags(w) @ D_F)).tocsc()).solve(rhs)

    def certificate():
        d = D @ f
        e = float(np.sum(np.abs(d) ** p))
        gf = D_Ft @ (p * np.abs(d) ** (p - 1) * np.sign(d))
        act = ((f[free] <= 0.0) & (gf > 0)) | ((f[free] >= 1.0) & (gf < 0))
        res = float(np.abs(np.where(act, 0.0, gf)).sum())
        return e, res, res <= tol * max(e, 1e-30)

    f[free] = np.clip(weighted_solve(np.ones(m), -(D_Ft @ drive)), 0.0, 1.0)
    for eps in (1e-2, 1e-4, 1e-6, 1e-9, 1e-12) if p != 2 and len(free) else ():
        last = eps == 1e-12
        for _ in range(30):
            if last and certificate()[2]:
                break
            x = f[free]
            d = D_F @ x + drive
            r = d * d + eps * eps
            e = float(np.sum(r ** (p / 2)))
            g = D_Ft @ (p * d * r ** (p / 2 - 1))
            w = p * r ** (p / 2 - 2) * ((p - 1) * d * d + eps * eps)
            s = weighted_solve(np.maximum(w, 1e-14 * w.max()), -g)
            dec = -float(g @ s)
            if not last and dec <= 1e-15 * e:
                break
            for t in 0.5 ** np.arange(34):
                xt = np.clip(x + t * s, 0.0, 1.0)
                if np.sum(((D_F @ xt + drive) ** 2 + eps * eps) ** (p / 2)) <= e - 1e-4 * t * dec:
                    f[free] = xt
                    break
            else:
                break
    e, res, ok = certificate()
    return PEnergyValue(e, f, res, "ok" if ok else "no-convergence")


P_GRID = (1.1, 1.3, 1.5, 1.7, 1.9, 2.0, 2.2, 2.5)


@pytest.mark.parametrize("schedule, depth", [(Schedule.pure_sc(), 4), (Schedule.pure_vicsek(), 5),
                                             (Schedule.mixed(), 4)], ids=["sc4", "vicsek5", "mixed4"])
def test_p_energy_matches_product_assembly(schedule, depth, splu_orderings):
    # every level-1 class and k, over the p grid: no value the oracle's
    # first-order gate certifies loses its certificate, every value the
    # bracket certifies equals the oracle's energy to 1e-12, and one ordering
    # (the p = 2 start's) per problem across all p
    h = build_hierarchy(schedule, depth)
    compared = 0
    for cell in _class_firsts(h):
        for k in range(1, depth):
            prob = build_separation(h, cell, k)
            orderings = []
            for p in P_GRID:
                want = product_p_energy(prob, p)
                del splu_orderings[:]
                got = p_energy(prob, p)
                orderings += [spec for spec in splu_orderings if spec != "NATURAL"]
                assert not (want.flag == "ok" and got.flag != "ok"), (cell, k, p)
                if got.flag == "ok":
                    assert abs(got.value - want.value) <= 1e-12 * want.value, (cell, k, p)
                    compared += 1
            if not prob.empty_outer:
                assert orderings == [None]
    assert compared >= 30


def test_critical_p_factorizations_match_product_assembly(monkeypatch, splu_orderings):
    # the bisection of the bench penergy workload against cold solves by the
    # product assembly: the same rates, in at most half the factorizations
    h = build_hierarchy(Schedule.pure_sc(), 4)
    got = critical_p(h, 3)
    n_got = len(splu_orderings)
    del splu_orderings[:]
    monkeypatch.setattr(penergy, "p_energy",
                        lambda problem, p, start=None: product_p_energy(problem, p))
    want = critical_p(h, 3)
    assert 2 * n_got <= len(splu_orderings)
    assert got["interval"] == want["interval"] and got["flag"] == want["flag"]
    for a, b in zip(got["rates"], want["rates"]):
        assert a["uncertified"] == b["uncertified"]
        assert a["sup_energies"] == pytest.approx(b["sup_energies"], rel=1e-12)


# -- warm starts ----------------------------------------------------------------

# the p sequences critical_p(h, 3) visits on SC depth 4, and on Vicsek depth 5
# and mixed depth 4
BISECTION = {"sc": (1.0, 2.5, 1.75, 2.125, 1.9375, 1.84375, 1.890625),
             "vicsek": (1.0, 2.5, 1.75, 1.375, 1.1875, 1.09375, 1.046875),
             "mixed": (1.0, 2.5, 1.75, 1.375, 1.1875, 1.09375, 1.046875)}


def test_warm_start_matches_cold(monkeypatch, splu_orderings):
    # a SupSweep's warm starts against cold solves, for every level-1 class
    # and k over the bisection order and the p grid: no certificate lost,
    # certified energies to 1e-12, and the retry runs
    ladders, calls = [], []
    descend = penergy._descend

    def counted(system, p, f, rungs):
        ladders.append(len(rungs))
        return descend(system, p, f, rungs)

    def recorded(problem, p, start=None):
        # the ladders and factorizations of each of the sweep's solves
        del ladders[:], splu_orderings[:]
        val = p_energy(problem, p, start)
        calls.append((list(ladders), len(splu_orderings)))
        return val

    monkeypatch.setattr(penergy, "_descend", counted)
    monkeypatch.setattr(penergy, "p_energy", recorded)
    retries, factorizations = {}, {}
    for name, schedule, depth in (("sc", Schedule.pure_sc(), 4),
                                  ("vicsek", Schedule.pure_vicsek(), 5),
                                  ("mixed", Schedule.mixed(), 4)):
        h = build_hierarchy(schedule, depth)
        warm, cold = (penergy.SupSweep(h, range(1, depth)) for _ in range(2))
        retries[name], warm_count, cold_count = 0, 0, 0
        for p in dict.fromkeys(BISECTION[name] + P_GRID):
            del calls[:]
            got = warm.values(p)
            assert len(calls) == len(warm.ks) * len(warm.cells)
            retries[name] += sum(lad == [1, len(penergy.EPS_LADDER)] for lad, _ in calls)
            warm_count += sum(n for _, n in calls)
            for j, row in enumerate(cold.problems):
                for i, prob in enumerate(row):
                    del splu_orderings[:]
                    want = p_energy(prob, p)
                    cold_count += len(splu_orderings)
                    where = (name, warm.cells[i], warm.ks[j], p)
                    assert not (want.flag == "ok" and got[j][i].flag != "ok"), where
                    if got[j][i].flag == want.flag == "ok":
                        assert abs(got[j][i].value - want.value) <= 1e-12 * want.value, where
        factorizations[name] = (warm_count, cold_count)
    assert retries["sc"] >= 1
    warm_count, cold_count = factorizations["vicsek"]
    assert warm_count < cold_count


@SCHEDULES
def test_sweep_matches_cold_solves(schedule, monkeypatch):
    # at its first p a sweep solves cold, so each value is p_energy's on a
    # freshly built problem bit for bit; the sups are the first maxima, and
    # asking again solves nothing
    calls = []

    def recorded(*args, **kwargs):
        calls.append(args)
        return p_energy(*args, **kwargs)

    monkeypatch.setattr(penergy, "p_energy", recorded)
    h = build_hierarchy(schedule, 4)
    for p in (1.0, 1.3, 2.0):
        sweep = penergy.SupSweep(h, range(1, 4))
        got = sweep.values(p)
        for j, k in enumerate(sweep.ks):
            for i, cell in enumerate(sweep.cells):
                want = p_energy(build_separation(h, cell, k), p)
                where = (cell, k, p)
                assert (got[j][i].value, got[j][i].residual, got[j][i].flag) == (
                    want.value, want.residual, want.flag), where
                assert (got[j][i].potential is None) == (want.potential is None), where
                if want.potential is not None:
                    assert np.array_equal(got[j][i].potential, want.potential), where
            first = [v.value for v in got[j]].index(max(v.value for v in got[j]))
            cell, val = sweep.sups(p)[j]
            assert cell == sweep.cells[first] and val is got[j][first]
        del calls[:]
        assert sweep.values(p) is got and calls == []


def test_sweep_starts_from_nearest_certified_p(monkeypatch):
    # each p > 1 starts from the problem's certified potential at the nearest
    # p > 1 already solved, the lower p on an exact tie; p = 1 and uncertified
    # values seed nothing.  Each p lists the solved p > 1 by preference.  The
    # p = 1.25 value of one problem is flagged uncertified here, since every
    # cold solve of this sweep certifies.
    starts = []

    def recorded(problem, p, start=None):
        starts.append(start)
        val = p_energy(problem, p, start)
        if p == 1.25 and problem is sweep.problems[1][0]:
            val = dataclasses.replace(val, flag="no-convergence")
        return val

    monkeypatch.setattr(penergy, "p_energy", recorded)
    sweep = penergy.SupSweep(build_hierarchy(Schedule.pure_sc(), 3), [1, 2])
    where = [(j, i) for j in range(2) for i in range(len(sweep.cells))]
    for p, prefs in ((1.0, ()), (1.25, ()), (1.5, (1.25,)), (1.375, (1.25, 1.5)),
                     (2.5, (1.5, 1.375, 1.25))):
        del starts[:]
        sweep.values(p)
        assert len(starts) == len(where)
        for start, (j, i) in zip(starts, where):
            seeds = [sweep.values(q)[j][i] for q in prefs if sweep.values(q)[j][i].flag == "ok"]
            assert start is (seeds[0].potential if seeds else None), (p, j, i)
    # the uncertified p = 1.25 value is skipped: at p = 1.375 its problem starts from p = 1.5
    assert [v.flag for row in sweep.values(1.25) for v in row].count("no-convergence") == 1


@pytest.mark.parametrize("kwargs, message", [
    ({"ks": []}, "no k values"),
    ({"ks": [1, 3]}, "horizon exceeds built depth"),
], ids=["no-k", "horizon"])
def test_sweep_bad_arguments(kwargs, message):
    with pytest.raises(ValueError, match=message):
        penergy.SupSweep(build_hierarchy(Schedule.pure_sc(), 3), **kwargs)


def test_newton_cache_carries_no_state():
    # the solver data kept on a problem changes no value: a repeated call, a
    # call after a warm start at another p, and a fresh problem agree bit for bit
    h = build_hierarchy(Schedule.pure_sc(), 4)
    prob = build_separation(h, 0, 2)
    for p in (2.0, 1.5, 2.5):
        first = p_energy(prob, p)
        p_energy(prob, 1.7, start=first.potential)
        for again in (p_energy(prob, p), p_energy(build_separation(h, 0, 2), p)):
            assert again.value == first.value and again.residual == first.residual
            assert again.flag == first.flag
            assert np.array_equal(again.potential, first.potential)


@pytest.mark.parametrize("start, message", [
    (np.array([1.0, 0.5]), "one value per cell"),
    (np.array([1.0, np.nan, 0.0]), "finite"),
    (np.array([1.0, 0.5, np.inf]), "finite"),
], ids=["length", "nan", "inf"])
def test_bad_start_rejected(monkeypatch, start, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("factorized before the arguments were checked")

    monkeypatch.setattr(spla, "splu", no_solve)
    with pytest.raises(ValueError, match=message):
        p_energy(path_problem(), 1.5, start=start)


# -- the stabilizer quotient ----------------------------------------------------

QUOTIENT_CASES = pytest.mark.parametrize(
    "schedule, depth",
    [(Schedule.pure_sc(), 4), (Schedule.pure_vicsek(), 5), (Schedule.mixed(), 4)],
    ids=["sc4", "vicsek5", "mixed4"])


def level1_problems(schedule, depth):
    """(base cell, k, problem) for every level-1 class representative at
    k = 1..depth-1."""
    h = build_hierarchy(schedule, depth)
    for cell in _class_firsts(h):
        for k in range(1, depth):
            yield cell, k, build_separation(h, cell, k)


@QUOTIENT_CASES
def test_quotient_matches_unreduced(schedule, depth):
    # solves on the stabilizer quotient against the same problem with the
    # identity orbit map: the same flags, certified energies to 1e-12, and
    # p = 1 cuts equal exactly (the smallest minimum cut is invariant)
    compared = 0
    for cell, k, prob in level1_problems(schedule, depth):
        full = dataclasses.replace(prob, orbit=np.arange(prob.n_cells))
        for p in (1.0, 1.3, 1.8, 2.0):
            got, want = p_energy(prob, p), p_energy(full, p)
            where = (cell, k, p)
            assert got.flag == want.flag, where
            if p == 1:
                assert got.value == want.value and got.residual == want.residual == 0.0, where
                assert np.array_equal(got.potential, want.potential), where
            elif got.flag == "ok":
                assert abs(got.value - want.value) <= 1e-12 * want.value, where
                compared += 1
    assert compared >= 10


@QUOTIENT_CASES
def test_quotient_halves_newton_systems(schedule, depth, splu_orderings):
    # every level-1 cell is fixed by a reflection of the square, so no system
    # of its problems has more than ceil(n_free / 2) + 3^level unknowns (cells
    # on the mirror line are their own orbits); full-size systems fail here
    biting = 0
    for cell, k, prob in level1_problems(schedule, depth):
        assert len(np.unique(prob.orbit)) < prob.n_cells
        if prob.empty_outer:
            continue
        n_free = prob.n_cells - len(prob.inner) - len(prob.outer)
        bound = math.ceil(n_free / 2) + 3 ** (1 + k)
        del splu_orderings.shapes[:]
        for p in (2.0, 1.5):
            p_energy(prob, p)
        assert splu_orderings.shapes
        where = (cell, k)
        assert all(max(shape) <= bound for shape in splu_orderings.shapes), where
        biting += bound < n_free
    assert biting >= 1


# -- live edges -------------------------------------------------------------------

def live_edges(prob):
    """The edges with a free end or with ends pinned to different values, in
    edge order, edge by edge."""
    pin = {int(c): 1 for c in prob.inner} | {int(c): 0 for c in prob.outer}
    return [(int(u), int(v)) for u, v in prob.edges
            if int(u) not in pin or int(v) not in pin or pin[int(u)] != pin[int(v)]]


def incidence_edges(D):
    """(first, second) cell of each row of a signed incidence matrix, row by row."""
    D = D.tocsr()
    out = []
    for r in range(D.shape[0]):
        row = dict(zip(D.data[D.indptr[r]:D.indptr[r + 1]], D.indices[D.indptr[r]:D.indptr[r + 1]]))
        out.append((int(row[1.0]), int(row[-1.0])))
    return out


@QUOTIENT_CASES
def test_solvers_read_live_edges_only(schedule, depth, monkeypatch):
    # the Newton system's cell edges are exactly the live edges, in edge
    # order, and the min cut's flow graph holds the live quotient edges only:
    # unit capacities summing to twice their number, m + 1 on the hubs
    caps = []
    maximum_flow = csgraph.maximum_flow

    def recorded(cap, s, t):
        caps.append(cap)
        return maximum_flow(cap, s, t)

    monkeypatch.setattr(csgraph, "maximum_flow", recorded)
    counts = {}
    for cell, k, prob in level1_problems(schedule, depth):
        if prob.empty_outer:
            continue
        where = (cell, k)
        live = live_edges(prob)
        system = prob._newton
        assert incidence_edges(system.cells_D) == live, where
        assert len(system.kept) == system.D_F.shape[0] <= len(live), where
        del caps[:]
        p_energy(prob, 1.0)
        [cap] = caps
        m = len(system.kept)  # the live edges that join two orbits
        assert cap.data.max() == m + 1, where
        assert cap.data[cap.data <= m].sum() == 2 * m, where
        counts[cell, k] = (len(live), len(prob.edges))
    if schedule.name == "sc":
        assert counts[0, 3] == (3223, 12252) and counts[1, 3] == (6286, 12252)
    assert all(n_live < n for n_live, n in counts.values())


def padded(prob, rng):
    """`prob` with dead edges (inner-inner and outer-outer pairs, repeats
    allowed) inserted at random positions, the problem's own edges kept in
    order."""
    pads = [rng.choice(side, size=(len(prob.edges) // 4, 2)) for side in (prob.inner, prob.outer)
            if len(side) > 1]
    pads = np.concatenate(pads)
    pads = pads[pads[:, 0] != pads[:, 1]]
    m = len(prob.edges) + len(pads)
    at = np.zeros(m, dtype=bool)
    at[rng.choice(m, len(pads), replace=False)] = True
    edges = np.empty((m, 2), dtype=prob.edges.dtype)
    edges[at], edges[~at] = pads, prob.edges
    return dataclasses.replace(prob, edges=edges)


@QUOTIENT_CASES
def test_dead_edges_change_nothing(schedule, depth):
    # a problem padded with dead edges against the problem itself: the same
    # flags, p = 1 cuts and flow values bit for bit, p = 2 potentials bit for
    # bit, and certified energies within 1e-12
    rng = np.random.default_rng(5)
    compared = 0
    for cell, k, prob in level1_problems(schedule, depth):
        if prob.empty_outer:
            continue
        pad = padded(prob, rng)
        assert len(pad.edges) > len(prob.edges)
        for p in (1.0, 1.3, 2.0, 2.5):
            got, want = p_energy(pad, p), p_energy(prob, p)
            where = (cell, k, p)
            assert got.flag == want.flag, where
            if p == 1:
                assert (got.value, got.lower) == (want.value, want.lower), where
                assert np.array_equal(got.potential, want.potential), where
            if p == 2:
                assert np.array_equal(got.potential, want.potential), where
            if got.flag == "ok":
                assert abs(got.value - want.value) <= 1e-12 * want.value, where
                compared += 1
    assert compared >= 16


# -- one reduction and one Newton pattern per problem -----------------------------

def natural_order_start(prob):
    """The p = 2 start as built before H(1) was a sparse product: the live
    quotient, H(1) = S @ 1 on the scatter pattern in natural order, its
    factorization and the p = 2 potential, and `pattern(label)`, the scatter
    pattern with free orbit i relabelled label[i]: (S, H's CSC indices, its
    indptr), S @ w being H(w)'s data."""
    pin = np.zeros(prob.n_cells, dtype=np.int8)
    pin[prob.inner], pin[prob.outer] = 1, 2
    a, b = pin[prob.edges.T]
    _, first, lift = np.unique(prob.orbit, return_index=True, return_inverse=True)
    edges = lift[prob.edges[(a != b) | (a == 0)]]
    edges = edges[edges[:, 0] != edges[:, 1]]
    n, m = len(first), len(edges)
    inner = np.unique(lift[prob.inner])
    free = np.setdiff1d(np.arange(n), np.concatenate([inner, np.unique(lift[prob.outer])]))
    nf = len(free)
    pos = np.full(n, -1)
    pos[free] = np.arange(nf)
    ends = pos[edges.reshape(-1)]
    a, b = ends[0::2], ends[1::2]
    diag = np.flatnonzero(ends >= 0)
    both = np.flatnonzero((a >= 0) & (b >= 0))
    rows = np.concatenate([ends[diag], a[both], b[both]])
    cols = np.concatenate([ends[diag], b[both], a[both]])
    eids = np.concatenate([diag // 2, both, both])
    sign = np.repeat([1.0, -1.0], [len(diag), 2 * len(both)])

    def pattern(label):
        key, slot = np.unique(label[cols] * np.int64(nf) + label[rows], return_inverse=True)
        scatter = sp.csr_matrix((sign, (slot, eids)), shape=(len(key), m))
        return scatter, key % nf, np.searchsorted(key, np.arange(nf + 1) * nf)

    S, indices, indptr = pattern(np.arange(nf))
    H = sp.csc_matrix((S @ np.ones(m), indices, indptr), shape=(nf, nf))
    lu = spla.splu(H)
    D = sp.csr_matrix((np.tile([1.0, -1.0], m), (np.repeat(np.arange(m), 2), edges.reshape(-1))),
                      shape=(m, n))
    f = np.zeros(n)
    f[inner] = 1.0
    D_F = D[:, free]
    f[free] = np.clip(lu.solve(-(D_F.T.tocsr() @ (D @ f))), 0.0, 1.0)
    return H, lu, f, pattern


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got, want) and (
        got.dtype.kind != "f" or got.tobytes() == want.tobytes())


@QUOTIENT_CASES
def test_newton_system_matches_natural_order_pattern(schedule, depth, monkeypatch):
    # H(1) from the sparse product against S @ 1 on the natural-order scatter
    # pattern: the same CSC arrays bit for bit, so the same COLAMD ordering and
    # p = 2 potential; and the Newton pattern, built once in that ordering,
    # equals the natural-order builder's pattern relabelled by it
    factored = []
    splu = spla.splu

    def recorded(A, *args, **kwargs):
        factored.append(A)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recorded)
    checked = 0
    for cell, k, prob in level1_problems(schedule, depth):
        if prob.empty_outer:
            continue
        where = (cell, k)
        del factored[:]
        system = prob._newton
        [H] = factored
        want_H, lu, f2, pattern = natural_order_start(prob)
        for attr in ("indptr", "indices", "data"):
            assert same_bits(getattr(H, attr), getattr(want_H, attr)), (where, attr)
        assert same_bits(system.perm, lu.perm_c), where
        assert same_bits(system.f2, f2), where
        S, indices, indptr = system.newton_pattern
        want_S, want_indices, want_indptr = pattern(lu.perm_c)
        for got, want in ((S.indptr, want_S.indptr), (S.indices, want_S.indices),
                          (S.data, want_S.data), (indices, want_indices), (indptr, want_indptr)):
            assert same_bits(got, want), where
        checked += 1
    assert checked >= 4


def test_one_reduction_per_problem(monkeypatch):
    # solves at p = 1, 1.3 and 2 build the problem's reduction once, on the
    # min cut, and the Newton system reads that same lift
    reduced = SeparationProblem.__dict__["_reduced"].func
    calls = []

    def counted(problem):
        calls.append(problem)
        return reduced(problem)

    wrapped = functools.cached_property(counted)
    wrapped.__set_name__(SeparationProblem, "_reduced")
    monkeypatch.setattr(SeparationProblem, "_reduced", wrapped)
    prob = build_separation(build_hierarchy(Schedule.pure_sc(), 4), 1, 2)
    for p in (1.0, 1.3, 2.0):
        p_energy(prob, p)
        assert len(calls) == 1 and calls[0] is prob, p
    assert prob._newton.lift is prob._reduced[1]


@SCHEDULES
def test_lifted_potential_is_invariant(schedule):
    # the potential is lifted from the orbits, so every edge inside one orbit
    # has d == 0 bitwise; a rounding residue on such an edge once tripped the
    # p < 2 certificate of SC depth 4, base cell 0, k = 1, p = 1.5
    inside_edges = 0
    for *_, prob in separation_problems(schedule):
        eu, ev = prob.edges[:, 0], prob.edges[:, 1]
        inside = prob.orbit[eu] == prob.orbit[ev]
        inside_edges += int(inside.sum())
        for p in (1.0, 1.5, 2.0):
            f = p_energy(prob, p).potential
            assert np.array_equal(f, f[prob.orbit])  # an orbit's label is its least cell
            assert np.all(f[eu[inside]] - f[ev[inside]] == 0.0)
    # Vicsek has no edge between two cells of one orbit (mirror cells never touch)
    assert (inside_edges > 0) == (schedule.name != "vicsek")
    if schedule.name == "sc":
        assert p_energy(build_separation(build_hierarchy(schedule, 4), 0, 1), 1.5).flag == "ok"


def test_p_spectral_dims_counts_uncertified(monkeypatch):
    # a fit behind a no-convergence sup energy is flagged, unless its rate
    # already fails; the count is kept either way
    h = build_hierarchy(Schedule.pure_sc(), 4)
    for rate, flag in ((-1.0, "uncertified-energy"), (3.0, "rate-at-or-above-logN")):
        sweep = SupSweep(h, [1, 2, 3])
        k_of = {id(prob): k for k, row in zip(sweep.ks, sweep.problems) for prob in row}
        monkeypatch.setattr(penergy, "p_energy", lambda problem, p, start=None: (
            PEnergyValue(math.exp(rate * k_of[id(problem)]),
                         flag="no-convergence" if k_of[id(problem)] == 2 else "ok")))
        est = sweep.spectral_dims()
        assert est.n_star == 8.0 and est.uncertified == 1 and est.flag == flag


@pytest.mark.parametrize("rate, flag, ps", [
    (-1.0, "critical-below-range", [1.0]),
    (1.0, "critical-above-range", [1.0, 2.5]),
], ids=["below", "above"])
def test_critical_p_range_flags(monkeypatch, rate, flag, ps):
    # sup energies exp(rate * k) at every p: a rate already negative at
    # p = 1, or still positive at p = 2.5, puts the critical p outside P_RANGE,
    # reported at the end of the range that showed it
    h = build_hierarchy(Schedule.pure_sc(), 4)
    k_of = {h.levels[1 + k].count: k for k in (1, 2, 3)}  # a problem's level fixes its k
    monkeypatch.setattr(penergy, "p_energy", lambda problem, p, start=None: (
        PEnergyValue(math.exp(rate * k_of[problem.n_cells]))))
    out = critical_p(h, 3)
    assert (out["interval"], out["flag"]) == ((ps[-1], ps[-1]), flag)
    assert [row["p"] for row in out["rates"]] == ps


# -- the Hölder bracket -----------------------------------------------------------

BRACKET_P = (1.1, 1.3, 1.8, 2.5)


def energy(problem, f, p):
    return float(np.sum(np.abs(f[problem.edges[:, 0]] - f[problem.edges[:, 1]]) ** p))


def brute_min(problem, p, starts=4, seed=0):
    """The least energy found by bounded L-BFGS-B from the p = 2 potential and
    from seeded random starts: a feasible energy, so never below the minimum."""
    n = problem.n_cells
    free = np.setdiff1d(np.arange(n), np.concatenate([problem.inner, problem.outer]))
    f = np.zeros(n)
    f[problem.inner] = 1.0
    eu, ev = problem.edges[:, 0], problem.edges[:, 1]

    def objective(x):
        f[free] = x
        e, g = coo_energy_and_grad(f, eu, ev, p)
        return e, g[free]

    rng = np.random.default_rng(seed)
    best = math.inf
    for x0 in [p_energy(problem, 2.0).potential[free]] + [rng.random(len(free)) for _ in range(starts)]:
        out = scipy.optimize.minimize(objective, x0, jac=True, method="L-BFGS-B",
                                      bounds=[(0.0, 1.0)] * len(free),
                                      options={"maxiter": 2000, "ftol": 1e-16, "gtol": 1e-14})
        f[free] = np.clip(out.x, 0.0, 1.0)
        best = min(best, energy(problem, f, p))
    return best


def connected_problem(rng, n_free):
    """A `random_problem` whose graph is connected, so every Newton system is
    positive definite."""
    while True:
        prob = random_problem(rng, n_free)
        graph = sp.coo_matrix((np.ones(len(prob.edges)), tuple(prob.edges.T)),
                              shape=(prob.n_cells, prob.n_cells))
        if csgraph.connected_components(graph, directed=False)[0] == 1:
            return prob


@pytest.mark.parametrize("p", BRACKET_P)
def test_bracket_contains_brute_minimum(p):
    # seeded small problems: lower <= any feasible energy, upper is the energy
    # of the returned potential, and a closed bracket puts upper within
    # 1e-12 of the brute-force minimum
    rng = np.random.default_rng(11)
    closed = 0
    for trial in range(12):
        prob = connected_problem(rng, int(rng.integers(1, 6)))
        val = p_energy(prob, p)
        brute = brute_min(prob, p, seed=trial)
        assert val.lower <= brute * (1 + ROUNDING), trial
        assert val.upper == energy(prob, val.potential, p), trial
        if val.upper - val.lower <= penergy.BRACKET_CLOSED * val.upper:
            assert val.upper - brute <= penergy.BRACKET_CLOSED * val.upper, trial
            closed += 1
    assert closed >= 10


@pytest.mark.parametrize("p", BRACKET_P)
def test_leaky_flow_still_bounds(p):
    # at the minimizer, a flow pushed off conservation by a random potential
    # correction leaks into the free cells.  Hölder's ratio F / ||j||_q alone
    # then overshoots the least energy for some draws; subtracting the leak
    # keeps the bound below it for every draw
    rng = np.random.default_rng(3)
    overshoots = 0
    for trial in range(6):
        prob = connected_problem(rng, int(rng.integers(2, 6)))
        val = p_energy(prob, p)
        brute = min(brute_min(prob, p, seed=trial), val.upper)
        system = penergy._NewtonSystem(prob)  # every orbit one cell: quotient = cells
        w = rng.uniform(0.5, 2.0, system.D_F.shape[0])
        solve = system.factor(w)
        q = p / (p - 1)
        for _ in range(4):
            noise = 1e-3 * rng.standard_normal(system.nf)
            _, lower, _ = system.bracket(val.potential, p, (w, lambda rhs: solve(rhs) + noise))
            assert lower <= brute * (1 + ROUNDING), trial
            # the same leaky flow, without its leak
            d = system.cells_D @ val.potential
            j = np.sign(d) * np.abs(d) ** (p - 1)
            j -= w * (system.D_F @ (solve(system.D_Ft @ j) + noise))
            assert np.abs(system.cells_D_Ft @ j).sum() > 0
            ratio = (j @ system.cells_drive / np.sum(np.abs(j) ** q) ** (1 / q)) ** p
            overshoots += ratio > brute * (1 + ROUNDING)
    assert overshoots >= 1


@pytest.mark.parametrize("p", [1.002, 1.01])
def test_leaky_flow_bracket_near_p1(p):
    # near p = 1 the Hölder exponent q = p / (p - 1) is in the hundreds, so a
    # leaky flow with |j| about 10 overflows |j|^q unless the norm is scaled
    rng = np.random.default_rng(3)
    for trial in range(6):
        prob = connected_problem(rng, int(rng.integers(2, 6)))
        val = p_energy(prob, p)
        system = penergy._NewtonSystem(prob)
        w = rng.uniform(0.5, 2.0, system.D_F.shape[0])
        solve = system.factor(w)
        noise = 10.0 * rng.standard_normal(system.nf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            upper, lower, _ = system.bracket(val.potential, p, (w, lambda rhs: solve(rhs) + noise))
        assert 0.0 <= lower <= upper, trial


def test_bench_p13_energies_close_early(splu_orderings):
    # the three p = 1.3 energies of the bench penergy sweep (SC depth 4,
    # k = 1..3) that spun on the last eps rung: certified now, each in fewer
    # Newton factorizations than the 68, 66 and 70 it took under the
    # first-order gate
    h = build_hierarchy(Schedule.pure_sc(), 4)
    sweep = penergy.SupSweep(h, [1, 2, 3])
    sweep.values(2.0)
    spun = {(2, 1): 68, (3, 0): 66, (3, 1): 70}
    for j, k in enumerate(sweep.ks):
        for i, prob in enumerate(sweep.problems[j]):
            del splu_orderings[:]
            val = p_energy(prob, 1.3)
            assert val.flag == "ok", (k, i)
            assert val.upper - val.lower <= penergy.BRACKET_CLOSED * val.upper, (k, i)
            if (k, i) in spun:
                assert splu_orderings.count("NATURAL") < spun[k, i], (k, i)
