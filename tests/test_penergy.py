import math

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from resdimlab.hierarchy import Schedule, build_hierarchy
from resdimlab.penergy import (SeparationProblem, build_separation, critical_p,
                               fit_rates, p_energy, p_spectral_dims, sup_energy,
                               symmetry_classes)
from resdimlab.resnet import LevelGraph, eff_resistance


def path_problem():
    return SeparationProblem(base_level=0, base_index=0, k=0, level=0,
                             edges=np.array([[0, 1], [1, 2]]), n_cells=3,
                             inner=np.array([0]), outer=np.array([2]))


def test_path_p2():
    assert p_energy(path_problem(), 2.0).value == pytest.approx(0.5, abs=1e-12)


def test_path_p1():
    # any interior value gives total variation 1 across the two edges
    val = p_energy(path_problem(), 1.0)
    assert val.value == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
def test_path_matches_brute_force(p):
    ts = np.linspace(0.0, 1.0, 200001)
    brute = float(np.min((1 - ts) ** p + ts ** p))
    assert p_energy(path_problem(), p).value == pytest.approx(brute, rel=1e-7)


def test_single_edge_all_p():
    prob = SeparationProblem(base_level=0, base_index=0, k=0, level=0,
                             edges=np.array([[0, 1]]), n_cells=2,
                             inner=np.array([0]), outer=np.array([1]))
    for p in (1.0, 1.3, 2.0, 4.0):
        assert p_energy(prob, p).value == pytest.approx(1.0, abs=1e-12)


def test_p_below_one_rejected():
    with pytest.raises(ValueError):
        p_energy(path_problem(), 0.9)


def test_empty_outer_flagged(vs_h6):
    # the center cell of the plus-sign level-1 graph is adjacent to all
    prob = build_separation(vs_h6, 1, 0, 1)
    assert prob.empty_outer
    val = p_energy(prob, 2.0)
    assert val.value == 0.0 and val.flag == "empty-outer"


def test_monotone_in_p(sc_h6):
    prob = build_separation(sc_h6, 1, 0, 2)
    if prob.empty_outer:
        prob = build_separation(sc_h6, 1, 1, 2)
    vals = [p_energy(prob, p).value for p in (1.0, 1.3, 1.7, 2.0, 2.5, 3.0)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-8


def test_markov_truncation(sc_h6):
    prob = build_separation(sc_h6, 1, 1, 1)
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
    prob = build_separation(sc_h6, 1, 1, 2)
    e2 = p_energy(prob, 2.0).value
    g = LevelGraph(prob.n_cells, [(int(u), int(v), 1.0) for u, v in prob.edges])
    cond = 1.0 / eff_resistance(g, list(prob.inner), list(prob.outer)).value
    assert e2 == pytest.approx(cond, rel=1e-9)


def test_symmetry_reduction_matches_exhaustive(sc_h6, vs_h6):
    for h, k in ((sc_h6, 2), (vs_h6, 2)):
        fast = sup_energy(h, 1, k, 2.0, symmetry_reduce=True)
        slow = sup_energy(h, 1, k, 2.0, symmetry_reduce=False)
        assert fast["value"] == pytest.approx(slow["value"], rel=1e-9)


def test_symmetry_classes_level1(sc_h6, vs_h6):
    assert len(symmetry_classes(sc_h6, 1)) == 2   # corner and edge cells
    assert len(symmetry_classes(vs_h6, 1)) == 2   # corner and center cells


def test_sup_energy_argmax_deterministic(sc_h6):
    a = sup_energy(sc_h6, 1, 2, 2.0)
    b = sup_energy(sc_h6, 1, 2, 2.0)
    assert a["argmax_cell"] == b["argmax_cell"]


def test_horizon_error(sc_h6):
    with pytest.raises(ValueError, match="horizon"):
        sup_energy(sc_h6, 1, sc_h6.depth, 2.0)


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
    est = p_spectral_dims(vs_h6, 2.0, 5)
    ref = 2 * math.log(5) / math.log(15)
    central = 2.0 / (1.0 - est.rate_ls / math.log(est.n_star))
    assert central == pytest.approx(ref, abs=0.05)
    assert est.dim_lower <= est.dim_upper + 1e-12


def test_p_spectral_dims_single_tail(vs_h6):
    est = p_spectral_dims(vs_h6, 2.0, 2)
    # two k values: tail slopes collapse to the single step
    assert est.rate_limsup == pytest.approx(est.rate_liminf)


def test_critical_p_vicsek(vs_h6):
    out = critical_p(vs_h6, 4, p_range=(1.0, 2.5), tol=0.05)
    lo, hi = out["interval"]
    assert lo >= 1.0
    assert hi <= 1.3


def test_critical_p_kmax_error(vs_h6):
    with pytest.raises(ValueError):
        critical_p(vs_h6, 2)


@pytest.mark.parametrize("kwargs", [
    {"tol": 0.0}, {"tol": -0.05}, {"tol": math.nan},
    {"p_range": (2.5, 1.0)}, {"p_range": (2.0, 2.0)},
    {"p_range": (0.5, 2.5)}, {"p_range": (1.0, math.inf)},
])
def test_critical_p_bad_arguments(vs_h6, kwargs):
    # rejected before any energy is computed, so tol = 0 cannot loop
    with pytest.raises(ValueError):
        critical_p(vs_h6, 4, **kwargs)


def test_p2_flag_follows_residual():
    prob = build_separation(build_hierarchy(Schedule.pure_sc(), 3), 1, 0, 2)
    assert p_energy(prob, 2.0).flag == "ok"
    val = p_energy(prob, 2.0, tol=1e-30)
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


@pytest.mark.parametrize("schedule", [Schedule.pure_sc(), Schedule.pure_vicsek()],
                         ids=["sc", "vicsek"])
def test_p_energy_matches_coo_assembly(schedule):
    h = build_hierarchy(schedule, 4)
    compared = 0
    for members in symmetry_classes(h, 1).values():
        for k in (1, 2, 3):
            prob = build_separation(h, 1, members[0], k)
            if prob.empty_outer:
                continue
            for p in (1.5, 2.0, 2.5):
                want, want_flag = coo_p_energy(prob, p)
                got = p_energy(prob, p)
                if want_flag == "ok" and got.flag == "ok":
                    assert abs(got.value - want) <= 1e-9 * want
                    compared += 1
    assert compared >= 7


def test_energy_resistance_product_band(sc_sup2, vs_sup2, sc_cache, vs_cache):
    # separation conductances against the corner-graph resistance growth
    for sups, cache in ((sc_sup2, sc_cache), (vs_sup2, vs_cache)):
        prods = [sups[k] * cache.pt(k) for k in range(1, 5)]
        assert max(prods) / min(prods) <= 20.0


def test_annulus_resistance_scale_band(sc_h6, sc_cache):
    """Renormalized annulus resistances R(K_w, A_w) stay comparable to the
    per-level resistance scale."""
    from resdimlab.penergy import _level_distances
    band = []
    for base in (1, 2):
        n = base + 2
        cg = sc_cache.graph(n, 0)
        h = sc_h6
        dist = _level_distances(h, base, h.levels[base].count // 2)
        w = h.levels[base].count // 2
        f = 3 ** (n - base)
        wx, wy = int(h.levels[base].ix[w]), int(h.levels[base].iy[w])
        inner, outer = [], []
        for v in range(cg.graph.n):
            gx, gy = cg.grid[v]
            if wx * f <= gx <= (wx + 1) * f and wy * f <= gy <= (wy + 1) * f:
                inner.append(v)
        far_cells = np.where(dist > 1)[0]
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
