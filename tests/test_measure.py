import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from resdimlab import measure
from resdimlab.hierarchy import Schedule, adjacency, build_hierarchy
from resdimlab.measure import (HierMeasure, PsiMeasure, doubling_check,
                               fekete_limit, hier_measure, olds_volume,
                               psi_measure, _quotients, _sample_centers)

from conftest import exact_mass


def _walk_mass(m, n, i):
    """Reference: the product of the equal child shares along cell i's address."""
    out = Fraction(1)
    for level in range(n, 0, -1):
        out /= m.h.schedule.branching(level)
        i = int(m.h.levels[level].parent[i])
    assert i == 0
    return out


def _assert_views_match_walk(m, levels):
    """Every mass view of the uniform measure m equals the address walk: the
    integer table and `exact_mass` exactly, `_quotients` bitwise as
    float(Fraction)."""
    for n in levels:
        ref = [_walk_mass(m, n, i) for i in range(m.h.levels[n].count)]
        num, denom = m.exact_masses(n)
        assert num.dtype == np.int64 and len(num) == len(ref)
        assert [Fraction(int(v), denom) for v in num] == ref
        assert [exact_mass(m, n, i) for i in range(len(ref))] == ref
        assert _quotients(num, denom).tobytes() == np.array([float(q) for q in ref]).tobytes()


def test_uniform_masses_exact(sc_h6, vs_h6, mx_h5):
    assert exact_mass(hier_measure(sc_h6), 3, 17) == Fraction(1, 512)
    assert exact_mass(hier_measure(vs_h6), 3, 17) == Fraction(1, 125)
    m = hier_measure(mx_h5)
    # additive mixed measure: 8^-k1 5^-(n-k1)
    assert exact_mass(m, 5, 0) == Fraction(1, 8 * 5 * 5 * 5 * 8)
    assert exact_mass(m, 3, 0) == Fraction(1, 8 * 5 * 5)
    for h in (sc_h6, vs_h6, mx_h5):
        _assert_views_match_walk(hier_measure(h), range(5))


def test_additivity_exact(mx_h5, vs_h6):
    for m in (hier_measure(mx_h5), psi_measure(vs_h6, Fraction(1, 2), 1)):
        for n in (1, 2, 3):
            lvl = m.h.levels[n]
            by_parent = {}
            for i in range(lvl.count):
                by_parent.setdefault(int(lvl.parent[i]), []).append(i)
            for parent, kids in list(by_parent.items())[:5]:
                assert sum(exact_mass(m, n, i) for i in kids) == exact_mass(m, n - 1, parent)


def test_mass_denominator_must_fit_int64():
    # ball masses are int64 numerators over one common denominator: the
    # psi-measure's values over 5046 = 5 * 1009 + 1 fit at depth 5, those
    # over 50036 = 5 * 10007 + 1 do not
    h = build_hierarchy(Schedule.pure_vicsek(), 5)
    assert PsiMeasure(h, 1, Fraction(1, 1009), 5).ball_mass((0.0, 0.0), 10.0) == (1.0, 1.0)
    with pytest.raises(ValueError, match="int64"):
        PsiMeasure(h, 1, Fraction(1, 10007), 5)


def test_ball_mass_brackets(vs_h6, sc_h6):
    m = hier_measure(build_hierarchy(Schedule.pure_vicsek(), 3))
    assert m.ball_mass((0.0, 0.0), 2.0) == (1.0, 1.0)
    m = hier_measure(build_hierarchy(Schedule.pure_vicsek(), 4))
    lo, hi = m.ball_mass((-0.5, -0.5), 0.4)
    assert 0 < lo <= hi < 1
    # a ball containing Q holds mass exactly 1, however large, with no overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in (hier_measure(vs_h6), hier_measure(sc_h6), psi_measure(vs_h6, Fraction(1, 2), 1)):
            assert m.ball_mass((0.0, 0.0), 10.0) == (1.0, 1.0)
            assert m.ball_mass((1e160, 0.0), 2e160) == (1.0, 1.0)
            assert m.ball_mass((-1e300, 1e300), 1.5e300) == (1.0, 1.0)
            assert m.ball_mass((1e160, 0.0), 1e150) == (0.0, 0.0)


def _scan_cover_brackets(h, n, mass_of, x, radii):
    """The ball-mass brackets of B(x, r), r in radii, by a scan of every
    level-n cell: the cells that the float distance tests select, and their
    exact mass `mass_of(selected)` correctly rounded (the distances are
    computed once per centre)."""
    lvl = h.levels[n]
    side = 1.0 / 3 ** n
    xmin = lvl.ix * side - 0.5
    ymin = lvl.iy * side - 0.5
    dx = np.maximum(np.maximum(xmin - x[0], x[0] - (xmin + side)), 0.0)
    dy = np.maximum(np.maximum(ymin - x[1], x[1] - (ymin + side)), 0.0)
    dmin2 = dx * dx + dy * dy
    fx = np.maximum(np.abs(x[0] - xmin), np.abs(x[0] - (xmin + side)))
    fy = np.maximum(np.abs(x[1] - ymin), np.abs(x[1] - (ymin + side)))
    dmax2 = fx * fx + fy * fy
    out = []
    for r in radii:
        r2 = r * r
        out.append((float(mass_of(dmax2 < r2)), float(mass_of(dmin2 < r2))))
    return out


def _uniform_mass_of(m, n):
    """Exact mass of selected level-n cells of a measure with equal cell masses."""
    return lambda selected: int(selected.sum()) * exact_mass(m, n, 0)


def _exact_mass_of(m, n):
    """Exact mass of selected level-n cells, from each cell's Fraction mass."""
    masses = [exact_mass(m, n, i) for i in range(m.h.levels[n].count)]
    denom = math.lcm(*(q.denominator for q in masses))
    nums = np.array([int(q * denom) for q in masses], dtype=object)
    return lambda selected: Fraction(int(nums[selected].sum()), denom)


def _bracket_cases(h, n, seed):
    """Centres on grid lines, on corners, at random and outside Q; radii on
    exact multiples of 3^-m and of the cell side, at random and at least sqrt(2)."""
    rng = np.random.default_rng(seed)
    s = 3 ** n
    lvl = h.levels[n]
    centers = [(-0.5, -0.5), (0.5, 0.5), (0.0, 0.0), (0.7, -0.2), (-1.5, 2.0), (3.0, 3.0)]
    for i in rng.integers(0, lvl.count, size=3):
        cx, cy = rng.integers(0, 2, size=2)
        corner = ((int(lvl.ix[i]) + int(cx)) / s - 0.5, (int(lvl.iy[i]) + int(cy)) / s - 0.5)
        centers += [corner, (corner[0], float(rng.uniform(-0.5, 0.5))),
                    tuple(rng.uniform(-0.6, 0.6, size=2))]
    radii = [0.0, 1e-9, 1.5 * 3.0 ** (-n), math.sqrt(2.0), 10.0] + list(rng.uniform(0.0, 0.5, size=2))
    radii += [c * 3.0 ** (-m) for m in range(n + 2) for c in (1, 2)]
    # hypotenuses of integer triangles, so that a row's squared distance
    # lands within rounding of r^2
    radii += [k / s for k in (5, 13, 17)]
    return centers, radii


@pytest.mark.parametrize("schedule, depth, n_star", [
    (Schedule.pure_sc(), 6, 8), (Schedule.pure_vicsek(), 6, 5), (Schedule.mixed(), 6, 8)],
    ids=["sc", "vicsek", "mixed"])
def test_cover_bracket_matches_full_scan(schedule, depth, n_star):
    for n in range(3, depth + 1):
        h = build_hierarchy(schedule, n)  # ball masses at level n
        measures = [(hier_measure(h), _uniform_mass_of)]
        if n <= 4:  # per-cell Fractions are slow beyond
            # non-uniform: one coarse step of n levels, its interior cell heavier
            measures.append((PsiMeasure(h, n, Fraction(1, 2), n_star), _exact_mass_of))
        centers, radii = _bracket_cases(h, n, seed=n)
        for m, mass_of in measures:
            total = mass_of(m, n)
            for x in centers:
                expect = _scan_cover_brackets(h, n, total, x, radii)
                assert [m.ball_mass(x, r) for r in radii] == expect


@pytest.mark.parametrize("schedule, depth, k, n_star", [
    (Schedule.pure_vicsek(), 5, 1, 5), (Schedule.pure_sc(), 4, 2, 8)], ids=["vicsek-k1", "sc-k2"])
def test_psi_cover_bracket_matches_full_scan(schedule, depth, k, n_star):
    for n in range(0, depth + 1, k):
        # ball masses at coarse level n
        psi = PsiMeasure(build_hierarchy(schedule, n), k, Fraction(1, 2), n_star)
        centers, radii = _bracket_cases(psi.h, n, seed=n)
        total = _exact_mass_of(psi, n)
        for x in centers:
            expect = _scan_cover_brackets(psi.h, n, total, x, radii)
            assert [psi.ball_mass(x, r) for r in radii] == expect


def test_ball_mass_rejects_bad_balls(vs_h6):
    for m in (hier_measure(vs_h6), psi_measure(vs_h6, Fraction(1, 2), 1)):
        assert m.ball_mass((0.1, 0.2), 0.0) == (0.0, 0.0)
        for x, r in (((0.0, 0.0), -0.1), ((0.0, 0.0), math.nan), ((0.0, 0.0), math.inf),
                     ((math.nan, 0.0), 0.1), ((0.0, math.nan), 0.1), ((math.inf, 0.0), 0.1),
                     ((0.0, -math.inf), 0.1)):
            with pytest.raises(ValueError):
                m.ball_mass(x, r)


def test_doubling_sc():
    h = build_hierarchy(Schedule.pure_sc(), 4)
    out = doubling_check(hier_measure(h))
    assert out["doubling_constant"] <= 64.0
    assert out["gamma1"] is not None


def test_doubling_check_queries_each_ball_once(monkeypatch):
    """Each V(x, r) is queried once, with the results of re-querying them."""
    m = hier_measure(build_hierarchy(Schedule.pure_sc(), 5))
    centers = [(0.0, 0.0), (-0.5, -0.5), (0.1, 0.3), (0.7, 0.7)]
    monkeypatch.setattr(measure, "_sample_centers", lambda h, level, samples, seed: centers)
    levels = [1, 2, 3]  # the default r = 3^-j, 1 <= j < depth - 1
    calls = []

    def ball_mass(x, r):
        calls.append((tuple(x), r))
        return HierMeasure.ball_mass(m, x, r)

    m.ball_mass = ball_mass
    out = doubling_check(m)
    assert len(calls) == len(set(calls))

    # the reference queries V(x, 3^-j) again for every factor it tries
    V = functools.partial(HierMeasure.ball_mass, m)
    ratios = [V(x, 2 * 3.0 ** -j)[1] / V(x, 3.0 ** -j)[0]
              for x in centers for j in levels if V(x, 3.0 ** -j)[0] > 0]
    gamma1 = next((3.0 ** g for g in (1, 2, 3) if all(
        V(x, 3.0 ** -j / 3.0 ** g)[1] <= V(x, 3.0 ** -j)[0] / 2 + 1e-15
        for x in centers for j in levels)), None)
    assert out == {"doubling_constant": max(ratios), "gamma1": gamma1}
    assert gamma1 is not None


def test_doubling_mixed(mx_h5):
    out = doubling_check(hier_measure(mx_h5))
    assert math.isfinite(out["doubling_constant"])


def test_psi_vicsek_center_child(vs_h6):
    psi = psi_measure(vs_h6, Fraction(1, 2), 1)
    # the interior child below the root is the center cell (digit 0)
    assert vs_h6.address_words(1)[psi.interior_child[0][0]] == "0"
    total = sum(exact_mass(psi, 1, i) for i in range(vs_h6.levels[1].count))
    assert total == 1


def test_psi_sc_interior_grandchild(sc_h6):
    psi = psi_measure(sc_h6, Fraction(1, 2), 2)
    v = psi.interior_child[0][0]
    ix, iy = int(sc_h6.levels[2].ix[v]), int(sc_h6.levels[2].iy[v])
    assert 1 <= ix <= 7 and 1 <= iy <= 7
    assert sum(exact_mass(psi, 2, i) for i in range(sc_h6.levels[2].count)) == 1


def _reference_psi(h, k, eps, n_star):
    """Per-cell Fraction psi values and interior children, cell by cell."""
    base = Fraction(n_star) + eps
    grow = base ** k
    span = 3 ** k
    coarse = list(range(0, h.depth + 1, k))
    psi = {0: [Fraction(1)]}
    interior_child = {}
    for top, bot in zip(coarse, coarse[1:]):
        count = 1
        for m in range(top + 1, bot + 1):
            count *= h.schedule.branching(m)
        psi_bot = [None] * h.levels[bot].count
        interior_child[top] = []
        for w in range(h.levels[top].count):
            desc = range(w * count, (w + 1) * count)
            wx, wy = int(h.levels[top].ix[w]), int(h.levels[top].iy[w])
            interior = None
            for v in desc:
                rx = int(h.levels[bot].ix[v]) - span * wx
                ry = int(h.levels[bot].iy[v]) - span * wy
                if 1 <= rx <= span - 2 and 1 <= ry <= span - 2:
                    interior = v
                    break
            assert interior is not None
            interior_child[top].append(interior)
            small = 1 / grow
            big = 1 - Fraction(count - 1) / grow
            for v in desc:
                psi_bot[v] = psi[top][w] * (big if v == interior else small)
        psi[bot] = psi_bot
    return psi, interior_child


def _reference_comparability(h, psi, bound):
    violations = 0
    for n in list(psi)[1:]:
        for i, j in adjacency(h, n).edges.tolist():
            for a, b in ((i, j), (j, i)):
                violations += bound * psi[n][a] < psi[n][b]
    return {"violations": violations, "bound": bound}


@pytest.mark.parametrize("schedule, depth, k, n_star", [
    (Schedule.pure_vicsek(), 5, 1, 5),
    (Schedule.pure_sc(), 4, 2, 8),
    (Schedule.from_table([0, 1, 1, 1, 0, 0]), 6, 2, 8),
], ids=["vicsek-k1", "sc-k2", "table-k2"])
def test_psi_matches_fraction_reference(schedule, depth, k, n_star):
    h = build_hierarchy(schedule, depth)
    eps = Fraction(1, 2)
    psi = PsiMeasure(h, k, eps, n_star)
    ref, ref_interior = _reference_psi(h, k, eps, n_star)
    assert list(psi.interior_child) == list(ref_interior)
    for top, kids in ref_interior.items():
        assert psi.interior_child[top].tolist() == kids
    for n, values in ref.items():
        assert [exact_mass(psi, n, i) for i in range(len(values))] == values
        assert np.array_equal(_quotients(*psi.exact_masses(n)), np.array([float(q) for q in values]))
    assert psi.neighbor_comparability() == _reference_comparability(h, ref, psi.base ** k - 1)


def test_psi_no_interior_at_k1_for_sc(sc_h6):
    with pytest.raises(ValueError, match="interior"):
        psi_measure(sc_h6, Fraction(1, 2), 1)


def test_psi_positivity_guard(vs_h6):
    # a deliberately undersized branching bound must be rejected
    with pytest.raises(ValueError, match="branching"):
        PsiMeasure(vs_h6, 1, Fraction(1, 2), n_star=4)


def test_psi_neighbor_comparability_exact(vs_h6, sc_h6):
    for h, k in ((vs_h6, 1), (sc_h6, 2)):
        psi = psi_measure(h, Fraction(1, 2), k)
        out = psi.neighbor_comparability()
        assert out["violations"] == 0


def test_psi_growth_exponent(vs_h6, sc_h6):
    for h, k in ((vs_h6, 1), (sc_h6, 2)):
        psi = psi_measure(h, Fraction(1, 2), k)
        out = psi.growth_exponent()
        assert out["growth_exponent"] <= out["bound"] + 0.05


def test_olds_volume_vicsek(vs_h6):
    m = hier_measure(vs_h6)
    out = olds_volume(m, math.log(3.0), window=[1, 2, 3, 4, 5])
    ref = 2 * math.log(5) / math.log(15)
    assert out["ds_estimate"] == pytest.approx(ref, abs=0.05)
    assert out["ds_sup_window"] >= out["ds_estimate"] - 0.05


def test_olds_volume_window_guard(vs_h6):
    with pytest.raises(ValueError, match="window"):
        olds_volume(hier_measure(vs_h6), math.log(3.0), window=[2])


@pytest.mark.parametrize("samples", [0, -1])
def test_volume_routes_reject_samples_below_1(vs_h6, samples):
    # no centers would leave doubling_check no ball and olds_volume no log-ratio
    m = hier_measure(vs_h6)
    with pytest.raises(ValueError, match=f"doubling_check needs samples >= 1 \\(samples = {samples}\\)"):
        doubling_check(m, samples=samples)
    with pytest.raises(ValueError, match=f"olds_volume needs samples >= 1 \\(samples = {samples}\\)"):
        olds_volume(m, math.log(3.0), window=[1, 2], samples=samples)


def test_fekete_linear():
    out = fekete_limit([1, 2, 3, 4], [2.0, 4.0, 6.0, 8.0])
    assert out["limit"] == pytest.approx(2.0)
    assert out["violations"] == []


def test_fekete_affine_from_above():
    ts = [1, 2, 4, 8]
    fs = [2.0 * t + 1 for t in ts]
    out = fekete_limit(ts, fs)
    assert out["limit"] == pytest.approx(2.0 + 1.0 / 8.0)


def test_fekete_matches_volume_rate(vs_h6):
    # the sup-window route against a loop over the same centres, both radius
    # factors and every pair of window levels: the sup volume log-ratio per
    # lag, its Fekete limit and violations, and the dimension of that rate
    m = hier_measure(vs_h6)
    window, zeta_r_log = [1, 2, 3, 4, 5], math.log(3.0)
    out = olds_volume(m, zeta_r_log, window=window)
    series = []
    for x in _sample_centers(vs_h6, 2, 40, 0):
        for c in (1.0, 1.5):
            brackets = [m.ball_mass(x, c * 3.0 ** -j) for j in window]
            series.append([math.log(0.5 * (lo + hi) if lo > 0 else hi) for lo, hi in brackets])
    lags = range(1, len(window))
    sups = [max(s[a] - s[a + lag] for s in series for a in range(len(window) - lag)) / lag
            for lag in lags]
    check = fekete_limit(list(lags), [r * lag for r, lag in zip(sups, lags)])
    rate = check["limit"]
    assert out["ds_sup_window"] == pytest.approx(2 * rate / (rate + zeta_r_log), rel=1e-12)
    assert out["sup_window_violations"] == len(check["violations"])


def test_fekete_violation_reported():
    out = fekete_limit([1, 2], [1.0, 3.0])
    assert out["violations"] == [(1, 1)]
    assert out["limit"] == pytest.approx(1.0)


@pytest.mark.parametrize("ts", [[1.0, 2.0], [1, 1], [0, 1], [-1, 2], [1, 2.5]],
                         ids=["floats", "repeated", "zero", "negative", "fraction"])
def test_fekete_refuses_bad_lags(ts):
    with pytest.raises(ValueError, match="lags must be distinct positive integers"):
        fekete_limit(ts, [1.0] * len(ts))


def test_h_profile_vicsek(vs_h6, vs_cache):
    from resdimlab.measure import h_profile
    cg = vs_cache.graph(3)
    out = h_profile(hier_measure(vs_h6), cg, vs_cache.pt(3))
    assert out["monotone"]
    assert out["gamma2"] is not None
    rows = out["rows"]
    assert all(r["h_lo"] <= r["h_hi"] + 1e-15 for r in rows)


def test_h_profile_solves_one_block(monkeypatch, vs_h6):
    """Both default centres read one Green's block: one factorization and one
    column per non-ground vertex, not one grounded factorization per centre."""
    from resdimlab import resnet
    from resdimlab.cornergraph import corner_graph
    from resdimlab.measure import h_profile
    factors, widths = [], []
    splu, solve = resnet.spla.splu, resnet._Grounded.solve

    def counted_splu(a, *args, **kwargs):
        factors.append(a.shape[0])
        return splu(a, *args, **kwargs)

    def counted_solve(self, b):
        widths.append(1 if b.ndim == 1 else b.shape[1])
        return solve(self, b)

    monkeypatch.setattr(resnet.spla, "splu", counted_splu)
    monkeypatch.setattr(resnet._Grounded, "solve", counted_solve)
    cg = corner_graph(Schedule.pure_vicsek(), 3)
    out = h_profile(hier_measure(vs_h6), cg, 1.0)
    assert cg.graph.n == 376 and len({r["x_id"] for r in out["rows"]}) == 2
    assert (len(factors), sum(widths)) == (1, 375)


def test_nstar_volume_lower_bound(vs_h6, sc_h6):
    """Volume ratios across k levels reach a fixed fraction of N*^k."""
    for h, n_star in ((vs_h6, 5.0), (sc_h6, 8.0)):
        m = hier_measure(h)
        k = 2
        best = 0.0
        for x in [(-0.5, -0.5), (0.5, 0.5), (1.0 / 6.0, 1.0 / 6.0)]:
            for j in (1, 2, 3):
                r = 3.0 ** (-j)
                _, big = m.ball_mass(x, r)
                small, _ = m.ball_mass(x, r * 3.0 ** (-k))
                if small > 0:
                    best = max(best, (big / small) / n_star ** k)
        assert best >= 0.1
