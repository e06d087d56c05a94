import math
from fractions import Fraction

import numpy as np
import pytest

from resdimlab import measure, mixedcarpet, resnet
from resdimlab.cornergraph import pt_quarter
from resdimlab.hierarchy import Schedule, mixed_indicator
from resdimlab.mixedcarpet import (ScaleCache, chain_check, evres_fit, gap_report, qs_diagnostic,
                                   qs_envelope_drift)
from resdimlab.resnet import eff_resistance
from conftest import pipeline_quarters, relative_corner_graph, single_pair_resistance


def test_schedule_f_blocks():
    assert mixed_indicator(1) == 1
    assert [mixed_indicator(n) for n in (2, 3, 4)] == [0, 0, 0]
    assert [mixed_indicator(n) for n in range(5, 9)] == [1, 1, 1, 1]
    assert [mixed_indicator(n) for n in range(9, 19)] == [0] * 10
    assert [mixed_indicator(n) for n in range(19, 28)] == [1] * 9
    with pytest.raises(ValueError):
        mixed_indicator(0)


def test_resistance_scales_identity_pair(mx_cache):
    # (n, n) is the 4-cycle: two parallel 2-edge paths corner to corner, two
    # parallel unit edges side to side
    for n in (0, 1, 4):
        s = mx_cache.scales(n, n)
        assert s.pt == pytest.approx(1.0, abs=1e-12)
        assert s.tb == pytest.approx(0.5, abs=1e-12)
        assert s.k1 == 0 and s.k2 == 0


def test_vicsek_pt_powers(vs_cache):
    for k in range(1, 5):
        assert vs_cache.pt(k) == pytest.approx(3.0 ** k, rel=1e-6)


def test_vicsek_pt_window(vs_cache):
    # windows of a pure schedule only depend on the width
    s = vs_cache.scales(3, 1)
    assert s.pt == pytest.approx(9.0, rel=1e-9)


def test_k_counts(mx_cache):
    s = mx_cache.scales(5, 0)
    assert s.k1 == 2            # levels 1 and 5 are carpet levels
    assert s.k2 == 1            # the single switch 1 -> 2
    s2 = mx_cache.scales(8, 4)
    assert s2.k1 == 4 and s2.k2 == 0


def test_chain_constants_finite_and_stable(mx_cache):
    out = chain_check(mx_cache, 5, pair_samples=20, seed=1)
    assert out["pt_ge_tb"]
    for key, val in out["constants"].items():
        assert math.isfinite(val) and val > 0
    # stability: the last level adds little to the fitted constants
    for key in ("C1", "C3"):
        assert out["per_n"][5][key] <= 1.25 * out["per_n"][4][key]


@pytest.mark.parametrize("n_max", [0, -1])
def test_chain_check_rejects_n_max_below_1(mx_cache, n_max):
    with pytest.raises(ValueError, match=f"n_max >= 1 \\(n_max = {n_max}\\)"):
        chain_check(mx_cache, n_max)


@pytest.mark.parametrize("pair_samples", [0, -1])
def test_chain_check_rejects_pair_samples_below_1(mx_cache, pair_samples):
    # with no pairs every C1 and C1b would read 0 and leave no level to take the max over
    with pytest.raises(ValueError, match=f"pair_samples >= 1 \\(pair_samples = {pair_samples}\\)"):
        chain_check(mx_cache, 2, pair_samples=pair_samples)


def test_evres_fit(sc_cache, vs_cache, mx_cache):
    fit = evres_fit(sc_cache, vs_cache, mx_cache, n_max=5)
    assert fit["rho_hat"] == sc_cache.pt(5) / sc_cache.pt(4)
    assert fit["vicsek_factor_error"] <= 1e-6
    assert fit["band_log_width"] >= 0
    assert fit["max_abs_residual"] <= fit["band_log_width"] + 1e-9
    # monotone growth of the mixed two-point resistances
    mixed_pt = [mx_cache.pt(n) for n in range(1, 6)]
    assert all(b > a for a, b in zip(mixed_pt, mixed_pt[1:]))


def _q_point(g, s):
    """The exact point of Q that the point g of the s-grid stands for."""
    return tuple(Fraction(int(v), s) - Fraction(1, 2) for v in g)


def _brute_delta_pair(h, x, y):
    """The separation index of x and y, straight from its definition on
    exact Fraction points of Q: the least n with a level-n cell whose closed
    square holds x while y lies in the image of the far region
    {|Re| v |Im| >= 3/2}; None if no built level works."""
    for n in range(h.depth + 1):
        scale = Fraction(3) ** (-n)
        lvl = h.levels[n]
        sc = 3 ** n
        for ix, iy in zip(lvl.ix.tolist(), lvl.iy.tolist()):
            if not (Fraction(ix, sc) - Fraction(1, 2) <= x[0] <= Fraction(ix + 1, sc) - Fraction(1, 2)
                    and Fraction(iy, sc) - Fraction(1, 2) <= x[1] <= Fraction(iy + 1, sc) - Fraction(1, 2)):
                continue
            cx = Fraction(2 * ix + 1, 2 * sc) - Fraction(1, 2)
            cy = Fraction(2 * iy + 1, 2 * sc) - Fraction(1, 2)
            if max(abs(y[0] - cx), abs(y[1] - cy)) >= Fraction(3, 2) * scale:
                return n
    return None


def test_qs_envelope(mx_cache):
    d4 = qs_diagnostic(mx_cache, 4, samples=150, seed=3)
    d5 = qs_diagnostic(mx_cache, 5, samples=150, seed=3, triples=d4.triples)
    assert np.isfinite(d5.envelope).all()
    assert np.all(np.diff(d5.envelope) >= 0)
    drift = qs_envelope_drift(d4, d5)
    assert drift <= 0.10
    # small annulus ratios map to small distortion
    k = max(3, len(d5.envelope) // 10)
    assert d5.envelope[k - 1] <= d5.envelope[-1]


def test_qs_same_triples_required(mx_cache):
    d4 = qs_diagnostic(mx_cache, 4, samples=40, seed=5)
    d5 = qs_diagnostic(mx_cache, 4, samples=41, seed=5)
    with pytest.raises(ValueError):
        qs_envelope_drift(d4, d5)


def _old_vertex_pairs(n, count, seed):
    """(2, count) vertex pairs as chain_check drew them before _sample_distinct."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        i, j = rng.integers(0, n, size=2)
        if i != j:
            pairs.append((i, j))
    return np.array(pairs, dtype=np.int64).reshape(-1, 2).T


def _old_triple_ids(n_c, samples, seed):
    """Vertex-id triples as qs_diagnostic drew them before _sample_distinct."""
    rng = np.random.default_rng(seed)
    triples = []
    guard = 0
    while len(triples) < samples and guard < 50 * samples:
        guard += 1
        a, b, c = rng.integers(0, n_c, size=3)
        if a == c or b == c or a == b:
            continue
        triples.append((int(a), int(b), int(c)))
    return triples


def test_sample_distinct_matches_old_draws(mx_cache):
    for n in range(4):
        nv = mx_cache.graph(n).graph.n
        for seed in (0, 1, 2):
            pairs = mixedcarpet._sample_distinct(nv, 2, 25, np.random.default_rng(seed))
            assert pairs.dtype == np.int64
            assert np.array_equal(pairs.T, _old_vertex_pairs(nv, 25, seed))
    coarse = mx_cache.graph(2)
    for seed in range(5):
        ids = mixedcarpet._sample_distinct(coarse.graph.n, 3, 250, np.random.default_rng(seed))
        old = _old_triple_ids(coarse.graph.n, 250, seed)
        assert ids.tolist() == [list(t) for t in old]
        diag = qs_diagnostic(mx_cache, 2, samples=250, seed=seed)
        assert diag.triples == [tuple(tuple(int(v) for v in coarse.grid[i]) for i in t)
                                for t in old]
    # as few ids as a draw takes still works; fewer raise instead of looping forever
    assert sorted(mixedcarpet._sample_distinct(3, 3, 4, np.random.default_rng(0))[0]) == [0, 1, 2]
    for n, k in ((1, 2), (0, 2), (2, 3)):
        with pytest.raises(ValueError, match=f"cannot draw {k} distinct ids below {n}"):
            mixedcarpet._sample_distinct(n, k, 5, np.random.default_rng(0))
    assert mixedcarpet._sample_distinct(4, 2, 0, np.random.default_rng(0)).shape == (0, 2)


def test_qs_diagnostic_rejects_n_below_sample_level(mx_cache):
    for n in (0, 1):
        with pytest.raises(ValueError, match=f"n >= sample_level \\(n = {n}, sample_level = 2\\)"):
            qs_diagnostic(mx_cache, n, samples=10)


@pytest.mark.parametrize("samples", [0, -1])
def test_qs_diagnostic_rejects_samples_below_1(mx_cache, samples):
    # an empty envelope would leave qs_envelope_drift a zero-size maximum
    with pytest.raises(ValueError, match=f"samples >= 1 \\(samples = {samples}\\)"):
        qs_diagnostic(mx_cache, 2, samples=samples)


def test_rstar_approximant_band(mx_h5, mx_cache):
    cg5 = mx_cache.graph(5)
    solver = cg5.graph.grounded_solver()
    pt5 = mx_cache.pt(5, 0)
    s = 3 ** mx_h5.depth
    rng = np.random.default_rng(7)
    band = []
    while len(band) < 40:
        i, j = rng.integers(0, cg5.graph.n, size=2)
        if i == j:
            continue
        # the corner grid of level 5 is the 243-grid of mx_h5
        d = _brute_delta_pair(mx_h5, _q_point(cg5.grid[int(i)], s), _q_point(cg5.grid[int(j)], s))
        if d is None:
            continue
        rstar = solver.pair_resistances([i], [j])[0] / pt5
        approx = 1.0 / mx_cache.pt(d, 0) if d > 0 else 1.0
        band.append(rstar / approx)
    assert max(band) / min(band) <= 25.0


# -- oracles: the per-pair loops that made one grounded solve per pair ----------

def chain_constants_per_pair(schedule, n_max, pair_samples, seed, cache):
    """C1 and C1b per n, one e_x - e_y solve per sampled pair."""
    per_n = {}
    for n in range(1, n_max + 1):
        cg_n = cache.graph(n)
        solver_n = cg_n.graph.grounded_solver()
        c1 = c1b = 0.0
        for m in range(0, n):
            sc_nm = cache.scales(n, m)
            cg_m = cache.graph(m)
            solver_m = cg_m.graph.grounded_solver()
            f = 3 ** (n - m)
            rng = np.random.default_rng(seed + 97 * n + m)
            count = 0
            while count < pair_samples:
                i, j = rng.integers(0, cg_m.graph.n, size=2)
                if i == j:
                    continue
                count += 1
                a, b = cg_m.grid[i], cg_m.grid[j]
                r_m = single_pair_resistance(solver_m, cg_m.vertex_at(*a), cg_m.vertex_at(*b))
                r_n = single_pair_resistance(solver_n, cg_n.vertex_at(a[0] * f, a[1] * f),
                                             cg_n.vertex_at(b[0] * f, b[1] * f))
                c1 = max(c1, r_n / (r_m * sc_nm.pt))
                c1b = max(c1b, r_m * sc_nm.tb / r_n)
        per_n[n] = {"C1": c1, "C1b": c1b}
    return per_n


def qs_ratios_per_pair(cache, n, triples, sample_level=2):
    """(t, ratio) per triple, two e_x - e_y solves per triple."""
    cg = cache.graph(n)
    solver = cg.graph.grounded_solver()
    pt_n = cache.pt(n, 0)
    f = 3 ** (n - sample_level)
    span = float(cache.graph(sample_level).span)
    ts, ratios = [], []
    for (ax, ay), (bx, by), (cx, cy) in triples:
        va = cg.vertex_at(ax * f, ay * f)
        vb = cg.vertex_at(bx * f, by * f)
        vc = cg.vertex_at(cx * f, cy * f)
        d_xy = math.hypot((ax - bx) / span, (ay - by) / span)
        d_xz = math.hypot((ax - cx) / span, (ay - cy) / span)
        ts.append(d_xy / d_xz)
        ratios.append((single_pair_resistance(solver, va, vb) / pt_n)
                      / (single_pair_resistance(solver, va, vc) / pt_n))
    order = np.argsort(ts)
    return np.asarray(ts)[order], np.asarray(ratios)[order]


@pytest.mark.parametrize("n_max", [4, 5])
def test_chain_check_matches_per_pair_solves(mx_cache, n_max):
    out = chain_check(mx_cache, n_max, pair_samples=25, seed=1)
    want = chain_constants_per_pair(Schedule.mixed(), n_max, 25, 1, mx_cache)
    for n in range(1, n_max + 1):
        for key in ("C1", "C1b"):
            assert out["per_n"][n][key] == pytest.approx(want[n][key], rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [4, 5])
def test_qs_diagnostic_matches_per_pair_solves(mx_cache, n):
    diag = qs_diagnostic(mx_cache, n, samples=250, seed=1)
    t_want, r_want = qs_ratios_per_pair(mx_cache, n, diag.triples)
    assert np.array_equal(diag.t_values, t_want)
    assert np.all(np.abs(diag.ratios - r_want) <= 1e-12 * r_want)
    assert np.all(np.abs(diag.envelope - np.maximum.accumulate(r_want))
                  <= 1e-12 * np.maximum.accumulate(r_want))


def _pair_pipeline(cache, order):
    """chain_check(cache, 5) and the two qs_diagnostic calls of `mixed
    --depth 5`, in the given order ("chain" or "qs" first)."""
    def chain():
        return chain_check(cache, 5, pair_samples=25, seed=1)

    def qs():
        d4 = qs_diagnostic(cache, 4, samples=250, seed=1)
        return d4, qs_diagnostic(cache, 5, samples=250, seed=1, triples=d4.triples)

    if order == "chain":
        ch = chain()
        return ch, qs()
    d4_d5 = qs()
    return chain(), d4_d5


def test_pipeline_solves_each_green_column_once(monkeypatch):
    """One cache serves chain_check and both qs_diagnostic calls: each graph
    solves exactly one column per distinct non-ground endpoint (one column
    per endpoint of each batch would be 253 on level 5 and 257 on level 4)."""
    widths = {}  # keyed by graph
    solve = resnet._Grounded.solve

    def counted_solve(self, b):
        widths[self.g] = widths.get(self.g, 0) + (1 if b.ndim == 1 else b.shape[1])
        return solve(self, b)

    monkeypatch.setattr(resnet._Grounded, "solve", counted_solve)
    cache = ScaleCache(Schedule.mixed())
    _pair_pipeline(cache, "chain")
    g4, g5 = cache.graph(4).graph, cache.graph(5).graph
    assert (g4.n, g5.n) == (2880, 14752)
    assert (widths[g4], widths[g5]) == (182, 181)
    # the endpoints asked of each level graph, less its ground vertex 0
    for n in range(6):
        g = cache.graph(n).graph
        ends = g.grounded_solver()._ends
        assert len(ends) == len(set(ends.tolist()))
        assert widths.get(g, 0) == len(set(ends.tolist()) - {0})


def test_warm_green_block_matches_a_fresh_one():
    """C1/C1b and the qs ratios read from a block warmed by the other step
    equal those from a fresh cache to 1e-12; a pair x == y reads exactly 0."""
    a, b = ScaleCache(Schedule.mixed()), ScaleCache(Schedule.mixed())
    ch_cold, (_, qs_warm) = _pair_pipeline(a, "chain")
    ch_warm, (_, qs_cold) = _pair_pipeline(b, "qs")
    for n in range(1, 6):
        for key in ("C1", "C1b"):
            assert ch_warm["per_n"][n][key] == pytest.approx(ch_cold["per_n"][n][key],
                                                             rel=1e-12, abs=0)
    assert qs_warm.triples == qs_cold.triples
    assert np.array_equal(qs_warm.t_values, qs_cold.t_values)
    assert np.all(np.abs(qs_warm.ratios - qs_cold.ratios) <= 1e-12 * qs_cold.ratios)
    # old endpoints, one new endpoint and the ground vertex, against themselves
    # and against each other
    solver = a.graph(5).graph.grounded_solver()
    old = solver._ends[:3]
    v = np.setdiff1d(np.arange(1, 50), solver._ends)[0]
    vs = np.array([0, v, *old])
    assert np.all(solver.pair_resistances(vs, vs) == 0.0)
    xs, ys = np.repeat(vs, len(vs)), np.tile(vs, len(vs))
    got = solver.pair_resistances(xs, ys)
    want = np.array([single_pair_resistance(solver, int(x), int(y)) for x, y in zip(xs, ys)])
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_evres_fit_pure_caches_solve_pt_only(monkeypatch, sc_cache, vs_cache, mx_cache):
    monkeypatch.setattr(mixedcarpet, "PURE_LEVELS", 4)
    evres_fit(sc_cache, vs_cache, mx_cache, n_max=2)  # mixed scales cached
    calls = []

    def counted(g, A, B, **kwargs):
        calls.append((g, A, B))
        return eff_resistance(g, A, B, **kwargs)

    monkeypatch.setattr(mixedcarpet, "eff_resistance", counted)
    pure = ScaleCache(Schedule.pure_sc()), ScaleCache(Schedule.pure_vicsek())
    evres_fit(*pure, mx_cache, n_max=2)
    # one solve per pure graph, on its Pt quarter: the carpet's two behind
    # rho_hat, and every plus-sign level behind its factor
    sc, vicsek = pure
    want = ([pt_quarter(sc.schedule, n) for n in (4, 3)]
            + [pt_quarter(vicsek.schedule, n) for n in range(1, 5)])
    assert len(calls) == len(want)
    for (g, A, B), (wg, wA, wB) in zip(calls, want):
        assert (g.n, A, B) == (wg.n, wA, wB)
        assert np.array_equal(g.edge_u, wg.edge_u) and np.array_equal(g.edge_v, wg.edge_v)
        assert np.array_equal(g.conductance, wg.conductance)


@pytest.mark.parametrize("schedule, deep", [(Schedule.pure_sc(), False),
                                            (Schedule.pure_vicsek(), True),
                                            (Schedule.mixed(), True),
                                            (Schedule.from_table([1, 1, 0, 1, 0]), False)],
                         ids=["sc", "vicsek", "mixed", "table"])
def test_scales_equal_direct_resistances(schedule, deep):
    """Quarter solves against full-graph solves, every (n, m) with n <= 5,
    and (6, 0) where `deep`."""
    cache = ScaleCache(schedule)
    pairs = [(n, m) for n in range(1, 6) for m in range(n + 1)] + [(6, 0)] * deep
    for n, m in pairs:
        cg = relative_corner_graph(schedule, n, m)
        p1, _, p5, _ = cg.corner_vertices()
        s = cache.scales(n, m)
        assert (s.n, s.m) == (n, m)
        top = np.flatnonzero(cg.grid[:, 1] == cg.span)
        bottom = np.flatnonzero(cg.grid[:, 1] == 0)
        assert s.tb == pytest.approx(eff_resistance(cg.graph, top, bottom).value,
                                     rel=1e-9, abs=0)
        assert s.pt == pytest.approx(eff_resistance(cg.graph, [p1], [p5]).value,
                                     rel=1e-9, abs=0)
        assert cache.pt(n, m) == s.pt


def test_scales_build_no_full_graph():
    cache = ScaleCache(Schedule.mixed())
    for n in range(1, 6):
        for m in range(n + 1):
            cache.scales(n, m)
    assert cache._graphs == {}


def test_scales_factor_only_quarters(monkeypatch):
    sizes = []
    splu = resnet.spla.splu

    def counted(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return splu(a, *args, **kwargs)

    monkeypatch.setattr(resnet.spla, "splu", counted)
    cache = ScaleCache(Schedule.mixed())
    cache.scales(5)
    assert len(sizes) == 2  # Pt and TB, one factorization each
    assert max(sizes) <= cache.graph(5).graph.n / 4 + 2 * 3 ** 5


def test_gap_report_threads_seed(monkeypatch, small_gap_report, sc_cache, vs_cache, mx_cache):
    seeds = []

    def recorded(m, zeta_r_log, window, seed=0, **kwargs):
        seeds.append(seed)
        return {"ds_estimate": 1.0}

    monkeypatch.setattr(measure, "olds_volume", recorded)
    rho_hat = evres_fit(sc_cache, vs_cache, mx_cache, n_max=3)["rho_hat"]
    gap_report(sc_cache, vs_cache, rho_hat, seed=7)
    assert seeds == [7, 7]


def test_gap_report_rows_carry_certificates(small_gap_report, sc_cache, vs_cache):
    rows, _ = gap_report(sc_cache, vs_cache, 1.25)
    assert all(list(r) == ["route", "schedule", "quantity", "a", "b", "value", "lower",
                           "upper", "flag", "uncertified"] for r in rows)
    solved = [r for r in rows if r["route"] in ("heat", "separation")]
    assert len(solved) == 5 and all(isinstance(r["flag"], str) for r in solved)
    assert all(isinstance(r["uncertified"], int) for r in solved if r["route"] == "separation")


def test_pipeline_solves_each_quarter_once(small_gap_report, quarter_solves):
    """evres_fit and gap_report on shared caches solve each (Pt) and (TB)
    quarter once; the plus-sign heat form of gap_report reuses (Pt)_2."""
    sc, vicsek, mixed = (ScaleCache(Schedule.by_name(s)) for s in ("sc", "vicsek", "mixed"))
    fit = evres_fit(sc, vicsek, mixed, n_max=3)
    rows, _ = gap_report(sc, vicsek, fit["rho_hat"])
    assert [r["value"] for r in rows if r["quantity"] == "rho"] == [fit["rho_hat"]]
    assert sorted(quarter_solves) == pipeline_quarters(3)
    assert set(quarter_solves.values()) == {1}
