"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np

from resdimlab.heat import (FiniteDirichletForm, build_form, chapman_kolmogorov_error,
                            ol_ds_heat, time_window)
from resdimlab.measure import hier_measure, olds_volume, psi_measure
from resdimlab.mixedcarpet import (chain_check, evres_fit, gap_report, qs_diagnostic,
                                   qs_envelope_drift)
from resdimlab.penergy import SupSweep, critical_p, fit_rates
from resdimlab.resnet import LevelGraph, eff_resistance, trace
from conftest import min_energy_flow, pinv_resistance, random_connected_graph

VIC_REF = 2 * math.log(5.0) / (math.log(3.0) + math.log(5.0))
TW_BOUND = 1.0 + math.log(2.0) / math.log(3.0)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_exact_identities():
    t0 = time.perf_counter()
    cycle = LevelGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    r1 = eff_resistance(cycle, [0], [2]).value
    errs = [abs(r1 - 1.0)]
    for n in (3, 7):
        path = LevelGraph(n + 1, [(i, i + 1, 1.0) for i in range(n)])
        errs.append(abs(eff_resistance(path, [0], [n]).value - n))
    tr = trace(LevelGraph(3, [(0, 1, 1.0), (1, 2, 1.0)]), [0, 2])
    errs.append(abs(tr.conductance[0] - 0.5))
    dt = time.perf_counter() - t0
    _report(1, max(errs) <= 1e-10 and dt < 1.0,
            f"exact identities err {max(errs):.2e}, runtime {dt:.3f}s")


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(20240817)
    worst_pair = 0.0
    worst_trace = 0.0
    for _ in range(100):
        g = random_connected_graph(rng, n_max=50)
        a = int(rng.integers(0, g.n))
        b = int(rng.integers(0, g.n))
        if a == b:
            b = (a + 1) % g.n
        r_pot = eff_resistance(g, [a], [b]).value
        _, r_flow = min_energy_flow(g, [a], [b])
        r_pinv = pinv_resistance(g, [a], [b])
        worst_pair = max(worst_pair,
                         abs(r_flow - r_pot) / r_pot,
                         abs(r_pinv - r_pot) / r_pot,
                         abs(r_pinv - r_flow) / r_pot)
        keep = sorted(set(int(v) for v in rng.permutation(g.n)[: max(3, g.n // 3)]) | {a, b})
        t = trace(g, keep)
        pos = {lbl: i for i, lbl in enumerate(t.labels)}
        for _ in range(3):
            u, v = rng.choice(keep, size=2, replace=False)
            want = eff_resistance(g, [int(u)], [int(v)]).value
            got = eff_resistance(t, [pos[int(u)]], [pos[int(v)]]).value
            worst_trace = max(worst_trace, abs(got - want) / want)
    _report(2, worst_pair <= 1e-8 and worst_trace <= 1e-9,
            f"100 graphs: oracle spread {worst_pair:.2e}, trace error {worst_trace:.2e}")


def test_criterion_03_vicsek_factor(vs_cache):
    t0 = time.perf_counter()
    worst = max(abs(vs_cache.pt(k) - 3.0 ** k) / 3.0 ** k for k in range(1, 5))
    dt = time.perf_counter() - t0
    _report(3, worst <= 1e-6 and dt < 60.0,
            f"(Pt)_k vs 3^k rel err {worst:.2e}, runtime {dt:.1f}s")


def test_criterion_04_sc_factor_stability(sc_cache):
    pt = [sc_cache.pt(n) for n in range(1, 6)]
    # ratios[i] = (Pt)_{i+2} / (Pt)_{i+1}
    ratios = [b / a for a, b in zip(pt, pt[1:])]
    change_3_to_4 = abs(ratios[2] / ratios[1] - 1.0)
    change_4_to_5 = abs(ratios[3] / ratios[2] - 1.0)
    rho_hat = ratios[-1]
    ok = change_3_to_4 <= 0.05 and change_4_to_5 <= 0.05
    _report(4, ok, f"ratio changes {change_3_to_4:.4f}, {change_4_to_5:.4f}; "
                   f"rho_hat {rho_hat:.6f} (recorded)")


def test_criterion_05_energy_resistance_band(sc_sup2, vs_sup2, sc_cache, vs_cache):
    bands = {}
    for name, sups, cache in (("sc", sc_sup2, sc_cache), ("vicsek", vs_sup2, vs_cache)):
        prods = [sups[k] * cache.pt(k) for k in range(1, 5)]
        bands[name] = max(prods) / min(prods)
    ok = all(v <= 20.0 for v in bands.values())
    _report(5, ok, f"energy x resistance band ratios {bands}")


def test_criterion_06_vicsek_p2_dimension(vs_h6):
    est = SupSweep(vs_h6, range(1, 6)).spectral_dims()
    d2s = 2.0 / (1.0 - est.rate_ls / math.log(est.n_star))
    vol = olds_volume(hier_measure(vs_h6), math.log(3.0), window=[1, 2, 3, 4, 5])
    ds_vol = vol["ds_estimate"]
    ok = (abs(d2s - VIC_REF) <= 0.05 and abs(ds_vol - VIC_REF) <= 0.05
          and abs(d2s - ds_vol) <= 0.1)
    _report(6, ok, f"p-spectral {d2s:.4f}, volume {ds_vol:.4f}, reference {VIC_REF:.4f}")


def test_criterion_07_heat_invariants(vs_form4, sc_form4, vs_h6):
    forms = {
        "two-state": FiniteDirichletForm(LevelGraph(2, [(0, 1, 1.0)]), [0.5, 0.5]),
        "vicsek-2": build_form(vs_h6, 2, hier_measure(vs_h6), 9.0),
        "vicsek-4": vs_form4,
        "sc-4": sc_form4,
    }
    details = []
    ok = True
    for name, form in forms.items():
        t_lo, t_hi, t_mix = time_window(form)
        # strict decrease on the resolved range; past mixing the decrement
        # underflows doubles, so only nonincrease is checkable there
        times = np.geomspace(t_lo / 8, t_mix, 25)
        P = form.p_diag(times)
        mono = bool(np.all(np.diff(P, axis=1) < 0))
        tail = form.p_diag(np.geomspace(t_mix, 4 * t_mix, 6))
        mono = mono and bool(np.all(np.diff(tail, axis=1) <= 0))
        floor = bool(min(P.min(), tail.min()) >= 1.0 / form.total_mass - 1e-10)
        ck = chapman_kolmogorov_error(form, 0)
        ok = ok and mono and floor and ck <= 1e-8
        details.append(f"{name}: mono {mono}, floor {floor}, CK {ck:.1e}")
    two = forms["two-state"]
    ts = np.geomspace(0.01, 3.0, 12)
    terr = float(np.max(np.abs(two.p_diag(ts, xs=[0])[0] - (1 + np.exp(-4 * ts)))))
    ok = ok and terr <= 1e-12
    _report(7, ok, "; ".join(details) + f"; two-state err {terr:.1e}")


def test_criterion_08_dim_comparison(vs_form4, sc_form4, vs_h6, sc_h6):
    out = {}
    for name, form, h in (("vicsek", vs_form4, vs_h6), ("sc", sc_form4, sc_h6)):
        est = SupSweep(h, range(1, 6)).spectral_dims()
        d2s = 2.0 / (1.0 - est.rate_ls / math.log(est.n_star))
        ds_heat = ol_ds_heat(form)["estimate"]
        out[name] = (d2s, ds_heat)
    ok = all(d2s <= ds + 0.1 for d2s, ds in out.values())
    _report(8, ok, "; ".join(f"{k}: d2s {a:.4f} vs heat {b:.4f}" for k, (a, b) in out.items()))


def test_criterion_09_below_two_and_arc_lower(vs_form4, sc_form4, vs_h6, sc_h6,
                                              sc_cache):
    ds_values = {
        "heat-vicsek": ol_ds_heat(vs_form4)["estimate"],
        "heat-sc": ol_ds_heat(sc_form4)["estimate"],
        "volume-vicsek": olds_volume(hier_measure(vs_h6), math.log(3.0),
                                     window=[1, 2, 3, 4, 5])["ds_estimate"],
        "volume-sc": olds_volume(hier_measure(sc_h6),
                                 math.log(sc_cache.pt(5) / sc_cache.pt(4)),
                                 window=[1, 2, 3])["ds_estimate"],
    }
    for h in (vs_h6, sc_h6):
        est = SupSweep(h, range(1, 6)).spectral_dims()
        ds_values[f"d2s-{h.schedule.name}"] = 2.0 / (1.0 - est.rate_ls / math.log(est.n_star))
    arc_vs = critical_p(vs_h6, 4, tol=0.05)["interval"]
    ok = all(v < 2.0 for v in ds_values.values()) and arc_vs[0] >= 1.0
    _report(9, ok, f"max estimate {max(ds_values.values()):.4f} < 2; "
                   f"vicsek ARC lower {arc_vs[0]:.3f}")


def test_criterion_10_critical_p_behavior(sc_h6, vs_h6, sc_sup2):
    ks = [1, 2, 3, 4]
    logs2 = [math.log(sc_sup2[k]) for k in ks]
    rate2, _, _ = fit_rates(ks, logs2)
    logs13 = [math.log(val.value) for _, val in SupSweep(sc_h6, ks).sups(1.3)]
    rate13, _, _ = fit_rates(ks, logs13)
    arc_vs = critical_p(vs_h6, 4, tol=0.05)["interval"]
    ok = rate2 < 0.0 and rate13 >= 0.0 and arc_vs[1] <= 1.3
    _report(10, ok, f"SC rates: p=2 {rate2:.4f}, p=1.3 {rate13:.4f}; "
                    f"vicsek interval {arc_vs}")


def test_criterion_11_mixed_pipeline(mx_cache, sc_cache, vs_cache):
    ch = chain_check(mx_cache, 5, pair_samples=20, seed=1)
    finite = all(math.isfinite(v) for v in ch["constants"].values())
    stable = all(ch["per_n"][5][k] <= 1.25 * ch["per_n"][4][k] for k in ("C1", "C3"))
    d4 = qs_diagnostic(mx_cache, 4, samples=200, seed=3)
    d5 = qs_diagnostic(mx_cache, 5, samples=200, seed=3, triples=d4.triples)
    drift = qs_envelope_drift(d4, d5)
    rho_hat = evres_fit(sc_cache, vs_cache, mx_cache)["rho_hat"]
    rows, checks = gap_report(sc_cache, vs_cache, rho_hat)
    row = {(r["route"], r["schedule"], r["quantity"]): r for r in rows}
    vicsek_volume = row["volume", "vicsek", "ds"]["value"]
    one_plus_log2_log3 = row["closed-form", "sc", "dim_arc"]["lower"]
    sc_max = max(row[route, "sc", q]["value"]
                 for route, q in (("heat", "ds"), ("volume", "ds"), ("separation", "d2s")))
    ordering = (vicsek_volume < 1.5 < one_plus_log2_log3
                and abs(vicsek_volume - VIC_REF) <= 0.1)
    below2 = sc_max < 2.0
    labeled = all(r["schedule"] != "mixed" for r in rows)
    ok = (finite and stable and np.isfinite(d5.envelope).all() and drift <= 0.10
          and ordering and below2 and labeled and all(c["pass"] for c in checks))
    _report(11, ok, f"chain constants {ch['constants']}; qs drift {drift:.4f}; "
                    f"ordering {vicsek_volume:.4f} < 1.5 < {one_plus_log2_log3:.4f}; "
                    f"SC window max {sc_max:.4f}; no mixed-schedule row")


def test_criterion_12_psi_measure(sc_h6, vs_h6):
    details = []
    ok = True
    for h, k in ((sc_h6, 2), (vs_h6, 1)):
        psi = psi_measure(h, Fraction(1, 2), k)
        nb = psi.neighbor_comparability()
        gw = psi.growth_exponent()
        ok = ok and nb["violations"] == 0 and gw["growth_exponent"] <= gw["bound"] + 0.05
        details.append(f"{h.schedule.name} k={k}: growth {gw['growth_exponent']:.4f} "
                       f"vs bound {gw['bound']:.4f}, psi-neighbor violations {nb['violations']}")
    _report(12, ok, "; ".join(details))
