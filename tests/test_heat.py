import math

import numpy as np
import pytest

from resdimlab import heat
from resdimlab.heat import (FiniteDirichletForm, build_form, chapman_kolmogorov_error,
                            ds_pointwise, heat_kernel, ol_ds_heat, time_window)
from resdimlab.measure import hier_measure
from resdimlab.resnet import LevelGraph

VIC_REF = 2 * math.log(5) / math.log(15)


@pytest.fixture(scope="module")
def two_state():
    return FiniteDirichletForm(LevelGraph(2, [(0, 1, 1.0)]), [0.5, 0.5])


def test_two_state_generator_eigenvalues(two_state):
    w, _ = two_state.eig()
    assert w == pytest.approx([0.0, 4.0], abs=1e-12)


def test_two_state_closed_form(two_state):
    ts = [0.05, 0.1, 0.5, 1.0, 2.0]
    curve = heat_kernel(two_state, 0, ts)
    for t, v in zip(curve.times, curve.values):
        assert v == pytest.approx(1.0 + math.exp(-4.0 * t), abs=1e-12)


def test_two_state_long_time_floor(two_state):
    assert two_state.p_diag([50.0])[0][0] == pytest.approx(1.0, abs=1e-12)


def test_short_time_diag_is_inverse_mass(vs_form4):
    p0 = vs_form4.p_diag([1e-9])
    assert np.allclose(p0[:, 0], 1.0 / vs_form4.mass, rtol=1e-6)


def test_mass_totals(vs_h6):
    m = hier_measure(vs_h6)
    form = build_form(vs_h6, 2, m, 9.0)
    assert form.total_mass == pytest.approx(1.0, abs=1e-12)
    assert form.graph.n == 76


def test_renormalizer_one_is_plain(vs_h6):
    m = hier_measure(vs_h6)
    f1 = build_form(vs_h6, 1, m, 1.0)
    assert np.all(f1.graph.conductance == 1.0)


def test_build_form_guards(vs_h6, monkeypatch):
    m = hier_measure(vs_h6)
    with pytest.raises(ValueError, match="renormalizer"):
        build_form(vs_h6, 1, m, 0.0)
    monkeypatch.setattr(heat, "DENSE_EIG_CAP", 100)
    with pytest.raises(ValueError, match="cap 100"):
        build_form(vs_h6, 5, m, 1.0)


def test_monotone_and_floor(vs_form4):
    t_lo, t_hi, t_mix = time_window(vs_form4)
    times = np.geomspace(t_lo / 8, 2 * t_mix, 30)
    P = vs_form4.p_diag(times)
    assert np.all(np.diff(P, axis=1) < 0)
    assert P.min() >= 1.0 / vs_form4.total_mass - 1e-10


def test_symmetry(vs_form4):
    rng = np.random.default_rng(1)
    t_lo, t_hi, _ = time_window(vs_form4)
    for _ in range(5):
        x, y = rng.integers(0, vs_form4.graph.n, size=2)
        t = float(np.sqrt(t_lo * t_hi))
        assert vs_form4.p_pair(t, int(x), int(y)) == pytest.approx(
            vs_form4.p_pair(t, int(y), int(x)), abs=1e-12)


def test_chapman_kolmogorov(vs_form4):
    assert chapman_kolmogorov_error(vs_form4, n_samples=15) <= 1e-8


def test_heat_kernel_time_guard(two_state):
    with pytest.raises(ValueError):
        heat_kernel(two_state, 0, [0.0, 1.0])


def test_ol_ds_heat_vicsek(vs_form4):
    out = ol_ds_heat(vs_form4)
    assert out["flag"] == "ok"
    assert out["estimate"] == pytest.approx(VIC_REF, abs=0.1)


def test_ol_ds_heat_two_state(two_state):
    out = ol_ds_heat(two_state, window=(0.1, 400.0))
    # bounded kernel: the estimate collapses toward zero as the window grows
    assert out["estimate"] <= 0.6


def test_ol_ds_heat_window_guard(two_state):
    out = ol_ds_heat(two_state, window=(1.0, 1.5))
    assert out["flag"] == "window-too-short"


def test_ds_pointwise_flags(vs_form4):
    rows = ds_pointwise(vs_form4, 0)
    flags = {r["flag"] for r in rows}
    assert {"unresolved", "ok", "saturated"} <= flags
    sat = [r for r in rows if r["flag"] == "saturated"]
    assert all(abs(r["slope"]) <= 0.2 for r in sat[-2:])


def test_ds_pointwise_bulk_vicsek(vs_form4):
    # center vertex: bulk-window slopes near the reference exponent
    center = int(np.argmin(np.sum(vs_form4.graph.coords ** 2, axis=1)))
    rows = [r for r in ds_pointwise(vs_form4, center) if r["flag"] == "ok"]
    mid = rows[len(rows) // 3: 2 * len(rows) // 3 + 1]
    assert mid, "no bulk window rows"
    avg = sum(r["slope"] for r in mid) / len(mid)
    assert avg == pytest.approx(VIC_REF, abs=0.25)


def test_heat_volume_cross_consistency(vs_form4, vs_h6, sc_form4, sc_h6, sc_cache):
    from resdimlab.measure import olds_volume
    heat_vs = ol_ds_heat(vs_form4)["estimate"]
    vol_vs = olds_volume(hier_measure(vs_h6), math.log(3.0),
                         window=[1, 2, 3, 4, 5])["ds_estimate"]
    assert abs(heat_vs - vol_vs) <= 0.1
    heat_sc = ol_ds_heat(sc_form4)["estimate"]
    rho = sc_cache.pt(5) / sc_cache.pt(4)
    vol_sc = olds_volume(hier_measure(sc_h6), math.log(rho),
                         window=[1, 2, 3])["ds_estimate"]
    assert abs(heat_sc - vol_sc) <= 0.1
