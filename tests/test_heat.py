import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from resdimlab import heat
from resdimlab.heat import (FiniteDirichletForm, build_form, chapman_kolmogorov_error,
                            ol_ds_heat, time_window)
from resdimlab.cornergraph import corner_graph
from resdimlab.hierarchy import Schedule
from resdimlab.measure import hier_measure, psi_measure
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
    for t, v in zip(ts, two_state.p_diag(ts, xs=[0])[0]):
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
    # a psi-measure has masses on its coarse levels only
    with pytest.raises(ValueError, match="no coarse level 3"):
        build_form(vs_h6, 3, psi_measure(vs_h6, Fraction(1, 2), 2), 1.0)
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


def test_chapman_kolmogorov(monkeypatch, vs_form4):
    monkeypatch.setattr(heat, "CK_SAMPLES", 15)
    assert chapman_kolmogorov_error(vs_form4, 0) <= 1e-8


def test_ol_ds_heat_vicsek(vs_form4):
    out = ol_ds_heat(vs_form4)
    assert out["flag"] == "ok"
    assert out["estimate"] == pytest.approx(VIC_REF, abs=0.1)


def test_ol_ds_heat_two_state(monkeypatch, two_state):
    monkeypatch.setattr(heat, "time_window", lambda form: (0.1, 400.0, math.nan))
    out = ol_ds_heat(two_state)
    # bounded kernel: the estimate collapses toward zero as the window grows
    assert out["estimate"] <= 0.6


def test_ol_ds_heat_window_guard(monkeypatch, two_state):
    monkeypatch.setattr(heat, "time_window", lambda form: (1.0, 1.5, math.nan))
    out = ol_ds_heat(two_state)
    assert out["flag"] == "window-too-short"


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


def test_nonfinite_mass_rejected():
    g = LevelGraph(2, [(0, 1, 1.0)])
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            FiniteDirichletForm(g, [0.5, bad])


@pytest.mark.parametrize("x", [-1, 2])
def test_vertex_out_of_range(two_state, x):
    with pytest.raises(ValueError, match="vertex out of range"):
        two_state.p_diag([1.0], xs=[0, x])
    with pytest.raises(ValueError, match="vertex out of range"):
        two_state.p_pair(1.0, 0, x)
    with pytest.raises(ValueError, match="vertex out of range"):
        two_state.p_pair(1.0, x, 0)
    with pytest.raises(ValueError, match="vertex out of range"):
        two_state.p_row(1.0, x)


def test_vertex_ids_must_be_integers(two_state):
    with pytest.raises(TypeError, match="integers"):
        two_state.p_pair(1.0, 0, 0.5)
    with pytest.raises(TypeError, match="integers"):
        two_state.p_diag([1.0], xs=[1.0])
    assert two_state.p_diag([1.0], xs=[]).shape == (0, 1)


# -- reflection blocks against the unreduced dense eigensolve ------------------

def dense_oracle(form):
    """The unreduced solve: (w, phi) of all n vertices, phi mu-orthonormal."""
    scale = 1.0 / np.sqrt(form.mass)
    sym = form.graph.laplacian().toarray() * scale[:, None] * scale[None, :]
    w, phi = scipy.linalg.eigh(sym)
    return w, phi * scale[:, None]


def broken_form(sc_h6, sc_cache):
    """The SC level-2 form with one corner conductance perturbed."""
    form = build_form(sc_h6, 2, hier_measure(sc_h6), sc_cache.pt(2))
    g = form.graph
    c = g.conductance.copy()
    c[0] *= 1.001
    return FiniteDirichletForm(LevelGraph(g.n, np.column_stack([g.edge_u, g.edge_v, c])),
                               form.mass, form.mirrors)


def weighted_form(sc_h6, sc_cache):
    """The SC level-2 form with seeded non-uniform vertex masses, which no
    mirror keeps."""
    form = build_form(sc_h6, 2, hier_measure(sc_h6), sc_cache.pt(2))
    weights = np.random.default_rng(5).integers(1, 10, size=form.graph.n)
    return FiniteDirichletForm(form.graph, form.mass * weights, form.mirrors)


def d4_form(h, cache, level):
    """The SC form at `level` with non-uniform vertex masses that both
    mirrors keep: each uniform mass times an integer weight that grows with
    the squared grid distance from the centre."""
    form = build_form(h, level, hier_measure(h), cache.pt(level))
    cg = corner_graph(h.schedule, level)
    x, y = cg.grid.T
    weights = 1 + ((2 * x - cg.span) ** 2 + (2 * y - cg.span) ** 2) // cg.span
    return FiniteDirichletForm(form.graph, form.mass * weights, form.mirrors)


@pytest.fixture(scope="module")
def oracle_forms(vs_form4, sc_h6, sc_cache, mx_h5, mx_cache, two_state):
    return {
        "vicsek-4": vs_form4,
        "sc-3": build_form(sc_h6, 3, hier_measure(sc_h6), sc_cache.pt(3)),
        "mixed-3": build_form(mx_h5, 3, hier_measure(mx_h5), mx_cache.pt(3)),
        "broken-sc-2": broken_form(sc_h6, sc_cache),
        "weighted-sc-2": weighted_form(sc_h6, sc_cache),
        "d4-sc-3": d4_form(sc_h6, sc_cache, 3),
        "two-state": two_state,
    }


@pytest.mark.parametrize("name", ["vicsek-4", "sc-3", "mixed-3", "broken-sc-2", "weighted-sc-2",
                                  "d4-sc-3", "two-state"])
def test_blocks_match_dense_oracle(oracle_forms, name):
    form = oracle_forms[name]
    w, blocks = form.eig()
    if name in ("broken-sc-2", "two-state"):
        assert len(blocks) == 1
    if name == "weighted-sc-2":
        assert len(blocks) < 4  # the measure breaks a mirror
    if name == "d4-sc-3":
        assert len(blocks) == 4  # the measure keeps both mirrors
    w_ref, phi = dense_oracle(form)
    assert np.max(np.abs(w - w_ref)) <= 1e-12 * w_ref[-1]
    t_lo, _, t_mix = time_window(form)
    times = np.geomspace(t_lo / 8, 2 * t_mix, 40)
    P = form.p_diag(times)
    P_ref = (phi ** 2) @ np.exp(-np.outer(w_ref, times))
    assert np.max(np.abs(P - P_ref) / P_ref) <= 1e-10
    rng = np.random.default_rng(3)
    for _ in range(5):
        x, y = (int(v) for v in rng.integers(0, form.graph.n, size=2))
        j = int(rng.integers(0, len(times)))
        t = float(times[j])
        row_ref = phi @ (np.exp(-w_ref * t) * phi[x])
        scale = np.sqrt(P_ref[x, j] * P_ref[:, j])
        assert abs(form.p_pair(t, x, y) - row_ref[y]) <= 1e-10 * scale[y]
        assert np.all(np.abs(form.p_row(t, x) - row_ref) <= 1e-10 * scale)
    assert np.allclose(form.p_diag(times[:3], xs=[0, form.graph.n - 1, 0]),
                       P[[0, form.graph.n - 1, 0], :3], rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("schedule,level", [("sc", 3), ("vicsek", 3), ("mixed", 3), ("sc-d4", 3)])
def test_build_form_finds_klein_group(sc_h6, vs_h6, mx_h5, sc_cache, vs_cache, mx_cache,
                                      schedule, level):
    h, cache = {"sc": (sc_h6, sc_cache), "vicsek": (vs_h6, vs_cache),
                "mixed": (mx_h5, mx_cache), "sc-d4": (sc_h6, sc_cache)}[schedule]
    form = (d4_form(h, cache, level) if schedule == "sc-d4"
            else build_form(h, level, hier_measure(h), cache.pt(level)))
    _, blocks = form.eig()
    assert len(blocks) == 4  # one block per sign character of the group
    assert sum(len(b.w) for b in blocks) == form.graph.n


def test_time_window_cached_and_batched(oracle_forms):
    form = oracle_forms["sc-3"]
    window = time_window(form)
    assert time_window(form) is window
    # reference: the one-time-per-call walk of the 1.5x grid
    t_lo = 30.0 / form.lambda_max
    t = t_lo
    while form.p_diag([t]).max() > 1.01 / form.total_mass:
        t *= 1.5
    assert window == (t_lo, 0.5 * t, t)


def test_mirror_candidates_filtered(oracle_forms):
    """Only commuting involutions outside the group so far are kept."""
    form = oracle_forms["sc-3"]
    n = form.graph.n
    cg = corner_graph(Schedule.pure_sc(), 3)
    x, y = cg.grid.T
    transpose = cg.grid_index.lookup(y, x)  # an involution, not commuting with the mirrors
    rotation = cg.grid_index.lookup(y, cg.span - x)  # a symmetry of order 4
    partial = form.mirrors[0].copy()
    partial[0] = -1  # not a permutation
    noisy = FiniteDirichletForm(form.graph, form.mass, form.mirrors + form.mirrors[::-1]
                                + (np.arange(n), transpose, rotation, partial))
    w, blocks = noisy.eig()
    assert len(blocks) == 4
    assert np.array_equal(w, form.eig()[0])
    assert len(FiniteDirichletForm(form.graph, form.mass, (rotation,)).eig()[1]) == 1
    assert len(FiniteDirichletForm(form.graph, form.mass, (transpose,)).eig()[1]) == 2
