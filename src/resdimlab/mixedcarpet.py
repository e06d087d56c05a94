"""Mixed carpet/Vicsek pipeline: schedules, corner-graph resistances,
chaining constants, quasisymmetry diagnostics, and the dimension-gap
report, one row per windowed estimate.

The two-scale resistance bookkeeping follows the (TB)/(Pt) quantities: per
level pair (n, m) the top-to-bottom set resistance and the opposite-corner
two-point resistance of the corner graph, with k1 counting carpet levels in
(m, n] and k2 the carpet-to-plus-sign switches.  `evres_fit` reads the
carpet factor rho_hat = (Pt)_5 / (Pt)_4 and the plus-sign factors off the
pure schedules and fits the product model of the mixed (Pt) on them; it
returns only the four numbers the `mixed` command checks and reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .cornergraph import CornerGraph, corner_graph, pt_quarter, tb_quarter
from .hierarchy import Schedule, build_hierarchy
from .resnet import eff_resistance

__all__ = [
    "ResistanceScales",
    "ScaleCache",
    "chain_check",
    "evres_fit",
    "qs_diagnostic",
    "QSDiagnostic",
    "gap_report",
]


def k1_count(schedule: Schedule, n: int, m: int) -> int:
    return sum(schedule.F(j) for j in range(m + 1, n + 1))


def k2_count(schedule: Schedule, n: int, m: int) -> int:
    return sum(1 for j in range(m + 1, n)
               if schedule.F(j) == 1 and schedule.F(j + 1) == 0)


@dataclass
class ResistanceScales:
    n: int
    m: int
    tb: float
    pt: float
    k1: int
    k2: int


class ScaleCache:
    """Corner graphs and their resistance scales for one schedule.

    (Pt) and (TB) are each one eff_resistance on a reflection quarter built
    straight from the schedule (`cornergraph.pt_quarter`,
    `cornergraph.tb_quarter`); no full corner graph is built for them.  The
    full level-n graphs of `graph` serve the pair resistances of
    `chain_check` and `qs_diagnostic` and the profiles of
    `measure.h_profile`, all read from the Green's block that each graph's
    grounded solver keeps, so each column is solved once per graph however
    many queries read it.  Every function here reads the scales of a
    schedule from the cache it is given, so a caller that keeps one cache
    per schedule solves each scale and each Green's column once.
    """

    def __init__(self, schedule: Schedule):
        self.schedule = schedule
        self._graphs: Dict[int, CornerGraph] = {}
        self._pt: Dict[Tuple[int, int], float] = {}
        self._scales: Dict[Tuple[int, int], ResistanceScales] = {}

    def graph(self, n: int) -> CornerGraph:
        if n not in self._graphs:
            self._graphs[n] = corner_graph(self.schedule, n)
        return self._graphs[n]

    def pt(self, n: int, m: int = 0) -> float:
        """(Pt)_{n,m} alone: the opposite-corner resistance p1 to p5."""
        key = (n, m)
        if key not in self._pt:
            self._pt[key] = eff_resistance(*pt_quarter(self.schedule, n, m)).value
        return self._pt[key]

    def scales(self, n: int, m: int = 0) -> ResistanceScales:
        key = (n, m)
        if key not in self._scales:
            self._scales[key] = ResistanceScales(
                n=n, m=m, pt=self.pt(n, m),
                tb=eff_resistance(*tb_quarter(self.schedule, n, m)).value,
                k1=k1_count(self.schedule, n, m),
                k2=k2_count(self.schedule, n, m))
        return self._scales[key]


def _sample_distinct(n: int, k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, k) ids below n: draws of k ids, keeping only the draws whose
    ids are distinct."""
    if n < k:
        raise ValueError(f"cannot draw {k} distinct ids below {n}")
    rows = []
    while len(rows) < count:
        ids = rng.integers(0, n, k)
        if len(set(ids.tolist())) == k:
            rows.append(ids)
    return np.array(rows, dtype=np.int64).reshape(-1, k)


def chain_check(cache: ScaleCache, n_max: int, pair_samples: int = 40,
                seed: int = 0) -> dict:
    """Fitted constants of the two-scale chaining inequalities.

    For every 0 <= m < n <= n_max and sampled x, y in the level-m corner set:
      C1:  R_n(x,y) <= C R_m(x,y) (Pt)_{n,m}
      C1b: R_m(x,y) (TB)_{n,m} <= C R_n(x,y)
      C2:  (Pt)_{n,m} <= C (TB)_{n,m}   (and (Pt) >= (TB) with constant 1)
      C3:  (Pt)_n <= C (Pt)_m (Pt)_{n,m}
    Constants are reported per n (using all m < n) so stability across
    levels is visible.
    """
    if n_max < 1:
        raise ValueError(f"chain_check needs n_max >= 1 (n_max = {n_max})")
    if pair_samples < 1:
        raise ValueError(f"chain_check needs pair_samples >= 1 (pair_samples = {pair_samples})")
    per_n: Dict[int, Dict[str, float]] = {}
    pt_ge_tb = True
    for n in range(1, n_max + 1):
        cg_n = cache.graph(n)
        c1 = c1b = c2 = c3 = 0.0
        for m in range(0, n):
            sc_nm = cache.scales(n, m)
            sc_n = cache.scales(n, 0)
            sc_m = cache.scales(m, 0) if m > 0 else ResistanceScales(0, 0, 1.0, 1.0, 0, 0)
            if sc_nm.pt < sc_nm.tb * (1 - 1e-9):
                pt_ge_tb = False
            c2 = max(c2, sc_nm.pt / sc_nm.tb)
            c3 = max(c3, sc_n.pt / (sc_m.pt * sc_nm.pt))
            cg_m = cache.graph(m)
            f = 3 ** (n - m)
            va, vb = _sample_distinct(cg_m.graph.n, 2, pair_samples,
                                      np.random.default_rng(seed + 97 * n + m)).T
            r_m = cg_m.graph.grounded_solver().pair_resistances(va, vb)
            r_n = cg_n.graph.grounded_solver().pair_resistances(
                cg_n.vertex_at(*(f * cg_m.grid[va].T)), cg_n.vertex_at(*(f * cg_m.grid[vb].T)))
            c1 = max(c1, float(np.max(r_n / (r_m * sc_nm.pt), initial=0.0)))
            c1b = max(c1b, float(np.max(r_m * sc_nm.tb / r_n, initial=0.0)))
        per_n[n] = {"C1": c1, "C1b": c1b, "C2": c2, "C3": c3}
    overall = {key: max(per_n[n][key] for n in per_n if per_n[n][key] > 0)
               for key in ("C1", "C1b", "C2", "C3")}
    return {"per_n": per_n, "constants": overall, "pt_ge_tb": pt_ge_tb}


# pure (Pt) levels behind rho_hat and the plus-sign factor
PURE_LEVELS = 5


def evres_fit(sc: ScaleCache, vicsek: ScaleCache, mixed: ScaleCache, n_max: int = 5) -> dict:
    """Isolate the per-level resistance factors and fit the product model.

    `sc`, `vicsek` and `mixed` hold the scales of the pure carpet, pure
    plus-sign and mixed schedules.  rho_hat is the pure-carpet ratio
    (Pt)_PURE_LEVELS / (Pt)_{PURE_LEVELS - 1}; the plus-sign factor
    (Pt)_{n+1} / (Pt)_n, n < PURE_LEVELS, is checked against 3; the
    switch-constant bracket [Ca, Cb] is fitted on the mixed pairs with
    k2 >= 1, n <= n_max, and the model log (Pt) = k1 log rho_hat +
    (n - m - k1) log 3 + k2 log sqrt(Ca Cb) is compared with every pair:
    its largest residual against the band width log(Cb / Ca).
    """
    rho_hat = sc.pt(PURE_LEVELS) / sc.pt(PURE_LEVELS - 1)
    vs_pt = [vicsek.pt(n) for n in range(1, PURE_LEVELS + 1)]
    log_rho = math.log(rho_hat)
    log3 = math.log(3.0)
    switch_logs = []
    pairs = []
    for n in range(1, n_max + 1):
        for m in range(0, n):
            s = mixed.scales(n, m)
            base = s.k1 * log_rho + (n - m - s.k1) * log3
            pairs.append((s, base))
            if s.k2 >= 1:
                switch_logs.append((math.log(s.pt) - base) / s.k2)
    log_ca, log_cb = (min(switch_logs), max(switch_logs)) if switch_logs else (0.0, 0.0)
    log_mid = 0.5 * (log_ca + log_cb)
    return {
        "rho_hat": rho_hat,
        "vicsek_factor_error": max(abs(b / a - 3.0) / 3.0 for a, b in zip(vs_pt, vs_pt[1:])),
        "max_abs_residual": max(abs(math.log(s.pt) - (base + s.k2 * log_mid)) for s, base in pairs),
        "band_log_width": log_cb - log_ca,
    }


@dataclass
class QSDiagnostic:
    t_values: np.ndarray
    ratios: np.ndarray
    envelope: np.ndarray
    triples: List = field(default_factory=list)


# the level whose corner points `qs_diagnostic` samples
SAMPLE_LEVEL = 2


def qs_diagnostic(cache: ScaleCache, n: int, samples: int = 300, seed: int = 0,
                  triples: Optional[List] = None) -> QSDiagnostic:
    """Scatter of renormalized-resistance vs Euclidean annulus ratios.

    Triples (x, y, z) are corner points of SAMPLE_LEVEL cells; the least
    nondecreasing envelope of ratio against t = d(x,y)/d(x,z) is the
    finite-sample distortion function.
    """
    if n < SAMPLE_LEVEL:
        raise ValueError(f"qs_diagnostic needs n >= sample_level (n = {n}, "
                         f"sample_level = {SAMPLE_LEVEL})")
    if samples < 1:
        raise ValueError(f"qs_diagnostic needs samples >= 1 (samples = {samples})")
    cg = cache.graph(n)
    pt_n = cache.pt(n, 0)
    coarse = cache.graph(SAMPLE_LEVEL)
    f = 3 ** (n - SAMPLE_LEVEL)
    if triples is None:
        ids = _sample_distinct(coarse.graph.n, 3, samples, np.random.default_rng(seed))
        triples = [tuple(map(tuple, t)) for t in coarse.grid[ids].tolist()]
    span = float(coarse.span)
    ts = [math.hypot((ax - bx) / span, (ay - by) / span)
          / math.hypot((ax - cx) / span, (ay - cy) / span)
          for (ax, ay), (bx, by), (cx, cy) in triples]
    corners = f * np.array(triples, dtype=np.int64).reshape(-1, 3, 2)
    va, vb, vc = (cg.vertex_at(*corners[:, k].T) for k in range(3))
    r = cg.graph.grounded_solver().pair_resistances(np.concatenate([va, va]),
                                                    np.concatenate([vb, vc])) / pt_n
    ratios = r[:len(va)] / r[len(va):]
    order = np.argsort(ts)
    t_arr = np.asarray(ts)[order]
    r_arr = ratios[order]
    env = np.maximum.accumulate(r_arr)
    return QSDiagnostic(t_values=t_arr, ratios=r_arr, envelope=env,
                        triples=list(triples))


def qs_envelope_drift(d1: QSDiagnostic, d2: QSDiagnostic) -> float:
    """Max relative envelope change on the shared t-grid (same triples)."""
    if len(d1.envelope) != len(d2.envelope):
        raise ValueError("diagnostics were not built on the same triples")
    return float(np.max(np.abs(d2.envelope / d1.envelope - 1.0)))


# gap-report sizes: hierarchy depths of the volume and heat windows, the
# p-energy levels of d2s, and the levels of the dim_ARC search
DEPTH_SC = DEPTH_VICSEK = 4
KMAX_SC = KMAX_VICSEK = 5
DIM_ARC_KMAX = 4


def _row(route: str, schedule: str, quantity: str, a: Optional[int] = None,
         b: Optional[int] = None, value: Optional[float] = None, lower: Optional[float] = None,
         upper: Optional[float] = None, flag: Optional[str] = None,
         uncertified: Optional[int] = None) -> dict:
    return {"route": route, "schedule": schedule, "quantity": quantity, "a": a, "b": b,
            "value": value, "lower": lower, "upper": upper, "flag": flag,
            "uncertified": uncertified}


def gap_report(sc: ScaleCache, vicsek: ScaleCache, rho_hat: float,
               seed: int = 0) -> Tuple[List[dict], List[dict]]:
    """The dimension-gap estimates as rows, and the ordering checks on them.

    `sc` and `vicsek` hold the scales of the pure carpet and plus-sign
    schedules, and rho_hat is the carpet resistance factor of `evres_fit`.
    A row holds one estimate: its route, schedule and quantity, the window
    (a, b) of levels it reads, its value or its bracket [lower, upper], and
    the flag and uncertified-energy count of the solve behind it; None marks
    a missing cell.  The closed forms and N* read no window of levels.

    The asymptotic pointwise dimension of the mixed space is never asserted:
    desk-scale windows cannot reach the regime where the long carpet blocks
    dominate, so no row has the mixed schedule.
    """
    from .heat import build_form, ol_ds_heat
    from .measure import hier_measure, olds_volume
    from .penergy import SupSweep, critical_p

    h_sc = build_hierarchy(sc.schedule, max(DEPTH_SC + 2, KMAX_SC + 1))
    h_vs = build_hierarchy(vicsek.schedule, max(DEPTH_VICSEK + 2, KMAX_VICSEK + 1))
    m_sc = hier_measure(h_sc)
    m_vs = hier_measure(h_vs)

    d2s_sc = SupSweep(h_sc, range(1, KMAX_SC + 1)).spectral_dims()
    d2s_vs = SupSweep(h_vs, range(1, KMAX_VICSEK + 1)).spectral_dims()

    vol_sc = olds_volume(m_sc, math.log(rho_hat), window=list(range(1, DEPTH_SC)), seed=seed)
    vol_vs = olds_volume(m_vs, math.log(3.0), window=list(range(1, DEPTH_VICSEK + 1)),
                         seed=seed)

    hk_sc = ol_ds_heat(build_form(h_sc, DEPTH_SC, m_sc, sc.pt(DEPTH_SC)))
    hk_vs = ol_ds_heat(build_form(h_vs, DEPTH_VICSEK, m_vs, vicsek.pt(DEPTH_VICSEK)))
    heat_sc, heat_vs = hk_sc["estimate"], hk_vs["estimate"]

    arc = critical_p(h_sc, DIM_ARC_KMAX)
    interval = arc["interval"]

    vic_ref = 2.0 * math.log(5.0) / (math.log(3.0) + math.log(5.0))
    tw = 1.0 + math.log(2.0) / math.log(3.0)

    s, v = sc.schedule.name, vicsek.schedule.name
    rows = [
        _row("volume", s, "ds", 1, DEPTH_SC - 1, vol_sc["ds_estimate"]),
        _row("volume", v, "ds", 1, DEPTH_VICSEK, vol_vs["ds_estimate"]),
        _row("heat", s, "ds", DEPTH_SC, DEPTH_SC, heat_sc, flag=hk_sc["flag"]),
        _row("heat", v, "ds", DEPTH_VICSEK, DEPTH_VICSEK, heat_vs, flag=hk_vs["flag"]),
        *(_row("separation", name, "d2s", 1, kmax, est.dim_ls, est.dim_lower, est.dim_upper,
               est.flag, est.uncertified)
          for name, kmax, est in ((s, KMAX_SC, d2s_sc), (v, KMAX_VICSEK, d2s_vs))),
        _row("separation", s, "dim_arc", 1, DIM_ARC_KMAX, lower=interval[0], upper=interval[1],
             flag=arc["flag"], uncertified=sum(r["uncertified"] for r in arc["rates"])),
        _row("branching", s, "n_star", value=d2s_sc.n_star),
        _row("branching", v, "n_star", value=d2s_vs.n_star),
        _row("resistance", s, "rho", PURE_LEVELS - 1, PURE_LEVELS, rho_hat),
        # 1 + log2/log3 bounds dim_ARC(SC) below: the carpet holds (Cantor set) x [0, 1]
        _row("closed-form", s, "dim_arc", lower=tw),
        _row("closed-form", v, "ds", value=vic_ref),
    ]
    checks = [
        {"id": "gap-ordering-left", "description": "Vicsek-window ds < 1.5",
         "value": vol_vs["ds_estimate"], "pass": vol_vs["ds_estimate"] < 1.5},
        {"id": "gap-ordering-right", "description": "1.5 < 1 + log2/log3",
         "value": tw, "pass": 1.5 < tw},
        {"id": "vicsek-ds-near-reference",
         "description": "Vicsek window ds within 0.1 of 2log5/log15",
         "value": vol_vs["ds_estimate"],
         "pass": abs(vol_vs["ds_estimate"] - vic_ref) <= 0.1},
        {"id": "sc-window-below-2", "description": "SC window dim estimates < 2",
         "value": max(heat_sc, vol_sc["ds_estimate"], d2s_sc.dim_ls),
         "pass": max(heat_sc, vol_sc["ds_estimate"], d2s_sc.dim_ls) < 2.0},
        {"id": "d2s-vs-heat-sc", "description": "d2s <= ds(heat) + 0.1 on the carpet",
         "value": d2s_sc.dim_ls - heat_sc, "pass": d2s_sc.dim_ls <= heat_sc + 0.1},
        {"id": "d2s-vs-heat-vicsek", "description": "d2s <= ds(heat) + 0.1 on the plus-sign set",
         "value": d2s_vs.dim_ls - heat_vs, "pass": d2s_vs.dim_ls <= heat_vs + 0.1},
        {"id": "dim-arc-lower", "description": "dim_ARC interval lower end >= 1",
         "value": interval[0], "pass": interval[0] >= 1.0},
        {"id": "dim-arc-below-2", "description": "dim_ARC interval upper end < 2",
         "value": interval[1], "pass": interval[1] < 2.0},
    ]
    return rows, checks
