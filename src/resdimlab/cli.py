"""Configuration-driven experiment runner.

Each subcommand materializes its artifacts (CSV/JSON) in the output
directory together with a manifest that lists every executed check with a
stable id and a pass flag, and records the config and the environment.
Exit code 0 means every executed check passed.  Every file is written here,
by `_write_csv` or `_write_json`; the library modules only return rows and
dicts.  JSON files write a float as its shortest repr that reads back to the
same double, CSV files at 17 significant digits, so identical configs give
identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy

from . import __version__, heat
from . import hierarchy as hmod
from . import measure as mmod
from . import mixedcarpet as xmod
from . import penergy as pmod
from . import resnet as rmod

__all__ = ["ExperimentConfig", "run", "main"]


def _fmt(x) -> object:
    """NaN and inf as the strings "nan", "inf", "-inf", so they stay valid JSON
    and apart from a missing value (null); every other value as it is."""
    if isinstance(x, float) and not math.isfinite(x):
        return str(float(x))
    return x


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.generic):
        return _fmt(obj.item())
    return _fmt(obj)


@dataclass(frozen=True)
class Param:
    """How a command reads one parameter: `kind` is the JSON type of its value
    ([t] for a list of t), an int lies in lo..hi and a str among `choices`.  A
    default or bound may be a function of the config, called once the
    parameters before it are settled.  With `reach` set, the command builds
    schedule level value + reach.  With `flag` False, only --config sets it."""
    kind: object
    default: object = None
    lo: object = None
    hi: object = None
    choices: Tuple[str, ...] = ()
    reach: Optional[int] = None
    flag: bool = True


_SCHEDULE = {"f_table": Param([int], flag=False),
             "structure": Param(str, lambda c: "sc" if c.f_table is None else None,
                                choices=("sc", "vicsek", "mixed"))}
_RUN = {"seed": Param(int, 0, 0, math.inf),
        "out": Param(str, lambda c: os.environ.get("RESDIMLAB_OUT") or "resdimlab_out")}

# the parameters each command reads, settled in this order
PARAMS: Dict[str, Dict[str, Param]] = {
    "build": {**_SCHEDULE, "depth": Param(int, 3, 0, 7, reach=0), **_RUN},
    "resist": {**_SCHEDULE, "n": Param(int, 2, 1, 7, reach=0), **_RUN},
    "penergy": {**_SCHEDULE, "depth": Param(int, 3, 3, 7, reach=0),
                "kmax": Param(int, lambda c: min(4, c.depth - 1), 2, lambda c: c.depth - 1),
                "p_grid": Param([float], [1.5, 2.0]), **_RUN},
    "dims": {**_SCHEDULE, "depth": Param(int, 3, 2, 7, reach=1),
             "kmax": Param(int, 4, 2, 6, reach=1), **_RUN},
    "heat": {**_SCHEDULE, "depth": Param(int, 3, 1, 7, reach=0), **_RUN},
    "mixed": {"depth": Param(int, 5, 3, 5),
              "report": Param(str, "gap", choices=("gap", "none")), **_RUN},
    "validate": _RUN,
}


class ExperimentConfig(SimpleNamespace):
    """A command and the values given for the parameters it reads; `validate`
    settles every one of them, a default for each value not given."""

    def __init__(self, command: str, **values):
        if command not in PARAMS:
            raise ValueError(f"unknown command {command!r}")
        unread = sorted(k for k, v in values.items()
                        if v is not None and k not in PARAMS[command])
        if unread:
            raise ValueError(f"{command} does not read {', '.join(unread)}")
        if values.get("structure") is not None and values.get("f_table") is not None:
            raise ValueError("give structure or f_table, not both")
        super().__init__(command=command, **values)

    def validate(self) -> None:
        params = PARAMS[self.command]
        for name, p in params.items():
            value = getattr(self, name, None)
            if value is None:
                value = p.default(self) if callable(p.default) else p.default
            setattr(self, name, value)
            if value is None:
                continue
            kind, items = (p.kind[0], value) if isinstance(p.kind, list) else (p.kind, [value])
            accept = (int, float) if kind is float else kind  # a bool is no number
            if not isinstance(items, list) or any(isinstance(v, bool) or not isinstance(v, accept)
                                                  for v in items):
                raise ValueError(f"{name} must be of type {'list of ' if items is value else ''}"
                                 f"{kind.__name__}, got {value!r}")
            if p.kind == [float]:  # a JSON integer entry is read as a float
                setattr(self, name, [float(v) for v in value])
            if p.choices and value not in p.choices:
                raise ValueError(f"{name} must be one of {', '.join(p.choices)}")
            lo, hi = (b(self) if callable(b) else b for b in (p.lo, p.hi))
            if lo is not None and not lo <= value <= hi:
                raise ValueError(f"{name} must be in {lo}..{hi} for {self.command}")
        if "p_grid" in params and not self.p_grid:
            raise ValueError("p grid must hold at least one exponent")
        if "p_grid" in params and not all(math.isfinite(p) and p >= 1 for p in self.p_grid):
            raise ValueError("p grid entries must be finite and >= 1")
        levels = [getattr(self, k) + p.reach for k, p in params.items() if p.reach is not None]
        horizon = self.schedule().horizon if levels else None
        if horizon is not None and max(levels) > horizon:
            raise ValueError(f"schedule {self.schedule().name} defined only up to level {horizon}")

    def schedule(self) -> hmod.Schedule:
        if self.f_table is not None:
            return hmod.Schedule.from_table(self.f_table)
        return hmod.Schedule.by_name(self.structure)


def _write_csv(path: str, header: Sequence[str], rows: Iterable) -> None:
    """A row is a sequence in header order or a dict keyed by the header;
    floats are written at 17 significant digits, None as an empty cell and
    every other value as it is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if isinstance(row, dict):
                row = [row[k] for k in header]
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def _write_scales(outdir: str, cache: xmod.ScaleCache,
                  pairs: Iterable[Tuple[int, int]]) -> List[xmod.ResistanceScales]:
    """scales.csv: one row of `cache.scales(n, m)` per (n, m) of `pairs`."""
    scales = [cache.scales(n, m) for n, m in pairs]
    _write_csv(os.path.join(outdir, "scales.csv"), ["n", "m", "TB", "Pt", "k1", "k2"],
               ([s.n, s.m, s.tb, s.pt, s.k1, s.k2] for s in scales))
    return scales


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_sanitize(obj), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _check(cid: str, description: str, value, ok: bool) -> dict:
    return {"id": cid, "description": description, "value": _fmt(value), "pass": bool(ok)}


# -- commands ----------------------------------------------------------------

def _cmd_build(cfg: ExperimentConfig, outdir: str) -> List[dict]:
    h = hmod.build_hierarchy(cfg.schedule(), cfg.depth)
    params = hmod.validate_framework(h, seed=cfg.seed)
    _write_json(os.path.join(outdir, f"cells_level{cfg.depth}.json"), h.cells_json(cfg.depth))
    words = [h.address_words(n) for n in range(cfg.depth + 1)]
    _write_csv(os.path.join(outdir, "edges.csv"), ["level", "w", "v"],
               ((n, words[n][i], words[n][j])
                for n in range(cfg.depth + 1) for i, j in hmod.adjacency(h, n).edges.tolist()))
    _write_json(os.path.join(outdir, "framework.json"), {
        "zeta": str(params.zeta), "xi": str(params.xi), "m_star": params.m_star,
        "l_star": params.l_star, "n_star": params.n_star,
        "diam_ratio": params.diam_ratio, "b3_band": list(params.b3_band),
        "b3_band_ratio": params.b3_band_ratio, "b3_samples": params.b3_samples,
        "violations": params.violations,
    })
    expected = 1
    for n in range(1, cfg.depth + 1):
        expected *= h.schedule.branching(n)
    return [
        _check("hierarchy-partition-count", "cell count equals branching product",
               h.levels[cfg.depth].count, h.levels[cfg.depth].count == expected),
        _check("hierarchy-b1-diam", "diameter ratio is sqrt(2) exactly",
               params.diam_ratio, abs(params.diam_ratio - math.sqrt(2)) < 1e-15),
        _check("hierarchy-framework-violations", "no framework violations",
               len(params.violations), not params.violations),
        _check("hierarchy-b3-band", "chain comparison band is finite",
               params.b3_band_ratio, math.isfinite(params.b3_band_ratio)),
    ]


def _cmd_resist(cfg: ExperimentConfig, outdir: str) -> List[dict]:
    sched = cfg.schedule()
    scales = _write_scales(outdir, xmod.ScaleCache(sched), [(n, 0) for n in range(1, cfg.n + 1)])
    checks = [
        _check("mixed-pt-ge-tb", "(Pt) >= (TB) on every computed pair",
               min(s.pt - s.tb for s in scales),
               all(s.pt >= s.tb - 1e-9 for s in scales)),
        _check("mixed-pt-monotone", "(Pt)_n strictly increasing",
               scales[-1].pt,
               all(b.pt > a.pt for a, b in zip(scales, scales[1:]))),
    ]
    if sched.name == "vicsek":
        err = max(abs(s.pt - 3.0 ** s.n) / 3.0 ** s.n for s in scales)
        checks.append(_check("mixed-vicsek-purity", "(Pt)_k = 3^k within 1e-6", err, err <= 1e-6))
    return checks


def _cmd_penergy(cfg: ExperimentConfig, outdir: str) -> List[dict]:
    h = hmod.build_hierarchy(cfg.schedule(), cfg.depth)
    sweep = pmod.SupSweep(h, range(1, cfg.kmax + 1))
    words = h.address_words(1)
    rows = []
    for p in cfg.p_grid:
        for k, (cell, val) in zip(sweep.ks, sweep.sups(p)):
            rows.append({"p": p, "k": k, "sup_energy": val.value, "argmax_cell": words[cell],
                         "flag": val.flag, "lower": val.lower, "upper": val.upper,
                         "residual": val.residual})
    _write_csv(os.path.join(outdir, "rates.csv"),
               ["p", "k", "sup_energy", "argmax_cell", "flag", "lower", "upper", "residual"],
               rows)
    est = sweep.spectral_dims()
    _write_json(os.path.join(outdir, "p_spectral.json"), {
        "p": 2.0, "rate_ls": est.rate_ls, "rate_limsup": est.rate_limsup,
        "rate_liminf": est.rate_liminf, "n_star": est.n_star,
        "dim_upper": est.dim_upper, "dim_lower": est.dim_lower, "flag": est.flag,
        "uncertified": est.uncertified,
    })
    # p = 2 energy equals effective conductance on the same graph
    j = sweep.ks.index(2)
    i = next((i for i, prob in enumerate(sweep.problems[j]) if not prob.empty_outer), None)
    if i is None:
        raise RuntimeError("no level-1 cell has a nonempty outer set")
    prob, e2 = sweep.problems[j][i], sweep.values(2.0)[j][i].value
    g = rmod.LevelGraph(prob.n_cells, np.column_stack([prob.edges, np.ones(len(prob.edges))]))
    cond = 1.0 / rmod.eff_resistance(g, list(prob.inner), list(prob.outer)).value
    vals = [sweep.values(p)[j][i].value for p in sorted(set(cfg.p_grid))]
    mono_ok = all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    uncertified = sum(row["flag"] == "no-convergence" for row in rows)
    return [
        _check("penergy-certified", "every rates.csv sup energy certified or empty-outer",
               uncertified, all(row["flag"] in ("ok", "empty-outer") for row in rows)),
        _check("penergy-p2-conductance", "p=2 energy equals effective conductance",
               abs(e2 - cond), abs(e2 - cond) <= 1e-9 * max(cond, 1.0)),
        _check("penergy-monotone-p", "energies nonincreasing in p",
               vals[-1], mono_ok),
        _check("penergy-dims-finite", "p-spectral dimensions finite",
               est.dim_upper, math.isfinite(est.dim_upper) and math.isfinite(est.dim_lower)),
    ]


def _cmd_dims(cfg: ExperimentConfig, outdir: str) -> List[dict]:
    sched = cfg.schedule()
    depth = cfg.depth
    h = hmod.build_hierarchy(sched, max(depth + 1, cfg.kmax + 1))
    meas = mmod.hier_measure(h)
    cache = xmod.ScaleCache(sched)
    pt = [cache.pt(n, 0) for n in range(1, depth + 1)]
    zeta_log = math.log(pt[-1] / pt[-2])
    vol = mmod.olds_volume(meas, zeta_log, window=list(range(1, depth + 1)), seed=cfg.seed)
    est = pmod.SupSweep(h, range(1, cfg.kmax + 1)).spectral_dims()
    hk = heat.ol_ds_heat(heat.build_form(h, depth, meas, pt[-1]))
    d2s, heat_ds = est.dim_ls, hk["estimate"]
    profile_level = min(depth, 3)
    prof = mmod.h_profile(meas, cache.graph(profile_level),
                          cache.pt(profile_level, 0))
    _write_csv(os.path.join(outdir, "profiles.csv"),
               ["x_id", "r", "V_lo", "V_hi", "olR", "h_lo", "h_hi"], prof["rows"])
    _write_json(os.path.join(outdir, "dims.json"), {
        "structure": sched.name, "depth": depth,
        "volume_ds": vol["ds_estimate"], "volume_ds_sup_window": vol["ds_sup_window"],
        "volume_sup_window_violations": vol["sup_window_violations"],
        "heat_ds": heat_ds, "heat_flag": hk["flag"], "d2s": d2s,
        "d2s_flag": est.flag, "d2s_uncertified": est.uncertified,
        "zeta_r_log": zeta_log, "pt_table": pt,
    })
    vals = [vol["ds_estimate"], heat_ds, d2s]
    return [
        _check("measure-h-monotone", "h profile nondecreasing with gamma2 fitted",
               prof["gamma2"], prof["monotone"] and prof["gamma2"] is not None),
        _check("dims-below-2", "every dimension estimate < 2", max(vals),
               all(v < 2.0 for v in vals)),
        _check("heat-volume-agree", "heat and volume routes within 0.1",
               abs(heat_ds - vol["ds_estimate"]),
               abs(heat_ds - vol["ds_estimate"]) <= 0.1),
        _check("d2s-vs-heat", "d2s <= heat ds + 0.1",
               d2s - heat_ds, d2s <= heat_ds + 0.1),
    ]


def _cmd_heat(cfg: ExperimentConfig, outdir: str) -> List[dict]:
    sched = cfg.schedule()
    h = hmod.build_hierarchy(sched, cfg.depth)
    meas = mmod.hier_measure(h)
    cache = xmod.ScaleCache(sched)
    form = heat.build_form(h, cfg.depth, meas, cache.pt(cfg.depth, 0))
    t_lo, t_hi, t_mix = heat.time_window(form)
    times = np.geomspace(t_lo / 8, t_mix * 2, 40)
    P = form.p_diag(times)
    rng = np.random.default_rng(cfg.seed)
    xs = rng.integers(0, form.graph.n, size=min(10, form.graph.n))
    _write_csv(os.path.join(outdir, "heat_curves.csv"), ["level", "x_id", "t", "p"],
               ((cfg.depth, int(x), t, p) for x in xs for t, p in zip(times, P[int(x)])))
    floor = 1.0 / form.total_mass
    ck = heat.chapman_kolmogorov_error(form, cfg.seed)
    est = heat.ol_ds_heat(form)
    _write_json(os.path.join(outdir, "heat_estimate.json"), {
        "structure": sched.name, "level": cfg.depth, "estimate": est["estimate"],
        "window": list(est["window"]), "flag": est["flag"],
    })
    two = heat.FiniteDirichletForm(rmod.LevelGraph(2, [(0, 1, 1.0)]), [0.5, 0.5])
    terr = max(abs(v - (1 + math.exp(-4 * t)))
               for t, v in zip(times[:10], two.p_diag(times[:10], xs=[0])[0]))
    return [
        _check("heat-monotone", "p(t,x,x) strictly decreasing",
               float(np.max(np.diff(P, axis=1))), bool(np.all(np.diff(P, axis=1) < 0))),
        _check("heat-floor", "p >= 1/mu(X) - 1e-10", float(P.min() - floor),
               bool(P.min() >= floor - 1e-10)),
        _check("heat-chapman-kolmogorov", "CK identity within 1e-8", ck, ck <= 1e-8),
        _check("heat-two-state", "two-state closed form within 1e-12", terr, terr <= 1e-12),
    ]


def _cmd_mixed(cfg: ExperimentConfig, outdir: str) -> List[dict]:
    sc, vicsek, mixed = (xmod.ScaleCache(hmod.Schedule.by_name(name))
                         for name in ("sc", "vicsek", "mixed"))
    ch = xmod.chain_check(mixed, cfg.depth, pair_samples=25, seed=cfg.seed)
    _write_scales(outdir, mixed, [(n, m) for n in range(1, cfg.depth + 1) for m in range(n)])
    fit = xmod.evres_fit(sc, vicsek, mixed, n_max=cfg.depth)
    d4 = xmod.qs_diagnostic(mixed, cfg.depth - 1, samples=250, seed=cfg.seed)
    d5 = xmod.qs_diagnostic(mixed, cfg.depth, samples=250, seed=cfg.seed, triples=d4.triples)
    drift = xmod.qs_envelope_drift(d4, d5)
    _write_csv(os.path.join(outdir, "envelope.csv"), ["t", "ratio"], zip(d5.t_values, d5.ratios))
    checks = [
        _check("mixed-chain-finite", "chaining constants finite",
               max(ch["constants"].values()),
               all(math.isfinite(v) for v in ch["constants"].values())),
        _check("mixed-pt-ge-tb", "(Pt) >= (TB) on every pair", ch["pt_ge_tb"], ch["pt_ge_tb"]),
        _check("mixed-product-model-residual", "product-model residual within the fitted band",
               fit["max_abs_residual"],
               fit["max_abs_residual"] <= fit["band_log_width"] + 1e-9),
        _check("mixed-vicsek-purity", "pure plus-sign factor = 3 within 1e-6",
               fit["vicsek_factor_error"], fit["vicsek_factor_error"] <= 1e-6),
        _check("mixed-qs-drift", "envelope drift <= 10% between the top levels",
               drift, drift <= 0.10),
        _check("mixed-rho-hat-recorded", "stabilized carpet resistance factor",
               fit["rho_hat"], math.isfinite(fit["rho_hat"])),
    ]
    if cfg.report == "gap":
        rows, gap_checks = xmod.gap_report(sc, vicsek, fit["rho_hat"], seed=cfg.seed)
        _write_csv(os.path.join(outdir, "windows.csv"),
                   ["route", "schedule", "quantity", "a", "b", "value", "lower", "upper",
                    "flag", "uncertified"], rows)
        checks.extend(_check(c["id"], c["description"], c["value"], c["pass"])
                      for c in gap_checks)
    return checks


def _cmd_validate(cfg: ExperimentConfig, outdir: str) -> List[dict]:
    checks: List[dict] = []
    for sub, override in (("build", {"structure": "sc", "depth": 3}),
                          ("resist", {"structure": "vicsek", "n": 3}),
                          ("heat", {"structure": "vicsek", "depth": 2}),
                          ("penergy", {"structure": "vicsek", "depth": 4,
                                       "kmax": 3, "p_grid": [1.5, 2.0]})):
        sub_cfg = ExperimentConfig(command=sub, seed=cfg.seed, out=cfg.out, **override)
        sub_cfg.validate()
        subdir = os.path.join(outdir, sub)
        os.makedirs(subdir, exist_ok=True)
        checks.extend(_COMMANDS[sub](sub_cfg, subdir))
    # exact electrical identities
    g = rmod.LevelGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    r_cycle = rmod.eff_resistance(g, [0], [2]).value
    path = rmod.LevelGraph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    tr = rmod.trace(path, [0, 2])
    checks.append(_check("resnet-exact-identities",
                         "4-cycle corner resistance 1 and series trace 1/2",
                         max(abs(r_cycle - 1.0), abs(tr.conductance[0] - 0.5)),
                         abs(r_cycle - 1.0) <= 1e-10 and abs(tr.conductance[0] - 0.5) <= 1e-10))
    return checks


_COMMANDS = {
    "build": _cmd_build,
    "resist": _cmd_resist,
    "penergy": _cmd_penergy,
    "dims": _cmd_dims,
    "heat": _cmd_heat,
    "mixed": _cmd_mixed,
    "validate": _cmd_validate,
}


def _env() -> dict:
    """The versions, LAPACK and usable cores behind a run's numbers."""
    lapack = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "resdimlab": __version__,
            "lapack": {"name": lapack["name"], "version": lapack["version"]},
            "cores": len(os.sched_getaffinity(0))}


def run(cfg: ExperimentConfig) -> dict:
    """Execute one command; returns the manifest (also written to disk)."""
    cfg.validate()
    outdir = cfg.out
    os.makedirs(outdir, exist_ok=True)
    checks = _COMMANDS[cfg.command](cfg, outdir)
    manifest = {
        "command": cfg.command,
        "config": {k: _fmt(v) for k, v in vars(cfg).items() if v is not None},
        "env": _env(),
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    _write_json(os.path.join(outdir, "manifest.json"), manifest)
    return manifest


class _Parser(argparse.ArgumentParser):
    """Raises the message argparse would print before exit 2."""

    def error(self, message: str):
        raise ValueError(message)


def _floats(text: str) -> List[float]:
    return [float(p) for p in text.split(",")]


def _parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="resdimlab", description="resistance and dimension estimators on "
                                               "square-based self-similar hierarchies")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, params in PARAMS.items():
        sp = sub.add_parser(command)
        sp.add_argument("--config", help="JSON config file; flags override it")
        for name, p in params.items():
            if p.flag:
                sp.add_argument("--" + name.replace("_", "-"),
                                type=p.kind if isinstance(p.kind, type) else _floats,
                                metavar="{" + ",".join(p.choices) + "}" if p.choices else None)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = {k: v for k, v in vars(_parser().parse_args(argv)).items() if v is not None}
        payload: Dict[str, object] = {}
        if "config" in args:
            with open(args.pop("config")) as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict):
                raise ValueError("config file must hold a JSON object")
        payload.update(args)
        manifest = run(ExperimentConfig(**payload))
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"command": manifest["command"],
                      "all_pass": manifest["all_pass"],
                      "checks": len(manifest["checks"])}))
    return 0 if manifest["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
