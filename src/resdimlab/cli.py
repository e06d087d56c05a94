"""Configuration-driven experiment runner.

Each subcommand materializes its artifacts (CSV/JSON) in the output
directory together with a manifest that lists every executed check with a
stable id and a pass flag.  Exit code 0 means every executed check passed.
Every file is written here, by `_write_csv` or `_write_json`; the library
modules only return rows and dicts.  Floats are formatted with 17
significant digits so identical configs give identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from . import hierarchy as hmod
from . import measure as mmod
from . import mixedcarpet as xmod
from . import penergy as pmod
from . import resnet as rmod

__all__ = ["ExperimentConfig", "run", "main"]


def _fmt(x) -> object:
    """17 significant digits; NaN and inf as the strings "nan", "inf", "-inf",
    so they stay valid JSON and apart from a missing value (null)."""
    if isinstance(x, float):
        if not math.isfinite(x):
            return str(float(x))
        return float(f"{x:.17g}")
    return x


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.generic):
        return _fmt(obj.item())
    return _fmt(obj)


@dataclass
class ExperimentConfig:
    command: str
    structure: str = "sc"
    depth: int = 3
    n: int = 2
    kmax: int = 4
    p_grid: List[float] = field(default_factory=lambda: [1.5, 2.0])
    seed: int = 0
    out: str = "resdimlab_out"
    report: str = "gap"
    f_table: Optional[List[int]] = None

    CAPS = {"depth": 7, "n": 7, "kmax": 6}
    CHOICES = {"structure": ("sc", "vicsek", "mixed"), "report": ("gap", "none")}
    # least value of each field a command can run with
    MINIMUMS = {"resist": {"n": 1}, "penergy": {"depth": 3, "kmax": 2},
                "dims": {"depth": 2, "kmax": 2}, "heat": {"depth": 1}, "mixed": {"depth": 3}}
    # deepest level of schedule() each command builds; mixed and validate build
    # their own schedules
    LEVELS = {"build": lambda c: c.depth, "resist": lambda c: c.n,
              "penergy": lambda c: c.depth, "dims": lambda c: max(c.depth, c.kmax) + 1,
              "heat": lambda c: c.depth}

    def validate(self) -> None:
        for f in fields(self):
            if not _has_type(getattr(self, f.name), f.type):
                raise ValueError(f"{f.name} must be of type {f.type}, "
                                 f"got {getattr(self, f.name)!r}")
        if self.command not in ("build", "resist", "penergy", "dims", "heat", "mixed", "validate"):
            raise ValueError(f"unknown command {self.command!r}")
        for name, allowed in self.CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {', '.join(allowed)}")
        if self.command in ("mixed", "validate") and (self.structure != "sc"
                                                      or self.f_table is not None):
            raise ValueError(f"{self.command} builds its own schedules; "
                             "it takes no structure or f_table")
        if self.depth < 0 or self.depth > self.CAPS["depth"]:
            raise ValueError(f"depth must be in 0..{self.CAPS['depth']}")
        if self.n < 0 or self.n > self.CAPS["n"]:
            raise ValueError(f"n must be in 0..{self.CAPS['n']}")
        if self.kmax < 1 or self.kmax > self.CAPS["kmax"]:
            raise ValueError(f"kmax must be in 1..{self.CAPS['kmax']}")
        for name, least in self.MINIMUMS.get(self.command, {}).items():
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least} for {self.command}")
        if not all(math.isfinite(p) and p >= 1 for p in self.p_grid):
            raise ValueError("p grid entries must be finite and >= 1")
        sched = self.schedule()
        level = self.LEVELS.get(self.command, lambda c: 0)(self)
        if sched.horizon is not None and level > sched.horizon:
            raise ValueError(f"schedule {sched.name} defined only up to level {sched.horizon}")

    def schedule(self) -> hmod.Schedule:
        if self.f_table is not None:
            return hmod.Schedule.from_table(self.f_table)
        return hmod.Schedule.by_name(self.structure)


def _has_type(value, annotation: str) -> bool:
    """Whether a config value (as loaded from JSON) fits a field annotation."""
    if annotation.startswith("Optional["):
        return value is None or _has_type(value, annotation[len("Optional["):-1])
    if annotation.startswith("List["):
        return isinstance(value, list) and all(_has_type(v, annotation[5:-1]) for v in value)
    if isinstance(value, bool):
        return False
    if annotation == "float":
        return isinstance(value, (int, float))
    return isinstance(value, {"int": int, "str": str}[annotation])


def _write_csv(path: str, header: Sequence[str], rows: Iterable) -> None:
    """A row is a sequence in header order or a dict keyed by the header;
    floats are written at 17 significant digits, every other value as it is."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if isinstance(row, dict):
                row = [row[k] for k in header]
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


_SCALES = ["n", "m", "TB", "Pt", "k1", "k2"]


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_sanitize(obj), fh, indent=1, sort_keys=True)
        fh.write("\n")


def _check(cid: str, description: str, value, ok: bool) -> dict:
    return {"id": cid, "description": description, "value": _fmt(value), "pass": bool(ok)}


# -- commands ----------------------------------------------------------------

def _cmd_build(cfg: ExperimentConfig, outdir: str) -> List[dict]:
    h = hmod.build_hierarchy(cfg.schedule(), cfg.depth)
    params = hmod.validate_framework(h)
    _write_json(os.path.join(outdir, f"cells_level{cfg.depth}.json"), h.cells_json(cfg.depth))
    words = [h.address_words(n) for n in range(cfg.depth + 1)]
    _write_csv(os.path.join(outdir, "edges.csv"), ["level", "w", "v"],
               ((n, words[n][i], words[n][j])
                for n in range(cfg.depth + 1) for i, j in hmod.adjacency(h, n).edges.tolist()))
    _write_json(os.path.join(outdir, "framework.json"), {
        "zeta": str(params.zeta), "xi": str(params.xi), "m_star": params.m_star,
        "l_star": params.l_star, "n_star": params.n_star,
        "diam_ratio": params.diam_ratio, "b3_band": list(params.b3_band),
        "b3_band_ratio": params.b3_band_ratio, "violations": params.violations,
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
    cache = xmod.ScaleCache(sched)
    rows = []
    for n in range(1, cfg.n + 1):
        s = cache.scales(n, 0)
        rows.append({"n": n, "m": 0, "TB": s.tb, "Pt": s.pt, "k1": s.k1, "k2": s.k2})
    _write_csv(os.path.join(outdir, "scales.csv"), _SCALES, rows)
    checks = [
        _check("mixed-pt-ge-tb", "(Pt) >= (TB) on every computed pair",
               min(r["Pt"] - r["TB"] for r in rows),
               all(r["Pt"] >= r["TB"] - 1e-9 for r in rows)),
        _check("mixed-pt-monotone", "(Pt)_n strictly increasing",
               rows[-1]["Pt"],
               all(b["Pt"] > a["Pt"] for a, b in zip(rows, rows[1:]))),
    ]
    if sched.name == "vicsek":
        err = max(abs(r["Pt"] - 3.0 ** r["n"]) / 3.0 ** r["n"] for r in rows)
        checks.append(_check("mixed-vicsek-purity", "(Pt)_k = 3^k within 1e-6", err, err <= 1e-6))
    return checks


def _cmd_penergy(cfg: ExperimentConfig, outdir: str) -> List[dict]:
    h = hmod.build_hierarchy(cfg.schedule(), cfg.depth)
    kmax = min(cfg.kmax, cfg.depth - 1)
    sweep = pmod.SupSweep(h, range(1, kmax + 1))
    rows = []
    for p in cfg.p_grid:
        for k, (cell, val) in zip(sweep.ks, sweep.sups(p)):
            rows.append({"p": p, "k": k, "sup_energy": val.value,
                         "argmax_cell": "".join(str(d) for d in h.address(1, cell)),
                         "flag": val.flag, "lower": val.lower, "upper": val.upper})
    _write_csv(os.path.join(outdir, "rates.csv"),
               ["p", "k", "sup_energy", "argmax_cell", "flag", "lower", "upper"], rows)
    est = sweep.spectral_dims(2.0)
    _write_json(os.path.join(outdir, "p_spectral.json"), {
        "p": est.p, "rate_ls": est.rate_ls, "rate_limsup": est.rate_limsup,
        "rate_liminf": est.rate_liminf, "n_star": est.n_star,
        "dim_upper": est.dim_upper, "dim_lower": est.dim_lower, "flag": est.flag,
        "uncertified": est.uncertified,
    })
    # p = 2 energy equals effective conductance on the same graph
    j = sweep.ks.index(min(2, kmax))
    i = next((i for i, prob in enumerate(sweep.problems[j]) if not prob.empty_outer), None)
    if i is None:
        raise RuntimeError("no level-1 cell has a nonempty outer set")
    prob, e2 = sweep.problems[j][i], sweep.values(2.0)[j][i].value
    g = rmod.LevelGraph(prob.n_cells, np.column_stack([prob.edges, np.ones(len(prob.edges))]))
    cond = 1.0 / rmod.eff_resistance(g, list(prob.inner), list(prob.outer)).value
    vals = [sweep.values(p)[j][i].value for p in sorted(set(cfg.p_grid))]
    mono_ok = all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    return [
        _check("penergy-p2-conductance", "p=2 energy equals effective conductance",
               abs(e2 - cond), abs(e2 - cond) <= 1e-9 * max(cond, 1.0)),
        _check("penergy-monotone-p", "energies nonincreasing in p",
               vals[-1] if vals else None, mono_ok),
        _check("penergy-dims-finite", "p-spectral dimensions finite",
               est.dim_upper, math.isfinite(est.dim_upper) and math.isfinite(est.dim_lower)),
    ]


def _cmd_dims(cfg: ExperimentConfig, outdir: str) -> List[dict]:
    from .heat import build_form, ol_ds_heat
    sched = cfg.schedule()
    depth = cfg.depth
    h = hmod.build_hierarchy(sched, max(depth + 1, cfg.kmax + 1))
    meas = mmod.hier_measure(h)
    cache = xmod.ScaleCache(sched)
    pt = [cache.pt(n, 0) for n in range(1, depth + 1)]
    zeta_log = math.log(pt[-1] / pt[-2]) if len(pt) >= 2 else math.log(3.0)
    vol = mmod.olds_volume(meas, zeta_log, window=list(range(1, depth + 1)), seed=cfg.seed)
    d2s = pmod.p_spectral_dims(h, 2.0, min(cfg.kmax, h.depth - 1)).dim_ls
    form = build_form(h, depth, meas, pt[-1])
    heat = ol_ds_heat(form)
    profile_level = min(depth, 3)
    prof = mmod.h_profile(meas, cache.graph(profile_level, 0),
                          cache.pt(profile_level, 0))
    _write_csv(os.path.join(outdir, "profiles.csv"),
               ["x_id", "r", "V_lo", "V_hi", "olR", "h_lo", "h_hi"], prof["rows"])
    _write_json(os.path.join(outdir, "dims.json"), {
        "structure": sched.name, "depth": depth,
        "volume_ds": vol["ds_estimate"], "volume_ds_sup_window": vol["ds_sup_window"],
        "heat_ds": heat["estimate"], "d2s": d2s,
        "zeta_r_log": zeta_log, "pt_table": pt,
    })
    vals = [vol["ds_estimate"], heat["estimate"], d2s]
    return [
        _check("measure-h-monotone", "h profile nondecreasing with gamma2 fitted",
               prof["gamma2"], prof["monotone"] and prof["gamma2"] is not None),
        _check("dims-below-2", "every dimension estimate < 2", max(vals),
               all(v < 2.0 for v in vals)),
        _check("heat-volume-agree", "heat and volume routes within 0.1",
               abs(heat["estimate"] - vol["ds_estimate"]),
               abs(heat["estimate"] - vol["ds_estimate"]) <= 0.1),
        _check("d2s-vs-heat", "d2s <= heat ds + 0.1",
               d2s - heat["estimate"], d2s <= heat["estimate"] + 0.1),
    ]


def _cmd_heat(cfg: ExperimentConfig, outdir: str) -> List[dict]:
    from .heat import (FiniteDirichletForm, build_form, ol_ds_heat, time_window,
                       chapman_kolmogorov_error)
    sched = cfg.schedule()
    h = hmod.build_hierarchy(sched, cfg.depth)
    meas = mmod.hier_measure(h)
    cache = xmod.ScaleCache(sched)
    form = build_form(h, cfg.depth, meas, cache.pt(cfg.depth, 0))
    t_lo, t_hi, t_mix = time_window(form)
    times = np.geomspace(t_lo / 8, t_mix * 2, 40)
    P = form.p_diag(times)
    rng = np.random.default_rng(cfg.seed)
    xs = rng.integers(0, form.graph.n, size=min(10, form.graph.n))
    _write_csv(os.path.join(outdir, "heat_curves.csv"), ["level", "x_id", "t", "p"],
               ((cfg.depth, int(x), t, p) for x in xs for t, p in zip(times, P[int(x)])))
    floor = 1.0 / form.total_mass
    ck = chapman_kolmogorov_error(form, n_samples=10, seed=cfg.seed)
    est = ol_ds_heat(form)
    _write_json(os.path.join(outdir, "heat_estimate.json"), {
        "structure": sched.name, "level": cfg.depth, "estimate": est["estimate"],
        "window": list(est["window"]), "flag": est["flag"],
    })
    two = FiniteDirichletForm(rmod.LevelGraph(2, [(0, 1, 1.0)]), [0.5, 0.5])
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
    sched = hmod.Schedule.mixed()
    cache = xmod.ScaleCache(sched)
    n_max = min(cfg.depth, 5)
    ch = xmod.chain_check(sched, n_max, pair_samples=25, seed=cfg.seed, cache=cache)
    _write_csv(os.path.join(outdir, "scales.csv"), _SCALES, ch["table"])
    fit = xmod.evres_fit(n_max=n_max, caches={"mixed": cache})
    d4 = xmod.qs_diagnostic(sched, n_max - 1, samples=250, seed=cfg.seed, cache=cache)
    d5 = xmod.qs_diagnostic(sched, n_max, samples=250, seed=cfg.seed, cache=cache,
                            triples=d4.triples)
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
        rep = xmod.gap_report(seed=cfg.seed, caches={"mixed": cache})
        _write_json(os.path.join(outdir, "dim_report.json"), asdict(rep))
        checks.extend(_check(c["id"], c["description"], c["value"], c["pass"])
                      for c in rep.checks)
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


def run(cfg: ExperimentConfig) -> dict:
    """Execute one command; returns the manifest (also written to disk)."""
    cfg.validate()
    outdir = cfg.out
    os.makedirs(outdir, exist_ok=True)
    checks = _COMMANDS[cfg.command](cfg, outdir)
    manifest = {
        "command": cfg.command,
        "config": {k: _fmt(v) for k, v in vars(cfg).items() if v is not None},
        "checks": checks,
        "all_pass": all(c["pass"] for c in checks),
    }
    _write_json(os.path.join(outdir, "manifest.json"), manifest)
    return manifest


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="resdimlab",
                                 description="resistance and dimension estimators on "
                                             "square-based self-similar hierarchies")
    sub = ap.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--structure", default=None,
                        choices=ExperimentConfig.CHOICES["structure"])
    common.add_argument("--depth", type=int, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--out", default=None)
    common.add_argument("--kmax", type=int, default=None)
    sub.add_parser("build", parents=[common])
    rp = sub.add_parser("resist", parents=[common])
    rp.add_argument("--n", type=int, default=None)
    pp = sub.add_parser("penergy", parents=[common])
    pp.add_argument("--p-grid", default=None, help="comma separated exponents")
    sub.add_parser("dims", parents=[common])
    sub.add_parser("heat", parents=[common])
    mp = sub.add_parser("mixed", parents=[common])
    mp.add_argument("--report", default=None, choices=ExperimentConfig.CHOICES["report"])
    sub.add_parser("validate", parents=[common])
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    payload: Dict[str, object] = {}
    try:
        if getattr(args, "config", None):
            with open(args.config) as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict):
                raise ValueError("config file must hold a JSON object")
        payload["command"] = args.command
        for key in ("structure", "depth", "seed", "out", "kmax", "n", "report"):
            val = getattr(args, key, None)
            if val is not None:
                payload[key] = val
        if getattr(args, "p_grid", None):
            payload["p_grid"] = [float(p) for p in args.p_grid.split(",")]
        env_out = os.environ.get("RESDIMLAB_OUT")
        if env_out and "out" not in payload:
            payload["out"] = env_out
        unknown = sorted(set(payload) - {f.name for f in fields(ExperimentConfig)})
        if unknown:
            raise ValueError(f"unknown config key(s) {', '.join(unknown)}")
        manifest = run(ExperimentConfig(**payload))  # type: ignore[arg-type]
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"command": manifest["command"],
                      "all_pass": manifest["all_pass"],
                      "checks": len(manifest["checks"])}))
    return 0 if manifest["all_pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
