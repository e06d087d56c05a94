"""The benchmark workloads: ordered steps, the values each step certifies, and
the comparison of those values against ``reference.json``.

A pass runs a workload's steps in order in one process: the next step starts
when the previous one has returned.  CLI steps go through ``resdimlab.cli.main`` with
README-style arguments; the other steps call the public library functions that
no CLI command reaches at these sizes.  Why each workload exists is in
NOTES.md.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional

# Tolerances pinned in tests/test_acceptance.py: criterion 02 (resistances)
# and criteria 06/12 (dimension estimates).  Never loosen them here.
RESISTANCE_RTOL = 1e-8
DIMENSION_ATOL = 0.05


@dataclass
class Outcome:
    """What a step produced: values to compare, and problems found on the way."""

    values: Dict[str, tuple] = field(default_factory=dict)   # key -> (kind, value)
    problems: List[str] = field(default_factory=list)
    uncertified: List[str] = field(default_factory=list)     # keys not compared


class Counters:
    """Count-only hooks on solver return values; they do no timing.

    A p_energy value is certified unless flagged ``no-convergence``; a grounded
    Laplacian solve that returns has passed its 1e-10 residual check.
    """

    def __init__(self):
        self.p_energy = 0
        self.p_uncertified = 0
        self.solves = 0

    def snapshot(self) -> Dict[str, int]:
        return {"p_energy": self.p_energy, "p_uncertified": self.p_uncertified,
                "solves": self.solves}

    def install(self, patcher) -> None:
        from resdimlab import penergy, resnet

        counters = self
        p_energy = penergy.p_energy
        solve = resnet._Grounded.solve

        @functools.wraps(p_energy)
        def counted_p_energy(*args, **kwargs):
            out = p_energy(*args, **kwargs)
            counters.p_energy += 1
            counters.p_uncertified += out.flag == "no-convergence"
            return out

        @functools.wraps(solve)
        def counted_solve(*args, **kwargs):
            out = solve(*args, **kwargs)
            counters.solves += 1
            return out

        patcher.rebind(p_energy, counted_p_energy)
        patcher.set_attr(resnet._Grounded, "solve", counted_solve)


class Context:
    """Per-run state handed to every step."""

    def __init__(self, workload: str, seed: int, outdir: str, reference: dict,
                 counters: Counters):
        self.workload = workload
        self.seed = seed
        self.outdir = outdir
        self.reference = reference
        self.counters = counters
        self.artifact_bytes = 0

    def step_dir(self, step: str) -> str:
        path = os.path.join(self.outdir, step)
        os.makedirs(path, exist_ok=True)
        return path


def _cli(ctx: Context, step: str, argv: List[str]) -> tuple:
    """Run one README-style CLI command; returns (out dir, Outcome with problems)."""
    from resdimlab import cli

    out = ctx.step_dir(step)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--seed", str(ctx.seed), "--out", out])
    outcome = Outcome()
    if code != 0:
        outcome.problems.append(f"exit code {code} {err.getvalue().strip()}")
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    outcome.problems += [f"check {c['id']} failed" for c in manifest["checks"] if not c["pass"]]
    for name in os.listdir(out):
        ctx.artifact_bytes += os.path.getsize(os.path.join(out, name))
    return out, outcome


# -- scales ---------------------------------------------------------------------

def _scales_step(step: str, argv: List[str]) -> "Step":
    """A CLI command whose scales.csv resistances are compared."""
    def run(ctx: Context) -> Outcome:
        out, outcome = _cli(ctx, step, argv)
        with open(os.path.join(out, "scales.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                for col in ("TB", "Pt"):
                    outcome.values[f"{col}[{row['n']},{row['m']}]"] = (
                        "resistance", float(row[col]))
        return outcome
    return Step(step, run)


# -- penergy --------------------------------------------------------------------

def penergy_cli(ctx: Context) -> Outcome:
    out, outcome = _cli(ctx, "penergy", ["penergy", "--structure", "sc", "--depth", "4",
                                         "--kmax", "3", "--p-grid", "1.3,2.0"])
    with open(os.path.join(out, "rates.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            # p = 2 energies are effective conductances, so exact linear solves;
            # no tolerance is pinned for p != 2 energies, so they are not compared
            if float(row["p"]) == 2.0:
                outcome.values[f"sup_energy[p=2,k={row['k']}]"] = (
                    "resistance", float(row["sup_energy"]))
    with open(os.path.join(out, "p_spectral.json")) as fh:
        est = json.load(fh)
    outcome.values["dim_upper"] = ("dimension", est["dim_upper"])
    outcome.values["dim_lower"] = ("dimension", est["dim_lower"])
    return outcome


def penergy_critical(ctx: Context) -> Outcome:
    from resdimlab import Schedule, build_hierarchy, critical_p

    before = ctx.counters.p_uncertified
    arc = critical_p(build_hierarchy(Schedule.pure_sc(), 4), kmax=3)
    outcome = Outcome()
    lo, hi = arc["interval"]
    outcome.values["interval_lo"] = ("dimension", lo)
    outcome.values["interval_hi"] = ("dimension", hi)
    if ctx.counters.p_uncertified > before:
        # the bisection read energies that did not converge
        outcome.uncertified += ["interval_lo", "interval_hi"]
    return outcome


# -- spectral -------------------------------------------------------------------

def spectral_heat(ctx: Context) -> Outcome:
    out, outcome = _cli(ctx, "heat", ["heat", "--structure", "vicsek", "--depth", "4"])
    with open(os.path.join(out, "heat_estimate.json")) as fh:
        outcome.values["estimate"] = ("dimension", json.load(fh)["estimate"])
    return outcome


def spectral_volume(ctx: Context) -> Outcome:
    from resdimlab import Schedule, build_hierarchy, doubling_check, hier_measure, olds_volume

    # log rho_hat is a fixed input, so no resistance solve runs in this step
    meas = hier_measure(build_hierarchy(Schedule.pure_sc(), 6))
    vol = olds_volume(meas, sc_log_rho(ctx.reference), window=[1, 2, 3, 4, 5],
                      samples=8, seed=ctx.seed)
    dbl = doubling_check(meas, samples=8, seed=ctx.seed)
    outcome = Outcome()
    outcome.values["ds_estimate"] = ("dimension", vol["ds_estimate"])
    outcome.values["ds_sup_window"] = ("dimension", vol["ds_sup_window"])
    if not (math.isfinite(dbl["doubling_constant"]) and dbl["doubling_constant"] >= 1.0):
        outcome.problems.append(f"doubling constant {dbl['doubling_constant']}")
    if dbl["gamma1"] is None:
        outcome.problems.append("no reverse-doubling factor found")
    return outcome


def spectral_psi(ctx: Context) -> Outcome:
    from resdimlab import Schedule, build_hierarchy, psi_measure

    psi = psi_measure(build_hierarchy(Schedule.pure_vicsek(), 6), Fraction(1, 2), 1)
    nb = psi.neighbor_comparability()
    gw = psi.growth_exponent(samples=10, seed=ctx.seed)
    outcome = Outcome()
    outcome.values["growth_exponent"] = ("dimension", gw["growth_exponent"])
    if nb["violations"]:
        outcome.problems.append(f"{nb['violations']} psi-neighbor violations")
    # criterion 12: growth within log(N* + eps) + 0.05
    if gw["growth_exponent"] > gw["bound"] + DIMENSION_ATOL:
        outcome.problems.append(f"growth {gw['growth_exponent']} above {gw['bound']} + 0.05")
    return outcome


def sc_log_rho(reference: dict) -> float:
    """log of the stabilized carpet factor (Pt)_5 / (Pt)_4 from the reference."""
    pts = reference["scales"]["resist-sc"]
    return math.log(pts["Pt[5,0]"]["value"] / pts["Pt[4,0]"]["value"])


@dataclass(frozen=True)
class Step:
    name: str
    run: Callable[[Context], Outcome]


WORKLOADS: Dict[str, List[Step]] = {
    "scales": [_scales_step("mixed", ["mixed", "--depth", "5", "--report", "none"]),
               _scales_step("resist-mixed", ["resist", "--structure", "mixed", "--n", "6"]),
               _scales_step("resist-sc", ["resist", "--structure", "sc", "--n", "5"])],
    "penergy": [Step("penergy", penergy_cli), Step("critical_p", penergy_critical)],
    "spectral": [Step("heat", spectral_heat), Step("volume", spectral_volume),
                 Step("psi", spectral_psi)],
}


def compare(outcome: Outcome, expected: Optional[dict]) -> List[str]:
    """Problems from comparing a step's certified values with the reference."""
    if expected is None:
        return ["no reference values for this step"]
    problems = []
    for key, ref in expected.items():
        if not ref["certified"] or key in outcome.uncertified:
            continue
        if key not in outcome.values:
            problems.append(f"{key}: missing")
            continue
        kind, got = outcome.values[key]
        want = ref["value"]
        if not isinstance(got, (int, float)) or not math.isfinite(got):
            ok = False
        elif kind == "resistance":
            ok = abs(got - want) <= RESISTANCE_RTOL * abs(want)
        else:
            ok = abs(got - want) <= DIMENSION_ATOL
        if not ok:
            problems.append(f"{key}: {got!r} drifted from the reference {want!r}")
    return problems
