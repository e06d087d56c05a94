"""Run one pass of a benchmark workload in a fresh process; print it as JSON.

run.py starts this script once per pass, with BLAS threads capped and the
checkout's ``src/`` on ``PYTHONPATH``, so every pass starts cold, as a CLI
command does.  With ``--record`` it instead runs every workload once and
rewrites ``reference.json`` from the outputs of the code it imports.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import sys
import traceback
from time import perf_counter

import numpy as np

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")


class Yardstick:
    """A fixed piece of reference work, run every INTERVAL_S while a pass runs.

    The shared host runs the whole VM up to about 1.5 times slower, in
    stretches of seconds to minutes.  The yardstick slows with it, so a pass's
    time divided by the mean yardstick time sampled during it measures the
    program, not the host.  It is an interpreted loop plus in-place numpy
    arithmetic on preallocated 4 MB arrays, two kinds of work every workload
    does.  It allocates nothing, so the heap the
    program leaves behind does not change its time.  (Sparse factorizations
    and multi-threaded eigh were tried as parts and tracked the host worse.)
    A SIGALRM timer runs it between bytecodes of the main thread, so it never
    runs alongside the program; its time is left out of step times.
    """

    INTERVAL_S = 0.2
    # Median yardstick time on the reference host (2-vCPU Xeon VM at 2.0 GHz,
    # Python 3.11.7, numpy 2.4.6) in a quiet period.
    REFERENCE_S = 0.019

    def __init__(self):
        self.a = np.random.default_rng(0).random(500_000)
        self.b = self.a[::-1].copy()
        self.c = np.empty_like(self.a)
        self.samples: list = []
        self.spent = 0.0
        self.time()  # warm-up: first-call costs are not host speed

    def time(self) -> float:
        a, b, c = self.a, self.b, self.c
        t0 = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(5):
            np.multiply(a, b, out=c)
            np.add(c, a, out=c)
        return perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(self.time())
        self.spent += perf_counter() - t0

    def __enter__(self) -> "Yardstick":
        self._tick(None, None)  # a pass however short has one sample
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(name: str, seed: int, traced: bool, outdir: str) -> dict:
    """Run the workload's steps once, in order, and check every certified output."""
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    patcher = spans.Patcher()
    counters = workloads.Counters()
    counters.install(patcher)
    recorder = spans.Recorder() if traced else None
    if recorder is not None:
        recorder.install(patcher)
    ctx = workloads.Context(name, seed, outdir, reference, counters)
    step_s, problems = {}, {}
    yard = Yardstick()
    # traced passes give per-layer times, which the yardstick would inflate
    with contextlib.nullcontext() if traced else yard:
        for step in workloads.WORKLOADS[name]:
            s0, spent = perf_counter(), yard.spent
            try:
                outcome = step.run(ctx)
                found = outcome.problems + workloads.compare(
                    outcome, reference.get(name, {}).get(step.name))
            except Exception:
                found = ["raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]]
            step_s[step.name] = perf_counter() - s0 - (yard.spent - spent)
            if found:
                problems[step.name] = found
    patcher.undo()
    wall = sum(step_s.values())
    out = {"traced": traced, "wall_s": wall, "steps_s": step_s, "yard_s": yard.samples,
           "wall_adj_s": (wall * Yardstick.REFERENCE_S / statistics.mean(yard.samples)
                          if yard.samples else None),
           "problems": problems, "counts": counters.snapshot(), "artifact_bytes": ctx.artifact_bytes,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "env": environment()}
    if recorder is not None:
        out["per_layer"] = spans.layer_metrics(recorder.spans)
        out["spans"] = recorder.spans
    return out


def environment() -> dict:
    """Versions and BLAS of the imported stack (the launcher adds the rest)."""
    import numpy
    import scipy

    import resdimlab

    def blas(cfg: dict) -> dict:
        deps = cfg.get("Build Dependencies", {})
        info = deps.get("lapack") or deps.get("blas") or {}
        return {"name": info.get("name"), "version": info.get("version")}

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "resdimlab": resdimlab.__version__,
        "resdimlab_path": os.path.dirname(resdimlab.__file__),
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_lapack": blas(scipy.show_config(mode="dicts")),
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count OpenBLAS reports inside scipy (which runs eigh), if it can be read."""
    import ctypes
    import glob

    import scipy

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(scipy.__file__)),
                                  "scipy.libs", "libscipy_openblas*.so"))
    for path in libs:
        try:
            return int(ctypes.CDLL(path).scipy_openblas_get_num_threads())
        except (OSError, AttributeError):
            continue
    return None


def record(outdir: str) -> dict:
    """Reference values: the outputs of one pass of each workload at seed 0.

    Values computed from uncertified solves are kept for information only.
    """
    reference: dict = {}
    counters = workloads.Counters()
    counters.install(spans.Patcher())
    for name, steps in workloads.WORKLOADS.items():
        ctx = workloads.Context(name, 0, os.path.join(outdir, name), reference, counters)
        reference[name] = {}
        for step in steps:
            outcome = step.run(ctx)
            if outcome.problems:
                raise SystemExit(f"{name}/{step.name}: {outcome.problems}")
            reference[name][step.name] = {
                key: {"kind": kind, "value": value,
                      "certified": key not in outcome.uncertified}
                for key, (kind, value) in outcome.values.items()}
    return reference


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outdir", required=True, help="directory for CLI artifacts")
    ap.add_argument("--spans", help="file to write the recorded spans to")
    ap.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = ap.parse_args()
    if args.record:
        ref = record(args.outdir)
        with open(REFERENCE, "w") as fh:
            json.dump(ref, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    res = run_pass(args.workload, args.seed, bool(args.trace),
                   os.path.join(args.outdir, args.workload))
    recorded = res.pop("spans", None)
    if args.spans and recorded is not None:
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": recorded}, fh)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
