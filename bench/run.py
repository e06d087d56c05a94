"""resdimlab benchmark launcher.

    python3 bench/run.py --workload scales --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a checkout.  The launcher caps BLAS threads at the number
of usable cores and measures set-up time on fresh interpreters.  It then runs
the workload as a closed loop of passes, each in a fresh process (worker.py)
that imports resdimlab from the checkout's ``src/``, as a CLI command would.
Times are reported as timed and, for the declared metrics, rescaled to the
reference host speed by a yardstick timed alongside them (worker.Yardstick).
It prints a summary with every metric, its unit and sample count, an
environment record, and, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` they
are the per-layer metrics of a traced pass.  Artifacts, full results and
spans go to ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

from worker import Yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("scales", "penergy", "spectral")
SETUP_PROBES = 5
# Set-up as users pay it on every CLI run: interpreter start, the imports, and
# one warm LAPACK call.
PROBE = ("import numpy, scipy.linalg, scipy.sparse.linalg, resdimlab; "
         "scipy.linalg.eigh(numpy.eye(64) + 1.0); print('ready', flush=True)")
RUN_LIMIT_S = 170


def child_env(root: str) -> dict:
    """The checkout's src/ on the path, and OpenBLAS capped at the usable cores."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    threads = len(os.sched_getaffinity(0))
    current = env.get("OPENBLAS_NUM_THREADS", "")
    if current.isdigit() and 0 < int(current) < threads:
        threads = int(current)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    return env


def setup_times(env: dict, root: str) -> tuple:
    """Seconds from process start to a warm LAPACK call, on fresh interpreters,
    and yardstick times (worker.Yardstick) taken around each probe.

    One unmeasured probe first fills the bytecode and page caches.
    """
    times, yard_s = [], []
    yard = Yardstick()
    for i in range(SETUP_PROBES + 1):
        if i:
            yard_s += [yard.time() for _ in range(3)]
        t0 = perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE], cwd=root, env=env,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = perf_counter() - t0
            if proc.wait(timeout=60) != 0 or line != "ready":
                raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        if i:
            times.append(elapsed)
    yard_s += [yard.time() for _ in range(3)]
    return times, yard_s


def commit(root: str) -> str:
    """The checkout's git commit, read without running git; 'unknown' if not a repo."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(root, ".git", *ref[5:].split("/"))
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def run_pass(name: str, args, index: int, env: dict, root: str, build: str,
             deadline: float) -> dict:
    """One pass in a fresh worker process; with tracing on, odd passes are traced."""
    traced = bool(args.trace) and index % 2 == 1
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
           "--seed", str(args.seed), "--trace", str(int(traced)),
           "--outdir", os.path.join(build, "out"),
           "--spans", os.path.join(build, "trace", f"{name}-seed{args.seed}-pass{index}.json")]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(10.0, deadline - perf_counter()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {name} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, args, env: dict, root: str, build: str, deadline: float) -> list:
    """Closed loop of fresh-process passes until the next would overrun --seconds.

    With tracing on, passes alternate untraced and traced, at least one of each.
    """
    passes = []
    t0 = perf_counter()
    while True:
        passes.append(run_pass(name, args, len(passes), env, root, build, deadline))
        elapsed = perf_counter() - t0
        if (len(passes) >= (2 if args.trace else 1)
                and elapsed + elapsed / len(passes) > args.seconds):
            return passes


def summarize(passes: list, setup: list, setup_yard: list, trace: bool) -> dict:
    """Metrics, counts and the printed table for one workload's passes."""
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(len(p["steps_s"]) for p in passes)
    failed = sum(len(p["problems"]) for p in passes)
    counts = plain[0]["counts"]
    results = counts["p_energy"] + counts["solves"]
    certified = results - counts["p_uncertified"]
    wall = statistics.median(p["wall_s"] for p in plain)
    rows = [
        ("wall_adj_s", statistics.median(p["wall_adj_s"] for p in plain), "s",
         f"median of {len(plain)} passes, at the reference host speed"),
        ("wall_s", wall, "s", f"median of {len(plain)} passes, as timed on this host"),
        ("yardstick_ms", 1e3 * statistics.median(y for p in plain for y in p["yard_s"]), "ms",
         f"median of {sum(len(p['yard_s']) for p in plain)} yardstick samples"),
        ("setup_s", statistics.median(setup) * Yardstick.REFERENCE_S / statistics.mean(setup_yard),
         "s", f"median of {len(setup)} interpreters, at the reference host speed"),
        ("setup_timed_s", statistics.median(setup), "s",
         f"median of {len(setup)} interpreters, as timed on this host"),
        ("peak_rss_mb", statistics.median(p["peak_rss_mb"] for p in plain), "MB",
         f"median of {len(plain)} pass processes"),
        ("certified_ratio", certified / results if results else 1.0, "ratio",
         f"{certified} of {results} solver results"),
        ("failed_ratio", failed / attempted, "ratio", f"{failed} of {attempted} steps"),
        ("uncertified_ratio",
         counts["p_uncertified"] / counts["p_energy"] if counts["p_energy"] else 0.0,
         "ratio", f"{counts['p_uncertified']} of {counts['p_energy']} p_energy calls"),
    ]
    declared = declared_units("end_to_end")
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows if name in declared}
    if trace:
        traced = [p for p in passes if p["traced"]]
        layer = {key: statistics.median(p["per_layer"][key] for p in traced)
                 for key in traced[0]["per_layer"]}
        layer["cli.artifact_bytes"] = statistics.median(p["artifact_bytes"] for p in traced)
        layer["trace.overhead_ratio"] = (
            statistics.median(p["wall_s"] for p in traced) / wall - 1.0)
        units = declared_units("per_layer")
        rows = [(k, v, units.get(k, "?"), f"median of {len(traced)} traced passes")
                for k, v in sorted(layer.items())]
        metrics = {k: {"value": v, "unit": units.get(k, "?")} for k, v in layer.items()}
    return {"metrics": metrics, "rows": rows, "attempted": attempted, "failed": failed}


def declared_units(section: str) -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "resdimlab", "__init__.py")):
        print("error: run from the root of a resdimlab checkout (src/resdimlab not found)",
              file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    for sub in ("out", "trace", "results"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = child_env(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    limit = RUN_LIMIT_S * len(names)
    try:
        setup, setup_yard = setup_times(env, root)
        results = {name: run_workload(name, args, env, root, build, start + limit)
                   for name in names}
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, passes in results.items():
        summary = summarize(passes, setup, setup_yard, bool(args.trace))
        env_record = dict(passes[0]["env"], cores=len(os.sched_getaffinity(0)),
                          cpu_count=os.cpu_count(), blas_threads_cap=env["OPENBLAS_NUM_THREADS"],
                          commit=commit(root), seed=args.seed, workload=name,
                          trace=args.trace, seconds=args.seconds)
        print(f"workload {name}  seed {args.seed}  trace {args.trace}")
        for metric, value, unit, samples in summary["rows"]:
            print(f"  {metric:34s} {value:14.6g} {unit:6s} {samples}")
        for p in passes:
            for step, problems in p["problems"].items():
                for problem in problems:
                    print(f"  FAILED {step}: {problem}")
        print("env " + json.dumps(env_record, sort_keys=True))
        with open(os.path.join(build, "results",
                               f"{name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
            json.dump({"env": env_record, "setup_s": setup, "setup_yard_s": setup_yard,
                       "summary": summary["rows"],
                       "passes": [{k: v for k, v in p.items() if k != "env"} for p in passes]},
                      fh, indent=1)
        total["attempted"] += summary["attempted"]
        total["failed"] += summary["failed"]
        prefix = "" if len(names) == 1 else name + "."
        for metric, value in summary["metrics"].items():
            total["metrics"][prefix + metric] = value
    total["correct"] = total["failed"] == 0
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
