"""Self-test of the benchmark's own code (not part of the resdimlab test suite).

    python3 -m pytest bench/test_bench.py -q      # or: python3 bench/test_bench.py
"""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# cli.run [0, 10]
#   mixedcarpet.chain_check [1, 7]
#     resnet._Grounded.__init__ [2, 4]
#       scipy.splu [2.5, 3.5]
#     resnet._Grounded.solve [5, 6]
#   cli.run (nested repeat) [8, 9]
SYNTHETIC = [
    ["cli.run", 0.0, 10.0, -1, None],
    ["mixedcarpet.chain_check", 1.0, 7.0, 0, None],
    ["resnet._Grounded.__init__", 2.0, 4.0, 1, None],
    ["scipy.splu", 2.5, 3.5, 2, None],
    ["resnet._Grounded.solve", 5.0, 6.0, 1, None],
    ["cli.run", 8.0, 9.0, 0, None],
]


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"] for m in json.load(fh)[section]}


def test_self_time_on_nested_tree():
    assert spans.self_times(SYNTHETIC) == [3.0, 3.0, 1.0, 1.0, 1.0, 1.0]
    assert spans.span_layer(SYNTHETIC, 3) == "resnet"
    # the nested cli.run lies inside the outer one and is not counted twice
    assert spans.busy_time(SYNTHETIC, ["cli.run"]) == 10.0
    m = spans.layer_metrics(SYNTHETIC)
    assert m["cli.self_s"] == 4.0
    assert m["mixedcarpet.self_s"] == 3.0
    assert m["resnet.factorizations"] == 1 and m["resnet.factor_s"] == 1.0
    assert m["resnet.solves"] == 1 and m["resnet.solves_per_factorization"] == 1.0
    assert m["penergy.factorizations"] == 0


def test_metric_names_are_declared():
    layer = set(spans.layer_metrics(SYNTHETIC)) | {"cli.artifact_bytes", "trace.overhead_ratio"}
    assert layer == declared("per_layer")
    plain = {"traced": False, "wall_s": 1.0, "wall_adj_s": 1.1, "yard_s": [0.02],
             "steps_s": {"a": 1.0}, "problems": {},
             "counts": {"p_energy": 2, "p_uncertified": 1, "solves": 2},
             "artifact_bytes": 10, "peak_rss_mb": 50.0}
    passes = [plain, dict(plain, traced=True, per_layer=spans.layer_metrics(SYNTHETIC))]
    end = run.summarize(passes, [0.5, 0.6, 0.7], [0.02], trace=False)["metrics"]
    assert set(end) == declared("end_to_end")
    assert end["certified_ratio"]["value"] == 0.75
    per = run.summarize(passes, [0.5], [0.02], trace=True)["metrics"]
    assert set(per) == declared("per_layer")
    for name in set(end) | set(per) | declared("end_to_end") | declared("per_layer"):
        assert NAME.match(name), name


def test_yardstick_samples_on_a_timer_and_keeps_its_time_apart():
    from time import perf_counter

    yard = worker.Yardstick()
    with yard:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.5:
            pass
    # one sample on entry, then one every INTERVAL_S while bytecode runs
    assert len(yard.samples) >= 3
    assert sum(yard.samples) <= yard.spent < 0.5


def test_rebinding_catches_imported_names():
    from resdimlab import Schedule, cli, heat, mixedcarpet, penergy, resnet

    wrapped = [name for layer in spans.LAYERS for *_, name in spans.entry_points(layer)]
    assert len(wrapped) == len(set(wrapped)), "an entry point would be wrapped twice"
    originals = (mixedcarpet.eff_resistance, heat.corner_graph, penergy.adjacency,
                 cli._COMMANDS["resist"])
    patcher = spans.Patcher()
    rec = spans.Recorder()
    rec.install(patcher)
    try:
        assert mixedcarpet.eff_resistance is resnet.eff_resistance is not originals[0]
        assert heat.corner_graph is not originals[1]
        assert penergy.adjacency is not originals[2]
        assert cli._COMMANDS["resist"] is cli._cmd_resist is not originals[3]
        mixedcarpet.ScaleCache(Schedule.pure_vicsek()).scales(1)
    finally:
        patcher.undo()
    assert (mixedcarpet.eff_resistance, heat.corner_graph, penergy.adjacency,
            cli._COMMANDS["resist"]) == originals
    names = [s[0] for s in rec.spans]
    assert "mixedcarpet.ScaleCache.scales" in names
    assert "cornergraph.corner_graph" in names
    splu = names.index("scipy.splu")
    assert spans.span_layer(rec.spans, splu) == "resnet"
    assert all(s[1] <= s[2] for s in rec.spans)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
