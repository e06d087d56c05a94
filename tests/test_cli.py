import ast
import csv
import dataclasses
import inspect
import json
import pathlib
import shlex
import subprocess
import sys

import pytest

import resdimlab
from resdimlab import cli, hierarchy, measure, mixedcarpet, penergy
from resdimlab.cli import PARAMS, ExperimentConfig, main
from resdimlab.hierarchy import Schedule
from conftest import pipeline_quarters


def test_validate_command(tmp_path):
    code = main(["validate", "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["all_pass"]
    assert {c["id"] for c in manifest["checks"]} >= {
        "hierarchy-b1-diam", "heat-two-state", "penergy-p2-conductance",
        "resnet-exact-identities"}


def test_build_command(tmp_path):
    code = main(["build", "--structure", "vicsek", "--depth", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "cells_level2.json").exists()
    assert (tmp_path / "edges.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["all_pass"]
    # the environment behind the numbers: versions, LAPACK and usable cores
    env = manifest["env"]
    assert set(env) == {"python", "numpy", "scipy", "resdimlab", "lapack", "cores"}
    assert env["python"] == "{}.{}.{}".format(*sys.version_info[:3])
    assert env["resdimlab"] == resdimlab.__version__
    assert set(env["lapack"]) == {"name", "version"} and all(env["lapack"].values())
    assert isinstance(env["cores"], int) and env["cores"] >= 1


def test_resist_command_vicsek(tmp_path):
    code = main(["resist", "--structure", "vicsek", "--n", "3", "--out", str(tmp_path)])
    assert code == 0
    rows = (tmp_path / "scales.csv").read_text().strip().splitlines()
    assert rows[0] == "n,m,TB,Pt,k1,k2"
    assert len(rows) == 4


def test_resist_f_table(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"f_table": [1, 0, 0, 1]}))
    code = main(["resist", "--n", "4", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    with open(tmp_path / "out" / "scales.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cache = mixedcarpet.ScaleCache(Schedule.from_table([1, 0, 0, 1]))
    assert [(int(r["n"]), float(r["TB"]), float(r["Pt"])) for r in rows] == [
        (n, cache.scales(n, 0).tb, cache.scales(n, 0).pt) for n in range(1, 5)]


# header and cell kind of each CSV artifact: floats at 17 significant
# digits, ints bare
CSV_FORMATS = {
    "edges": (["build", "--structure", "vicsek", "--depth", "2"], "edges.csv",
              {"level": int, "w": str, "v": str}),
    "scales-resist": (["resist", "--structure", "vicsek", "--n", "2"], "scales.csv",
                      {"n": int, "m": int, "TB": float, "Pt": float, "k1": int, "k2": int}),
    "scales-mixed": (["mixed", "--depth", "5", "--report", "none"], "scales.csv",
                     {"n": int, "m": int, "TB": float, "Pt": float, "k1": int, "k2": int}),
    "rates": (["penergy", "--structure", "sc", "--depth", "3", "--kmax", "2",
               "--p-grid", "1.3,2"], "rates.csv",
              {"p": float, "k": int, "sup_energy": float, "argmax_cell": str, "flag": str,
               "lower": float, "upper": float, "residual": float}),
    "profiles": (["dims", "--structure", "vicsek", "--depth", "2", "--kmax", "3"],
                 "profiles.csv", {"x_id": int, "r": float, "V_lo": float, "V_hi": float,
                                  "olR": float, "h_lo": float, "h_hi": float}),
    "heat-curves": (["heat", "--structure", "vicsek", "--depth", "2"], "heat_curves.csv",
                    {"level": int, "x_id": int, "t": float, "p": float}),
    "envelope": (["mixed", "--depth", "5", "--report", "none"], "envelope.csv",
                 {"t": float, "ratio": float}),
}

# header and cell kinds of windows.csv (`mixed --report gap`), whose rows
# name their estimate in full and may miss any other cell
WINDOWS_CSV = {"route": str, "schedule": str, "quantity": str, "a": (int, None),
               "b": (int, None), "value": (float, None), "lower": (float, None),
               "upper": (float, None), "flag": (str, None), "uncertified": (int, None)}


def assert_csv_cells(path, kinds):
    """The CSV at `path` has the header `kinds` and at least one row, and each
    cell has its column's kind; a kind (kind, None) also admits an empty cell,
    a missing value."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == list(kinds) and rows
    for row in rows:
        for kind, cell in zip(kinds.values(), row, strict=True):
            if isinstance(kind, tuple):
                if cell == "":
                    continue
                kind = kind[0]
            if kind is float:
                assert f"{float(cell):.17g}" == cell
            elif kind is int:
                assert str(int(cell)) == cell
            else:
                assert cell and cell == cell.strip()


@pytest.mark.parametrize("name", CSV_FORMATS)
def test_csv_format(tmp_path, name):
    argv, filename, kinds = CSV_FORMATS[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert_csv_cells(tmp_path / filename, kinds)


def test_manifest_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "a"          # identical config, same directory
    main(["heat", "--structure", "vicsek", "--depth", "2", "--out", str(out1)])
    first = (out1 / "manifest.json").read_bytes()
    first_csv = (out1 / "heat_curves.csv").read_bytes()
    main(["heat", "--structure", "vicsek", "--depth", "2", "--out", str(out2)])
    assert (out2 / "manifest.json").read_bytes() == first
    assert (out2 / "heat_curves.csv").read_bytes() == first_csv


def test_config_file(tmp_path):
    cfg = {"structure": "vicsek", "depth": 2}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["build", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["structure"] == "vicsek"


def test_invalid_config_rejected(tmp_path):
    code = main(["build", "--depth", "9", "--out", str(tmp_path)])
    assert code == 2


def test_unknown_config_key_rejected(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"structure": "vicsek", "depht": 2}))
    code = main(["build", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: build does not read depht\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, text, message", [
    (["build"], '{"depth": "3"}', "error: depth must be of type int"),
    (["build"], '[{"depth": 3}]', "error: config file must hold a JSON object"),
    (["build"], '{"depth": 3', "error: Expecting ',' delimiter"),
    (["build"], None, "error: [Errno 2] No such file or directory"),
    (["mixed"], '{"report": "gapp"}', "error: report must be one of gap, none"),
    (["build"], '{"structure": "foo"}', "error: structure must be one of sc, vicsek, mixed"),
    (["build"], '{"f_table": [1, 0, 2]}', "error: schedule table entries must be 0 or 1"),
    (["resist", "--n", "5"], '{"f_table": [1, 0, 0, 1]}',
     "error: schedule custom defined only up to level 4"),
    (["mixed", "--depth", "5", "--report", "none", "--structure", "vicsek"], '{"f_table": [1, 0, 1]}',
     "error: unrecognized arguments: --structure vicsek"),
    (["mixed", "--depth", "5", "--report", "none"], '{"structure": "vicsek"}',
     "error: mixed does not read structure"),
    (["validate"], '{"f_table": [1, 0, 1]}', "error: validate does not read f_table"),
    (["penergy", "--structure", "sc", "--depth", "3", "--kmax", "2"], '{"p_grid": []}',
     "error: p grid must hold at least one exponent"),
], ids=["string-depth", "list-top-level", "malformed-json", "missing-file", "unknown-report",
        "unknown-structure", "f-table-entry", "f-table-horizon", "mixed-structure-f-table",
        "mixed-structure", "validate-f-table", "empty-p-grid"])
def test_bad_config_value_rejected(tmp_path, capsys, argv, text, message):
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    code = main(argv + ["--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(command="fly").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(command="build", depth=-1).validate()
    for grid in ([0.5], [float("nan"), 2.0], [2.0, float("inf")]):
        with pytest.raises(ValueError, match="p grid entries must be finite and >= 1"):
            ExperimentConfig(command="penergy", p_grid=grid).validate()
    with pytest.raises(ValueError, match=r"n must be in 1\.\.7 for resist"):
        ExperimentConfig(command="resist", n=0).validate()
    with pytest.raises(ValueError, match=r"depth must be in 3\.\.5 for mixed"):
        ExperimentConfig(command="mixed", depth=2).validate()
    ExperimentConfig(command="build", depth=0).validate()
    ExperimentConfig(command="mixed", depth=3).validate()
    for command in PARAMS:
        cfg = ExperimentConfig(command=command)
        cfg.validate()  # every default runs
        settled = {k: v for k, v in vars(cfg).items() if k not in ("command", "seed", "out")}
        assert settled == DEFAULTS[command]


# the settled defaults of each command besides seed and out, as README's
# parameter table writes them; `mixed` defaults to the depth whose checks pass
DEFAULTS = {"build": {"f_table": None, "structure": "sc", "depth": 3},
            "resist": {"f_table": None, "structure": "sc", "n": 2},
            "penergy": {"f_table": None, "structure": "sc", "depth": 3, "kmax": 2,
                        "p_grid": [1.5, 2.0]},
            "dims": {"f_table": None, "structure": "sc", "depth": 3, "kmax": 4},
            "heat": {"f_table": None, "structure": "sc", "depth": 3},
            "mixed": {"depth": 5, "report": "gap"},
            "validate": {}}


@pytest.mark.parametrize("argv, message", [
    (["mixed", "--depth", "0"], "depth must be in 3..5 for mixed"),
    (["mixed", "--depth", "1"], "depth must be in 3..5 for mixed"),
    (["mixed", "--depth", "2"], "depth must be in 3..5 for mixed"),
    (["resist", "--n", "0"], "n must be in 1..7 for resist"),
    (["penergy", "--structure", "vicsek", "--depth", "1"], "depth must be in 3..7 for penergy"),
    (["penergy", "--structure", "vicsek", "--depth", "2"], "depth must be in 3..7 for penergy"),
    (["penergy", "--structure", "vicsek", "--depth", "3", "--kmax", "1"],
     "kmax must be in 2..2 for penergy"),
    (["dims", "--structure", "vicsek", "--depth", "0"], "depth must be in 2..7 for dims"),
    (["dims", "--structure", "vicsek", "--depth", "1"], "depth must be in 2..7 for dims"),
    (["dims", "--structure", "vicsek", "--depth", "3", "--kmax", "1"],
     "kmax must be in 2..6 for dims"),
    (["heat", "--structure", "vicsek", "--depth", "0"], "depth must be in 1..7 for heat"),
], ids=["mixed-depth-0", "mixed-depth-1", "mixed-depth-2", "resist-n-0",
        "penergy-depth-1", "penergy-depth-2", "penergy-kmax-1", "dims-depth-0",
        "dims-depth-1", "dims-kmax-1", "heat-depth-0"])
def test_too_shallow_command_rejected(tmp_path, capsys, argv, message):
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


# the parameters each command reads besides seed and out; f_table may stand
# in for structure
READS = {"build": {"structure", "depth"}, "resist": {"structure", "n"},
         "penergy": {"structure", "depth", "kmax", "p_grid"},
         "dims": {"structure", "depth", "kmax"}, "heat": {"structure", "depth"},
         "mixed": {"depth", "report"}, "validate": set()}
# a valid value of each parameter, as a config entry and as a flag
VALUES = {"structure": ("sc", "sc"), "f_table": ([1, 0, 1], None), "depth": (3, "3"),
          "n": (2, "2"), "kmax": (2, "2"), "p_grid": ([2.0], "2"), "report": ("none", "none")}


def _unread_cases():
    for command, reads in READS.items():
        for name, (value, flag) in VALUES.items():
            if name in reads or (name == "f_table" and "structure" in reads):
                continue
            yield pytest.param([command], {name: value}, f"{command} does not read {name}",
                               id=f"{command}-config-{name}")
            if flag is not None:
                opt = "--" + name.replace("_", "-")
                yield pytest.param([command, opt, flag], None,
                                   f"unrecognized arguments: {opt} {flag}",
                                   id=f"{command}-flag-{name}")


# each of these ran at the parent commit and recorded a value it never used
REPRODUCED = {
    "resist-depth": (["resist", "--structure", "sc", "--depth", "5"], None,
                     "unrecognized arguments: --depth 5"),
    "penergy-kmax-past-depth": (["penergy", "--structure", "vicsek", "--depth", "3",
                                 "--kmax", "6"], None, "kmax must be in 2..2 for penergy"),
    "mixed-depth-6": (["mixed", "--depth", "6", "--report", "none"], None,
                      "depth must be in 3..5 for mixed"),
    "mixed-structure-sc": (["mixed", "--structure", "sc"], None,
                           "unrecognized arguments: --structure sc"),
    "validate-structure-sc": (["validate", "--structure", "sc"], None,
                              "unrecognized arguments: --structure sc"),
    "build-kmax": (["build", "--kmax", "6"], None, "unrecognized arguments: --kmax 6"),
    "heat-kmax": (["heat", "--kmax", "6"], None, "unrecognized arguments: --kmax 6"),
    "validate-depth": (["validate", "--depth", "7"], None, "unrecognized arguments: --depth 7"),
    "structure-and-f-table": (["resist", "--structure", "sc"], {"f_table": [1, 0, 1]},
                              "give structure or f_table, not both"),
}


@pytest.mark.parametrize("argv, config, message", [
    *_unread_cases(), *(pytest.param(*case, id=name) for name, case in REPRODUCED.items())])
def test_unread_parameter_refused(tmp_path, capsys, argv, config, message):
    """A flag or config key the command does not read: `main` returns 2 (it
    raises no SystemExit) with one error line, before the output exists."""
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", [n for n, (_, config, _) in REPRODUCED.items()
                                  if config is None])
def test_unread_parameter_refused_by_module(tmp_path, name):
    argv, _, message = REPRODUCED[name]
    proc = subprocess.run([sys.executable, "-m", "resdimlab.cli", *argv,
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (2, f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", READS)
def test_manifest_config_holds_read_parameters(tmp_path, monkeypatch, command):
    monkeypatch.setitem(cli._COMMANDS, command, lambda cfg, outdir: [])
    runs = [([], READS[command])]
    if "structure" in READS[command]:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"f_table": [1, 0, 1, 1, 0, 1, 1]}))
        runs.append((["--config", str(path)], READS[command] - {"structure"} | {"f_table"}))
    for i, (extra, reads) in enumerate(runs):
        out = tmp_path / str(i)
        assert main([command, *extra, "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert set(config) == {"command", "seed", "out"} | reads


def test_readme_cli_lines_parse():
    """Every `resdimlab` line of README's CLI block names only flags its
    command reads, with values in bounds; nothing runs."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1].replace("\\\n", " ")
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    argvs = [line[1:] for line in lines if line[:1] == ["resdimlab"]]
    assert {argv[0] for argv in argvs} == set(READS)
    for argv in argvs:
        args = vars(cli._parser().parse_args(argv))
        ExperimentConfig(**{k: v for k, v in args.items() if v is not None}).validate()


def test_readme_sketch_calls_bind():
    """README's library sketch imports only names `resdimlab` has, and every
    call of an imported function or class binds its arguments to the
    signature; nothing runs."""
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    tree = ast.parse(readme.split("```python\n", 1)[1].split("```", 1)[0])
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "resdimlab"
                for alias in node.names}
    assert [name for name in imported.values() if not hasattr(resdimlab, name)] == []
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in imported]
    assert calls
    for call in calls:
        signature = inspect.signature(getattr(resdimlab, imported[call.func.id]))
        try:
            signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
        except TypeError as err:
            pytest.fail(f"README sketch line {call.lineno}: {ast.unparse(call)}: {err}")


def test_build_threads_seed(tmp_path, monkeypatch):
    seeds = []
    original = hierarchy.validate_framework

    def recorded(h, *args, seed=0, **kwargs):
        seeds.append(seed)
        return original(h, *args, seed=seed, **kwargs)

    monkeypatch.setattr(hierarchy, "validate_framework", recorded)
    assert main(["build", "--structure", "vicsek", "--depth", "2", "--seed", "7",
                 "--out", str(tmp_path)]) == 0
    assert seeds == [7]


@pytest.mark.parametrize("grid", ["nan,2", "inf,2", "2,-inf"])
def test_non_finite_p_grid_rejected(tmp_path, capsys, grid):
    code = main(["penergy", "--structure", "sc", "--depth", "3", "--kmax", "2",
                 "--p-grid", grid, "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "error: p grid entries must be finite and >= 1\n"
    assert not (tmp_path / "out").exists()


def test_integer_p_grid_entries_read_as_floats(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"p_grid": [2, 1.5]}))
    code = main(["penergy", "--structure", "sc", "--depth", "3", "--kmax", "2",
                 "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    grid = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]["p_grid"]
    assert grid == [2.0, 1.5] and all(type(p) is float for p in grid)


def test_p_spectral_json_counts_uncertified(tmp_path):
    code = main(["penergy", "--structure", "sc", "--depth", "3", "--kmax", "2",
                 "--p-grid", "2", "--out", str(tmp_path)])
    assert code == 0
    est = json.loads((tmp_path / "p_spectral.json").read_text())
    assert est["uncertified"] == 0 and est["flag"] == "ok"


def test_dims_json_carries_certificates(tmp_path, monkeypatch):
    # d2s is written with its fit's flag and uncertified count, heat_ds with
    # its flag; the stubbed sweep flags the sup energies of k = 2 and 3
    k_of = {5 ** (1 + k): k for k in (1, 2, 3)}  # a problem's level fixes its k
    monkeypatch.setattr(penergy, "p_energy", lambda problem, p, start=None: (
        penergy.PEnergyValue(5.0 ** -k_of[problem.n_cells],
                             flag="no-convergence" if k_of[problem.n_cells] > 1 else "ok")))
    main(["dims", "--structure", "vicsek", "--depth", "2", "--kmax", "3", "--out", str(tmp_path)])
    dims = json.loads((tmp_path / "dims.json").read_text())
    assert (dims["d2s_flag"], dims["d2s_uncertified"], dims["heat_flag"]) == (
        "uncertified-energy", 2, "ok")
    assert dims["volume_sup_window_violations"] == 0


def test_dims_json_counts_sup_window_violations(tmp_path, monkeypatch):
    # volume_ds_sup_window is written with the subadditivity violations of
    # the Fekete inf behind it; the stub reports three
    fekete_limit = measure.fekete_limit
    monkeypatch.setattr(measure, "fekete_limit", lambda ts, fs: {
        **fekete_limit(ts, fs), "violations": [(1.0, 1.0)] * 3})
    main(["dims", "--structure", "vicsek", "--depth", "2", "--kmax", "3", "--out", str(tmp_path)])
    dims = json.loads((tmp_path / "dims.json").read_text())
    assert dims["volume_sup_window_violations"] == 3


def test_rates_csv_carries_bracket(tmp_path):
    # each sup energy is the upper end of its bracket; a certified one has a
    # gap of at most CERT_TOL = 1e-7 times it
    code = main(["penergy", "--structure", "sc", "--depth", "3", "--kmax", "2",
                 "--p-grid", "1.3,2", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "rates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    for row in rows:
        lower, upper = float(row["lower"]), float(row["upper"])
        assert row["flag"] == "ok" and upper == float(row["sup_energy"])
        assert 0 < upper - 1e-7 * upper <= lower <= upper * (1 + 1e-14)
    # each row carries its energy's first-order gap, the p = 2 certificate
    sweep = penergy.SupSweep(hierarchy.build_hierarchy(Schedule.pure_sc(), 3), [1, 2])
    want = [val.residual for p in (1.3, 2.0) for _, val in sweep.sups(p)]
    assert [float(row["residual"]) for row in rows] == want
    assert all(float(row["residual"]) <= 1e-7 * float(row["upper"])
               for row in rows if float(row["p"]) == 2.0)


def test_penergy_certified_check_fails_on_uncertified_row(tmp_path, monkeypatch):
    # one sup energy flagged no-convergence fails the check, with the count
    # of such rows as its value, and the run exits 1
    p_energy = penergy.p_energy

    def flagged(problem, p, start=None):
        val = p_energy(problem, p, start)
        if p == 1.3 and problem.n_cells == 64:  # both k = 1 problems: one rates.csv row
            val = dataclasses.replace(val, flag="no-convergence")
        return val

    monkeypatch.setattr(penergy, "p_energy", flagged)
    code = main(["penergy", "--structure", "sc", "--depth", "3", "--kmax", "2",
                 "--p-grid", "1.3,2", "--out", str(tmp_path)])
    assert code == 1
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    check = next(c for c in manifest["checks"] if c["id"] == "penergy-certified")
    assert (check["pass"], check["value"], manifest["all_pass"]) == (False, 1, False)


def test_framework_json_carries_b3_samples(tmp_path):
    # the (B3) band is written with the count of unclipped pairs behind it
    assert main(["build", "--structure", "vicsek", "--depth", "2", "--out", str(tmp_path)]) == 0
    framework = json.loads((tmp_path / "framework.json").read_text())
    params = hierarchy.validate_framework(hierarchy.build_hierarchy(Schedule.pure_vicsek(), 2))
    assert framework["b3_samples"] == params.b3_samples == hierarchy.B3_PAIRS
    assert framework["b3_band"] == list(params.b3_band)


def test_penergy_solves_each_problem_once(tmp_path, monkeypatch):
    # rates.csv, p_spectral.json and the checks read one sweep: 2 level-1
    # classes x k = 1..3 problems, each solved once at p = 1.3 and p = 2
    calls = {"p_energy": 0, "build_separation": 0}
    for name, original in [(name, getattr(penergy, name)) for name in calls]:
        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(penergy, name, counted)
    code = main(["penergy", "--structure", "sc", "--depth", "4", "--kmax", "3",
                 "--p-grid", "1.3,2.0", "--out", str(tmp_path)])
    assert code == 0
    assert calls == {"p_energy": 12, "build_separation": 6}


def test_mixed_gap_solves_each_quarter_once(tmp_path, monkeypatch, small_gap_report,
                                            quarter_solves):
    # chain_check, scales.csv, evres_fit, qs_diagnostic and gap_report read one
    # ScaleCache per schedule, and the product model is fitted once
    fits = []
    evres_fit = mixedcarpet.evres_fit

    def counted(*args, **kwargs):
        fits.append(kwargs.get("n_max"))
        return evres_fit(*args, **kwargs)

    monkeypatch.setattr(mixedcarpet, "evres_fit", counted)
    main(["mixed", "--depth", "3", "--report", "gap", "--out", str(tmp_path)])
    assert_csv_cells(tmp_path / "windows.csv", WINDOWS_CSV)
    assert not (tmp_path / "dim_report.json").exists()
    assert fits == [3]
    assert sorted(quarter_solves) == pipeline_quarters(3)
    assert set(quarter_solves.values()) == {1}


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "resdimlab.cli", "resist", "--structure", "vicsek",
         "--n", "2", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_pass"]


def test_windows_csv_nonfinite_and_missing_cells(tmp_path, monkeypatch):
    nan, inf = float("nan"), float("inf")
    rows = [{"route": "volume", "schedule": "sc", "quantity": "ds", "a": 1, "b": 3,
             "value": nan, "lower": inf, "upper": -inf, "flag": None, "uncertified": None}]
    checks = [{"id": "nan-check", "description": "a NaN value", "value": nan, "pass": True}]
    monkeypatch.setattr(mixedcarpet, "gap_report", lambda *args, **kwargs: (rows, checks))
    code = main(["mixed", "--depth", "5", "--report", "gap", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "windows.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == [["volume", "sc", "ds", "1", "3", "nan", "inf",
                                             "-inf", "", ""]]

    def reject(name):
        raise ValueError(f"bare {name} is not JSON")

    manifest = json.loads((tmp_path / "manifest.json").read_text(), parse_constant=reject)
    assert [c["value"] for c in manifest["checks"] if c["id"] == "nan-check"] == ["nan"]
