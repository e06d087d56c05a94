"""Span recorder and per-layer metrics for the traced benchmark run.

The recorder wraps the public entry points of every resdimlab module from the
outside: functions listed in a module's ``__all__``, the public methods of its
classes, and a few private hot paths named in ``EXTRA``.  Names that other
modules imported with ``from .x import y`` (and function tables such as
``cli._COMMANDS``) are rebound to the same wrappers, so those calls cannot
escape their spans.  ``scipy.sparse.linalg.splu``, ``scipy.linalg.eigh`` and
``scipy.optimize.minimize`` are wrapped too; each of their spans belongs to the
layer of the span that called it.

A span is ``[name, start, end, parent, attrs]`` with ``parent`` the index of
the enclosing span (-1 at top level).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import math
import sys
import weakref
from time import perf_counter
from typing import Callable, Dict, List

LAYERS = ("hierarchy", "cornergraph", "resnet", "penergy", "heat", "measure",
          "mixedcarpet", "cli")

# private entry points that carry a layer's hot path
EXTRA = {
    "resnet": ["_Grounded"],
    "cli": ["_cmd_build", "_cmd_resist", "_cmd_penergy", "_cmd_dims", "_cmd_heat",
            "_cmd_mixed", "_cmd_validate"],
}

# wrapped inside every layer; scipy spans are attributed to their caller's layer
SCIPY = (("scipy.sparse.linalg", "splu", "scipy.splu"),
         ("scipy.linalg", "eigh", "scipy.eigh"),
         ("scipy.optimize", "minimize", "scipy.minimize"))


class Patcher:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: List[Callable[[], None]] = []

    def set_attr(self, owner, attr: str, new) -> None:
        old = vars(owner)[attr]
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def set_item(self, table: dict, key, new) -> None:
        old = table[key]
        table[key] = new
        self._undo.append(lambda: table.__setitem__(key, old))

    def rebind(self, old, new) -> None:
        """Point every resdimlab module name (and table entry) holding `old` at `new`."""
        for mod in package_modules():
            for name, value in list(vars(mod).items()):
                if value is old:
                    self.set_attr(mod, name, new)
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, item in list(value.items()):
                        if item is old:
                            self.set_item(value, key, new)

    def undo(self) -> None:
        while self._undo:
            self._undo.pop()()


def package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "resdimlab" or name.startswith("resdimlab."))]


def entry_points(layer: str):
    """(owner, attribute, span name) for the public entry points of one module."""
    mod = importlib.import_module(f"resdimlab.{layer}")
    out = []
    for name in dict.fromkeys(list(getattr(mod, "__all__", [])) + EXTRA.get(layer, [])):
        obj = vars(mod).get(name)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            out.append((mod, name, f"{layer}.{name}"))
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for attr, raw in vars(obj).items():
                public = not attr.startswith("_") or (
                    attr == "__init__" and not dataclasses.is_dataclass(obj))
                if public and isinstance(raw, (classmethod, staticmethod)):
                    out.append((obj, attr, f"{layer}.{name}.{attr}"))
                elif public and inspect.isfunction(raw):
                    out.append((obj, attr, f"{layer}.{name}.{attr}"))
    return out


# -- observers: counts read from arguments and return values ------------------
#
# An observer runs after its call returns, with the recorder paused, so it may
# call library code without recording spans.

def _obs_hierarchy(rec, args, kwargs, result):
    return {"cells": sum(level.count for level in args[0].levels)}


def _obs_corner_graph(rec, args, kwargs, result):
    return {"vertices": int(result.graph.n)}


def _obs_ball_mass(rec, args, kwargs, result):
    meas = args[0]
    res = args[3] if len(args) > 3 else kwargs.get("resolution")
    level = meas.resolution() if res is None else res
    return {"cells": int(meas.h.levels[level].count)}


def _obs_p_energy(rec, args, kwargs, result):
    return {"uncertified": int(result.flag == "no-convergence")}


def _obs_masses(rec, args, kwargs, result):
    return {"key": [rec.object_id(args[0]), int(args[1])]}


def _obs_eigh(rec, args, kwargs, result):
    n = int(args[0].shape[0])
    # computed: the input matrix, the eigenvector matrix and the eigenvalues
    return {"dim": n, "bytes": 8 * (2 * n * n + n)}


OBSERVERS = {
    "hierarchy.PartitionHierarchy.__init__": _obs_hierarchy,
    "cornergraph.corner_graph": _obs_corner_graph,
    "measure.HierMeasure.ball_mass": _obs_ball_mass,
    "measure.PsiMeasure.ball_mass": _obs_ball_mass,
    "measure.HierMeasure.masses_float": _obs_masses,
    "measure.PsiMeasure.masses_float": _obs_masses,
    "penergy.p_energy": _obs_p_energy,
    "scipy.eigh": _obs_eigh,
}


class Recorder:
    """In-memory spans of one traced iteration."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._paused = False
        self._ids: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._id_counter = itertools.count()

    def object_id(self, obj) -> int:
        """Small id for a live object; the id of a dead object is never reused."""
        if obj not in self._ids:
            self._ids[obj] = next(self._id_counter)
        return self._ids[obj]

    def wrap(self, fn, name: str):
        observe = OBSERVERS.get(name)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec._paused:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, rec._stack[-1] if rec._stack else -1, None]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = perf_counter()
                rec._stack.pop()
            if observe is not None:
                rec._paused = True
                try:
                    span[4] = observe(rec, args, kwargs, result)
                finally:
                    rec._paused = False
            return result

        return traced

    def install(self, patcher: Patcher) -> None:
        """Wrap every entry point of every layer, plus the scipy kernels."""
        for layer in LAYERS:
            for owner, attr, name in entry_points(layer):
                raw = vars(owner)[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    patcher.set_attr(owner, attr, type(raw)(self.wrap(raw.__func__, name)))
                elif inspect.isclass(owner):
                    patcher.set_attr(owner, attr, self.wrap(raw, name))
                else:
                    wrapped = self.wrap(raw, name)
                    patcher.rebind(raw, wrapped)
        for modname, attr, name in SCIPY:
            mod = importlib.import_module(modname)
            patcher.set_attr(mod, attr, self.wrap(getattr(mod, attr), name))


# -- per-layer metrics ----------------------------------------------------------

def _tree(spans: List[list]):
    children: List[List[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    return children


def self_times(spans: List[list]) -> List[float]:
    """Duration of each span minus the part its direct children cover."""
    children = _tree(spans)
    out = []
    for i, s in enumerate(spans):
        inner = sum(spans[c][2] - spans[c][1] for c in children[i])
        out.append((s[2] - s[1]) - inner)
    return out


def span_layer(spans: List[list], i: int) -> str:
    """A span's layer; scipy spans take the layer of the nearest caller."""
    while i >= 0:
        name = spans[i][0]
        if not name.startswith("scipy."):
            return name.split(".", 1)[0]
        i = spans[i][3]
    return "scipy"


def busy_time(spans: List[list], names) -> float:
    """Total duration of spans named in `names`, not counting nested repeats."""
    names = set(names)
    total = []
    for s in spans:
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total.append(s[2] - s[1])
    return math.fsum(total)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0 when there are no values."""
    if not values:
        return 0.0
    vals = sorted(values)
    return vals[max(0, math.ceil(q / 100.0 * len(vals)) - 1)]


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """The per-layer metrics of one traced iteration."""
    selfs = self_times(spans)
    children = _tree(spans)
    by_name: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name: str) -> List[int]:
        return by_name.get(name, [])

    def attr_sum(name: str, key: str) -> float:
        return sum((spans[i][4] or {}).get(key, 0) for i in idx(name))

    def scipy_in(name: str, layer: str) -> List[int]:
        return [i for i in idx(name) if span_layer(spans, i) == layer]

    def dur(ids: List[int]) -> float:
        return math.fsum(spans[i][2] - spans[i][1] for i in ids)

    m: Dict[str, float] = {}
    m["hierarchy.build_s"] = busy_time(spans, ["hierarchy.build_hierarchy",
                                               "hierarchy.PartitionHierarchy.__init__"])
    m["hierarchy.cells"] = attr_sum("hierarchy.PartitionHierarchy.__init__", "cells")
    m["hierarchy.adjacency_s"] = busy_time(spans, ["hierarchy.adjacency"])
    m["hierarchy.adjacency_calls"] = len(idx("hierarchy.adjacency"))

    m["cornergraph.build_s"] = busy_time(spans, ["cornergraph.corner_graph"])
    m["cornergraph.graphs"] = len(idx("cornergraph.corner_graph"))
    m["cornergraph.vertices"] = attr_sum("cornergraph.corner_graph", "vertices")
    m["cornergraph.lookup_s"] = busy_time(spans, [
        "cornergraph.CornerGraph.vertex_at", "cornergraph.CornerGraph.vertex_index",
        "cornergraph.CornerGraph.corner_vertices", "cornergraph.CornerGraph.side_vertices",
        "cornergraph.corner_vertices_at_level"])

    m["resnet.graph_s"] = busy_time(spans, ["resnet.LevelGraph.__init__"])
    m["resnet.merge_s"] = math.fsum(selfs[i] for i in idx("resnet.LevelGraph.merged"))
    r_factor = scipy_in("scipy.splu", "resnet")
    m["resnet.factor_s"] = dur(r_factor)
    m["resnet.factorizations"] = len(r_factor)
    solves = idx("resnet._Grounded.solve")
    solve_ms = [1e3 * (spans[i][2] - spans[i][1]) for i in solves]
    m["resnet.solve_s"] = busy_time(spans, ["resnet._Grounded.solve"])
    m["resnet.solves"] = len(solves)
    m["resnet.solve_p50_ms"] = _percentile(solve_ms, 50)
    m["resnet.solve_p99_ms"] = _percentile(solve_ms, 99)
    m["resnet.solves_per_factorization"] = _ratio(len(solves), len(r_factor))
    m["resnet.solver_errors"] = sum(
        1 for i, s in enumerate(spans)
        if s[0].startswith("resnet.") and (s[4] or {}).get("error") == "SolverError"
        and (s[3] < 0 or not spans[s[3]][0].startswith("resnet.")))

    p_solves = idx("penergy.p_energy")
    p_factor = scipy_in("scipy.splu", "penergy")
    m["penergy.solve_s"] = math.fsum(selfs[i] for i in p_solves)
    m["penergy.factor_s"] = dur(p_factor)
    m["penergy.factorizations"] = len(p_factor)
    m["penergy.factorizations_per_solve"] = _ratio(len(p_factor), len(p_solves))
    m["penergy.polish_s"] = dur(scipy_in("scipy.minimize", "penergy"))
    m["penergy.separation_s"] = busy_time(spans, ["penergy.build_separation"])
    m["penergy.solves"] = len(p_solves)
    m["penergy.uncertified"] = attr_sum("penergy.p_energy", "uncertified")
    m["penergy.rate_evals"] = len(idx("penergy.fit_rates"))

    eig = scipy_in("scipy.eigh", "heat")
    kernels = (idx("heat.FiniteDirichletForm.p_diag") + idx("heat.FiniteDirichletForm.p_pair")
               + idx("heat.FiniteDirichletForm.p_row"))
    m["heat.eig_s"] = dur(eig)
    m["heat.eig_dim"] = max([(spans[i][4] or {}).get("dim", 0) for i in eig], default=0)
    m["heat.eig_bytes_computed"] = sum((spans[i][4] or {}).get("bytes", 0) for i in eig)
    m["heat.kernel_s"] = math.fsum(selfs[i] for i in kernels)
    m["heat.kernel_evals"] = len(kernels)

    balls = ["measure.HierMeasure.ball_mass", "measure.PsiMeasure.ball_mass"]
    m["measure.ball_mass_s"] = busy_time(spans, balls)
    m["measure.ball_mass_calls"] = sum(len(idx(b)) for b in balls)
    m["measure.cells_scanned"] = sum(attr_sum(b, "cells") for b in balls)
    m["measure.psi_build_s"] = busy_time(spans, ["measure.psi_measure"])
    m["measure.psi_check_s"] = busy_time(spans, ["measure.PsiMeasure.neighbor_comparability",
                                                 "measure.PsiMeasure.growth_exponent"])
    mass_calls = idx("measure.HierMeasure.masses_float") + idx("measure.PsiMeasure.masses_float")
    distinct = {tuple(spans[i][4]["key"]) for i in mass_calls if spans[i][4]}
    m["measure.mass_cache_ratio"] = _ratio(len(distinct), len(mass_calls))

    m["mixedcarpet.self_s"] = math.fsum(selfs[i] for i, s in enumerate(spans)
                                        if s[0].startswith("mixedcarpet."))
    lookups = idx("mixedcarpet.ScaleCache.graph") + idx("mixedcarpet.ScaleCache.scales")
    # a lookup served from the cache calls nothing below it
    m["mixedcarpet.cache_hit_ratio"] = _ratio(sum(1 for i in lookups if not children[i]),
                                              len(lookups))
    m["cli.self_s"] = math.fsum(selfs[i] for i, s in enumerate(spans)
                                if s[0].startswith("cli."))
    return m
