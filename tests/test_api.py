import ast
import importlib
import inspect
import pathlib

import pytest

MODULES = ["hierarchy", "resnet", "cornergraph", "penergy", "measure", "heat",
           "mixedcarpet", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"resdimlab.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_imports_are_used(name):
    """Every imported name is used in its module or re-exported in __all__."""
    path = pathlib.Path(importlib.import_module(f"resdimlab.{name}").__file__)
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set(importlib.import_module(f"resdimlab.{name}").__all__)
    assert sorted(imported - used - exported) == []


# public functions kept without a caller in src/, each for a named reason
UNCALLED_ON_PURPOSE = {
    "min_energy_flow": "acceptance oracle: the flow side of R = min energy",
    "pinv_resistance": "acceptance oracle: dense pseudo-inverse set resistance",
    "delta_pair": "separation index of the R*(x, y) band check (test_rstar_approximant_band)",
    "doubling_check": "volume doubling constant (bench spectral volume step)",
    "psi_measure": "interior-child psi-measure (acceptance criterion 12, bench psi step)",
}


def _named(node):
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name}
    return set()


def test_public_functions_are_called():
    """Every function in a module's __all__ is named somewhere in the package
    (a name, an attribute or a from-import) outside its own definition; the
    package's __init__ re-exports are not callers."""
    pkg = pathlib.Path(importlib.import_module("resdimlab").__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(pkg.glob("*.py"))
             if path.name != "__init__.py"}
    uncalled = []
    for name in MODULES:
        mod = importlib.import_module(f"resdimlab.{name}")
        for fn in mod.__all__:
            if not inspect.isfunction(getattr(mod, fn)) or fn in UNCALLED_ON_PURPOSE:
                continue
            own = next(node for node in trees[name].body
                       if isinstance(node, ast.FunctionDef) and node.name == fn)
            inside = {id(node) for node in ast.walk(own)}
            if not any(id(node) not in inside and fn in _named(node)
                       for tree in trees.values() for node in ast.walk(tree)):
                uncalled.append(f"{name}.{fn}")
    assert uncalled == []
