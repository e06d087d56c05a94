import ast
import importlib
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
