import importlib

import pytest

MODULES = ["hierarchy", "resnet", "cornergraph", "penergy", "measure", "heat",
           "mixedcarpet", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"resdimlab.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert missing == []
