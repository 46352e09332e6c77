import importlib
import pkgutil

import pytest

import hbab

MODULES = ["hbab"] + [f"hbab.{m.name}" for m in pkgutil.iter_modules(hbab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined attributes {missing}"
