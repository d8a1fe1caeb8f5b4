"""Every exported name resolves, in the package and in each of its modules."""

import importlib
import pkgutil

import pytest

import rkca

MODULES = ["rkca"] + [f"rkca.{info.name}" for info in pkgutil.iter_modules(rkca.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
