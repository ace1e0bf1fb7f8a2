import importlib
import pkgutil

import pytest

import freenoise

MODULES = ["freenoise"] + sorted(
    f"freenoise.{m.name}" for m in pkgutil.iter_modules(freenoise.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
