"""The package's public surface: every exported name exists."""

import importlib
import pkgutil

import pytest

import posefusion

MODULES = ["posefusion"] + [f"posefusion.{m.name}"
                            for m in pkgutil.iter_modules(posefusion.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what the module does not define: {missing}"
