"""Public names: every export resolves, so a stale one fails here."""

import importlib
import pkgutil
import types

import pytest

import prefsense

MODULES = sorted(m.name for m in pkgutil.iter_modules(prefsense.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"prefsense.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_names_are_module_exports():
    exported = {
        n for name in MODULES for n in importlib.import_module(f"prefsense.{name}").__all__
    }
    public = {
        n
        for n, value in vars(prefsense).items()
        if not n.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public - exported == set()
