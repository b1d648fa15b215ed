"""Public names: every export resolves, so a stale one fails here."""

import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_cli_import_needs_no_test_extra():
    # pyproject's runtime dependency is numpy alone; scipy, hypothesis and
    # pytest come only with the test extra.
    code = (
        "import sys, prefsense.cli; "
        "print(sorted({m.partition('.')[0] for m in sys.modules} & {'scipy', 'hypothesis', 'pytest'}))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(prefsense.__file__))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
