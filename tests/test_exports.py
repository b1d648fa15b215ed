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


def _wrong_type_calls():
    """Each function with valid arguments; the test swaps in one bad argument at a time."""
    from prefsense import (
        DatasetSpec,
        KTuplePreference,
        PairwiseCounts,
        PreferenceSample,
        ScoredOptionSet,
        counts_from_samples,
        empirical_check,
        fit_bt,
        generate,
        parse_counts_text,
        pl_prob,
        ratio_matrix,
        sweep,
    )
    from prefsense.synth import tally_outcomes

    sample = PreferenceSample("a or b?", "I prefer a over b.", "I prefer b over a.")
    spec = DatasetSpec(("a", "b", "c"), 0.5, 0.5, 10, 0)
    options = ScoredOptionSet(("a", "b"), (0.0, 1.0))
    omega = KTuplePreference((0, 1))
    return {
        "fit_bt": (fit_bt, (PairwiseCounts([[0, 1], [1, 0]]),)),
        "parse_counts_text": (parse_counts_text, ("2 0 1 1 0",)),
        "counts_from_samples": (counts_from_samples, ([sample], ("a", "b"))),
        "pl_prob": (pl_prob, (omega, options)),
        "ratio_matrix": (ratio_matrix, (options, omega)),
        "generate": (generate, (spec,)),
        "sweep": (sweep, (spec,)),
        "empirical_check": (empirical_check, ([sample], spec)),
        "tally_outcomes": (tally_outcomes, ([sample], ("a", "b"))),
    }


WRONG_TYPE_CALLS = _wrong_type_calls()


@pytest.mark.parametrize("bad", [None, 5, object(), [1]], ids=["None", "int", "object", "list"])
@pytest.mark.parametrize(
    "name, position",
    [(name, k) for name, (_, args) in WRONG_TYPE_CALLS.items() for k in range(len(args))],
)
def test_wrong_type_raises_package_error(name, position, bad):
    fn, args = WRONG_TYPE_CALLS[name]
    fn(*args)  # the valid call succeeds, so the error below is the bad argument's
    args = args[:position] + (bad,) + args[position + 1 :]
    with pytest.raises(prefsense.PrefsenseError):
        fn(*args)
