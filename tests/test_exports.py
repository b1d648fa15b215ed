"""Public names: every export resolves, so a stale one fails here, and
every public callable refuses bad arguments with a package error."""

import importlib
import inspect
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
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


# Files the valid calls read, relative to the directory each test runs in.
COUNTS_TXT, SAMPLES_JSONL, GRID_CSV = "counts.txt", "samples.jsonl", "grid.csv"


def _calls():
    """One valid call of every public callable the sweep covers, by name.

    Every parameter is passed, defaults included, so each one is swept.
    Reading calls need the input_files fixture.
    """
    from prefsense import fitting, links, models, oracles, raster, sensitivity, synth

    sample = synth.PreferenceSample("a or b?", "I prefer a over b.", "I prefer b over a.")
    spec = synth.DatasetSpec(("a", "b", "c"), 0.5, 0.5, 10, 0)
    options = models.ScoredOptionSet(("a", "b"), (0.0, 1.0))
    omega = models.KTuplePreference((0, 1))
    options3 = models.ScoredOptionSet(("a", "b", "c"), (0.0, 1.0, 2.0))
    omega3 = models.KTuplePreference((0, 1, 2))
    counts = fitting.PairwiseCounts([[0, 1], [1, 0]])
    grid = raster.raster_bt("d_pik", (2.0,), 64)
    calls = {
        # The first nine, in this order, are the wrong-type test's table.
        "fit_bt": (fitting.fit_bt, (counts,)),
        "parse_counts_text": (fitting.parse_counts_text, ("2 0 1 1 0",)),
        "counts_from_samples": (fitting.counts_from_samples, ([sample], ("a", "b"))),
        "pl_prob": (models.pl_prob, (omega, options)),
        "ratio_matrix": (models.ratio_matrix, (options, omega)),
        "generate": (synth.generate, (spec,)),
        "sweep": (synth.sweep, (spec,)),
        "empirical_check": (synth.empirical_check, ([sample], spec)),
        "tally_outcomes": (synth.tally_outcomes, ([sample], ("a", "b"))),
        # links
        "get_link": (links.get_link, ("logistic",)),
        # models
        "ScoredOptionSet": (models.ScoredOptionSet, (("a", "b"), (0.0, 1.0))),
        "KTuplePreference": (models.KTuplePreference, ((0, 1),)),
        "bt_prob": (models.bt_prob, (0.0, 1.0)),
        "compose_pairwise": (models.compose_pairwise, (links.LOGISTIC, 0.3, 0.6)),
        "bt_compose": (models.bt_compose, (0.3, 0.6)),
        "pl_prob_from_ratios": (models.pl_prob_from_ratios, (models.ratio_matrix(options, omega),)),
        "logit_normal_density": (models.logit_normal_density, (0.5, 1.0)),
        # oracles
        "make_rng": (oracles.make_rng, (0,)),
        "finite_diff": (oracles.finite_diff, (models.bt_compose, (0.3, 0.6), 0, 1e-6)),
        "mc_area_bt": (oracles.mc_area_bt, (2.0, 10_000, 0)),
        "quad_area_pl": (oracles.quad_area_pl, (2.0, 1.01, 0.99, "uv", 10_000)),
        "quad_area_pl:vu": (oracles.quad_area_pl, (2.0, 1.01, 0.99, "vu", 10_000)),
        "brute_force_pl": (oracles.brute_force_pl, (options3, 2)),
        "mode_count": (oracles.mode_count, (1.0, 10_000)),
        # raster
        "raster_bt": (raster.raster_bt, ("d_pik", (2.0,), 64)),
        "raster_pl": (raster.raster_pl, ("d_uv", 1.01, 0.99, (2.0,), 64)),
        "export": (raster.export, (grid, "csv", "out.csv")),
        "read_csv_grid": (raster.read_csv_grid, (GRID_CSV,)),
        # sensitivity
        "bt_partial": (sensitivity.bt_partial, (0.3, 0.6)),
        "general_partial": (sensitivity.general_partial, (links.PROBIT, 0.3, 0.6)),
        "bt_region_slice": (sensitivity.bt_region_slice, (2.0, 0.3)),
        "bt_region_area": (sensitivity.bt_region_area, (2.0,)),
        "pl_context": (sensitivity.pl_context, (options3, omega3, 0, 1)),
        "pl_partials": (sensitivity.pl_partials, (0.3, 0.6, 1.01, 0.99)),
        "pl_region": (sensitivity.pl_region, (2.0, 1.01, 0.99, 0.01, "uv")),
        "pl_region:vu": (sensitivity.pl_region, (2.0, 1.01, 0.99, 0.01, "vu")),
        "pl_region:no-float-inside": (sensitivity.pl_region, (2.0, 1e300, 1.0, 1e-310, "vu")),
        "pl_region_area": (sensitivity.pl_region_area, (2.0, 1.01, 0.99, "uv")),
        "pl_region_area:vu": (sensitivity.pl_region_area, (2.0, 1.01, 0.99, "vu")),
        "compare_bt_pl_areas": (sensitivity.compare_bt_pl_areas, (2.0, 1.01, 0.99)),
        "sensitivity_witness": (sensitivity.sensitivity_witness, (links.LOGISTIC, 2.0, 1.0)),
        # synth
        "DatasetSpec": (synth.DatasetSpec, (("a", "b", "c"), 0.5, 0.5, 10, 0)),
        "PreferenceSample": (synth.PreferenceSample, ("a or b?", "a over b", "b over a")),
        "write_jsonl": (synth.write_jsonl, ([sample], "out.jsonl")),
        "read_jsonl": (synth.read_jsonl, (SAMPLES_JSONL,)),
        "write_manifest": (synth.write_manifest, ([(spec, "data.jsonl")], "manifest.csv")),
        # fitting
        "PairwiseCounts": (fitting.PairwiseCounts, ([[0, 1], [1, 0]],)),
        "fit_pl": (fitting.fit_pl, ([(omega, 1.0), (models.KTuplePreference((1, 0)), 1.0)], 2)),
        "predict": (fitting.predict, (fitting.fit_bt(counts), 0, 1)),
        "load_counts": (fitting.load_counts, (COUNTS_TXT,)),
    }
    for link in (links.LOGISTIC, links.PROBIT):
        for method in ("evaluate", "derivative", "inverse"):
            calls[f"{link.family}.{method}"] = (getattr(link, method), (0.5,))
    return calls


CALLS = _calls()
WRONG_TYPE_CALLS = {name: CALLS[name] for name in list(CALLS)[:9]}


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


# Exported callables the sweep does not call, with the reason.
NOT_SWEPT = {
    # Result records hold values the package computed; they are not inputs.
    **dict.fromkeys(
        [
            "FitResult",
            "BTRegionSlice",
            "PLRegionBounds",
            "AreaComparison",
            "Witness",
            "MonteCarloEstimate",
            "PairStats",
            "EmpiricalReport",
            "RasterGrid",
            "CheckResult",
        ],
        "result record",
    ),
    "main": "covered by test_cli.py",
    "run_all": "covered by test_acceptance.py",
    "DivergenceWarning": "warning type",
    # The link classes take no arguments; their methods are swept on LOGISTIC and PROBIT.
    "LinkFunction": "no arguments",
    "LogisticLink": "no arguments",
    "ProbitLink": "no arguments",
}


def _exported_callables():
    """(module, name) of every class and function in a module's __all__, errors.py aside.

    errors.py holds the exception and warning types, which take any
    message, and the validation helpers the swept calls go through.
    """
    for module_name in MODULES:
        if module_name == "errors":
            continue
        module = importlib.import_module(f"prefsense.{module_name}")
        for name in module.__all__:
            value = getattr(module, name)
            if inspect.isclass(value) or inspect.isfunction(value):
                yield module_name, name


def test_sweep_covers_every_export():
    missing = [
        f"{module}.{name}"
        for module, name in _exported_callables()
        if name not in CALLS and name not in NOT_SWEPT
    ]
    assert missing == []


# Values swapped in for one argument at a time. Some are valid for some
# arguments (True is the int 1, "x" a file name, () an empty sequence);
# the rest never are, except where NEVER_VALID_EXCEPT says.
BAD_VALUES = {
    "None": None,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "str": "x",
    "object": object(),
    "list": [1],
    "1e308": 1e308,
    "-1": -1,
    "True": True,
    "tuple": (),
    "nan-array": np.array([math.nan, 0.5]),
    "array": np.array([0.5, 0.5]),
}
NEVER_VALID = {"None", "nan", "inf", "-inf", "object", "nan-array"}
# ScoredOptionSet's labels are any items, each taken as its str.
NEVER_VALID_EXCEPT = {("ScoredOptionSet", 0): {"nan-array"}}


@pytest.fixture
def input_files(tmp_path, monkeypatch):
    """Run in a fresh directory that holds the files the reading calls read."""
    from prefsense import export, raster_bt, write_jsonl

    monkeypatch.chdir(tmp_path)
    Path("x").touch()  # so that "x" names a file for the readers too
    Path(COUNTS_TXT).write_text("2 0 1 1 0")
    write_jsonl([prefsense.PreferenceSample("a or b?", "a over b", "b over a")], SAMPLES_JSONL)
    export(raster_bt(resolution=64), "csv", GRID_CSV)


# Saturation and numpy overflow warnings of extreme values are not the finding.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "name, position",
    [(name, k) for name, (_, args) in CALLS.items() for k in range(len(args))],
)
@pytest.mark.usefixtures("input_files")
def test_contract_sweep(name, position):
    """A bad argument raises a PrefsenseError, or is valid input; nothing else escapes.

    A value that is never valid must raise. The outcomes are collected
    over every bad value, so one failure lists them all.
    """
    fn, args = CALLS[name]
    fn(*args)
    wrong = []
    for label, bad in BAD_VALUES.items():
        try:
            fn(*args[:position], bad, *args[position + 1 :])
        except prefsense.PrefsenseError:
            continue
        except Exception as exc:  # any other type is the finding
            wrong.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        if label in NEVER_VALID - NEVER_VALID_EXCEPT.get((name, position), set()):
            wrong.append(f"{label}: accepted")
    assert wrong == []


def _integer_bounds():
    """(call, position, argument, lo, hi) of each integer argument with a range.

    hi is None where there is no cap. No call is made at a cap itself:
    resolution 4096 alone builds a 4096 x 4096 grid.
    """
    from prefsense.oracles import MAX_GRID_N, MAX_MC_SAMPLES
    from prefsense.raster import MAX_RESOLUTION
    from prefsense.synth import MAX_SAMPLES

    return [
        ("make_rng", 0, "seed", 0, None),
        ("raster_bt", 2, "resolution", 64, MAX_RESOLUTION),
        ("raster_pl", 4, "resolution", 64, MAX_RESOLUTION),
        ("quad_area_pl", 4, "grid_n", 10_000, MAX_GRID_N),
        ("mode_count", 1, "grid_n", 10_000, MAX_GRID_N),
        ("mc_area_bt", 1, "n", 10_000, MAX_MC_SAMPLES),
        ("DatasetSpec", 3, "n_samples", 1, MAX_SAMPLES),
        ("fit_pl", 1, "n_options", 2, None),
        ("brute_force_pl", 1, "K", 2, 3),  # a set of three options
        ("pl_context", 2, "u", 0, 1),  # a ranking of three options, v = 1
        ("pl_context", 3, "v", 1, 2),  # u = 0
        ("finite_diff", 2, "slot", 0, 1),  # a point of two coordinates
        ("predict", 1, "i", 0, 1),  # a fit of two options
        ("predict", 2, "j", 0, 1),
    ]


@pytest.mark.parametrize("name, position, arg, lo, hi", _integer_bounds())
def test_integer_bounds(name, position, arg, lo, hi):
    fn, args = CALLS[name]
    call = lambda value: fn(*args[:position], value, *args[position + 1 :])
    call(lo)
    wording = f"{arg} must be at least {lo}" if hi is None else f"{arg} must lie in [{lo}, {hi}]"
    for bad in [lo - 1] if hi is None else [lo - 1, hi + 1]:
        with pytest.raises(prefsense.DomainError, match=re.escape(f"{wording}, got {bad}")):
            call(bad)


_IO_CALLS = ["export", "write_jsonl", "write_manifest", "read_csv_grid", "read_jsonl", "load_counts"]


@pytest.mark.parametrize("name", _IO_CALLS)
@pytest.mark.usefixtures("input_files")
def test_file_descriptor_path_refused(name):
    # An int path would be opened as that file descriptor; the file behind it stays untouched.
    fn, args = CALLS[name]
    with tempfile.TemporaryFile() as fh:
        with pytest.raises(prefsense.ValidationError, match="path must be a str, bytes or os.PathLike"):
            fn(*args[:-1], fh.fileno())
        assert not fh.closed and os.fstat(fh.fileno()).st_size == 0


@pytest.mark.parametrize("name", _IO_CALLS)
@pytest.mark.usefixtures("input_files")
def test_path_with_nul_refused(name):
    fn, args = CALLS[name]
    with pytest.raises(prefsense.ValidationError, match="embedded null"):
        fn(*args[:-1], "a\0b")


@pytest.mark.parametrize("offset", [0, 20_000], ids=["start", "past-8KB"])
@pytest.mark.parametrize(
    "name, filler",
    [("read_csv_grid", b""), ("read_jsonl", b"\n"), ("load_counts", b" ")],
    ids=["read_csv_grid", "read_jsonl", "load_counts"],
)
@pytest.mark.usefixtures("input_files")
def test_readers_refuse_non_utf8(name, filler, offset):
    # Text files are decoded in 8 KB chunks; a bad byte in a later one is met mid-parse.
    fn, (path,) = CALLS[name]
    data = Path(path).read_bytes() + filler * offset  # filler the reader skips
    Path(path).write_bytes(data[:offset] + b"\xff" + data[offset:])
    with pytest.raises(prefsense.ValidationError, match=re.escape(f"{path}: not UTF-8 text (invalid start byte)")):
        fn(path)
