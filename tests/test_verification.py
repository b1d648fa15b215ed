"""The verify suite's own behaviour: failing gates and the pinned details."""

import dataclasses
import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest

from prefsense import verification

EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"


@pytest.mark.parametrize("wrong", [0.7, math.nan])
def test_wrong_composition_fails_with_gate_value_and_bound(monkeypatch, wrong):
    monkeypatch.setattr(verification, "bt_compose", lambda p, q: wrong)
    result = verification.check_example_composition(False)
    assert not result.passed
    assert "|bt_compose - 0.5013| at (0.9801, 0.02)" in result.details
    assert f"{abs(wrong - 0.5013):.6g}, want <= 0.0001" in result.details
    assert f"{abs(wrong - 0.50):.6g}, want <= 0.005" in result.details


@pytest.mark.parametrize("wrong", [0.0, math.nan])
def test_wrong_derivative_fails_both_gate_kinds(monkeypatch, wrong):
    monkeypatch.setattr(verification, "bt_partial", lambda p, q: wrong)
    result = verification.check_example_sensitivity(False)
    assert not result.passed
    assert f"bt_partial at (0.99, 0.02): {wrong:.6g}, want > 20" in result.details
    assert f"{abs(wrong - 22.37):.6g}, want <= 0.01" in result.details


def test_wrong_partial_fails_derivative_oracles_at_the_point(monkeypatch):
    points = []

    def wrong_partial(p, q):
        points.append((p, q))
        return 0.0

    monkeypatch.setattr(verification, "bt_partial", wrong_partial)
    result = verification.check_derivative_oracles(True)
    assert not result.passed
    a, b = points[0]
    # rel = |0 - fd| / |fd| = 1 at every point, against the 1e-5 bound.
    assert f"bt at ({a:.6g}, {b:.6g}): 1, want <= 1e-05" in result.details


def test_wrong_pl_area_fails_the_exponent_check(monkeypatch):
    right = verification.pl_region_area
    monkeypatch.setattr(
        verification,
        "pl_region_area",
        lambda m, ctx: 1.01 * right(m, ctx),
    )
    result = verification.check_pl_area_exponent(True)
    assert not result.passed
    assert "|quad - 1/M^2 form| at (1.01, 0.99, 2)" in result.details


def test_transition_distance_cases():
    centers = (np.arange(8) + 0.5) / 8
    inside = (centers > 0.3) & (centers < 0.6)
    assert verification._transition_distance(centers, (0.3, 0.6), inside, [0.3, 0.6]) == 0.0
    assert verification._transition_distance(centers, None, np.zeros(8, dtype=bool), ()) == 0.0
    assert verification._transition_distance(centers, None, inside, ()) == math.inf
    # Cells 0.3125 .. 0.6875 read as exceeded; 0.6875 disagrees, nearest curve point 0.6.
    wide = (centers > 0.3) & (centers < 0.7)
    assert verification._transition_distance(centers, (0.3, 0.6), wide, [0.3, 0.6]) == 0.6875 - 0.6
    everywhere = np.ones(8, dtype=bool)
    want = max(min(abs(x - c) for c in (0.3, 0.6)) for x in centers[~inside])
    assert verification._transition_distance(centers, (0.3, 0.6), everywhere, [0.3, 0.6]) == want


def test_wrong_raster_fails_raster_boundaries(monkeypatch):
    right = verification.raster_bt

    def blank(*args):
        grid = right(*args)
        return dataclasses.replace(grid, classes=np.zeros_like(grid.classes))

    monkeypatch.setattr(verification, "raster_bt", blank)
    result = verification.check_raster_boundaries(True)
    assert not result.passed
    assert "bt raster row: transition to boundary at (" in result.details
    assert "pl " not in result.details


def test_raster_boundaries_keeps_one_grid_alive(monkeypatch):
    built = []

    def tracked(build):
        def wrapper(*args):
            gc.collect()
            assert all(ref() is None for ref in built), "an earlier grid is still alive"
            grid = build(*args)
            built.append(weakref.ref(grid))
            return grid

        return wrapper

    monkeypatch.setattr(verification, "raster_bt", tracked(verification.raster_bt))
    monkeypatch.setattr(verification, "raster_pl", tracked(verification.raster_pl))
    assert verification.check_raster_boundaries(True).passed
    assert len(built) == 3


def test_quick_details_match_the_pinned_strings():
    expected = json.loads(EXPECTED.read_text())["verify_details"]["quick"]
    results = verification.run_all(quick=True)
    assert all(r.passed for r in results)
    assert {r.name: r.details for r in results} == expected
