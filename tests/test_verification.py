"""The verify suite's own behaviour: failing gates and the pinned details."""

import json
import math
from pathlib import Path

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


def test_quick_details_match_the_pinned_strings():
    expected = json.loads(EXPECTED.read_text())["verify_details"]["quick"]
    results = verification.run_all(quick=True)
    assert all(r.passed for r in results)
    assert {r.name: r.details for r in results} == expected
