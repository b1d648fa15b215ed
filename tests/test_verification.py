"""The verify suite's own behaviour: failing gates and the pinned details."""

import dataclasses
import gc
import json
import math
import re
import weakref
from pathlib import Path

import numpy as np
import pytest

from prefsense import (
    LOGISTIC,
    PROBIT,
    bt_compose,
    bt_partial,
    bt_region_slice,
    compose_pairwise,
    general_partial,
    make_rng,
    pl_context,
    pl_partials,
    pl_prob_from_ratios,
    pl_region,
    ratio_matrix,
    verification,
)

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

    def wrong_terms(p, q):
        points.extend(zip(p.tolist(), q.tolist()))
        return np.zeros_like(p), np.ones_like(p)

    monkeypatch.setattr(verification, "bt_partial_terms", wrong_terms)
    result = verification.check_derivative_oracles(True)
    assert not result.passed
    a, b = points[0]
    # rel = |0 - fd| / |fd| = 1 at every point, against the 1e-5 bound.
    assert f"bt at ({a:.6g}, {b:.6g}): 1, want <= 1e-05" in result.details


def _scalar_central_difference(fn, at, slot):
    """One point at a time, in Python floats: the step finite_diff takes."""
    x = at[slot]
    h = min(1e-6, x - 1e-9, 1.0 - x - 1e-9)
    hi, lo = list(at), list(at)
    hi[slot], lo[slot] = x + h, x - h
    return (fn(*hi) - fn(*lo)) / (2.0 * h)


def test_derivative_errors_equal_a_scalar_loop():
    # The quick run's 200 points, one scalar call per point and derivative.
    scores = (0.8, 0.1, -0.4, -1.2)
    alpha, beta = pl_context(scores, 1, 2)
    ratios = ratio_matrix(scores)
    a, b = (0.01 + 0.98 * make_rng(verification.VERIFY_SEED).random((200, 2))).T
    got = verification._derivative_errors(a, b, alpha, beta, verification._swap_ratio_fn(ratios, 1, 2))

    def ratio_prob(p_uv, p_vu):
        r = ratios.copy()
        r[1, 2], r[2, 1] = p_vu / p_uv, p_uv / p_vu
        return pl_prob_from_ratios(r)

    want = {name: [] for name in ("bt", "logistic", "probit", "pl_uv", "pl_vu")}
    rel = lambda exact, fd: abs(exact - fd) / abs(fd)
    for at in zip(a.tolist(), b.tolist()):
        want["bt"].append(rel(bt_partial(*at), _scalar_central_difference(bt_compose, at, 0)))
        for name, link in (("logistic", LOGISTIC), ("probit", PROBIT)):
            compose = lambda x, y: compose_pairwise(link, x, y)
            want[name].append(rel(general_partial(link, *at), _scalar_central_difference(compose, at, 0)))
        d_uv, d_vu = pl_partials(*at, alpha, beta)
        want["pl_uv"].append(rel(d_uv, _scalar_central_difference(ratio_prob, at, 0)))
        want["pl_vu"].append(rel(d_vu, _scalar_central_difference(ratio_prob, at, 1)))
    assert {name: errors.tolist() for name, errors in got.items()} == want


def test_holds_gate_failure_names_the_point():
    gates = verification._Gates()
    gates.holds("sample count", True, (0.5,))
    assert gates.failures == []
    gates.holds("sample count", False, (0.25, "dog"))
    gates.holds("sweep has 21 specs", False)
    assert gates.failures == [
        "sample count at (0.25, dog): does not hold",
        "sweep has 21 specs: does not hold",
    ]


def test_wrong_pl_area_fails_the_exponent_check(monkeypatch):
    right = verification.pl_region_area
    monkeypatch.setattr(
        verification,
        "pl_region_area",
        lambda m, alpha, beta: 1.01 * right(m, alpha, beta),
    )
    result = verification.check_pl_area_exponent(True)
    assert not result.passed
    assert "|quad - 1/M^2 form| at (1.01, 0.99, 2)" in result.details


def test_transition_distance_cases():
    centers = (np.arange(8) + 0.5) / 8
    inside = (centers > 0.3) & (centers < 0.6)
    nan = math.nan

    def distance(interval, exceeded, curve):
        # One row at fixed coordinate centers[0]; NaN stands for no interval or curve.
        lo, hi = np.array([interval[0]]), np.array([interval[1]])
        curves = tuple(np.array([c]) for c in curve)
        [dist] = verification._transition_distances(centers, lo, hi, curves, exceeded[None, :]).tolist()
        return dist

    assert distance((0.3, 0.6), inside, (0.3, 0.6)) == 0.0
    assert distance((nan, nan), np.zeros(8, dtype=bool), (nan, nan)) == 0.0
    assert distance((nan, nan), inside, (nan, nan)) == math.inf
    # Cells 0.3125 .. 0.6875 read as exceeded; 0.6875 disagrees, nearest curve point 0.6.
    wide = (centers > 0.3) & (centers < 0.7)
    assert distance((0.3, 0.6), wide, (0.3, 0.6)) == 0.6875 - 0.6
    everywhere = np.ones(8, dtype=bool)
    want = max(min(abs(x - c) for c in (0.3, 0.6)) for x in centers[~inside])
    assert distance((0.3, 0.6), everywhere, (0.3, 0.6)) == want
    # An empty BT slice: no interval, one (clamped) boundary point.
    assert distance((nan, nan), inside, (1.0,)) == 1.0 - 0.3125
    # Rows are independent: each gets its own worst distance.
    rows = np.stack([inside, wide, everywhere, np.zeros(8, dtype=bool)])
    lo, hi = np.array([0.3, 0.3, 0.3, nan]), np.array([0.6, 0.6, 0.6, nan])
    dist = verification._transition_distances(centers, lo, hi, (lo, hi), rows)
    assert dist.tolist() == [0.0, 0.6875 - 0.6, want, 0.0]


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


def test_wrong_region_fails_region_coherence_at_the_point(monkeypatch):
    right = verification.bt_region_terms
    # The region of a lower threshold is too large: some of its points are not sensitive.
    monkeypatch.setattr(verification, "bt_region_terms", lambda m, q: right(1.0 + (m - 1.0) / 2, q))
    result = verification.check_region_coherence(True)
    assert not result.passed
    assert "pl " not in result.details
    first = result.details.split("; ")[0]
    match = re.fullmatch(r"bt_partial inside region at \((\S+), (\S+)\): (\S+), want > (\S+)", first)
    assert match, first
    p, q, value, bound = map(float, match.groups())
    assert value <= bound
    assert bt_partial(p, q) == pytest.approx(value, rel=1e-5)


def _scalar_region_coherence_gates(quick):
    """The region_coherence gates, one point and one scalar region call at a time."""
    gates = []
    n_points = 200 if quick else 1000
    rng = make_rng(verification.VERIFY_SEED)
    alpha, beta = verification.FIGURE_ALPHA, verification.FIGURE_BETA
    unit = lambda: 1e-6 + (1 - 2e-6) * rng.random()
    clamp = lambda v: min(max(v, 1e-9), 1 - 1e-9)
    for m in (1.01, 2.0, 3.0, 5.0, 10.0):
        for _ in range(n_points // 5):
            if rng.random() < 0.5:
                q = unit() / (1.0 + m)
            else:
                q = m / (1.0 + m) + (1.0 - m / (1.0 + m)) * unit()
            lo, hi = bt_region_slice(m, q).interval
            p = lo + (hi - lo) * unit()
            gates.append(("above", "bt_partial inside region", bt_partial(p, q), m, (p, q)))
            for which in ("uv", "vu"):
                fixed = beta / (4.0 * alpha * m) * unit()
                lo, hi = pl_region(m, alpha, beta, fixed, which).interval
                free = lo + (hi - lo) * unit()
                x, y = (fixed, free) if which == "uv" else (free, fixed)
                d_uv, d_vu = pl_partials(x, y, alpha, beta)
                name = "pl d_uv" if which == "uv" else "|pl d_vu|"
                gates.append(("above", f"{name} inside region", abs(d_uv if which == "uv" else d_vu), m, (x, y)))
        inside = (
            lambda x, y: bt_region_slice(m, y).contains(x),
            lambda x, y: pl_region(m, alpha, beta, x, "uv").contains(y),
            lambda x, y: pl_region(m, alpha, beta, y, "vu").contains(x),
        )
        n_out = 0
        # 1024 pairs are drawn per threshold; those up to the quota-th pair
        # outside the BT region are gated.
        for p, q in [rng.random(2).tolist() for _ in range(1024)]:
            if n_out == n_points // 5:
                break
            if not (0 < p < 1 and 0 < q < 1):
                continue
            probes = ((p, q), (p - 1e-3, q), (p + 1e-3, q), (p, q - 1e-3), (p, q + 1e-3))
            out = [not any(f(clamp(x), clamp(y)) for x, y in probes) for f in inside]
            d_uv, d_vu = pl_partials(p, q, alpha, beta)
            for is_out, name, value in zip(
                out,
                ("bt_partial", "pl d_uv", "|pl d_vu|"),
                (bt_partial(p, q), d_uv, abs(d_vu)),
            ):
                if is_out:
                    gates.append(("at_most", f"{name} outside region", value, m, (p, q)))
            n_out += out[0]
    return gates


def test_region_coherence_gates_equal_a_scalar_loop(monkeypatch):
    gates = []
    for kind in ("above", "at_most"):
        right = getattr(verification._Gates, kind)

        def record(self, name, value, bound, at=(), kind=kind, right=right):
            # One record per entry, as one scalar call per point would give.
            points = zip(*(np.ravel(v).tolist() for v in at))
            gates.extend((kind, name, v, bound, point) for v, point in zip(np.ravel(value).tolist(), points))
            right(self, name, value, bound, at)

        monkeypatch.setattr(verification._Gates, kind, record)
    assert verification.check_region_coherence(True).passed
    # The check gates a region's points in one call, the loop one point at a
    # time: a stable sort by gate and threshold keeps each one's point order.
    by_gate = lambda gate: (gate[0], gate[1], gate[3])
    assert sorted(gates, key=by_gate) == sorted(_scalar_region_coherence_gates(True), key=by_gate)


def test_array_gate_fails_each_entry_at_its_point():
    gates = verification._Gates()
    p = np.array([0.1, 0.2, 0.3, 0.4])
    gates.at_most("rel", np.array([0.5, 1.0, 0.0, -1.0]), 1.0, (p, 7.0, "uv"))
    gates.above("d", np.array([2.0, 1.5, 9.0, 1.01]), 1.0, (p, 7.0, "uv"))
    assert gates.failures == []
    gates.at_most("rel", np.array([0.5, 2.0, 0.5, 3.0]), 1.0, (p, 7.0, "uv"))
    gates.above("d", np.array([0.5, 2.0, 1.0, 3.0]), 1.0, (p, 7.0, "uv"))
    assert gates.failures == [
        "rel at (0.2, 7, uv): 2, want <= 1",
        "rel at (0.4, 7, uv): 3, want <= 1",
        "d at (0.1, 7, uv): 0.5, want > 1",
        "d at (0.3, 7, uv): 1, want > 1",
    ]


@pytest.mark.parametrize("kind, passing, want", [("at_most", 0.5, "<= 1"), ("above", 2.0, "> 1")])
def test_array_gate_fails_a_nan_entry(kind, passing, want):
    gates = verification._Gates()
    getattr(gates, kind)("g", np.array([passing, math.nan]), 1.0, (np.array([0.1, 0.2]),))
    assert gates.failures == [f"g at (0.2): nan, want {want}"]


@pytest.mark.parametrize(
    "values",
    [[0.5, 2.0, 1.0], [math.nan, 0.25], [0.25, math.nan, 3.0], [math.nan], [-1.0, -2.0]],
)
def test_array_gate_worst_equals_a_scalar_loop(values):
    array, scalar = verification._Gates(), verification._Gates()
    for gates in (array, scalar):
        gates.at_most("g", 0.1, 1.0)
    array.at_most("g", np.array(values), 1.0)
    for value in values:
        scalar.at_most("g", value, 1.0)
    assert array.worst == scalar.worst
    assert array.failures == scalar.failures


# MC_AREA_SEED's comment claims a 6x margin on the 2% gate in the full run
# and 2.3x with --quick; the worst rel is 0.0033 and 0.0086.
@pytest.mark.parametrize("quick, margin", [(False, 6.0), (True, 2.3)], ids=["full", "quick"])
def test_monte_carlo_area_seed_margin(monkeypatch, quick, margin):
    draws = []
    right = verification.mc_area_bt

    def recording(thresholds, n, seed):
        result = right(thresholds, n, seed)
        draws.append((thresholds, result.value.tolist()))
        return result

    monkeypatch.setattr(verification, "mc_area_bt", recording)
    assert verification.check_bt_area_monte_carlo(quick).passed
    [(thresholds, estimates)] = draws
    closed = [verification.bt_region_area(m) for m in thresholds]
    worst = max(abs(v - c) / c for v, c in zip(estimates, closed))
    assert 0.02 / worst >= margin


def test_quick_details_match_the_pinned_strings():
    expected = json.loads(EXPECTED.read_text())["verify_details"]["quick"]
    results = verification.run_all(quick=True)
    assert all(r.passed for r in results)
    assert {r.name: r.details for r in results} == expected
