"""Acceptance gate: the thirteen verification criteria at full scale.

Each test runs one criterion exactly as the `verify` CLI command does
(same seeds, same sample sizes, same tolerances) and prints a one-line
pass/fail verdict; run with `pytest -s` to see the lines.

Criteria summary:
 1 composition of the worked example values (0.5013 / 0.9951)
 2 the worked example's derivative (22.37) and region membership
 3 closed-form pairwise area vs 10^6-sample Monte Carlo, 2% relative
 4 tuple-area 1/M^2 scaling vs quadrature, 1e-4 absolute (1/M rejected)
 5 analytic derivatives vs central differences, 1e-5 relative
 6 region membership coherent with derivative magnitudes
 7 raster class transitions within one cell of analytic boundaries
 8 pairwise area exceeds tuple area on the full (M, alpha, beta) grid
 9 constructed witness points exceed their thresholds (both links)
10 reward-model probability cross-check (0.9533 / 0.4382)
11 dataset sweep protocol: frequencies, exclusion, reproducibility
12 fitting round trip: sampled counts and the two-option closed form
13 pair-probability density modes: 1 below the variance threshold, 2 above
"""

import pytest

from prefsense.verification import CHECKS, CheckResult


def _report(result: CheckResult) -> None:
    print(f"[{'PASS' if result.passed else 'FAIL'}] {result.name}: {result.details}")
    assert result.passed, f"{result.name}: {result.details}"


@pytest.mark.parametrize("name,check", CHECKS, ids=[name for name, _ in CHECKS])
def test_acceptance_criterion(name, check):
    _report(check(False))


def test_every_criterion_is_covered():
    # The order of the summary above, which is the order the checks are defined in.
    assert [name for name, _ in CHECKS] == [
        "example_composition",
        "example_sensitivity",
        "bt_area_monte_carlo",
        "pl_area_exponent",
        "derivative_oracles",
        "region_coherence",
        "raster_boundaries",
        "area_comparison",
        "witness_construction",
        "reward_model_crosscheck",
        "dataset_protocol",
        "fitting_round_trip",
        "logit_normal_modes",
    ]
