"""The oracle machinery itself: determinism, convergence, guards."""

import itertools
import math

import numpy as np
import pytest

from prefsense import (
    DomainError,
    EnumerationSizeError,
    KTuplePreference,
    ScoredOptionSet,
    UnsupportedThresholdError,
    bt_compose,
    brute_force_pl,
    finite_diff,
    make_rng,
    mc_area_bt,
    mode_count,
    pl_prob,
    pl_ratio,
    quad_area_pl,
)


class TestMakeRng:
    def test_deterministic(self):
        assert make_rng(42).random(5).tolist() == make_rng(42).random(5).tolist()

    def test_seed_sensitivity(self):
        assert make_rng(1).random(5).tolist() != make_rng(2).random(5).tolist()

    def test_counter_based_family(self):
        assert isinstance(make_rng(0).bit_generator, np.random.Philox)


class TestFiniteDiff:
    def test_identity(self):
        assert finite_diff(lambda x: x, (0.37,)) == pytest.approx(1.0, abs=1e-9)
        assert finite_diff(lambda x, y: y, (0.3, 0.7), slot=1) == pytest.approx(1.0, abs=1e-9)

    def test_known_midpoint(self):
        fd = finite_diff(bt_compose, (0.5, 0.5), slot=0)
        assert fd == pytest.approx(1.0, abs=1e-5)

    def test_example_point(self):
        fd = finite_diff(bt_compose, (0.99, 0.02), slot=0, h=1e-7)
        assert fd == pytest.approx(22.37, abs=0.01)

    def test_step_shrinks_near_boundary(self):
        # The effective step must keep both evaluation points inside.
        calls = []

        def probe(x):
            calls.append(x)
            return x

        assert finite_diff(probe, (1e-7,), h=1e-6) == pytest.approx(1.0, abs=1e-6)
        assert all(0.0 < c < 1.0 for c in calls)

    def test_boundary_rejection(self):
        with pytest.raises(DomainError):
            finite_diff(lambda x: x, (5e-10,), h=1e-6)
        with pytest.raises(DomainError):
            finite_diff(lambda x: x, (0.5,), slot=3)
        with pytest.raises(DomainError):
            finite_diff(lambda x: x, (0.5,), h=0.0)


class TestMCAreaBT:
    def test_deterministic(self):
        a = mc_area_bt(2.0, 10_000, seed=123)
        b = mc_area_bt(2.0, 10_000, seed=123)
        assert a == b

    def test_brackets_closed_form(self):
        est = mc_area_bt(2.0, 1_000_000, seed=8)
        assert abs(est.value - 0.0739190958061754) <= 3 * est.std_error + 1e-4

    def test_vanishing_region(self):
        est = mc_area_bt(1e6, 10_000, seed=0)
        assert est.value < 1e-3

    def test_std_error_scaling(self):
        # Binomial standard error should scale as 1/sqrt(n) within 20%.
        scaled = [
            mc_area_bt(2.0, n, seed=5).std_error * math.sqrt(n)
            for n in (10_000, 100_000, 1_000_000)
        ]
        for value in scaled[1:]:
            assert value == pytest.approx(scaled[0], rel=0.2)

    def test_guards(self):
        with pytest.raises(UnsupportedThresholdError):
            mc_area_bt(1.0, 10_000)
        with pytest.raises(DomainError):
            mc_area_bt(2.0, 100)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf])
    def test_non_finite_threshold(self, threshold):
        with pytest.raises(DomainError):
            mc_area_bt(threshold, 10_000)

    @pytest.mark.parametrize("n", ["x", None, 1e5, 10_000.5], ids=["x", "None", "1e5", "10000.5"])
    def test_non_integer_n(self, n):
        with pytest.raises(DomainError, match="n must be an integer"):
            mc_area_bt(2.0, n)

    def test_numpy_integer_n(self):
        assert mc_area_bt(2.0, np.int64(10_000), seed=3) == mc_area_bt(2.0, 10_000, seed=3)


class TestQuadAreaPL:
    def test_matches_closed_form(self):
        value = quad_area_pl(2.0, 1.01, 0.99, "uv", 100_000)
        assert value == pytest.approx(0.99**2 / (6 * 1.01 * 4), abs=1e-5)

    def test_degenerate_context(self):
        assert quad_area_pl(2.0, 1.0, 1.0, "uv", 100_000) == pytest.approx(1 / 24, abs=1e-5)

    def test_direction_ratio(self):
        uv = quad_area_pl(2.0, 1.3, 0.8, "uv", 100_000)
        vu = quad_area_pl(2.0, 1.3, 0.8, "vu", 100_000)
        assert uv / vu == pytest.approx(1.3**2, rel=1e-4)

    def test_guards(self):
        with pytest.raises(UnsupportedThresholdError):
            quad_area_pl(0.5, 1.01, 0.99)
        with pytest.raises(DomainError):
            quad_area_pl(2.0, 1.01, 0.99, "sideways")
        with pytest.raises(DomainError):
            quad_area_pl(2.0, 1.01, 0.99, "uv", 100)
        with pytest.raises(DomainError):
            quad_area_pl(2.0, 0.5, 0.99)

    @pytest.mark.parametrize(
        "args", [(math.nan, 1.01, 0.99), (2.0, math.nan, 0.99), (2.0, math.inf, 0.99)]
    )
    def test_non_finite_arguments(self, args):
        with pytest.raises(DomainError):
            quad_area_pl(*args)

    @pytest.mark.parametrize("grid_n", ["x", 1e5], ids=["x", "1e5"])
    def test_non_integer_grid(self, grid_n):
        with pytest.raises(DomainError, match="grid_n must be an integer"):
            quad_area_pl(2.0, 1.1, 0.5, grid_n=grid_n)


class TestBruteForce:
    def test_pair_equal_scores(self):
        options = ScoredOptionSet(["a", "b"], [0.0, 0.0])
        table = brute_force_pl(options, 2)
        assert table[(0, 1)] == pytest.approx(0.5)
        assert table[(1, 0)] == pytest.approx(0.5)

    def test_triple_sums_to_one(self):
        options = ScoredOptionSet(["a", "b", "c"], [1.0, 0.0, -1.0])
        table = brute_force_pl(options, 3)
        assert len(table) == 6
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)

    def test_reproduces_production_path(self):
        rng = make_rng(31)
        options = ScoredOptionSet(["a", "b", "c", "d"], rng.uniform(-2, 2, size=4))
        for k in (2, 3, 4):
            table = brute_force_pl(options, k)
            assert len(table) == math.perm(4, k)
            for perm, value in table.items():
                assert value == pytest.approx(
                    pl_prob(KTuplePreference(perm), options), abs=1e-12
                )

    def test_subset_rankings_normalize(self):
        options = ScoredOptionSet(["a", "b", "c", "d"], [0.5, 0.1, -0.2, -0.9])
        table = brute_force_pl(options, 3)
        for subset in itertools.combinations(range(4), 3):
            total = sum(v for perm, v in table.items() if set(perm) == set(subset))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_swap_ratio_identity(self):
        rng = make_rng(32)
        options = ScoredOptionSet(["a", "b", "c", "d"], rng.uniform(-2, 2, size=4))
        for k in (3, 4):
            table = brute_force_pl(options, k)
            for perm in table:
                u, v = perm[-2], perm[-1]
                swapped = perm[:-2] + (v, u)
                assert table[swapped] / table[perm] == pytest.approx(
                    pl_ratio(options, u, v), rel=1e-12
                )

    def test_size_guard(self):
        options = ScoredOptionSet([f"o{i}" for i in range(8)], [0.0] * 8)
        with pytest.raises(EnumerationSizeError):
            brute_force_pl(options, 7)
        with pytest.raises(DomainError):
            brute_force_pl(options, 1)


class TestModeCount:
    @pytest.mark.parametrize(
        "sigma2,expected",
        [(0.5, 1), (0.999, 1), (1.0 - 1e-3, 1), (1.1, 2), (2.0, 2)],
    )
    def test_mode_structure(self, sigma2, expected):
        assert mode_count(sigma2, 10_000) == expected

    def test_grid_guard(self):
        with pytest.raises(DomainError):
            mode_count(1.1, 100)

    @pytest.mark.parametrize("grid_n", ["x", 1e4], ids=["x", "1e4"])
    def test_non_integer_grid(self, grid_n):
        with pytest.raises(DomainError, match="grid_n must be an integer"):
            mode_count(1.1, grid_n)
