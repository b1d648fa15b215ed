"""The oracle machinery itself: determinism, convergence, guards."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from prefsense import (
    DomainError,
    EnumerationSizeError,
    UnsupportedThresholdError,
    bt_compose,
    brute_force_pl,
    finite_diff,
    logit_normal_density,
    make_rng,
    mc_area_bt,
    mode_count,
    pl_prob,
    pl_region_area,
    quad_area_pl,
    ratio_matrix,
)
from prefsense.oracles import MAX_GRID_N, MAX_MC_SAMPLES


class TestMakeRng:
    def test_deterministic(self):
        assert make_rng(42).random(5).tolist() == make_rng(42).random(5).tolist()

    def test_seed_sensitivity(self):
        assert make_rng(1).random(5).tolist() != make_rng(2).random(5).tolist()

    def test_counter_based_family(self):
        assert isinstance(make_rng(0).bit_generator, np.random.Philox)

    @pytest.mark.parametrize("seed", ["x", None, 1.5, 1.0], ids=["x", "None", "1.5", "1.0"])
    def test_non_integer_seed(self, seed):
        with pytest.raises(DomainError, match="seed must be an integer"):
            make_rng(seed)

    def test_negative_seed(self):
        with pytest.raises(DomainError, match="seed must be at least 0"):
            make_rng(-1)

    def test_numpy_integer_seed(self):
        assert make_rng(np.int64(7)).random(5).tolist() == make_rng(7).random(5).tolist()


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
        with pytest.raises(DomainError, match="slot must be an integer"):
            finite_diff(lambda x: x, (0.5,), slot=0.5)
        with pytest.raises(DomainError, match="point must have at least one coordinate"):
            finite_diff(lambda: 0.0, ())
        with pytest.raises(DomainError, match="point coordinate must be a real number"):
            finite_diff(lambda x: x, ("x",))
        with pytest.raises(DomainError):
            finite_diff(lambda x: x, (0.5,), h=0.0)
        for h in (math.nan, math.inf):
            with pytest.raises(DomainError):
                finite_diff(lambda x: x * x, (0.5,), h=h)

    def test_arrays_equal_scalar_calls(self):
        # Points near both ends shrink the step; the rest use h.
        rng = make_rng(12)
        a = np.concatenate([[1e-7, 1.0 - 1e-7, 0.5], rng.random(300)])
        b = rng.random(len(a))
        calls = []

        def compose(x, y):
            calls.append(np.shape(x))
            return bt_compose(x, y)

        for slot in (0, 1):
            calls.clear()
            fd = finite_diff(compose, (a, b), slot=slot)
            assert calls == [a.shape, a.shape]
            want = [finite_diff(bt_compose, (x, y), slot=slot) for x, y in zip(a.tolist(), b.tolist())]
            assert fd.tolist() == want
        # A float coordinate broadcasts against an array one.
        assert finite_diff(bt_compose, (a, 0.3)).tolist() == [
            finite_diff(bt_compose, (x, 0.3)) for x in a.tolist()
        ]
        assert type(finite_diff(bt_compose, (0.4, 0.3))) is float

    def test_one_element_array_stays_an_array(self):
        fd = finite_diff(bt_compose, (np.array([0.4]), 0.3))
        assert isinstance(fd, np.ndarray) and fd.shape == (1,)
        assert fd.tolist() == [finite_diff(bt_compose, (0.4, 0.3))]

    def test_array_point_too_close_to_the_boundary(self):
        with pytest.raises(DomainError, match="cannot perturb slot 0 at 5e-10"):
            finite_diff(lambda x: x, (np.array([0.5, 5e-10, 0.2]),))
        with pytest.raises(DomainError, match="point coordinate must be finite"):
            finite_diff(lambda x: x, (np.array([0.5, math.nan]),))


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

    def test_cap_refused_before_any_draw(self, monkeypatch):
        def no_draws(seed):
            raise AssertionError("drew before refusing")

        monkeypatch.setattr("prefsense.oracles.make_rng", no_draws)
        with pytest.raises(DomainError, match=f"n must lie in \\[10000, {MAX_MC_SAMPLES}\\]"):
            mc_area_bt(2.0, MAX_MC_SAMPLES + 1)
        with pytest.raises(DomainError):
            mc_area_bt(2.0, 10**12)

    @pytest.mark.parametrize("n", [10_000, 65_537, 200_001])
    @pytest.mark.parametrize("seed", [0, 8, 12345])
    def test_blocks_equal_one_shot_draw(self, n, seed):
        # The estimator as one (n, 2) draw, written out here rather than
        # imported, so it stays a fixed reference for the blocked draws.
        for threshold in (1.5, 10.0):
            pts = make_rng(seed).random((n, 2))
            p, q = pts[:, 0], pts[:, 1]
            with np.errstate(divide="ignore", invalid="ignore"):
                deriv = q * (1.0 - q) / (p + q - 2.0 * p * q - 1.0) ** 2
            frac = int(np.count_nonzero(np.abs(deriv) > threshold)) / n
            est = mc_area_bt(threshold, n, seed)
            assert est.value == frac
            assert est.std_error == math.sqrt(frac * (1.0 - frac) / n)

    def test_peak_memory_does_not_grow_with_n(self):
        # One block of 2^16 rows holds 1 MiB of points; its temporaries a
        # few MiB more. A one-shot draw at 10^7 would take about 390 MiB.
        peaks = []
        for n in (10**6, 10**7):
            tracemalloc.start()
            try:
                mc_area_bt(2.0, n, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 8 * 2**20
        assert peaks[1] < peaks[0] + 2**20

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

    @pytest.mark.parametrize("seed", ["x", 1.5, -1], ids=["x", "1.5", "-1"])
    def test_bad_seed(self, seed):
        with pytest.raises(DomainError, match="seed must be"):
            mc_area_bt(2.0, 10_000, seed=seed)

    def test_numpy_integer_seed(self):
        estimate = mc_area_bt(2.0, 10_000, seed=np.int64(3))
        assert type(estimate.seed) is int
        assert estimate == mc_area_bt(2.0, 10_000, seed=3)


    # 70_001 is not a multiple of the block, so the last block is short.
    @pytest.mark.parametrize("seed", [0, 8, 12345])
    def test_thresholds_share_one_draw(self, seed):
        thresholds = (1.5, 2.0, 5.0, 10.0)
        est = mc_area_bt(np.array(thresholds), 70_001, seed)
        assert (est.n_samples, est.seed) == (70_001, seed)
        assert est.value.shape == est.std_error.shape == (4,)
        for m, value, std_error in zip(thresholds, est.value.tolist(), est.std_error.tolist()):
            one = mc_area_bt(m, 70_001, seed)
            assert isinstance(one.value, float) and isinstance(one.std_error, float)
            assert (value, std_error) == (one.value, one.std_error)
        assert mc_area_bt(list(thresholds), 70_001, seed).value.tolist() == est.value.tolist()

    def test_threshold_sequence_guards(self):
        with pytest.raises(DomainError, match="1-D"):
            mc_area_bt(np.full((2, 2), 2.0), 10_000)
        with pytest.raises(DomainError, match="at least one threshold"):
            mc_area_bt([], 10_000)
        with pytest.raises(UnsupportedThresholdError):
            mc_area_bt([2.0, 1.0], 10_000)
        with pytest.raises(DomainError, match="threshold must be"):
            mc_area_bt([2.0, "x"], 10_000)
        with pytest.raises(DomainError, match="threshold must be finite"):
            mc_area_bt(np.array([2.0, np.nan]), 10_000)


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

    def test_grid_cap(self):
        with pytest.raises(DomainError, match=f"grid_n must lie in \\[10000, {MAX_GRID_N}\\]"):
            quad_area_pl(2.0, 1.01, 0.99, "uv", MAX_GRID_N + 1)

    def test_huge_threshold_area_underflows_to_zero(self):
        assert quad_area_pl(1e200, 1.01, 0.99) == 0.0

    # 4 * alpha * threshold overflows to inf; the closed form gives 0.0 too.
    @pytest.mark.parametrize("threshold, alpha", [(1e308, 1.01), (2.0, 1e308)])
    def test_overflowing_scale_gives_zero(self, threshold, alpha):
        assert quad_area_pl(threshold, alpha, 0.99, "uv", 10_000) == 0.0
        assert pl_region_area(threshold, alpha, 0.99) == 0.0

    # alpha * alpha overflows to inf where alpha**2 would raise OverflowError.
    def test_huge_alpha_reverse_area_is_zero(self):
        assert quad_area_pl(2.0, 1e200, 1.0, "vu") == 0.0


class TestBruteForce:
    def test_pair_equal_scores(self):
        table = brute_force_pl((0.0, 0.0), 2)
        assert table[(0, 1)] == pytest.approx(0.5)
        assert table[(1, 0)] == pytest.approx(0.5)

    def test_triple_sums_to_one(self):
        table = brute_force_pl((1.0, 0.0, -1.0), 3)
        assert len(table) == 6
        assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)

    def test_reproduces_production_path(self):
        rng = make_rng(31)
        scores = rng.uniform(-2, 2, size=4)
        for k in (2, 3, 4):
            table = brute_force_pl(scores, k)
            assert len(table) == math.perm(4, k)
            for perm, value in table.items():
                assert value == pytest.approx(pl_prob(scores[list(perm)]), abs=1e-12)

    def test_subset_rankings_normalize(self):
        table = brute_force_pl((0.5, 0.1, -0.2, -0.9), 3)
        for subset in itertools.combinations(range(4), 3):
            total = sum(v for perm, v in table.items() if set(perm) == set(subset))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_swap_ratio_identity(self):
        rng = make_rng(32)
        scores = rng.uniform(-2, 2, size=4)
        for k in (3, 4):
            table = brute_force_pl(scores, k)
            for perm in table:
                u, v = perm[-2], perm[-1]
                swapped = perm[:-2] + (v, u)
                assert table[swapped] / table[perm] == pytest.approx(
                    ratio_matrix(scores[list(perm)])[-2, -1], rel=1e-12
                )

    def test_size_guard(self):
        scores = [0.0] * 8
        with pytest.raises(EnumerationSizeError):
            brute_force_pl(scores, 7)
        with pytest.raises(DomainError, match=r"K must lie in \[2, 8\], got 1"):
            brute_force_pl(scores, 1)
        with pytest.raises(DomainError, match="K must be an integer"):
            brute_force_pl(scores, 2.5)

    # The size guard comes first, so K = 7 on three options is still an EnumerationSizeError.
    @pytest.mark.parametrize("k, error", [(4, DomainError), (7, EnumerationSizeError)])
    def test_k_beyond_the_option_count(self, k, error):
        with pytest.raises(error, match="K must lie in" if error is DomainError else "K <= 6"):
            brute_force_pl((0.0, 0.5, 1.0), k)


def _scalar_density(x, sigma2):
    """The logit-normal density one point at a time, with math's functions."""
    var = 2.0 * sigma2
    t = math.log(x / (1.0 - x))
    return math.exp(-t * t / (2.0 * var)) / math.sqrt(2.0 * math.pi * var) / (x * (1.0 - x))


def _scalar_mode_count(sigma2, grid_n=10_000):
    """mode_count's scan over a density evaluated by a scalar loop, with
    the density's limit 0 at both ends."""
    grid = np.linspace(0.0, 1.0, grid_n + 2)[1:-1]
    dens = np.array([0.0] + [_scalar_density(float(x), sigma2) for x in grid] + [0.0])
    keep = np.ones(len(dens), dtype=bool)
    keep[1:] = dens[1:] != dens[:-1]
    vals = dens[keep]
    if len(vals) < 3:
        return 0
    inner = vals[1:-1]
    return int(np.count_nonzero((inner > vals[:-2]) & (inner > vals[2:])))


class TestModeCount:
    @pytest.mark.parametrize(
        "sigma2,expected",
        [(0.5, 1), (0.999, 1), (1.0 - 1e-3, 1), (1.1, 2), (2.0, 2)],
    )
    def test_mode_structure(self, sigma2, expected):
        assert mode_count(sigma2, 10_000) == expected

    @pytest.mark.parametrize("sigma2", [0.5, 0.9, 0.999, 1.001, 1.1, 2.0, 5.0])
    def test_equals_scalar_loop(self, sigma2):
        assert mode_count(sigma2, 10_000) == _scalar_mode_count(sigma2)

    def test_modes_beyond_the_end_points(self):
        # At sigma2 = 5 the modes lie at about 4.5e-5 and 1 - 4.5e-5, closer
        # to the ends than the first and last grid points (1/10001): the
        # density falls from both of those points towards the middle.
        grid = np.linspace(0.0, 1.0, 10_002)[1:-1]
        dens = logit_normal_density(grid, 5.0)
        assert dens[0] > dens[1] and dens[-1] > dens[-2]
        assert mode_count(5.0) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma2", [1e-300, 1e-310])
    def test_density_underflow_has_no_mode(self, sigma2):
        # The density is 0.0 at every grid point, without an overflow
        # warning: one plateau, no interior maximum.
        grid = np.linspace(0.0, 1.0, 10_002)[1:-1]
        assert not np.any(logit_normal_density(grid, sigma2))
        assert mode_count(sigma2) == 0

    @pytest.mark.parametrize("sigma2", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_sigma2(self, sigma2):
        with pytest.raises(DomainError, match="sigma2"):
            mode_count(sigma2)

    def test_grid_guard(self):
        with pytest.raises(DomainError):
            mode_count(1.1, 100)
        with pytest.raises(DomainError, match=f"grid_n must lie in \\[10000, {MAX_GRID_N}\\]"):
            mode_count(1.1, MAX_GRID_N + 1)

    @pytest.mark.parametrize("grid_n", ["x", 1e4], ids=["x", "1e4"])
    def test_non_integer_grid(self, grid_n):
        with pytest.raises(DomainError, match="grid_n must be an integer"):
            mode_count(1.1, grid_n)
