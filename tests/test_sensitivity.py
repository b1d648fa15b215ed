"""Sensitivity derivatives, regions, areas, and the two main results."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefsense import (
    LOGISTIC,
    PROBIT,
    DomainError,
    KTuplePreference,
    PLSensitivityContext,
    ScoredOptionSet,
    SingularityError,
    UnsupportedThresholdError,
    WitnessNotFoundError,
    bt_boundary,
    bt_compose,
    bt_partial,
    bt_region_area,
    bt_region_slice,
    compare_bt_pl_areas,
    compose_pairwise,
    finite_diff,
    general_partial,
    make_rng,
    mc_area_bt,
    pl_context,
    pl_partials,
    pl_prob_from_ratios,
    pl_region,
    pl_region_area,
    quad_area_pl,
    ratio_matrix,
    sensitivity_witness,
)

interior = st.floats(min_value=0.01, max_value=0.99)


class TestBTPartial:
    def test_midpoint(self):
        assert bt_partial(0.5, 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_example_point(self):
        assert bt_partial(0.99, 0.02) == pytest.approx(22.370343316289322, abs=1e-9)

    def test_positive_everywhere(self):
        rng = make_rng(41)
        for _ in range(500):
            a, b = rng.uniform(1e-3, 1 - 1e-3, size=2)
            assert bt_partial(a, b) > 0.0

    @given(interior, interior)
    @settings(max_examples=300)
    def test_matches_finite_difference(self, a, b):
        fd = finite_diff(bt_compose, (a, b), slot=0)
        assert bt_partial(a, b) == pytest.approx(fd, rel=1e-5)

    def test_finite_at_extreme_corners(self):
        # The singular corners (1, 0) and (0, 1) are excluded by the open
        # domain, and no representable interior point can round the
        # denominator to zero, so the formula stays finite right up to
        # the closest floats.
        near_one = 1.0 - 1e-16
        tiny = 5e-324
        for p, q in ((near_one, tiny), (tiny, near_one)):
            value = bt_partial(p, q)
            assert math.isfinite(value)
            assert value > 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bt_partial(0.0, 0.5)
        with pytest.raises(DomainError):
            bt_partial(0.5, 1.0)


class TestGeneralPartial:
    def test_midpoint_both_links(self):
        assert general_partial(LOGISTIC, 0.5, 0.5) == pytest.approx(1.0, abs=1e-12)
        assert general_partial(PROBIT, 0.5, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_logistic_reduces_to_closed_form(self):
        rng = make_rng(42)
        for _ in range(300):
            a, b = rng.uniform(0.01, 0.99, size=2)
            assert general_partial(LOGISTIC, a, b) == pytest.approx(
                bt_partial(a, b), rel=1e-9
            )

    def test_probit_matches_finite_difference(self):
        rng = make_rng(43)
        for _ in range(300):
            a, b = rng.uniform(0.01, 0.99, size=2)
            fd = finite_diff(lambda x, y: compose_pairwise(PROBIT, x, y), (a, b), slot=0)
            assert general_partial(PROBIT, a, b) == pytest.approx(fd, rel=1e-5)

    def test_vanishing_inner_slope_raises(self):
        # The guard is unreachable through the built-in links (their
        # derivatives stay positive for every representable probability),
        # so exercise it with a degenerate link.
        class FlatSpot(LOGISTIC.__class__):
            def derivative(self, x):
                return 0.0 if x > 1.0 else super().derivative(x)

        with pytest.raises(SingularityError) as exc_info:
            general_partial(FlatSpot(), 0.9, 0.3)
        assert exc_info.value.point == (0.9, 0.3)


class TestBTRegion:
    def test_example_slice(self):
        region = bt_region_slice(20.0, 0.02)
        assert region.case == "case1"
        assert region.boundary == pytest.approx(0.9882240086614614, abs=1e-9)
        assert region.interval == (region.boundary, 1.0)
        assert region.contains(0.99)
        assert not region.contains(0.98)

    def test_middle_band_empty(self):
        assert bt_region_slice(20.0, 0.5).case == "empty"
        assert bt_region_slice(20.0, 0.5).interval is None
        assert bt_region_slice(2.0, 0.4).case == "empty"

    def test_case2_slice(self):
        region = bt_region_slice(2.0, 0.9)
        assert region.case == "case2"
        assert region.boundary == pytest.approx(0.14016504294495535, abs=1e-9)
        # Derivative magnitude changes sign across the boundary.
        assert bt_partial(0.07, 0.9) > 2.0
        assert bt_partial(0.2, 0.9) < 2.0

    def test_case_thresholds(self):
        m = 3.0
        eps = 1e-9
        assert bt_region_slice(m, 1.0 / (1.0 + m) - eps).case == "case1"
        assert bt_region_slice(m, 1.0 / (1.0 + m) + eps).case == "empty"
        assert bt_region_slice(m, m / (1.0 + m) - eps).case == "empty"
        assert bt_region_slice(m, m / (1.0 + m) + eps).case == "case2"

    def test_membership_matches_derivative_sign(self):
        rng = make_rng(44)
        for m in (1.01, 2.0, 3.0, 5.0, 10.0):
            for _ in range(100):
                q = rng.uniform(1e-4, 1 - 1e-4)
                region = bt_region_slice(m, q)
                p = rng.uniform(1e-4, 1 - 1e-4)
                if region.contains(p):
                    assert bt_partial(p, q) > m
                elif region.interval is not None:
                    lo, hi = region.interval
                    if min(abs(p - lo), abs(p - hi)) > 1e-9:
                        assert bt_partial(p, q) <= m
                else:
                    assert bt_partial(p, q) <= m

    def test_boundary_finite_at_half(self):
        # The raw expression diverges to -inf/+inf on the two sides of
        # p_kj = 0.5; the two-sided average cancels the odd part, leaving
        # a finite reported value (~0.5) strictly between the neighbours.
        # Only reporting continuity is at stake: 0.5 sits inside the
        # empty middle band for every threshold above 1.
        for m in (1.5, 4.0, 20.0):
            below = bt_boundary(m, 0.5 - 1e-5)
            at = bt_boundary(m, 0.5)
            above = bt_boundary(m, 0.5 + 1e-5)
            assert math.isfinite(at)
            assert min(below, above) <= at <= max(below, above)
            assert at == pytest.approx(0.5, abs=0.01)

    def test_threshold_guard(self):
        with pytest.raises(UnsupportedThresholdError):
            bt_region_slice(1.0, 0.3)
        with pytest.raises(UnsupportedThresholdError):
            bt_region_slice(0.5, 0.3)


class TestBTArea:
    def test_value_at_two(self):
        assert bt_region_area(2.0) == pytest.approx(0.0739190958061754, abs=1e-12)

    def test_limit_toward_one(self):
        assert bt_region_area(1.0 + 1e-6) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-5
        )

    def test_monotone_decreasing(self):
        values = [bt_region_area(m) for m in (1.1, 1.5, 2, 5, 10, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 0 for v in values)

    def test_against_monte_carlo(self):
        for m in (1.5, 2.0, 5.0):
            closed = bt_region_area(m)
            est = mc_area_bt(m, 200_000, seed=8)
            assert abs(est.value - closed) / closed <= 0.03

    def test_threshold_guard(self):
        with pytest.raises(UnsupportedThresholdError):
            bt_region_area(1.0)


class TestPLContext:
    def test_pair_is_degenerate(self):
        options = ScoredOptionSet(["a", "b"], [1.0, -1.0])
        ctx = pl_context(options, KTuplePreference((0, 1)), 0, 1)
        assert ctx.alpha == pytest.approx(1.0)
        assert ctx.beta == pytest.approx(1.0)

    def test_equal_scores_triple(self):
        options = ScoredOptionSet(["a", "b", "c"], [0.0, 0.0, 0.0])
        ctx = pl_context(options, KTuplePreference((0, 1, 2)), 0, 1)
        assert ctx.alpha == pytest.approx(2.0)
        assert ctx.beta == pytest.approx(0.5)

    def test_trailing_pair_has_unit_alpha(self):
        # Nothing competes at the final stage, so the sum is empty even
        # for K > 2.
        options = ScoredOptionSet(["a", "b", "c"], [0.4, 0.1, -0.2])
        ctx = pl_context(options, KTuplePreference((0, 1, 2)), 1, 2)
        assert ctx.alpha == pytest.approx(1.0)
        assert 0.0 < ctx.beta < 1.0

    def test_alpha_grows_beta_shrinks_with_k(self):
        rng = make_rng(45)
        scores = list(rng.uniform(-1.5, 1.5, size=6))
        previous = None
        for k in (3, 4, 5, 6):
            options = ScoredOptionSet([f"o{i}" for i in range(k)], scores[:k])
            ctx = pl_context(options, KTuplePreference(tuple(range(k))), 0, 1)
            if previous is not None:
                assert ctx.alpha >= previous.alpha - 1e-12
                assert ctx.beta <= previous.beta + 1e-12
            previous = ctx

    def test_invalid_positions(self):
        options = ScoredOptionSet(["a", "b", "c"], [0.0, 0.0, 0.0])
        omega = KTuplePreference((0, 1, 2))
        with pytest.raises(DomainError):
            pl_context(options, omega, 1, 1)
        with pytest.raises(DomainError):
            pl_context(options, omega, 2, 1)
        with pytest.raises(DomainError):
            pl_context(options, omega, 0, 3)
        with pytest.raises(DomainError, match="u must be an integer"):
            pl_context(options, omega, 0.5, 1)

    def test_synthetic_context_validation(self):
        with pytest.raises(DomainError):
            PLSensitivityContext.from_alpha_beta(0.9, 0.5)
        with pytest.raises(DomainError):
            PLSensitivityContext.from_alpha_beta(1.5, 0.0)
        with pytest.raises(DomainError):
            PLSensitivityContext.from_alpha_beta(1.5, 1.5)
        with pytest.raises(DomainError):
            PLSensitivityContext.from_alpha_beta(1.1, 0.5, k="x")

    # K and the positions are integers: floats are refused, not compared.
    @pytest.mark.parametrize(
        "field, bad",
        [("k", "x"), ("k", 3.0), ("u", None), ("u", 0.0), ("v", "1"), ("v", 1.0)],
    )
    def test_non_integer_k_u_v(self, field, bad):
        kwargs = {"k": 3, "u": 0, "v": 1, "alpha": 1.1, "beta": 0.5, field: bad}
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            PLSensitivityContext(**kwargs)

    def test_numpy_integer_k_u_v(self):
        ctx = PLSensitivityContext(k=np.int64(3), u=np.int32(0), v=np.int64(1), alpha=1.1, beta=0.5)
        assert (ctx.k, ctx.u, ctx.v) == (3, 0, 1)
        assert all(type(n) is int for n in (ctx.k, ctx.u, ctx.v))


class TestPLPartials:
    def test_degenerate_midpoint(self):
        ctx = PLSensitivityContext.from_alpha_beta(1.0, 1.0, k=2)
        d_uv, d_vu = pl_partials(0.5, 0.5, ctx)
        assert d_uv == pytest.approx(0.5, abs=1e-12)
        assert d_vu == pytest.approx(-0.5, abs=1e-12)

    @given(interior, interior)
    @settings(max_examples=200)
    def test_signs_and_magnitude_ratio(self, p_uv, p_vu):
        ctx = PLSensitivityContext.from_alpha_beta(1.3, 0.7)
        d_uv, d_vu = pl_partials(p_uv, p_vu, ctx)
        assert d_uv > 0.0
        assert d_vu < 0.0
        assert abs(d_uv / d_vu) == pytest.approx(p_vu / p_uv, rel=1e-9)

    def test_matches_finite_difference_of_ratio_form(self):
        options = ScoredOptionSet(["a", "b", "c", "d"], [0.9, 0.2, -0.3, -1.0])
        omega = KTuplePreference((0, 1, 2, 3))
        for u, v in ((0, 1), (0, 3), (1, 2), (2, 3)):
            ctx = pl_context(options, omega, u, v)
            base = ratio_matrix(options, omega)

            def ranking_prob(p_uv, p_vu):
                r = base.copy()
                r[u, v] = p_vu / p_uv
                r[v, u] = p_uv / p_vu
                return pl_prob_from_ratios(r)

            rng = make_rng(46)
            for _ in range(50):
                a, b = rng.uniform(0.05, 0.95, size=2)
                d_uv, d_vu = pl_partials(a, b, ctx)
                assert d_uv == pytest.approx(
                    finite_diff(ranking_prob, (a, b), slot=0), rel=1e-5
                )
                assert d_vu == pytest.approx(
                    finite_diff(ranking_prob, (a, b), slot=1), rel=1e-5
                )

    def test_consistent_point_reproduces_ranking_probability(self):
        # At the score-consistent pair probabilities, the ratio-form
        # function evaluates to the actual ranking probability.
        options = ScoredOptionSet(["a", "b", "c"], [0.7, 0.0, -0.4])
        omega = KTuplePreference((0, 1, 2))
        ctx = pl_context(options, omega, 0, 1)
        ratios = ratio_matrix(options, omega)
        assert pl_prob_from_ratios(ratios) == pytest.approx(
            ctx.beta / (ctx.alpha + ratios[0, 1]), rel=1e-12
        )


class TestPLRegions:
    def test_empty_beyond_cap(self):
        ctx = PLSensitivityContext.from_alpha_beta(1.01, 0.99)
        cap = ctx.beta / (4 * ctx.alpha * 2.0)
        assert pl_region(2.0, ctx, cap + 1e-9, "uv").empty
        assert pl_region(2.0, ctx, cap * 0.5, "uv").empty is False
        assert pl_region(2.0, ctx, cap + 1e-9, "vu").empty

    def test_interval_formulas(self):
        ctx = PLSensitivityContext.from_alpha_beta(1.01, 0.99)
        m, x = 2.0, 0.05
        bounds = pl_region(m, ctx, x, "uv")
        center = (ctx.beta - 2 * ctx.alpha * m * x) / (2 * m)
        half = math.sqrt(ctx.beta * (ctx.beta - 4 * ctx.alpha * m * x)) / (2 * m)
        assert bounds.center == pytest.approx(center, rel=1e-12)
        assert bounds.half_width == pytest.approx(half, rel=1e-12)
        bounds_vu = pl_region(m, ctx, x, "vu")
        assert bounds_vu.center == pytest.approx(center / ctx.alpha**2, rel=1e-12)
        assert bounds_vu.half_width == pytest.approx(half / ctx.alpha**2, rel=1e-12)

    def test_directions_coincide_at_unit_alpha(self):
        ctx = PLSensitivityContext.from_alpha_beta(1.0, 0.9)
        uv = pl_region(3.0, ctx, 0.02, "uv")
        vu = pl_region(3.0, ctx, 0.02, "vu")
        assert uv.interval == pytest.approx(vu.interval, rel=1e-12)

    def test_rejects_unknown_direction(self):
        ctx = PLSensitivityContext.from_alpha_beta(1.01, 0.99)
        with pytest.raises(DomainError, match="which must be 'uv' or 'vu', got 'xy'"):
            pl_region(2.0, ctx, 0.05, "xy")

    def test_limit_of_full_interval(self):
        ctx = PLSensitivityContext.from_alpha_beta(1.0, 1.0, k=2)
        bounds = pl_region(2.0, ctx, 1e-12, "uv")
        assert bounds.interval[1] == pytest.approx(1.0 / 2.0, abs=1e-5)

    def test_membership_matches_derivative(self):
        ctx = PLSensitivityContext.from_alpha_beta(1.01, 0.99)
        rng = make_rng(47)
        for m in (1.01, 2.0, 5.0):
            for _ in range(200):
                x, y = rng.uniform(1e-4, 1 - 1e-4, size=2)
                bounds = pl_region(m, ctx, x, "uv")
                d_uv, d_vu = pl_partials(x, y, ctx)
                if bounds.contains(y):
                    assert d_uv > m
                elif bounds.empty or min(abs(y - bounds.interval[0]), abs(y - bounds.interval[1])) > 1e-9:
                    assert d_uv <= m
                rbounds = pl_region(m, ctx, y, "vu")
                if rbounds.contains(x):
                    assert abs(d_vu) > m

    def test_interval_stays_inside_unit_square(self):
        rng = make_rng(48)
        for _ in range(300):
            alpha = 1.0 + rng.random() * 3
            beta = rng.uniform(0.05, 1.0)
            m = 1.0 + rng.random() * 10 + 1e-6
            ctx = PLSensitivityContext.from_alpha_beta(alpha, beta)
            x = rng.uniform(1e-9, 1 - 1e-9)
            bounds = pl_region(m, ctx, x, "uv")
            if not bounds.empty:
                lo, hi = bounds.interval
                assert 0.0 <= lo < hi <= 1.0


class TestPLArea:
    def test_figure_context_value(self):
        ctx = PLSensitivityContext.from_alpha_beta(1.01, 0.99)
        assert pl_region_area(2.0, ctx, "uv") == pytest.approx(
            0.99**2 / (6 * 1.01 * 4), rel=1e-12
        )

    def test_degenerate_value(self):
        ctx = PLSensitivityContext.from_alpha_beta(1.0, 1.0, k=2)
        for m in (1.5, 2.0, 7.0):
            assert pl_region_area(m, ctx, "uv") == pytest.approx(
                1.0 / (6 * m * m), rel=1e-12
            )

    def test_direction_scaling(self):
        ctx = PLSensitivityContext.from_alpha_beta(1.7, 0.6)
        uv = pl_region_area(3.0, ctx, "uv")
        vu = pl_region_area(3.0, ctx, "vu")
        assert uv / vu == pytest.approx(1.7**2, rel=1e-12)

    def test_against_quadrature(self):
        for alpha, beta, m in ((1.01, 0.99, 2.0), (1.5, 0.5, 5.0), (2.5, 0.3, 1.5)):
            ctx = PLSensitivityContext.from_alpha_beta(alpha, beta)
            for which in ("uv", "vu"):
                closed = pl_region_area(m, ctx, which)
                quad = quad_area_pl(m, alpha, beta, which, 100_000)
                assert closed == pytest.approx(quad, abs=1e-4)

    def test_monotone_in_threshold(self):
        ctx = PLSensitivityContext.from_alpha_beta(1.01, 0.99)
        values = [pl_region_area(m, ctx) for m in (1.1, 1.5, 2, 5, 10, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_guards(self):
        ctx = PLSensitivityContext.from_alpha_beta(1.01, 0.99)
        with pytest.raises(UnsupportedThresholdError):
            pl_region_area(1.0, ctx)
        with pytest.raises(DomainError):
            pl_region_area(2.0, ctx, "elsewhere")

    def test_huge_threshold_underflows_to_zero(self):
        # M * M overflows to inf above about 1.3e154, so the area is 0.0.
        ctx = PLSensitivityContext.from_alpha_beta(1.01, 0.99)
        assert pl_region_area(1e150, ctx) == 0.99**2 / (6.0 * 1.01 * 1e150**2)
        assert pl_region_area(1e200, ctx, "uv") == 0.0
        assert pl_region_area(1e200, ctx, "vu") == 0.0


class TestAreaComparison:
    def test_example_values(self):
        ctx = PLSensitivityContext.from_alpha_beta(1.01, 0.99)
        cmp = compare_bt_pl_areas(2.0, ctx)
        assert cmp.bt_area == pytest.approx(0.073919, abs=1e-6)
        assert cmp.pl_area == pytest.approx(0.040433, abs=1e-6)
        assert cmp.holds

    def test_near_degenerate_limit(self):
        ctx = PLSensitivityContext.from_alpha_beta(1.0 + 1e-9, 1.0 - 1e-9)
        cmp = compare_bt_pl_areas(1.001, ctx)
        assert cmp.holds
        assert cmp.bt_area == pytest.approx(0.3466, abs=0.01)

    def test_holds_across_grid(self):
        for m in (1.01, 1.1, 2.0, 5.0, 10.0, 100.0):
            lower_bound = 1.0 / (6.0 * m * m)
            assert bt_region_area(m) > lower_bound
            for alpha in (1.001, 1.5, 3.0):
                for beta in (0.999, 0.5, 0.1):
                    ctx = PLSensitivityContext.from_alpha_beta(alpha, beta)
                    assert compare_bt_pl_areas(m, ctx).holds

    def test_huge_threshold(self):
        cmp = compare_bt_pl_areas(1e200, PLSensitivityContext.from_alpha_beta(1.01, 0.99))
        assert cmp.pl_area == 0.0

    def test_requires_tuple_context(self):
        ctx = PLSensitivityContext.from_alpha_beta(1.0, 1.0, k=2)
        with pytest.raises(DomainError):
            compare_bt_pl_areas(2.0, ctx)


class TestWitness:
    @pytest.mark.parametrize("link", [LOGISTIC, PROBIT], ids=lambda l: l.family)
    @pytest.mark.parametrize("threshold", [10.0, 100.0, 1e4])
    def test_derivative_exceeds_threshold(self, link, threshold):
        w = sensitivity_witness(link, threshold)
        assert w.derivative > threshold
        fd = finite_diff(
            lambda a, b: compose_pairwise(link, a, b), (w.p_ik, w.p_kj), slot=0
        )
        assert fd > threshold

    def test_probit_with_small_delta(self):
        w = sensitivity_witness(PROBIT, 100.0, delta=0.5)
        assert w.derivative > 100.0

    def test_matched_pair_pins_outer_slope(self):
        # The paired coordinate satisfies g_inv(p_ik) + g_inv(p_kj) =
        # delta, so the derivative's numerator equals g'(delta).
        for link in (LOGISTIC, PROBIT):
            w = sensitivity_witness(link, 50.0, delta=1.25)
            total = link.inverse(w.p_ik) + link.inverse(w.p_kj)
            assert total == pytest.approx(1.25, abs=1e-9)

    def test_float_exhaustion(self):
        with pytest.raises(WitnessNotFoundError):
            sensitivity_witness(LOGISTIC, 1e300)

    def test_rejects_bad_delta(self):
        with pytest.raises(DomainError):
            sensitivity_witness(LOGISTIC, 10.0, delta=-1.0)
        with pytest.raises(DomainError):
            sensitivity_witness(LOGISTIC, 0.0)
