"""Sensitivity derivatives, regions, areas, and the two main results."""

import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefsense import (
    LOGISTIC,
    PROBIT,
    DomainError,
    SingularityError,
    UnsupportedThresholdError,
    ValidationError,
    WitnessNotFoundError,
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
from prefsense.sensitivity import bt_partial_terms, bt_region_terms, pl_region_terms

interior = st.floats(min_value=0.01, max_value=0.99)
open_unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
# p_kj = 0.5 is the pole of the BT boundary's closed form.
near_half = st.floats(min_value=0.5 - 1e-6, max_value=0.5 + 1e-6)
above_one = st.floats(min_value=1.0, max_value=1e6, exclude_min=True)

U = 2.0**-53  # unit roundoff of float64


def boundary_reference(threshold: float, p_kj: float) -> Decimal:
    """The BT boundary 1 - (sqrt(a) - 1) / (1/p_kj - 2), a = (1 - p_kj)/(M p_kj), to 60 digits.

    Unclamped; p_kj = 0.5 is its pole.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        m, p = Decimal(threshold), Decimal(p_kj)
        return 1 - (((1 - p) / (m * p)).sqrt() - 1) / (1 / p - 2)


def boundary_error_bound(threshold: float, p_kj: float) -> float:
    """First-order bound on the rounding error of bt_region_terms' boundary.

    The boundary is 1 - q with q = N / D, N = g - p (M - 1), D = M (sqrt(a) + 1) g
    and g = 1 - 2p. Every operation rounds with relative error at most U:
    a carries 3U, sqrt(a) + 1 carries 3.5U and D 6.5U. N is off by at most
    U (|g| + 2 p (M - 1) + |N|), so q by 8.5U |q| + U (|g| + 2 p (M - 1)) / |D|,
    and the last subtraction adds U |1 - q|.
    """
    g = 1.0 - 2.0 * p_kj
    d = threshold * (math.sqrt((1.0 - p_kj) / (threshold * p_kj)) + 1.0) * g
    q = (g - p_kj * (threshold - 1.0)) / d
    return U * (abs(1.0 - q) + 8.5 * abs(q) + (abs(g) + 2.0 * p_kj * (threshold - 1.0)) / abs(d))


def assert_boundary_accurate(threshold: float, p_kj: float, boundary: float) -> None:
    """boundary is the exact one clamped to [0, 1], within its rounding bound."""
    if p_kj == 0.5:
        assert boundary == 1.0  # the pole, +inf, clamped
        return
    want = min(max(boundary_reference(threshold, p_kj), Decimal(0)), Decimal(1))
    assert abs(Decimal(boundary) - want) <= Decimal(boundary_error_bound(threshold, p_kj))


def area_reference(threshold: float) -> Decimal:
    """The BT area's closed form, with digits to spare for its cancellation.

    M - 1 and M + 1 take log10(M) more digits than M, and as the two terms
    are about 1/M each and the area about 1/(3 M^2), as many cancel; near
    M = 1, up to 16 do.
    """
    with localcontext() as ctx:
        ctx.prec = 60 + 2 * int(math.log10(threshold))
        m = Decimal(threshold)
        r = m.sqrt()
        return ((m - 1) / (m + 1)).ln() / 2 + ((r + 1) / (r - 1)).ln() / (2 * r)


def area_error_bound(threshold: float) -> float:
    """First-order bound on the rounding error of bt_region_area.

    Below M = 8 the area is t1 + t2, t1 = log(d / (M + 1)) / 2 and
    t2 = log((r + 1)^2 / d) / (2 r), with d = M - 1 and r = sqrt(M). With
    log within 2U relative, t1's argument carries 3U, so t1 is off by
    1.5U + 2U |t1|; t2's carries 7U, so t2 is off by 3.5U + 4U |t2|; the sum
    adds U |t1 + t2|. From M = 8 it is Horner's rule, 22 steps in y = 1/M:
    44U times sum |c_m| y^(m-2) <= 1.2 s, coefficients within 5U, and 4U
    for y and the two last products, so 64U relative.
    """
    if threshold >= 8.0:
        return 64 * U * (1.0 / (3.0 * threshold * threshold))
    d, r = threshold - 1.0, math.sqrt(threshold)
    t1 = abs(math.log(d / (threshold + 1.0)) / 2.0)
    t2 = abs(math.log((r + 1.0) ** 2 / d) / (2.0 * r))
    return U * (5.0 + 2.0 * t1 + 4.0 * t2 + abs(t2 - t1))


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

    @pytest.mark.parametrize(
        "q", [2.0**-54, 2.0**-54 + 2.0**-106, 2.0**-54 + 2.0**-105, 5e-324],
        ids=["2^-54", "2^-54+1ulp", "2^-54+2ulp", "min_subnormal"],
    )
    def test_denominator_at_the_corners(self, q):
        # Where bt_partial's rounding argument is tight: p + q - 2pq rounds
        # to 1 - 2^-53, not 1, so the denominator is (2^-53)^2 = 1.2326e-32.
        p = 1.0 - 2.0**-53
        for a, b in ((p, q), (q, p)):
            assert bt_partial_terms(a, b)[1] == 2.0**-106
            value = bt_partial(a, b)
            assert math.isfinite(value) and value > 0.0

    @given(open_unit, open_unit)
    @settings(max_examples=300)
    def test_denominator_positive_for_every_float_pair(self, a, b):
        assert bt_partial_terms(a, b)[1] >= 2.0**-106

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

    def test_empty_slice_boundary_within_unit_interval(self):
        # The closed form of an empty slice lies above 1 below p_kj = 0.5
        # and below 0 above it; the reported one is clamped to [0, 1].
        for m, q, want in ((1e200, 0.02, 1.0), (1e200, 0.98, 0.0), (2.0, 0.4, 1.0), (2.0, 0.6, 0.0)):
            region = bt_region_slice(m, q)
            assert region.case == "empty"
            assert not 0 <= boundary_reference(m, q) <= 1
            assert region.boundary == want
        assert bt_region_slice(20.0, 0.5).boundary == 1.0
        for m in (1.01, 2.0, 20.0, 1e200):
            for q in make_rng(45).random(200).tolist():
                region = bt_region_slice(m, q)
                assert 0.0 <= region.boundary <= 1.0
                assert_boundary_accurate(m, q, region.boundary)

    @pytest.mark.parametrize("p_kj", [5e-324, 1e-310, 5.5e-309])
    def test_boundary_where_inverse_overflows(self, p_kj):
        # Below about 5.6e-309, 1 / p_kj overflows, and below about 2.8e-309
        # so does a = (1 - p_kj) / (2 p_kj). The boundary's float64 limit is
        # 1, which it already reaches just above that.
        region = bt_region_slice(2.0, p_kj)
        assert (region.case, region.boundary, region.interval) == ("case1", 1.0, (1.0, 1.0))
        assert not region.contains(1.0 - 2**-53)
        assert bt_region_slice(2.0, 5.6e-309).boundary == 1.0

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

    def test_boundary_clamped_around_half(self):
        # The closed form has a pole at p_kj = 0.5, inside the empty middle
        # band for every threshold above 1: +inf there and above 1 just
        # below it, below 0 just above it. Clamped, that is 1, 1 and 0.
        for m in (1.5, 4.0, 20.0):
            got = [bt_region_slice(m, q).boundary for q in (0.5 - 1e-7, 0.5, 0.5 + 1e-7)]
            assert got == [1.0, 1.0, 0.0]

    def test_boundary_against_decimal(self):
        # M - 1 log-uniform in [1e-9, 10]; p_kj uniform, log-uniform down to
        # 1e-300, and within 1e-7 of a case edge. Only case1/case2 slices.
        rng = make_rng(46)
        n = 10_000
        m = 1.0 + 10.0 ** rng.uniform(-9.0, 1.0, 3 * n)
        edge = np.where(rng.random(n) < 0.5, 1.0, m[2 * n :]) / (1.0 + m[2 * n :])
        q = np.concatenate(
            [rng.uniform(0.0, 1.0, n), 10.0 ** rng.uniform(-300.0, 0.0, n), edge + rng.uniform(-1e-7, 1e-7, n)]
        )
        _, hi, boundary = bt_region_terms(m, q)
        case = ~np.isnan(hi)
        assert case.sum() > 20_000
        for threshold, p_kj, got in zip(m[case].tolist(), q[case].tolist(), boundary[case].tolist()):
            assert_boundary_accurate(threshold, p_kj, got)

    def test_threshold_near_one(self):
        # Case slices within 2.5e-7 of p_kj = 0.5 need M - 1 below about 1e-6.
        region = bt_region_slice(1.0000001, 0.4999998)
        assert region.case == "case1"
        assert region.boundary == pytest.approx(0.5625, abs=1e-6)
        assert_boundary_accurate(1.0000001, 0.4999998, region.boundary)
        assert bt_partial(0.5635, 0.4999998) > 1.0000001
        assert region.contains(0.5635)
        region = bt_region_slice(1.0 + 1e-9, 0.4999999925)
        assert region.case == "case1"
        assert region.boundary == pytest.approx(0.51667, abs=1e-5)
        assert_boundary_accurate(1.0 + 1e-9, 0.4999999925, region.boundary)

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

    # Both ends of the domain: sqrt(M) rounds to 1 at M = 1 + 2^-52, and from
    # about M = 4e7 the area, about 1/(3 M^2), is below the rounding error of
    # the closed form's two terms.
    @pytest.mark.parametrize(
        "threshold",
        [1 + 2**-52, 1 + 3 * 2**-52, 1.0000001, 1.5, 2.0, 7.999999999999999, 8.0, 20.0, 1e10, 1e100, 1e150],
    )
    def test_against_decimal(self, threshold):
        want = area_reference(threshold)
        got = bt_region_area(threshold)
        assert abs(Decimal(got) - want) <= Decimal(area_error_bound(threshold))


class TestPLContext:
    def test_pair_is_degenerate(self):
        alpha, beta = pl_context((1.0, -1.0), 0, 1)
        assert alpha == pytest.approx(1.0)
        assert beta == pytest.approx(1.0)

    def test_equal_scores_triple(self):
        alpha, beta = pl_context((0.0, 0.0, 0.0), 0, 1)
        assert alpha == pytest.approx(2.0)
        assert beta == pytest.approx(0.5)

    def test_trailing_pair_has_unit_alpha(self):
        # Nothing competes at the final stage, so the sum is empty even
        # for K > 2.
        alpha, beta = pl_context((0.4, 0.1, -0.2), 1, 2)
        assert alpha == pytest.approx(1.0)
        assert 0.0 < beta < 1.0

    def test_alpha_grows_beta_shrinks_with_k(self):
        rng = make_rng(45)
        scores = list(rng.uniform(-1.5, 1.5, size=6))
        previous = None
        for k in (3, 4, 5, 6):
            alpha, beta = pl_context(scores[:k], 0, 1)
            if previous is not None:
                assert alpha >= previous[0] - 1e-12
                assert beta <= previous[1] + 1e-12
            previous = alpha, beta

    def test_invalid_positions(self):
        scores = (0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            pl_context(scores, 1, 1)
        with pytest.raises(DomainError):
            pl_context(scores, 2, 1)
        with pytest.raises(DomainError):
            pl_context(scores, 0, 3)
        with pytest.raises(DomainError, match="u must be an integer"):
            pl_context(scores, 0.5, 1)

    # exp(800) overflows float64; pl_prob of these rankings is 0.0.
    @pytest.mark.parametrize("perm, u, v, positions", [((0, 1, 2), 0, 1, "0 and 2"), ((0, 2, 1), 1, 2, "0 and 1")])
    def test_score_gap_beyond_float64(self, perm, u, v, positions):
        scores = np.array([0.0, 0.0, 800.0])[list(perm)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"ranking positions {positions} differ by 800;"):
                pl_context(scores, u, v)

    # No ratio overflows, but beta's stage factors underflow to 0, or the
    # ratios competing at stage u sum past the largest float.
    @pytest.mark.parametrize(
        "scores, u, v, message",
        [
            ((0.0, 400.0, 0.0, 400.0, 0.0), 3, 4, "positions 3 and 4: their beta is 0 in"),
            ((0.0, 0.0, 709.5, 709.5), 0, 1, "positions 0 and 1: their alpha is inf in"),
        ],
    )
    def test_constants_beyond_float64(self, scores, u, v, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=message):
                pl_context(scores, u, v)

    def test_overflow_of_an_unread_ratio_is_harmless(self):
        # r[1, 0] = exp(800) overflows, but only entries above the diagonal are read.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            constants = pl_context((800.0, 0.0, 0.0), 0, 1)
        assert constants == (1.0, 0.5)

    def test_context_validation(self):
        # u runs over 0 .. K-2 and v over u+1 .. K-1, with K = len(scores).
        for scores, u, v, message in (
            ((0.0, 0.0), 0, 2, r"v must lie in \[1, 1\], got 2"),
            ((0.0, 0.0, 0.0), 2, 1, r"u must lie in \[0, 1\], got 2"),
            ((0.0, 0.0, 0.0), 1, 1, r"v must lie in \[2, 2\], got 1"),
            ((0.0, 0.0, 0.0), -1, 1, r"u must lie in \[0, 1\], got -1"),
        ):
            with pytest.raises(DomainError, match=message):
                pl_context(scores, u, v)

    # The positions are integers: floats are refused, not compared.
    @pytest.mark.parametrize("field, bad", [("u", None), ("u", 0.0), ("v", "1"), ("v", 1.0)])
    def test_non_integer_k_u_v(self, field, bad):
        kwargs = {"u": 0, "v": 1, field: bad}
        with pytest.raises(DomainError, match=f"{field} must be an integer"):
            pl_context((0.0, 0.0, 0.0), **kwargs)

    def test_numpy_integer_k_u_v(self):
        constants = pl_context(np.array([0.4, 0.1, -0.2]), np.int32(0), np.int64(1))
        assert constants == pl_context((0.4, 0.1, -0.2), 0, 1)
        assert all(type(c) is float for c in constants)


class TestPLPartials:
    def test_degenerate_midpoint(self):
        d_uv, d_vu = pl_partials(0.5, 0.5, 1.0, 1.0)
        assert d_uv == pytest.approx(0.5, abs=1e-12)
        assert d_vu == pytest.approx(-0.5, abs=1e-12)

    @given(interior, interior)
    @settings(max_examples=200)
    def test_signs_and_magnitude_ratio(self, p_uv, p_vu):
        d_uv, d_vu = pl_partials(p_uv, p_vu, 1.3, 0.7)
        assert d_uv > 0.0
        assert d_vu < 0.0
        assert abs(d_uv / d_vu) == pytest.approx(p_vu / p_uv, rel=1e-9)

    def test_matches_finite_difference_of_ratio_form(self):
        scores = (0.9, 0.2, -0.3, -1.0)
        for u, v in ((0, 1), (0, 3), (1, 2), (2, 3)):
            alpha, beta = pl_context(scores, u, v)
            base = ratio_matrix(scores)

            def ranking_prob(p_uv, p_vu):
                r = base.copy()
                r[u, v] = p_vu / p_uv
                r[v, u] = p_uv / p_vu
                return pl_prob_from_ratios(r)

            rng = make_rng(46)
            for _ in range(50):
                a, b = rng.uniform(0.05, 0.95, size=2)
                d_uv, d_vu = pl_partials(a, b, alpha, beta)
                assert d_uv == pytest.approx(
                    finite_diff(ranking_prob, (a, b), slot=0), rel=1e-5
                )
                assert d_vu == pytest.approx(
                    finite_diff(ranking_prob, (a, b), slot=1), rel=1e-5
                )

    def test_consistent_point_reproduces_ranking_probability(self):
        # At the score-consistent pair probabilities, the ratio-form
        # function evaluates to the actual ranking probability.
        scores = (0.7, 0.0, -0.4)
        alpha, beta = pl_context(scores, 0, 1)
        ratios = ratio_matrix(scores)
        assert pl_prob_from_ratios(ratios) == pytest.approx(
            beta / (alpha + ratios[0, 1]), rel=1e-12
        )


class TestPLRegions:
    def test_empty_beyond_cap(self):
        alpha, beta = 1.01, 0.99
        cap = beta / (4 * alpha * 2.0)
        assert pl_region(2.0, alpha, beta, cap + 1e-9, "uv").empty
        assert pl_region(2.0, alpha, beta, cap * 0.5, "uv").empty is False
        assert pl_region(2.0, alpha, beta, cap + 1e-9, "vu").empty

    def test_interval_formulas(self):
        alpha, beta = 1.01, 0.99
        m, x = 2.0, 0.05
        bounds = pl_region(m, alpha, beta, x, "uv")
        center = (beta - 2 * alpha * m * x) / (2 * m)
        half = math.sqrt(beta * (beta - 4 * alpha * m * x)) / (2 * m)
        assert bounds.center == pytest.approx(center, rel=1e-12)
        assert bounds.half_width == pytest.approx(half, rel=1e-12)
        bounds_vu = pl_region(m, alpha, beta, x, "vu")
        assert bounds_vu.center == pytest.approx(center / alpha**2, rel=1e-12)
        assert bounds_vu.half_width == pytest.approx(half / alpha**2, rel=1e-12)

    # alpha * alpha * threshold overflows to inf, where alpha**2 would raise.
    def test_huge_alpha_reverse_region_is_empty(self):
        assert pl_region(2.0, 1e200, 1.0, 0.5, "vu").empty

    # alpha * alpha * threshold is inf here, so the center and the half width
    # round to 0 although disc is positive. The rounded interval (0, 0) holds
    # no float64, so it is reported empty rather than as an interval that
    # contains nothing.
    @pytest.mark.parametrize("alpha, fixed", [(1e300, 1e-310), (1e160, 1e-300), (1e200, 5e-324)])
    def test_interval_without_a_float_is_empty(self, alpha, fixed):
        bounds = pl_region(2.0, alpha, 1.0, fixed, "vu")
        assert bounds.empty and bounds.interval is None
        assert math.isnan(bounds.center) and bounds.half_width == 0.0
        assert not bounds.contains(5e-324)

    def test_directions_coincide_at_unit_alpha(self):
        alpha, beta = 1.0, 0.9
        uv = pl_region(3.0, alpha, beta, 0.02, "uv")
        vu = pl_region(3.0, alpha, beta, 0.02, "vu")
        assert uv.interval == pytest.approx(vu.interval, rel=1e-12)

    def test_rejects_unknown_direction(self):
        with pytest.raises(DomainError, match="which must be 'uv' or 'vu', got 'xy'"):
            pl_region(2.0, 1.01, 0.99, 0.05, "xy")

    def test_limit_of_full_interval(self):
        bounds = pl_region(2.0, 1.0, 1.0, 1e-12, "uv")
        assert bounds.interval[1] == pytest.approx(1.0 / 2.0, abs=1e-5)

    def test_membership_matches_derivative(self):
        alpha, beta = 1.01, 0.99
        rng = make_rng(47)
        for m in (1.01, 2.0, 5.0):
            for _ in range(200):
                x, y = rng.uniform(1e-4, 1 - 1e-4, size=2)
                bounds = pl_region(m, alpha, beta, x, "uv")
                d_uv, d_vu = pl_partials(x, y, alpha, beta)
                if bounds.contains(y):
                    assert d_uv > m
                elif bounds.empty or min(abs(y - bounds.interval[0]), abs(y - bounds.interval[1])) > 1e-9:
                    assert d_uv <= m
                rbounds = pl_region(m, alpha, beta, y, "vu")
                if rbounds.contains(x):
                    assert abs(d_vu) > m

    def test_interval_stays_inside_unit_square(self):
        rng = make_rng(48)
        for _ in range(300):
            alpha = 1.0 + rng.random() * 3
            beta = rng.uniform(0.05, 1.0)
            m = 1.0 + rng.random() * 10 + 1e-6
            x = rng.uniform(1e-9, 1 - 1e-9)
            bounds = pl_region(m, alpha, beta, x, "uv")
            if not bounds.empty:
                lo, hi = bounds.interval
                assert 0.0 <= lo < hi <= 1.0


def _same(a: float, b: float) -> bool:
    """Equal floats, with NaN equal to NaN."""
    return a == b or (math.isnan(a) and math.isnan(b))


class TestRegionKernels:
    """The array kernels give, entry by entry, what the scalar calls give."""

    @settings(max_examples=150, deadline=None)
    @given(
        threshold=above_one,
        p_kj=st.lists(st.one_of(open_unit, near_half), min_size=1, max_size=30),
    )
    @example(threshold=1e200, p_kj=[0.02, 0.98, 0.5])
    @example(threshold=2.0, p_kj=[0.4, 0.6, 0.5 - 5e-7, 0.5 + 1e-6, 0.1, 0.9])
    def test_bt_array_equals_scalar_calls(self, threshold, p_kj):
        lo, hi, boundary = bt_region_terms(threshold, np.array(p_kj))
        for q, got in zip(p_kj, zip(lo.tolist(), hi.tolist(), boundary.tolist())):
            region = bt_region_slice(threshold, q)
            if region.interval is None:
                assert math.isnan(got[0]) and math.isnan(got[1])
                assert got[2] == region.boundary
            else:
                assert all(map(_same, got, (*region.interval, region.boundary)))
            assert_boundary_accurate(threshold, q, got[2])
            assert all(map(_same, got, map(float, bt_region_terms(threshold, q))))

    @settings(max_examples=150, deadline=None)
    @given(
        threshold=above_one,
        alpha=st.floats(min_value=1.0, max_value=4.0),
        beta=st.floats(min_value=0.01, max_value=1.0),
        # Multiples of the largest fixed value with a nonempty interval.
        scale=st.lists(st.floats(min_value=1e-6, max_value=2.0), min_size=1, max_size=30),
        which=st.sampled_from(["uv", "vu"]),
    )
    def test_pl_array_equals_scalar_calls(self, threshold, alpha, beta, scale, which):
        fixed = [beta / (4.0 * alpha * threshold) * f for f in scale]
        terms = pl_region_terms(threshold, alpha, beta, np.array(fixed), which)
        for x, got in zip(fixed, zip(*(t.tolist() for t in terms))):
            bounds = pl_region(threshold, alpha, beta, x, which)
            want = (*(bounds.interval or (math.nan, math.nan)), bounds.center, bounds.half_width)
            assert all(map(_same, got, want))
            assert bounds.empty == (beta * (beta - 4.0 * alpha * threshold * x) <= 0.0)


class TestAlphaBeta:
    """Each PL function refuses constants outside alpha >= 1, 0 < beta <= 1."""

    CALLS = {
        "pl_partials": lambda alpha, beta: pl_partials(0.1, 0.2, alpha, beta),
        "pl_region": lambda alpha, beta: pl_region(2.0, alpha, beta, 0.05, "uv"),
        "pl_region_area": lambda alpha, beta: pl_region_area(2.0, alpha, beta),
        "compare_bt_pl_areas": lambda alpha, beta: compare_bt_pl_areas(2.0, alpha, beta),
    }
    BAD = [
        (0.99, 0.5, r"need alpha >= 1 and 0 < beta <= 1, got 0\.99, 0\.5"),
        (1.5, 0.0, r"need alpha >= 1 and 0 < beta <= 1, got 1\.5, 0\.0"),
        (1.5, 1.01, r"need alpha >= 1 and 0 < beta <= 1, got 1\.5, 1\.01"),
        (math.nan, 0.5, "alpha must be finite, got nan"),
        (1.5, math.inf, "beta must be finite, got inf"),
        ((1.01, 0.99), 0.5, r"alpha must be a real number, got \(1\.01, 0\.99\)"),
    ]

    @pytest.mark.parametrize("name", list(CALLS))
    def test_bad_constants_refused(self, name):
        call = self.CALLS[name]
        call(1.0, 1.0)
        for alpha, beta, message in self.BAD:
            with pytest.raises(DomainError, match=message):
                call(alpha, beta)


class TestArgumentType:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: compose_pairwise(1.5, 0.3, 0.4), "link must be a LinkFunction, got 1.5"),
            (lambda: general_partial(1.5, 0.3, 0.4), "link must be a LinkFunction, got 1.5"),
            (lambda: sensitivity_witness(1.5, 10.0), "link must be a LinkFunction, got 1.5"),
            (lambda: finite_diff(1.5, (0.3,)), "fn must be a Callable, got 1.5"),
        ],
        ids=[
            "compose_pairwise",
            "general_partial",
            "sensitivity_witness",
            "finite_diff",
        ],
    )
    def test_wrong_type_refused(self, call, message):
        with pytest.raises(ValidationError, match=message):
            call()


class TestPLArea:
    def test_figure_context_value(self):
        assert pl_region_area(2.0, 1.01, 0.99, "uv") == pytest.approx(
            0.99**2 / (6 * 1.01 * 4), rel=1e-12
        )

    def test_degenerate_value(self):
        for m in (1.5, 2.0, 7.0):
            assert pl_region_area(m, 1.0, 1.0, "uv") == pytest.approx(
                1.0 / (6 * m * m), rel=1e-12
            )

    def test_direction_scaling(self):
        alpha, beta = 1.7, 0.6
        uv = pl_region_area(3.0, alpha, beta, "uv")
        vu = pl_region_area(3.0, alpha, beta, "vu")
        assert uv / vu == pytest.approx(1.7**2, rel=1e-12)

    def test_against_quadrature(self):
        for alpha, beta, m in ((1.01, 0.99, 2.0), (1.5, 0.5, 5.0), (2.5, 0.3, 1.5)):
            for which in ("uv", "vu"):
                closed = pl_region_area(m, alpha, beta, which)
                quad = quad_area_pl(m, alpha, beta, which, 100_000)
                assert closed == pytest.approx(quad, abs=1e-4)

    def test_monotone_in_threshold(self):
        values = [pl_region_area(m, 1.01, 0.99) for m in (1.1, 1.5, 2, 5, 10, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_guards(self):
        alpha, beta = 1.01, 0.99
        with pytest.raises(UnsupportedThresholdError):
            pl_region_area(1.0, alpha, beta)
        with pytest.raises(DomainError):
            pl_region_area(2.0, alpha, beta, "elsewhere")

    def test_huge_threshold_underflows_to_zero(self):
        # M * M overflows to inf above about 1.3e154, so the area is 0.0.
        alpha, beta = 1.01, 0.99
        assert pl_region_area(1e150, alpha, beta) == 0.99**2 / (6.0 * 1.01 * 1e150**2)
        assert pl_region_area(1e200, alpha, beta, "uv") == 0.0
        assert pl_region_area(1e200, alpha, beta, "vu") == 0.0

    # alpha * alpha * alpha overflows to inf where alpha**3 would raise
    # OverflowError (alpha above 5.6e102), so the reverse area is 0.0.
    def test_huge_alpha_underflows_to_zero(self):
        assert pl_region_area(2.0, 1e100, 1.0, "vu") == 1.0 / (6.0 * 1e100 * 1e100 * 1e100 * 4.0)
        assert pl_region_area(2.0, 1e200, 1.0, "vu") == 0.0


class TestAreaComparison:
    def test_example_values(self):
        cmp = compare_bt_pl_areas(2.0, 1.01, 0.99)
        assert cmp.bt_area == pytest.approx(0.073919, abs=1e-6)
        assert cmp.pl_area == pytest.approx(0.040433, abs=1e-6)
        assert cmp.holds

    def test_near_degenerate_limit(self):
        cmp = compare_bt_pl_areas(1.001, 1.0 + 1e-9, 1.0 - 1e-9)
        assert cmp.holds
        assert cmp.bt_area == pytest.approx(0.3466, abs=0.01)

    def test_holds_across_grid(self):
        for m in (1.01, 1.1, 2.0, 5.0, 10.0, 100.0):
            lower_bound = 1.0 / (6.0 * m * m)
            assert bt_region_area(m) > lower_bound
            for alpha in (1.001, 1.5, 3.0):
                for beta in (0.999, 0.5, 0.1):
                    assert compare_bt_pl_areas(m, alpha, beta).holds

    def test_huge_threshold(self):
        cmp = compare_bt_pl_areas(1e200, 1.01, 0.99)
        assert cmp.pl_area == 0.0

    def test_float64_limit(self):
        # Above M ~ 1.34e154 the PL area is 0.0, and above ~1e162 the BT
        # area, about 1/(3 M^2), underflows too; only there does holds fail.
        alpha, beta = 1.001, 0.999
        assert compare_bt_pl_areas(1e10, alpha, beta).holds
        cmp = compare_bt_pl_areas(1e155, alpha, beta)
        assert cmp.pl_area == 0.0 < cmp.bt_area and cmp.holds
        assert compare_bt_pl_areas(1e163, alpha, beta) == (0.0, 0.0, False)

    @pytest.mark.parametrize("m", [1.01, 2.0, 7.0, 100.0])
    def test_pair_constants(self, m):
        # alpha = beta = 1 are the constants of a 2-tuple's pair, where the
        # K-tuple area takes its largest value 1 / (6 M^2).
        cmp = compare_bt_pl_areas(m, 1.0, 1.0)
        assert cmp.pl_area == pytest.approx(1.0 / (6.0 * m * m), rel=1e-15)
        assert cmp.holds


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
        with pytest.raises(WitnessNotFoundError, match="before the scan's cutoff p_ik > 1 - 1e-12"):
            sensitivity_witness(LOGISTIC, 1e300)

    def test_rejects_bad_delta(self):
        with pytest.raises(DomainError):
            sensitivity_witness(LOGISTIC, 10.0, delta=-1.0)
        with pytest.raises(DomainError):
            sensitivity_witness(LOGISTIC, 0.0)
