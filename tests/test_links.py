"""Link function contracts: symmetry, inversion, derivatives, tails."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import norm

from prefsense import (
    LOGISTIC,
    PROBIT,
    DomainError,
    SaturationWarning,
    get_link,
    make_rng,
)

LINKS = [LOGISTIC, PROBIT]


@pytest.mark.parametrize("link", LINKS, ids=lambda l: l.family)
class TestSharedContract:
    def test_midpoint(self, link):
        assert link.evaluate(0.0) == pytest.approx(0.5, abs=1e-15)
        assert link.inverse(0.5) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.filterwarnings("ignore::prefsense.SaturationWarning")
    def test_symmetry(self, link):
        x = make_rng(11).uniform(-30, 30, size=10_000)
        sums = np.array([link.evaluate(v) + link.evaluate(-v) for v in x])
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_inverse_antisymmetry(self, link):
        p = make_rng(12).uniform(1e-6, 1 - 1e-6, size=10_000)
        resid = np.array([link.inverse(v) + link.inverse(1.0 - v) for v in p])
        np.testing.assert_allclose(resid, 0.0, atol=1e-9)

    def test_round_trip(self, link):
        for p in [1e-9, 1e-6, 0.01, 0.3, 0.5, 0.77, 0.999, 1 - 1e-6, 1 - 1e-9]:
            assert link.evaluate(link.inverse(p)) == pytest.approx(p, abs=1e-10)

    @pytest.mark.filterwarnings("ignore::prefsense.SaturationWarning")
    def test_monotone_on_sorted_random_samples(self, link):
        x = np.sort(make_rng(13).uniform(-30, 30, size=2000))
        vals = [link.evaluate(v) for v in x]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_strictly_monotone_at_resolvable_spacing(self, link):
        # Strictness needs steps float64 can resolve: the probit tail
        # density underflows past |x| ~ 8, the logistic past ~ 36.
        hi = 6.0 if link.family == "probit" else 20.0
        x = np.linspace(-hi, hi, 2000)
        vals = [link.evaluate(v) for v in x]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_inverse_monotone(self, link):
        p = np.sort(make_rng(14).uniform(1e-9, 1 - 1e-9, size=2000))
        vals = [link.inverse(v) for v in p]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_derivative_nonnegative_and_vanishing_tails(self, link):
        for x in np.linspace(-40, 40, 401):
            assert link.derivative(x) >= 0.0
        assert link.derivative(40.0) < 1e-12
        assert link.derivative(-40.0) < 1e-12

    def test_derivative_matches_central_difference(self, link):
        # The upper range is bounded by float64: near p = 1 the CDF only
        # resolves absolute steps of ~1e-16, so central differences of a
        # saturating link are meaningless there (the mirrored lower tail,
        # where values keep full relative precision, covers it through
        # the symmetry tests).
        hi = 4.5 if link.family == "probit" else 12.0
        rng = make_rng(15)
        for x in rng.uniform(-15, hi, size=300):
            h = 1e-6 * max(1.0, abs(x))
            fd = (link.evaluate(x + h) - link.evaluate(x - h)) / (2 * h)
            assert link.derivative(x) == pytest.approx(fd, rel=1e-5)

    def test_rejects_non_finite(self, link):
        for bad in (math.nan, math.inf, -math.inf, "x"):
            with pytest.raises(DomainError):
                link.evaluate(bad)
            with pytest.raises(DomainError):
                link.derivative(bad)

    def test_inverse_rejects_boundary(self, link):
        for bad in (0.0, 1.0, -0.5, 1.5, math.nan):
            with pytest.raises(DomainError):
                link.inverse(bad)


class TestLogistic:
    def test_known_values(self):
        assert LOGISTIC.evaluate(math.log(3)) == pytest.approx(0.75, abs=1e-14)
        assert LOGISTIC.derivative(0.0) == pytest.approx(0.25, abs=1e-15)
        assert LOGISTIC.derivative(50.0) < 1e-20
        assert LOGISTIC.inverse(0.75) == pytest.approx(math.log(3), abs=1e-12)

    def test_saturation_warns(self):
        with pytest.warns(SaturationWarning):
            assert LOGISTIC.evaluate(40.0) == 1.0

    # An array is evaluated entry by entry with math.exp, so each entry is
    # the float call's value bit for bit; numpy's exp can differ by an ulp.
    def test_array_equals_float_calls(self):
        x = np.concatenate([make_rng(5).normal(scale=10.0, size=2000), [0.0, -0.0, 36.0, -745.0, 709.0]])
        with pytest.warns(SaturationWarning):  # one warning for the array
            got = LOGISTIC.evaluate(x.reshape(5, -1))
        assert got.shape == (5, 401)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SaturationWarning)
            assert got.ravel().tolist() == [LOGISTIC.evaluate(v) for v in x.tolist()]

    def test_array_rejects_non_finite(self):
        with pytest.raises(DomainError, match="x must be finite, got nan"):
            LOGISTIC.evaluate(np.array([0.5, math.nan]))

    @pytest.mark.filterwarnings("ignore::prefsense.SaturationWarning")
    @given(st.floats(min_value=-700, max_value=700))
    def test_never_overflows(self, x):
        assert 0.0 <= LOGISTIC.evaluate(x) <= 1.0


class TestProbit:
    def test_against_scipy(self):
        rng = make_rng(16)
        for x in rng.uniform(-8, 8, size=200):
            assert PROBIT.evaluate(x) == pytest.approx(norm.cdf(x), rel=1e-13, abs=1e-300)
            assert PROBIT.derivative(x) == pytest.approx(norm.pdf(x), rel=1e-13)
        for p in rng.uniform(1e-12, 1 - 1e-12, size=200):
            assert PROBIT.inverse(p) == pytest.approx(norm.ppf(p), rel=1e-14, abs=0.0)

    def test_known_quantiles(self):
        assert PROBIT.inverse(0.975) == pytest.approx(1.959964, abs=1e-6)
        assert PROBIT.derivative(0.0) == pytest.approx(0.3989422804, abs=1e-9)

    def test_inverse_agrees_with_bisection(self):
        # Independent slow oracle for the quantile.
        for p in (1e-9, 0.001, 0.2, 0.5, 0.9, 1 - 1e-7):
            lo, hi = -40.0, 40.0
            for _ in range(120):
                mid = 0.5 * (lo + hi)
                if 0.5 * math.erfc(-mid / math.sqrt(2)) < p:
                    lo = mid
                else:
                    hi = mid
            assert PROBIT.inverse(p) == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_deep_tail_round_trip(self):
        for p in (1e-100, 1e-300):
            x = PROBIT.inverse(p)
            assert PROBIT.evaluate(x) == pytest.approx(p, rel=1e-9)

    def test_saturation_warns(self):
        with pytest.warns(SaturationWarning):
            assert PROBIT.evaluate(9.0) == 1.0

    @pytest.mark.parametrize("p", [5e-324, 2.52927466e-316, 1e-300])
    def test_subnormal_tail_against_ndtri(self, p):
        assert PROBIT.inverse(p) == pytest.approx(ndtri(p), rel=1e-14, abs=0.0)

    def test_inverse_exactly_odd(self):
        # 1 - p is exact for p in [0.5, 1), so the pair is mirrored exactly.
        for p in make_rng(17).uniform(0.5, 1.0, size=10_000).tolist() + [1 - 2**-53]:
            assert PROBIT.inverse(p) == -PROBIT.inverse(1.0 - p)


class TestRegistry:
    def test_lookup(self):
        assert get_link("logistic") is LOGISTIC
        assert get_link("PROBIT") is PROBIT

    def test_repr(self):
        assert repr(LOGISTIC) == "LogisticLink()"
        assert repr(PROBIT) == "ProbitLink()"

    def test_unknown(self):
        with pytest.raises(DomainError):
            get_link("gumbel")


@settings(max_examples=300)
@given(
    st.sampled_from(["logistic", "probit"]),
    st.floats(min_value=1e-6, max_value=1 - 1e-6),
)
def test_inverse_round_trip_property(family, p):
    link = get_link(family)
    assert link.evaluate(link.inverse(p)) == pytest.approx(p, abs=1e-10)
