"""Probability models: composition identities, rankings, density."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from prefsense import (
    LOGISTIC,
    PROBIT,
    DomainError,
    FitResult,
    KTuplePreference,
    SaturationWarning,
    ScoredOptionSet,
    ValidationError,
    bt_compose,
    bt_prob,
    compose_pairwise,
    logit_normal_density,
    make_rng,
    pl_prob,
    pl_prob_from_ratios,
    predict,
    ratio_matrix,
)

scores_st = st.floats(min_value=-10, max_value=10, allow_nan=False)
prob_st = st.floats(min_value=1e-6, max_value=1 - 1e-6)

# Absolute float64 error of g(x) for x > 0, where g(x) lies in [0.5, 1).
# Probit: erfc rounds once to [1, 2) (half-ulp 2^-53), then is halved.
# Logistic: 1 + exp(-x) rounds in [1, 2) (2^-53), its reciprocal rounds
# again in [0.5, 1) (2^-54).
ROUNDING = {"probit": 2.0**-54, "logistic": 3 * 2.0**-54}


class TestTypes:
    def test_option_set_validation(self):
        with pytest.raises(ValidationError):
            ScoredOptionSet(["a"], [1.0])
        with pytest.raises(ValidationError):
            ScoredOptionSet(["a", "a"], [1.0, 2.0])
        with pytest.raises(ValidationError):
            ScoredOptionSet(["a", "b"], [1.0])
        with pytest.raises(DomainError):
            ScoredOptionSet(["a", "b"], [1.0, math.inf])
        with pytest.raises(DomainError, match="scores must be a sequence"):
            ScoredOptionSet(["a", "b"], None)
        with pytest.raises(DomainError, match="labels must be a sequence"):
            ScoredOptionSet(5, [1.0, 2.0])

    # "12" would otherwise be the scores 1.0 and 2.0.
    def test_string_scores_refused(self):
        with pytest.raises(DomainError, match="scores must be a sequence, got '12'"):
            ScoredOptionSet(("a", "b"), "12")

    # b"\x00\x01" would otherwise be the ranking (0, 1).
    def test_bytes_indices_refused(self):
        with pytest.raises(DomainError, match=r"indices must be a sequence, got b'\\x00\\x01'"):
            KTuplePreference(b"\x00\x01")

    def test_preference_validation(self):
        with pytest.raises(ValidationError):
            KTuplePreference([0])
        with pytest.raises(ValidationError):
            KTuplePreference([0, 0])
        for bad in ((0, 1.7), (0, "x")):
            with pytest.raises(DomainError, match="ranking index must be an integer"):
                KTuplePreference(bad)
        for bad in (5, None, 1.5):
            with pytest.raises(DomainError, match="indices must be a sequence"):
                KTuplePreference(bad)

    @pytest.mark.parametrize(
        "indices, message",
        [
            ((0, 5), r"ranking index must lie in \[0, 1\], got 5"),
            ((-1, 0), r"ranking index must lie in \[0, 1\], got -1"),
            ((0, 1, 2), "ranking of 3 options from a set of 2"),
        ],
        ids=["above", "negative", "too-long"],
    )
    def test_preference_outside_option_set(self, indices, message):
        with pytest.raises(DomainError, match=message):
            KTuplePreference(indices).validate_for(ScoredOptionSet(["a", "b"], [0.0, 1.0]))


class TestBTProb:
    def test_equal_scores(self):
        assert bt_prob(0.0, 0.0) == 0.5
        assert bt_prob(7.3, 7.3) == 0.5

    def test_log_odds(self):
        assert bt_prob(math.log(3), 0.0) == pytest.approx(0.75, abs=1e-14)

    @given(scores_st, scores_st)
    def test_complement(self, a, b):
        assert bt_prob(a, b) + bt_prob(b, a) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            bt_prob(math.nan, 0.0)


class TestComposition:
    def test_frozen_examples(self):
        # Oracle: direct evaluation of the closed form.
        assert bt_compose(0.9801, 0.02) == pytest.approx(0.5012786415711945, abs=1e-12)
        assert bt_compose(0.9999, 0.02) == pytest.approx(0.9951234076433126, abs=1e-12)
        assert bt_compose(0.9993, 0.0141) == pytest.approx(0.9533073166507199, abs=1e-12)
        assert bt_compose(0.9820, 0.0141) == pytest.approx(0.4382762942986285, abs=1e-12)

    def test_midpoint_and_cancellation(self):
        assert bt_compose(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)
        for link in (LOGISTIC, PROBIT):
            assert compose_pairwise(link, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)
            for p in (0.01, 0.3, 0.9):
                assert compose_pairwise(link, p, 1.0 - p) == pytest.approx(0.5, abs=1e-9)

    def test_symmetric_in_arguments(self):
        rng = make_rng(21)
        for link in (LOGISTIC, PROBIT):
            for _ in range(50):
                a, b = rng.uniform(0.01, 0.99, size=2)
                assert compose_pairwise(link, a, b) == pytest.approx(
                    compose_pairwise(link, b, a), abs=1e-12
                )

    def test_logistic_composition_matches_closed_form(self):
        rng = make_rng(22)
        for _ in range(200):
            a, b = rng.uniform(0.01, 0.99, size=2)
            assert compose_pairwise(LOGISTIC, a, b) == pytest.approx(
                bt_compose(a, b), abs=1e-12
            )

    # Range note for the transitivity and consistency properties: once a
    # probability saturates toward 1, rounding it to float64 wipes the
    # score information (absolute ulp ~1e-16 dwarfs the tail mass), so
    # the tight tolerances are only achievable where the intermediate
    # probabilities stay resolvable: score differences up to ~10 for the
    # logistic and ~5 for the probit. Wider ranges are checked below
    # against the derived float64 error bound.

    @given(st.floats(min_value=-5, max_value=5), st.floats(min_value=-5, max_value=5))
    @settings(max_examples=200)
    def test_transitivity_through_scores_logistic(self, a, b):
        composed = compose_pairwise(LOGISTIC, LOGISTIC.evaluate(a), LOGISTIC.evaluate(b))
        assert composed == pytest.approx(LOGISTIC.evaluate(a + b), abs=1e-10)

    @given(st.floats(min_value=-2.5, max_value=2.5), st.floats(min_value=-2.5, max_value=2.5))
    @settings(max_examples=200)
    def test_transitivity_through_scores_probit(self, a, b):
        composed = compose_pairwise(PROBIT, PROBIT.evaluate(a), PROBIT.evaluate(b))
        assert composed == pytest.approx(PROBIT.evaluate(a + b), abs=1e-10)

    @pytest.mark.filterwarnings("ignore::prefsense.SaturationWarning")
    @given(
        st.sampled_from(["logistic", "probit"]),
        st.floats(min_value=-7, max_value=7),
        st.floats(min_value=-7, max_value=7),
    )
    @settings(max_examples=200)
    def test_transitivity_wide_range_coarse(self, family, a, b):
        from prefsense import get_link

        link = get_link(family)
        p_a, p_b = link.evaluate(a), link.evaluate(b)
        if not (0.0 < p_a < 1.0 and 0.0 < p_b < 1.0):
            return
        composed = compose_pairwise(link, p_a, p_b)
        # Derived float64 bound. For x > 0, g(x) is stored with absolute
        # error at most ROUNDING[family] near 1, which the inverse turns
        # into a score error of that much over g'(x); g'(a + b) carries it
        # into the result. Arguments x <= 0 keep full relative accuracy and
        # add at most g'(a + b) * 2^-52 each, covered, with the roundings
        # of the sum and the two final evaluations, by four ulps of 1.
        tail = sum(1.0 / link.derivative(x) for x in (a, b) if x > 0)
        bound = link.derivative(a + b) * ROUNDING[family] * tail + 4 * 2.0**-52
        assert abs(composed - link.evaluate(a + b)) <= bound

    @given(
        st.floats(min_value=-2.2, max_value=2.2),
        st.floats(min_value=-2.2, max_value=2.2),
        st.floats(min_value=-2.2, max_value=2.2),
    )
    @settings(max_examples=200)
    def test_consistency_with_scores(self, si, sk, sj):
        composed = bt_compose(bt_prob(si, sk), bt_prob(sk, sj))
        assert composed == pytest.approx(bt_prob(si, sj), abs=1e-12)

    @given(scores_st, scores_st, scores_st)
    @settings(max_examples=200)
    def test_consistency_wide_range_coarse(self, si, sk, sj):
        # Score differences up to 20: rounding the intermediate pair
        # probabilities costs up to ~ulp(1)/g'(20) in the score domain.
        composed = bt_compose(bt_prob(si, sk), bt_prob(sk, sj))
        assert composed == pytest.approx(bt_prob(si, sj), abs=1e-7)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bt_compose(0.0, 0.5)
        with pytest.raises(DomainError):
            bt_compose(0.5, 1.0)
        with pytest.raises(DomainError):
            compose_pairwise(LOGISTIC, -0.1, 0.5)

    def test_saturation_flag(self):
        with pytest.warns(SaturationWarning):
            bt_compose(1 - 1e-16, 1 - 1e-16)

    def test_arrays_equal_scalar_calls(self):
        rng = make_rng(35)
        a, b = rng.uniform(1e-6, 1.0 - 1e-6, size=(2, 3, 40))
        composed = bt_compose(a, b)
        assert composed.shape == a.shape
        assert composed.tolist() == [
            [bt_compose(x, y) for x, y in zip(row_a, row_b)] for row_a, row_b in zip(a.tolist(), b.tolist())
        ]
        assert bt_compose(a, 0.3).tolist() == [[bt_compose(x, 0.3) for x in row] for row in a.tolist()]
        assert type(bt_compose(np.float64(0.4), 0.3)) is float

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, math.nan, math.inf])
    def test_array_domain_errors(self, bad):
        with pytest.raises(DomainError, match="p_kj must"):
            bt_compose(np.array([0.2, 0.3]), np.array([0.4, bad]))


_NEAR_ONE = 1 - 1e-16
_EXTREME = ScoredOptionSet(["a", "b", "c"], [800.0, 0.0, -800.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: bt_prob(40.0, 0.0),
        lambda: compose_pairwise(LOGISTIC, _NEAR_ONE, _NEAR_ONE),
        lambda: compose_pairwise(PROBIT, _NEAR_ONE, _NEAR_ONE),
        lambda: bt_compose(_NEAR_ONE, _NEAR_ONE),
        lambda: bt_compose(np.array([0.5, _NEAR_ONE]), np.array([0.5, _NEAR_ONE])),
        lambda: pl_prob(KTuplePreference((0, 1, 2)), _EXTREME),
        lambda: LOGISTIC.evaluate(40.0),
        lambda: PROBIT.evaluate(40.0),
        lambda: predict(FitResult((0.0, 40.0), 0.0, 1, True), 1, 0),
    ],
    ids=[
        "bt_prob", "compose_logistic", "compose_probit", "bt_compose", "bt_compose_array", "pl_prob",
        "logistic_evaluate", "probit_evaluate", "fitting_predict",
    ],
)
def test_saturation_warning_points_at_caller(call):
    with pytest.warns(SaturationWarning) as record:
        call()
    assert [w.filename for w in record] == [__file__]


class TestPLProb:
    def test_uniform_three_way(self):
        options = ScoredOptionSet(["a", "b", "c"], [0.0, 0.0, 0.0])
        for perm in itertools.permutations(range(3)):
            assert pl_prob(KTuplePreference(perm), options) == pytest.approx(
                1.0 / 6.0, abs=1e-14
            )

    def test_pair_degenerates_to_bt(self):
        options = ScoredOptionSet(["a", "b"], [math.log(3), 0.0])
        assert pl_prob(KTuplePreference((0, 1)), options) == pytest.approx(0.75, abs=1e-14)
        rng = make_rng(23)
        for _ in range(200):
            s = rng.uniform(-10, 10, size=2)
            options = ScoredOptionSet(["a", "b"], s)
            assert pl_prob(KTuplePreference((0, 1)), options) == pytest.approx(
                bt_prob(s[0], s[1]), abs=1e-12
            )

    def test_frozen_example(self):
        # Frozen from the enumeration oracle (raw-exponential evaluation).
        options = ScoredOptionSet(["a", "b", "c"], [1.0, 0.0, -1.0])
        assert pl_prob(KTuplePreference((0, 1, 2)), options) == pytest.approx(
            0.4863301075752072, abs=1e-12
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_permutation_normalization(self, n):
        rng = make_rng(24 + n)
        options = ScoredOptionSet([f"o{i}" for i in range(n)], rng.uniform(-3, 3, size=n))
        total = sum(
            pl_prob(KTuplePreference(p), options) for p in itertools.permutations(range(n))
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.filterwarnings("ignore::prefsense.SaturationWarning")
    def test_extreme_scores_stable(self):
        options = ScoredOptionSet(["a", "b", "c"], [800.0, 0.0, -800.0])
        value = pl_prob(KTuplePreference((0, 1, 2)), options)
        assert 0.0 < value <= 1.0

    def test_invalid_permutation(self):
        options = ScoredOptionSet(["a", "b", "c"], [1.0, 0.0, -1.0])
        with pytest.raises(DomainError):
            pl_prob(KTuplePreference((0, 3)), options)

    def test_overflowing_ratio_gives_zero(self):
        # exp(800) overflows to inf, so the first stage's factor is 0.
        options = ScoredOptionSet(["a", "b"], [0.0, 800.0])
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert pl_prob(KTuplePreference((0, 1)), options) == 0.0
        assert [w.category for w in record] == [SaturationWarning]

    @pytest.mark.parametrize("k", [2, 3, 5, 9])
    def test_equals_the_ratio_product(self, k):
        # One stage kernel: the score form and the ratio form agree exactly.
        rng = make_rng(50 + k)
        options = ScoredOptionSet([f"o{i}" for i in range(k)], rng.uniform(-30, 30, size=k))
        for _ in range(20):
            omega = KTuplePreference(tuple(rng.permutation(k)))
            assert pl_prob(omega, options) == pl_prob_from_ratios(ratio_matrix(options, omega))


class TestPLRatio:
    """The suffix-swap ratio, read from ratio_matrix."""

    def test_equal_scores(self):
        options = ScoredOptionSet(["a", "b"], [1.5, 1.5])
        assert ratio_matrix(options, KTuplePreference((0, 1)))[0, 1] == pytest.approx(
            1.0, abs=1e-15
        )

    def test_log_two_gap(self):
        options = ScoredOptionSet(["a", "b"], [math.log(2), 0.0])
        assert ratio_matrix(options, KTuplePreference((0, 1)))[0, 1] == pytest.approx(
            0.5, abs=1e-14
        )

    def test_reciprocal(self):
        rng = make_rng(26)
        options = ScoredOptionSet(["a", "b", "c"], rng.uniform(-5, 5, size=3))
        r = ratio_matrix(options, KTuplePreference((0, 1, 2)))
        for u, v in itertools.permutations(range(3), 2):
            assert r[u, v] * r[v, u] == pytest.approx(1.0, abs=1e-12)

    def test_same_index_rejected(self):
        # A ratio is taken between two distinct entries of a ranking.
        options = ScoredOptionSet(["a", "b"], [0.0, 1.0])
        with pytest.raises(ValidationError, match="distinct"):
            ratio_matrix(options, KTuplePreference((1, 1)))
        with pytest.raises(DomainError, match="ranking index must be an integer"):
            ratio_matrix(options, KTuplePreference((0.5, 1)))

    @pytest.mark.parametrize("k", [3, 4])
    def test_swap_ratio_matches_probability_ratio(self, k):
        # The suffix-swap identity: for tuples sharing a prefix and
        # swapping their last two entries, the probability ratio depends
        # only on the swapped scores, for any K and any prefix.
        rng = make_rng(27 + k)
        options = ScoredOptionSet([f"o{i}" for i in range(k)], rng.uniform(-2, 2, size=k))
        prefix = tuple(range(k - 2))
        u, v = k - 2, k - 1
        omega = KTuplePreference(prefix + (u, v))
        p_uv = pl_prob(omega, options)
        p_vu = pl_prob(KTuplePreference(prefix + (v, u)), options)
        assert p_vu / p_uv == pytest.approx(ratio_matrix(options, omega)[u, v], abs=1e-12)


class TestPLFromRatios:
    def test_uniform(self):
        assert pl_prob_from_ratios(np.ones((3, 3))) == pytest.approx(1.0 / 6.0, abs=1e-14)

    def test_single_pair(self):
        r = 0.37
        m = np.array([[1.0, r], [1.0 / r, 1.0]])
        assert pl_prob_from_ratios(m) == pytest.approx(1.0 / (1.0 + r), abs=1e-14)

    def test_matches_score_based_probability(self):
        rng = make_rng(29)
        for k in (2, 3, 4):
            scores = rng.uniform(-3, 3, size=k)
            options = ScoredOptionSet([f"o{i}" for i in range(k)], scores)
            omega = KTuplePreference(tuple(range(k)))
            ratios = ratio_matrix(options, omega)
            assert pl_prob_from_ratios(ratios) == pytest.approx(
                pl_prob(omega, options), abs=1e-12
            )

    def test_rejects_inconsistent_reciprocals(self):
        m = np.array([[1.0, 2.0], [0.499, 1.0]])
        with pytest.raises(ValidationError, match=r"ratios\[0,1\] \* ratios\[1,0\]"):
            pl_prob_from_ratios(m)

    @pytest.mark.parametrize("k", range(2, 11))
    def test_stack_equals_per_matrix_calls(self, k):
        # Up to K = 10, so a stage sums up to 9 ratios: numpy's pairwise sum
        # takes its unrolled path from 8 on, in a stack as in one matrix.
        rng = make_rng(40 + k)
        scores = rng.uniform(-3, 3, size=(3, 5, k))
        stack = np.exp(scores[..., None, :] - scores[..., :, None])
        probs = pl_prob_from_ratios(stack)
        assert probs.shape == (3, 5)
        assert probs.tolist() == [[pl_prob_from_ratios(m) for m in row] for row in stack]
        assert type(pl_prob_from_ratios(stack[0, 0])) is float

    def test_stack_names_the_inconsistent_matrix(self):
        stack = np.ones((4, 3, 3))
        stack[2, 0, 1] = 2.0
        with pytest.raises(ValidationError, match=r"ratios\[2,0,1\] \* ratios\[2,1,0\] = "):
            pl_prob_from_ratios(stack)
        with pytest.raises(ValidationError, match="finite and positive"):
            pl_prob_from_ratios(-stack)

    def test_rejects_nonpositive(self):
        m = np.array([[1.0, -2.0], [-0.5, 1.0]])
        with pytest.raises(ValidationError):
            pl_prob_from_ratios(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            pl_prob_from_ratios(np.ones((2, 3)))

    @pytest.mark.parametrize("shape", [(4, 2, 3), (1, 1), (3,)])
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(ValidationError, match="square with K >= 2"):
            pl_prob_from_ratios(np.ones(shape))

    @pytest.mark.parametrize("ratios", [[[1, "x"], [1, 1]], [[1, 2j], [1, 1]]], ids=["string", "complex"])
    def test_rejects_non_real(self, ratios):
        with pytest.raises(ValidationError, match="ratios must hold real numbers only"):
            pl_prob_from_ratios(ratios)


class TestLogitNormalDensity:
    def test_midpoint_closed_form(self):
        for sigma2 in (0.3, 1.0, 2.5):
            want = 4.0 / math.sqrt(2.0 * math.pi * 2.0 * sigma2)
            assert logit_normal_density(0.5, sigma2) == pytest.approx(want, rel=1e-12)

    def test_symmetry(self):
        rng = make_rng(31)
        for sigma2 in (0.5, 1.1):
            for x in rng.uniform(1e-4, 0.5, size=100):
                assert logit_normal_density(x, sigma2) == pytest.approx(
                    logit_normal_density(1.0 - x, sigma2), rel=1e-9
                )

    @pytest.mark.parametrize("sigma2", [0.5, 1.1, 2.0])
    def test_integrates_to_one(self, sigma2):
        total, err = quad(lambda y: logit_normal_density(y, sigma2), 1e-12, 1 - 1e-12, limit=200)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_bimodal_dip_at_center(self):
        # For sigma2 > 1 the center is a local minimum.
        assert logit_normal_density(0.5, 1.1) < logit_normal_density(0.25, 1.1)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            logit_normal_density(0.0, 1.0)
        with pytest.raises(DomainError):
            logit_normal_density(1.0, 1.0)
        with pytest.raises(DomainError):
            logit_normal_density(0.5, 0.0)
        with pytest.raises(DomainError):
            logit_normal_density(0.5, -1.0)

    def test_array_equals_scalar_calls(self):
        xs = make_rng(33).uniform(1e-6, 1.0 - 1e-6, size=(4, 50))
        dens = logit_normal_density(xs, 1.1)
        assert dens.shape == xs.shape
        assert dens.tolist() == [[logit_normal_density(x, 1.1) for x in row] for row in xs.tolist()]
        assert type(logit_normal_density(np.float64(0.3), 1.1)) is float

    @pytest.mark.parametrize(
        "bad,text",
        [
            (0.0, "x must lie strictly inside"),
            (1.0, "x must lie strictly inside"),
            (-0.5, "x must lie strictly inside"),
            (1.5, "x must lie strictly inside"),
            (math.nan, "x must be finite, got nan"),
            (math.inf, "x must be finite, got inf"),
        ],
        ids=["0.0", "1.0", "-0.5", "1.5", "nan", "inf"],
    )
    def test_array_outside_unit_interval(self, bad, text):
        xs = np.array([0.2, bad, 0.7])
        with pytest.raises(DomainError, match=text):
            logit_normal_density(xs, 1.0)
        with pytest.raises(DomainError, match=text):
            logit_normal_density(bad, 1.0)

    @pytest.mark.parametrize("sigma2", [math.nan, math.inf, 0.0, -1.0])
    def test_array_bad_sigma2(self, sigma2):
        with pytest.raises(DomainError, match="sigma2"):
            logit_normal_density(np.array([0.2, 0.7]), sigma2)
