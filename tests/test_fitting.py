"""Maximum-likelihood fitting: recovery, identifiability, divergence."""

import math

import numpy as np
import pytest

from prefsense import (
    DisconnectedDataError,
    DivergenceWarning,
    DomainError,
    FitResult,
    KTuplePreference,
    PairwiseCounts,
    ScoredOptionSet,
    ValidationError,
    bt_prob,
    brute_force_pl,
    counts_from_samples,
    fit_bt,
    fit_pl,
    generate,
    load_counts,
    make_rng,
    parse_counts_text,
    predict,
)
from prefsense.synth import DatasetSpec


def exact_counts(scores, per_pair=1_000_000.0):
    n = len(scores)
    wins = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                wins[i, j] = per_pair * bt_prob(scores[i], scores[j])
    return PairwiseCounts(wins)


class TestPairwiseCounts:
    def test_validation(self):
        with pytest.raises(ValidationError):
            PairwiseCounts(np.ones((2, 3)))
        with pytest.raises(ValidationError):
            PairwiseCounts(np.array([[1.0, 2.0], [3.0, 0.0]]))
        with pytest.raises(ValidationError):
            PairwiseCounts(np.array([[0.0, -1.0], [3.0, 0.0]]))

    def test_parse_text(self):
        counts = parse_counts_text("2  0 75  25 0")
        assert counts.n == 2
        assert counts.wins[0, 1] == 75

    def test_parse_errors(self):
        with pytest.raises(ValidationError):
            parse_counts_text("")
        with pytest.raises(ValidationError):
            parse_counts_text("2 0 75 25")
        with pytest.raises(ValidationError):
            parse_counts_text("two 0 75 25 0")

    @pytest.mark.parametrize("text", ["-1 0", "0", "1 0"])
    def test_parse_refuses_fewer_than_two_options(self, text):
        with pytest.raises(ValidationError, match="at least 2 options"):
            parse_counts_text(text)

    def test_load(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("3\n0 10 20\n30 0 40\n50 60 0\n")
        assert load_counts(path).wins[2, 1] == 60


class TestFitBT:
    def test_symmetric_counts_give_zero_scores(self):
        counts = PairwiseCounts(np.full((3, 3), 100.0) - 100.0 * np.eye(3))
        fit = fit_bt(counts)
        assert fit.converged
        np.testing.assert_allclose(fit.scores, 0.0, atol=1e-9)

    def test_two_option_closed_form(self):
        fit = fit_bt(PairwiseCounts(np.array([[0.0, 25.0], [75.0, 0.0]])))
        assert fit.converged
        assert fit.scores[0] == 0.0
        assert fit.scores[1] == pytest.approx(math.log(3.0), abs=1e-4)

    def test_sampled_round_trip(self):
        true_scores = (1.0, 0.0, -1.0)
        rng = make_rng(9)
        wins = np.zeros((3, 3))
        for i in range(3):
            for j in range(i + 1, 3):
                w = rng.binomial(100_000, bt_prob(true_scores[i], true_scores[j]))
                wins[i, j] = w
                wins[j, i] = 100_000 - w
        fit = fit_bt(PairwiseCounts(wins))
        assert fit.converged
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert predict(fit, i, j) == pytest.approx(
                        bt_prob(true_scores[i], true_scores[j]), abs=0.01
                    )

    def test_exact_proportions_recover_scores(self):
        true_scores = (0.7, -0.2, 1.1, 0.0)
        fit = fit_bt(exact_counts(true_scores))
        anchored = [s - true_scores[0] for s in true_scores]
        np.testing.assert_allclose(fit.scores, anchored, atol=1e-3)

    def test_translation_invariance(self):
        base = fit_bt(exact_counts((1.0, 0.0, -1.0)))
        shifted = fit_bt(exact_counts((6.0, 5.0, 4.0)))
        np.testing.assert_allclose(base.scores, shifted.scores, atol=1e-9)

    def test_likelihood_improves_over_start(self):
        counts = exact_counts((1.0, 0.0, -1.0), per_pair=1000.0)
        fit = fit_bt(counts)
        # Log-likelihood of the all-zeros start: every pair at 0.5.
        start_ll = float(np.sum(counts.wins * math.log(0.5)))
        assert fit.log_likelihood > start_ll

    def test_fit_is_local_maximum(self):
        counts = exact_counts((1.0, 0.0, -1.0), per_pair=1000.0)
        fit = fit_bt(counts)

        def loglik(scores):
            total = 0.0
            for i in range(3):
                for j in range(3):
                    if i != j:
                        total += counts.wins[i, j] * math.log(bt_prob(scores[i], scores[j]))
            return total

        rng = make_rng(10)
        best = loglik(fit.scores)
        for _ in range(50):
            perturbed = np.array(fit.scores) + rng.normal(0, 1e-3, size=3)
            perturbed[0] = 0.0
            assert loglik(perturbed) <= best + 1e-9

    def test_disconnected_graph_rejected(self):
        wins = np.zeros((4, 4))
        wins[0, 1] = wins[1, 0] = 5
        wins[2, 3] = wins[3, 2] = 5
        with pytest.raises(DisconnectedDataError) as exc_info:
            fit_bt(PairwiseCounts(wins))
        assert exc_info.value.components == [[0, 1], [2, 3]]
        assert "[0, 1]" in str(exc_info.value)

    def test_one_sided_pair_warns_and_caps(self):
        wins = np.zeros((2, 2))
        wins[0, 1] = 50
        with pytest.warns(DivergenceWarning):
            fit = fit_bt(PairwiseCounts(wins))
        assert abs(fit.scores[1]) <= 30.0
        assert not fit.converged


class TestFitPL:
    def test_uniform_rankings_give_zero_scores(self):
        from itertools import permutations

        rankings = [(KTuplePreference(p), 7.0) for p in permutations(range(3))]
        fit = fit_pl(rankings, 3)
        assert fit.converged
        np.testing.assert_allclose(fit.scores, 0.0, atol=1e-9)

    def test_pairs_only_matches_fit_bt(self):
        rankings = [
            (KTuplePreference((0, 1)), 75.0),
            (KTuplePreference((1, 0)), 25.0),
            (KTuplePreference((1, 2)), 60.0),
            (KTuplePreference((2, 1)), 40.0),
        ]
        wins = np.zeros((3, 3))
        wins[0, 1], wins[1, 0] = 75, 25
        wins[1, 2], wins[2, 1] = 60, 40
        pl = fit_pl(rankings, 3)
        bt = fit_bt(PairwiseCounts(wins))
        np.testing.assert_allclose(pl.scores, bt.scores, atol=1e-6)

    def test_recovery_from_ranking_distribution(self):
        true = ScoredOptionSet(("a", "b", "c"), (1.0, 0.0, -1.0))
        table = brute_force_pl(true, 3)
        rankings = [(KTuplePreference(perm), 100_000 * p) for perm, p in table.items()]
        fit = fit_pl(rankings, 3)
        assert fit.converged
        np.testing.assert_allclose(fit.scores, (0.0, -1.0, -2.0), atol=1e-6)

    def test_sampled_recovery(self):
        true = ScoredOptionSet(("a", "b", "c"), (1.0, 0.0, -1.0))
        table = brute_force_pl(true, 3)
        perms = list(table)
        rng = make_rng(12)
        draws = rng.multinomial(100_000, [table[p] for p in perms])
        rankings = [(KTuplePreference(p), float(c)) for p, c in zip(perms, draws) if c]
        fit = fit_pl(rankings, 3)
        np.testing.assert_allclose(fit.scores, (0.0, -1.0, -2.0), atol=0.05)

    def test_disconnected(self):
        rankings = [
            (KTuplePreference((0, 1)), 5.0),
            (KTuplePreference((2, 3)), 5.0),
        ]
        with pytest.raises(DisconnectedDataError):
            fit_pl(rankings, 4)

    def test_validation(self):
        with pytest.raises(ValidationError):
            fit_pl([], 3)
        with pytest.raises(ValidationError):
            fit_pl([(KTuplePreference((0, 1)), -1.0)], 2)
        with pytest.raises(DomainError):
            fit_pl([(KTuplePreference((0, 5)), 1.0)], 3)
        for mult in ("x", None, math.inf):
            with pytest.raises(DomainError, match="multiplicity must be"):
                fit_pl([(KTuplePreference((0, 1)), mult)], 2)

    @pytest.mark.parametrize("n_options", ["x", None, 2.5, 3.0], ids=["x", "None", "2.5", "3.0"])
    def test_non_integer_n_options(self, n_options):
        with pytest.raises(DomainError, match="n_options must be an integer"):
            fit_pl([(KTuplePreference((0, 1)), 1.0)], n_options)

    def test_numpy_integer_n_options(self):
        rankings = [(KTuplePreference((0, 1)), 3.0), (KTuplePreference((1, 0)), 1.0)]
        assert fit_pl(rankings, np.int64(2)).scores == fit_pl(rankings, 2).scores


class TestPredict:
    def test_self_comparison(self):
        fit = FitResult(scores=(0.0, 1.0), log_likelihood=0.0, iterations=0, converged=True)
        assert predict(fit, 0, 0) == 0.5
        assert predict(fit, 1, 1) == 0.5

    def test_matches_bt_prob(self):
        fit = FitResult(scores=(0.0, 1.3, -0.4), log_likelihood=0.0, iterations=0, converged=True)
        assert predict(fit, 1, 2) == pytest.approx(bt_prob(1.3, -0.4), abs=1e-15)

    def test_index_errors(self):
        fit = FitResult(scores=(0.0, 1.0), log_likelihood=0.0, iterations=0, converged=True)
        with pytest.raises(DomainError):
            predict(fit, 0, 2)
        with pytest.raises(DomainError, match="i must be an integer"):
            predict(fit, 0.5, 1)


class TestCountsFromSamples:
    def test_aggregates_synthesized_data(self):
        spec = DatasetSpec(("dog", "bird", "cat"), 0.95, 0.25, 4000, 17)
        samples = generate(spec)
        counts = counts_from_samples(samples, spec.permutation)
        assert counts.wins.sum() == 4000
        # The forbidden pair stays empty.
        assert counts.wins[0, 2] == 0 and counts.wins[2, 0] == 0
        n12 = counts.wins[0, 1] + counts.wins[1, 0]
        assert counts.wins[0, 1] / n12 == pytest.approx(0.95, abs=0.02)

    def test_fitted_prediction_composes_empirical_frequencies(self):
        # End-to-end demonstration: the dataset fixes only the two
        # adjacent pairs, and the fitted model's prediction for the
        # unseen pair is exactly the composition of the two empirical
        # win rates (the saturated pairwise MLE reproduces the observed
        # frequencies, and scores are additive).
        from prefsense import bt_compose

        spec = DatasetSpec(("dog", "bird", "cat"), 0.99, 0.02, 60_000, 21)
        counts = counts_from_samples(generate(spec), spec.permutation)
        fit = fit_bt(counts)
        n12 = counts.wins[0, 1] + counts.wins[1, 0]
        n23 = counts.wins[1, 2] + counts.wins[2, 1]
        emp12 = counts.wins[0, 1] / n12
        emp23 = counts.wins[1, 2] / n23
        assert predict(fit, 0, 2) == pytest.approx(bt_compose(emp12, emp23), rel=1e-6)
        # The composed value sits near the composition of the spec's pair
        # probabilities; the wide tolerance is the sensitivity itself
        # (the derivative with respect to the first pair is ~20 here).
        assert predict(fit, 0, 2) == pytest.approx(bt_compose(0.99, 0.02), abs=0.1)

    def test_unknown_labels(self):
        spec = DatasetSpec(("dog", "bird", "cat"), 0.5, 0.5, 10, 0)
        samples = generate(spec)
        with pytest.raises(ValidationError):
            counts_from_samples(samples, ("fish", "rock", "tree"))

    def test_label_validation(self):
        with pytest.raises(ValidationError):
            counts_from_samples([], ("a",))
        with pytest.raises(ValidationError):
            counts_from_samples([], ("a", "a"))
