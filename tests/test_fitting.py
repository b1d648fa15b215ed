"""Maximum-likelihood fitting: recovery, identifiability, divergence."""

import math
import re
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from prefsense.fitting import MAX_ITERATIONS, _ascend, _bt_value_and_grad
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

    @pytest.mark.parametrize(
        "wins",
        [[[0, "x"], [1, 0]], [[0, 1j], [1, 0]], np.array([[0, 1j], [1, 0]]), [[0, 1], [1]]],
        ids=["string", "complex", "complex-array", "ragged"],
    )
    def test_non_real_entries(self, wins):
        with pytest.raises(ValidationError, match="wins must hold real numbers only"):
            PairwiseCounts(wins)

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
        # With two options the preconditioned step is the pinned gradient bit
        # for bit, so the fit keeps plain gradient ascent's path, and with it
        # the verify suite's recorded gap of 1.73e-10 to ln 3.
        assert fit.iterations == 18 and fit.scores[1] == 1.0986122888413863

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

    def test_one_sided_pair_warns_once_and_runs_out_of_iterations(self):
        wins = np.zeros((2, 2))
        wins[0, 1] = 50
        with pytest.warns(DivergenceWarning) as record:
            fit = fit_bt(PairwiseCounts(wins))
        assert len(record) == 1
        assert fit.scores[1] < 0.0
        assert fit.iterations == MAX_ITERATIONS and not fit.converged

    @pytest.mark.parametrize(
        "pairs, components",
        [(((0, 2), (1, 3)), [[0, 2], [1, 3]]), (((0, 3), (3, 1)), [[0, 1, 3], [2]])],
    )
    def test_components_listed_sorted(self, pairs, components):
        wins = np.zeros((4, 4))
        for i, j in pairs:
            wins[i, j] = wins[j, i] = 5
        with pytest.raises(DisconnectedDataError) as exc_info:
            fit_bt(PairwiseCounts(wins))
        assert exc_info.value.components == components


def fit_scale_counts(seed, n=100, per_pair=20):
    """A dense win matrix: every pair compared per_pair times, N(0, 1) scores.

    With seed [s, i] it is input i of the fit_scale benchmark at seed s.
    """
    rng = np.random.default_rng(seed)
    true = rng.normal(size=n)
    p = 1.0 / (1.0 + np.exp(true[None, :] - true[:, None]))
    upper = np.triu_indices(n, 1)
    wins = np.zeros((n, n))
    wins[upper] = rng.binomial(per_pair, p[upper])
    wins.T[upper] = per_pair - wins[upper]
    return wins


def fit_without_divergence_warning(fit, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DivergenceWarning)
        return fit(*args)


class TestDivergence:
    """The MLE is finite exactly when the directed win graph is strongly connected."""

    def test_one_sided_cycle_is_finite(self):
        # Every pair is 20-0, but 0 beat 1, 1 beat 2 and 2 beat 0.
        wins = np.zeros((3, 3))
        wins[0, 1] = wins[1, 2] = wins[2, 0] = 20
        fit = fit_without_divergence_warning(fit_bt, PairwiseCounts(wins))
        assert fit.converged
        np.testing.assert_allclose(fit.scores, 0.0, atol=1e-9)

    def test_dense_input_with_one_sided_pairs_is_finite(self):
        wins = fit_scale_counts(0)
        assert np.sum(wins == 0) - 100 > 100  # one-sided pairs, off the diagonal
        fit = fit_without_divergence_warning(fit_bt, PairwiseCounts(wins))
        assert fit.converged
        assert max(abs(s) for s in fit.scores) < 30.0

    @pytest.mark.parametrize(
        "winner, loser, group",
        [(2, None, [2]), (0, None, [0]), (None, 3, [0, 1, 2])],
        ids=["beats-all-2", "beats-all-0", "loses-to-all-3"],
    )
    def test_unbeaten_group_warns(self, winner, loser, group):
        wins = np.full((4, 4), 3.0) - 3.0 * np.eye(4)
        if winner is not None:
            wins[:, winner] = 0.0
        if loser is not None:
            wins[loser, :] = 0.0
        with pytest.warns(DivergenceWarning, match=re.escape(f"options {group} never lost")) as record:
            fit = fit_bt(PairwiseCounts(wins))
        assert len(record) == 1
        assert fit.iterations == MAX_ITERATIONS and not fit.converged
        rest = [s for k, s in enumerate(fit.scores) if k not in group]
        assert min(fit.scores[k] for k in group) > max(rest)

    def test_rankings_use_the_same_check(self):
        cycle = [(KTuplePreference(p), 5.0) for p in ((0, 1), (1, 2), (2, 0))]
        fit = fit_without_divergence_warning(fit_pl, cycle, 3)
        assert fit.converged
        with pytest.warns(DivergenceWarning, match=re.escape("options [0] never lost")):
            fit_pl([(KTuplePreference((0, 1, 2)), 5.0)], 3)


COMPLETE_3 = np.ones((3, 3)) - np.eye(3)  # three options, each pair compared once


class TestAscend:
    """The preconditioned ascent: fits of real data, its acceptance rules and its two early exits."""

    # Without the overshoot bound in the stability test, [2, 301] runs all
    # MAX_ITERATIONS, [1, 8] takes 3,974 and [0, 109] 1,181; [0, 109] runs
    # them all if, in addition, any realised gain below the rounding slack
    # counts as resolvable. Plain gradient ascent takes 700-1,000 on each.
    @pytest.mark.parametrize("seed", [[0, 0], [0, 109], [1, 8], [2, 301]])
    def test_dense_inputs_converge(self, seed):
        fit = fit_without_divergence_warning(fit_bt, PairwiseCounts(fit_scale_counts(seed)))
        assert fit.converged and fit.iterations < 60

    # Plain gradient ascent took 40-44 iterations on the star at option 0,
    # where the preconditioned step is the pinned gradient itself, and ran
    # all MAX_ITERATIONS on the chain and on the star at option 50. The
    # complete-graph preconditioner (grad - grad[0]) / n fails all six. The
    # star at option 50, seed 1, stalls at a trial step of 1e-13 when
    # stability is measured in the Euclidean norm of g instead of g.d, or
    # when a realised gain below the slack can never count as resolvable.
    @pytest.mark.parametrize("graph", ["star-at-0", "chain", "star-at-50"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sparse_graphs_converge(self, graph, seed):
        n = 100
        hub = {"star-at-0": 0, "star-at-50": 50}.get(graph)
        pairs = [(i, i + 1) for i in range(n - 1)] if hub is None else [(hub, j) for j in range(n) if j != hub]
        rng = np.random.default_rng(seed)
        true = rng.normal(size=n)
        wins = np.zeros((n, n))
        for i, j in pairs:
            # Both sides win at least once, so the MLE is finite.
            w = min(max(rng.binomial(20, bt_prob(true[i], true[j])), 1), 19)
            wins[i, j], wins[j, i] = w, 20 - w
        fit = fit_without_divergence_warning(fit_bt, PairwiseCounts(wins))
        assert fit.converged and fit.iterations < 60

    def test_one_comparison_per_pair(self):
        # Scores spread as N(0, 2.5^2) leave many pairs with p(1 - p) far
        # below 1/4. Plain gradient ascent takes 420 iterations; with the
        # preconditioner scaled by the mean pair weight, 1, instead of 16,
        # the trial cap of 1 holds the ascent back and it takes 2,008.
        n = 60
        rng = np.random.default_rng(2)
        true = rng.normal(scale=2.5, size=n)
        upper = np.triu_indices(n, 1)
        wins = np.zeros((n, n))
        wins[upper] = rng.random(len(upper[0])) < 1 / (1 + np.exp(true[upper[1]] - true[upper[0]]))
        wins.T[upper] = 1 - wins[upper]
        fit = fit_without_divergence_warning(fit_bt, PairwiseCounts(wins))
        assert fit.converged and fit.iterations < 200

    # Each option beats the next at the given odds, so the MLE's adjacent
    # gaps are ln(odds) and its spread is (n - 1) ln(odds), up to 1,368.
    # Score differences beyond 709 overflow exp in the objective, which
    # must not warn.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("odds", [99.0, 1e6])
    @pytest.mark.parametrize("n", [12, 100])
    def test_dominant_chains_fit_exactly(self, n, odds):
        wins = np.zeros((n, n))
        for i in range(n - 1):
            wins[i, i + 1], wins[i + 1, i] = odds, 1.0
        fit = fit_bt(PairwiseCounts(wins))
        assert fit.converged and fit.iterations < 60
        np.testing.assert_allclose(-np.diff(fit.scores), math.log(odds), rtol=0, atol=2e-8)

    def test_rise_below_the_slack_is_not_resolvable(self):
        # The value rises by 1e-12, more than the predicted gain (3.3e-13 at
        # the first trial step) but less than the slack (1e-10), while the
        # gradient grows: no trial step is resolvable or stable.
        start = np.array([0.0, 1e-6, -1e-6])
        steep = np.array([0.0, 1.0, -1.0])
        fit = _ascend(lambda s: (0.0, start) if not s.any() else (1e-12, steep), COMPLETE_3)
        assert fit.scores == (0.0, 0.0, 0.0) and fit.iterations == 1 and not fit.converged

    def test_ranking_case_that_stalled_plain_ascent(self):
        # Plain gradient ascent ran all 10,000 iterations on this case.
        weights = gumbel_rankings(21, 8, 2000, k=4)
        rankings = [(KTuplePreference(idx), m) for idx, m in weights.items()]
        fit = fit_without_divergence_warning(fit_pl, rankings, 8)
        assert fit.converged

    @pytest.mark.filterwarnings("error")
    def test_dominant_ranking_chain_converges(self):
        # Each triple (i, i + 1, i + 2) is ranked in order 99 times and in
        # reverse once; the MLE spreads the 12 scores over about 46.
        n = 12
        rankings = [(KTuplePreference((i, i + 1, i + 2)), 99.0) for i in range(n - 2)]
        rankings += [(KTuplePreference((i + 2, i + 1, i)), 1.0) for i in range(n - 2)]
        fit = fit_pl(rankings, n)
        assert fit.converged and fit.iterations < 60
        assert np.all(np.diff(fit.scores) < -3.0)

    def test_exit_when_no_step_is_accepted(self):
        # Any move costs 1, far above the slack, so all 60 trial steps fail.
        grad = np.array([0.0, 1.0, -1.0])
        fit = _ascend(lambda s: (-float(np.any(s != 0.0)), grad), COMPLETE_3)
        assert fit == FitResult(scores=(0.0, 0.0, 0.0), log_likelihood=0.0, iterations=1, converged=False)

    @pytest.mark.filterwarnings("error")
    def test_linear_objective_runs_out_of_iterations(self):
        # Every step is accepted and the gradient never shrinks.
        grad = np.array([0.0, 1.0, -1.0])
        fit = _ascend(lambda s: (float(grad @ s), grad), COMPLETE_3)
        assert fit.scores[0] == 0.0 and fit.scores[1] == -fit.scores[2] > 0.0
        assert fit.iterations == MAX_ITERATIONS and not fit.converged


U = 2.0**-53  # unit roundoff of float64


def pairwise_sum_depth(n):
    """Most roundings one addend meets in numpy's pairwise sum of n <= 8192 values.

    numpy sums a block of at most 128 values into 8 partial sums (at most
    15 additions each), joins those in 3 levels and adds the up to 7
    leftovers one by one; a longer input is split in two, which adds one
    level. An error bound is then depth * U * sum |x|, to first order.
    """
    assert n <= 8192  # one inner loop, no buffer chunks
    depth = 15 + 3 + 7
    while n > 128:
        half = n // 2 - (n // 2) % 8
        n, depth = n - half, depth + 1
    return depth


def random_objective_case(seed, n):
    """Integer win counts and scores drawn within +-30."""
    rng = make_rng(seed)
    wins = rng.integers(0, 21, size=(n, n)).astype(float)
    np.fill_diagonal(wins, 0.0)
    return wins, rng.uniform(-30.0, 30.0, size=n)


def logaddexp_value_and_grad(wins, s):
    """The objective in its earlier np.logaddexp form, kept as a reference."""
    diff = s[:, None] - s[None, :]
    log_p = -np.logaddexp(0.0, -diff)
    ll = float(np.sum(wins * log_p))
    sig_neg = 1.0 / (1.0 + np.exp(np.clip(diff, -700, 700)))
    g_matrix = wins * sig_neg
    return ll, g_matrix.sum(axis=1) - g_matrix.sum(axis=0)


class TestObjective:
    """_bt_value_and_grad against derived float64 error bounds.

    Rounding budget of one term w * log sigmoid(d) = w * (min(d, 0) - L),
    L = log1p(exp(-|d|)): numpy's exp and log1p are within 1 ulp (2U) on
    float64 (its umath validation tables), and exp's error reaches L at
    most once more since e / (1 + e) <= log1p(e); so L is within 4U
    relative. min(d, 0) <= 0 < L, so |term| >= L and the subtraction and
    the product add U each: 6U * w * |log sigmoid|. Every term has the same
    sign, so the sum of w * |log sigmoid| is |value|.
    """

    @pytest.mark.parametrize("n", [2, 10, 30, 90])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_value_matches_log_expit(self, seed, n):
        from scipy.special import log_expit

        wins, s = random_objective_case(seed, n)
        value, _ = _bt_value_and_grad(wins, s)
        terms = wins * log_expit(s[:, None] - s[None, :])
        reference = math.fsum(terms.ravel())
        # The kernel: 6U per term plus its pairwise sum. log_expit gets the
        # same 6U per term (against 120-bit mpmath, both it and the kernel's
        # form stay within 1.9U on 20,000 d in [-60, 60]); fsum rounds once.
        ulps = 6 + pairwise_sum_depth(n * n) + 6 + 1
        assert abs(value - reference) <= ulps * U * float(np.sum(np.abs(terms)))

    @pytest.mark.parametrize("n", [2, 10, 30])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_matches_central_difference(self, seed, n):
        wins, s = random_objective_case(seed, n)
        eps_f = (6 + pairwise_sum_depth(n * n)) * U  # relative error of a value
        f0 = abs(_bt_value_and_grad(wins, s)[0])
        for k in range(n):
            compared = float(wins[k].sum() + wins[:, k].sum())
            # |d^3/dx^3 log sigmoid(x)| = s(1 - s)|1 - 2s| <= 1 / (6 sqrt 3).
            f3 = compared / (6.0 * math.sqrt(3.0))
            h = 2.0 ** round(math.log2(math.cbrt(3.0 * eps_f * f0 / f3)))
            x = s.copy()
            x[k] = round(s[k] / h) * h  # so that x[k] +- h is exact
            _, g = _bt_value_and_grad(wins, x)
            up, down = x.copy(), x.copy()
            up[k] += h
            down[k] -= h
            f_up, f_down = _bt_value_and_grad(wins, up)[0], _bt_value_and_grad(wins, down)[0]
            fd = (f_up - f_down) / (2.0 * h)
            # Truncation, rounding of the two values and of their
            # difference, and the gradient's own rounding: 4U per
            # sigmoid(-d), U per product, row sums pairwise, column sums
            # sequential, one final subtraction.
            bound = (
                h * h / 6.0 * f3
                + eps_f * max(abs(f_up), abs(f_down)) / h
                + U * abs(fd)
                + (5 + max(pairwise_sum_depth(n), n - 1) + 1) * U * compared
            )
            assert abs(fd - g[k]) <= bound, k

    @pytest.mark.parametrize("n", [5, 12, 30])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fit_matches_logaddexp_objective(self, seed, n):
        rng = make_rng(100 + seed)
        true = rng.normal(size=n)
        wins = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                # A two-sided ring keeps the win graph strongly connected.
                if j == i + 1 or rng.random() < 0.5:
                    trials = int(rng.integers(2, 30))
                    w = rng.binomial(trials, bt_prob(true[i], true[j]))
                    w = min(max(w, 1), trials - 1) if j == i + 1 else w
                    wins[i, j], wins[j, i] = w, trials - w
        fit = fit_without_divergence_warning(fit_bt, PairwiseCounts(wins))
        reference = _ascend(partial(logaddexp_value_and_grad, wins), wins + wins.T)
        assert fit.converged and reference.converged
        np.testing.assert_allclose(fit.scores, reference.scores, rtol=0, atol=1e-8)

    @pytest.mark.filterwarnings("error")
    def test_score_gap_beyond_exp_overflow(self):
        # exp(800) overflows to inf, so sigmoid(-800) is its limit 0, silently.
        value, grad = _bt_value_and_grad(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([0.0, 800.0]))
        assert value == -800.0  # log sigmoid(-800) + log sigmoid(800)
        assert grad.tolist() == [1.0, -1.0]  # sigmoid(800) - sigmoid(-800) at option 0


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
        for bad in (5, -1):
            with pytest.raises(DomainError, match=rf"ranking index must lie in \[0, 2\], got {bad}"):
                fit_pl([(KTuplePreference((0, bad)), 1.0)], 3)
        for mult in ("x", None, math.inf):
            with pytest.raises(DomainError, match="multiplicity must be"):
                fit_pl([(KTuplePreference((0, 1)), mult)], 2)
        with pytest.raises(DomainError, match="rankings must be a sequence"):
            fit_pl(5, 2)
        for entry in (((0, 1), 1.0), (KTuplePreference((0, 1)),), 7, [(0, 1), 1.0]):
            with pytest.raises(ValidationError, match="rankings hold"):
                fit_pl([entry], 2)

    def test_needs_two_options(self):
        with pytest.raises(DomainError, match="n_options must be at least 2, got 1"):
            fit_pl([(KTuplePreference((0, 1)), 1.0)], 1)

    def test_zero_multiplicity_skipped(self):
        a, b = KTuplePreference((0, 1)), KTuplePreference((1, 0))
        fit = fit_pl([(a, 0.0), (b, 1.0), (a, 3.0)], 2)
        assert fit == fit_pl([(b, 1.0), (a, 3.0)], 2)
        assert fit.scores[1] == pytest.approx(-math.log(3.0), abs=1e-6)

    def test_list_entries_accepted(self):
        pairs = [(KTuplePreference((0, 1)), 3.0), (KTuplePreference((1, 0)), 1.0)]
        assert fit_pl([list(p) for p in pairs], 2) == fit_pl(pairs, 2)

    @pytest.mark.parametrize("n_options", ["x", None, 2.5, 3.0], ids=["x", "None", "2.5", "3.0"])
    def test_non_integer_n_options(self, n_options):
        with pytest.raises(DomainError, match="n_options must be an integer"):
            fit_pl([(KTuplePreference((0, 1)), 1.0)], n_options)

    def test_numpy_integer_n_options(self):
        rankings = [(KTuplePreference((0, 1)), 3.0), (KTuplePreference((1, 0)), 1.0)]
        assert fit_pl(rankings, np.int64(2)).scores == fit_pl(rankings, 2).scores

    @pytest.mark.parametrize(
        "indices, n, message",
        [
            (((0, 1),), 10**7, "9999998 of 10000000 options appear in no ranking; the smallest is 2"),
            (((0, 2), (2, 0)), 3, "1 of 3 options appear in no ranking; the smallest is 1"),
        ],
        ids=["huge-n", "gap"],
    )
    def test_unranked_options_refused_before_allocating(self, indices, n, message):
        # The comparison graph alone would take n * n bytes (91 TiB at 10**7).
        rankings = [(KTuplePreference(idx), 1.0) for idx in indices]
        with pytest.raises(DisconnectedDataError, match=re.escape(message)):
            fit_pl(rankings, n)


def loop_value_and_grad(items, n, s):
    """fit_pl's objective in its earlier per-ranking, per-stage loop, kept as a reference."""
    ll = 0.0
    grad = np.zeros(n)
    for idx, mult in items:
        sel = np.array(idx)
        for stage in range(len(sel) - 1):
            suffix = sel[stage:]
            stage_scores = s[suffix]
            top = float(np.max(stage_scores))
            expd = np.exp(stage_scores - top)
            denom = float(np.sum(expd))
            ll += mult * (stage_scores[0] - top - math.log(denom))
            grad[suffix[0]] += mult
            grad[suffix] -= mult * expd / denom
    return ll, grad


def pl_objective(weights, n):
    """The value_and_grad that fit_pl hands to _ascend, for distinct weighted rankings."""
    rankings = [(KTuplePreference(idx), m) for idx, m in weights.items()]
    with warnings.catch_warnings(), mock.patch("prefsense.fitting._ascend", lambda f, n: f):
        warnings.simplefilter("ignore", DivergenceWarning)
        return fit_pl(rankings, n)


@st.composite
def weighted_rankings(draw):
    """Distinct rankings of mixed lengths over n options, with positive weights."""
    n = draw(st.integers(2, 8))
    weights = {tuple(range(n)): 1.0}  # names every option, so fit_pl accepts the data
    for perm, k, m in draw(
        st.lists(
            st.tuples(st.permutations(range(n)), st.integers(2, n), st.floats(1e-3, 1e3)),
            max_size=40,
        )
    ):
        weights[tuple(perm[:k])] = weights.get(tuple(perm[:k]), 0.0) + m
    s = draw(st.lists(st.floats(-30.0, 30.0), min_size=n, max_size=n))
    return n, weights, np.array(s)


def gumbel_rankings(seed, n, count, k=None):
    """Top-k of n by Gumbel-max (a Plackett-Luce draw) at N(0, 1) scores; k uniform in 2..n if None."""
    rng = make_rng(seed)
    keys = rng.normal(size=n) + rng.gumbel(size=(count, n))
    weights = {}
    ks = rng.integers(2, n + 1, size=count) if k is None else [k] * count
    for row, top in zip(np.argsort(-keys, axis=1).tolist(), ks):
        weights[tuple(row[:top])] = weights.get(tuple(row[:top]), 0.0) + 1.0
    return weights


class TestPLObjective:
    """fit_pl's stage-array objective against the per-stage loop.

    Both evaluate the same per-stage expressions in float64; they differ
    only in summation order and in which rounding of exp and log they meet,
    so the bound below is twice the error either has against exact
    arithmetic, to first order. For a stage with multiplicity m, K options,
    d = x - max (one rounding, |d| <= 60) and e = exp(d) (1 ulp): e is
    within e(2 + |d|)U <= 2U of exact, the top entry's e is exactly 1, so
    the sum D >= 1 of K of them is within 3(K - 1)U D and log D within
    3(K - 1)U + 2U log D. The term m(d_0 - log D) has no cancellation
    (d_0 <= 0 <= log D), so it is within 3(K - 1)U m + 5U |term|. Summing
    S terms of one sign, in any order, adds (S - 1)U |value|. For option
    j's gradient, each m * softmax is within (3K + 1)U m, and the up to
    2C_j addends of the C_j stages holding j, of total magnitude at most
    2M_j (M_j their multiplicity), add 2(2C_j - 1)U M_j.
    """

    @settings(max_examples=200, deadline=None)
    @given(weighted_rankings())
    def test_matches_loop_reference(self, case):
        n, weights, s = case
        value, grad = pl_objective(weights, n)(s)
        ref_value, ref_grad = loop_value_and_grad(list(weights.items()), n, s)
        stages = [(idx[k:], m) for idx, m in weights.items() for k in range(len(idx) - 1)]
        width = max(map(len, weights))
        total = sum(m for _, m in stages)
        bound = 2 * U * (3 * (width - 1) * total + (4 + len(stages)) * abs(ref_value))
        assert abs(value - ref_value) <= bound
        held, count = np.zeros(n), np.zeros(n)
        for suffix, m in stages:
            held[list(suffix)] += m
            count[list(suffix)] += 1
        grad_bound = 2 * U * held * (3 * width + 1 + 2 * (2 * count - 1))
        assert np.all(np.abs(grad - ref_grad) <= grad_bound)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fit_matches_loop_objective(self, seed):
        n = 5
        weights = gumbel_rankings(seed, n, 100)
        rankings = [(KTuplePreference(idx), m) for idx, m in weights.items()]
        fit = fit_without_divergence_warning(fit_pl, rankings, n)
        # The optimum does not depend on the preconditioner: a complete graph will do.
        reference = _ascend(partial(loop_value_and_grad, list(weights.items()), n), np.ones((n, n)))
        assert fit.converged and reference.converged
        np.testing.assert_allclose(fit.scores, reference.scores, rtol=0, atol=1e-8)


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
