"""Maximum-likelihood score fitting from pairwise win counts.

fit_bt fits the logistic pairwise model to an N x N win matrix by a
deterministic full-batch ascent with a backtracking line search,
preconditioned by the inverse of the data's own comparison graph
Laplacian (see _ascend). The first option's score is pinned to 0 for
identifiability. Counts may be fractional or huge: the ascent scales
small and very large ones to a mean of 1, which leaves the MLE unchanged
(see _ascend).

The MLE is finite exactly when every option beats every other along some
chain of wins, so one-sided pairs inside a cycle of wins are fine, and
chains of dominant preferences fit to their exact, widely spread scores.
When a group of options never lost to the rest, the MLE is at infinity: a
DivergenceWarning names the group before the ascent starts, and the fit
ends unconverged where the ascent stopped instead of hiding the regime.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DisconnectedDataError,
    ValidationError,
    require_instance,
    require_int,
    require_items,
    require_real_array,
    text_file,
)
from .models import bt_prob
from .synth import PreferenceSample, tally_outcomes

__all__ = [
    "GRADIENT_TOL",
    "MAX_ITERATIONS",
    "DivergenceWarning",
    "PairwiseCounts",
    "FitResult",
    "fit_bt",
    "predict",
    "counts_from_samples",
    "parse_counts_text",
    "load_counts",
]

GRADIENT_TOL = 1e-8
MAX_ITERATIONS = 10_000

# Largest mean pair weight _ascend fits unscaled (see there).
_MAX_MEAN = 2.0**59


class DivergenceWarning(RuntimeWarning):
    """The MLE is at infinity for some score; the fit cannot converge."""


@dataclass(frozen=True)
class PairwiseCounts:
    """wins[i, j] = number of times option i was chosen over option j."""

    wins: np.ndarray

    def __init__(self, wins):
        w = require_real_array(wins, "wins")
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 2:
            raise ValidationError(f"wins must be a square matrix with N >= 2, got {w.shape}")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValidationError("win counts must be finite and nonnegative")
        if np.any(np.diag(w) != 0):
            raise ValidationError("diagonal of the win matrix must be zero")
        object.__setattr__(self, "wins", w)

    @property
    def n(self) -> int:
        return self.wins.shape[0]


@dataclass(frozen=True)
class FitResult:
    """Fitted scores (scores[0] = 0), final log-likelihood, and status."""

    scores: tuple[float, ...]
    log_likelihood: float
    iterations: int
    converged: bool


def _reach(adj: np.ndarray, start: int) -> np.ndarray:
    """Mask of the options reachable from start along adj[i, j] (i -> j)."""
    seen = np.zeros(len(adj), dtype=bool)
    frontier = seen.copy()
    frontier[start] = True
    while frontier.any():
        seen |= frontier
        frontier = adj[frontier].any(axis=0) & ~seen
    return seen


def _check_comparisons(beats: np.ndarray) -> None:
    """Refuse a disconnected comparison graph; warn if the MLE diverges.

    beats[i, j] is True when option i beat option j. The MLE is finite
    exactly when this directed graph is strongly connected (Ford 1957;
    Hunter 2004, Assumption 1): otherwise a group of options never lost to
    the rest and its scores run off to infinity.
    """
    compared, comps, left = beats | beats.T, [], np.ones(len(beats), dtype=bool)
    while left.any():
        comp = _reach(compared, int(np.argmax(left)))
        comps.append(np.flatnonzero(comp).tolist())
        left &= ~comp
    if len(comps) > 1:
        raise DisconnectedDataError(
            f"the pairwise comparison graph does not connect all options; components: {comps}",
            components=comps,
        )
    above = _reach(beats.T, 0)  # options with a chain of wins over option 0
    unbeaten = above if not above.all() else ~_reach(beats, 0)
    if unbeaten.any():
        warnings.warn(
            f"options {np.flatnonzero(unbeaten).tolist()} never lost to the others, "
            "so the MLE diverges; the fit will not converge and the scores are "
            "where the ascent stopped",
            DivergenceWarning,
            stacklevel=3,
        )


def _ascend(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    weights: np.ndarray,
) -> FitResult:
    """Preconditioned ascent with backtracking; coordinate 0 stays anchored at 0.

    weights[i, j] = weights[j, i] says how often the data compares i and j;
    its graph must be connected. Up to each pair's factor p(1 - p), the free
    scores' Hessian is the grounded Laplacian L of that graph (row and
    column 0 removed), whose condition number, about n on a complete graph
    and n^2 on a chain, slows plain ascent along the pinned gradient g.
    Steps follow d = (L / c)^-1 g, c the mean weight of a compared pair but
    at least 16, so that the trial cap of 1 stays above the ideal step of
    about 1 / (c p(1 - p)). L is inverted once, at O(n^3). With two options
    compared at least 16 times, d is g bit for bit.

    The sufficient-increase test asks for half the predicted gain
    trial * g.d, which on a quadratic rejects any step beyond the inverse
    curvature and keeps the contraction rate geometric.

    Near the optimum the gain falls below float64 resolution of the
    likelihood, so the test carries a small absolute slack, and the
    gradient, which stays accurate, judges stability: g_new.d_new <= g.d
    (g's norm in the preconditioner's metric, where a stable step cannot
    grow it; the Euclidean norm can) and g_new.d >= -g.d / 2 (no overshoot
    by more than half, as in the strong Wolfe condition). A step that
    realises its predicted gain is resolvable, and doubles the next trial
    step, if that gain exceeds the slack or the step is stable; otherwise
    rounding noise would pass unstable steps. A step accepted within the
    slack must be stable and keeps the trial step.

    Nothing bounds the iterates, and d[0] = 0 keeps option 0 at 0. With a
    finite MLE the pinned log likelihood has bounded superlevel sets, and
    every accepted step ascends up to the slack, so the scores stay in a
    bounded set, however widely the MLE spreads them. Without one,
    _check_comparisons has already warned, and the ascent runs until
    MAX_ITERATIONS or until no step is accepted.

    The stop test max|g| <= GRADIENT_TOL is absolute, so small weights
    would pass it far from the MLE, which one factor on every weight does
    not move. Large ones stop the first line search short: at the start
    every p is 1/2, where the ideal step is about 1 / (c / 4) = 4 / c, and
    the 60 trials go down only to 2^-59, which is 4 / c at c = 2^61 (two
    options weighted 3s and s fail from c = 4s = 4e18 and converge at
    2.4e18). When the mean weight of a compared pair is below 1 or above
    _MAX_MEAN = 2^59, a factor of 4 below that limit, the weights, value
    and gradient are divided by it; the log likelihood is reported
    unscaled.
    """
    n = len(weights)
    mean = weights[weights > 0].mean()
    scale = 1.0 if 1.0 <= mean <= _MAX_MEAN else mean
    if scale != 1.0:
        weights, unscaled = weights / scale, value_and_grad
        value_and_grad = lambda x: tuple(v / scale for v in unscaled(x))
    laplacian = np.diag(weights.sum(axis=1)) - weights
    inverse = np.linalg.inv(laplacian[1:, 1:] / max(mean / scale, 16.0))

    def pinned(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = grad.copy()
        g[0] = 0.0
        return g, np.append(0.0, inverse @ g[1:])

    s = np.zeros(n)
    ll, grad = value_and_grad(s)
    g, d = pinned(grad)
    step = 1.0
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        if np.max(np.abs(g)) <= GRADIENT_TOL:
            converged = True
            iterations -= 1
            break
        trial = step
        slack = 1e-10 * (1.0 + abs(ll))
        gd = float(np.dot(g, d))
        accepted = False
        resolvable = False
        for _ in range(60):
            s_new = s + trial * d
            ll_new, grad_new = value_and_grad(s_new)
            g_new, d_new = pinned(grad_new)
            stable = float(np.dot(g_new, d_new)) <= gd and float(np.dot(g_new, d)) >= -0.5 * gd
            gain = 0.5 * trial * gd
            resolvable = ll_new - ll >= gain and (gain > slack or stable)
            if resolvable or (stable and ll_new >= ll + gain - slack):
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            break
        step = min(1.0, 2.0 * trial) if resolvable else trial
        s, ll, g, d = s_new, ll_new, g_new, d_new
    converged = converged or bool(np.max(np.abs(g)) <= GRADIENT_TOL)
    return FitResult(
        scores=tuple(float(x) for x in s),
        log_likelihood=float(ll * scale),
        iterations=iterations,
        converged=converged,
    )


def _bt_value_and_grad(wins: np.ndarray, s: np.ndarray) -> tuple[float, np.ndarray]:
    """Log likelihood sum(wins[i, j] * log sigmoid(s_i - s_j)) and its gradient."""
    diff = s[:, None] - s[None, :]
    # log sigmoid(d) = min(d, 0) - log1p(exp(-|d|)): stable for both signs, and
    # numpy runs exp and log1p as SIMD loops (logaddexp is a per-element libm loop).
    log_p = np.minimum(diff, 0.0) - np.log1p(np.exp(-np.abs(diff)))
    ll = float(np.sum(wins * log_p))
    with np.errstate(over="ignore"):  # exp(diff) = inf beyond 709 gives the limit 0
        sig_neg = 1.0 / (1.0 + np.exp(diff))  # sigmoid(-diff)
    g_matrix = wins * sig_neg
    grad = g_matrix.sum(axis=1) - g_matrix.sum(axis=0)
    return ll, grad


def fit_bt(counts: PairwiseCounts) -> FitResult:
    """Fit pairwise-model scores to a win-count matrix.

    Requires the comparison graph to be connected. A one-sided pair alone
    does not diverge when N >= 3; only a group of options that never lost to
    the rest does, and then a DivergenceWarning names it up front and the
    fit returns converged=False with the scores where the ascent stopped.
    """
    require_instance(counts, PairwiseCounts, "counts")
    _check_comparisons(counts.wins > 0)
    return _ascend(partial(_bt_value_and_grad, counts.wins), counts.wins + counts.wins.T)


def predict(fit: FitResult, i: int, j: int) -> float:
    """Fitted probability that option i is preferred over option j."""
    require_instance(fit, FitResult, "fit")
    last = len(fit.scores) - 1
    i, j = require_int(i, "i", 0, last), require_int(j, "j", 0, last)
    return bt_prob(fit.scores[i], fit.scores[j])


# ---------------------------------------------------------------------------
# Input formats
# ---------------------------------------------------------------------------


def counts_from_samples(
    samples: Sequence[PreferenceSample],
    labels: Sequence[str],
) -> PairwiseCounts:
    """Aggregate synthesized samples into a win-count matrix.

    Winners and losers are read from the answer texts by tally_outcomes,
    which also rejects unknown options and duplicate labels.
    """
    labels = [str(label) for label in require_items(labels, "labels")]
    tally = tally_outcomes(samples, labels)
    index = {label: k for k, label in enumerate(labels)}
    wins = np.zeros((len(labels), len(labels)))
    for (winner, loser), count in tally.items():
        wins[index[winner], index[loser]] = count
    return PairwiseCounts(wins)


def parse_counts_text(text: str) -> PairwiseCounts:
    """Parse 'N then N*N integers, whitespace-separated' into counts."""
    tokens = require_instance(text, str, "text").split()
    if not tokens:
        raise ValidationError("empty count-matrix text")
    try:
        n = int(tokens[0])
        values = [float(t) for t in tokens[1:]]
    except ValueError as exc:
        raise ValidationError(f"count matrix must be numeric: {exc}") from exc
    if n < 2:
        raise ValidationError(f"count matrix needs at least 2 options, got N = {n}")
    if len(values) != n * n:
        raise ValidationError(
            f"expected {n}*{n} = {n * n} matrix entries, got {len(values)}"
        )
    return PairwiseCounts(np.array(values).reshape(n, n))


def load_counts(path) -> PairwiseCounts:
    """Counts from a UTF-8 file in parse_counts_text's format."""
    with text_file(path) as fh:
        return parse_counts_text(fh.read())
