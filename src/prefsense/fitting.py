"""Maximum-likelihood score fitting from comparison data.

Pairwise win counts are fitted under the logistic pairwise model, ranking
samples under the K-tuple model; both use the same deterministic
full-batch gradient ascent with a backtracking line search. The first
option's score is pinned to 0 for identifiability. The pairwise
likelihood is computed over the N x N win matrix, the ranking likelihood
over one padded array that holds every stage of every distinct ranking.

The MLE is finite exactly when every option beats every other along some
chain of wins, so one-sided pairs inside a cycle of wins are fine. When a
group of options never lost to the rest, the MLE is at infinity: scores are
capped at |s| <= 30 and a DivergenceWarning is emitted instead of hiding
the regime. A cap of 30 corresponds to a fitted pair probability within
1e-13 of certainty.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DisconnectedDataError,
    DomainError,
    ValidationError,
    require_finite,
    require_instance,
    require_int,
    require_items,
    require_real_array,
    text_file,
)
from .models import KTuplePreference, bt_prob
from .synth import PreferenceSample, tally_outcomes

__all__ = [
    "SCORE_CAP",
    "GRADIENT_TOL",
    "MAX_ITERATIONS",
    "DivergenceWarning",
    "PairwiseCounts",
    "FitResult",
    "fit_bt",
    "fit_pl",
    "predict",
    "counts_from_samples",
    "parse_counts_text",
    "load_counts",
]

SCORE_CAP = 30.0
GRADIENT_TOL = 1e-8
MAX_ITERATIONS = 10_000


class DivergenceWarning(RuntimeWarning):
    """The MLE is at infinity for some score; results are capped."""


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


def _check_comparisons(beats: np.ndarray, what: str) -> None:
    """Refuse a disconnected comparison graph; warn if the MLE diverges.

    beats[i, j] is True when option i beat option j (or was ranked above
    it). The MLE is finite exactly when this directed graph is strongly
    connected (Ford 1957; Hunter 2004, Assumption 1): otherwise a group of
    options never lost to the rest and its scores run off to the cap.
    """
    compared, comps, left = beats | beats.T, [], np.ones(len(beats), dtype=bool)
    while left.any():
        comp = _reach(compared, int(np.argmax(left)))
        comps.append(np.flatnonzero(comp).tolist())
        left &= ~comp
    if len(comps) > 1:
        raise DisconnectedDataError(
            f"{what} does not connect all options; components: {comps}",
            components=comps,
        )
    above = _reach(beats.T, 0)  # options with a chain of wins over option 0
    unbeaten = above if not above.all() else ~_reach(beats, 0)
    if unbeaten.any():
        warnings.warn(
            f"options {np.flatnonzero(unbeaten).tolist()} never lost to the others, "
            f"so the MLE diverges; scores are capped at |s| = {SCORE_CAP:g}",
            DivergenceWarning,
            stacklevel=3,
        )


def _ascend(
    value_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    n: int,
) -> FitResult:
    """Gradient ascent with backtracking; coordinate 0 stays anchored at 0.

    The sufficient-increase constant is 1/2, which on a quadratic rejects
    any step beyond the inverse curvature and keeps the contraction rate
    geometric; looser constants accept steps near twice that and crawl.

    Near the optimum the true improvement falls below float64 resolution
    of the likelihood, so the test carries a small absolute slack; an
    acceptance that needs the slack must also not increase the gradient
    norm (the likelihood is too flat there to veto an unstable step, the
    gradient is not), and it never grows the next trial step.
    """
    s = np.zeros(n)
    ll, grad = value_and_grad(s)
    step = 1.0
    iterations = 0
    converged = False
    for iterations in range(1, MAX_ITERATIONS + 1):
        g = grad.copy()
        g[0] = 0.0
        if np.max(np.abs(g)) <= GRADIENT_TOL:
            converged = True
            iterations -= 1
            break
        trial = step
        slack = 1e-10 * (1.0 + abs(ll))
        gsq = float(np.dot(g, g))
        gnorm = math.sqrt(gsq)
        accepted = False
        resolvable = False
        for _ in range(60):
            s_new = np.clip(s + trial * g, -SCORE_CAP, SCORE_CAP)
            s_new[0] = 0.0
            ll_new, grad_new = value_and_grad(s_new)
            resolvable = ll_new - ll >= 0.5 * trial * gsq
            g_new = grad_new.copy()
            g_new[0] = 0.0
            stable = float(np.linalg.norm(g_new)) <= gnorm
            if resolvable or (stable and ll_new >= ll + 0.5 * trial * gsq - slack):
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            break
        step = min(1.0, 2.0 * trial) if resolvable else trial
        s, ll, grad = s_new, ll_new, grad_new
    g = grad.copy()
    g[0] = 0.0
    converged = converged or bool(np.max(np.abs(g)) <= GRADIENT_TOL)
    if np.any(np.abs(s) >= SCORE_CAP):
        warnings.warn(
            f"scores capped at |s| = {SCORE_CAP:g}; the unconstrained optimum "
            "diverges (dominant preferences in the data)",
            DivergenceWarning,
            stacklevel=3,
        )
    return FitResult(
        scores=tuple(float(x) for x in s),
        log_likelihood=float(ll),
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
    # No clip: _ascend keeps |s| <= SCORE_CAP, so |diff| <= 60 and exp is finite.
    sig_neg = 1.0 / (1.0 + np.exp(diff))  # sigmoid(-diff)
    g_matrix = wins * sig_neg
    grad = g_matrix.sum(axis=1) - g_matrix.sum(axis=0)
    return ll, grad


def fit_bt(counts: PairwiseCounts) -> FitResult:
    """Fit pairwise-model scores to a win-count matrix.

    Requires the comparison graph to be connected. A one-sided pair alone
    does not diverge when N >= 3; only a group of options that never lost to
    the rest does, and then a DivergenceWarning names it up front and the
    optimizer's score cap takes over.
    """
    require_instance(counts, PairwiseCounts, "counts")
    _check_comparisons(counts.wins > 0, "the pairwise comparison graph")
    return _ascend(partial(_bt_value_and_grad, counts.wins), counts.n)


def fit_pl(
    rankings: Sequence[tuple[KTuplePreference, float]],
    n_options: int,
) -> FitResult:
    """Fit K-tuple model scores to weighted ranking observations.

    rankings is a sequence of (preference, multiplicity) pairs; identical
    rankings may appear multiple times and are aggregated. With only
    2-tuples this coincides with fit_bt on the induced counts.
    """
    n = require_int(n_options, "n_options")
    if n < 2:
        raise DomainError(f"need at least 2 options, got {n}")
    weights: dict[tuple[int, ...], float] = {}
    for entry in require_items(rankings, "rankings"):
        try:
            pref, mult = entry
        except (TypeError, ValueError):
            pref = None
        if not isinstance(pref, KTuplePreference):
            raise ValidationError(f"rankings hold (KTuplePreference, multiplicity) pairs, got {entry!r}")
        m = require_finite(mult, "multiplicity")
        if m < 0:
            raise ValidationError(f"multiplicity must be non-negative, got {mult!r}")
        if m == 0:
            continue
        for idx in pref.indices:
            if not 0 <= idx < n:
                raise DomainError(f"ranking index {idx} out of range for {n} options")
        weights[pref.indices] = weights.get(pref.indices, 0.0) + m
    if not weights:
        raise ValidationError("no rankings with positive multiplicity")
    ranked = {i for idx in weights for i in idx}
    if len(ranked) < n:  # refused before the n x n graph below is allocated
        first = next(i for i in range(n) if i not in ranked)
        raise DisconnectedDataError(
            f"{n - len(ranked)} of {n} options appear in no ranking; the smallest is {first}"
        )
    # Stage k of a ranking is its suffix from place k, winner first, padded
    # with index n, which value_and_grad maps to a score of -inf.
    width = max(map(len, weights))
    pad = (n,) * width
    stages = np.array([(idx + pad)[k : k + width] for idx in weights for k in range(len(idx) - 1)])
    mult = np.repeat(list(weights.values()), [len(idx) - 1 for idx in weights])
    beats = np.zeros((n, n), dtype=bool)
    beats[stages[:, 0], stages[:, 1]] = True  # adjacent places chain to every later one
    _check_comparisons(beats, "the ranking comparison graph")

    def value_and_grad(s: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.append(s, -np.inf)[stages]
        top = x.max(axis=1)
        expd = np.exp(x - top[:, None])
        denom = expd.sum(axis=1)
        ll = float(np.dot(mult, x[:, 0] - top - np.log(denom)))
        grad = np.bincount(stages[:, 0], mult, n + 1)
        grad -= np.bincount(stages.ravel(), (expd * (mult / denom)[:, None]).ravel(), n + 1)
        return ll, grad[:n]

    return _ascend(value_and_grad, n)


def predict(fit: FitResult, i: int, j: int) -> float:
    """Fitted probability that option i is preferred over option j."""
    require_instance(fit, FitResult, "fit")
    i, j, n = require_int(i, "i"), require_int(j, "j"), len(fit.scores)
    if not (0 <= i < n and 0 <= j < n):
        raise DomainError(f"indices ({i}, {j}) out of range for {n} fitted options")
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
