"""Bradley-Terry and K-tuple Plackett-Luce probability computation.

The central identity: under any pairwise link g, the probability of one
pair is determined by two overlapping pairs,

    p_ij = g(g_inv(p_ik) + g_inv(p_kj)),

which for the logistic link reduces to the closed form

    p_ij = 1 / (1 + (1 - p_ik)(1 - p_kj) / (p_ik * p_kj)).

A K-tuple ranking probability is the product of stage-wise softmax
factors, and can equivalently be written in terms of suffix-swap
probability ratios, which is the form the sensitivity analysis
differentiates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    ValidationError,
    require_finite,
    require_instance,
    require_int,
    require_items,
    require_probability,
    require_real_array,
)
from .links import LOGISTIC, LinkFunction, _warn_if_saturated

__all__ = [
    "ScoredOptionSet",
    "KTuplePreference",
    "bt_prob",
    "compose_pairwise",
    "bt_compose",
    "pl_prob",
    "ratio_matrix",
    "pl_prob_from_ratios",
    "logit_normal_density",
]

RECIPROCAL_TOL = 1e-9


@dataclass(frozen=True)
class ScoredOptionSet:
    """N labelled options with real-valued strength scores."""

    labels: tuple[str, ...]
    scores: tuple[float, ...]

    def __init__(self, labels: Sequence[str], scores: Sequence[float]):
        labels = tuple(str(l) for l in require_items(labels, "labels"))
        scores = tuple(
            require_finite(s, f"scores[{i}]")
            for i, s in enumerate(require_items(scores, "scores"))
        )
        if len(labels) != len(scores):
            raise ValidationError(
                f"{len(labels)} labels but {len(scores)} scores"
            )
        if len(labels) < 2:
            raise ValidationError("an option set needs at least 2 options")
        if len(set(labels)) != len(labels):
            raise ValidationError(f"labels must be unique, got {labels}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class KTuplePreference:
    """An ordered ranking of K distinct option indices (most preferred first)."""

    indices: tuple[int, ...]

    def __init__(self, indices: Sequence[int]):
        idx = tuple(require_int(i, "ranking index") for i in require_items(indices, "indices"))
        if len(idx) < 2:
            raise ValidationError("a preference ranks at least 2 options")
        if len(set(idx)) != len(idx):
            raise ValidationError(f"ranking indices must be distinct, got {idx}")
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)

    def validate_for(self, options: ScoredOptionSet) -> None:
        n = len(options)
        if len(self.indices) > n:
            raise DomainError(f"ranking of {len(self.indices)} options from a set of {n}")
        for i in self.indices:
            if not 0 <= i < n:
                raise DomainError(f"index {i} out of range for {n} options")


def bt_prob(s_i: float, s_j: float) -> float:
    """Bradley-Terry win probability of option i over option j."""
    s_i = require_finite(s_i, "s_i")
    s_j = require_finite(s_j, "s_j")
    return LOGISTIC.evaluate(s_i - s_j)


def compose_pairwise(link: LinkFunction, p_ik: float, p_kj: float) -> float:
    """Probability of (i, j) implied by (i, k) and (k, j) under a link.

    Symmetric in its two arguments; for the logistic link it agrees with
    bt_compose to floating-point accuracy.
    """
    require_instance(link, LinkFunction, "link")
    p_ik = require_probability(p_ik, "p_ik")
    p_kj = require_probability(p_kj, "p_kj")
    return link.evaluate(link.inverse(p_ik) + link.inverse(p_kj))


def bt_compose(p_ik, p_kj):
    """Closed-form Bradley-Terry composition of two pair probabilities.

    Floats give a float; numpy arrays, broadcast together, give an array.
    """
    p_ik = require_probability(p_ik, "p_ik")
    p_kj = require_probability(p_kj, "p_kj")
    odds = (1.0 - p_ik) * (1.0 - p_kj) / (p_ik * p_kj)
    return _warn_if_saturated(1.0 / (1.0 + odds))


def _stage_denominators(r):
    """Plackett-Luce stage denominators of a (..., K, K) ratio stack.

    Stage u's factor is 1 / (1 + sum_{t>u} r[..., u, t]); the list holds
    those denominators for u = 0 .. K-2, in stage order.
    """
    return [1.0 + np.sum(r[..., u, u + 1 :], axis=-1) for u in range(r.shape[-1] - 1)]


def pl_prob(omega: KTuplePreference, options: ScoredOptionSet) -> float:
    """Plackett-Luce probability of a K-tuple ranking.

    The product over stages u of 1 / (1 + sum_{t>u} r[u, t]), with r the
    ranking's ratio_matrix. A ratio that overflows to inf gives its stage
    a factor of 0, which is the limit. For K = 2 this reduces to bt_prob
    of the two scores.
    """
    with np.errstate(over="ignore"):
        r = ratio_matrix(options, omega)
    prob = 1.0
    for denom in _stage_denominators(r):
        prob /= float(denom)
    return _warn_if_saturated(prob)


def ratio_matrix(options: ScoredOptionSet, omega: KTuplePreference) -> np.ndarray:
    """K x K matrix of suffix-swap ratios between the entries of a ranking.

    Entry [a, b] is exp(s_omega[b] - s_omega[a]): a ranking ending
    (..., b, a) over the same ranking ending (..., a, b), for any K and
    prefix. The diagonal is 1.
    """
    require_instance(options, ScoredOptionSet, "options")
    require_instance(omega, KTuplePreference, "omega").validate_for(options)
    s = np.array([options.scores[i] for i in omega.indices], dtype=float)
    return np.exp(s[None, :] - s[:, None])


def pl_prob_from_ratios(ratios):
    """Ranking probability from a suffix-swap ratio matrix, or from a stack of them.

    Each K x K matrix must be elementwise positive with ratios[a, b] *
    ratios[b, a] = 1 (tolerance 1e-9); the diagonal is ignored. When the
    matrix comes from a score vector this reproduces pl_prob, but the
    formula is also the differentiation vehicle for sensitivity analysis,
    where one pair's ratio is perturbed away from any score-consistent
    value. One matrix gives a float; a (..., K, K) stack gives an array of
    shape (...), each entry equal to the call on its own matrix.
    """
    r = require_real_array(ratios, "ratios")
    if r.ndim < 2 or r.shape[-1] != r.shape[-2] or r.shape[-1] < 2:
        raise ValidationError(f"ratio matrix must be square with K >= 2, got shape {r.shape}")
    k = r.shape[-1]
    off = ~np.eye(k, dtype=bool)
    if not np.all(np.isfinite(r[..., off])) or np.any(r[..., off] <= 0.0):
        raise ValidationError("off-diagonal ratios must be finite and positive")
    recip = r * np.swapaxes(r, -1, -2)
    bad = off & (np.abs(recip - 1.0) > RECIPROCAL_TOL)
    if np.any(bad):
        *at, a, b = map(int, np.argwhere(bad)[0])
        entry = lambda x, y: "ratios[" + ",".join(map(str, (*at, x, y))) + "]"
        raise ValidationError(
            f"{entry(a, b)} * {entry(b, a)} = {recip[(*at, a, b)]!r}, expected 1 "
            f"within {RECIPROCAL_TOL}"
        )
    prob = np.ones(r.shape[:-2])
    for denom in _stage_denominators(r):
        prob /= denom
    return _warn_if_saturated(float(prob) if prob.ndim == 0 else prob)


def logit_normal_density(x, sigma2: float):
    """Density at x of the logistic transform of N(0, 2 * sigma2).

    This is the distribution of a Bradley-Terry pair probability when the
    two scores are independent N(0, sigma2) draws. Unimodal at 0.5 for
    sigma2 <= 1; for sigma2 > 1 it is bimodal, with modes migrating toward
    0 and 1 as sigma2 grows. x may be a float, giving a float, or an array
    of points strictly inside (0, 1), giving an array of densities.
    """
    xs = require_probability(require_real_array(x, "x"), "x")
    sigma2 = require_finite(sigma2, "sigma2")
    if sigma2 <= 0.0:
        raise DomainError(f"sigma2 must be positive, got {sigma2!r}")
    var = 2.0 * sigma2
    t = np.log(xs / (1.0 - xs))
    with np.errstate(over="ignore"):
        dens = np.exp(-t * t / (2.0 * var)) / math.sqrt(2.0 * math.pi * var) / (xs * (1.0 - xs))
    return float(dens) if dens.ndim == 0 else dens
