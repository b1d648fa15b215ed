"""Closed-form sensitivity analysis of pairwise and K-tuple rankings.

The quantity of interest is the partial derivative of one preference
probability with respect to another. A probability is called sensitive at
threshold M when that derivative magnitude exceeds M; the sensitive region
is where this happens, and its area measures how exposed a model is to
small perturbations of the probabilities it was fitted to.

For the Bradley-Terry composition p_ij(p_ik, p_kj) the derivative is

    d p_ij / d p_ik = p_kj (1 - p_kj) / (p_ik + p_kj - 2 p_ik p_kj - 1)^2,

and for threshold M > 1 the sensitive region splits into two symmetric
lobes, one for p_kj below 1/(1+M) and one above M/(1+M), with an explicit
boundary in p_ik. Its total area is

    A(M) = ln((M-1)/(M+1)) / 2 + ln((sqrt(M)+1)/(sqrt(M)-1)) / (2 sqrt(M)).

For a K-tuple ranking the derivative with respect to a suffix-swap pair
probability has the same structure up to constants alpha >= 1 and
0 < beta <= 1 built from the remaining pairs (pl_context computes them for
a ranking, and every PL function takes them as two floats), and the region
area is beta^2 / (6 alpha M^2) (or beta^2 / (6 alpha^3 M^2) for the reverse
coordinate). That area is strictly smaller than the pairwise one for any
M > 1, which is the precise sense in which longer tuples are more robust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DomainError,
    SingularityError,
    WitnessNotFoundError,
    require_alpha_beta,
    require_choice,
    require_finite,
    require_instance,
    require_int,
    require_probabilities,
    require_probability,
    require_scores,
    require_threshold,
)
from .links import LinkFunction
from .models import _stage_denominators, ratio_matrix

__all__ = [
    "BTRegionSlice",
    "PLRegionBounds",
    "AreaComparison",
    "Witness",
    "bt_partial",
    "general_partial",
    "bt_region_slice",
    "bt_region_area",
    "pl_context",
    "pl_partials",
    "pl_region",
    "pl_region_area",
    "compare_bt_pl_areas",
    "sensitivity_witness",
]


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------


def bt_partial_terms(p_ik, p_kj):
    """(numerator, denominator) of d p_ij / d p_ik, for floats or arrays.

    Unvalidated; d p_ij / d p_kj is bt_partial_terms(p_kj, p_ik).
    """
    base = p_ik + p_kj - 2.0 * p_ik * p_kj - 1.0
    return p_kj * (1.0 - p_kj), base * base


def bt_partial(p_ik: float, p_kj: float) -> float:
    """Derivative of the composed Bradley-Terry probability w.r.t. p_ik.

    Finite and positive in the open square; the denominator vanishes only
    in the corner limits (p_ik, p_kj) -> (1, 0) or (0, 1).
    """
    p_ik = require_probabilities(p_ik, "p_ik")
    p_kj = require_probabilities(p_kj, "p_kj")
    numer, denom = bt_partial_terms(p_ik, p_kj)
    # denom is never 0. It is base^2, where base is exactly
    # -((1-p)(1-q) + pq) < 0 but is computed as fl(p + q - 2pq) - 1. A float
    # other than 1 differs from 1 by at least 2^-53, and subtracting 1 from
    # a float near 1 is exact (Sterbenz), so |base| is 0 or at least 2^-53
    # and denom >= 2^-106. base = 0 needs p + q - 2pq to round to 1, so
    # fl(p + q) >= 1. There the exact gap to 1, (1-p)(1-q) + pq, exceeds
    # 2^-54 (half the spacing below 1) plus the rounding errors of p + q and
    # 2pq (2^-53 + 2^-52 pq), except at p = 1 - 2^-53 with q in
    # [2^-54, 2^-54 + 2^-105], or mirrored, where the sum rounds to
    # 1 - 2^-53 (pinned by a test).
    return numer / denom


def general_partial(link: LinkFunction, p_ik: float, p_kj: float) -> float:
    """Composition derivative under an arbitrary link.

    Chain rule through the score domain:
    g'(g_inv(p_ik) + g_inv(p_kj)) / g'(g_inv(p_ik)). Reduces to bt_partial
    for the logistic link.
    """
    require_instance(link, LinkFunction, "link")
    p_ik = require_probability(p_ik, "p_ik")
    p_kj = require_probability(p_kj, "p_kj")
    x_ik = link.inverse(p_ik)
    inner = link.derivative(x_ik)
    if inner <= 0.0:
        raise SingularityError(
            f"link derivative vanished at the inverse of p_ik={p_ik!r}",
            point=(p_ik, p_kj),
        )
    return link.derivative(x_ik + link.inverse(p_kj)) / inner


# ---------------------------------------------------------------------------
# Bradley-Terry region and area
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BTRegionSlice:
    """One p_kj slice of the Bradley-Terry sensitive region.

    case is "case1" (p_kj below 1/(1+threshold), sensitive for p_ik above
    the boundary), "case2" (p_kj above threshold/(1+threshold), sensitive
    below the boundary), or "empty". The boundary value is reported for
    every slice, including empty ones. On an empty slice the closed form
    lies outside [0, 1] (+inf at p_kj = 1/2) and is clamped to it.
    """

    threshold: float
    p_kj: float
    case: str
    boundary: float
    interval: tuple[float, float] | None

    def contains(self, p_ik: float) -> bool:
        if self.interval is None:
            return False
        lo, hi = self.interval
        return lo < p_ik < hi


def bt_region_terms(threshold, p_kj):
    """(lo, hi, boundary) of the sensitive p_ik interval at p_kj, for floats or arrays.

    Unvalidated. lo and hi are NaN where the slice is empty, and an empty
    slice's boundary is clamped to [0, 1].
    """
    p_kj = np.asarray(p_kj, dtype=float)
    # 1 - (sqrt(a) - 1) / (1/p_kj - 2) with a = (1 - p_kj) / (threshold p_kj),
    # and sqrt(a) - 1 written as (a - 1) / (sqrt(a) + 1) so that nothing
    # cancels. It is 1 where a overflows and +inf at the pole p_kj = 1/2.
    with np.errstate(all="ignore"):
        a = (1.0 - p_kj) / (threshold * p_kj)
        gap = 1.0 - 2.0 * p_kj
        boundary = 1.0 - (gap - p_kj * (threshold - 1.0)) / (threshold * (np.sqrt(a) + 1.0) * gap)
    case1 = p_kj < 1.0 / (1.0 + threshold)
    case2 = p_kj > threshold / (1.0 + threshold)
    lo = np.where(case1, boundary, np.where(case2, 0.0, np.nan))
    hi = np.where(case1, 1.0, np.where(case2, boundary, np.nan))
    return lo, hi, np.where(case1 | case2, boundary, np.clip(boundary, 0.0, 1.0))


def bt_region_slice(threshold: float, p_kj: float) -> BTRegionSlice:
    """Classify a p_kj slice and return its sensitive p_ik interval."""
    threshold = require_threshold(threshold)
    p_kj = require_probability(p_kj, "p_kj")
    lo, hi, boundary = map(float, bt_region_terms(threshold, p_kj))
    if math.isnan(hi):
        return BTRegionSlice(threshold, p_kj, "empty", boundary, None)
    case = "case1" if p_kj < 1.0 / (1.0 + threshold) else "case2"
    return BTRegionSlice(threshold, p_kj, case, boundary, (lo, hi))


# c_m = 1/(2m - 1) - [m odd]/m for m = 24, ..., 2: bt_region_area's series, for Horner's rule.
_BT_AREA_SERIES = tuple(1.0 / (2 * m - 1) - (m % 2) / m for m in range(24, 1, -1))


def bt_region_area(threshold: float) -> float:
    """Exact area of the Bradley-Terry sensitive region for threshold > 1.

    Strictly decreasing in the threshold, with limit ln(2)/2 as the
    threshold approaches 1 from above. Within about 1.4e-14 relative of the
    exact value wherever that is a normal float64; it falls to about
    1/(3 M^2), which underflows to 0.0 above M ~ 1e162.
    """
    threshold = require_threshold(threshold)
    if threshold >= 8.0:
        # x atanh(x) - atanh(x^2) with x = 1/sqrt(M), as one series in 1/M.
        y, series = 1.0 / threshold, 0.0
        for c in _BT_AREA_SERIES:
            series = series * y + c
        return series * y * y
    # (sqrt(M) + 1) / (sqrt(M) - 1) = (sqrt(M) + 1)^2 / (M - 1) cancels nothing.
    d, root = threshold - 1.0, math.sqrt(threshold)
    return 0.5 * math.log(d / (threshold + 1.0)) + math.log((root + 1.0) ** 2 / d) / (2.0 * root)


# ---------------------------------------------------------------------------
# Plackett-Luce constants, derivatives, regions, areas
# ---------------------------------------------------------------------------


def pl_context(scores: Sequence[float], u: int, v: int) -> tuple[float, float]:
    """The constants (alpha, beta) for ranking positions u < v, given the
    ranked options' scores, most preferred first.

    alpha is 1 plus the ratio mass of the other options competing at
    stage u; beta is the product of all other stage factors. For K = 2
    both are exactly 1; alpha also degenerates to 1 when the pair occupies
    the last two positions, since nothing else competes there.

    Raises DomainError when a later-ranked option outscores an earlier one
    by more than about 709, where its ratio overflows float64, or when
    alpha overflows or beta underflows.
    """
    scores = require_scores(scores, "scores")
    k = len(scores)
    u = require_int(u, "u", 0, k - 2)
    v = require_int(v, "v", u + 1, k - 1)
    # Only the entries above the diagonal are read, so an overflow below it
    # (an earlier-ranked option far ahead) is harmless. One above it, or an
    # alpha or beta out of range, is refused below.
    with np.errstate(over="ignore"):
        ratios = ratio_matrix(scores)
        alpha = 1.0 + float(sum(ratios[u, t] for t in range(u + 1, k) if t != v))
        beta = 1.0
        for stage, denom in enumerate(_stage_denominators(ratios)):
            if stage != u:
                beta /= float(denom)
    overflow = np.argwhere(np.triu(np.isinf(ratios)))
    if len(overflow):
        a, b = overflow[0].tolist()
        gap = scores[b] - scores[a]
        raise DomainError(
            f"the scores at ranking positions {a} and {b} differ by {gap:g}; "
            f"their ratio exp({gap:g}) overflows float64"
        )
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not 0.0 < value < math.inf:
            raise DomainError(
                f"the scores are too far apart for ranking positions {u} and {v}: "
                f"their {name} is {value:g} in float64, not finite and positive"
            )
    return alpha, beta


def pl_partial_terms(p_uv, p_vu, alpha, beta, which: str):
    """(numerator, denominator) of |d p / d p_uv| ("uv") or |d p / d p_vu| ("vu").

    For floats or arrays, unvalidated; both share (alpha p_uv + p_vu)^2.
    """
    d = alpha * p_uv + p_vu
    # Where d * d overflows, inf is the limit: the derivative is 0.
    with np.errstate(over="ignore"):
        return beta * (p_vu if which == "uv" else p_uv), d * d


def pl_partials(p_uv: float, p_vu: float, alpha: float, beta: float) -> tuple[float, float]:
    """Ranking-probability derivatives w.r.t. the two swap probabilities.

    Returns (d/d p_uv, d/d p_vu); the first is positive and the second
    negative, with magnitudes in the ratio p_vu : p_uv.
    """
    p_uv = require_probability(p_uv, "p_uv")
    p_vu = require_probability(p_vu, "p_vu")
    alpha, beta = require_alpha_beta(alpha, beta)
    numer_uv, denom = pl_partial_terms(p_uv, p_vu, alpha, beta, "uv")
    if denom == 0.0:
        raise SingularityError(
            f"ranking derivative undefined at ({p_uv!r}, {p_vu!r})",
            point=(p_uv, p_vu),
        )
    numer_vu, _ = pl_partial_terms(p_uv, p_vu, alpha, beta, "vu")
    return numer_uv / denom, -numer_vu / denom


@dataclass(frozen=True)
class PLRegionBounds:
    """Admissible interval of the free coordinate at a fixed swap probability.

    The interval (center - half_width, center + half_width) is nonempty
    exactly when the fixed coordinate stays below beta / (4 alpha M) and
    its bounds, rounded to float64, differ.
    """

    threshold: float
    which: str
    fixed: float
    center: float
    half_width: float
    interval: tuple[float, float] | None

    @property
    def empty(self) -> bool:
        return self.interval is None

    def contains(self, value: float) -> bool:
        if self.interval is None:
            return False
        lo, hi = self.interval
        return lo < value < hi


def pl_region_terms(threshold, alpha, beta, fixed, which: str):
    """(lo, hi, center, half_width) of the sensitive free coordinate, for floats or arrays.

    Unvalidated; fixed is p_uv for which="uv" and p_vu for "vu". Where the
    interval is empty, lo, hi and center are NaN and half_width is 0.
    """
    fixed = np.asarray(fixed, dtype=float)
    scale = threshold if which == "uv" else alpha * alpha * threshold
    disc = beta * (beta - 4.0 * alpha * threshold * fixed)
    with np.errstate(all="ignore"):
        center = (beta - 2.0 * alpha * threshold * fixed) / (2.0 * scale)
        half = np.sqrt(np.maximum(disc, 0.0)) / (2.0 * scale)
        # Empty where the rounded bounds coincide: disc <= 0 gives half = 0,
        # and an overflowing alpha * alpha * threshold, or an interval below
        # the smallest subnormal, rounds both bounds to 0.
        empty = ~(center - half < center + half)
    # Empty entries are overwritten, whatever their arithmetic gave.
    center = np.where(empty, np.nan, center)
    half = np.where(empty, 0.0, half)
    return center - half, center + half, center, half


def pl_region(threshold: float, alpha: float, beta: float, fixed: float, which: str) -> PLRegionBounds:
    """Sensitive interval of the free swap probability at a fixed one.

    which="uv" fixes p_uv and bounds p_vu (forward derivative); which="vu"
    fixes p_vu and bounds p_uv (reverse derivative).
    """
    threshold = require_threshold(threshold)
    alpha, beta = require_alpha_beta(alpha, beta)
    fixed = require_probability(fixed, "fixed coordinate")
    require_choice(which, ("uv", "vu"), "which")
    lo, hi, center, half = map(float, pl_region_terms(threshold, alpha, beta, fixed, which))
    interval = None if math.isnan(lo) else (lo, hi)
    return PLRegionBounds(threshold, which, fixed, center, half, interval)


def pl_region_area(threshold: float, alpha: float, beta: float, which: str = "uv") -> float:
    """Exact sensitive-region area for a K-tuple swap pair.

    beta^2 / (6 alpha M^2) for the forward coordinate and
    beta^2 / (6 alpha^3 M^2) for the reverse one. The 1/M^2 scaling is the
    one confirmed by the quadrature oracle; a candidate 1/M variant
    disagrees with quadrature by far more than the verification tolerance
    for every threshold of 2 or more.
    """
    threshold = require_threshold(threshold)
    alpha, beta = require_alpha_beta(alpha, beta)
    # A product gives inf, and so an area of 0.0, where ** raises
    # OverflowError (threshold above 1.3e154, or alpha above 5.6e102).
    m2 = threshold * threshold
    if require_choice(which, ("uv", "vu"), "which") == "uv":
        return beta**2 / (6.0 * alpha * m2)
    return beta**2 / (6.0 * alpha * alpha * alpha * m2)


class AreaComparison(NamedTuple):
    """Pairwise versus K-tuple sensitive-region areas at one threshold."""

    bt_area: float
    pl_area: float
    holds: bool


def compare_bt_pl_areas(threshold: float, alpha: float, beta: float) -> AreaComparison:
    """Check that the K-tuple region is smaller than the pairwise one.

    The K-tuple area beta^2 / (6 alpha M^2) is at most 1 / (6 M^2), its
    value at alpha = beta = 1 (the pair of a 2-tuple), and the pairwise
    area exceeds 1 / (6 M^2): so the inequality holds for every admissible
    (alpha, beta).
    """
    bt = bt_region_area(threshold)
    pl = pl_region_area(threshold, alpha, beta, "uv")
    return AreaComparison(bt_area=bt, pl_area=pl, holds=bt > pl)


# ---------------------------------------------------------------------------
# Constructive witness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A concrete point where the composition derivative exceeds a target.

    p_kj is tied to p_ik by p_kj = g(g_inv(1 - p_ik) + delta), which pins
    the outer derivative factor at g'(delta) while the inner factor
    1 / g'(g_inv(p_ik)) grows without bound as p_ik approaches 1.
    """

    threshold: float
    delta: float
    p_ik: float
    p_kj: float
    derivative: float


def sensitivity_witness(
    link: LinkFunction,
    threshold: float,
    delta: float = 1.0,
) -> Witness:
    """Construct a point whose composition derivative exceeds any threshold.

    Scans p_ik toward 1 on a halving schedule (0.9, 0.95, 0.975, ...)
    until the link derivative at its inverse drops below g'(delta) /
    threshold, then pairs it with the matched p_kj. The scan stops once
    p_ik > 1 - 1e-12, after 37 halvings; running out means that cutoff was
    reached, not that no witness exists.
    """
    require_instance(link, LinkFunction, "link")
    threshold = require_finite(threshold, "threshold")
    if threshold <= 0.0:
        raise DomainError(f"threshold must be positive, got {threshold!r}")
    delta = require_finite(delta, "delta")
    slope = link.derivative(delta)
    if delta <= 0.0 or slope <= 0.0:
        raise DomainError(f"delta must be positive with positive link slope, got {delta!r}")
    target = slope / threshold
    p_ik = 0.9
    while p_ik <= 1.0 - 1e-12:
        if link.derivative(link.inverse(p_ik)) < target:
            p_kj = link.evaluate(link.inverse(1.0 - p_ik) + delta)
            if 0.0 < p_kj < 1.0:
                deriv = general_partial(link, p_ik, p_kj)
                if deriv > threshold:
                    return Witness(
                        threshold=threshold,
                        delta=delta,
                        p_ik=p_ik,
                        p_kj=p_kj,
                        derivative=deriv,
                    )
        p_ik = 1.0 - (1.0 - p_ik) / 2.0
    raise WitnessNotFoundError(
        f"no witness found for threshold {threshold!r} with delta {delta!r} "
        f"before the scan's cutoff p_ik > 1 - 1e-12; it stopped at p_ik = {p_ik!r}"
    )
