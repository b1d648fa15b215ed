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
0 < beta <= 1 built from the remaining pairs, and the region area is
beta^2 / (6 alpha M^2) (or beta^2 / (6 alpha^3 M^2) for the reverse
coordinate). That area is strictly smaller than the pairwise one for any
M > 1, which is the precise sense in which longer tuples are more robust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DomainError,
    SingularityError,
    WitnessNotFoundError,
    require_alpha_beta,
    require_finite,
    require_int,
    require_probability,
    require_threshold,
)
from .links import LinkFunction
from .models import KTuplePreference, ScoredOptionSet, ratio_matrix

__all__ = [
    "BTRegionSlice",
    "PLSensitivityContext",
    "PLRegionBounds",
    "AreaComparison",
    "Witness",
    "bt_partial",
    "general_partial",
    "bt_boundary",
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

    Always positive in the open square. The denominator vanishes only in
    the corner limits (p_ik, p_kj) -> (1, 0) or (0, 1); hitting it exactly
    raises a SingularityError carrying the point, so callers can tell
    "undefined" apart from "huge but finite".
    """
    p_ik = require_probability(p_ik, "p_ik")
    p_kj = require_probability(p_kj, "p_kj")
    numer, denom = bt_partial_terms(p_ik, p_kj)
    if denom == 0.0:
        raise SingularityError(
            f"composition derivative undefined at ({p_ik!r}, {p_kj!r})",
            point=(p_ik, p_kj),
        )
    return numer / denom


def general_partial(link: LinkFunction, p_ik: float, p_kj: float) -> float:
    """Composition derivative under an arbitrary link.

    Chain rule through the score domain:
    g'(g_inv(p_ik) + g_inv(p_kj)) / g'(g_inv(p_ik)). Reduces to bt_partial
    for the logistic link.
    """
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
    every slice, including empty ones, for continuity of plotting.
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


def _bt_boundary_raw(threshold: float, p_kj: float) -> float:
    inv = 1.0 / p_kj
    return 1.0 - (math.sqrt((inv - 1.0) / threshold) - 1.0) / (inv - 2.0)


def bt_boundary(threshold: float, p_kj: float) -> float:
    """p_ik value where the composition derivative magnitude equals the threshold.

    The raw expression is singular at p_kj = 0.5 (which lies strictly
    between the two region cases for any threshold > 1); there the
    two-sided average of nearby evaluations is returned so plotted
    boundaries stay continuous.
    """
    threshold = require_threshold(threshold)
    p_kj = require_probability(p_kj, "p_kj")
    if abs(1.0 / p_kj - 2.0) < 1e-6:
        lo = _bt_boundary_raw(threshold, p_kj - 1e-7)
        hi = _bt_boundary_raw(threshold, p_kj + 1e-7)
        return 0.5 * (lo + hi)
    return _bt_boundary_raw(threshold, p_kj)


def bt_region_slice(threshold: float, p_kj: float) -> BTRegionSlice:
    """Classify a p_kj slice and return its sensitive p_ik interval."""
    threshold = require_threshold(threshold)
    p_kj = require_probability(p_kj, "p_kj")
    boundary = bt_boundary(threshold, p_kj)
    if p_kj < 1.0 / (1.0 + threshold):
        return BTRegionSlice(threshold, p_kj, "case1", boundary, (boundary, 1.0))
    if p_kj > threshold / (1.0 + threshold):
        return BTRegionSlice(threshold, p_kj, "case2", boundary, (0.0, boundary))
    return BTRegionSlice(threshold, p_kj, "empty", boundary, None)


def bt_region_area(threshold: float) -> float:
    """Exact area of the Bradley-Terry sensitive region for threshold > 1.

    Strictly decreasing in the threshold, with limit ln(2)/2 as the
    threshold approaches 1 from above.
    """
    threshold = require_threshold(threshold)
    root = math.sqrt(threshold)
    return 0.5 * math.log((threshold - 1.0) / (threshold + 1.0)) + (
        1.0 / (2.0 * root)
    ) * math.log((root + 1.0) / (root - 1.0))


# ---------------------------------------------------------------------------
# Plackett-Luce context, derivatives, regions, areas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PLSensitivityContext:
    """Constants (alpha, beta) for one suffix-swap pair of a K-tuple.

    alpha is 1 plus the ratio mass of the other options competing at the
    pair's stage; beta is the product of all other stage factors. For
    K = 2 both are exactly 1; alpha also degenerates to 1 when the pair
    occupies the last two positions, since nothing else competes there.
    """

    k: int
    u: int
    v: int
    alpha: float
    beta: float

    def __post_init__(self):
        k, u, v = (require_int(getattr(self, n), n) for n in ("k", "u", "v"))
        if k < 2:
            raise DomainError(f"K must be at least 2, got {k}")
        if not 0 <= u < v < k:
            raise DomainError(f"need 0 <= u < v < K, got u={u}, v={v}, K={k}")
        alpha, beta = require_alpha_beta(self.alpha, self.beta)
        for name, value in (("k", k), ("u", u), ("v", v), ("alpha", alpha), ("beta", beta)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_alpha_beta(cls, alpha: float, beta: float, k: int = 3) -> "PLSensitivityContext":
        """Synthetic context with explicit constants (for sweeps and plots)."""
        return cls(k=k, u=0, v=1, alpha=alpha, beta=beta)


def pl_context(
    options: ScoredOptionSet,
    omega: KTuplePreference,
    u: int,
    v: int,
) -> PLSensitivityContext:
    """Build the (alpha, beta) context for positions u < v of a ranking."""
    omega.validate_for(options)
    k, u, v = len(omega), require_int(u, "u"), require_int(v, "v")
    if not 0 <= u < v < k:
        raise DomainError(f"need 0 <= u < v < K={k}, got u={u}, v={v}")
    ratios = ratio_matrix(options, omega)
    alpha = 1.0 + float(sum(ratios[u, t] for t in range(u + 1, k) if t != v))
    beta = 1.0
    for stage in range(k - 1):
        if stage == u:
            continue
        beta /= 1.0 + float(np.sum(ratios[stage, stage + 1 :]))
    return PLSensitivityContext(k=k, u=u, v=v, alpha=alpha, beta=beta)


def pl_partial_terms(p_uv, p_vu, alpha, beta, which: str):
    """(numerator, denominator) of |d p / d p_uv| ("uv") or |d p / d p_vu| ("vu").

    For floats or arrays, unvalidated; both share (alpha p_uv + p_vu)^2.
    """
    d = alpha * p_uv + p_vu
    return beta * (p_vu if which == "uv" else p_uv), d * d


def pl_partials(p_uv: float, p_vu: float, ctx: PLSensitivityContext) -> tuple[float, float]:
    """Ranking-probability derivatives w.r.t. the two swap probabilities.

    Returns (d/d p_uv, d/d p_vu); the first is positive and the second
    negative, with magnitudes in the ratio p_vu : p_uv.
    """
    p_uv = require_probability(p_uv, "p_uv")
    p_vu = require_probability(p_vu, "p_vu")
    numer_uv, denom = pl_partial_terms(p_uv, p_vu, ctx.alpha, ctx.beta, "uv")
    if denom == 0.0:
        raise SingularityError(
            f"ranking derivative undefined at ({p_uv!r}, {p_vu!r})",
            point=(p_uv, p_vu),
        )
    numer_vu, _ = pl_partial_terms(p_uv, p_vu, ctx.alpha, ctx.beta, "vu")
    return numer_uv / denom, -numer_vu / denom


@dataclass(frozen=True)
class PLRegionBounds:
    """Admissible interval of the free coordinate at a fixed swap probability.

    The interval (center - half_width, center + half_width) is nonempty
    exactly when the fixed coordinate stays below beta / (4 alpha M).
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


def pl_region(
    threshold: float,
    ctx: PLSensitivityContext,
    fixed: float,
    which: str,
) -> PLRegionBounds:
    """Sensitive interval of the free swap probability at a fixed one.

    which="uv" fixes p_uv and bounds p_vu (forward derivative); which="vu"
    fixes p_vu and bounds p_uv (reverse derivative).
    """
    threshold = require_threshold(threshold)
    fixed = require_probability(fixed, "fixed coordinate")
    if which not in ("uv", "vu"):
        raise DomainError(f"which must be 'uv' or 'vu', got {which!r}")
    scale = threshold if which == "uv" else ctx.alpha**2 * threshold
    disc = ctx.beta * (ctx.beta - 4.0 * ctx.alpha * threshold * fixed)
    if disc <= 0.0:
        return PLRegionBounds(threshold, which, fixed, math.nan, 0.0, None)
    center = (ctx.beta - 2.0 * ctx.alpha * threshold * fixed) / (2.0 * scale)
    half = math.sqrt(disc) / (2.0 * scale)
    return PLRegionBounds(threshold, which, fixed, center, half, (center - half, center + half))


def pl_region_area(threshold: float, ctx: PLSensitivityContext, which: str = "uv") -> float:
    """Exact sensitive-region area for a K-tuple swap pair.

    beta^2 / (6 alpha M^2) for the forward coordinate and
    beta^2 / (6 alpha^3 M^2) for the reverse one. The 1/M^2 scaling is the
    one confirmed by the quadrature oracle; a candidate 1/M variant
    disagrees with quadrature by far more than the verification tolerance
    for every threshold of 2 or more.
    """
    threshold = require_threshold(threshold)
    # threshold * threshold rounds like threshold**2 but gives inf, and so
    # an area of 0.0, where ** raises OverflowError (threshold above 1.3e154).
    m2 = threshold * threshold
    if which == "uv":
        return ctx.beta**2 / (6.0 * ctx.alpha * m2)
    if which == "vu":
        return ctx.beta**2 / (6.0 * ctx.alpha**3 * m2)
    raise DomainError(f"which must be 'uv' or 'vu', got {which!r}")


class AreaComparison(NamedTuple):
    """Pairwise versus K-tuple sensitive-region areas at one threshold."""

    bt_area: float
    pl_area: float
    holds: bool


def compare_bt_pl_areas(threshold: float, ctx: PLSensitivityContext) -> AreaComparison:
    """Check that the K-tuple region is smaller than the pairwise one.

    Requires a context from K > 2 (for K = 2 the two models coincide and
    the comparison is vacuous). The pairwise area also dominates the
    universal lower bound 1 / (6 M^2), which is what makes the inequality
    hold for every admissible (alpha, beta).
    """
    threshold = require_threshold(threshold)
    if ctx.k <= 2:
        raise DomainError("comparison requires a K-tuple context with K > 2")
    bt = bt_region_area(threshold)
    pl = pl_region_area(threshold, ctx, "uv")
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
    threshold, then pairs it with the matched p_kj. 200 halvings reach
    machine-precision neighbourhoods of 1; running out means float64 is
    exhausted, not that no witness exists.
    """
    threshold = require_finite(threshold, "threshold")
    if threshold <= 0.0:
        raise DomainError(f"threshold must be positive, got {threshold!r}")
    delta = require_finite(delta, "delta")
    slope = link.derivative(delta)
    if delta <= 0.0 or slope <= 0.0:
        raise DomainError(f"delta must be positive with positive link slope, got {delta!r}")
    target = slope / threshold
    p_ik = 0.9
    for _ in range(200):
        if p_ik > 1.0 - 1e-12:
            break
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
        f"no float64-representable witness found for threshold {threshold!r} "
        f"with delta {delta!r}; the scan reached p_ik = {p_ik!r}"
    )
