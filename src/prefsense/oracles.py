"""Independent numerical oracles.

Everything here deliberately avoids the closed-form code paths it is used
to check: areas come from hit-or-miss sampling or trapezoid quadrature,
derivatives from central differences, ranking probabilities from direct
enumeration with raw exponentials, and mode structure from a grid scan.

All stochastic estimates use an explicitly seeded counter-based generator
(Philox) so every result is reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DomainError,
    EnumerationSizeError,
    require_alpha_beta,
    require_finite,
    require_int,
    require_seed,
    require_threshold,
)
from .models import ScoredOptionSet, logit_normal_density

__all__ = [
    "DEFAULT_SEED",
    "MonteCarloEstimate",
    "make_rng",
    "finite_diff",
    "mc_area_bt",
    "quad_area_pl",
    "brute_force_pl",
    "mode_count",
]

DEFAULT_SEED = 0

BOUNDARY_MARGIN = 1e-9  # perturbed evaluation points stay this far inside (0, 1)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based (Philox) generator with an explicit seed.

    Oracles are the trust anchor of the package, so their randomness must
    be reproducible across runs and platforms.
    """
    return np.random.Generator(np.random.Philox(require_seed(seed)))


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A hit-or-miss estimate with its binomial standard error."""

    value: float
    std_error: float
    n_samples: int
    seed: int


def finite_diff(
    fn: Callable[..., float],
    at: Sequence[float],
    slot: int = 0,
    h: float = 1e-6,
) -> float:
    """Central difference of fn in one probability slot of the point `at`.

    The step is shrunk if needed so both evaluation points stay at least
    BOUNDARY_MARGIN inside (0, 1); if no positive step fits, the point is
    too close to the boundary and a DomainError is raised.
    """
    point = [require_finite(v, "point coordinate") for v in at]
    slot = require_int(slot, "slot")
    if not 0 <= slot < len(point):
        raise DomainError(f"slot {slot} out of range for point of length {len(point)}")
    x = point[slot]
    h = require_finite(h, "h")
    if h <= 0.0:
        raise DomainError(f"step h must be positive, got {h!r}")
    h_eff = min(h, x - BOUNDARY_MARGIN, 1.0 - x - BOUNDARY_MARGIN)
    if h_eff <= 0.0:
        raise DomainError(
            f"cannot perturb slot {slot} at {x!r}: both points must stay inside (0, 1)"
        )
    hi = list(point)
    lo = list(point)
    hi[slot] = x + h_eff
    lo[slot] = x - h_eff
    return (fn(*hi) - fn(*lo)) / (2.0 * h_eff)


def mc_area_bt(threshold: float, n: int, seed: int = DEFAULT_SEED) -> MonteCarloEstimate:
    """Hit-or-miss area of the Bradley-Terry sensitive region.

    Samples (p_ik, p_kj) uniformly over the unit square and counts points
    where the composition derivative magnitude exceeds the threshold. The
    derivative is evaluated through its raw arithmetic form, independent
    of the region formulas being verified.
    """
    threshold = require_threshold(threshold)
    n = require_int(n, "n")
    if n < 10_000:
        raise DomainError(f"n must be at least 10^4 for a usable estimate, got {n}")
    rng = make_rng(seed)
    pts = rng.random((n, 2))
    p, q = pts[:, 0], pts[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        deriv = q * (1.0 - q) / (p + q - 2.0 * p * q - 1.0) ** 2
    hits = int(np.count_nonzero(np.abs(deriv) > threshold))
    frac = hits / n
    return MonteCarloEstimate(
        value=frac,
        std_error=math.sqrt(frac * (1.0 - frac) / n),
        n_samples=n,
        seed=int(seed),
    )


def quad_area_pl(
    threshold: float,
    alpha: float,
    beta: float,
    which: str = "uv",
    grid_n: int = 100_000,
) -> float:
    """Trapezoid quadrature of the Plackett-Luce sensitive-region area.

    Integrates the admissible interval width over the fixed coordinate's
    range (0, beta / (4 * alpha * threshold)). Direction "uv" integrates
    the interval of the swapped-pair coordinate; "vu" carries the extra
    1/alpha^2 scaling of its interval width.
    """
    threshold = require_threshold(threshold)
    alpha, beta = require_alpha_beta(alpha, beta)
    grid_n = require_int(grid_n, "grid_n")
    if grid_n < 10_000:
        raise DomainError(f"grid_n must be at least 10^4, got {grid_n}")
    if which not in ("uv", "vu"):
        raise DomainError(f"which must be 'uv' or 'vu', got {which!r}")
    upper = beta / (4.0 * alpha * threshold)
    x = np.linspace(0.0, upper, grid_n + 1)
    width = np.sqrt(np.maximum(beta * (beta - 4.0 * alpha * threshold * x), 0.0)) / threshold
    if which == "vu":
        width = width / alpha**2
    return float(np.trapezoid(width, x))


def brute_force_pl(options: ScoredOptionSet, k: int) -> dict[tuple[int, ...], float]:
    """Every K-permutation's ranking probability by direct enumeration.

    Uses raw exponentials (no overflow-safe rewriting), so it is an
    independent check of the production evaluation path. Guarded to
    K <= 6 because the output grows factorially.
    """
    k = require_int(k, "K")
    if k > 6:
        raise EnumerationSizeError(f"enumeration guard: K={k} exceeds the K <= 6 limit")
    n = len(options)
    if not 2 <= k <= n:
        raise DomainError(f"need 2 <= K <= {n}, got K={k}")
    weights = [math.exp(s) for s in options.scores]
    out: dict[tuple[int, ...], float] = {}
    for perm in itertools.permutations(range(n), k):
        prob = 1.0
        for stage in range(k - 1):
            prob *= weights[perm[stage]] / sum(weights[i] for i in perm[stage:])
        out[perm] = prob
    return out


def mode_count(sigma2: float, grid_n: int = 10_000) -> int:
    """Number of local maxima of the pair-probability density on a grid.

    Scans grid_n uniformly spaced interior points. A maximum must be
    strictly above both neighbours; runs of exactly equal values are
    merged first, so a flat-topped peak counts once and the symmetric
    two-point tie straddling 0.5 is not missed.
    """
    grid_n = require_int(grid_n, "grid_n")
    if grid_n < 10_000:
        raise DomainError(f"grid_n must be at least 10^4, got {grid_n}")
    grid = np.linspace(0.0, 1.0, grid_n + 2)[1:-1]
    dens = np.array([logit_normal_density(float(x), sigma2) for x in grid])
    # Collapse plateaus to single representatives.
    keep = np.ones(len(dens), dtype=bool)
    keep[1:] = dens[1:] != dens[:-1]
    vals = dens[keep]
    if len(vals) < 3:
        return 0
    inner = vals[1:-1]
    return int(np.count_nonzero((inner > vals[:-2]) & (inner > vals[2:])))
