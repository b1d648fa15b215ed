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
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import (
    DomainError,
    EnumerationSizeError,
    require_alpha_beta,
    require_choice,
    require_finite,
    require_finites,
    require_instance,
    require_int,
    require_items,
    require_seed,
    require_threshold,
)
from .models import ScoredOptionSet, logit_normal_density

__all__ = [
    "DEFAULT_SEED",
    "MAX_MC_SAMPLES",
    "MAX_GRID_N",
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

# mc_area_bt draws its points in blocks of this many rows, so it peaks at
# about 4 MiB whatever n is. Philox gives the same doubles in (b, 2)
# blocks as in one (n, 2) draw, so the estimate does not depend on the
# block size.
_BLOCK = 2**16

# Upper caps, refused before the first draw or allocation. mc_area_bt
# takes about 50 ns per sample, so its cap bounds time: about a minute.
# quad_area_pl and mode_count hold about 33 bytes per grid point, so
# their cap bounds memory: about 330 MB.
MAX_MC_SAMPLES = 10**9
MAX_GRID_N = 10**7


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based (Philox) generator with an explicit seed.

    Oracles are the trust anchor of the package, so their randomness must
    be reproducible across runs and platforms.
    """
    return np.random.Generator(np.random.Philox(require_seed(seed)))


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A hit-or-miss estimate with its binomial standard error.

    value and std_error are arrays when the estimate covers several
    thresholds.
    """

    value: float | np.ndarray
    std_error: float | np.ndarray
    n_samples: int
    seed: int


def finite_diff(
    fn: Callable[..., Any],
    at: Sequence[Any],
    slot: int = 0,
    h: float = 1e-6,
):
    """Central difference of fn in one probability slot of the point `at`.

    The step is shrunk if needed so both evaluation points stay at least
    BOUNDARY_MARGIN inside (0, 1); if no positive step fits, the point is
    too close to the boundary and a DomainError is raised.

    The coordinates may be floats, giving a float, or numpy arrays that
    broadcast together, giving an array of central differences, each
    equal to the call at its own point. fn is then called once with all
    the stepped-up points and once with all the stepped-down ones, and
    must return one value per point.
    """
    require_instance(fn, Callable, "fn")
    coords = [require_finites(c, "point coordinate") for c in require_items(at, "point")]
    if not coords:
        raise DomainError("point must have at least one coordinate")
    point = np.broadcast_arrays(*coords)
    slot = require_int(slot, "slot", 0, len(point) - 1)
    x = point[slot]
    h = require_finite(h, "h")
    if h <= 0.0:
        raise DomainError(f"step h must be positive, got {h!r}")
    h_eff = np.minimum(np.minimum(h, x - BOUNDARY_MARGIN), 1.0 - x - BOUNDARY_MARGIN)
    stuck = h_eff <= 0.0
    if stuck.any():
        raise DomainError(
            f"cannot perturb slot {slot} at {float(x[stuck][0])!r}: "
            "both points must stay inside (0, 1)"
        )
    # c[()] is a 0-d coordinate's float64 scalar, and an array coordinate itself.
    hi = [c[()] for c in point]
    lo = list(hi)
    hi[slot] = x + h_eff
    lo[slot] = x - h_eff
    up, down = (np.asarray(fn(*args), dtype=float) for args in (hi, lo))
    diff = (up - down) / (2.0 * h_eff)
    return float(diff) if diff.ndim == 0 else diff


def mc_area_bt(threshold, n: int, seed: int = DEFAULT_SEED) -> MonteCarloEstimate:
    """Hit-or-miss area of the Bradley-Terry sensitive region.

    Samples (p_ik, p_kj) uniformly over the unit square and counts points
    where the composition derivative magnitude exceeds the threshold. The
    derivative is evaluated through its raw arithmetic form, independent
    of the region formulas being verified.

    A float threshold gives a float value and standard error. A 1-D
    sequence of thresholds gives arrays of them, one per threshold, each
    equal to the float call's: every threshold is counted against the
    same n points, drawn once.
    """
    if np.ndim(threshold) > 1:
        raise DomainError(f"thresholds must be a float or a 1-D sequence, got {threshold!r}")
    thresholds = np.array([require_threshold(t) for t in np.ravel(threshold)])
    if not thresholds.size:
        raise DomainError("at least one threshold is required")
    n = require_int(n, "n", 10_000, MAX_MC_SAMPLES)
    rng = make_rng(seed)
    hits = np.zeros(thresholds.size, dtype=np.int64)
    for start in range(0, n, _BLOCK):
        pts = rng.random((min(_BLOCK, n - start), 2))
        p, q = pts[:, 0], pts[:, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            magnitude = np.abs(q * (1.0 - q) / (p + q - 2.0 * p * q - 1.0) ** 2)
        for i, t in enumerate(thresholds):
            hits[i] += np.count_nonzero(magnitude > t)
    frac = hits / n
    std_error = np.sqrt(frac * (1.0 - frac) / n)
    if np.ndim(threshold) == 0:
        frac, std_error = float(frac[0]), float(std_error[0])
    return MonteCarloEstimate(value=frac, std_error=std_error, n_samples=n, seed=int(seed))


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
    grid_n = require_int(grid_n, "grid_n", 10_000, MAX_GRID_N)
    require_choice(which, ("uv", "vu"), "which")
    if math.isinf(4.0 * alpha * threshold):  # the region is empty; inf * 0 would give NaN
        return 0.0
    upper = beta / (4.0 * alpha * threshold)
    x = np.linspace(0.0, upper, grid_n + 1)
    width = np.sqrt(np.maximum(beta * (beta - 4.0 * alpha * threshold * x), 0.0)) / threshold
    if which == "vu":
        width = width / (alpha * alpha)  # inf beyond alpha 1.3e154, where ** raises OverflowError
    return float(np.trapezoid(width, x))


def brute_force_pl(options: ScoredOptionSet, k: int) -> dict[tuple[int, ...], float]:
    """Every K-permutation's ranking probability by direct enumeration.

    Uses raw exponentials (no overflow-safe rewriting), so it is an
    independent check of the production evaluation path. Guarded to
    K <= 6 because the output grows factorially.
    """
    require_instance(options, ScoredOptionSet, "options")
    k = require_int(k, "K")
    if k > 6:
        raise EnumerationSizeError(f"enumeration guard: K={k} exceeds the K <= 6 limit")
    n = len(options)
    require_int(k, "K", 2, n)
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

    Scans grid_n uniformly spaced interior points, between the density's
    limit 0 at both ends, so a mode that lies between an end and the
    nearest grid point counts at that grid point. A maximum must be
    strictly above both neighbours; runs of exactly equal values are
    merged first, so a flat-topped peak counts once and the symmetric
    two-point tie straddling 0.5 is not missed.
    """
    grid_n = require_int(grid_n, "grid_n", 10_000, MAX_GRID_N)
    grid = np.linspace(0.0, 1.0, grid_n + 2)[1:-1]
    dens = np.concatenate(([0.0], logit_normal_density(grid, sigma2), [0.0]))
    # Collapse plateaus to single representatives.
    keep = np.ones(len(dens), dtype=bool)
    keep[1:] = dens[1:] != dens[:-1]
    vals = dens[keep]
    if len(vals) < 3:
        return 0
    inner = vals[1:-1]
    return int(np.count_nonzero((inner > vals[:-2]) & (inner > vals[2:])))
