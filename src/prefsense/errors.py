"""Exception hierarchy and argument validation helpers.

Every public operation raises one of these instead of bare ValueError,
so callers can distinguish bad input from genuine numerical breakdown.
"""

from __future__ import annotations

import math
import operator
from typing import Any

__all__ = [
    "PrefsenseError",
    "DomainError",
    "ValidationError",
    "SingularityError",
    "UnsupportedThresholdError",
    "WitnessNotFoundError",
    "DisconnectedDataError",
    "EnumerationSizeError",
    "SaturationWarning",
    "require_int",
    "require_finite",
    "require_probability",
    "require_threshold",
    "require_alpha_beta",
]


class PrefsenseError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PrefsenseError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ValidationError(PrefsenseError, ValueError):
    """Structured input violates a consistency contract (not a single scalar)."""


class SingularityError(PrefsenseError, ArithmeticError):
    """A derivative is undefined at the requested point.

    Carries the offending point so callers (e.g. rasterization) can flag
    the cell instead of silently producing infinity.
    """

    def __init__(self, message: str, point: tuple[float, ...] | None = None):
        super().__init__(message)
        self.point = point


class UnsupportedThresholdError(PrefsenseError, ValueError):
    """Region and area computations require a sensitivity threshold above 1."""


class WitnessNotFoundError(PrefsenseError, RuntimeError):
    """The witness scan exhausted floating-point range before succeeding.

    This signals float64 exhaustion, not a failure of the underlying
    existence result.
    """


class DisconnectedDataError(PrefsenseError, ValueError):
    """Comparison data does not connect all options; the MLE is not unique.

    Carries the connected components (as index lists) for diagnostics.
    """

    def __init__(self, message: str, components: list[list[int]] | None = None):
        super().__init__(message)
        self.components = components or []


class EnumerationSizeError(PrefsenseError, ValueError):
    """A brute-force enumeration was requested beyond its factorial guard."""


class SaturationWarning(RuntimeWarning):
    """A probability rounded to exactly 0.0 or 1.0 in float64.

    The open-interval codomain cannot be honoured at this magnitude; the
    saturated value is still returned, with this warning as the flag.
    """


def require_int(x: Any, name: str) -> int:
    """Accept ints and numpy integers; reject floats, strings and the rest."""
    try:
        return operator.index(x)
    except TypeError as exc:
        raise DomainError(f"{name} must be an integer, got {x!r}") from exc


def require_finite(x: Any, name: str) -> float:
    """Coerce to float and reject NaN/inf and non-numbers."""
    try:
        v = float(x)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number, got {x!r}") from exc
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite, got {v!r}")
    return v


def require_probability(p: Any, name: str) -> float:
    """Validate p strictly inside (0, 1). Never clamps."""
    v = require_finite(p, name)
    if not 0.0 < v < 1.0:
        raise DomainError(f"{name} must lie strictly inside (0, 1), got {v!r}")
    return v


def require_threshold(threshold: Any) -> float:
    """Validate a finite sensitivity threshold above 1."""
    threshold = require_finite(threshold, "threshold")
    if threshold <= 1.0:
        raise UnsupportedThresholdError(
            f"sensitive regions are characterised only for thresholds above 1, "
            f"got {threshold!r}"
        )
    return threshold


def require_alpha_beta(alpha: Any, beta: Any) -> tuple[float, float]:
    """Validate the K-tuple constants: finite alpha >= 1 and 0 < beta <= 1."""
    alpha = require_finite(alpha, "alpha")
    beta = require_finite(beta, "beta")
    if alpha < 1.0 or not 0.0 < beta <= 1.0:
        raise DomainError(f"need alpha >= 1 and 0 < beta <= 1, got {alpha!r}, {beta!r}")
    return alpha, beta
