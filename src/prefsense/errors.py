"""Exception hierarchy and argument validation helpers.

Every public operation raises one of these instead of bare ValueError,
so callers can distinguish bad input from genuine numerical breakdown.
The helpers are the one validation path the modules share:

- require_int, require_seed, require_finite, require_probability,
  require_threshold and require_alpha_beta check scalars, and
  require_finites and require_probabilities an array of finite numbers
  or of probabilities as well; require_int
  refuses an integer outside [lo, hi] as "{name} must lie in [{lo}, {hi}]",
  or with no hi as "{name} must be at least {lo}";
- require_instance, require_items, require_real_array and require_choice
  check types, sequences, arrays and string choices;
- text_file opens every file the package reads or writes, refusing paths
  that are not str, bytes or os.PathLike and, through utf8_errors, text
  that is not UTF-8.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
from typing import Any

import numpy as np

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
    "require_instance",
    "require_items",
    "require_real_array",
    "require_choice",
    "require_seed",
    "require_finite",
    "require_finites",
    "require_probability",
    "require_probabilities",
    "require_threshold",
    "require_alpha_beta",
    "text_file",
    "utf8_errors",
]


class PrefsenseError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PrefsenseError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class ValidationError(PrefsenseError, ValueError):
    """Structured input violates a consistency contract (not a single scalar)."""


class SingularityError(PrefsenseError, ArithmeticError):
    """A derivative is undefined at the requested point.

    Raised by the scalar derivatives, with the offending point as .point.
    """

    def __init__(self, message: str, point: tuple[float, ...] | None = None):
        super().__init__(message)
        self.point = point


class UnsupportedThresholdError(PrefsenseError, ValueError):
    """Region and area computations require a sensitivity threshold above 1."""


class WitnessNotFoundError(PrefsenseError, RuntimeError):
    """The witness scan reached its cutoff p_ik > 1 - 1e-12 before succeeding.

    This signals the scan's limit, not a failure of the underlying
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


def require_int(x: Any, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """Accept ints and numpy integers; reject floats, strings and the rest.

    An integer outside the closed interval [lo, hi] raises DomainError:
    "{name} must lie in [{lo}, {hi}], got {x}", or with no hi "{name}
    must be at least {lo}, got {x}".
    """
    try:
        x = operator.index(x)
    except TypeError as exc:
        raise DomainError(f"{name} must be an integer, got {x!r}") from exc
    if hi is not None and not lo <= x <= hi:
        raise DomainError(f"{name} must lie in [{lo}, {hi}], got {x}")
    if lo is not None and x < lo:
        raise DomainError(f"{name} must be at least {lo}, got {x}")
    return x


def require_instance(x: Any, cls: type, name: str) -> Any:
    """Refuse an argument that is not an instance of cls."""
    if not isinstance(x, cls):
        raise ValidationError(f"{name} must be a {cls.__name__}, got {x!r}")
    return x


def require_items(x: Any, name: str) -> tuple:
    """Materialise an iterable argument as a tuple; refuse a non-iterable,
    and a str or bytes, whose items would be its characters."""
    try:
        if isinstance(x, (str, bytes)):
            raise TypeError("a string is not a sequence of items")
        items = iter(x)
    except TypeError as exc:
        raise DomainError(f"{name} must be a sequence, got {x!r}") from exc
    return tuple(items)


def require_real_array(x: Any, name: str) -> np.ndarray:
    """Coerce to a float64 array; refuse non-numeric and complex entries."""
    try:
        if np.iscomplexobj(x):
            raise TypeError("complex entries")
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must hold real numbers only: {exc}") from exc


def require_choice(x: Any, choices: tuple[str, ...], name: str) -> str:
    """Accept only a str among choices."""
    if not (isinstance(x, str) and x in choices):
        raise DomainError(f"{name} must be {' or '.join(map(repr, choices))}, got {x!r}")
    return x


def require_seed(seed: Any) -> int:
    """Validate a random seed: a non-negative integer."""
    return require_int(seed, "seed", 0)


def require_finite(x: Any, name: str) -> float:
    """Coerce to float and reject NaN/inf and non-numbers."""
    try:
        v = float(x)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a real number, got {x!r}") from exc
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite, got {v!r}")
    return v


def require_finites(x: Any, name: str):
    """require_finite, except that a numpy array with dimensions is
    checked entry by entry and returned as a float64 array."""
    if not (isinstance(x, np.ndarray) and x.ndim):
        return require_finite(x, name)
    arr = require_real_array(x, name)
    for bad in arr[~np.isfinite(arr)][:1]:  # the first non-finite entry's scalar error
        require_finite(bad, name)
    return arr


def require_probability(p: Any, name: str) -> float:
    """Validate p strictly inside (0, 1). Never clamps."""
    v = require_finite(p, name)
    if not 0.0 < v < 1.0:
        raise DomainError(f"{name} must lie strictly inside (0, 1), got {v!r}")
    return v


def require_probabilities(p: Any, name: str):
    """require_probability, except that a numpy array with dimensions is
    checked entry by entry and returned as a float64 array."""
    if not (isinstance(p, np.ndarray) and p.ndim):
        return require_probability(p, name)
    arr = require_real_array(p, name)
    outside = ~((arr > 0.0) & (arr < 1.0))
    if outside.any():
        # The first offending entry raises the scalar call's error.
        require_probability(float(arr[outside][0]), name)
    return arr


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


@contextlib.contextmanager
def text_file(path: Any, mode: str = "r"):
    """Open path as UTF-8 text to read ("r") or to write ("w", with newline="").

    path must be a str, bytes or os.PathLike: an int would open a file
    descriptor. Text in the block that is not UTF-8 raises ValidationError.
    """
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise ValidationError(f"path must be a str, bytes or os.PathLike, got {path!r}")
    try:
        fh = open(path, mode, encoding="utf-8", newline="" if mode == "w" else None)
    except ValueError as exc:  # a NUL character in the path
        raise ValidationError(f"path {path!r}: {exc}") from exc
    with fh, utf8_errors(path):
        yield fh


@contextlib.contextmanager
def utf8_errors(path: Any):
    """Report a UnicodeError raised in the block as text for path that is not UTF-8."""
    try:
        yield
    except UnicodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
