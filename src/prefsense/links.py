"""Pairwise link functions: logistic and probit.

A link g maps a score difference to a win probability. Both families here
satisfy the contract the rest of the package relies on:

- strictly increasing, with limits 0 at -inf and 1 at +inf,
- symmetric: g(x) + g(-x) = 1 for all x,
- continuously differentiable, with g'(x) -> 0 at both infinities,
- invertible on (0, 1), with g_inv(p) + g_inv(1-p) = 0.

In float64 the open codomain saturates for large |x| (logistic beyond
~|x|=36, probit beyond ~|x|=8.2); saturated results are returned with a
SaturationWarning rather than silently.
"""

from __future__ import annotations

import math
import os
import sys
import warnings

import numpy as np

from .errors import DomainError, SaturationWarning, require_finite, require_probability

__all__ = ["LinkFunction", "LogisticLink", "ProbitLink", "LOGISTIC", "PROBIT", "get_link"]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _warn_if_saturated(p):
    """Return p, a float or an array, warning once if any value is exactly 0 or 1."""
    if isinstance(p, np.ndarray):
        saturated = p[(p <= 0.0) | (p >= 1.0)]
        if saturated.size:
            _warn_if_saturated(float(saturated[0]))
        return p
    if p <= 0.0 or p >= 1.0:
        # Point the warning at the first caller outside the package, however
        # deep the call that saturated (stacklevel 1 is this frame).
        level, frame = 1, sys._getframe()
        while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
            level, frame = level + 1, frame.f_back
        warnings.warn(
            f"probability saturated to {p!r} in float64; open-interval codomain "
            "cannot be represented at this magnitude",
            SaturationWarning,
            stacklevel=level,
        )
    return p


class LinkFunction:
    """Common interface: evaluate, derivative, inverse."""

    family: str = "abstract"

    def evaluate(self, x: float) -> float:
        """Win probability g(x) for score difference x."""
        raise NotImplementedError

    def derivative(self, x: float) -> float:
        """g'(x), nonnegative everywhere."""
        raise NotImplementedError

    def inverse(self, p: float) -> float:
        """Score difference with g(x) = p, for p strictly inside (0, 1)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class LogisticLink(LinkFunction):
    """g(x) = 1 / (1 + exp(-x)), the Bradley-Terry link."""

    family = "logistic"

    def evaluate(self, x: float) -> float:
        x = require_finite(x, "x")
        # Branch on sign so exp never overflows.
        if x >= 0.0:
            p = 1.0 / (1.0 + math.exp(-x))
        else:
            t = math.exp(x)
            p = t / (1.0 + t)
        return _warn_if_saturated(p)

    def derivative(self, x: float) -> float:
        x = require_finite(x, "x")
        # exp(-|x|) form keeps the tail nonzero where g(x)*(1-g(x)) would
        # round through a saturated g.
        t = math.exp(-abs(x))
        return t / (1.0 + t) ** 2

    def inverse(self, p: float) -> float:
        p = require_probability(p, "p")
        return math.log(p / (1.0 - p))


# Rational approximation for the standard normal quantile (Acklam's
# coefficients); used only as the Newton seed.
_A = (
    -3.969683028665376e01,
    2.209460984245205e02,
    -2.759285104469687e02,
    1.383577518672690e02,
    -3.066479806614716e01,
    2.506628277459239e00,
)
_B = (
    -5.447609879822406e01,
    1.615858368580409e02,
    -1.556989798598866e02,
    6.680131188771972e01,
    -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03,
    -3.223964580411365e-01,
    -2.400758277161838e00,
    -2.549732539343734e00,
    4.374664141464968e00,
    2.938163982698783e00,
)
_D = (
    7.784695709041462e-03,
    3.224671290700398e-01,
    2.445134137142996e00,
    3.754408661907416e00,
)


def _normal_quantile_seed(p: float) -> float:
    if p < 0.02425:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / (
            (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        )
    q = p - 0.5
    r = q * q
    return (
        (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5])
        * q
        / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    )


class ProbitLink(LinkFunction):
    """g(x) = Phi(x), the standard normal CDF (Thurstone-style link)."""

    family = "probit"

    def evaluate(self, x: float) -> float:
        x = require_finite(x, "x")
        # erfc keeps full relative accuracy in the lower tail.
        p = 0.5 * math.erfc(-x / _SQRT2)
        return _warn_if_saturated(p)

    def derivative(self, x: float) -> float:
        x = require_finite(x, "x")
        z = 0.5 * x * x
        if z > 745.0:  # exp underflows to 0 anyway
            return 0.0
        return _INV_SQRT_2PI * math.exp(-z)

    def inverse(self, p: float) -> float:
        p = require_probability(p, "p")
        # Reflect onto the lower tail, where the erfc-based CDF has full
        # relative accuracy; this also makes the inverse exactly odd.
        if p > 0.5:
            return -self.inverse(1.0 - p)
        if p == 0.5:
            return 0.0
        x = _normal_quantile_seed(p)
        # Newton refinement. The residual target alone is not enough near
        # the tails (x-accuracy is residual/phi(x)), so also require the
        # step itself to become negligible.
        for _ in range(50):
            residual = 0.5 * math.erfc(-x / _SQRT2) - p
            d = self.derivative(x)
            if d <= 0.0:
                break
            step = residual / d
            x -= step
            if abs(residual) < 1e-12 and abs(step) < 1e-14 * max(1.0, abs(x)):
                return x
        return self._bisect(p)

    @staticmethod
    def _bisect(p: float) -> float:
        lo, hi = -40.0, 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 0.5 * math.erfc(-mid / _SQRT2) < p:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-15 * max(1.0, abs(lo)):
                break
        return 0.5 * (lo + hi)


LOGISTIC = LogisticLink()
PROBIT = ProbitLink()

_LINKS = {"logistic": LOGISTIC, "probit": PROBIT}


def get_link(name: str) -> LinkFunction:
    """Look up a link family by name ('logistic' or 'probit')."""
    try:
        return _LINKS[name.lower()]
    except (KeyError, AttributeError):
        raise DomainError(f"unknown link family {name!r}; expected one of {sorted(_LINKS)}")
