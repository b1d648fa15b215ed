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
from statistics import NormalDist

import numpy as np

from .errors import DomainError, SaturationWarning, require_finite, require_finites, require_probability

__all__ = ["LinkFunction", "LogisticLink", "ProbitLink", "LOGISTIC", "PROBIT", "get_link"]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_STANDARD_NORMAL = NormalDist()
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
    """Base type of the links, each defining evaluate, derivative and inverse.

    evaluate(x) is g(x), derivative(x) is g'(x) >= 0, and inverse(p) is the
    x with g(x) = p for p strictly inside (0, 1); the module docstring lists
    the contract every link meets.
    """

    family: str = "abstract"

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class LogisticLink(LinkFunction):
    """g(x) = 1 / (1 + exp(-x)), the Bradley-Terry link."""

    family = "logistic"

    def evaluate(self, x):
        """g(x) for a float, or entry by entry for a numpy array of them."""
        if isinstance(x, np.ndarray) and x.ndim:
            x = require_finites(x, "x")
            # math.exp per entry, not numpy's exp, which can differ by an ulp:
            # each entry equals the float call bit for bit.
            t = np.fromiter(map(math.exp, (-np.abs(x)).ravel().tolist()), float, x.size).reshape(x.shape)
            return _warn_if_saturated(np.where(x >= 0.0, 1.0, t) / (1.0 + t))
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
        return _INV_SQRT_2PI * math.exp(-0.5 * x * x)

    def inverse(self, p: float) -> float:
        # Wichura's AS241: about 1e-15 relative down to 5e-324, and exactly
        # odd, inverse(p) == -inverse(1 - p).
        return _STANDARD_NORMAL.inv_cdf(require_probability(p, "p"))


LOGISTIC = LogisticLink()
PROBIT = ProbitLink()

_LINKS = {"logistic": LOGISTIC, "probit": PROBIT}


def get_link(name: str) -> LinkFunction:
    """Look up a link family by name ('logistic' or 'probit')."""
    try:
        return _LINKS[name.lower()]
    except (KeyError, AttributeError):
        raise DomainError(f"unknown link family {name!r}; expected one of {sorted(_LINKS)}")
