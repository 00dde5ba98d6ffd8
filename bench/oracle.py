"""Arbitrary-precision oracle for the branch, the amplitude and the swing period.

Closed forms (complete elliptic integrals K, E of parameter m):

    b = 1/sqrt(1 + alpha^2),  m = (1 - b)/2,
    lambda(b) = (2 (2 E(m) - K(m)) / pi)^2,
    L = 4 K(m) / sqrt(lambda),  amplitude = 2 sqrt(m / lambda),
    lambda_star = 1 / K(1/2)^2.

Evaluated with mpmath at 30 digits, independently of the library's
quadrature and ODE routes.  Only the benchmark's checks call this module,
outside every timed region.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath

mpmath.mp.dps = 30


def _lam_of_b(b):
    m = (1 - b) / 2
    return (2 * (2 * mpmath.ellipe(m) - mpmath.ellipk(m)) / mpmath.pi) ** 2


@lru_cache(maxsize=None)
def lambda_star() -> float:
    return float(1 / mpmath.ellipk(mpmath.mpf(1) / 2) ** 2)


@lru_cache(maxsize=None)
def from_alpha(alpha: float) -> tuple[float, float, float]:
    """(lambda, swing period L, base amplitude) of the branch point with slope alpha."""
    a = mpmath.mpf(alpha)
    b = 1 / mpmath.sqrt(1 + a * a)
    m = (1 - b) / 2
    lam = _lam_of_b(b)
    return float(lam), float(4 * mpmath.ellipk(m) / mpmath.sqrt(lam)), float(2 * mpmath.sqrt(m / lam))


@lru_cache(maxsize=None)
def amplitude_at(lam: float) -> float:
    """Base amplitude of the branch point at lam in (lambda_star, 1]."""
    target = mpmath.mpf(lam)
    b = mpmath.findroot(lambda x: _lam_of_b(x) - target, (mpmath.mpf(0), mpmath.mpf(1)), solver="anderson")
    return float(2 * mpmath.sqrt((1 - b) / 2 / target))


def rel_err(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    if not (math.isfinite(value) and math.isfinite(ref)):
        return math.inf
    return abs(value - ref) / max(abs(ref), 1e-300)


def digits(err: float) -> float:
    """Correct decimal digits of a relative error, capped at 16."""
    return -math.log10(max(err, 1e-16))
