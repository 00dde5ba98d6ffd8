"""Quarter-period map of the steady fingering profiles.

For initial slope ``alpha`` and eigenvalue ``lam`` the first positive x at
which the profile slope vanishes is the quarter of the Jacobi arc,

    theta(lam, alpha) = (2 E(m) - K(m)) / sqrt(lam),   m = (1 - b)/2,

with ``b = 1/sqrt(1 + alpha^2)`` (DLMF §19.8; ``elliptic.Arc``).  It equals
sqrt(2/lam) int_0^1 [(1-b) tau^2 + b] / sqrt((1 - tau^2)(1 + (1-b) tau^2 + b)) dtau,
the integral form that the test suite keeps as an independent route.  K and
E come from the one AGM of the slope's record (``agm.Modulus``), which the
Newton in b of ``curve`` also builds at each step.
"""

from __future__ import annotations

import math

from .agm import Modulus, constants
from .errors import DomainError

__all__ = ["dtheta_dalpha", "theta", "theta_limit_infinity", "theta_limit_zero"]


def _validate(lam: float, alpha: float) -> None:
    if lam <= 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if alpha < 0.0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")


def theta(lam: float, alpha: float) -> float:
    """Quarter period of the profile with parameters (lam, alpha).

    Parameters
    ----------
    lam : float
        Eigenvalue of the steady equation, > 0.
    alpha : float
        Slope at the zero crossing, >= 0.  The map extends continuously to
        alpha = 0 with value pi / (2 sqrt(lam)).

    Returns
    -------
    float
        (2 E(m) - K(m)) / sqrt(lam), evaluated as K Q / sqrt(lam) with
        Q = (2E - K)/K from the AGM; bitwise the ``quarter`` of
        ``elliptic.Arc(lam, Modulus.of_alpha(alpha))``.
    """
    _validate(lam, alpha)
    mod = Modulus.of_alpha(alpha)
    return mod.K * mod.Q / math.sqrt(lam)


def theta_limit_zero(lam: float) -> float:
    """Limit of theta as alpha -> 0: pi / (2 sqrt(lam))."""
    if lam <= 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    return 0.5 * math.pi / math.sqrt(lam)


def theta_limit_infinity(lam: float) -> float:
    """Limit of theta as alpha -> infinity: B(3/4, 1/2) / (2 sqrt(2 lam))."""
    if lam <= 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    return constants().beta_3_4_1_2 / (2.0 * math.sqrt(2.0 * lam))


def dtheta_dalpha(lam: float, alpha: float) -> float:
    """Partial derivative of theta with respect to alpha, for alpha > 0.

    With dK/dm = (E - (1-m) K) / (2 m (1-m)) and dE/dm = (E - K) / (2 m),
    d(2E - K)/dm = -K (m + b S) / (2 m (1-m)), where S = 1 - E/K is the
    AGM tail; dm/dalpha = alpha b^3 / 2 and 2 m (1-m) = alpha^2 b^2 / 2
    reduce the product to -b K (m + b S) / (alpha sqrt(lam)), a quotient of
    positive terms.  Strictly negative (theta decreases in alpha).
    """
    if lam <= 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if alpha <= 0.0:
        raise DomainError(f"dtheta_dalpha requires alpha > 0, got {alpha}")
    mod = Modulus.of_alpha(alpha)
    return -mod.b * mod.K * (mod.m + mod.b * mod.S) / (alpha * math.sqrt(lam))
