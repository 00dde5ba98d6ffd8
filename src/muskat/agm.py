"""Complete elliptic integrals by the arithmetic-geometric mean, in scalar math.

K and E come from the AGM of 1 and b0 (DLMF §19.8(i)): K = pi / (2 AGM),
and E = K (1 - sum_n 2^(n-1) c_n^2) (19.8.6).  The AGM takes
c_(n+1) = c_n^2 / (4 a_(n+1)), which equals (a_n - b_n)/2 without its
cancellation, so c falls monotonically to zero and the loop ends once it
is below the rounding of a (five steps for m <= 1/2).
``complete_integrals`` feeds the AGM sqrt((1 + b)/2) and sqrt((1 - b)/2)
directly, with 1 - b from ``one_minus_beta``.  This module imports only
``math``, so the scalar branch and the commands built on it load no
numpy; ``elliptic`` runs the Landen recurrence on the same rows, and that
sweep also gives the Jacobi zeta function, so no AGM of 1 - m is needed.

The threshold constants are the b = 0 (m = 1/2) end of the branch, from
the same AGM: with 2E - K = pi/(2K) at m = 1/2 (Legendre's relation),
lambda_star = (2 K Q/pi)^2 = 1/K(1/2)^2, h_star = sqrt(2) K(1/2) and
B(3/4, 1/2) = pi sqrt(2)/K(1/2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

__all__ = ["Constants", "beta_of_alpha", "complete_integrals", "constants", "one_minus_beta"]

_EPS = sys.float_info.epsilon


def beta_of_alpha(alpha: float) -> float:
    """Evaluate 1/sqrt(1 + alpha^2) in a form stable for huge alpha."""
    if alpha <= 1.0:
        return 1.0 / math.sqrt(1.0 + alpha * alpha)
    inv = 1.0 / alpha
    return inv / math.sqrt(1.0 + inv * inv)


def one_minus_beta(alpha: float) -> float:
    """Evaluate 1 - beta(alpha) without cancellation for small alpha."""
    if alpha < 1.0:
        s = math.sqrt(1.0 + alpha * alpha)
        return alpha * alpha / (s * (s + 1.0))
    return 1.0 - beta_of_alpha(alpha)


def _agm(b: float, c: float) -> tuple[list[float], list[float]]:
    """The AGM rows (a_n, c_n) from a_0 = 1, b_0 = b, c_0 = c = sqrt(1 - b^2).

    Needs b > 0, so that c_n / a_n falls to zero (quadratically once b_n
    is within a factor of a_n).
    """
    a_s, c_s = [1.0], [c]
    while c_s[-1] > _EPS * a_s[-1]:
        a = a_s[-1]
        a_s.append(0.5 * (a + b))
        b = math.sqrt(a * b)
        c_s.append(c_s[-1] ** 2 / (4.0 * a_s[-1]))
    return a_s, c_s


def _complete(a_s: list[float], c_s: list[float], m: float) -> tuple[float, float, float]:
    """K, S = 1 - E/K and Q = 1 - 2 S = (2 E - K)/K from the AGM rows of m.

    With t_n = 2^n c_n^2, 2 S = m + sum_(n>=1) t_n (DLMF 19.8.6).  S and Q
    are each one fsum of the exact m and the t_n, so K - E = K S keeps its
    digits as m -> 0 and 2 E - K = K Q keeps them at m = 1/2.
    """
    k = math.pi / (2.0 * a_s[-1])
    t = [2.0**n * c * c for n, c in enumerate(c_s[1:], 1)]
    return k, 0.5 * math.fsum([m, *t]), math.fsum([1.0, -m, *(-x for x in t)])


def _arc_agm(alpha: float) -> tuple[list[float], list[float], float]:
    """The AGM rows of m = (1 - b)/2, b = beta_of_alpha(alpha), and m.

    Starts from sqrt(1 - m) = sqrt((1 + b)/2) and sqrt(m) = sqrt((1 - b)/2)
    with 1 - b from ``one_minus_beta``, so m is never formed from b by a
    rounded subtraction.
    """
    b = beta_of_alpha(alpha)
    m = 0.5 * one_minus_beta(alpha)
    a_s, c_s = _agm(math.sqrt(0.5 * (1.0 + b)), math.sqrt(m))
    return a_s, c_s, m


def complete_integrals(alpha: float) -> tuple[float, float, float]:
    """K(m), S = 1 - E(m)/K(m) and Q = (2 E(m) - K(m))/K(m) at m = (1 - b)/2, from one AGM."""
    return _complete(*_arc_agm(alpha))


@dataclass(frozen=True)
class Constants:
    """Threshold constants of the steady-state problem.

    Attributes
    ----------
    lambda_star : float
        Eigenvalue below which no branch point of minimal period 2*pi exists:
        the branch parameter (2 K Q/pi)^2 at b = 0, bitwise the branch's own.
    h_star : float
        Cell half-height separating the touching and slope-blow-up regimes,
        sqrt(2 / lambda_star) = sqrt(2) K(1/2).
    beta_3_4_1_2 : float
        B(3/4, 1/2) = pi sqrt(2)/K(1/2), so lambda_star = B(3/4, 1/2)^2 / (2 pi^2).
    """

    lambda_star: float
    h_star: float
    beta_3_4_1_2: float


@lru_cache(maxsize=1)
def constants() -> Constants:
    """Compute (once) lambda_star, h_star and B(3/4, 1/2) from K(1/2) and Q(1/2)."""
    k, _, q = complete_integrals(math.inf)
    return Constants(
        lambda_star=(2.0 * (k * q) / math.pi) ** 2,
        h_star=math.sqrt(2.0) * k,
        beta_3_4_1_2=math.pi * math.sqrt(2.0) / k,
    )
