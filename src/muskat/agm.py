"""The modulus of a slope and its complete elliptic integrals, in scalar math.

With b = 1/sqrt(1 + alpha^2) and m = (1 - b)/2, every quantity the branch
attaches to a slope alpha is a closed form in K(m) and E(m) (DLMF §19.8).
``Modulus`` is the record of one m and of the one AGM run there, built
from a slope or from b.  ``_landen`` runs the descending Landen
recurrence on its rows (DLMF §22.20(ii)), which gives sn, cn, dn and the
Jacobi zeta function; it is written once against an array namespace, so
``elliptic.Arc`` calls it with numpy on arrays of u and the expansion
coefficient with ``math`` on one u at a time.

K and E come from the AGM of 1 and b0 (DLMF §19.8(i)): K = pi / (2 AGM),
and E = K (1 - sum_n 2^(n-1) c_n^2) (19.8.6).  The AGM takes
c_(n+1) = c_n^2 / (4 a_(n+1)), which equals (a_n - b_n)/2 without its
cancellation, so c falls monotonically to zero and the loop ends once it
is below the rounding of a (five steps for m <= 1/2).  The record feeds
it sqrt((1 + b)/2) and sqrt(m), with m = (1 - b)/2 exact from b, or from
1 - b = ``one_minus_beta(alpha)`` for a slope, so m is never formed by a
rounded subtraction.  This module imports only ``math``, so the scalar
branch and the commands built on it load no numpy.

The threshold constants are the record of b = 0 (m = 1/2), the blow-up
end of the branch: with 2E - K = pi/(2K) at m = 1/2 (Legendre's
relation), lambda_star = (2 K Q/pi)^2 = 1/K(1/2)^2, h_star = sqrt(2) K(1/2)
and B(3/4, 1/2) = pi sqrt(2)/K(1/2).
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

__all__ = ["Constants", "Modulus", "alpha_of_beta", "beta_of_alpha", "constants", "one_minus_beta"]

_EPS = sys.float_info.epsilon


def beta_of_alpha(alpha: float) -> float:
    """Evaluate 1/sqrt(1 + alpha^2) in a form stable for huge alpha."""
    if alpha <= 1.0:
        return 1.0 / math.sqrt(1.0 + alpha * alpha)
    inv = 1.0 / alpha
    return inv / math.sqrt(1.0 + inv * inv)


def alpha_of_beta(b: float) -> float:
    """The slope sqrt(1 - b^2)/b of b = 1/sqrt(1 + alpha^2); infinite at b = 0."""
    if b == 0.0:
        return math.inf
    return math.sqrt((1.0 - b) * (1.0 + b)) / b


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


def _landen(xp, u, m: float, a_s: list[float], c_s: list[float]):
    """(sn, cn, dn, Z)(u|m) on the AGM rows of m, in the namespace ``xp`` (``math`` or numpy).

    phi_(n-1) = (phi_n + asin(c_n sin(phi_n) / a_n)) / 2 runs from
    phi_N = 2^N a_N u down to phi_0 = am u, and Z = sum_(n>=1) c_n sin(phi_n)
    (A&S 17.6) reuses the sines; dn = sqrt(1 - m sn^2) keeps its digits at u = K.
    """
    phi = (2.0 ** (len(a_s) - 1) * a_s[-1]) * u
    zeta = 0.0
    for a, c in zip(a_s[:0:-1], c_s[:0:-1]):
        s = xp.sin(phi)
        zeta = zeta + c * s
        phi = 0.5 * (phi + xp.asin((c / a) * s))
    sn = xp.sin(phi)
    return sn, xp.cos(phi), xp.sqrt(1.0 - m * sn * sn), zeta


def _complete(a_s: list[float], c_s: list[float], m: float) -> tuple[float, float, float]:
    """K, S = 1 - E/K and Q = 1 - 2 S = (2 E - K)/K from the AGM rows of m.

    With t_n = 2^n c_n^2, 2 S = m + sum_(n>=1) t_n (DLMF 19.8.6).  S and Q
    are each one fsum of the exact m and the t_n, so K - E = K S keeps its
    digits as m -> 0 and 2 E - K = K Q keeps them at m = 1/2.
    """
    k = math.pi / (2.0 * a_s[-1])
    t = [2.0**n * c * c for n, c in enumerate(c_s[1:], 1)]
    return k, 0.5 * math.fsum([m, *t]), math.fsum([1.0, -m] + [-x for x in t])


class Modulus(NamedTuple):
    """The modulus m = (1 - b)/2 of a slope alpha: its AGM rows, K(m), S = 1 - E/K and Q = (2E - K)/K."""

    alpha: float
    b: float
    m: float
    a_s: list[float]
    c_s: list[float]
    K: float
    S: float
    Q: float

    @staticmethod
    def of_alpha(alpha: float) -> Modulus:
        """The record of slope alpha, with 1 - b from ``one_minus_beta``."""
        return _modulus(alpha, beta_of_alpha(alpha), 0.5 * one_minus_beta(alpha))

    @staticmethod
    def of_b(b: float) -> Modulus:
        """The record of b in [0, 1], where m = (1 - b)/2 is exact."""
        return _modulus(alpha_of_beta(b), b, 0.5 * (1.0 - b))

    @property
    def lam(self) -> float:
        """The lam with quarter period K Q/sqrt(lam) = pi/2, clipped to 1 (K Q rounds above pi/2 for tiny m)."""
        return min((2.0 * (self.K * self.Q) / math.pi) ** 2, 1.0)

    def dkq_db(self, b: float) -> float:
        """d(2E - K)/db = K (m + b S)/(4 m (1 - m)) (3K/8 at m = 0) at a solve's own b, not beta(alpha(b))."""
        m = self.m
        if m == 0.0:
            return 0.375 * self.K
        return self.K * (m + b * self.S) / (4.0 * m * (1.0 - m))


def _modulus(alpha: float, b: float, m: float) -> Modulus:
    a_s, c_s = _agm(math.sqrt(0.5 * (1.0 + b)), math.sqrt(m))
    # tuple.__new__ skips the generated __new__, a few percent of a Newton solve
    return tuple.__new__(Modulus, (alpha, b, m, a_s, c_s, *_complete(a_s, c_s, m)))


class Constants(NamedTuple):
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
    """Compute (once) lambda_star, h_star and B(3/4, 1/2) from the record of b = 0."""
    end = Modulus.of_b(0.0)
    return Constants(
        lambda_star=end.lam,
        h_star=math.sqrt(2.0) * end.K,
        beta_3_4_1_2=math.pi * math.sqrt(2.0) / end.K,
    )
