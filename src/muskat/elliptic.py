"""The steady arc in closed form, through Jacobi elliptic functions.

The profile with eigenvalue ``lam`` and slope ``alpha`` at its zero
crossing, measured from its crest by the arc length s with
u = sqrt(lam) s, is

    f(u)  = 2 sqrt(m) cn(u|m) / sqrt(lam),
    f'(u) = -2 sqrt(m) sn dn / (1 - 2 m sn^2),
    x(u)  = (2 E(am u|m) - u) / sqrt(lam) = (2 (E u / K + Z(u)) - u) / sqrt(lam),

with b = 1/sqrt(1 + alpha^2), parameter m = (1 - b)/2 < 1/2, K = K(m),
E = E(m) and the Jacobi zeta function Z.  The same arc is the pendulum
swing theta = -2 asin(sqrt(m) sn(u|m)), theta' = -2 sqrt(lam m) cn(u|m)
with amplitude arctan(alpha) and period L = 4 K / sqrt(lam); the crest
lies (2 E - K)/sqrt(lam) in x from the zero crossing (DLMF §22.2, §22.16;
Byrd & Friedman, Handbook of Elliptic Integrals).

The slope's denominator is evaluated as b + 2 m cn^2, which equals
1 - 2 m sn^2 but keeps its digits at the zero crossing, where it falls to
b.  Z is summed from its nome series

    Z(u) = (2 pi / K) sum_n q^n / (1 - q^(2n)) sin(n pi u / K),
    q = exp(-pi K(1 - m) / K(m)) <= exp(-pi),

so twelve terms reach 1e-17.

The kernel is numpy and the math module only.  K and E come from the
arithmetic-geometric mean of 1 and b0 (DLMF §19.8(i)): K = pi / (2 AGM),
and E = K (1 - sum_n 2^(n-1) c_n^2) (19.8.6); ``ellipkm1`` gives the
nome's K(1 - m) the same way.  The Jacobi functions run the same AGM and
then the descending Landen recurrence
phi_(n-1) = (phi_n + asin(c_n sin(phi_n) / a_n)) / 2 from phi_N = 2^N a_N u
down to the amplitude phi_0 = am u (DLMF §22.20(ii)); sn = sin phi_0,
cn = cos phi_0, and dn = sqrt(1 - m sn^2), which keeps its digits at u = K
where the textbook cn / cos(phi_1 - phi_0) does not.  The AGM takes
c_(n+1) = c_n^2 / (4 a_(n+1)), which equals (a_n - b_n)/2 without its
cancellation, so c falls monotonically to zero and the loop ends once it is
below the rounding of a (five steps for m <= 1/2).  ``complete_integrals``
and ``Arc`` feed the AGM sqrt((1 + b)/2) and sqrt((1 - b)/2) directly, with
1 - b from ``one_minus_beta``, and ``Arc`` reuses its rows for the Landen
recurrence, so its K, E and Jacobi functions come from one AGM.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, DomainError

__all__ = ["Arc", "beta_of_alpha", "complete_integrals", "one_minus_beta"]

ZETA_TERMS = 12
TABLE_NODES = 129
MAX_NEWTON = 64

_EPS = np.finfo(float).eps


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


def ellipkm1(m: float) -> float:
    """K(1 - m), 0 <= m < 1; infinite at m = 0."""
    if m == 0.0:
        return math.inf
    return _complete(*_agm(math.sqrt(m), math.sqrt(1.0 - m)), 1.0 - m)[0]


def _landen(u, m: float, a_s: list[float], c_s: list[float]):
    """(sn, cn, dn)(u|m) by the descending Landen recurrence on the AGM rows of m."""
    n = len(a_s) - 1
    phi = (2.0**n * a_s[-1]) * np.asarray(u, dtype=float)
    for a, c in zip(a_s[:0:-1], c_s[:0:-1]):
        phi = 0.5 * (phi + np.arcsin((c / a) * np.sin(phi)))
    sn = np.sin(phi)
    return sn, np.cos(phi), np.sqrt(1.0 - m * sn * sn)


class Arc:
    """The steady arc of (lam, alpha) as a function of u = sqrt(lam) s.

    ``quarter`` is the abscissa span from the crest to the zero crossing,
    which u covers on [0, K]; ``length`` is the arc length of one period,
    4 K / sqrt(lam), which is also the swing period.
    """

    def __init__(self, lam: float, alpha: float):
        if lam <= 0.0:
            raise DomainError(f"lambda must be positive, got {lam}")
        if alpha < 0.0:
            raise DomainError(f"alpha must be nonnegative, got {alpha}")
        self.lam = lam
        self.alpha = alpha
        self.b = beta_of_alpha(alpha)
        *self._rows, self.m = _arc_agm(alpha)
        self.K, tail, ratio = _complete(*self._rows, self.m)
        self.E = self.K * (1.0 - tail)
        self.root_lam = math.sqrt(lam)
        self.quarter = self.K * ratio / self.root_lam
        self.length = 4.0 * self.K / self.root_lam
        q = math.exp(-math.pi * ellipkm1(self.m) / self.K)
        n = np.arange(1, ZETA_TERMS + 1)
        n = n[q**n > 1e-18]
        self._wave = n * (math.pi / self.K)
        self._zeta = (2.0 * math.pi / self.K) * q**n / (1.0 - q ** (2 * n))

    @cached_property
    def _table(self):
        """(u, x(u), dx/du) on TABLE_NODES uniform nodes of [0, K]: the inversion's start."""
        u = np.linspace(0.0, self.K, TABLE_NODES)
        return u, self.x(u), self._dxdu(self._jacobi(u)[1])

    def _jacobi(self, u):
        return _landen(u, self.m, *self._rows)

    def x(self, u):
        """Abscissa of the point at u, measured from the crest."""
        u = np.asarray(u, dtype=float)
        zeta = np.sin(np.multiply.outer(u, self._wave)) @ self._zeta
        return (2.0 * (self.E / self.K * u + zeta) - u) / self.root_lam

    def _dxdu(self, cn):
        return (self.b + 2.0 * self.m * cn * cn) / self.root_lam

    def _profile(self, sn, cn, dn):
        fp = -2.0 * math.sqrt(self.m) * sn * dn / (self.b + 2.0 * self.m * cn * cn)
        return 2.0 * math.sqrt(self.m) * cn / self.root_lam, fp

    def profile(self, u):
        """(f, f') of the even profile, crest up, at u."""
        return self._profile(*self._jacobi(u))

    def swing(self, u):
        """(theta, theta') of the pendulum swing at u, starting from the crest."""
        sn, cn, _ = self._jacobi(u)
        return -2.0 * np.arcsin(math.sqrt(self.m) * sn), -2.0 * math.sqrt(self.lam * self.m) * cn

    def cosine_coefficient(self, n_nodes: int = 64) -> float:
        """Coefficient of cos(w x), w = 2 pi/T, of the even profile over its period T.

        T = 4 quarter, and in u the integral (2/T) int_0^T f cos(w x) dx runs
        over one period [0, 4K] of f(u) cos(w x(u)) x'(u).  That integrand
        is periodic and analytic in u, also at b = 0 where x' has double
        zeros, so the ``n_nodes``-point trapezoid rule converges
        geometrically (Trefethen & Weideman, SIAM Review 56, 2014).
        """
        u = np.arange(n_nodes) * (4.0 * self.K / n_nodes)
        cn = self._jacobi(u)[1]
        f = 2.0 * math.sqrt(self.m) * cn / self.root_lam
        w = 0.5 * math.pi / self.quarter
        terms = f * np.cos(w * self.x(u)) * self._dxdu(cn)
        return 2.0 * self.K / (n_nodes * self.quarter) * float(np.sum(terms))

    def rising_quarter(self, x):
        """(f, f') on the quarter from the zero crossing (x = 0) to the crest (x = quarter)."""
        _, sn, cn, dn = self._invert(self.quarter - np.asarray(x, dtype=float))
        f, fp = self._profile(sn, cn, dn)
        return f, -fp

    def u_of_x(self, x):
        """The u in [0, K] whose abscissa is x, for x in [0, quarter]."""
        return self._invert(x)[0]

    def _invert(self, x):
        """u(x) and (sn, cn, dn) there, by safeguarded Newton.

        dx/du = (b + 2 m cn^2)/sqrt(lam) >= b/sqrt(lam).  The start is the
        cubic Hermite interpolant of u(x) on a table of x(u) over a uniform
        u grid, and a step that leaves the table cell's bracket is replaced
        by bisection.  Raises ConvergenceError if MAX_NEWTON steps do not
        reach the rounding floor.
        """
        x = np.clip(np.asarray(x, dtype=float), 0.0, self.quarter)
        shape = x.shape
        x = x.ravel()
        u_nodes, x_nodes, dxdu_nodes = self._table
        j = np.clip(np.searchsorted(x_nodes, x), 1, TABLE_NODES - 1)
        lo, hi = u_nodes[j - 1], u_nodes[j]
        x0, x1 = x_nodes[j - 1], x_nodes[j]
        h = x1 - x0
        t = (x - x0) / h
        m0, m1 = h / dxdu_nodes[j - 1], h / dxdu_nodes[j]
        u = (
            (1.0 + 2.0 * t) * (1.0 - t) ** 2 * lo
            + t * t * (3.0 - 2.0 * t) * hi
            + t * (1.0 - t) * ((1.0 - t) * m0 - t * m1)
        )
        u = np.clip(u, lo, hi)
        sn, cn, dn = np.empty_like(u), np.empty_like(u), np.empty_like(u)
        tol_x = 8.0 * np.finfo(float).eps * self.K / self.root_lam
        tol_u = 4.0 * np.finfo(float).eps * self.K
        todo = np.arange(x.size)
        for _ in range(MAX_NEWTON):
            ut = u[todo]
            resid = self.x(ut) - x[todo]
            sn[todo], cn[todo], dn[todo] = self._jacobi(ut)
            step = resid / self._dxdu(cn[todo])
            lo_t = np.where(resid < 0.0, ut, lo[todo])
            hi_t = np.where(resid > 0.0, ut, hi[todo])
            lo[todo], hi[todo] = lo_t, hi_t
            new = ut - step
            new = np.where((new < lo_t) | (new > hi_t), 0.5 * (lo_t + hi_t), new)
            going = (np.abs(resid) > tol_x) & (np.abs(step) > tol_u)
            u[todo] = np.where(going, new, ut)
            todo = todo[going]
            if todo.size == 0:
                return u.reshape(shape), sn.reshape(shape), cn.reshape(shape), dn.reshape(shape)
        raise ConvergenceError(
            f"arc inversion did not converge in {MAX_NEWTON} Newton steps "
            f"at {todo.size} abscissae (lambda={self.lam:.12g}, alpha={self.alpha:.6g})"
        )
