"""The steady arc in closed form, through Jacobi elliptic functions.

The profile with eigenvalue ``lam`` and slope ``alpha`` at its zero
crossing, measured from its crest by the arc length s with
u = sqrt(lam) s, is

    f(u)  = 2 sqrt(m) cn(u|m) / sqrt(lam),
    f'(u) = -2 sqrt(m) sn dn / (1 - 2 m sn^2),
    x(u)  = (2 E(am u|m) - u) / sqrt(lam) = (Q u + 2 Z(u)) / sqrt(lam),

with b = 1/sqrt(1 + alpha^2), parameter m = (1 - b)/2 < 1/2, K = K(m),
E = E(m), Q = (2 E - K)/K and the Jacobi zeta function Z.  The same arc
is the pendulum swing theta = -2 asin(sqrt(m) sn(u|m)),
theta' = -2 sqrt(lam m) cn(u|m) with amplitude arctan(alpha) and period
L = 4 K / sqrt(lam); the crest lies (2 E - K)/sqrt(lam) in x from the
zero crossing (DLMF §22.2, §22.16; Byrd & Friedman, Handbook of Elliptic
Integrals).

The slope's denominator is evaluated as b + 2 m cn^2, which equals
1 - 2 m sn^2 but keeps its digits at the zero crossing, where it falls to
b.

K, E and the AGM rows come from the slope's record ``agm.Modulus``, whose
module imports only ``math``.  The Jacobi functions run the descending
Landen recurrence on those rows, ``agm._landen`` called with numpy (the
scalar expansion coefficient calls the same code with ``math``),
phi_(n-1) = (phi_n + asin(c_n sin(phi_n) / a_n)) / 2 from phi_N = 2^N a_N u
down to the amplitude phi_0 = am u (DLMF §22.20(ii)); sn = sin phi_0,
cn = cos phi_0, and dn = sqrt(1 - m sn^2), which keeps its digits at u = K
where the textbook cn / cos(phi_1 - phi_0) does not.  The same sweep sums
Z(u) = sum_(n>=1) c_n sin(phi_n) (A&S 17.6) from the sines it already
takes, so x(u) costs one multiply-add per step on top of sn, cn and dn.
``Arc`` is built from a record, so its K, Q, x(u) and Jacobi functions
come from the record's one AGM and one sweep: a caller that already holds
the record of its slope, as the branch solves do, runs no AGM for it.

The arc is also the odd branch profile: ``Arc.odd`` inverts x(u) on the
quarter from the zero crossing to the crest, where the inversion table
lives, and folds every other x onto that quarter by odd reflection.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .agm import Modulus, _landen
from .errors import ConvergenceError, DomainError

__all__ = ["Arc"]

TABLE_NODES = 129
MAX_NEWTON = 64


class Arc:
    """The steady arc of (lam, alpha) as a function of u = sqrt(lam) s.

    Built from lam and the record ``mod`` of the slope alpha (``agm.Modulus``).
    ``quarter`` is the abscissa span from the crest to the zero crossing,
    which u covers on [0, K]; ``length`` is the arc length of one period,
    4 K / sqrt(lam), which is also the swing period.  ``odd`` evaluates
    the odd profile of period 4 quarter at any x.
    """

    def __init__(self, lam: float, mod: Modulus):
        if lam <= 0.0:
            raise DomainError(f"lambda must be positive, got {lam}")
        if mod.alpha < 0.0:
            raise DomainError(f"alpha must be nonnegative, got {mod.alpha}")
        self.lam = lam
        self.alpha, self.b, self.m, self.K, self._ratio = mod.alpha, mod.b, mod.m, mod.K, mod.Q
        self._rows = mod.a_s, mod.c_s
        self.root_lam = math.sqrt(lam)
        self.quarter = self.K * self._ratio / self.root_lam
        self.length = 4.0 * self.K / self.root_lam

    @cached_property
    def _table(self):
        """(u, x(u), dx/du) on TABLE_NODES uniform nodes of [0, K]: the inversion's start.

        The end abscissae are pinned to their closed forms 0 and ``quarter``,
        so x = quarter starts (and, within the rounding of the Landen zeta
        sum, stays) at u = K exactly: near b = 0, dx/du = b/sqrt(lam) there,
        and an ulp of x moves u, and so f', by about 1/b ulps.
        """
        u = np.linspace(0.0, self.K, TABLE_NODES)
        x, _, cn, _ = self._sweep(u)
        x[0], x[-1] = 0.0, self.quarter
        return u, x, self._dxdu(cn)

    def _sweep(self, u):
        """(x, sn, cn, dn) at u from one Landen sweep."""
        u = np.asarray(u, dtype=float)
        sn, cn, dn, zeta = _landen(np, u, self.m, *self._rows)
        return (self._ratio * u + 2.0 * zeta) / self.root_lam, sn, cn, dn

    def x(self, u):
        """Abscissa of the point at u, measured from the crest."""
        return self._sweep(u)[0]

    def _dxdu(self, cn):
        return (self.b + 2.0 * self.m * cn * cn) / self.root_lam

    def _profile(self, sn, cn, dn):
        fp = -2.0 * math.sqrt(self.m) * sn * dn / (self.b + 2.0 * self.m * cn * cn)
        return 2.0 * math.sqrt(self.m) * cn / self.root_lam, fp

    def profile(self, u):
        """(f, f') of the even profile, crest up, at u."""
        return self._profile(*self._sweep(u)[1:])

    def swing(self, u):
        """(theta, theta') of the pendulum swing at u, starting from the crest."""
        _, sn, cn, _ = self._sweep(u)
        return -2.0 * np.arcsin(math.sqrt(self.m) * sn), -2.0 * math.sqrt(self.lam * self.m) * cn

    def rising_quarter(self, x):
        """(f, f') on the quarter from the zero crossing (x = 0) to the crest (x = quarter)."""
        _, sn, cn, dn = self._invert(self.quarter - np.asarray(x, dtype=float))
        f, fp = self._profile(sn, cn, dn)
        return f, -fp

    def odd(self, x):
        """(f, f') of the odd profile, which rises through its zero crossing at x = 0, at any real x.

        Folds x onto the rising quarter by odd reflection.  With t = quarter,
        y = x mod 4 t and quadrant q = floor(y / t), and (F, G) the rising
        quarter:  q=0: (F(y), G(y));  q=1: (F(2t-y), -G(2t-y));
        q=2: (-F(y-2t), -G(y-2t));  q=3: (-F(4t-y), G(4t-y)).
        A folded abscissa within the rounding of the fold (4 eps period) is
        the zero crossing itself: linspace(0, 2 pi, 4k + 1)[2k] is
        pi + 4.4e-16, and near b = 0 f' changes by a relative 1e-8 over that
        distance.
        """
        t = self.quarter
        period = 4.0 * t
        snap = 4.0 * np.finfo(float).eps * period
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.mod(x, period)
        q = np.clip(np.floor_divide(y, t).astype(int), 0, 3)
        r = y - q * t
        folded = np.where(q % 2 == 0, r, t - r)
        folded = np.where(folded <= snap, 0.0, folded)
        # the quadrants fold a symmetric grid onto repeated abscissae
        distinct, inverse = np.unique(folded, return_inverse=True)
        f, g = self.rising_quarter(distinct)
        sign_f = np.where(q <= 1, 1.0, -1.0)
        sign_g = np.where((q == 0) | (q == 3), 1.0, -1.0)
        return sign_f * f[inverse], sign_g * g[inverse]

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
        tol_x = 8.0 * np.finfo(float).eps * self.K / self.root_lam
        tol_u = 4.0 * np.finfo(float).eps * self.K
        going = np.ones(x.size, dtype=bool)
        for _ in range(MAX_NEWTON):
            xu, sn, cn, dn = self._sweep(u)
            resid = xu - x
            step = resid / self._dxdu(cn)
            going &= (np.abs(resid) > tol_x) & (np.abs(step) > tol_u)
            if not going.any():
                return u.reshape(shape), sn.reshape(shape), cn.reshape(shape), dn.reshape(shape)
            lo = np.where(resid < 0.0, u, lo)
            hi = np.where(resid > 0.0, u, hi)
            new = u - step
            new = np.where((new < lo) | (new > hi), 0.5 * (lo + hi), new)
            u = np.where(going, new, u)
        raise ConvergenceError(
            f"arc inversion did not converge in {MAX_NEWTON} Newton steps "
            f"at {np.count_nonzero(going)} abscissae (lambda={self.lam:.12g}, alpha={self.alpha:.6g})"
        )
