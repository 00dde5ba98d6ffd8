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
Landen recurrence on those rows, ``agm._landen`` (the scalar expansion
coefficient calls the same code with ``math``),
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

The sweep, the inversion table, the Hermite start, the safeguarded Newton
inversion, the quadrant fold and the swing are written once, like
``agm._landen``, against an array namespace ``xp`` in the names of the
Python array API standard.  The public methods run them with numpy on
arrays of any shape, which the library's profiles and swings use; the
``profile`` and ``pendulum`` commands run the same private methods with
``MATH``, ``math`` under those names, one float at a time.  Only the
numpy methods import numpy, so the ``MATH`` binding runs without it.
"""

from __future__ import annotations

import bisect
import math

from .agm import _EPS, Modulus, _landen
from .errors import ConvergenceError, DomainError

__all__ = ["MATH", "Arc"]

TABLE_NODES = 129
MAX_NEWTON = 64


class _Math:
    """``math`` on one float at a time, with the array API names the arc uses beyond it.

    ``searchsorted`` takes a sorted list, and ``linspace`` returns the list
    j (stop - start)/(num - 1) + start with its last point set to stop,
    which is bitwise ``np.linspace`` for num >= 2.  ``clip`` keeps x's sign
    of zero and its NaN, as ``np.clip`` does.
    """

    sin, cos, sqrt, asin = math.sin, math.cos, math.sqrt, math.asin

    @staticmethod
    def where(condition, x1, x2):
        return x1 if condition else x2

    @staticmethod
    def clip(x, lo, hi):
        return min(max(x, lo), hi)

    @staticmethod
    def any(x):
        return bool(x)

    @staticmethod
    def count_nonzero(x):
        return int(bool(x))

    @staticmethod
    def searchsorted(a, v):
        return bisect.bisect_left(a, v)

    @staticmethod
    def linspace(start, stop, num):
        step = (stop - start) / (num - 1)
        values = [j * step + start for j in range(num)]
        values[-1] = stop
        return values


#: the scalar binding of the arc's namespace-generic methods
MATH = _Math()


class Arc:
    """The steady arc of (lam, alpha) as a function of u = sqrt(lam) s.

    Built from lam and the record ``mod`` of the slope alpha (``agm.Modulus``).
    ``quarter`` is the abscissa span from the crest to the zero crossing,
    which u covers on [0, K]; ``length`` is the arc length of one period,
    4 K / sqrt(lam), which is also the swing period.  ``odd`` evaluates
    the odd profile of period 4 quarter at any x.  The public methods take
    and return numpy arrays; the private ones take the namespace ``xp``
    first and run on numpy arrays or, with ``MATH``, on one float.
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
        self._tables = {}

    # numpy: arrays of any shape --------------------------------------------
    def x(self, u):
        """Abscissa of the point at u, measured from the crest."""
        import numpy as np

        return self._sweep(np, np.asarray(u, dtype=float))[0]

    def profile(self, u):
        """(f, f') of the even profile, crest up, at u."""
        import numpy as np

        return self._profile(*self._sweep(np, np.asarray(u, dtype=float))[1:])

    def swing(self, u):
        """(theta, theta') of the pendulum swing at u, starting from the crest."""
        import numpy as np

        return self._swing(np, np.asarray(u, dtype=float))

    def rising_quarter(self, x):
        """(f, f') on the quarter from the zero crossing (x = 0) to the crest (x = quarter)."""
        import numpy as np

        x = np.asarray(x, dtype=float)
        return tuple(v.reshape(x.shape) for v in self._rising(np, x.ravel()))

    def odd(self, x):
        """(f, f') of the odd profile, which rises through its zero crossing at x = 0, at any real x.

        Folds x onto the rising quarter (``_fold``) and inverts each distinct
        folded abscissa once: the quadrants fold a symmetric grid onto
        repeated abscissae.
        """
        import numpy as np

        folded, sign_f, sign_g = self._fold(np, np.atleast_1d(np.asarray(x, dtype=float)))
        distinct, inverse = np.unique(folded, return_inverse=True)
        f, g = self.rising_quarter(distinct)
        return sign_f * f[inverse], sign_g * g[inverse]

    def u_of_x(self, x):
        """The u in [0, K] whose abscissa is x, for x in [0, quarter]."""
        import numpy as np

        x = np.asarray(x, dtype=float)
        return self._invert(np, x.ravel())[0].reshape(x.shape)

    # one source, in the namespace xp ------------------------------------------
    def _sweep(self, xp, u):
        """(x, sn, cn, dn) at u from one Landen sweep."""
        sn, cn, dn, zeta = _landen(xp, u, self.m, *self._rows)
        return (self._ratio * u + 2.0 * zeta) / self.root_lam, sn, cn, dn

    def _dxdu(self, cn):
        return (self.b + 2.0 * self.m * cn * cn) / self.root_lam

    def _profile(self, sn, cn, dn):
        fp = -2.0 * math.sqrt(self.m) * sn * dn / (self.b + 2.0 * self.m * cn * cn)
        return 2.0 * math.sqrt(self.m) * cn / self.root_lam, fp

    def _swing(self, xp, u):
        _, sn, cn, _ = self._sweep(xp, u)
        return -2.0 * xp.asin(math.sqrt(self.m) * sn), -2.0 * math.sqrt(self.lam * self.m) * cn

    def _table(self, xp):
        """(u, x(u), dx/du) on TABLE_NODES uniform nodes of [0, K]: the inversion's start.

        The end abscissae are pinned to their closed forms 0 and ``quarter``,
        so x = quarter starts (and, within the rounding of the Landen zeta
        sum, stays) at u = K exactly: near b = 0, dx/du = b/sqrt(lam) there,
        and an ulp of x moves u, and so f', by about 1/b ulps.  Built once
        per namespace; ``MATH`` sweeps its list of nodes one at a time.
        """
        table = self._tables.get(xp)
        if table is None:
            u = xp.linspace(0.0, self.K, TABLE_NODES)
            if xp is MATH:
                x, _, cn, _ = (list(v) for v in zip(*(self._sweep(xp, node) for node in u)))
                dxdu = [self._dxdu(c) for c in cn]
            else:
                x, _, cn, _ = self._sweep(xp, u)
                dxdu = self._dxdu(cn)
            x[0], x[-1] = 0.0, self.quarter
            table = self._tables[xp] = u, x, dxdu
        return table

    def _rising(self, xp, x):
        """(f, f') on the rising quarter at x, from the crest abscissa quarter - x."""
        _, sn, cn, dn = self._invert(xp, self.quarter - x)
        f, fp = self._profile(sn, cn, dn)
        return f, -fp

    def _fold(self, xp, x):
        """x folded onto the rising quarter by odd reflection, and the signs of f and f' there.

        With t = quarter, y = x mod 4 t and quadrant q = floor(y / t), and
        (F, G) the rising quarter:  q=0: (F(y), G(y));  q=1: (F(2t-y), -G(2t-y));
        q=2: (-F(y-2t), -G(y-2t));  q=3: (-F(4t-y), G(4t-y)).
        A folded abscissa within the rounding of the fold (4 eps period) is
        the zero crossing itself: linspace(0, 2 pi, 4k + 1)[2k] is
        pi + 4.4e-16, and near b = 0 f' changes by a relative 1e-8 over that
        distance.
        """
        t = self.quarter
        period = 4.0 * t
        snap = 4.0 * _EPS * period
        y = x % period
        q = xp.clip(y // t, 0.0, 3.0)
        r = y - q * t
        folded = xp.where(q % 2 == 0, r, t - r)
        folded = xp.where(folded <= snap, 0.0, folded)
        return folded, xp.where(q <= 1, 1.0, -1.0), xp.where((q == 0) | (q == 3), 1.0, -1.0)

    def _odd(self, xp, x):
        """(f, f') of the odd profile at x, folded and inverted as it comes."""
        folded, sign_f, sign_g = self._fold(xp, x)
        f, g = self._rising(xp, folded)
        return sign_f * f, sign_g * g

    def _invert(self, xp, x):
        """u(x) and (sn, cn, dn) there, by safeguarded Newton, for x clipped to [0, quarter].

        dx/du = (b + 2 m cn^2)/sqrt(lam) >= b/sqrt(lam).  The start is the
        cubic Hermite interpolant of u(x) on a table of x(u) over a uniform
        u grid, and a step that leaves the table cell's bracket is replaced
        by bisection.  Raises ConvergenceError if MAX_NEWTON steps do not
        reach the rounding floor.
        """
        x = xp.clip(x, 0.0, self.quarter)
        u_nodes, x_nodes, dxdu_nodes = self._table(xp)
        j = xp.clip(xp.searchsorted(x_nodes, x), 1, TABLE_NODES - 1)
        lo, hi = u_nodes[j - 1], u_nodes[j]
        x0, x1 = x_nodes[j - 1], x_nodes[j]
        h = x1 - x0
        t = (x - x0) / h
        s = 1.0 - t
        m0, m1 = h / dxdu_nodes[j - 1], h / dxdu_nodes[j]
        u = (1.0 + 2.0 * t) * (s * s) * lo + t * t * (3.0 - 2.0 * t) * hi + t * s * (s * m0 - t * m1)
        u = xp.clip(u, lo, hi)
        tol_x = 8.0 * _EPS * self.K / self.root_lam
        tol_u = 4.0 * _EPS * self.K
        going = True
        for _ in range(MAX_NEWTON):
            xu, sn, cn, dn = self._sweep(xp, u)
            resid = xu - x
            step = resid / self._dxdu(cn)
            going = going & (abs(resid) > tol_x) & (abs(step) > tol_u)
            if not xp.any(going):
                return u, sn, cn, dn
            lo = xp.where(resid < 0.0, u, lo)
            hi = xp.where(resid > 0.0, u, hi)
            new = u - step
            new = xp.where((new < lo) | (new > hi), 0.5 * (lo + hi), new)
            u = xp.where(going, new, u)
        raise ConvergenceError(
            f"arc inversion did not converge in {MAX_NEWTON} Newton steps "
            f"at {xp.count_nonzero(going)} abscissae (lambda={self.lam:.12g}, alpha={self.alpha:.6g})"
        )
