"""Correspondence between even steady profiles and odd pendulum swings.

An even profile f, reparametrised by arc length s from its crest, maps to
theta(s) = arctan f'(x(s)), which solves the pendulum equation
theta'' + lam sin(theta) = 0 with |theta| < pi/2 and theta(0) = 0; the
derivative satisfies theta'(s) = -lam f(x(s)).  With u = sqrt(lam) s and
m = (1 - b)/2, b = 1/sqrt(1 + alpha^2), the swing is the Jacobi arc

    theta = -2 asin(sqrt(m) sn(u|m)),   theta' = -2 sqrt(lam m) cn(u|m),

of amplitude arctan(alpha) (``elliptic.Arc``); ``to_pendulum`` samples it.
The inverse map is generic: it rebuilds the profile from any sampled
swing by integrating cos(theta) for the abscissa, in closed form as the
exact integral of the Hermite cubic of cos(theta) through the samples,
and reading f from -theta'/lam.  The swing period is L = 4 K(m)/sqrt(lam).
Along the branch sqrt(lam) = 2 (2 E(m) - K(m))/pi (the quarter period is
pi/2), so

    L = 2 pi K(m) / (2 E(m) - K(m)),

a function of the slope alone, strictly decreasing in lam from
4 K(1/2)^2 = 4/lambda_star at the blow-up end to 2 pi at lam = 1.
``pendulum_period`` reads this branch form 2 pi/Q off the record of the
slope solve at lam; ``to_pendulum`` reports 4 K/sqrt(lam) at the given
lam, so the two agree to the rounding of the slope solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import curve
from .agm import Modulus, constants
from .branch import SolutionProfile
from .elliptic import Arc
from .errors import DomainError, OutOfRangeError, ParityError, SingularityError

__all__ = [
    "PendulumTrajectory",
    "from_pendulum",
    "lambda_of_period",
    "pendulum_period",
    "to_pendulum",
]


@dataclass
class PendulumTrajectory:
    """One period of an odd pendulum swing, sampled in arc length.

    ``theta_max`` is the swing amplitude sup |theta| = arctan(alpha),
    reached at the profile's zero crossing, not just the sampled maximum.
    """

    lam: float
    s: np.ndarray
    theta: np.ndarray
    theta_prime: np.ndarray
    period_L: float
    theta_max: float


#: relative mismatch between a profile's crest and the arc of its (lam, alpha)
CREST_REL_TOL = 1e-6


def _sample_swing(lam: float, mod: Modulus, n_samples: int, sign: float = 1.0) -> PendulumTrajectory:
    """The swing of the Jacobi arc of (lam, mod), sampled uniformly in arc length over one period.

    ``sign`` is the sign of the profile's crest f(0).
    """
    arc = Arc(lam, mod)
    s = np.linspace(0.0, arc.length, n_samples)
    theta, theta_prime = arc.swing(arc.root_lam * s)
    return PendulumTrajectory(
        lam=lam,
        s=s,
        theta=sign * theta,
        theta_prime=sign * theta_prime,
        period_L=arc.length,
        theta_max=math.atan(mod.alpha),
    )


def to_pendulum(profile: SolutionProfile, n_samples: int = 1024) -> PendulumTrajectory:
    """Map an even profile to its pendulum swing.

    The swing is the closed-form Jacobi arc of (profile.lam, profile.alpha),
    sampled uniformly in arc length over one period L = 4 K(m)/sqrt(lam),
    with the sign of the profile's crest f(0).  Raises DomainError when the
    crest height does not match the arc (the profile is not the steady
    profile of its own lam and alpha).
    """
    if profile.parity != "even":
        raise ParityError(f"to_pendulum requires an even profile, got parity={profile.parity!r}")
    crest = float(profile.f[0])
    height = curve.max_amplitude(profile.lam, profile.alpha)
    if abs(abs(crest) - height) > CREST_REL_TOL * max(height, 1.0):
        raise DomainError(
            f"crest f(0)={crest:.12g} does not match the arc height {height:.12g} "
            f"of lambda={profile.lam:.12g}, alpha={profile.alpha:.6g}"
        )
    sign = -1.0 if crest < 0.0 else 1.0
    return _sample_swing(profile.lam, Modulus.of_alpha(profile.alpha), n_samples, sign)


def _hermite(x, y, dydx):
    """Piecewise cubic Hermite interpolant through (x, y) with slopes dydx.

    Returns a function of t giving (value, slope); outside [x[0], x[-1]]
    the end cubics extend.  Coefficients and summation order (ascending
    powers of t - x[j]) are those of scipy.interpolate.CubicHermiteSpline.
    """
    x, y, dydx = (np.asarray(v, dtype=float) for v in (x, y, dydx))
    # the cubic on [x[j], x[j+1]] is y[j] + dydx[j] d + c2[j] d^2 + c3[j] d^3, d = t - x[j]
    h = np.diff(x)
    slope = np.diff(y) / h
    t3 = (dydx[:-1] + dydx[1:] - 2.0 * slope) / h
    c2, c3 = (slope - dydx[:-1]) / h - t3, t3 / h

    def ev(t):
        t = np.asarray(t, dtype=float)
        j = np.clip(np.searchsorted(x, t, side="right") - 1, 0, c2.size - 1)
        d = t - x[j]
        d2 = d * d
        value = y[j] + dydx[j] * d + c2[j] * d2 + c3[j] * (d2 * d)
        return value, dydx[j] + (2.0 * c2[j]) * d + (3.0 * c3[j]) * d2

    return ev


def _swing_abscissae(s, theta, theta_prime):
    """Abscissae z(s[k]) = int_0^s[k] cos(theta) of a sampled swing, z[0] = 0.

    The exact integral of the Hermite cubic of cos(theta), whose knot
    slopes are c' = -theta' sin(theta): over [s[k], s[k+1]] of length h
    it is h/2 (c[k] + c[k+1]) + h^2/12 (c'[k] - c'[k+1]), on any
    increasing knots.  On uniform knots the slope terms telescope, so the
    span z[-1] of a whole period is the periodic trapezoid rule, accurate
    to rounding (Trefethen & Weideman 2014; Euler-Maclaurin, DLMF 2.10(i)).
    """
    c = np.cos(theta)
    dc = -theta_prime * np.sin(theta)
    h = np.diff(s)
    z = np.empty_like(s)
    z[0] = 0.0
    np.cumsum(0.5 * h * (c[:-1] + c[1:]) + (h * h / 12.0) * (dc[:-1] - dc[1:]), out=z[1:])
    return z


def from_pendulum(traj: PendulumTrajectory, n_samples: int = 1024) -> SolutionProfile:
    """Rebuild the even profile from a sampled pendulum swing.

    Accumulates z(s) = int cos(theta) in closed form, as the exact
    integral of the Hermite cubic of cos(theta) through the samples (the
    sampled theta' are the exact knot derivatives), and reads the profile
    from f(z(s)) = -theta'(s)/lam, f'(z(s)) = tan(theta(s)) by a Hermite
    spline on those abscissae.  Refuses swings that come within 1e-6 of
    |theta| = pi/2, where the tangent map degenerates.
    """
    lam = traj.lam
    margin = 0.5 * math.pi - float(np.max(np.abs(traj.theta)))
    if margin < 1e-6:
        raise SingularityError(
            f"pendulum angle within {margin:.3e} of pi/2; tangent map refused"
        )
    s, theta, theta_prime = (np.asarray(v, dtype=float) for v in (traj.s, traj.theta, traj.theta_prime))
    z_knots = _swing_abscissae(s, theta, theta_prime)
    T = float(z_knots[-1])
    prof_spline = _hermite(z_knots, -theta_prime / lam, np.tan(theta))

    def ev(x):
        return prof_spline(np.mod(np.atleast_1d(np.asarray(x, dtype=float)), T))

    xs = np.linspace(0.0, T, n_samples)
    f, fp = ev(xs)
    return SolutionProfile(
        lam=lam,
        alpha=math.tan(traj.theta_max),
        period=T,
        parity="even",
        x=xs,
        f=f,
        f_prime=fp,
        evaluate=ev,
    )


def pendulum_period(lam: float) -> float:
    """Swing period of the pendulum matched to the branch profile at lam.

    L = 2 pi K(m)/(2 E(m) - K(m)) = 2 pi/Q, read off the record of the
    slope alpha(lam), solved to rounding.  Equals 2*pi at lam = 1 and is
    strictly decreasing in lam.  Raises OutOfRangeError outside
    (lambda_star, 1].
    """
    return 2.0 * math.pi / curve._modulus_of_lambda(lam).Q


def lambda_of_period(L: float) -> float:
    """Branch parameter whose swing period is L (inverse of pendulum_period).

    Among all pendulum swings, those corresponding to steady profiles of
    circle period 2*pi form the one-parameter family lam in
    (lambda_star, 1] with L(lam) decreasing from 4/lambda_star down to
    2*pi.  Along the branch L = 2 pi/Q and lam = (2 K Q/pi)^2 are both
    explicit in b = 1/sqrt(1 + alpha^2), so this is one Newton iteration
    in b on Q(b) = 2 pi/L, to rounding.  Raises OutOfRangeError outside the
    window [2*pi, 4/lambda_star): below 2*pi, and where the solve lands on
    b = 0, lam = lambda_star, which is not a branch point.
    """
    two_pi = 2.0 * math.pi
    lambda_star = constants().lambda_star
    window = (two_pi, 4.0 / lambda_star)
    if L < two_pi - 1e-12:
        raise OutOfRangeError(L, window, f"no swing period below 2*pi, got {L}")
    if L <= two_pi:
        return 1.0
    target = two_pi / L

    def residual(b):
        # dQ/db = 1/2 + (S - m)^2/(2 m (1 - m)), from dK/db and d(2E - K)/db
        mod = Modulus.of_b(b)
        m = mod.m
        return mod.Q - target, 0.5 if m == 0.0 else 0.5 + (mod.S - m) ** 2 / (2.0 * m * (1.0 - m)), mod

    # Q rises from Q(0) = pi lambda_star/2 to Q(1) = 1 about linearly in b
    q0 = 0.5 * math.pi * lambda_star
    lam = curve._newton_b(residual, min(max((target - q0) / (1.0 - q0), 0.0), 1.0)).lam
    if lam <= lambda_star:
        raise OutOfRangeError(L, window, f"swing period L={L:.12g} outside the branch window "
                                         f"({window[0]:.12g}, {window[1]:.12g})")
    return lam
