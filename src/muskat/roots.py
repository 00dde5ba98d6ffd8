"""Bracketing root finder: Brent's method, as scipy.optimize.brentq runs it.

A line-for-line port of scipy's ``brentq`` (its C routine ``brentq.c``
and the Python wrapper around it): the same defaults, the same iteration
and so, for the same ``f`` and bracket, the same iterates and the same
root, bit for bit.  The method keeps a bracket [xcur, xblk] with a sign
change and takes inverse quadratic (or secant) steps when they fall well
inside it, bisection otherwise (Brent, Algorithms for Minimization
Without Derivatives, 1973, ch. 4).  Where scipy raises ValueError this
raises DomainError, and ConvergenceError where scipy raises RuntimeError.
"""

from __future__ import annotations

import math
import sys

from .errors import ConvergenceError, DomainError

__all__ = ["brentq"]

XTOL = 2e-12
RTOL = 4.0 * sys.float_info.epsilon
MAXITER = 100


def brentq(f, a: float, b: float, xtol: float = XTOL, rtol: float = RTOL, maxiter: int = MAXITER) -> float:
    """A root of ``f`` in [a, b], where f(a) and f(b) have opposite signs.

    The root x0 returned satisfies |x - x0| <= xtol + rtol |x0| for the
    exact root x.  Raises DomainError for a bracket without a sign change,
    an ``f`` value that is NaN, or tolerances below scipy's floors, and
    ConvergenceError when ``maxiter`` iterations do not converge.
    """
    if xtol <= 0.0:
        raise DomainError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL:
        raise DomainError(f"rtol too small ({rtol:g} < {RTOL:g})")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise DomainError(f"the function value at x={x} is NaN; the solver cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise DomainError(f"f(a) and f(b) must have different signs (f({a})={fpre:g}, f({b})={fcur:g})")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = value(xcur)
    raise ConvergenceError(f"brentq failed to converge after {maxiter} iterations, value is {xcur!r}")
