"""Composite Gauss-Legendre quadrature for smooth integrands.

Endpoint singularities are removed analytically by the callers (e.g. the
``tau = sin(phi)`` substitution in the quarter-period oracle of the test
suite), so a panel-doubling Gauss rule with a Richardson-style stopping
estimate is all that is needed here.  ``gauss_panels`` serves the generic
``branch.fourier_sine_coefficient`` and the test oracles.
``cumulative_gauss`` has no library caller: ``pendulum.from_pendulum``
integrates its swing in closed form.  It stays as an oracle for the tests,
and because the benchmark's tracer wraps it by name.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConvergenceError

__all__ = ["cumulative_gauss", "gauss_panels"]


@lru_cache(maxsize=8)
def _nodes(n: int):
    return np.polynomial.legendre.leggauss(n)


def gauss_panels(fn, a, b, tol=1e-12, n_nodes=64, max_panels=64):
    """Integrate a smooth vectorised ``fn`` over [a, b].

    Starts from a single ``n_nodes``-point panel and doubles the panel count
    until two successive estimates agree to ``tol``.  Raises
    ConvergenceError if they do not by ``max_panels`` panels (for the
    analytic integrands used in this package one or two panels converge).
    """
    x, w = _nodes(n_nodes)
    prev = None
    panels = 1
    while True:
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        mids = 0.5 * (edges[:-1] + edges[1:])
        nodes = (mids[:, None] + half * x[None, :]).ravel()
        cur = half * float(np.dot(fn(nodes).reshape(panels, n_nodes).sum(axis=0), w))
        if prev is not None and abs(cur - prev) <= tol:
            return cur
        if panels >= max_panels:
            raise ConvergenceError(
                f"Gauss quadrature on [{a:.6g}, {b:.6g}] not converged to tol={tol:g} "
                f"at {panels} panels (estimate {cur:.16g})"
            )
        prev = cur
        panels *= 2


def cumulative_gauss(fn, knots, n_nodes=8):
    """Cumulative integral of ``fn`` at ``knots`` (per-interval Gauss rule).

    Returns an array c with c[0] = 0 and c[k] = integral from knots[0] to
    knots[k].  The knots need not be uniformly spaced but must increase.
    ``fn`` gets the nodes as an (n_intervals, n_nodes) array whose row k
    lies on [knots[k], knots[k + 1]], and returns its values in that shape.
    """
    knots = np.asarray(knots, dtype=float)
    x, w = _nodes(n_nodes)
    a, b = knots[:-1], knots[1:]
    half = 0.5 * (b - a)
    mids = 0.5 * (a + b)
    vals = fn(mids[:, None] + half[:, None] * x[None, :])
    out = np.empty(knots.size, dtype=float)
    out[0] = 0.0
    np.cumsum(half * (vals @ w), out=out[1:])
    return out
