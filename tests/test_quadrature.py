"""Composite Gauss-Legendre quadrature (``branch.gauss_panels``) and the cumulative oracle rule."""

import math

import numpy as np
import pytest
from oracles import cumulative_gauss

from muskat import ConvergenceError
from muskat.branch import gauss_panels


def test_smooth_integrand_converges():
    assert gauss_panels(np.cos, 0.0, 0.5 * math.pi) == pytest.approx(1.0, abs=1e-15)


def test_unconverged_estimate_is_refused():
    # a sqrt kink inside the interval: 64 panels of 64 nodes reach only
    # ~1e-6 (0.49118825 against the exact 0.49118743), never tol = 1e-12
    exact = (2.0 / 3.0) * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
    assert exact == pytest.approx(0.49118743, abs=1e-8)
    with pytest.raises(ConvergenceError, match="64 panels"):
        gauss_panels(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0, tol=1e-12)
    # the same rule converges once the tolerance is within its reach
    loose = gauss_panels(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0, tol=1e-5)
    assert loose == pytest.approx(exact, abs=1e-5)


def test_cumulative_gauss_hands_each_interval_its_own_row():
    # a different cubic on each interval of non-uniform knots: row k of the
    # nodes must lie on interval k for the per-row coefficients to apply
    rng = np.random.default_rng(3)
    knots = np.cumsum(np.concatenate([[0.0], rng.uniform(0.01, 0.2, 40)]))
    coef = rng.uniform(-1.0, 1.0, (40, 4))
    a = knots[:-1, None]

    def piecewise(nodes):
        d = nodes - a
        return coef[:, :1] + coef[:, 1:2] * d + coef[:, 2:3] * d**2 + coef[:, 3:] * d**3

    h = np.diff(knots)
    exact = np.concatenate([[0.0], np.cumsum(sum(coef[:, p] * h ** (p + 1) / (p + 1) for p in range(4)))])
    assert np.max(np.abs(cumulative_gauss(piecewise, knots) - exact)) <= 1e-15
