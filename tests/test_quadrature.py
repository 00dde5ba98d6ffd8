"""Composite Gauss-Legendre quadrature: convergence and its refusal."""

import math

import numpy as np
import pytest

from muskat import ConvergenceError
from muskat.quadrature import gauss_panels


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
