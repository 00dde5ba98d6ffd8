"""The Brent port against scipy.optimize.brentq, which serves only as the oracle."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

import muskat
from muskat import ConvergenceError, DomainError
from muskat.period import theta
from muskat.roots import brentq


def _slope_bracket(lam):
    """The bracket [0, hi] that alpha_of_lambda hands to the root finder."""
    hi = 1.0
    while theta(lam, hi) >= 0.5 * math.pi:
        hi *= 2.0
    return hi


def test_bitwise_equal_to_scipy_on_theta_solves():
    lam_star = muskat.constants().lambda_star
    rng = np.random.default_rng(20131)
    gaps = np.concatenate([10.0 ** rng.uniform(-8.0, -1.0, 150), rng.uniform(0.05, 0.7, 50)])
    solves = 0
    for lam in (lam_star + gaps).tolist():
        f = lambda a: theta(lam, a) - 0.5 * math.pi  # noqa: E731
        hi = _slope_bracket(lam)
        for xtol in (1e-12, 2e-12):
            ours, theirs = brentq(f, 0.0, hi, xtol=xtol), scipy_brentq(f, 0.0, hi, xtol=xtol)
            assert ours == theirs, (lam, xtol)
            solves += 1
    assert solves >= 200


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
        (lambda x: math.exp(x) - 10.0, -5.0, 5.0),
        (lambda x: x, -1.0, 1.0),
        (lambda x: (x - 0.3) ** 5, 0.0, 1.0),
    ],
)
def test_bitwise_equal_to_scipy_on_classic_roots(f, a, b):
    # the quintic's flat root exhausts maxiter at tight xtol in both
    def outcome(solver, error, xtol):
        try:
            return solver(f, a, b, xtol=xtol)
        except error:
            return "no convergence"

    for xtol in (1e-300, 1e-12, 1e-4):
        assert outcome(brentq, ConvergenceError, xtol) == outcome(scipy_brentq, RuntimeError, xtol)


def test_endpoint_roots_are_returned_as_given():
    assert brentq(lambda x: x - 1.0, 1.0, 2.0) == 1.0
    assert brentq(lambda x: x - 2.0, 1.0, 2.0) == 2.0


def test_step_bound_raises_named_error():
    f = lambda x: (x - 0.3) ** 5  # noqa: E731
    with pytest.raises(RuntimeError):
        scipy_brentq(f, 0.0, 1.0, xtol=1e-300, maxiter=3)
    with pytest.raises(ConvergenceError, match="3 iterations"):
        brentq(f, 0.0, 1.0, xtol=1e-300, maxiter=3)


def test_bracket_without_sign_change_raises_named_error():
    with pytest.raises(DomainError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(DomainError, match="NaN"):
        brentq(lambda x: math.nan if x > 0.5 else -1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        brentq(lambda x: x, -1.0, 1.0, xtol=0.0)
    with pytest.raises(DomainError):
        brentq(lambda x: x, -1.0, 1.0, rtol=1e-17)
