"""The threshold constants from the AGM, and the log-gamma route they are checked against."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import beta, log_gamma
from scipy.integrate import quad

import muskat
from muskat.agm import Modulus


def beta_34_12_quadrature_oracle():
    """B(3/4, 1/2) by direct weighted quadrature of t^(-1/4) (1-t)^(-1/2)."""
    val, err = quad(lambda t: 1.0, 0.0, 1.0, weight="alg", wvar=(-0.25, -0.5))
    assert err < 1e-10
    return val


def test_log_gamma_known_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-13)


def test_log_gamma_matches_factorials():
    for n in range(3, 20):
        assert log_gamma(n) == pytest.approx(math.log(math.factorial(n - 1)), rel=1e-13)


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)


def test_beta_known_values():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)


def test_beta_domain():
    with pytest.raises(ValueError):
        beta(0.0, 1.0)
    with pytest.raises(ValueError):
        beta(1.0, -2.0)


def test_beta_34_12_against_quadrature():
    # the gamma route must reproduce the direct integral before the
    # constants are checked against it
    oracle = beta_34_12_quadrature_oracle()
    assert beta(0.75, 0.5) == pytest.approx(oracle, rel=1e-12)
    assert oracle == pytest.approx(2.3963, abs=5e-5)


@settings(max_examples=80, deadline=None)
@given(x=st.floats(0.02, 20.0), y=st.floats(0.02, 20.0))
def test_beta_symmetric(x, y):
    assert beta(x, y) == pytest.approx(beta(y, x), rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(x=st.floats(0.02, 20.0), y=st.floats(0.02, 20.0))
def test_beta_recurrence(x, y):
    lhs = beta(x + 1.0, y)
    rhs = beta(x, y) * x / (x + y)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_constants_derived_values():
    c = muskat.constants()
    oracle = beta_34_12_quadrature_oracle()
    assert c.lambda_star == pytest.approx(oracle**2 / (2.0 * math.pi**2), rel=1e-12)
    assert c.beta_3_4_1_2 == pytest.approx(beta(0.75, 0.5), rel=1e-15)
    assert c.lambda_star == pytest.approx(beta(0.75, 0.5) ** 2 / (2.0 * math.pi**2), rel=5e-15)
    assert c.lambda_star == pytest.approx(0.2909, abs=5e-5)
    assert c.h_star == pytest.approx(math.sqrt(2.0 / c.lambda_star), rel=1e-15)
    assert c.h_star == pytest.approx(2.622, abs=5e-4)
    assert 0.0 < c.lambda_star < 1.0


def test_constants_cached():
    assert muskat.constants() is muskat.constants()


def test_lambda_star_matches_period_limit():
    # at lambda_star the infinite-slope limit of the quarter period is pi/2,
    # so theta(lam, A) * 2 * sqrt(2 lam) approaches B(3/4, 1/2) as A grows
    c = muskat.constants()
    for lam in (0.4, 1.0, 2.5):
        val = muskat.theta(lam, 1e8) * 2.0 * math.sqrt(2.0 * lam)
        assert val == pytest.approx(c.beta_3_4_1_2, abs=1e-7)
    assert muskat.theta_limit_infinity(c.lambda_star) == pytest.approx(0.5 * math.pi, rel=1e-14)


def test_constants_within_an_ulp_or_two_of_mpmath():
    # K(1/2) from one AGM: lambda_star = 1/K^2, h_star = sqrt(2) K and
    # B(3/4, 1/2) = pi sqrt(2)/K (Legendre's relation at m = 1/2)
    c = muskat.constants()
    with mpmath.workdps(40):
        k = mpmath.ellipk(mpmath.mpf(1) / 2)
        exact = {"lambda_star": 1 / k**2, "h_star": mpmath.sqrt(2) * k, "beta_3_4_1_2": mpmath.beta(0.75, 0.5)}
        for name, ulps in (("lambda_star", 2), ("h_star", 1), ("beta_3_4_1_2", 1)):
            value = getattr(c, name)
            assert abs(mpmath.mpf(value) - exact[name]) <= ulps * math.ulp(value), name


def test_lambda_star_is_the_branch_value_at_b_zero():
    # one rounding of lambda_star: the branch parameter at infinite slope
    assert muskat.constants().lambda_star == Modulus.of_alpha(math.inf).lam
    assert muskat.constants().lambda_star == Modulus.of_b(0.0).lam
