"""Quarter-period integral: closed forms, monotonicity, derivative."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dtheta_dalpha_gauss, quarter_period, theta_gauss
from scipy.integrate import quad

import muskat
from muskat import DomainError
from muskat.agm import Modulus
from muskat.elliptic import Arc

#: 37 slopes from 1e-6 to 1e12, five per decade
ALPHAS = np.logspace(-6.0, 12.0, 37).tolist()


def test_closed_form_at_zero_slope():
    assert muskat.theta(1.0, 0.0) == pytest.approx(math.pi / 2, abs=1e-12)
    assert muskat.theta(4.0, 0.0) == pytest.approx(math.pi / 4, abs=1e-12)


@pytest.mark.parametrize("lam,expected", [(1.0, math.pi / 2), (4.0, math.pi / 4), (0.25, math.pi)])
def test_theta_limit_zero(lam, expected):
    assert muskat.theta_limit_zero(lam) == pytest.approx(expected, rel=1e-15)


def test_large_slope_against_quadrature_oracle():
    # steep-profile limit integrand tau^2 / sqrt(1 - tau^4), integrated with
    # the (1-tau)^(-1/2) weight split off
    oracle, err = quad(
        lambda t: t * t / math.sqrt((1.0 + t) * (1.0 + t * t)),
        0.0,
        1.0,
        weight="alg",
        wvar=(0.0, -0.5),
    )
    assert err < 1e-10
    limit = math.sqrt(2.0) * oracle  # sqrt(2/lam) * integral at lam = 1
    assert limit == pytest.approx(0.8472, abs=5e-5)
    assert muskat.theta(1.0, 1e6) == pytest.approx(limit, abs=2e-6)
    assert muskat.theta_limit_infinity(1.0) == pytest.approx(limit, rel=1e-12)


def test_theta_limit_infinity_scaling():
    assert muskat.theta_limit_infinity(4.0) == pytest.approx(
        0.5 * muskat.theta_limit_infinity(1.0), rel=1e-15
    )


def test_continuity_at_zero_slope():
    assert muskat.theta(0.7, 1e-8) == pytest.approx(muskat.theta(0.7, 0.0), abs=1e-10)


def test_domain_errors():
    for bad in (0.0, -1.0):
        with pytest.raises(DomainError):
            muskat.theta(bad, 1.0)
        with pytest.raises(DomainError):
            muskat.theta_limit_zero(bad)
        with pytest.raises(DomainError):
            muskat.theta_limit_infinity(bad)
    with pytest.raises(DomainError):
        muskat.theta(1.0, -0.5)
    with pytest.raises(DomainError):
        muskat.dtheta_dalpha(1.0, 0.0)
    with pytest.raises(DomainError):
        muskat.dtheta_dalpha(1.0, -2.0)


@settings(max_examples=50, deadline=None)
@given(lam=st.floats(0.05, 4.0), alpha=st.floats(0.0, 30.0), gap=st.floats(0.01, 5.0))
def test_strictly_decreasing_in_alpha(lam, alpha, gap):
    assert muskat.theta(lam, alpha + gap) < muskat.theta(lam, alpha)


@settings(max_examples=50, deadline=None)
@given(lam=st.floats(0.05, 4.0), alpha=st.floats(0.0, 30.0), gap=st.floats(0.01, 2.0))
def test_strictly_decreasing_in_lambda(lam, alpha, gap):
    assert muskat.theta(lam + gap, alpha) < muskat.theta(lam, alpha)


@settings(max_examples=50, deadline=None)
@given(lam=st.floats(0.05, 4.0), alpha=st.floats(0.0, 30.0))
def test_bracketing(lam, alpha):
    th = muskat.theta(lam, alpha)
    assert muskat.theta_limit_infinity(lam) < th <= muskat.theta_limit_zero(lam) + 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.4, 1.7, 12.0])
def test_sqrt_lambda_scaling(alpha):
    ref = muskat.theta(1.0, alpha)
    for lam in (0.3, 0.5, 2.0):
        assert muskat.theta(lam, alpha) * math.sqrt(lam) == pytest.approx(ref, abs=1e-10)


@pytest.mark.parametrize("lam,alpha", [(1.0, 1.0), (0.5, 2.0)])
def test_dtheta_dalpha_matches_finite_difference(lam, alpha):
    d = muskat.dtheta_dalpha(lam, alpha)
    assert d < 0.0
    step = 1e-5
    fd = (muskat.theta(lam, alpha + step) - muskat.theta(lam, alpha - step)) / (2.0 * step)
    assert d == pytest.approx(fd, abs=1e-6)


def test_dtheta_dalpha_huge_slope_is_finite():
    d = muskat.dtheta_dalpha(1.0, 1e8)
    assert d < 0.0
    assert abs(d) < 1e-15  # flat in the saturation regime


@pytest.mark.parametrize("lam,alpha", [(0.5, 0.5), (1.0, 2.0), (0.35, 8.0)])
def test_consistency_with_ode_route(lam, alpha):
    assert muskat.theta(lam, alpha) == pytest.approx(
        quarter_period(lam, alpha, tol=1e-11), abs=1e-8
    )


@pytest.mark.parametrize("lam", [0.3, 0.5, 1.0, 2.0])
def test_closed_form_against_mpmath_and_gauss(lam):
    # (2E - K)/sqrt(lam) at m = (1 - b)/2, with b from the float alpha exactly
    with mpmath.workdps(40):
        for alpha in ALPHAS:
            b = 1 / mpmath.sqrt(1 + mpmath.mpf(alpha) ** 2)
            m = (1 - b) / 2
            exact = (2 * mpmath.ellipe(m) - mpmath.ellipk(m)) / mpmath.sqrt(lam)
            got = muskat.theta(lam, alpha)
            assert abs(got / exact - 1) <= 2e-15, alpha
            assert got == pytest.approx(theta_gauss(lam, alpha), rel=2e-15), alpha


@pytest.mark.parametrize("lam", [0.3, 1.0])
def test_dtheta_dalpha_against_gauss_oracle(lam):
    for alpha in ALPHAS:
        assert muskat.dtheta_dalpha(lam, alpha) == pytest.approx(
            dtheta_dalpha_gauss(lam, alpha), rel=2e-15
        ), alpha


@pytest.mark.parametrize("lam", [0.3, 1.0, 2.0])
def test_arc_quarter_is_theta(lam):
    for alpha in [0.0, *ALPHAS, math.inf]:
        assert Arc(lam, Modulus.of_alpha(alpha)).quarter == muskat.theta(lam, alpha)
