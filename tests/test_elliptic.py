"""Closed-form Jacobi arc: mpmath oracle on structured grids, inversion, swing."""

import math

import mpmath
import numpy as np
import pytest

import muskat
from muskat import ConvergenceError, DomainError
from muskat import elliptic
from muskat.elliptic import Arc
from oracles import ellipe, ellipj, ellipk

ORACLE_DPS = 32
EPS = np.finfo(float).eps


def _agm_rows(m):
    """Arithmetic-geometric mean table (a_n, c_n) of parameter m, to ORACLE_DPS digits."""
    a, b, c = mpmath.mpf(1), mpmath.sqrt(1 - m), mpmath.sqrt(m)
    rows = [(a, c)]
    while c > mpmath.mpf(10) ** -ORACLE_DPS:
        a, b, c = (a + b) / 2, mpmath.sqrt(a * b), (a - b) / 2
        rows.append((a, c))
    return rows


def _jacobi_oracle(u, m, rows):
    """(sn, cn, dn, E(am u|m)) by descending Landen transformation (A&S 16.4, 17.6)."""
    n_max = len(rows) - 1
    phi = 2**n_max * rows[-1][0] * u
    zeta = mpmath.mpf(0)
    for a, c in reversed(rows[1:]):
        s = mpmath.sin(phi)
        zeta += c * s
        phi = (phi + mpmath.asin(c * s / a)) / 2
    sn, cn = mpmath.sin(phi), mpmath.cos(phi)
    e_over_k = 1 - sum(2**n * c * c for n, (_, c) in enumerate(rows)) / 2
    return sn, cn, mpmath.sqrt(1 - m * sn * sn), u * e_over_k + zeta


@pytest.mark.parametrize(
    "ms, dps",
    [
        (np.linspace(0.0, 0.5, 1001).tolist() + [math.nextafter(0.5, 1.0)], ORACLE_DPS),
        ([1e-300, 1e-100, 1e-20, 1e-9], 340),  # 1 - m exact in the oracle
    ],
)
def test_complete_integrals_against_mpmath(ms, dps):
    with mpmath.workdps(dps):
        for m in ms:
            M = mpmath.mpf(m)
            assert abs(ellipk(m) / mpmath.ellipk(M) - 1) <= 3 * EPS, m
            assert abs(ellipe(m) / mpmath.ellipe(M) - 1) <= 3 * EPS, m
            if m > 0.0:
                assert abs(elliptic.ellipkm1(m) / mpmath.ellipk(1 - M) - 1) <= 3 * EPS, m


def test_complete_integrals_at_the_ends():
    assert ellipk(0.0) == ellipe(0.0) == math.pi / 2
    assert elliptic.ellipkm1(0.0) == math.inf


@pytest.mark.parametrize("m", [1e-3, 0.25, 0.5 - 1e-9, 0.5])
def test_jacobi_functions_against_oracle_on_graded_grid(m):
    # 4001 points on [0, K], graded cubically toward u = K, where cn -> 0
    # and the textbook dn = cn / cos(phi_1 - phi_0) loses every digit
    K = ellipk(m)
    t = np.linspace(0.0, 1.0, 4001)
    u = np.append(K * (1.0 - (1.0 - t) ** 3), [math.nextafter(K, 0.0), 2.0 * K, 3.0 * K])
    sn, cn, dn = ellipj(u, m)
    with mpmath.workdps(ORACLE_DPS):
        M = mpmath.mpf(m)
        rows = _agm_rows(M)
        for i, ui in enumerate(u.tolist()):
            ref = _jacobi_oracle(mpmath.mpf(ui), M, rows)[:3]
            for got, want in zip((sn[i], cn[i], dn[i]), ref):
                assert abs(got - float(want)) <= 1e-15, (ui, got, want)


@pytest.mark.parametrize("m", [math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0)])
def test_kernel_terminates_at_the_blowup_parameter(m):
    # m = 1/2 is the slope blow-up; an AGM that waits for a - b to reach
    # zero never stops there, as a and b can settle one ulp apart
    a_s, c_s = elliptic._agm(math.sqrt(1.0 - m), math.sqrt(m))
    assert len(a_s) <= 6
    assert 1.0 / ellipk(m) ** 2 == pytest.approx(muskat.constants().lambda_star, rel=1e-15)
    sn, cn, dn = ellipj(np.array([0.0, ellipk(m)]), m)
    assert sn[0] == 0.0 and cn[0] == 1.0 and dn[0] == 1.0
    assert sn[1] == pytest.approx(1.0, abs=1e-15)
    assert abs(cn[1]) <= 1e-15
    assert dn[1] == pytest.approx(math.sqrt(1.0 - m), abs=1e-15)


def _arc_with_parameter(m_target):
    """Arc at lam = 1 whose slope alpha gives parameter m close to m_target."""
    b = 1.0 - 2.0 * m_target
    return Arc(1.0, math.sqrt(1.0 - b * b) / b)


def test_oracle_matches_mpmath_jacobi_functions():
    with mpmath.workdps(ORACLE_DPS):
        half = mpmath.mpf("0.5")
        for m in (mpmath.mpf("1e-3"), mpmath.mpf("0.25"), half - mpmath.mpf("1e-9"), half):
            rows = _agm_rows(m)
            K = mpmath.ellipk(m)
            for frac in ("0", "0.13", "0.5", "0.97", "1"):
                u = K * mpmath.mpf(frac)
                sn, cn, dn, e_am = _jacobi_oracle(u, m, rows)
                sn_ref = mpmath.ellipfun("sn", u, m=m)
                assert abs(sn - sn_ref) < 1e-28
                assert abs(cn - mpmath.ellipfun("cn", u, m=m)) < 1e-28
                assert abs(dn - mpmath.ellipfun("dn", u, m=m)) < 1e-28
                assert abs(e_am - mpmath.ellipe(mpmath.asin(sn_ref), m)) < 1e-28


@pytest.mark.parametrize("m_target", [1e-3, 0.25, 0.5 - 1e-9])
def test_arc_against_oracle_on_graded_grid(m_target):
    # 4001 points on [0, K], graded cubically toward u = K, the zero crossing,
    # where the slope peaks at ~1/b (5e8 for the last parameter)
    arc = _arc_with_parameter(m_target)
    t = np.linspace(0.0, 1.0, 4001)
    u = arc.K * (1.0 - (1.0 - t) ** 3)
    x = arc.x(u)
    f, fp = arc.profile(u)
    err_x = err_f = err_fp = 0.0
    with mpmath.workdps(ORACLE_DPS):
        a = mpmath.mpf(arc.alpha)
        m = (1 - 1 / mpmath.sqrt(1 + a * a)) / 2
        rows = _agm_rows(m)
        for ui, xi, fi, fpi in zip(u.tolist(), x.tolist(), f.tolist(), fp.tolist()):
            U = mpmath.mpf(ui)
            sn, cn, dn, e_am = _jacobi_oracle(U, m, rows)
            fp_ref = float(-2 * mpmath.sqrt(m) * sn * dn / (1 - 2 * m * sn * sn))
            err_x = max(err_x, abs(xi - float(2 * e_am - U)))
            err_f = max(err_f, abs(fi - float(2 * mpmath.sqrt(m) * cn)))
            err_fp = max(err_fp, abs(fpi - fp_ref) / max(1.0, abs(fp_ref)))
    assert err_x <= 1e-14
    assert err_f <= 1e-14
    assert err_fp <= 1e-9


def test_arc_closed_forms():
    lam = 0.6
    a = muskat.alpha_of_lambda(lam)
    arc = Arc(lam, a)
    f0, fp0 = arc.profile(0.0)
    assert f0 == pytest.approx(muskat.max_amplitude(lam, a), rel=1e-14)
    assert fp0 == 0.0
    fk, fpk = arc.profile(arc.K)
    assert abs(fk) <= 1e-14
    assert -fpk == pytest.approx(a, rel=1e-12)  # slope alpha at the zero crossing
    assert arc.x(arc.K) == pytest.approx(arc.quarter, abs=1e-14)
    assert 4.0 * arc.quarter == pytest.approx(2.0 * math.pi, abs=1e-12)
    assert arc.length == pytest.approx(muskat.pendulum_period(lam), abs=1e-12)


def test_first_integral_is_exact_along_the_arc():
    arc = Arc(0.4, 30.0)
    f, fp = arc.profile(np.linspace(0.0, 4.0 * arc.K, 2001))
    drift = 1.0 / np.sqrt(1.0 + fp**2) - 0.5 * arc.lam * f**2 - arc.b
    assert np.max(np.abs(drift)) <= 1e-14


def test_swing_is_arctan_of_slope():
    arc = Arc(0.5, 4.0)
    u = np.linspace(0.0, 4.0 * arc.K, 1001)
    theta, theta_prime = arc.swing(u)
    f, fp = arc.profile(u)
    assert np.max(np.abs(theta - np.arctan(fp))) <= 1e-13
    assert np.max(np.abs(theta_prime + arc.lam * f)) <= 1e-13
    assert np.max(np.abs(theta)) == pytest.approx(math.atan(4.0), abs=1e-13)


@pytest.mark.parametrize("alpha", [1e-6, 0.8, 6.4e7])
def test_inversion_hits_the_abscissa(alpha):
    arc = Arc(0.45, alpha)
    xs = np.linspace(0.0, arc.quarter, 1025)
    u = arc.u_of_x(xs)
    assert np.all((u >= 0.0) & (u <= arc.K))
    assert np.all(np.diff(u) > 0.0)
    assert np.max(np.abs(arc.x(u) - xs)) <= 1e-14
    assert arc.u_of_x(0.0) == 0.0


def test_inversion_step_bound_is_loud(monkeypatch):
    arc = Arc(0.5, 3.0)
    monkeypatch.setattr(elliptic, "MAX_NEWTON", 1)
    with pytest.raises(ConvergenceError):
        arc.u_of_x(np.linspace(0.0, arc.quarter, 17))


def test_arc_validation():
    with pytest.raises(DomainError):
        Arc(0.0, 1.0)
    with pytest.raises(DomainError):
        Arc(1.0, -1.0)


def test_flat_arc_is_a_cosine():
    arc = Arc(1.0, 0.0)
    assert arc.K == pytest.approx(math.pi / 2, rel=1e-15)
    assert arc.quarter == pytest.approx(math.pi / 2, rel=1e-15)
    assert arc.length == pytest.approx(2.0 * math.pi, rel=1e-15)
    f, fp = arc.profile(np.linspace(0.0, 4.0, 9))
    assert np.max(np.abs(f)) == 0.0 and np.max(np.abs(fp)) == 0.0
