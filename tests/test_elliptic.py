"""Closed-form Jacobi arc: mpmath oracle on structured grids, inversion, swing."""

import math

import mpmath
import numpy as np
import pytest

import muskat
from muskat import ConvergenceError, DomainError
from muskat import agm, elliptic
from muskat.agm import Modulus
from muskat.elliptic import Arc
from oracles import QuarterProfile, ellipe, ellipj, ellipk, ellipkm1, extend_odd_periodic, zeta_nome

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
                assert abs(ellipkm1(m) / mpmath.ellipk(1 - M) - 1) <= 3 * EPS, m


def test_complete_integrals_at_the_ends():
    assert ellipk(0.0) == ellipe(0.0) == math.pi / 2
    assert ellipkm1(0.0) == math.inf


_RECORDS = [
    *(Modulus.of_b(b) for b in [0.0, 1e-12, 1e-6, 1e-3, *np.linspace(0.0, 1.0, 41).tolist(), 1.0 - 1e-12]),
    *(Modulus.of_alpha(a) for a in [0.0, 1e-12, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e6, 1e12, math.inf]),
]


def test_modulus_record_against_mpmath():
    # each record's K, E = K (1 - S) and 2E - K = K Q at its own m, to the
    # 3 eps of the m-parameter kernel; lambda = (2 K Q/pi)^2 and d(KQ)/db to 4 eps
    with mpmath.workdps(ORACLE_DPS):
        for mod in _RECORDS:
            m = mpmath.mpf(mod.m)
            k, e = mpmath.ellipk(m), mpmath.ellipe(m)
            assert abs(mod.K / k - 1) <= 3 * EPS, mod.m
            assert abs(mod.K * (1.0 - mod.S) / e - 1) <= 3 * EPS, mod.m
            assert abs(mod.K * mod.Q / (2 * e - k) - 1) <= 3 * EPS, mod.m
            lam = min((2 * (2 * e - k) / mpmath.pi) ** 2, 1)
            assert abs(mod.lam / lam - 1) <= 4 * EPS, mod.m
            if mod.m > 0.0:
                b = 1 - 2 * m
                slope = mpmath.diff(lambda t: 2 * mpmath.ellipe((1 - t) / 2) - mpmath.ellipk((1 - t) / 2), b)
                assert abs(mod.dkq_db(float(b)) / slope - 1) <= 4 * EPS, mod.m


def test_modulus_record_from_a_slope_and_from_b():
    # both ways in reach the same modulus; at b = 0 the record is the
    # blow-up end, with d(KQ)/db = 3K/8 at the other end m = 0
    assert Modulus.of_alpha(math.inf)[:3] == Modulus.of_b(0.0)[:3] == (math.inf, 0.0, 0.5)
    assert Modulus.of_alpha(math.inf) == Modulus.of_b(0.0)
    flat = Modulus.of_b(1.0)
    assert (flat.alpha, flat.m, flat.S, flat.Q) == (0.0, 0.0, 0.0, 1.0)
    assert flat.dkq_db(1.0) == 0.375 * flat.K == 0.375 * math.pi / 2
    assert flat.lam == 1.0
    for b in (1e-8, 0.3, 0.999):
        mod = Modulus.of_b(b)
        assert mod.m == 0.5 * (1.0 - b)  # exact from b
        assert Modulus.of_alpha(mod.alpha).b == pytest.approx(b, rel=4 * EPS)


@pytest.mark.parametrize("b", [1e-8, 1e-3, 0.5, 0.999])
def test_arc_from_b_and_from_its_float_slope_agree(b):
    # an arc built from b's record and one from the record of its float
    # slope: x and f to 1e-14, and f' (up to 1/b at the crossing) relative
    mod = Modulus.of_b(b)
    from_b, from_slope = Arc(mod.lam, mod), Arc(mod.lam, Modulus.of_alpha(mod.alpha))
    u = np.linspace(0.0, 4.0 * from_b.K, 2001)
    assert np.max(np.abs(from_b.x(u) - from_slope.x(u))) <= 1e-14
    (f_b, fp_b), (f_s, fp_s) = from_b.profile(u), from_slope.profile(u)
    assert np.max(np.abs(f_b - f_s)) <= 1e-14
    assert np.max(np.abs(fp_b - fp_s) / np.maximum(np.abs(fp_b), 1.0)) <= 1e-14


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


#: the parameters the shared Landen recurrence is checked on, from the flat arc to the blow-up end
RECURRENCE_MS = [0.0, 1e-8, 0.1, 0.25, 0.5 - 1e-9, 0.5]


def _numpy_landen_before_the_move(u, m, a_s, c_s):
    """The numpy Landen sweep as ``elliptic`` ran it before the recurrence moved to ``agm``."""
    n = len(a_s) - 1
    phi = (2.0**n * a_s[-1]) * np.asarray(u, dtype=float)
    zeta = 0.0
    for a, c in zip(a_s[:0:-1], c_s[:0:-1]):
        s = np.sin(phi)
        zeta = zeta + c * s
        phi = 0.5 * (phi + np.arcsin((c / a) * s))
    sn = np.sin(phi)
    return sn, np.cos(phi), np.sqrt(1.0 - m * sn * sn), zeta


@pytest.mark.parametrize("m", RECURRENCE_MS)
def test_landen_in_math_agrees_with_numpy(m):
    # one recurrence, two namespaces: math.sin equals np.sin here, but asin
    # may differ by an ulp, which can flip the rounding of phi_N + asin at
    # phi_N = 2^N a_N u; halved N times that is about an ulp of u, so the
    # math values sit within 4e-16 on the quarter [0, K] the expansion
    # coefficient samples, and within 2 ulp of 4K over the whole period
    mod = Modulus.of_b(1.0 - 2.0 * m)
    rows = mod.m, mod.a_s, mod.c_s
    u = np.linspace(0.0, 4.0 * mod.K, 1001)
    arrays = [np.broadcast_to(v, u.shape) for v in agm._landen(np, u, *rows)]
    scalars = np.array([agm._landen(math, x, *rows) for x in u.tolist()]).T
    quarter = u <= mod.K
    for got, want in zip(scalars, arrays):
        assert np.max(np.abs(got - want)[quarter]) <= 4e-16
        assert np.max(np.abs(got - want)) <= 2.0 * math.ulp(4.0 * mod.K)


@pytest.mark.parametrize("m", RECURRENCE_MS)
def test_arc_sweep_is_bitwise_the_numpy_sweep_before_the_move(m):
    mod = Modulus.of_b(1.0 - 2.0 * m)
    arc = Arc(mod.lam, mod)
    u = np.linspace(0.0, 4.0 * mod.K, 1001)
    sn, cn, dn, zeta = _numpy_landen_before_the_move(u, mod.m, mod.a_s, mod.c_s)
    want = ((mod.Q * u + 2.0 * zeta) / math.sqrt(mod.lam), sn, cn, dn)
    for got, expected in zip(arc._sweep(u), want):
        expected = np.broadcast_to(expected, u.shape)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("m", [math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0)])
def test_kernel_terminates_at_the_blowup_parameter(m):
    # m = 1/2 is the slope blow-up; an AGM that waits for a - b to reach
    # zero never stops there, as a and b can settle one ulp apart
    a_s, c_s = agm._agm(math.sqrt(1.0 - m), math.sqrt(m))
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
    return Arc(1.0, Modulus.of_alpha(math.sqrt(1.0 - b * b) / b))


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


@pytest.mark.parametrize("m_target", [1e-3, 0.25, 0.5 - 1e-9])
def test_abscissa_against_nome_series(m_target):
    # the Landen-sweep zeta against the nome series, on the quarter graded
    # toward u = K and on [K, 4K], whose end lies at x = 4 quarter
    arc = _arc_with_parameter(m_target)
    t = np.linspace(0.0, 1.0, 4001)
    u = np.concatenate([arc.K * (1.0 - (1.0 - t) ** 3), arc.K * (1.0 + 3.0 * t)])
    ref = (2.0 * (ellipe(arc.m) / ellipk(arc.m) * u + zeta_nome(u, arc.m)) - u) / arc.root_lam
    assert np.max(np.abs(arc.x(u) - ref)) <= 1e-14
    assert arc.x(4.0 * arc.K) == pytest.approx(4.0 * arc.quarter, abs=1e-14)


def test_arc_closed_forms():
    lam = 0.6
    a = muskat.alpha_of_lambda(lam)
    arc = Arc(lam, Modulus.of_alpha(a))
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
    arc = Arc(0.4, Modulus.of_alpha(30.0))
    f, fp = arc.profile(np.linspace(0.0, 4.0 * arc.K, 2001))
    drift = 1.0 / np.sqrt(1.0 + fp**2) - 0.5 * arc.lam * f**2 - arc.b
    assert np.max(np.abs(drift)) <= 1e-14


def test_swing_is_arctan_of_slope():
    arc = Arc(0.5, Modulus.of_alpha(4.0))
    u = np.linspace(0.0, 4.0 * arc.K, 1001)
    theta, theta_prime = arc.swing(u)
    f, fp = arc.profile(u)
    assert np.max(np.abs(theta - np.arctan(fp))) <= 1e-13
    assert np.max(np.abs(theta_prime + arc.lam * f)) <= 1e-13
    assert np.max(np.abs(theta)) == pytest.approx(math.atan(4.0), abs=1e-13)


@pytest.mark.parametrize("alpha", [1e-6, 0.8, 6.4e7])
def test_inversion_hits_the_abscissa(alpha):
    arc = Arc(0.45, Modulus.of_alpha(alpha))
    xs = np.linspace(0.0, arc.quarter, 1025)
    u = arc.u_of_x(xs)
    assert np.all((u >= 0.0) & (u <= arc.K))
    assert np.all(np.diff(u) > 0.0)
    assert np.max(np.abs(arc.x(u) - xs)) <= 1e-14
    assert arc.u_of_x(0.0) == 0.0


def test_inversion_step_bound_is_loud(monkeypatch):
    arc = Arc(0.5, Modulus.of_alpha(3.0))
    monkeypatch.setattr(elliptic, "MAX_NEWTON", 1)
    with pytest.raises(ConvergenceError):
        arc.u_of_x(np.linspace(0.0, arc.quarter, 17))


def test_arc_validation():
    with pytest.raises(DomainError):
        Arc(0.0, Modulus.of_alpha(1.0))
    with pytest.raises(DomainError):
        Arc(1.0, Modulus.of_alpha(-1.0))


def test_flat_arc_is_a_cosine():
    arc = Arc(1.0, Modulus.of_alpha(0.0))
    assert arc.K == pytest.approx(math.pi / 2, rel=1e-15)
    assert arc.quarter == pytest.approx(math.pi / 2, rel=1e-15)
    assert arc.length == pytest.approx(2.0 * math.pi, rel=1e-15)
    f, fp = arc.profile(np.linspace(0.0, 4.0, 9))
    assert np.max(np.abs(f)) == 0.0 and np.max(np.abs(fp)) == 0.0


def _bits(v):
    """The int64 view of float samples, so that +0 and -0 differ."""
    return np.ascontiguousarray(v, dtype=float).view(np.int64)


@pytest.mark.parametrize("lam", [0.999, 0.7, 0.5, muskat.constants().lambda_star + 1e-7])
def test_odd_is_the_generic_quarter_extension_bit_for_bit(lam):
    # the branch profile is the arc: Arc.odd and profile_at's samples equal
    # the generic odd extension of the arc's rising quarter in every bit
    prof = muskat.profile_at(lam)
    arc = prof.evaluate.__self__
    assert isinstance(arc, Arc) and prof.evaluate == arc.odd
    quarter = QuarterProfile(lam=lam, alpha=arc.alpha, theta_end=arc.quarter, dense=arc.rising_quarter)
    route = extend_odd_periodic(quarter).evaluate
    period = 4.0 * arc.quarter
    grids = [np.linspace(0.0, period, n) for n in (2, 3, 100, 1000, 1024)]
    grids.append(np.linspace(-3.0 * period, 0.0, 301))
    grids.append(np.linspace(-period, 5.0 * period, 1001))
    grids.append(np.arange(-12, 13) * arc.quarter)
    grids.extend(np.linspace(0.0, 2.0 * math.pi, 4 * k + 1)[2 * k : 2 * k + 1] for k in (1, 2, 25, 128, 1000))
    sampled = [muskat.profile_at(lam, n) for n in (65, 100, 513)]
    grids.extend(p.x for p in sampled)
    for x in grids:
        for ours, theirs in zip(arc.odd(x), route(x)):
            assert np.array_equal(_bits(ours), _bits(theirs)), (lam, x.size)
    for p in sampled:
        ref = extend_odd_periodic(quarter, n_samples=p.x.size)
        for ours, theirs in ((p.x, ref.x), (p.f, ref.f), (p.f_prime, ref.f_prime)):
            assert np.array_equal(_bits(ours), _bits(theirs)), (lam, p.x.size)
        assert p.period == ref.period
