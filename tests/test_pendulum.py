"""Pendulum correspondence: both map directions and the period formula."""

import math

import numpy as np
import pytest
from oracles import swing_period_gauss
from scipy.interpolate import CubicHermiteSpline
from scipy.special import ellipk

import muskat
from muskat import DomainError, OutOfRangeError, ParityError, SingularityError
from muskat import pendulum as pendulum_mod
from muskat.agm import Modulus
from muskat.elliptic import Arc
from muskat.quadrature import cumulative_gauss


def even_profile(lam, n_samples=513):
    return muskat.translate_even(muskat.profile_at(lam, n_samples=n_samples), 1)


def test_zero_profile_maps_to_resting_pendulum():
    traj = muskat.to_pendulum(even_profile(1.0))
    assert traj.period_L == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert np.max(np.abs(traj.theta)) == 0.0
    assert np.max(np.abs(traj.theta_prime)) == 0.0
    assert traj.theta_max == 0.0


def test_to_pendulum_requires_even_profile():
    with pytest.raises(ParityError):
        muskat.to_pendulum(muskat.profile_at(0.9))


def test_swing_solves_pendulum_equation():
    lam = 0.9
    traj = muskat.to_pendulum(even_profile(lam), n_samples=2048)
    s, th = traj.s, traj.theta
    step = s[1] - s[0]
    th2 = (th[2:] - 2.0 * th[1:-1] + th[:-2]) / step**2
    assert np.max(np.abs(th2 + lam * np.sin(th[1:-1]))) <= 1e-5


def test_swing_amplitude_is_arctan_alpha():
    for lam in (0.5, 0.8):
        prof = muskat.profile_at(lam)
        traj = muskat.to_pendulum(muskat.translate_even(prof, 1))
        assert traj.theta_max == pytest.approx(math.atan(prof.alpha), abs=1e-9)
        assert np.max(np.abs(traj.theta)) <= traj.theta_max + 1e-12
        assert traj.theta_max < math.pi / 2


def test_swing_start_and_symmetry():
    traj = muskat.to_pendulum(even_profile(0.7))
    prof = muskat.profile_at(0.7)
    assert traj.theta[0] == pytest.approx(0.0, abs=1e-12)
    # theta'(0) = -lam * f(0) with f(0) the crest height of the even profile
    assert traj.theta_prime[0] == pytest.approx(-0.7 * prof.max_abs_f(), abs=1e-9)
    n = traj.s.size
    mirrored = np.array([traj.theta[n - 1 - k] + traj.theta[k] for k in range(n)])
    assert np.max(np.abs(mirrored)) <= 1e-9


def test_swing_energy_constant():
    lam = 0.6
    traj = muskat.to_pendulum(even_profile(lam))
    energy = 0.5 * traj.theta_prime**2 - lam * np.cos(traj.theta)
    assert np.ptp(energy) <= 1e-8


def test_round_trip_profile_to_swing_to_profile():
    for lam in (0.5, 0.9):
        even = even_profile(lam)
        traj = muskat.to_pendulum(even, n_samples=1024)
        back = muskat.from_pendulum(traj, n_samples=1024)
        f_ref = even.evaluate(back.x)[0]
        assert np.max(np.abs(back.f - f_ref)) <= 1e-6
        assert back.period == pytest.approx(even.period, abs=1e-8)


def test_round_trip_swing_to_profile_to_swing():
    for lam in (0.5, 0.9):
        traj = muskat.to_pendulum(even_profile(lam), n_samples=1024)
        rebuilt = muskat.to_pendulum(muskat.from_pendulum(traj, n_samples=1024), n_samples=1024)
        assert np.max(np.abs(rebuilt.theta - traj.theta)) <= 1e-6
        assert rebuilt.period_L == pytest.approx(traj.period_L, abs=1e-8)


@pytest.mark.parametrize("lam", [0.5, 0.9])
def test_round_trip_from_a_swing_on_non_uniform_arc_length(lam):
    # knots crowd at the crest and thin out at the zero crossings, so the
    # swing integral meets intervals of a 5:1 length ratio
    even = even_profile(lam)
    arc = Arc(lam, Modulus.of_alpha(even.alpha))
    t = np.linspace(0.0, 1.0, 1024)
    s = arc.length * (t - np.sin(4.0 * math.pi * t) / (6.0 * math.pi))
    theta, theta_prime = arc.swing(arc.root_lam * s)
    traj = muskat.PendulumTrajectory(
        lam=lam, s=s, theta=theta, theta_prime=theta_prime, period_L=arc.length, theta_max=math.atan(even.alpha)
    )
    back = muskat.from_pendulum(traj, n_samples=1024)
    assert np.max(np.abs(back.f - even.evaluate(back.x)[0])) <= 1e-6
    assert back.period == pytest.approx(even.period, abs=1e-8)


@pytest.mark.parametrize("lam", [0.35, 0.5, 0.9, None], ids=["0.35", "0.5", "0.9", "star+1e-3"])
def test_swing_abscissae_are_the_arc_abscissae(lam):
    # the closed-form integral of the Hermite cubic of cos(theta) puts the
    # knots on the arc's x(u), and on uniform knots spans a whole period
    # to rounding: the slope terms telescope to the periodic trapezoid rule
    lam = lam or muskat.constants().lambda_star + 1e-3
    even = even_profile(lam)
    traj = muskat.to_pendulum(even)
    arc = Arc(lam, Modulus.of_alpha(even.alpha))
    z = pendulum_mod._swing_abscissae(traj.s, traj.theta, traj.theta_prime)
    assert z[0] == 0.0
    assert np.max(np.abs(z - arc.x(arc.root_lam * traj.s))) <= 5e-11
    assert abs(muskat.from_pendulum(traj).period - 2.0 * math.pi) <= 1e-13


def test_arclength_and_abscissa_are_mutual_inverses():
    even = even_profile(0.6)
    traj = muskat.to_pendulum(even, n_samples=512)
    back = muskat.from_pendulum(traj, n_samples=512)
    # p(T) = L and z(L) = T within tight tolerance
    assert traj.period_L > even.period  # arc length exceeds the abscissa span
    assert back.period == pytest.approx(even.period, abs=1e-8)


def test_hermite_matches_scipy_cubic_hermite_spline():
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.uniform(0.05, 1.0, 64))
    y, dydx = rng.normal(size=64), rng.normal(size=64)
    t = np.concatenate([rng.uniform(x[0] - 0.5, x[-1] + 0.5, 4000), x])
    value, slope = pendulum_mod._hermite(x, y, dydx)(t)
    spline = CubicHermiteSpline(x, y, dydx)
    assert np.max(np.abs(value - spline(t))) <= 1e-14
    assert np.max(np.abs(slope - spline.derivative()(t))) <= 1e-14
    assert np.array_equal(pendulum_mod._hermite(x, y, dydx)(x[:-1])[0], y[:-1])


def test_from_pendulum_zero_swing():
    traj = muskat.PendulumTrajectory(
        lam=1.0,
        s=np.linspace(0.0, 2.0 * math.pi, 64),
        theta=np.zeros(64),
        theta_prime=np.zeros(64),
        period_L=2.0 * math.pi,
        theta_max=0.0,
    )
    prof = muskat.from_pendulum(traj)
    assert prof.max_abs_f() == 0.0
    assert prof.period == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_from_pendulum_refuses_near_vertical_swing():
    s = np.linspace(0.0, 4.0, 65)
    theta = (math.pi / 2 - 1e-8) * np.sin(2.0 * math.pi * s / 4.0)
    traj = muskat.PendulumTrajectory(
        lam=0.5,
        s=s,
        theta=theta,
        theta_prime=np.gradient(theta, s),
        period_L=4.0,
        theta_max=float(np.max(np.abs(theta))),
    )
    with pytest.raises(SingularityError):
        muskat.from_pendulum(traj)


def test_period_formula_trivial_point():
    assert muskat.pendulum_period(1.0) == pytest.approx(2.0 * math.pi, rel=1e-13)


@pytest.mark.parametrize("lam", [0.5, 0.7, 0.9])
def test_period_formula_against_elliptic_oracle(lam):
    a = muskat.alpha_of_lambda(lam)
    modulus_sq = math.sin(0.5 * math.atan(a)) ** 2
    oracle = 4.0 / math.sqrt(lam) * ellipk(modulus_sq)
    assert muskat.pendulum_period(lam) == pytest.approx(oracle, rel=1e-12)


def test_branch_form_against_gauss_swing_oracle():
    # 2 pi K/(2E - K) = 2 pi/Q of a's record is the swing period at its
    # lambda(a): to rounding against the Gauss swing integral there, and to
    # the slope solve at the given lam
    for lam in (0.35, 0.6, 0.9, muskat.constants().lambda_star + 1e-6):
        a = muskat.alpha_of_lambda(lam)
        mod = Modulus.of_alpha(a)
        assert 2.0 * math.pi / mod.Q == pytest.approx(
            swing_period_gauss(mod.lam, a), rel=1e-15
        ), lam
        assert muskat.pendulum_period(lam) == pytest.approx(
            swing_period_gauss(lam, a), rel=1e-13
        ), lam


def test_period_formula_matches_arclength():
    for lam in (0.5, 0.9):
        traj = muskat.to_pendulum(even_profile(lam))
        assert abs(muskat.pendulum_period(lam) - traj.period_L) <= 1e-6


def test_period_strictly_decreasing():
    lams = (0.35, 0.5, 0.7, 0.9, 1.0)
    periods = [muskat.pendulum_period(l) for l in lams]
    assert all(a > b for a, b in zip(periods, periods[1:]))


def test_period_out_of_range():
    c = muskat.constants()
    with pytest.raises(OutOfRangeError):
        muskat.pendulum_period(c.lambda_star - 0.01)
    with pytest.raises(OutOfRangeError):
        muskat.pendulum_period(1.2)


def test_swing_amplitude_grows_toward_vertical():
    c = muskat.constants()
    lams = c.lambda_star + (1.0 - c.lambda_star) * (np.arange(1, 9) / 8.0) ** 2
    sups = []
    for lam in lams:
        sups.append(math.atan(muskat.alpha_of_lambda(float(lam))))
    assert all(a > b for a, b in zip(sups, sups[1:]))  # grows as lam decreases
    assert sups[0] < math.pi / 2
    assert sups[0] > 1.5  # close to the vertical cap on the graded grid


def test_lambda_of_period_inverts_the_formula():
    lam = 0.7
    assert pendulum_mod.lambda_of_period(muskat.pendulum_period(lam)) == pytest.approx(
        lam, abs=1e-10
    )
    assert pendulum_mod.lambda_of_period(2.0 * math.pi) == 1.0
    with pytest.raises(OutOfRangeError):
        pendulum_mod.lambda_of_period(6.0)


def test_lambda_of_period_round_trip_up_to_the_floor():
    # one solve in the slope reaches every period up to that of lambda_floor
    c = muskat.constants()
    floor = muskat.lambda_floor()
    gaps = np.logspace(math.log10(floor - c.lambda_star), math.log10(0.7), 25)
    for lam in [floor, *(c.lambda_star + gaps[1:])]:
        L = muskat.pendulum_period(lam)
        back = pendulum_mod.lambda_of_period(L)
        assert back >= floor
        assert back == pytest.approx(lam, rel=1e-12)
        assert muskat.pendulum_period(back) == pytest.approx(L, rel=1e-13)
    L_floor = muskat.pendulum_period(floor)
    with pytest.raises(OutOfRangeError) as info:
        pendulum_mod.lambda_of_period(L_floor + 1e-9)
    assert info.value.window == (2.0 * math.pi, L_floor)


def _arclength(profile, n_intervals=4096):
    """Independent route to the swing period: Gauss quadrature of sqrt(1 + f'^2) in x."""

    def speed(x):
        return np.sqrt(1.0 + profile.evaluate(x)[1] ** 2)

    return cumulative_gauss(speed, np.linspace(0.0, profile.period, n_intervals + 1))[-1]


@pytest.mark.parametrize("lam", [0.35, 0.5, 0.7, 0.9])
def test_period_is_the_arc_length_of_the_profile(lam):
    even = even_profile(lam)
    traj = muskat.to_pendulum(even)
    assert abs(_arclength(even) - traj.period_L) <= 1e-10


@pytest.mark.parametrize("gap", [1e-3, 1e-4])
def test_swing_near_blowup(gap):
    # both failed before the swing came from the closed-form arc: the
    # arc-length period was 3.3e-4 (gap 1e-3) and 0.11 (gap 1e-4) off, and
    # the round trip was off by ~5 in f
    lam = muskat.constants().lambda_star + gap
    even = even_profile(lam)
    traj = muskat.to_pendulum(even)
    assert abs(traj.period_L - muskat.pendulum_period(lam)) <= 1e-6
    back = muskat.from_pendulum(traj)
    assert np.max(np.abs(back.f - even.evaluate(back.x)[0])) <= 1e-6
    assert back.period == pytest.approx(even.period, abs=1e-8)


def test_swing_follows_the_crest_sign():
    even = even_profile(0.6)
    up = muskat.to_pendulum(even)
    down = muskat.to_pendulum(muskat.negate_profile(even))
    assert np.array_equal(down.theta, -up.theta)
    assert np.array_equal(down.theta_prime, -up.theta_prime)
    assert down.theta_prime[0] > 0.0  # theta'(0) = -lam f(0) with a trough at x = 0


def test_to_pendulum_refuses_a_foreign_profile():
    even = even_profile(0.6)
    wrong = muskat.SolutionProfile(
        lam=even.lam, alpha=2.0 * even.alpha, period=even.period, parity="even",
        x=even.x, f=even.f, f_prime=even.f_prime, evaluate=even.evaluate,
    )
    with pytest.raises(DomainError):
        muskat.to_pendulum(wrong)
