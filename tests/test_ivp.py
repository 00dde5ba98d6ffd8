"""ODE oracle route: trajectories, events, first integral; the periodic extension of its quarter arcs."""

import math

import numpy as np
import oracles
import pytest
from oracles import EventNotFoundError, State, energy, extend_odd_periodic, integrate, quarter_period, solve_quarter

import muskat
from muskat import DomainError


def test_zero_slope_gives_flat_trajectory():
    states = integrate(1.0, 0.0, 1.0)
    assert all(s.f == 0.0 and s.g == 0.0 for s in states)


def test_final_height_matches_closed_form():
    th = quarter_period(1.0, 1.0, tol=1e-12)
    states = integrate(1.0, 1.0, th, tol=1e-12)
    expected = math.sqrt(2.0 * (1.0 - 1.0 / math.sqrt(2.0)))
    assert states[-1].f == pytest.approx(expected, abs=1e-9)


def test_energy_constant_along_accepted_steps():
    beta = 1.0 / math.sqrt(1.25)
    states = integrate(1.0, 0.5, 3.0, tol=1e-10)
    drift = max(abs(energy(s, 1.0) - beta) for s in states)
    assert drift <= 1e-9


def test_energy_closed_forms():
    assert energy(State(x=0.0, f=0.0, g=2.0), 7.0) == pytest.approx(
        1.0 / math.sqrt(5.0), rel=1e-15
    )
    # at the crest g = 0 and the height is the closed-form amplitude
    lam, alpha = 1.3, 0.8
    amp = muskat.max_amplitude(lam, alpha)
    beta = muskat.beta_of_alpha(alpha)
    assert energy(State(x=0.0, f=amp, g=0.0), lam) == pytest.approx(beta, rel=1e-13)


def test_energy_mid_trajectory():
    th = quarter_period(1.0, 1.0)
    states = integrate(1.0, 1.0, 0.5 * th, tol=1e-10)
    assert energy(states[-1], 1.0) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)


def test_max_amplitude_values():
    assert muskat.max_amplitude(1.0, 0.0) == 0.0
    assert muskat.max_amplitude(1.0, math.sqrt(3.0)) == pytest.approx(1.0, rel=1e-15)
    assert muskat.max_amplitude(1.0, muskat.alpha_of_lambda(1.0)) == 0.0
    with pytest.raises(DomainError):
        muskat.max_amplitude(-1.0, 1.0)


def test_quarter_period_against_quadrature():
    assert quarter_period(1.0, 0.5) == pytest.approx(muskat.theta(1.0, 0.5), abs=1e-8)


def test_quarter_period_small_slope_limit():
    assert quarter_period(1.0, 1e-4) == pytest.approx(math.pi / 2, abs=1e-4)


def test_quarter_period_scaling():
    assert quarter_period(2.0, 3.0, tol=1e-12) == pytest.approx(
        quarter_period(1.0, 3.0, tol=1e-12) / math.sqrt(2.0), abs=1e-8
    )


def test_quarter_period_rejects_flat_start():
    with pytest.raises(DomainError):
        quarter_period(1.0, 0.0)


def test_integrate_validation():
    with pytest.raises(DomainError):
        integrate(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        integrate(1.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        integrate(1.0, 1.0, -2.0)
    with pytest.raises(DomainError):
        integrate(1.0, 1.0, 1.0, tol=0.0)


def test_quarter_profile_invariants():
    q = solve_quarter(0.8, 2.0)
    first = q.samples[0]
    assert (first.x, first.f, first.g) == (0.0, 0.0, 2.0)
    interior = q.samples[1:-1]
    assert all(s.g > 0.0 for s in interior)
    heights = [s.f for s in q.samples]
    assert all(b > a for a, b in zip(heights, heights[1:]))
    assert abs(q.samples[-1].g) <= 1e-9


def test_extension_reflection_values():
    q = solve_quarter(1.0, 1.0)
    prof = extend_odd_periodic(q, n_samples=513)
    th = q.theta_end
    f_2t = prof.evaluate(np.array([2.0 * th]))[0][0]
    f_3t = prof.evaluate(np.array([3.0 * th]))[0][0]
    amp = muskat.max_amplitude(1.0, 1.0)
    assert abs(f_2t) <= 1e-10
    assert f_3t == pytest.approx(-amp, abs=1e-9)
    assert prof.period == pytest.approx(4.0 * th, rel=1e-15)


def test_extension_mean_zero_and_odd():
    prof = extend_odd_periodic(solve_quarter(0.7, 1.5), n_samples=513)
    assert abs(np.trapezoid(prof.f, prof.x)) / prof.period <= 1e-9
    n = prof.x.size
    mirrored = np.array([prof.f[n - 1 - k] + prof.f[k] for k in range(n)])
    assert np.max(np.abs(mirrored)) <= 1e-10


def test_extension_peak_matches_closed_form():
    # 4k+1 closed grids contain the crest, so the sampled maximum is exact
    lam, alpha = 0.9, 0.6
    prof = extend_odd_periodic(solve_quarter(lam, alpha, tol=1e-11), n_samples=513)
    assert prof.max_abs_f() == pytest.approx(muskat.max_amplitude(lam, alpha), abs=1e-8)


def test_extension_slope_continuous_at_seams():
    prof = extend_odd_periodic(solve_quarter(1.0, 1.0), n_samples=513)
    th = prof.period / 4.0
    step = 1e-5

    def one_sided(x0, direction):
        # second-order one-sided difference of f approximating f'(x0)
        xs = np.array([x0, x0 + direction * step, x0 + 2.0 * direction * step])
        f = prof.evaluate(xs)[0]
        return direction * (-3.0 * f[0] + 4.0 * f[1] - f[2]) / (2.0 * step)

    for seam in (th, 2.0 * th, 3.0 * th):
        left = one_sided(seam, -1.0)
        right = one_sided(seam, +1.0)
        assert left == pytest.approx(right, abs=1e-8)


def test_extension_ode_residual():
    prof = extend_odd_periodic(solve_quarter(0.9, 0.577), n_samples=513)
    # residual with the curvature recomputed from the right-hand side is
    # zero by construction; the finite-difference estimate carries the
    # grid floor
    f2_rhs = -prof.lam * prof.f * (1.0 + prof.f_prime**2) ** 1.5
    res_exact = np.max(np.abs(f2_rhs / (1.0 + prof.f_prime**2) ** 1.5 + prof.lam * prof.f))
    assert res_exact <= 1e-6
    res_fd, _ = muskat.residual(prof)
    assert res_fd <= 1e-4


def test_event_not_found_guard(monkeypatch):
    # shrink the safety horizon below the true crossing to exercise the guard
    monkeypatch.setattr(oracles.period_mod, "theta_limit_zero", lambda lam: 1e-8)
    with pytest.raises(EventNotFoundError):
        quarter_period(1.0, 1.0)


def test_crossing_found_across_parameter_range():
    assert quarter_period(0.4, 5.0) > 0.0
    assert quarter_period(3.0, 0.05) > 0.0
