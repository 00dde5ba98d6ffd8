"""Branch construction, regime trichotomy, scaling, even translation."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import muskat
from muskat import (
    ConvergenceError,
    DomainError,
    OutOfRangeError,
    ParityError,
    PhysicalParams,
    RegimeKind,
    SaturationError,
)
from muskat import branch as branch_mod

P_UNIT = PhysicalParams(grav=1.0, rho_plus=1.0, rho_minus=0.0, h=2.0)


def test_physical_params_validation():
    with pytest.raises(DomainError):
        PhysicalParams(grav=-9.81)
    with pytest.raises(DomainError):
        PhysicalParams(h=0.0)
    with pytest.raises(DomainError):
        PhysicalParams(rho_plus=0.5, rho_minus=1.0)


def test_gamma_lambda_maps():
    p = PhysicalParams(grav=9.81, rho_plus=2.0, rho_minus=1.0, h=1.0)
    assert muskat.gamma_of_lambda(p, 1.0) == pytest.approx(9.81, rel=1e-15)
    lam = 0.37
    assert muskat.lambda_of_gamma(p, muskat.gamma_of_lambda(p, lam)) == pytest.approx(lam, rel=1e-14)
    c = muskat.constants()
    assert muskat.gamma_of_lambda(p, c.lambda_star) == pytest.approx(
        9.81 / c.lambda_star, rel=1e-14
    )
    with pytest.raises(DomainError):
        muskat.gamma_of_lambda(p, 0.0)
    with pytest.raises(DomainError):
        muskat.lambda_of_gamma(p, -1.0)


def test_gamma_bar():
    assert muskat.gamma_bar(P_UNIT, 1) == 1.0
    assert muskat.gamma_bar(P_UNIT, 2) == 0.25
    assert muskat.gamma_bar(P_UNIT, 1) == muskat.gamma_of_lambda(P_UNIT, 1.0)
    with pytest.raises(DomainError):
        muskat.gamma_bar(P_UNIT, 0)


def test_alpha_at_first_bifurcation_point():
    assert muskat.alpha_of_lambda(1.0) == 0.0


def test_alpha_root_verified_by_both_routes():
    a = muskat.alpha_of_lambda(0.5)
    assert muskat.theta(0.5, a) == pytest.approx(math.pi / 2, abs=1e-11)
    assert muskat.quarter_period(0.5, a, tol=1e-11) == pytest.approx(math.pi / 2, abs=1e-8)


def test_alpha_out_of_range():
    c = muskat.constants()
    for lam in (0.2, c.lambda_star - 0.01, 1.01, c.lambda_star):
        with pytest.raises(OutOfRangeError):
            muskat.alpha_of_lambda(lam)


def test_alpha_saturation_cap():
    # the slope cap is a module constant; it bites only below lambda_floor
    c = muskat.constants()
    with pytest.raises(SaturationError):
        muskat.alpha_of_lambda(c.lambda_star + 1e-10)
    assert muskat.alpha_of_lambda(muskat.lambda_floor()) <= branch_mod.ALPHA_MAX


def test_alpha_strictly_decreasing():
    grid = np.linspace(0.35, 1.0, 30)
    alphas = [muskat.alpha_of_lambda(float(lam)) for lam in grid]
    assert all(a > b for a, b in zip(alphas, alphas[1:]))


def test_branch_amplitude_monotone_with_limit():
    c = muskat.constants()
    grid = c.lambda_star + (1.0 - c.lambda_star) * (np.arange(1, 41) / 40.0) ** 2
    amps = [muskat.branch_amplitude(float(lam)) for lam in grid]
    assert all(a > b for a, b in zip(amps, amps[1:]))
    assert amps[0] < c.h_star
    assert amps[0] == pytest.approx(c.h_star, abs=0.01)  # approaches sqrt(2/lambda_star)


@pytest.mark.parametrize(
    "h,kind",
    [
        (1.0, RegimeKind.TOUCHES_BOUNDARY),
        (None, RegimeKind.BOTH_BLOWUP),  # placeholder replaced by h_star below
        (5.0, RegimeKind.SLOPE_BLOWUP),
    ],
)
def test_regime_trichotomy(h, kind):
    c = muskat.constants()
    h = c.h_star if h is None else h
    reg = muskat.lambda_h(PhysicalParams(h=h))
    assert reg.kind is kind
    if kind is RegimeKind.TOUCHES_BOUNDARY:
        assert c.lambda_star < reg.lambda_h < 1.0
        assert muskat.branch_amplitude(reg.lambda_h) == pytest.approx(h, abs=1e-10)
        assert reg.gamma_h < P_UNIT.weight / c.lambda_star
    else:
        assert reg.lambda_h == c.lambda_star
        assert reg.gamma_h == pytest.approx(P_UNIT.weight / c.lambda_star, rel=1e-14)


def test_profile_at_trivial_point():
    prof = muskat.profile_at(1.0)
    assert prof.max_abs_f() == 0.0
    assert prof.period == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_profile_at_height_and_period():
    prof = muskat.profile_at(0.9)
    assert prof.period == pytest.approx(2.0 * math.pi, abs=1e-8)
    crest = prof.evaluate(np.array([math.pi / 2]))[0][0]
    assert crest == pytest.approx(muskat.max_amplitude(0.9, prof.alpha), abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(log_gap=st.floats(-8.0, math.log10(0.7)))
def test_profile_first_integral_and_period_property(log_gap):
    # gaps log-uniform from 1e-8 above lambda_star up to the bulk
    lam = min(muskat.constants().lambda_star + 10.0**log_gap, 1.0)
    prof = muskat.profile_at(lam)
    beta = muskat.beta_of_alpha(prof.alpha)
    drift = np.abs(1.0 / np.sqrt(1.0 + prof.f_prime**2) - 0.5 * lam * prof.f**2 - beta)
    assert np.max(drift) <= 1e-12
    assert abs(prof.period - 2.0 * math.pi) <= 1e-12


def test_profile_near_bifurcation_is_almost_sinusoidal():
    prof = muskat.profile_at(0.9)
    b1 = muskat.fourier_sine_coefficient(prof)
    dev = np.sqrt(
        np.trapezoid((prof.f - b1 * np.sin(prof.x)) ** 2, prof.x)
        / np.trapezoid(prof.f**2, prof.x)
    )
    assert dev <= 0.05


def test_profiles_ordered_pointwise():
    p1 = muskat.profile_at(0.6)
    p2 = muskat.profile_at(0.85)
    xs = np.linspace(0.05, math.pi - 0.05, 101)
    f1 = p1.evaluate(xs)[0]
    f2 = p2.evaluate(xs)[0]
    assert np.all(f1 > f2)


def test_trace_branch_fundamental():
    br = muskat.trace_branch(PhysicalParams(h=5.0), l=1, n_points=40)
    assert len(br.points) == 40
    assert br.regime.kind is RegimeKind.SLOPE_BLOWUP
    lams = br.column("lam")
    assert np.all(np.diff(lams) > 0)
    assert br.points[-1].lam == pytest.approx(1.0, rel=1e-15)
    assert br.points[-1].alpha == 0.0  # bifurcation-point end
    amps = br.column("amplitude")
    assert np.all(np.diff(amps) < 0)
    assert all(pt.quarter_period == pytest.approx(math.pi / 2, abs=1e-9) for pt in br.points)
    # consistency gamma = weight / lambda at every point
    for pt in br.points:
        assert pt.gamma == pytest.approx(P_UNIT.weight / pt.lam, rel=1e-14)


def test_trace_branch_touching_endpoint():
    br = muskat.trace_branch(PhysicalParams(h=1.0), l=1, n_points=30)
    assert br.regime.kind is RegimeKind.TOUCHES_BOUNDARY
    assert br.points[0].amplitude == pytest.approx(1.0, abs=1e-9)
    assert np.nanmax(br.column("amplitude")) <= 1.0 + 1e-9


def test_trace_branch_mode_two_window():
    br = muskat.trace_branch(PhysicalParams(h=5.0), l=2, n_points=25)
    c = muskat.constants()
    gammas = br.column("gamma")
    assert np.all(gammas > 0.25 - 1e-12)  # scaled window starts at gamma_bar_1 / 4
    assert np.all(gammas < P_UNIT.weight / c.lambda_star / 4.0 + 1e-12)
    assert all(pt.quarter_period == pytest.approx(math.pi / 4, abs=1e-9) for pt in br.points)


def test_scaled_profile_solves_rescaled_equation():
    # the fine grid keeps the finite-difference curvature error below the
    # 1e-6 defect bound
    base = muskat.profile_at(0.6, n_samples=513)
    scaled = branch_mod.scale_profile(base, 2)
    assert scaled.lam == pytest.approx(4.0 * 0.6, rel=1e-15)
    assert scaled.period == pytest.approx(base.period / 2.0, rel=1e-15)
    xs = np.linspace(0.0, scaled.period, 32769)
    f, fp = scaled.evaluate(xs)
    fine = muskat.SolutionProfile(
        lam=scaled.lam,
        alpha=scaled.alpha,
        period=scaled.period,
        parity=scaled.parity,
        x=xs,
        f=f,
        f_prime=fp,
        evaluate=scaled.evaluate,
    )
    res, mean = muskat.residual(fine)
    assert res <= 1e-6
    assert mean <= 1e-9


def test_translate_even_shapes():
    prof = muskat.profile_at(0.9)
    even = muskat.translate_even(prof, 1)
    assert even.parity == "even"
    assert even.f[0] == pytest.approx(prof.max_abs_f(), abs=1e-9)
    n = even.x.size
    mirrored = np.array([even.f[n - 1 - k] - even.f[k] for k in range(n)])
    assert np.max(np.abs(mirrored)) <= 1e-10
    assert abs(np.trapezoid(even.f, even.x)) / even.period <= 1e-9


def test_translate_even_of_zero_profile():
    even = muskat.translate_even(muskat.profile_at(1.0), 1)
    assert even.max_abs_f() == 0.0


def test_double_translation_is_odd_reflection():
    prof = muskat.profile_at(0.8)
    shift = prof.period / 4.0
    ev = prof.evaluate
    xs = np.linspace(0.0, prof.period, 257)
    double_shift = ev(xs + 2.0 * shift)[0]
    assert np.max(np.abs(double_shift + ev(xs)[0])) <= 1e-10


def test_translate_even_parity_guard():
    prof = muskat.profile_at(0.9)
    even = muskat.translate_even(prof, 1)
    with pytest.raises(ParityError):
        muskat.translate_even(even, 1)
    with pytest.raises(ParityError):
        muskat.translate_even(prof, 2)  # period mismatch for mode 2


def _transformed(prof):
    """Every profile the mode, parity and sign transforms make of prof."""
    for l in (1, 2, 3):
        scaled = branch_mod.scale_profile(prof, l)
        for shown in (scaled, branch_mod.translate_even(scaled, l)):
            yield shown
            yield branch_mod.negate_profile(shown)


# 513 and 101 (4k + 1) reuse the quarter's samples; 100, 102 and 103 evaluate
@pytest.mark.parametrize("n", [513, 101, 100, 102, 103])
@pytest.mark.parametrize("gap", [1e-8, 1e-6, 1e-3, 0.1, 0.5])
def test_profile_samples_agree_with_their_evaluator(gap, n):
    lam = muskat.constants().lambda_star + gap
    prof = muskat.profile_at(lam, n_samples=n)
    beta = 1.0 / math.sqrt(1.0 + prof.alpha**2)
    drift = 1.0 / np.sqrt(1.0 + prof.f_prime**2) - 0.5 * lam * prof.f**2 - beta
    assert np.max(np.abs(drift)) <= 1e-14
    if n % 4 == 1:
        crest = muskat.max_amplitude(lam, prof.alpha)
        assert abs(prof.f[(n - 1) // 4] - crest) <= 2.0 * np.spacing(crest)
    for shown in _transformed(prof):
        f, fp = shown.evaluate(shown.x)
        scale = np.maximum(np.abs(fp), 1.0)
        assert np.all(np.abs(shown.f - f) <= 4.0 * np.spacing(shown.period) * scale), (shown.lam, shown.parity)
        assert np.all(np.abs(shown.f_prime - fp) <= 1e-12 * scale), (shown.lam, shown.parity)


def test_transforms_evaluate_off_the_period_grid():
    prof = muskat.profile_at(0.6)
    bent = muskat.SolutionProfile(
        lam=prof.lam,
        alpha=prof.alpha,
        period=prof.period,
        parity="odd",
        x=prof.period * np.linspace(0.0, 1.0, prof.x.size) ** 2,
        f=np.zeros(prof.x.size),
        f_prime=np.zeros(prof.x.size),
        evaluate=prof.evaluate,
    )
    for shown in (branch_mod.scale_profile(bent, 2), branch_mod.translate_even(bent, 1)):
        f, fp = shown.evaluate(shown.x)
        assert np.array_equal(shown.f, f) and np.array_equal(shown.f_prime, fp)
        assert shown.max_abs_f() > 0.1


def test_even_translation_keeps_residual():
    prof = muskat.profile_at(0.7)
    even = muskat.translate_even(prof, 1)
    res_odd, _ = muskat.residual(prof)
    res_even, mean_even = muskat.residual(even)
    assert res_even <= max(1e-4, 2.0 * res_odd)
    assert mean_even <= 1e-9


def test_expansion_coefficient_fundamental_mode():
    fit = muskat.expansion_check(P_UNIT, l=1, eps_list=(0.02, 0.04, 0.08))
    assert fit.expected == pytest.approx(0.375, rel=1e-15)
    assert fit.coefficient == pytest.approx(0.375, rel=0.02)
    # successive single-eps ratios drift away from the limit monotonically,
    # so the extrapolation must beat the coarsest ratio
    assert abs(fit.coefficient - 0.375) < abs(fit.ratios[-1] - 0.375)


def test_expansion_coefficient_mode_two():
    fit = muskat.expansion_check(P_UNIT, l=2, eps_list=(0.02, 0.04))
    assert fit.coefficient == pytest.approx(0.375, rel=0.02)


def test_expansion_eps_validation():
    with pytest.raises(DomainError):
        muskat.expansion_check(P_UNIT, l=1, eps_list=(0.5,))
    with pytest.raises(DomainError):
        muskat.expansion_check(P_UNIT, l=1, eps_list=())


def test_expansion_eps_beyond_the_coefficient_sup():
    # the first coefficient rises to c1(b=0) ~ 3.066268 at the blow-up end,
    # so l * eps at or above it has no branch point: bad input, not a failure
    sup = branch_mod._sine_coefficient(math.inf)
    assert sup == pytest.approx(3.066268, abs=1e-6)
    with pytest.raises(OutOfRangeError) as info:
        muskat.expansion_check(P_UNIT, l=40, eps_list=(0.02, 0.1))
    assert info.value.window == (0.0, sup / 40)
    assert "c1(b=0)/l" in str(info.value)


@pytest.mark.parametrize("a", [0.3, 2.0, 30.0])
def test_sine_coefficient_against_x_quadrature(a):
    # the trapezoid rule in u against the Gauss route in x on the sampled profile
    prof = branch_mod._profile(branch_mod._lambda_of_alpha(a), a, n_samples=65)
    assert branch_mod._sine_coefficient(a) == pytest.approx(
        muskat.fourier_sine_coefficient(prof, 1), abs=2e-15
    )


@pytest.mark.parametrize("a", [512.0, 1e4, 1e7])
def test_sine_coefficient_converges_on_steep_profiles(a):
    # where the Gauss route in x cannot converge, the trapezoid rule in u
    # has converged at 64 nodes, and the coefficient stays below its sup
    c64 = branch_mod._sine_coefficient(a)
    assert abs(c64 - branch_mod._sine_coefficient(a, n_nodes=128)) <= 1e-15
    assert c64 < branch_mod._sine_coefficient(math.inf)


def test_coexistence_levels():
    c = muskat.constants()
    levels = muskat.coexistence_levels(P_UNIT, 6)
    found = [l for l, _ in levels]
    # lambda_star = 0.2909 lies in (1/4, 4/9): mode 1 cannot share a gamma
    # window with mode 2, and every mode from 2 on can
    assert found == [2, 3, 4, 5, 6]
    gamma_star = P_UNIT.weight / c.lambda_star
    for l, (lo, hi) in levels:
        assert lo == pytest.approx(muskat.gamma_bar(P_UNIT, l), rel=1e-15)
        assert hi == pytest.approx(gamma_star / (l + 1) ** 2, rel=1e-15)
        assert lo < hi
    assert muskat.gamma_bar(P_UNIT, 1) > gamma_star / 4.0  # the mode-1 exclusion
    with pytest.raises(DomainError):
        muskat.coexistence_levels(P_UNIT, 1)


@pytest.mark.parametrize("h", [0.3, 0.5])
def test_coexistence_levels_in_shallow_cells(h):
    # a mode-k branch with k h < h_star ends where its fingers touch the
    # walls, so its sup is the largest gamma of the traced branch
    p = PhysicalParams(h=h)
    l_max = 5
    c = muskat.constants()
    sups = []
    for k in range(1, l_max + 2):
        if k * h < c.h_star:
            sups.append(muskat.trace_branch(p, l=k, n_points=10).column("gamma").max())
        else:
            sups.append(p.weight / c.lambda_star / k**2)
    expected = []
    for l in range(1, l_max + 1):
        hi = min(sups[l - 1], sups[l])
        if muskat.gamma_bar(p, l) < hi:
            expected.append((l, hi))
    levels = muskat.coexistence_levels(p, l_max)
    assert [l for l, _ in levels] == [l for l, _ in expected]
    for (l, (lo, hi)), (_, hi_traced) in zip(levels, expected):
        assert lo == muskat.gamma_bar(p, l)
        assert hi == pytest.approx(hi_traced, rel=1e-12)
    # the levels an h-blind window would list but the walls empty
    assert 2 not in [l for l, _ in levels]


def test_lambda_floor_is_resolvable_and_bounded(monkeypatch):
    floor = muskat.lambda_floor()
    assert muskat.theta(floor, branch_mod.ALPHA_MAX) < math.pi / 2
    assert muskat.alpha_of_lambda(floor) <= branch_mod.ALPHA_MAX
    # the explicit lambda of the cap, at most a few ulps below the floor
    start = branch_mod._lambda_of_alpha(branch_mod.ALPHA_MAX)
    assert start <= floor <= start + 4 * math.ulp(start)
    monkeypatch.setattr(branch_mod, "FLOOR_NUDGES", 0)
    with pytest.raises(ConvergenceError):
        branch_mod.lambda_floor.__wrapped__()


def _oracle_amplitude(lam):
    """Branch amplitude at lam by mpmath: lambda(b) = (2 (2E - K)/pi)^2 solved for b."""
    with mpmath.workdps(30):
        def lam_of_b(b):
            m = (1 - b) / 2
            return (2 * (2 * mpmath.ellipe(m) - mpmath.ellipk(m)) / mpmath.pi) ** 2

        edge = mpmath.mpf("1e-9")
        b = mpmath.findroot(lambda b: lam_of_b(b) - lam, (edge, 1 - edge), solver="anderson")
        return float(2 * mpmath.sqrt((1 - b) / 2 / mpmath.mpf(lam)))


def test_touching_endpoint_against_mpmath():
    # the fingers reach the walls: the oracle amplitude at lambda_h is h, to
    # 2e-13 plus 8 ulps of lambda_h carried into the amplitude (for small h,
    # 1 - lambda_h ~ h^2, so one ulp of lambda_h moves the amplitude by ~1e-12)
    c = muskat.constants()
    for k in range(1, 61):
        h = c.h_star * k / 61.0
        reg = muskat.lambda_h(PhysicalParams(h=h))
        assert reg.kind is RegimeKind.TOUCHES_BOUNDARY
        amp = _oracle_amplitude(reg.lambda_h)
        ulp_amp = abs(_oracle_amplitude(reg.lambda_h + math.ulp(reg.lambda_h)) - amp)
        assert abs(amp - h) <= 2e-13 * h + 8 * ulp_amp, h


def test_lambda_of_b_against_mpmath():
    # lambda(b) = (2 (2E - K)/pi)^2 at b = 10^-k, written in b (the slope
    # carries only ulp(lambda)/gap at fixed lambda): the float slope of b,
    # and the oracle at the b of that slope exactly; twice theta's 2e-15
    with mpmath.workdps(40):
        for k in range(1, 13):
            b = mpmath.mpf(10.0**-k)
            alpha = float(mpmath.sqrt(1 - b * b) / b)
            m = (1 - 1 / mpmath.sqrt(1 + mpmath.mpf(alpha) ** 2)) / 2
            exact = (2 * (2 * mpmath.ellipe(m) - mpmath.ellipk(m)) / mpmath.pi) ** 2
            assert abs(branch_mod._lambda_of_alpha(alpha) / exact - 1) <= 4e-15, k


def test_lambda_of_alpha_inverts_alpha_of_lambda():
    c = muskat.constants()
    for gap in np.logspace(-8.0, math.log10(0.7), 40):
        lam = c.lambda_star + gap
        back = branch_mod._lambda_of_alpha(muskat.alpha_of_lambda(lam))
        assert back == pytest.approx(lam, rel=1e-13)


def test_branches_disjoint():
    # same scaled gamma, different minimal periods: the profiles differ
    gamma = 0.3
    lam2 = 1.0 / (4.0 * gamma)
    lam3 = 1.0 / (9.0 * gamma)
    prof2 = branch_mod.scale_profile(muskat.profile_at(lam2), 2)
    prof3 = branch_mod.scale_profile(muskat.profile_at(lam3), 3)
    assert prof2.period == pytest.approx(math.pi, abs=1e-8)
    assert prof3.period == pytest.approx(2.0 * math.pi / 3.0, abs=1e-8)
    assert abs(prof2.max_abs_f() - prof3.max_abs_f()) > 1e-3


def test_residual_zero_profile():
    assert muskat.residual(muskat.profile_at(1.0)) == (0.0, 0.0)


def test_residual_accepted_profile():
    res, mean = muskat.residual(muskat.profile_at(0.9))
    assert res <= 1e-4
    assert mean <= 1e-9


def test_residual_detects_corruption():
    prof = muskat.profile_at(0.9)
    bad = muskat.SolutionProfile(
        lam=prof.lam,
        alpha=prof.alpha,
        period=prof.period,
        parity=prof.parity,
        x=prof.x,
        f=1.1 * prof.f,
        f_prime=1.1 * prof.f_prime,
    )
    assert muskat.residual(bad)[0] > 1e-2


def test_no_solutions_beyond_gamma_star():
    # gamma above gamma_h (h >= h_star) corresponds to lambda below
    # lambda_star, where the slope equation has no root
    p = PhysicalParams(h=5.0)
    reg = muskat.lambda_h(p)
    gamma = 1.05 * reg.gamma_h
    with pytest.raises(OutOfRangeError):
        muskat.alpha_of_lambda(muskat.lambda_of_gamma(p, gamma))
