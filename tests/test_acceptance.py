"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to later
calibration.

Criterion 11 as stated asks that level 1 share a gamma window with
level 2, which is false.  lambda_star is where the quarter period reaches
pi/2 with a vertical slope: sqrt(2 lambda_star) = (2/pi) int_0^{pi/2}
sqrt(cos t) dt = B(3/4,1/2)/pi, so lambda_star = B(3/4,1/2)^2/(2 pi^2) =
1/K(1/2)^2 = 0.2909 > 1/4.  The mode-1 branch then lives at
gamma >= gamma_bar_1 = 1 and the mode-2 branch at gamma < gamma_star/4 =
0.859, so the windows are disjoint.  The as-stated test asserts this
refutation; the substance test verifies the first pair that does coexist
(l = 2, since 1/4 < lambda_star < 4/9) end to end.
"""

import math
import time

import numpy as np
import pytest
from oracles import energy, integrate, quarter_period, solve_quarter
from scipy.integrate import quad

import muskat
from muskat import OutOfRangeError, PhysicalParams, RegimeKind
from muskat import branch as branch_mod

P = PhysicalParams(grav=1.0, rho_plus=1.0, rho_minus=0.0, h=2.0)

GRID_LAMBDA = (0.35, 0.5, 1.0)
GRID_ALPHA = (0.1, 1.0, 5.0, 20.0)


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>3}] {name}: {tag}  {detail}")


def test_criterion_01_constants():
    start = time.perf_counter()
    oracle, err = quad(lambda t: 1.0, 0.0, 1.0, weight="alg", wvar=(-0.25, -0.5))
    lam_star_oracle = oracle**2 / (2.0 * math.pi**2)
    c = muskat.constants()
    rel = abs(c.lambda_star - lam_star_oracle) / lam_star_oracle
    h_rel = abs(c.h_star - math.sqrt(2.0 / c.lambda_star))
    elapsed = time.perf_counter() - start
    ok = err < 1e-10 and rel <= 1e-10 and h_rel <= 1e-12 and elapsed < 1.0
    report(1, "constants vs quadrature oracle", ok, f"rel={rel:.2e} h_rel={h_rel:.2e} {elapsed:.2f}s")
    assert rel <= 1e-10
    assert h_rel <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_closed_form_limits():
    start = time.perf_counter()
    worst_zero = max(
        abs(muskat.theta(lam, 0.0) - 0.5 * math.pi / math.sqrt(lam))
        for lam in (0.3, 0.5, 1.0, 2.0, 4.0)
    )
    worst_inf = max(
        abs(muskat.theta(lam, 1e8) - muskat.theta_limit_infinity(lam))
        for lam in (0.3, 0.5, 1.0, 2.0, 4.0)
    )
    elapsed = time.perf_counter() - start
    ok = worst_zero <= 1e-10 and worst_inf <= 1e-6 and elapsed < 1.0
    report(2, "closed-form period limits", ok, f"zero={worst_zero:.2e} inf={worst_inf:.2e} {elapsed:.2f}s")
    assert worst_zero <= 1e-10
    assert worst_inf <= 1e-6
    assert elapsed < 1.0


def test_criterion_03_dual_oracle_quarter_period():
    start = time.perf_counter()
    worst = 0.0
    for lam in GRID_LAMBDA:
        for alpha in GRID_ALPHA:
            diff = abs(muskat.theta(lam, alpha) - quarter_period(lam, alpha))
            worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(3, "quadrature vs ODE quarter period", ok, f"worst={worst:.2e} {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_04_energy_conservation():
    worst = 0.0
    for lam in GRID_LAMBDA:
        for alpha in GRID_ALPHA:
            horizon = quarter_period(lam, alpha)
            beta = muskat.beta_of_alpha(alpha)
            states = integrate(lam, alpha, horizon)
            drift = max(abs(energy(s, lam) - beta) for s in states)
            worst = max(worst, drift)
    ok = worst <= 1e-8
    report(4, "first-integral drift", ok, f"worst={worst:.2e}")
    assert worst <= 1e-8


def test_criterion_05_amplitude_closed_form():
    worst = 0.0
    for lam in GRID_LAMBDA:
        for alpha in GRID_ALPHA:
            crest = solve_quarter(lam, alpha).samples[-1].f
            worst = max(worst, abs(crest - muskat.max_amplitude(lam, alpha)))
    ok = worst <= 1e-8
    report(5, "ODE crest vs closed-form amplitude", ok, f"worst={worst:.2e}")
    assert worst <= 1e-8


def test_criterion_06_slope_of_lambda():
    a1 = muskat.alpha_of_lambda(1.0)
    c = muskat.constants()
    lo = c.lambda_star + 1e-4
    grid = lo + (1.0 - lo) * (np.arange(1, 51) / 50.0) ** 2
    alphas = [muskat.alpha_of_lambda(float(lam)) for lam in grid]
    decreasing = all(a > b for a, b in zip(alphas, alphas[1:]))
    raised = 0
    for lam in (c.lambda_star - 0.01, 1.01):
        try:
            muskat.alpha_of_lambda(lam)
        except OutOfRangeError:
            raised += 1
    ok = abs(a1) <= 1e-8 and decreasing and raised == 2
    report(6, "slope map alpha(lambda)", ok, f"alpha(1)={a1:.1e} decreasing={decreasing} guards={raised}/2")
    assert abs(a1) <= 1e-8
    assert decreasing
    assert raised == 2


def test_criterion_07_blowup_trichotomy():
    start = time.perf_counter()
    c = muskat.constants()
    # (a) shallow cell: the branch ends where the finger fills the cell
    reg_a = muskat.lambda_h(PhysicalParams(h=1.0))
    amp_a = muskat.branch_amplitude(reg_a.lambda_h)
    ok_a = (
        reg_a.kind is RegimeKind.TOUCHES_BOUNDARY
        and c.lambda_star < reg_a.lambda_h < 1.0
        and abs(amp_a - 1.0) <= 1e-8
    )
    # (b) critical cell: endpoint at lambda_star with diverging slope
    reg_b = muskat.lambda_h(PhysicalParams(h=c.h_star))
    br_b = muskat.trace_branch(PhysicalParams(h=c.h_star), l=1, n_points=50)
    slopes_b = br_b.column("alpha")
    ok_b = (
        reg_b.kind is RegimeKind.BOTH_BLOWUP
        and reg_b.lambda_h == c.lambda_star
        and np.nanmax(slopes_b) > 1e3
    )
    # (c) deep cell: slope blows up while the height stays below h
    reg_c = muskat.lambda_h(PhysicalParams(h=5.0))
    br_c = muskat.trace_branch(PhysicalParams(h=5.0), l=1, n_points=50)
    amps_c = br_c.column("amplitude")
    slopes_c = br_c.column("alpha")
    ok_c = (
        reg_c.kind is RegimeKind.SLOPE_BLOWUP
        and reg_c.lambda_h == c.lambda_star
        and np.nanmax(amps_c) <= c.h_star + 1e-6
        and np.nanmax(amps_c) < 5.0
        and np.nanmax(slopes_c) > 1e3
    )
    elapsed = time.perf_counter() - start
    ok = ok_a and ok_b and ok_c and elapsed < 30.0
    report(
        7,
        "cell-height trichotomy",
        ok,
        f"(a)amp={amp_a:.9f} (b)slope={np.nanmax(slopes_b):.0f} (c)sup={np.nanmax(amps_c):.4f} {elapsed:.1f}s",
    )
    assert ok_a and ok_b and ok_c
    assert elapsed < 30.0


def test_criterion_08_quadratic_coefficient():
    start = time.perf_counter()
    fit = muskat.expansion_check(P, l=1, eps_list=(0.02, 0.04, 0.08))
    rel = abs(fit.coefficient - 0.375) / 0.375
    elapsed = time.perf_counter() - start
    ok = rel <= 0.02 and elapsed < 30.0
    report(8, "branch curvature coefficient 3/8", ok, f"fit={fit.coefficient:.6f} rel={rel:.2e} {elapsed:.1f}s")
    assert rel <= 0.02
    assert elapsed < 30.0


def test_criterion_09_mode_scaling():
    p5 = PhysicalParams(h=5.0)
    # the fine grid keeps the finite-difference curvature error below the
    # 1e-6 defect bound
    base = muskat.profile_at(0.6, n_samples=513)
    scaled = branch_mod.scale_profile(base, 2)
    xs = np.linspace(0.0, scaled.period, 32769)
    f, fp = scaled.evaluate(xs)
    fine = muskat.SolutionProfile(
        lam=scaled.lam, alpha=scaled.alpha, period=scaled.period, parity="odd",
        x=xs, f=f, f_prime=fp, evaluate=scaled.evaluate,
    )
    res, _ = muskat.residual(fine)
    b1 = muskat.trace_branch(p5, l=1, n_points=30)
    b2 = muskat.trace_branch(p5, l=2, n_points=30)
    gamma_err = np.max(np.abs(b2.column("gamma") - b1.column("gamma") / 4.0))
    ok = res <= 1e-6 and gamma_err <= 1e-12
    report(9, "mode-2 rescaling", ok, f"residual={res:.2e} gamma_err={gamma_err:.2e}")
    assert res <= 1e-6
    assert gamma_err <= 1e-12


def test_criterion_10_pendulum_correspondence():
    worst_rt = worst_res = worst_L = worst_sup = 0.0
    periods = []
    for lam in (0.5, 0.7, 0.9):
        prof = muskat.profile_at(lam, n_samples=513)
        even = muskat.translate_even(prof, 1)
        traj = muskat.to_pendulum(even, n_samples=2048)
        back = muskat.from_pendulum(traj, n_samples=2048)
        worst_rt = max(worst_rt, float(np.max(np.abs(back.f - even.evaluate(back.x)[0]))))
        rebuilt = muskat.to_pendulum(back, n_samples=2048)
        worst_rt = max(worst_rt, float(np.max(np.abs(rebuilt.theta - traj.theta))))
        step = traj.s[1] - traj.s[0]
        th = traj.theta
        th2 = (th[2:] - 2.0 * th[1:-1] + th[:-2]) / step**2
        worst_res = max(worst_res, float(np.max(np.abs(th2 + lam * np.sin(th[1:-1])))))
        L_formula = muskat.pendulum_period(lam)
        worst_L = max(worst_L, abs(L_formula - traj.period_L))
        worst_sup = max(worst_sup, abs(traj.theta_max - math.atan(prof.alpha)))
        periods.append(L_formula)
    decreasing = all(a > b for a, b in zip(periods, periods[1:]))
    ok = worst_rt <= 1e-6 and worst_res <= 1e-5 and worst_L <= 1e-6 and decreasing and worst_sup <= 1e-8
    report(
        10,
        "pendulum correspondence",
        ok,
        f"rt={worst_rt:.2e} res={worst_res:.2e} dL={worst_L:.2e} sup={worst_sup:.2e} dec={decreasing}",
    )
    assert worst_rt <= 1e-6
    assert worst_res <= 1e-5
    assert worst_L <= 1e-6
    assert decreasing
    assert worst_sup <= 1e-8


def test_criterion_11_coexistence_as_stated():
    """Stated criterion: level 1 shares a gamma window with level 2.

    Decided through independent routes, all of which refute it:
    (a) the quadrature oracle puts lambda_star above 1/4, so the level-1
    condition lambda_star < (1/2)^2 fails; (b) coexistence_levels lists
    exactly the levels with lambda_star < (l/(l+1))^2 for that oracle;
    (c) on the traced branches every mode-2 gamma lies below every mode-1
    gamma, and at gamma = gamma_bar_1 the mode-2 base parameter 1/4 is
    outside the feasible window.
    """
    oracle, _ = quad(lambda t: 1.0, 0.0, 1.0, weight="alg", wvar=(-0.25, -0.5))
    lam_star = oracle**2 / (2.0 * math.pi**2)
    # (a)
    above_quarter = lam_star > 0.25
    # (b)
    found = [l for l, _ in muskat.coexistence_levels(P, 4)]
    predicted = [l for l in range(1, 5) if lam_star < (l / (l + 1)) ** 2]
    # (c)
    mode1 = muskat.trace_branch(P, l=1, n_points=50).column("gamma")
    mode2 = muskat.trace_branch(P, l=2, n_points=50).column("gamma")
    gap = float(np.min(mode1) - np.max(mode2))
    gb1 = muskat.gamma_bar(P, 1)
    lam_base = muskat.lambda_of_gamma(P, 4.0 * gb1)
    refused = False
    try:
        muskat.profile_at(lam_base)
    except OutOfRangeError:
        refused = True
    ok = (
        above_quarter
        and found == predicted
        and 1 not in found
        and gap > 0.0
        and lam_base == 0.25
        and refused
    )
    report(
        11,
        "level 1 and level 2 windows are disjoint (as stated, refuted)",
        ok,
        f"lambda_star={lam_star:.6f} > 1/4 levels={found} "
        f"gap=min gamma_1 - max gamma_2={gap:.4f} lambda(4 gamma_bar_1)={lam_base:g} refused={refused}",
    )
    assert above_quarter
    assert found == predicted
    assert 1 not in found
    assert gap > 0.0
    assert lam_base == 0.25
    assert refused


def test_criterion_11_coexistence_substance():
    """Attainable substance: the first qualifying pair shares two clean profiles."""
    levels = muskat.coexistence_levels(P, 4)
    found = [l for l, _ in levels]
    first = found[0]
    lo, hi = dict(levels)[first]
    ok_first = first == 2 and lo == pytest.approx(0.25) and 0.25 < muskat.constants().lambda_star < 4.0 / 9.0
    # shared gamma near the window bottom keeps both base profiles shallow
    gamma = lo + 0.1 * (hi - lo)
    residuals = []
    profiles = []
    for l in (first, first + 1):
        lam_base = muskat.lambda_of_gamma(P, gamma * l * l)
        prof = branch_mod.scale_profile(
            muskat.profile_at(lam_base, n_samples=513), l
        )
        xs = np.linspace(0.0, prof.period, 32769)
        f, fp = prof.evaluate(xs)
        fine = muskat.SolutionProfile(
            lam=prof.lam, alpha=prof.alpha, period=prof.period, parity="odd",
            x=xs, f=f, f_prime=fp, evaluate=prof.evaluate,
        )
        residuals.append(muskat.residual(fine)[0])
        profiles.append(prof)
    distinct = abs(profiles[0].max_abs_f() - profiles[1].max_abs_f()) > 1e-3
    ok = ok_first and max(residuals) <= 1e-6 and distinct
    report(
        "11*",
        "coexistence at the first qualifying pair",
        ok,
        f"pair=({first},{first + 1}) gamma={gamma:.4f} residuals={residuals[0]:.1e},{residuals[1]:.1e}",
    )
    assert ok_first
    assert max(residuals) <= 1e-6
    assert distinct


def test_criterion_12_negative_control():
    worst = math.inf
    for lam in (0.5, 0.7, 0.9):
        prof = muskat.profile_at(lam)
        bad = muskat.SolutionProfile(
            lam=prof.lam, alpha=prof.alpha, period=prof.period, parity=prof.parity,
            x=prof.x, f=1.01 * prof.f, f_prime=1.01 * prof.f_prime,
        )
        worst = min(worst, muskat.residual(bad)[0])
    ok = worst > 1e-3
    report(12, "1% corruption raises the residual", ok, f"weakest={worst:.2e}")
    assert worst > 1e-3
