"""Global bifurcation branches of steady fingering profiles.

For each eigenvalue lam in (lambda_star, 1] there is a unique slope
alpha(lam) making the quarter period equal pi/2, hence a unique odd
profile of minimal period 2*pi.  Mode-l branches follow from the exact
rescaling (gamma, f) -> (gamma / l^2, f(l .) / l), and their even twins
from a quarter-period translation.  The endpoint behaviour against the
cell half-height h splits at h_star into three regimes: the fingers touch
the cell boundary (h < h_star), height and slope blow up together
(h = h_star), or only the slope blows up (h > h_star).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from . import elliptic, ivp
from . import period as period_mod
from .errors import ConvergenceError, DomainError, OutOfRangeError, ParityError, SaturationError
from .ivp import SolutionProfile
from .quadrature import gauss_panels
from .roots import brentq
from .special import constants

__all__ = [
    "Branch",
    "BranchPoint",
    "ExpansionFit",
    "PhysicalParams",
    "Regime",
    "RegimeKind",
    "alpha_of_lambda",
    "branch_amplitude",
    "coexistence_levels",
    "expansion_check",
    "fourier_sine_coefficient",
    "gamma_bar",
    "gamma_of_lambda",
    "lambda_floor",
    "lambda_h",
    "lambda_of_gamma",
    "negate_profile",
    "profile_at",
    "residual",
    "scale_profile",
    "trace_branch",
    "translate_even",
]

#: slope cap: beyond it (lam within ~6.4e-9 of lambda_star) the branch is
#: out of numerical reach and the slope solves raise SaturationError
ALPHA_MAX = 1e8

#: relative half-width of the h == h_star comparison band
H_STAR_REL_TOL = 1e-9

#: bound on the ulp steps lambda_floor takes onto the resolvable side
FLOOR_NUDGES = 1000


@dataclass(frozen=True)
class PhysicalParams:
    """Cell geometry and fluid data.

    Requires the unstable ordering rho_plus > rho_minus (heavier fluid on
    top); otherwise only the flat interface exists.
    """

    grav: float = 1.0
    rho_plus: float = 1.0
    rho_minus: float = 0.0
    h: float = 2.0

    def __post_init__(self):
        if self.grav <= 0.0:
            raise DomainError("grav must be positive")
        if self.h <= 0.0:
            raise DomainError("h must be positive")
        if not self.rho_plus > self.rho_minus:
            raise DomainError("rho_plus must exceed rho_minus (heavier fluid on top)")

    @property
    def weight(self) -> float:
        """Buoyancy prefactor g * (rho_plus - rho_minus)."""
        return self.grav * (self.rho_plus - self.rho_minus)


class RegimeKind(str, Enum):
    """Endpoint behaviour of a branch as gamma approaches gamma_h from below."""

    TOUCHES_BOUNDARY = "TOUCHES_BOUNDARY"  # (i)  h < h_star: fingers reach the cell walls
    BOTH_BLOWUP = "BOTH_BLOWUP"            # (ii) h = h_star: height and slope blow up
    SLOPE_BLOWUP = "SLOPE_BLOWUP"          # (iii) h > h_star: only the slope blows up

    @property
    def roman(self) -> str:
        return {"TOUCHES_BOUNDARY": "i", "BOTH_BLOWUP": "ii", "SLOPE_BLOWUP": "iii"}[self.value]


@dataclass(frozen=True)
class Regime:
    """Classification plus the branch endpoint (base parameters)."""

    kind: RegimeKind
    lambda_h: float
    gamma_h: float


@dataclass(frozen=True)
class BranchPoint:
    """One branch point in mode-l (scaled) coordinates.

    ``lam`` and ``gamma`` satisfy gamma = g (rho_plus - rho_minus) / lam for
    the owning PhysicalParams; ``alpha`` is the maximal slope (unchanged by
    the rescaling), ``amplitude`` the scaled peak height, ``quarter_period``
    equals pi / (2 l) by construction.  Points the slope cap could not
    resolve carry NaN data and ``truncated = True``.
    """

    lam: float
    gamma: float
    alpha: float
    amplitude: float
    quarter_period: float
    l: int
    truncated: bool = False


@dataclass
class Branch:
    """Ordered branch points (increasing lam) plus endpoint classification.

    ``regime`` is expressed in base (l = 1) parameters: its lambda_h is the
    base-window endpoint, so the scaled branch lives on base lam in
    (regime.lambda_h, 1].
    """

    l: int
    points: list[BranchPoint]
    regime: Regime
    parity: str = "odd"

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(p, name) for p in self.points], dtype=float)


def gamma_of_lambda(p: PhysicalParams, lam: float) -> float:
    """Surface tension gamma = g (rho_plus - rho_minus) / lam."""
    if lam <= 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    return p.weight / lam


def lambda_of_gamma(p: PhysicalParams, gamma: float) -> float:
    """Inverse map lam = g (rho_plus - rho_minus) / gamma."""
    if gamma <= 0.0:
        raise DomainError(f"gamma must be positive, got {gamma}")
    return p.weight / gamma


def gamma_bar(p: PhysicalParams, l: int) -> float:
    """Bifurcation point gamma_bar_l = g (rho_plus - rho_minus) / l^2."""
    if l < 1:
        raise DomainError(f"mode number must be >= 1, got {l}")
    return p.weight / (l * l)


def _lambda_of_alpha(a: float) -> float:
    """Branch parameter of slope a: the lam with theta(lam, a) = pi/2.

    theta(lam, a) = theta(1, a)/sqrt(lam), so lam = (2 theta(1, a)/pi)^2,
    clipped to 1: rounding puts theta(1, a) an ulp above pi/2 for tiny a.
    """
    return min(float(2.0 * period_mod.theta(1.0, a) / math.pi) ** 2, 1.0)


def _slope_root(g, tol: float) -> float:
    """The slope a > 0 where g, positive at 0 and decreasing, changes sign.

    Doubles the bracket [0, hi] from hi = 1 up to ALPHA_MAX, then runs
    Brent's method on it.  Raises SaturationError when g is still
    nonnegative at ALPHA_MAX.
    """
    hi = 1.0
    while g(hi) >= 0.0:
        if hi >= ALPHA_MAX:
            raise SaturationError(f"slope bracket exceeded ALPHA_MAX={ALPHA_MAX:g}")
        hi = min(2.0 * hi, ALPHA_MAX)
    return float(brentq(g, 0.0, hi, xtol=tol))


def alpha_of_lambda(lam: float, tol: float = 1e-12) -> float:
    """The unique slope alpha >= 0 with theta(lam, alpha) = pi/2.

    Defined exactly on (lambda_star, 1]; alpha(1) = 0 and alpha diverges as
    lam approaches lambda_star.  Strictly decreasing in lam.

    Raises
    ------
    OutOfRangeError
        If lam is not in (lambda_star, 1].
    SaturationError
        If alpha exceeds ALPHA_MAX (lam below ``lambda_floor()``).
    """
    c = constants()
    if not c.lambda_star < lam <= 1.0:
        raise OutOfRangeError(lam, (c.lambda_star, 1.0))
    target = 0.5 * math.pi
    if lam == 1.0 or period_mod.theta(lam, 0.0) - target <= 0.0:
        return 0.0
    try:
        return _slope_root(lambda a: period_mod.theta(lam, a) - target, tol)
    except SaturationError as exc:
        raise SaturationError(
            f"{exc} at lambda={lam:.12g} (too close to lambda_star={c.lambda_star:.12g})"
        ) from None


def branch_amplitude(lam: float, tol: float = 1e-12) -> float:
    """Peak height of the branch profile at lam: max_amplitude(lam, alpha(lam))."""
    return ivp.max_amplitude(lam, alpha_of_lambda(lam, tol))


@lru_cache(maxsize=1)
def lambda_floor() -> float:
    """Smallest branch parameter whose slope does not exceed ALPHA_MAX.

    Starts from the explicit lambda_of_alpha(ALPHA_MAX) and steps up by
    ulps until theta(lam, ALPHA_MAX) < pi/2, so alpha_of_lambda(floor)
    cannot saturate (one step or none).  Raises ConvergenceError if
    FLOOR_NUDGES steps do not get there.
    """
    lam = _lambda_of_alpha(ALPHA_MAX)
    for _ in range(FLOOR_NUDGES):
        if period_mod.theta(lam, ALPHA_MAX) < 0.5 * math.pi:
            return lam
        lam = math.nextafter(lam, 1.0)
    raise ConvergenceError(
        f"lambda_floor still saturates after {FLOOR_NUDGES} ulp steps (at lambda={lam:.17g})"
    )


def lambda_h(p: PhysicalParams, tol: float = 1e-12) -> Regime:
    """Classify the branch endpoint for cell half-height p.h.

    h < h_star: the fingers touch the walls at the unique lambda_h in
    (lambda_star, 1) with branch amplitude h: one solve in the slope a of
    max_amplitude(lambda_of_alpha(a), a) = h, to ``tol`` relative to h.
    lambda_h never falls below lambda_floor(), where it stays when h is
    within ~1e-8 of h_star and the slope would exceed ALPHA_MAX.
    h = h_star (within a relative band of 1e-9): lambda_h = lambda_star,
    both height and slope blow up.  h > h_star: lambda_h = lambda_star and
    only the slope blows up while the height stays below h.
    """
    c = constants()
    if abs(p.h - c.h_star) <= H_STAR_REL_TOL * c.h_star:
        kind, lam_h = RegimeKind.BOTH_BLOWUP, c.lambda_star
    elif p.h > c.h_star:
        kind, lam_h = RegimeKind.SLOPE_BLOWUP, c.lambda_star
    else:
        kind = RegimeKind.TOUCHES_BOUNDARY
        # a ~ h sqrt(lam) for small fingers, hence the tolerance tol * h
        excess = lambda a: p.h - ivp.max_amplitude(_lambda_of_alpha(a), a)
        try:
            a = _slope_root(excess, tol * p.h)
        except SaturationError:  # the endpoint is beyond the slope cap
            a = ALPHA_MAX
        lam_h = max(_lambda_of_alpha(a), lambda_floor())
    return Regime(kind=kind, lambda_h=lam_h, gamma_h=gamma_of_lambda(p, lam_h))


def _profile(lam: float, a: float, n_samples: int) -> SolutionProfile:
    """The odd 2*pi profile of the branch point (lam, a), a = alpha(lam)."""
    if a == 0.0:
        return ivp.zero_profile(lam, period=2.0 * math.pi, n_samples=n_samples)
    arc = elliptic.Arc(lam, a)
    q = ivp.QuarterProfile(lam=lam, alpha=a, theta_end=arc.quarter, dense=arc.rising_quarter)
    return ivp.extend_odd_periodic(q, n_samples=n_samples)


def profile_at(lam: float, n_samples: int = 513, root_tol: float = 1e-12) -> SolutionProfile:
    """The odd minimal-period-2*pi profile at lam in (lambda_star, 1].

    Solves alpha(lam), takes the quarter arc in closed form (the Jacobi
    arc of ``elliptic.Arc``), and extends it by odd reflection; the period
    4 (2E - K)/sqrt(lam) equals 2*pi to root-solve accuracy.  Propagates
    OutOfRangeError / SaturationError from the slope solve.
    """
    return _profile(lam, alpha_of_lambda(lam, root_tol), n_samples)


def _require_dense(s: SolutionProfile):
    if s.evaluate is None:
        raise DomainError("profile lacks a dense evaluator (reconstructed from samples only?)")
    return s.evaluate


def _on_period_grid(s: SolutionProfile) -> bool:
    """Whether s is sampled on the closed uniform grid linspace(0, period, n)."""
    return np.array_equal(s.x, np.linspace(0.0, s.period, s.x.size))


def _roll_closed(v: np.ndarray, k: int) -> np.ndarray:
    """Closed-grid samples shifted by k steps: v[k], ..., v[n - 2], v[0], ..., v[k]."""
    rolled = np.roll(v[:-1], -k)
    return np.append(rolled, rolled[0])


def scale_profile(s: SolutionProfile, l: int) -> SolutionProfile:
    """Exact mode-l rescaling f -> f(l .) / l (eigenvalue lam -> lam l^2).

    The scaled profile is sampled on linspace(0, period / l, n).  When s
    is sampled on linspace(0, period, n), as every library profile is, l
    times that grid is s's grid up to rounding, so the samples are
    (f / l, f') of s's samples and nothing is evaluated; otherwise they
    are evaluated.  ``evaluate`` is f(l x) / l of s's evaluator.
    """
    if l < 1:
        raise DomainError(f"mode number must be >= 1, got {l}")
    if l == 1:
        return s
    ev = _require_dense(s)

    def ev_scaled(x):
        f, fp = ev(l * np.asarray(x, dtype=float))
        return f / l, fp

    xs = np.linspace(0.0, s.period / l, s.x.size)
    if _on_period_grid(s):
        f, fp = s.f / l, s.f_prime.copy()
    else:
        f, fp = ev_scaled(xs)
    return SolutionProfile(
        lam=s.lam * l * l,
        alpha=s.alpha,
        period=s.period / l,
        parity=s.parity,
        x=xs,
        f=f,
        f_prime=fp,
        evaluate=ev_scaled,
    )


def translate_even(s: SolutionProfile, l: int = 1) -> SolutionProfile:
    """Quarter-period translation of an odd profile into its even twin.

    The branch of even profiles of minimal period 2*pi/l is exactly the odd
    branch shifted by pi/(2l); the shift puts the profile maximum at x = 0.
    When s is sampled on linspace(0, period, 4k + 1), as the library's
    default profiles are, the shift is k grid steps: the samples are the
    odd samples rolled by k, with the closing sample repeating the first,
    and nothing is evaluated; other grids are evaluated.  ``evaluate`` is
    s's evaluator at x + period / 4.
    """
    if s.parity != "odd":
        raise ParityError(f"translate_even requires an odd profile, got parity={s.parity!r}")
    if abs(s.period - 2.0 * math.pi / l) > 1e-6:
        raise ParityError(
            f"profile period {s.period:.9g} does not match minimal period 2*pi/{l}"
        )
    ev = _require_dense(s)
    shift = 0.25 * s.period

    def ev_even(x):
        return ev(np.asarray(x, dtype=float) + shift)

    xs = s.x.copy()
    k, rem = divmod(xs.size - 1, 4)
    if k > 0 and rem == 0 and _on_period_grid(s):
        f, fp = _roll_closed(s.f, k), _roll_closed(s.f_prime, k)
    else:
        f, fp = ev_even(xs)
    return SolutionProfile(
        lam=s.lam,
        alpha=s.alpha,
        period=s.period,
        parity="even",
        x=xs,
        f=f,
        f_prime=fp,
        evaluate=ev_even,
    )


def negate_profile(s: SolutionProfile) -> SolutionProfile:
    """The mirror solution -f (branches carry both signs)."""
    ev = s.evaluate

    def ev_neg(x):
        f, fp = ev(x)
        return -f, -fp

    return SolutionProfile(
        lam=s.lam,
        alpha=s.alpha,
        period=s.period,
        parity=s.parity,
        x=s.x.copy(),
        f=-s.f,
        f_prime=-s.f_prime,
        evaluate=ev_neg if ev is not None else None,
    )


def _grid(lam_start: float, n_points: int, include_start: bool) -> np.ndarray:
    # quadratically graded toward lam_start, where alpha(lam) steepens
    if include_start:
        t = np.arange(n_points) / (n_points - 1)
    else:
        t = np.arange(1, n_points + 1) / n_points
    # rounding of lam_start + (1 - lam_start) must not overshoot the window
    return np.minimum(lam_start + (1.0 - lam_start) * t**2, 1.0)


def trace_branch(
    p: PhysicalParams,
    l: int = 1,
    n_points: int = 50,
    tol: float = 1e-12,
) -> Branch:
    """Trace the mode-l branch over its feasible window.

    Base points (lam, alpha(lam)) on a graded grid are rescaled per mode:
    lam -> lam l^2, gamma -> gamma / l^2, amplitude -> amplitude / l,
    quarter period -> pi / (2 l).  The window endpoint uses the effective
    ceiling l * h (the scaled profile must stay below h).  In the touching
    regime the solved endpoint is included as the first grid point; in the
    blow-up regimes the window is open at lambda_star and points the slope
    cap cannot resolve are emitted as truncated rows, never fabricated.
    """
    if l < 1:
        raise DomainError(f"mode number must be >= 1, got {l}")
    if n_points < 2:
        raise DomainError(f"n_points must be >= 2, got {n_points}")
    regime = lambda_h(replace(p, h=l * p.h), tol)
    touches = regime.kind is RegimeKind.TOUCHES_BOUNDARY
    grid = _grid(regime.lambda_h, n_points, include_start=touches)

    points: list[BranchPoint] = []
    for lam in grid:
        gamma_scaled = gamma_of_lambda(p, lam) / (l * l)
        try:
            a = alpha_of_lambda(float(lam), tol)
            amp = ivp.max_amplitude(float(lam), a)
            pt = BranchPoint(
                lam=float(lam) * l * l,
                gamma=gamma_scaled,
                alpha=a,
                amplitude=amp / l,
                quarter_period=0.5 * math.pi / l,
                l=l,
            )
        except SaturationError:
            pt = BranchPoint(
                lam=float(lam) * l * l,
                gamma=gamma_scaled,
                alpha=math.nan,
                amplitude=math.nan,
                quarter_period=math.nan,
                l=l,
                truncated=True,
            )
        points.append(pt)
    return Branch(l=l, points=points, regime=regime, parity="odd")


def residual(s: SolutionProfile) -> tuple[float, float]:
    """Defect of the steady equation and the mean of f over one period.

    Returns (max |f''/(1+f'^2)^(3/2) + lam f|, |mean f|) with f'' estimated
    by periodic second differences on the uniform sample grid and the mean
    by the trapezoid rule.  Expects the closed uniform grid the library
    emits (last sample repeats the first periodically).
    """
    x, f, fp = s.x, s.f, s.f_prime
    step = x[1] - x[0]
    fi, gi = f[:-1], fp[:-1]
    f2 = (np.roll(fi, -1) - 2.0 * fi + np.roll(fi, 1)) / step**2
    res = f2 / (1.0 + gi * gi) ** 1.5 + s.lam * fi
    mean = np.trapezoid(f, x) / s.period
    return float(np.max(np.abs(res))), float(abs(mean))


def fourier_sine_coefficient(s: SolutionProfile, k: int = 1, tol: float = 1e-13) -> float:
    """Coefficient of sin(2 pi k x / T) of the profile over one period.

    Gauss quadrature in x of the sampled profile's dense evaluator: generic,
    and the oracle of the branch's own coefficient (``_sine_coefficient``),
    but it cannot converge on slopes above about 500.
    """
    ev = _require_dense(s)
    w = 2.0 * math.pi * k / s.period

    def fn(x):
        return ev(x)[0] * np.sin(w * x)

    return (2.0 / s.period) * gauss_panels(fn, 0.0, s.period, tol=tol, max_panels=128)


@dataclass(frozen=True)
class ExpansionFit:
    """Result of fitting gamma(eps) = gamma_bar + c eps^2 near a bifurcation point.

    ``coefficient`` is the eps -> 0 extrapolation of
    (gamma(eps) - gamma_bar) / eps^2; ``expected`` is the analytic value
    3 g (rho_plus - rho_minus) / 8.
    """

    l: int
    coefficient: float
    expected: float
    eps: tuple[float, ...]
    gammas: tuple[float, ...]
    ratios: tuple[float, ...]


def _sine_coefficient(a: float, n_nodes: int = 64) -> float:
    """First sine coefficient of the odd branch profile of slope a.

    The odd profile is the even arc of (lambda_of_alpha(a), a) shifted by a
    quarter period, so this is the arc's first cosine coefficient, by the
    periodic trapezoid rule in u (``Arc.cosine_coefficient``).  It rises
    with a to its sup at a = inf (b = 0), about 3.066268.
    """
    return elliptic.Arc(_lambda_of_alpha(a), a).cosine_coefficient(n_nodes)


def _lambda_for_coefficient(eps_base: float, root_tol: float) -> float:
    """Base lam whose odd 2*pi profile has first sine coefficient eps_base.

    One solve in the slope a of _sine_coefficient(a) = eps_base.
    """
    return _lambda_of_alpha(_slope_root(lambda a: eps_base - _sine_coefficient(a), root_tol))


def expansion_check(
    p: PhysicalParams,
    l: int = 1,
    eps_list: tuple[float, ...] = (0.02, 0.04, 0.08),
    root_tol: float = 1e-12,
) -> ExpansionFit:
    """Measure the quadratic coefficient of gamma along the mode-l branch.

    For each eps the branch point whose (even-translated) profile has first
    cosine coefficient eps is located by matching the base profile's sine
    coefficient to l * eps; the ratios (gamma(eps) - gamma_bar_l) / eps^2
    are then extrapolated to eps -> 0 by a least-squares fit in eps^2.  The
    limit is 3 g (rho_plus - rho_minus) / 8 for every l.

    Raises OutOfRangeError for an eps at or above c1(b=0)/l, where c1(b=0)
    (about 3.066268) is the sup of the first coefficient over the branch.
    """
    if l < 1:
        raise DomainError(f"mode number must be >= 1, got {l}")
    eps_sorted = tuple(sorted(float(e) for e in eps_list))
    if not eps_sorted:
        raise DomainError("eps_list must not be empty")
    for e in eps_sorted:
        if not 0.0 < e <= 0.1:
            raise DomainError(f"eps values must lie in (0, 0.1], got {e}")
    eps_sup = _sine_coefficient(math.inf) / l
    if eps_sorted[-1] >= eps_sup:
        raise OutOfRangeError(
            eps_sorted[-1],
            (0.0, eps_sup),
            f"eps={eps_sorted[-1]:.9g} outside the window (0, {eps_sup:.9g}) = (0, c1(b=0)/l) "
            f"for l={l}: no branch point has a larger first coefficient",
        )
    gb = gamma_bar(p, l)
    gammas = []
    ratios = []
    for eps in eps_sorted:
        lam = _lambda_for_coefficient(l * eps, root_tol)
        gam = gamma_of_lambda(p, lam) / (l * l)
        gammas.append(gam)
        ratios.append((gam - gb) / eps**2)
    if len(eps_sorted) == 1:
        coeff = ratios[0]
    else:
        design = np.vstack([np.ones(len(eps_sorted)), np.square(eps_sorted)]).T
        sol, *_ = np.linalg.lstsq(design, np.asarray(ratios), rcond=None)
        coeff = float(sol[0])
    return ExpansionFit(
        l=l,
        coefficient=coeff,
        expected=0.375 * p.weight,
        eps=eps_sorted,
        gammas=tuple(gammas),
        ratios=tuple(ratios),
    )


def coexistence_levels(p: PhysicalParams, l_max: int) -> list[tuple[int, tuple[float, float]]]:
    """Modes l whose branch shares a gamma window with the mode l+1 branch.

    The mode-k branch spans gamma in [gamma_bar_k, sup_k) with
    sup_k = lambda_h(k h).gamma_h / k^2: gamma_star / k^2 when k h >= h_star,
    and the lower touching endpoint when k h < h_star, where the fingers
    reach the walls first.  Level l qualifies when the shared window
    (gamma_bar_l, min(sup_l, sup_{l+1})) is not empty.  When every mode
    from 2 on is deep enough (2 h >= h_star) that is the condition
    lambda_star < (l/(l+1))^2 with window (gamma_bar_l, gamma_star/(l+1)^2).
    Level 1 never qualifies: lambda_star = 1/K(1/2)^2 = 0.2909 > 1/4, so
    even the deep-cell mode-2 sup gamma_star/4 lies below gamma_bar_1.
    """
    if l_max < 2:
        raise DomainError(f"l_max must be >= 2, got {l_max}")
    sups = [lambda_h(replace(p, h=k * p.h)).gamma_h / k**2 for k in range(1, l_max + 2)]
    out: list[tuple[int, tuple[float, float]]] = []
    for l in range(1, l_max + 1):
        gb_l = gamma_bar(p, l)
        hi = min(sups[l - 1], sups[l])
        if gb_l < hi:
            out.append((l, (gb_l, hi)))
    return out
