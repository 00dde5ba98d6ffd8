"""The branch as a curve in the slope: regimes, branch points and windows.

For each eigenvalue lam in (lambda_star, 1] there is a unique slope
alpha(lam) making the quarter period equal pi/2, hence a unique odd
profile of minimal period 2*pi.  Mode-l branches follow from the exact
rescaling (gamma, f) -> (gamma / l^2, f(l .) / l).  The endpoint behaviour
against the cell half-height h splits at h_star into three regimes: the
fingers touch the cell boundary (h < h_star), height and slope blow up
together (h = h_star), or only the slope blows up (h > h_star).

With b = 1/sqrt(1 + alpha^2) and m = (1 - b)/2 the branch parameter
(2 (2E - K)/pi)^2, the amplitude 2 sqrt(m/lam) and the swing period
2 pi K/(2E - K) are closed forms in K(m) and E(m), so each inverse solve
is a safeguarded Newton iteration in b with one AGM, an ``agm.Modulus``
record, per step; it returns the record where it stopped.

Everything here is scalar and imports only ``math`` (through ``agm``),
so the commands that need no profile load no numpy.  The records are
NamedTuples rather than dataclasses, since ``dataclasses`` imports
``inspect``, about a tenth of such a command's start-up.  ``branch``
re-exports these names next to the profile layer.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .agm import Modulus, alpha_of_beta, constants, one_minus_beta
from .errors import ConvergenceError, DomainError, OutOfRangeError

__all__ = [
    "Branch",
    "BranchPoint",
    "PhysicalParams",
    "Regime",
    "RegimeKind",
    "alpha_of_lambda",
    "branch_amplitude",
    "coexistence_levels",
    "gamma_bar",
    "gamma_of_lambda",
    "lambda_floor",
    "lambda_h",
    "lambda_of_gamma",
    "max_amplitude",
    "trace_branch",
]

#: relative half-width of the h == h_star comparison band
H_STAR_REL_TOL = 1e-9

#: step bound of the Newton iteration in b
MAX_STEPS = 100


class _Cell(NamedTuple):
    grav: float
    rho_plus: float
    rho_minus: float
    h: float


class PhysicalParams(_Cell):
    """Cell geometry and fluid data.

    Requires the unstable ordering rho_plus > rho_minus (heavier fluid on
    top); otherwise only the flat interface exists.  ``_replace`` checks
    the copy as the constructor does.
    """

    __slots__ = ()

    def __new__(cls, grav: float = 1.0, rho_plus: float = 1.0, rho_minus: float = 0.0, h: float = 2.0):
        self = super().__new__(cls, grav, rho_plus, rho_minus, h)
        # finiteness first, so that a NaN or an infinity is named as such
        for name in self._fields:
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.grav <= 0.0:
            raise DomainError("grav must be positive")
        if self.h <= 0.0:
            raise DomainError("h must be positive")
        if self.rho_plus <= self.rho_minus:
            raise DomainError("rho_plus must exceed rho_minus (heavier fluid on top)")
        return self

    def _replace(self, **changes) -> "PhysicalParams":
        return PhysicalParams(**{**self._asdict(), **changes})

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


class Regime(NamedTuple):
    """Classification plus the branch endpoint (base parameters)."""

    kind: RegimeKind
    lambda_h: float
    gamma_h: float


class BranchPoint(NamedTuple):
    """One branch point in mode-l (scaled) coordinates.

    ``lam`` and ``gamma`` satisfy gamma = g (rho_plus - rho_minus) / lam for
    the owning PhysicalParams; ``alpha`` is the maximal slope (unchanged by
    the rescaling), ``amplitude`` the scaled peak height, ``quarter_period``
    equals pi / (2 l) by construction.  ``truncated`` is always False, since
    every point of the window resolves; it stays for readers of the field.
    """

    lam: float
    gamma: float
    alpha: float
    amplitude: float
    quarter_period: float
    l: int
    truncated: bool = False


class Branch(NamedTuple):
    """Ordered branch points (increasing lam) plus endpoint classification.

    ``regime`` is expressed in base (l = 1) parameters: its lambda_h is the
    base-window endpoint, so the scaled branch lives on base lam in
    (regime.lambda_h, 1].
    """

    l: int
    points: list[BranchPoint]
    regime: Regime

    def column(self, name: str):
        """The attribute ``name`` of every point, as a float ndarray."""
        import numpy as np

        return np.array([getattr(p, name) for p in self.points], dtype=float)


def gamma_of_lambda(p: PhysicalParams, lam: float) -> float:
    """Surface tension gamma = g (rho_plus - rho_minus) / lam."""
    if lam <= 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    return p.weight / lam


def lambda_of_gamma(p: PhysicalParams, gamma: float) -> float:
    """Inverse map lam = g (rho_plus - rho_minus) / gamma, for 0 < gamma < inf."""
    if not 0.0 < gamma < math.inf:
        raise DomainError(f"gamma must be positive and finite, got {gamma}")
    return p.weight / gamma


def gamma_bar(p: PhysicalParams, l: int) -> float:
    """Bifurcation point gamma_bar_l = g (rho_plus - rho_minus) / l^2."""
    if l < 1:
        raise DomainError(f"mode number must be >= 1, got {l}")
    return p.weight / (l * l)


def _newton_b(g, b: float):
    """The record at the root in [0, 1] of g, increasing in b, by safeguarded Newton from b.

    ``g(b)`` returns the residual, its derivative in b and its record.  The
    bracket starts as [0, 1]; a step that leaves it is replaced by
    bisection.  The iteration stops when the residual is exactly 0, when
    the step does not move b, when the bracket has closed to 2 ulp, or
    when a Newton step fails to shrink the residual: it has reached its
    rounding floor, and the point that step reached is kept, since it
    removed the residual measured before it and is off only by that
    measurement's rounding.  Each stop follows an evaluation, whose record
    is returned.  Raises ConvergenceError after MAX_STEPS steps.
    """
    lo, hi = 0.0, 1.0
    last = math.inf  # |residual| where the last Newton step started
    for _ in range(MAX_STEPS):
        r, dr, record = g(b)
        if r == 0.0 or abs(r) >= last:
            return record
        if r < 0.0:
            lo = b
        else:
            hi = b
        new = b - r / dr
        if new == b or hi - lo <= 2.0 * math.ulp(hi):
            return record
        if lo < new < hi:
            last = abs(r)
        else:
            new, last = 0.5 * (lo + hi), math.inf
        b = new
    raise ConvergenceError(f"Newton iteration in b did not converge in {MAX_STEPS} steps (at b={b:.17g})")


def alpha_of_lambda(lam: float) -> float:
    """The unique slope alpha >= 0 with theta(lam, alpha) = pi/2.

    Defined exactly on (lambda_star, 1]; alpha(1) = 0 and alpha diverges as
    lam approaches lambda_star, as (2/pi)/(lam - lambda_star): the float
    one ulp above lambda_star resolves to about 1.1e16.  Strictly
    decreasing in lam, to within the ulp(lam)/gap conditioning of the input.
    Raises OutOfRangeError if lam is not in (lambda_star, 1].
    """
    return _modulus_of_lambda(lam).alpha


def _modulus_of_lambda(lam: float) -> Modulus:
    """The record of the slope alpha(lam), with the errors of ``alpha_of_lambda``.

    One Newton iteration in b = 1/sqrt(1 + alpha^2), started from the
    blow-up asymptote b = (pi/2)(lam - lambda_star), on the residual
    theta(lam, alpha(b)) - pi/2 of the float slope alpha(b), whose record
    each step builds.
    """
    c = constants()
    if not c.lambda_star < lam <= 1.0:
        raise OutOfRangeError(lam, (c.lambda_star, 1.0))
    root_lam = math.sqrt(lam)
    target = 0.5 * math.pi

    def residual(b):
        mod = Modulus.of_alpha(alpha_of_beta(b))
        return mod.K * mod.Q / root_lam - target, mod.dkq_db(b) / root_lam, mod

    return _newton_b(residual, min(1.0, target * (lam - c.lambda_star)))


def branch_amplitude(lam: float) -> float:
    """Peak height of the branch profile at lam: max_amplitude(lam, alpha(lam))."""
    return max_amplitude(lam, alpha_of_lambda(lam))


def lambda_floor() -> float:
    """The first float above lambda_star, where the branch window starts; kept for callers that read it."""
    return math.nextafter(constants().lambda_star, 1.0)


def lambda_h(p: PhysicalParams) -> Regime:
    """Classify the branch endpoint for cell half-height p.h.

    h < h_star: the fingers touch the walls at the unique lambda_h in
    (lambda_star, 1) with branch amplitude 2 sqrt(m/lambda(b)) = h, where
    lambda(b) = (2 K Q/pi)^2: one Newton iteration in b, to rounding, up to
    the edge of the h_star band, where lambda_h - lambda_star is about 4e-10.
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
        h2 = p.h * p.h

        def excess(b):
            # (KQ)^2 (h^2 - amplitude^2), with amplitude^2 = pi^2 m/(KQ)^2:
            # increasing in b and smooth at m = 0, where the amplitude is not
            mod = Modulus.of_b(b)
            kq = mod.K * mod.Q
            return h2 * kq * kq - math.pi**2 * mod.m, 2.0 * h2 * kq * mod.dkq_db(b) + 0.5 * math.pi**2, mod

        # start from the small-h asymptote m = h^2/4
        lam_h = _newton_b(excess, max(0.0, 1.0 - 0.5 * h2)).lam
    return Regime(kind=kind, lambda_h=lam_h, gamma_h=gamma_of_lambda(p, lam_h))


def max_amplitude(lam: float, alpha: float) -> float:
    """Closed-form peak height sqrt(2 (1 - beta) / lam) of the profile."""
    if lam <= 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if alpha < 0.0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    return math.sqrt(2.0 * one_minus_beta(alpha) / lam)


def _grid(lam_start: float, n_points: int, include_start: bool) -> list[float]:
    # quadratically graded toward lam_start, where alpha(lam) steepens
    if include_start:
        ts = [k / (n_points - 1) for k in range(n_points)]
    else:
        ts = [k / n_points for k in range(1, n_points + 1)]
    # rounding of lam_start + (1 - lam_start) must not overshoot the window
    return [min(lam_start + (1.0 - lam_start) * (t * t), 1.0) for t in ts]


def trace_branch(
    p: PhysicalParams,
    l: int = 1,
    n_points: int = 50,
) -> Branch:
    """Trace the mode-l branch over its feasible window.

    Base points (lam, alpha(lam)) on a graded grid are rescaled per mode:
    lam -> lam l^2, gamma -> gamma / l^2, amplitude -> amplitude / l,
    quarter period -> pi / (2 l).  The window endpoint uses the effective
    ceiling l * h (the scaled profile must stay below h).  In the touching
    regime the solved endpoint is included as the first grid point; in the
    blow-up regimes the window is open at lambda_star.  Every grid point
    resolves, however close to lambda_star.
    """
    if l < 1:
        raise DomainError(f"mode number must be >= 1, got {l}")
    if n_points < 2:
        raise DomainError(f"n_points must be >= 2, got {n_points}")
    regime = lambda_h(p._replace(h=l * p.h))
    touches = regime.kind is RegimeKind.TOUCHES_BOUNDARY
    grid = _grid(regime.lambda_h, n_points, include_start=touches)

    points = [
        BranchPoint(lam=lam * l * l, gamma=gamma_of_lambda(p, lam) / (l * l), alpha=a,
                    amplitude=max_amplitude(lam, a) / l, quarter_period=0.5 * math.pi / l, l=l)
        for lam, a in zip(grid, map(alpha_of_lambda, grid))
    ]
    return Branch(l=l, points=points, regime=regime)


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
    sups = [lambda_h(p._replace(h=k * p.h)).gamma_h / k**2 for k in range(1, l_max + 2)]
    out: list[tuple[int, tuple[float, float]]] = []
    for l in range(1, l_max + 1):
        gb_l = gamma_bar(p, l)
        hi = min(sups[l - 1], sups[l])
        if gb_l < hi:
            out.append((l, (gb_l, hi)))
    return out
