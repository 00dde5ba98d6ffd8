"""Profile containers, the odd periodic extension, and the ODE route.

The second-order equation f'' / (1 + f'^2)^(3/2) + lam * f = 0 with
f(0) = 0, f'(0) = alpha is integrated as the first-order system

    f' = g,    g' = -lam * f * (1 + g^2)^(3/2).

The quantity 1/sqrt(1 + g^2) - lam f^2 / 2 is an exact first integral
(equal to beta = 1/sqrt(1 + alpha^2) along trajectories), which makes
energy drift a sharp correctness monitor.  The quarter period is located
as the first zero of g by event detection on the dense output.

Production profiles do not use this ODE route: ``branch.profile_at`` takes
the quarter arc in closed form (``elliptic.Arc``).  ``integrate``,
``quarter_period`` and ``solve_quarter`` stay public as the independent
oracle the test suite checks the closed form against.  Full periodic
profiles come from the four-piece odd reflection of a quarter-period arc,
whichever route produced it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import period as period_mod
from .errors import DomainError, EventNotFoundError, IntegrationError

__all__ = [
    "QuarterProfile",
    "SolutionProfile",
    "State",
    "energy",
    "extend_odd_periodic",
    "integrate",
    "max_amplitude",
    "quarter_period",
    "solve_quarter",
    "zero_profile",
]


@dataclass(frozen=True)
class State:
    """A single trajectory point (x, f, f')."""

    x: float
    f: float
    g: float


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use.

    Only this ODE oracle integrates, so ``import muskat`` does not load
    scipy; the test suite and the oracle routes need it installed.
    """
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def _rhs(lam: float):
    def rhs(x, y):
        f, g = y
        return (g, -lam * f * (1.0 + g * g) ** 1.5)

    return rhs


def _first_step(alpha: float) -> Optional[float]:
    # g'' grows like lam*f*alpha^3 near x=0; a conservative start avoids
    # rejected-step cascades on steep profiles
    if alpha > 1.0:
        return min(1e-2, 1e-3 / alpha)
    return None


def _solve(lam, alpha, x_end, tol, with_event):
    events = None
    if with_event:
        def slope_zero(x, y):
            return y[1]

        slope_zero.terminal = True
        slope_zero.direction = -1.0
        events = slope_zero
    sol = solve_ivp(
        _rhs(lam),
        (0.0, x_end),
        (0.0, alpha),
        method="RK45",
        rtol=tol,
        atol=tol,
        dense_output=True,
        events=events,
        first_step=_first_step(alpha),
    )
    if sol.status == -1:
        raise IntegrationError(f"stepper failed at x={sol.t[-1]:.9g}: {sol.message}")
    return sol


def integrate(lam: float, alpha: float, x_end: float, tol: float = 1e-10) -> list[State]:
    """Adaptive trajectory of the steady system from (f, g)(0) = (0, alpha).

    Returns the accepted integration steps as States.  Local error per step
    is bounded by ``tol``; the first-integral drift over [0, x_end] stays
    within roughly 10 * tol.
    """
    if lam <= 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if alpha < 0.0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    if x_end <= 0.0:
        raise DomainError(f"x_end must be positive, got {x_end}")
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    sol = _solve(lam, alpha, x_end, tol, with_event=False)
    return [State(x=float(x), f=float(f), g=float(g)) for x, f, g in zip(sol.t, sol.y[0], sol.y[1])]


def energy(s: State, lam: float) -> float:
    """First integral 1/sqrt(1 + g^2) - lam f^2 / 2 (constant = beta)."""
    return 1.0 / math.sqrt(1.0 + s.g * s.g) - lam * s.f * s.f / 2.0


def max_amplitude(lam: float, alpha: float) -> float:
    """Closed-form peak height sqrt(2 (1 - beta) / lam) of the profile."""
    if lam <= 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if alpha < 0.0:
        raise DomainError(f"alpha must be nonnegative, got {alpha}")
    return math.sqrt(2.0 * period_mod.one_minus_beta(alpha) / lam)


def quarter_period(lam: float, alpha: float, tol: float = 1e-10) -> float:
    """Smallest x > 0 with f'(x) = 0, located by event detection.

    This is the same quantity as ``period.theta`` computed by an
    independent route (ODE integration instead of the closed form); the two
    are cross-checked against each other in the test suite.
    """
    if lam <= 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if alpha <= 0.0:
        raise DomainError(f"quarter_period requires alpha > 0, got {alpha}")
    horizon = 4.0 * period_mod.theta_limit_zero(lam)
    sol = _solve(lam, alpha, horizon, tol, with_event=True)
    if sol.t_events[0].size == 0:
        raise EventNotFoundError(
            f"slope never vanished on [0, {horizon:.6g}] for lambda={lam}, alpha={alpha}"
        )
    return float(sol.t_events[0][0])


@dataclass
class QuarterProfile:
    """Quarter-period arc on [0, theta_end], from the zero crossing to the crest.

    ``dense`` maps x arrays to (f, f'); the reflection machinery and all
    resampling draw from it.  ``solve_quarter`` fills it with the stepper's
    interpolant and keeps a few sampled states; ``branch.profile_at`` fills
    it with the closed-form Jacobi arc and keeps no samples.
    """

    lam: float
    alpha: float
    theta_end: float
    samples: list[State] = field(default_factory=list)
    dense: object = field(repr=False, default=None, compare=False)


def solve_quarter(
    lam: float, alpha: float, tol: float = 1e-10, n_samples: int = 129
) -> QuarterProfile:
    """Integrate up to the quarter-period event and keep the dense output."""
    if alpha <= 0.0:
        raise DomainError(f"solve_quarter requires alpha > 0, got {alpha}")
    horizon = 4.0 * period_mod.theta_limit_zero(lam)
    sol = _solve(lam, alpha, horizon, tol, with_event=True)
    if sol.t_events[0].size == 0:
        raise EventNotFoundError(
            f"slope never vanished on [0, {horizon:.6g}] for lambda={lam}, alpha={alpha}"
        )
    theta_end = float(sol.t_events[0][0])
    xs = np.linspace(0.0, theta_end, n_samples)
    fg = sol.sol(xs)
    samples = [State(x=float(x), f=float(f), g=float(g)) for x, f, g in zip(xs, fg[0], fg[1])]
    return QuarterProfile(lam=lam, alpha=alpha, theta_end=theta_end, samples=samples, dense=sol.sol)


Evaluator = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass
class SolutionProfile:
    """Sampled steady profile over one full period.

    ``evaluate`` maps arbitrary x arrays to dense (f, f') values; profiles
    reconstructed from files carry samples only (evaluate is None).
    """

    lam: float
    alpha: float
    period: float
    parity: str  # "odd" or "even"
    x: np.ndarray
    f: np.ndarray
    f_prime: np.ndarray
    evaluate: Optional[Evaluator] = field(repr=False, default=None, compare=False)

    def states(self) -> list[State]:
        return [State(x=float(x), f=float(f), g=float(g)) for x, f, g in zip(self.x, self.f, self.f_prime)]

    def max_abs_f(self) -> float:
        return float(np.max(np.abs(self.f)))


def _odd_extension_evaluator(dense, theta_end: float) -> Evaluator:
    """Dense (f, f') on all of R from the quarter arc via odd reflection.

    With y = x mod 4*theta and quadrant q = floor(y / theta):
    q=0: (F(y), G(y));  q=1: (F(2t-y), -G(2t-y));
    q=2: (-F(y-2t), -G(y-2t));  q=3: (-F(4t-y), G(4t-y)).
    """
    period = 4.0 * theta_end

    def ev(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.mod(x, period)
        q = np.clip(np.floor_divide(y, theta_end).astype(int), 0, 3)
        r = y - q * theta_end
        u = np.where(q % 2 == 0, r, theta_end - r)
        # the quadrants fold a symmetric grid onto repeated abscissae
        u_distinct, inverse = np.unique(u, return_inverse=True)
        f, g = dense(u_distinct)
        sign_f = np.where(q <= 1, 1.0, -1.0)
        sign_g = np.where((q == 0) | (q == 3), 1.0, -1.0)
        return sign_f * f[inverse], sign_g * g[inverse]

    return ev


def _reflect_quarter(F: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Samples on the closed grid of 4k intervals from the k + 1 quarter samples.

    The quarter runs from the zero crossing (index 0) to the crest (index
    k); the other three quadrants are its odd reflections, so the last
    sample is -F[0] (zero up to the arc's rounding).
    """
    back_f, back_g = F[-2::-1], G[-2::-1]
    f = np.concatenate((F, back_f, -F[1:], -back_f))
    fp = np.concatenate((G, -back_g, -G[1:], back_g))
    return f, fp


def extend_odd_periodic(q: QuarterProfile, n_samples: int = 513) -> SolutionProfile:
    """Full-period odd profile from a quarter arc via the reflection rules.

    The profile has period 4 * theta_end, satisfies f(-x) = -f(x), and is
    sampled on a uniform closed grid of ``n_samples`` points.  When
    n_samples = 4k + 1 (the default gives 512 intervals per period) the
    grid contains the quarter-period points: ``q.dense`` is called once, on
    the k + 1 abscissae of the first quarter, and the other quarters are
    its exact odd reflection, so the sampled peak is the closed-form
    amplitude.  Other grids evaluate the folded abscissae directly.
    ``evaluate`` folds any x onto the quarter either way.
    """
    if q.dense is None:
        raise DomainError("quarter profile lacks dense output")
    period = 4.0 * q.theta_end
    ev = _odd_extension_evaluator(q.dense, q.theta_end)
    xs = np.linspace(0.0, period, n_samples)
    k, rem = divmod(n_samples - 1, 4)
    if rem == 0:
        f, fp = _reflect_quarter(*q.dense(xs[: k + 1]))
    else:
        f, fp = ev(xs)
    return SolutionProfile(
        lam=q.lam,
        alpha=q.alpha,
        period=period,
        parity="odd",
        x=xs,
        f=f,
        f_prime=fp,
        evaluate=ev,
    )


def zero_profile(lam: float, period: float = 2.0 * math.pi, n_samples: int = 513) -> SolutionProfile:
    """The flat trajectory f = 0 (the trivial branch member)."""

    def ev(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        z = np.zeros_like(x)
        return z, z.copy()

    xs = np.linspace(0.0, period, n_samples)
    zeros = np.zeros(n_samples)
    return SolutionProfile(
        lam=lam,
        alpha=0.0,
        period=period,
        parity="odd",
        x=xs,
        f=zeros,
        f_prime=zeros.copy(),
        evaluate=ev,
    )
