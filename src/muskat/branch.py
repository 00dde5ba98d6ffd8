"""Steady profiles along the global bifurcation branches.

The scalar branch (slopes, regimes, branch points, coexistence windows)
lives in ``curve`` and is re-exported here, as the same objects, next to
the numpy profile layer: the profile container, the odd 2*pi profile of
a branch point (sampled from its Jacobi arc, ``elliptic.Arc``), its
mode rescaling, its even twin (a quarter-period translation), its mirror,
and the residual diagnostics.  The fit of the bifurcation coefficient,
``expansion_check``, is scalar and lives in ``expansion``; it is
re-exported here, as the same objects, with ``ExpansionFit`` and
``EPS_WINDOW``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import elliptic
from .agm import Modulus
from .curve import (  # noqa: F401  (the scalar branch, re-exported)
    ALPHA_MAX, H_STAR_REL_TOL, Branch, BranchPoint, PhysicalParams, Regime, RegimeKind, _modulus_of_lambda,
    alpha_of_lambda, branch_amplitude, coexistence_levels, gamma_bar, gamma_of_lambda, lambda_floor, lambda_h,
    lambda_of_gamma, trace_branch,
)
from .errors import ConvergenceError, DomainError, ParityError
from .expansion import EPS_WINDOW, ExpansionFit, expansion_check  # noqa: F401  (re-exported)

__all__ = [
    "Branch",
    "BranchPoint",
    "ExpansionFit",
    "PhysicalParams",
    "Regime",
    "RegimeKind",
    "SolutionProfile",
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
    "zero_profile",
]


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

    def max_abs_f(self) -> float:
        return float(np.max(np.abs(self.f)))


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


def _profile(lam: float, mod: Modulus, n_samples: int) -> SolutionProfile:
    """The odd 2*pi profile of the branch point at lam, from the record ``mod`` of its slope.

    The samples sit on linspace(0, period, n_samples).  When n_samples =
    4k + 1 (the default gives 512 intervals per period) the grid contains
    the quarter-period points: the arc is inverted once, on the k + 1
    abscissae of the first quarter, and the other quarters are its exact
    odd reflection, so the sampled peak is the closed-form amplitude.
    Other grids are evaluated by ``Arc.odd``, which is ``evaluate``.
    """
    if mod.alpha == 0.0:
        return zero_profile(lam, period=2.0 * math.pi, n_samples=n_samples)
    arc = elliptic.Arc(lam, mod)
    period = 4.0 * arc.quarter
    xs = np.linspace(0.0, period, n_samples)
    k, rem = divmod(n_samples - 1, 4)
    if rem == 0:
        f, fp = _reflect_quarter(*arc.rising_quarter(xs[: k + 1]))
    else:
        f, fp = arc.odd(xs)
    return SolutionProfile(
        lam=lam, alpha=mod.alpha, period=period, parity="odd", x=xs, f=f, f_prime=fp, evaluate=arc.odd
    )


def profile_at(lam: float, n_samples: int = 513) -> SolutionProfile:
    """The odd minimal-period-2*pi profile at lam in (lambda_star, 1].

    Solves alpha(lam), takes the quarter arc in closed form (the Jacobi
    arc of ``elliptic.Arc``, from the slope solve's record), and extends
    it by odd reflection; the period 4 (2E - K)/sqrt(lam) equals 2*pi to
    rounding.  Propagates OutOfRangeError / SaturationError from the slope
    solve.
    """
    return _profile(lam, _modulus_of_lambda(lam), n_samples)


def _require_dense(s: SolutionProfile):
    if s.evaluate is None:
        raise DomainError("profile lacks a dense evaluator (reconstructed from samples only?)")
    return s.evaluate


def _on_period_grid(s: SolutionProfile) -> bool:
    """Whether s is sampled on the closed uniform grid linspace(0, period, n)."""
    return np.array_equal(s.x, np.linspace(0.0, s.period, s.x.size))


def _roll_closed(v: np.ndarray, k: int) -> np.ndarray:
    """Closed-grid samples shifted by k steps: v[k], ..., v[n - 2], v[0], ..., v[k]."""
    return np.concatenate((v[k:-1], v[: k + 1]))


def scale_profile(s: SolutionProfile, l: int) -> SolutionProfile:
    """Exact mode-l rescaling f -> f(l .) / l (eigenvalue lam -> lam l^2).

    The scaled profile is sampled on linspace(0, period / l, n).  When s
    is sampled on linspace(0, period, n), as every library profile is, l
    times that grid is s's grid up to rounding, so the samples are
    (f / l, f') of s's samples and nothing is evaluated; otherwise they
    are evaluated, which a profile of samples only (evaluate None) cannot
    be.  ``evaluate`` is f(l x) / l of s's evaluator, or None.
    """
    if l < 1:
        raise DomainError(f"mode number must be >= 1, got {l}")
    if l == 1:
        return s
    ev = s.evaluate

    def ev_scaled(x):
        f, fp = ev(l * np.asarray(x, dtype=float))
        return f / l, fp

    xs = np.linspace(0.0, s.period / l, s.x.size)
    if _on_period_grid(s):
        f, fp = s.f / l, s.f_prime.copy()
    else:
        _require_dense(s)
        f, fp = ev_scaled(xs)
    return SolutionProfile(
        lam=s.lam * l * l,
        alpha=s.alpha,
        period=s.period / l,
        parity=s.parity,
        x=xs,
        f=f,
        f_prime=fp,
        evaluate=ev_scaled if ev is not None else None,
    )


def translate_even(s: SolutionProfile, l: int = 1) -> SolutionProfile:
    """Quarter-period translation of an odd profile into its even twin.

    The branch of even profiles of minimal period 2*pi/l is exactly the odd
    branch shifted by pi/(2l); the shift puts the profile maximum at x = 0.
    When s is sampled on linspace(0, period, 4k + 1), as the library's
    default profiles are, the shift is k grid steps: the samples are the
    odd samples rolled by k, with the closing sample repeating the first,
    and nothing is evaluated; other grids are evaluated, which a profile
    of samples only (evaluate None) cannot be.  ``evaluate`` is s's
    evaluator at x + period / 4, or None.
    """
    if s.parity != "odd":
        raise ParityError(f"translate_even requires an odd profile, got parity={s.parity!r}")
    if abs(s.period - 2.0 * math.pi / l) > 1e-6:
        raise ParityError(
            f"profile period {s.period:.9g} does not match minimal period 2*pi/{l}"
        )
    ev = s.evaluate
    shift = 0.25 * s.period

    def ev_even(x):
        return ev(np.asarray(x, dtype=float) + shift)

    xs = s.x.copy()
    k, rem = divmod(xs.size - 1, 4)
    if k > 0 and rem == 0 and _on_period_grid(s):
        f, fp = _roll_closed(s.f, k), _roll_closed(s.f_prime, k)
    else:
        _require_dense(s)
        f, fp = ev_even(xs)
    return SolutionProfile(
        lam=s.lam,
        alpha=s.alpha,
        period=s.period,
        parity="even",
        x=xs,
        f=f,
        f_prime=fp,
        evaluate=ev_even if ev is not None else None,
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
    after = np.concatenate((fi[1:], fi[:1]))
    before = np.concatenate((fi[-1:], fi[:-1]))
    f2 = (after - 2.0 * fi + before) / step**2
    res = f2 / (1.0 + gi * gi) ** 1.5 + s.lam * fi
    mean = np.trapezoid(f, x) / s.period
    return float(np.max(np.abs(res))), float(abs(mean))


@lru_cache(maxsize=8)
def _nodes(n: int):
    return np.polynomial.legendre.leggauss(n)


def gauss_panels(fn, a, b, tol=1e-12, n_nodes=64, max_panels=64):
    """Integrate a smooth vectorised ``fn`` over [a, b] by composite Gauss-Legendre.

    Starts from a single ``n_nodes``-point panel and doubles the panel count
    until two successive estimates agree to ``tol``.  Raises
    ConvergenceError if they do not by ``max_panels`` panels (for the
    analytic integrands it serves one or two panels converge).
    """
    x, w = _nodes(n_nodes)
    prev = None
    panels = 1
    while True:
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * (edges[1] - edges[0])
        mids = 0.5 * (edges[:-1] + edges[1:])
        nodes = (mids[:, None] + half * x[None, :]).ravel()
        cur = half * float(np.dot(fn(nodes).reshape(panels, n_nodes).sum(axis=0), w))
        if prev is not None and abs(cur - prev) <= tol:
            return cur
        if panels >= max_panels:
            raise ConvergenceError(
                f"Gauss quadrature on [{a:.6g}, {b:.6g}] not converged to tol={tol:g} "
                f"at {panels} panels (estimate {cur:.16g})"
            )
        prev = cur
        panels *= 2


def fourier_sine_coefficient(s: SolutionProfile, k: int = 1, tol: float = 1e-13) -> float:
    """Coefficient of sin(2 pi k x / T) of the profile over one period.

    Gauss quadrature in x of the sampled profile's dense evaluator: generic,
    and the oracle of the branch's own coefficient (``expansion._cosine_coefficient``),
    but it cannot converge on slopes above about 500.
    """
    ev = _require_dense(s)
    w = 2.0 * math.pi * k / s.period

    def fn(x):
        return ev(x)[0] * np.sin(w * x)

    return (2.0 / s.period) * gauss_panels(fn, 0.0, s.period, tol=tol, max_panels=128)
