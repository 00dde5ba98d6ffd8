"""The small-amplitude law near each bifurcation point, in scalar math.

Along the mode-l branch, gamma_l(eps) - gamma_bar_l ~ (3 w/8) eps^2 with
w = g (rho_plus - rho_minus), where eps is the first cosine coefficient
of the even profile.  ``expansion_check`` measures that coefficient: for
each eps it solves the branch point whose coefficient is eps and fits
the ratios (gamma - gamma_bar_l)/eps^2 by a line in eps^2.

The coefficient is the periodic trapezoid rule in u over one period of
the arc (Trefethen & Weideman, SIAM Review 56, 2014), on the scalar
Landen recurrence ``agm._landen`` run with ``math``; the fit is the
closed-form centred least-squares line.  Like ``agm`` and ``curve``,
which it builds on, the module computes in ``math`` alone, so
``muskat expansion-check`` loads no numpy; ``branch`` re-exports its
public names.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .agm import Modulus, _landen
from .curve import PhysicalParams, _newton_b, gamma_bar, gamma_of_lambda
from .errors import DomainError, OutOfRangeError

__all__ = ["EPS_WINDOW", "ExpansionFit", "expansion_check"]

#: validated eps window of ``expansion_check``.  (gamma - gamma_bar)/eps^2
#: subtracts two rounded gammas: the single-eps ratio's relative deviation
#: from 3/8 is at most 1.7e-7 for l = 1, 2, 3 and 6 at eps >= 1e-5, but
#: 2.3e-5 at 3e-6, 6.8e-4 at 1e-6 and 1.0 at 1e-8 (l = 1).
EPS_WINDOW = (1e-5, 0.1)

#: shortest step in b over which ``_lambda_for_coefficient`` takes a secant
SECANT_MIN_STEP = 1e-8


class ExpansionFit(NamedTuple):
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


def _cosine_coefficient(mod: Modulus, n_nodes: int = 64) -> float:
    """First cosine coefficient of the even arc of (mod.lam, mod), which is the odd profile's first sine coefficient.

    With T = 4 quarter the period and w = 2 pi/T, the coefficient
    (2/T) int_0^T f cos(w x) dx runs in u over one period [0, 4K] of
    f(u) cos(w x(u)) x'(u), which is periodic and analytic in u, also at
    b = 0 where x' has double zeros, so the ``n_nodes``-point trapezoid
    rule converges geometrically.  The integrand is even about u = 0 and
    about u = K, so that rule is the trapezoid rule on [0, K] with
    n_nodes/4 intervals (n_nodes a multiple of 4), and it takes
    n_nodes/4 + 1 sweeps.  The coefficient rises with the slope to its
    sup at b = 0, about 3.066268.
    """
    q = n_nodes // 4
    m, b, big_q = mod.m, mod.b, mod.Q
    root_lam = math.sqrt(mod.lam)
    step = mod.K / q
    w = 0.5 * math.pi / (mod.K * big_q)  # w x(u) = w (Q u + 2 Z(u))
    terms = []
    for j in range(q + 1):
        u = j * step
        _, cn, _, zeta = _landen(math, u, m, mod.a_s, mod.c_s)
        terms.append(cn * (b + 2.0 * m * cn * cn) * math.cos(w * (big_q * u + 2.0 * zeta)))
    terms[0] *= 0.5
    terms[-1] *= 0.5
    # (2/T) 4 (K/q) f x' with f = 2 sqrt(m) cn/sqrt(lam), x' = (b + 2 m cn^2)/sqrt(lam), T = 4 K Q/sqrt(lam)
    return 4.0 * math.sqrt(m) / (q * big_q * root_lam) * math.fsum(terms)


def _lambda_for_coefficient(eps_base: float) -> float:
    """Base lam whose odd 2*pi profile has first sine coefficient eps_base.

    One Newton iteration in b (``curve._newton_b``) on the residual of
    ``lambda_h`` with the coefficient c(b) in place of the amplitude A:
    (KQ)^2 eps^2 - pi^2 m rho = (KQ)^2 (eps^2 - c^2), with rho = (c/A)^2
    and A^2 = pi^2 m/(KQ)^2.  c has no closed-form derivative, so
    d rho/db is the secant of rho over the solve's previous step (0 on
    its first step, and rho = 1 at m = 0, where c/A -> 1).  A step
    shorter than SECANT_MIN_STEP keeps the slope of the step before, since
    over it the rounding of rho would swamp the secant.  rho rises from 1
    to about 1.37 as b falls to 0, so a secant slope is clipped to at most
    0, which keeps the derivative at or above that of a constant rho.
    One record of b per step serves K, Q, m and the arc of c alike.
    Starts from the small-amplitude asymptote m = eps^2/4.  A root at
    b = 0 is the blow-up end, lambda_star.
    """
    eps2 = eps_base * eps_base
    last = [math.nan, 1.0, 0.0]  # b, rho and d rho/db of the previous step

    def excess(b):
        mod = Modulus.of_b(b)
        m = mod.m
        kq = mod.K * mod.Q
        c = _cosine_coefficient(mod)
        rho = (c * kq) ** 2 / (math.pi**2 * m) if m > 0.0 else 1.0
        if abs(b - last[0]) > SECANT_MIN_STEP:
            last[2] = min((rho - last[1]) / (b - last[0]), 0.0)
        last[0], last[1] = b, rho
        # eps - c is exact near the root, so the residual keeps c's digits
        r = kq * kq * (eps_base - c) * (eps_base + c)
        return r, 2.0 * eps2 * kq * mod.dkq_db(b) + math.pi**2 * (0.5 * rho - m * last[2]), mod

    return _newton_b(excess, max(0.0, 1.0 - 0.5 * eps2)).lam


def _intercept(ts: list[float], rs: list[float]) -> float:
    """Intercept of the least-squares line r = a + s t, from the centred sums."""
    n = len(ts)
    t_bar, r_bar = math.fsum(ts) / n, math.fsum(rs) / n
    dts = [t - t_bar for t in ts]
    slope = math.fsum(d * (r - r_bar) for d, r in zip(dts, rs)) / math.fsum(d * d for d in dts)
    return r_bar - slope * t_bar


def expansion_check(
    p: PhysicalParams,
    l: int = 1,
    eps_list: tuple[float, ...] = (0.02, 0.04, 0.08),
) -> ExpansionFit:
    """Measure the quadratic coefficient of gamma along the mode-l branch.

    For each eps the branch point whose (even-translated) profile has first
    cosine coefficient eps is located by matching the base profile's sine
    coefficient to l * eps; the ratios (gamma(eps) - gamma_bar_l) / eps^2
    are then extrapolated to eps -> 0 by a least-squares line in eps^2.
    The limit is 3 g (rho_plus - rho_minus) / 8 for every l.

    Raises DomainError for an empty list, a repeated eps (the fit would be
    rank-deficient) or an eps outside ``EPS_WINDOW``, which it cannot
    resolve, and OutOfRangeError for an eps at or above c1(b=0)/l, where
    c1(b=0) (about 3.066268) is the sup of the first coefficient over the
    branch.
    """
    if l < 1:
        raise DomainError(f"mode number must be >= 1, got {l}")
    eps_sorted = tuple(sorted(float(e) for e in eps_list))
    if not eps_sorted:
        raise DomainError("eps_list must not be empty")
    lo, hi = EPS_WINDOW
    for e in eps_sorted:
        if not lo <= e <= hi:
            raise DomainError(f"eps values must lie in [{lo:g}, {hi:g}], got {e}")
    for e, after in zip(eps_sorted, eps_sorted[1:]):
        if e == after:
            raise DomainError(f"eps values must be distinct, got {e} twice")
    eps_sup = _cosine_coefficient(Modulus.of_b(0.0)) / l
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
        lam = _lambda_for_coefficient(l * eps)
        gam = gamma_of_lambda(p, lam) / (l * l)
        gammas.append(gam)
        ratios.append((gam - gb) / eps**2)
    if len(eps_sorted) == 1:
        coeff = ratios[0]
    else:
        coeff = _intercept([e * e for e in eps_sorted], ratios)
    return ExpansionFit(
        l=l,
        coefficient=coeff,
        expected=0.375 * p.weight,
        eps=eps_sorted,
        gammas=tuple(gammas),
        ratios=tuple(ratios),
    )
