"""Independent routes and reference forms kept out of the library.

The library evaluates the quarter period, its slope derivative and the
swing period in closed form from one AGM.  The Gauss-Legendre integral
forms here are the second route the tests check them against.  The
(1 - tau)^(-1/2) endpoint singularity of the quarter-period integral is
removed by tau = sin(phi), which leaves smooth integrands on [0, pi/2]
where composite Gauss-Legendre converges at a spectral rate.

``ellipk``, ``ellipe`` and ``ellipj`` are the m-parameter face of the
library's AGM/Landen kernel, which the tests check against mpmath.
``ellipkm1`` and ``zeta_nome`` are the nome-series route to the Jacobi
zeta function, which the library sums in its Landen sweep instead.

``log_gamma`` and ``beta`` are the log-gamma route to the threshold
constants, lambda_star = B(3/4, 1/2)^2 / (2 pi^2) and h_star =
sqrt(2 / lambda_star), which the library takes from the AGM instead.

``write_csv_cellwise`` and ``write_json_indented`` are the table writers
as they formatted every cell on its own; the library's writers must give
their bytes.

``integrate``, ``quarter_period`` and ``solve_quarter`` are the ODE route
to the steady profile: scipy's RK45 on the first-order system

    f' = g,    g' = -lam * f * (1 + g^2)^(3/2),    (f, g)(0) = (0, alpha),

with the quarter period located as the first zero of g by event
detection.  ``energy`` is its exact first integral 1/sqrt(1 + g^2) -
lam f^2 / 2 (equal to beta = 1/sqrt(1 + alpha^2) along trajectories).
``cumulative_gauss`` is a per-interval Gauss rule, the second route to
the arc length that ``pendulum`` takes in closed form.

``QuarterProfile`` and ``extend_odd_periodic`` are the generic odd
periodic extension of any quarter arc that maps x arrays to (f, f'):
the ODE route's interpolant, or the library's ``Arc.rising_quarter``, whose
extension must give ``Arc.odd`` and ``profile_at`` bit for bit.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from muskat import period as period_mod
from muskat.agm import _agm, _complete, _landen, beta_of_alpha
from muskat.branch import SolutionProfile, _reflect_quarter, gauss_panels
from muskat.errors import DomainError
from muskat.export import SCHEMA_VERSION, format_float


def ellipk(m):
    """Complete elliptic integral of the first kind K(m), 0 <= m < 1."""
    return _complete(*_agm(math.sqrt(1.0 - m), math.sqrt(m)), m)[0]


def ellipe(m):
    """Complete elliptic integral of the second kind E(m), 0 <= m < 1."""
    k, tail, _ = _complete(*_agm(math.sqrt(1.0 - m), math.sqrt(m)), m)
    return k * (1.0 - tail)


def ellipj(u, m):
    """Jacobi (sn, cn, dn)(u|m) for an array u and a parameter 0 <= m < 1."""
    return _landen(np, np.asarray(u, dtype=float), m, *_agm(math.sqrt(1.0 - m), math.sqrt(m)))[:3]


def ellipkm1(m):
    """K(1 - m), 0 <= m < 1; infinite at m = 0."""
    if m == 0.0:
        return math.inf
    return _complete(*_agm(math.sqrt(m), math.sqrt(1.0 - m)), 1.0 - m)[0]


def zeta_nome(u, m, terms=12):
    """Jacobi zeta Z(u|m) = (2 pi/K) sum_n q^n/(1 - q^(2n)) sin(n pi u/K), q = exp(-pi K(1-m)/K(m)).

    q <= exp(-pi) for m <= 1/2, so twelve terms reach 1e-17.
    """
    k = ellipk(m)
    q = math.exp(-math.pi * ellipkm1(m) / k)
    n = np.arange(1, terms + 1)
    n = n[q**n > 1e-18]
    coef = (2.0 * math.pi / k) * q**n / (1.0 - q ** (2 * n))
    return np.sin(np.multiply.outer(np.asarray(u, dtype=float), n * (math.pi / k))) @ coef


def log_gamma(x):
    """Natural logarithm of the gamma function, x > 0 (the platform ``lgamma``)."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def beta(x, y):
    """Euler beta function B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y), x, y > 0."""
    if x <= 0.0 or y <= 0.0:
        raise ValueError(f"beta requires positive arguments, got ({x}, {y})")
    return math.exp(log_gamma(x) + log_gamma(y) - log_gamma(x + y))


def write_csv_cellwise(fh, metadata, columns, precision):
    """CSV table with format_float / str called once per cell."""
    fh.write(f"# schema_version={SCHEMA_VERSION}\n")
    for key, value in metadata.items():
        if isinstance(value, float):
            value = format_float(value, precision)
        fh.write(f"# {key}={value}\n")
    names = list(columns)
    fh.write(",".join(names) + "\n")
    arrays = [np.atleast_1d(np.asarray(columns[name])) for name in names]
    n_rows = arrays[0].size
    for arr in arrays:
        if arr.size != n_rows:
            raise ValueError("all columns must have the same length")
    cells = [
        [format_float(v, precision) for v in arr.astype(float).tolist()]
        if np.issubdtype(arr.dtype, np.floating)
        else [str(v) for v in arr]
        for arr in arrays
    ]
    for row in zip(*cells):
        fh.write(",".join(row) + "\n")


def write_json_indented(fh, metadata, columns, precision):
    """JSON table through json.dump(..., indent=1) as a whole."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "metadata": dict(metadata),
        "samples": {name: np.atleast_1d(np.asarray(col)).tolist() for name, col in columns.items()},
    }
    json.dump(payload, fh, indent=1)
    fh.write("\n")


def theta_gauss(lam, alpha, tol=1e-12):
    """sqrt(2/lam) int_0^(pi/2) g / sqrt(1 + g) dphi, g = b + (1 - b) sin^2 phi."""
    b = beta_of_alpha(alpha)

    def integrand(phi):
        g = b + (1.0 - b) * np.sin(phi) ** 2
        return g / np.sqrt(1.0 + g)

    return math.sqrt(2.0 / lam) * gauss_panels(integrand, 0.0, 0.5 * math.pi, tol=tol)


def dtheta_dalpha_gauss(lam, alpha, tol=1e-12):
    """d theta / d alpha under the integral sign, with d b / d alpha = -alpha b^3."""
    b = beta_of_alpha(alpha)

    def integrand(phi):
        c2 = np.cos(phi) ** 2
        g = b + (1.0 - b) * np.sin(phi) ** 2
        return c2 * (2.0 + g) / (2.0 * (1.0 + g) ** 1.5)

    part = gauss_panels(integrand, 0.0, 0.5 * math.pi, tol=tol)
    return math.sqrt(2.0 / lam) * (-alpha * b**3) * part


def swing_period_gauss(lam, alpha, tol=1e-12):
    """(2/sqrt(lam)) int_(-pi/2)^(pi/2) dt / sqrt(1 - k^2 sin^2 t), k = sin(arctan(alpha)/2)."""
    k2 = math.sin(0.5 * math.atan(alpha)) ** 2

    def integrand(t):
        return 1.0 / np.sqrt(1.0 - k2 * np.sin(t) ** 2)

    return (2.0 / math.sqrt(lam)) * gauss_panels(integrand, -0.5 * math.pi, 0.5 * math.pi, tol=tol)


def cumulative_gauss(fn, knots, n_nodes=8):
    """Cumulative integral of ``fn`` at ``knots`` (per-interval Gauss rule).

    Returns an array c with c[0] = 0 and c[k] = integral from knots[0] to
    knots[k].  The knots need not be uniformly spaced but must increase.
    ``fn`` gets the nodes as an (n_intervals, n_nodes) array whose row k
    lies on [knots[k], knots[k + 1]], and returns its values in that shape.
    """
    knots = np.asarray(knots, dtype=float)
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    a, b = knots[:-1], knots[1:]
    half = 0.5 * (b - a)
    mids = 0.5 * (a + b)
    vals = fn(mids[:, None] + half[:, None] * x[None, :])
    out = np.empty(knots.size, dtype=float)
    out[0] = 0.0
    np.cumsum(half * (vals @ w), out=out[1:])
    return out


class EventNotFoundError(RuntimeError):
    """The slope never crossed zero within the safety horizon (a bug: the crossing exists for alpha > 0)."""


class IntegrationError(RuntimeError):
    """The adaptive stepper stalled; the message carries the location."""


@dataclass(frozen=True)
class State:
    """A single trajectory point (x, f, f')."""

    x: float
    f: float
    g: float


def energy(s, lam):
    """First integral 1/sqrt(1 + g^2) - lam f^2 / 2 (constant = beta)."""
    return 1.0 / math.sqrt(1.0 + s.g * s.g) - lam * s.f * s.f / 2.0


def _rhs(lam):
    def rhs(x, y):
        f, g = y
        return (g, -lam * f * (1.0 + g * g) ** 1.5)

    return rhs


def _first_step(alpha):
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


def _solve_to_crest(lam, alpha, tol):
    """The solution up to the first zero of g, and that zero."""
    horizon = 4.0 * period_mod.theta_limit_zero(lam)
    sol = _solve(lam, alpha, horizon, tol, with_event=True)
    if sol.t_events[0].size == 0:
        raise EventNotFoundError(
            f"slope never vanished on [0, {horizon:.6g}] for lambda={lam}, alpha={alpha}"
        )
    return sol, float(sol.t_events[0][0])


def integrate(lam, alpha, x_end, tol=1e-10):
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


def quarter_period(lam, alpha, tol=1e-10):
    """Smallest x > 0 with f'(x) = 0, the ODE route to ``period.theta``."""
    if lam <= 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    if alpha <= 0.0:
        raise DomainError(f"quarter_period requires alpha > 0, got {alpha}")
    return _solve_to_crest(lam, alpha, tol)[1]


@dataclass
class QuarterProfile:
    """Quarter-period arc on [0, theta_end], from the zero crossing to the crest.

    ``dense`` maps x arrays to (f, f'); the extension draws every sample from it.
    """

    lam: float
    alpha: float
    theta_end: float
    dense: object = field(repr=False, default=None, compare=False)


def extend_odd_periodic(q, n_samples=513):
    """Full-period odd profile of period 4 theta_end from a quarter arc.

    With y = x mod 4 t and quadrant j = floor(y / t), t = theta_end:
    j=0: (F(y), G(y));  j=1: (F(2t-y), -G(2t-y));
    j=2: (-F(y-2t), -G(y-2t));  j=3: (-F(4t-y), G(4t-y)).
    A folded abscissa within 4 eps period of 0 is the zero crossing.  On
    grids of 4k + 1 points ``q.dense`` is called on the first quarter's
    k + 1 points only, and the other quarters are its reflection.
    """
    period = 4.0 * q.theta_end
    snap = 4.0 * np.finfo(float).eps * period

    def ev(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.mod(x, period)
        quad = np.clip(np.floor_divide(y, q.theta_end).astype(int), 0, 3)
        r = y - quad * q.theta_end
        u = np.where(quad % 2 == 0, r, q.theta_end - r)
        u = np.where(u <= snap, 0.0, u)
        u_distinct, inverse = np.unique(u, return_inverse=True)
        f, g = q.dense(u_distinct)
        sign_f = np.where(quad <= 1, 1.0, -1.0)
        sign_g = np.where((quad == 0) | (quad == 3), 1.0, -1.0)
        return sign_f * f[inverse], sign_g * g[inverse]

    xs = np.linspace(0.0, period, n_samples)
    k, rem = divmod(n_samples - 1, 4)
    f, fp = _reflect_quarter(*q.dense(xs[: k + 1])) if rem == 0 else ev(xs)
    return SolutionProfile(
        lam=q.lam, alpha=q.alpha, period=period, parity="odd", x=xs, f=f, f_prime=fp, evaluate=ev
    )


@dataclass
class SampledQuarter(QuarterProfile):
    """A quarter arc from the ODE route: the stepper's interpolant and a few sampled states."""

    samples: list = field(default_factory=list)


def solve_quarter(lam, alpha, tol=1e-10, n_samples=129):
    """Integrate up to the quarter-period event and keep the dense output."""
    if alpha <= 0.0:
        raise DomainError(f"solve_quarter requires alpha > 0, got {alpha}")
    sol, theta_end = _solve_to_crest(lam, alpha, tol)
    xs = np.linspace(0.0, theta_end, n_samples)
    fg = sol.sol(xs)
    samples = [State(x=float(x), f=float(f), g=float(g)) for x, f, g in zip(xs, fg[0], fg[1])]
    return SampledQuarter(lam=lam, alpha=alpha, theta_end=theta_end, dense=sol.sol, samples=samples)
