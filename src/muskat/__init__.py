"""Steady fingering interfaces in a periodic Hele-Shaw cell.

Computes the global bifurcation branches of steady two-phase interfaces
(heavier fluid on top), classifies their blow-up behaviour against the
cell-height threshold h_star, and realises the exact correspondence with
periodic pendulum swings.
"""

from .branch import (
    Branch,
    BranchPoint,
    ExpansionFit,
    PhysicalParams,
    Regime,
    RegimeKind,
    alpha_of_lambda,
    branch_amplitude,
    coexistence_levels,
    expansion_check,
    fourier_sine_coefficient,
    gamma_bar,
    gamma_of_lambda,
    lambda_floor,
    lambda_h,
    lambda_of_gamma,
    negate_profile,
    profile_at,
    residual,
    scale_profile,
    trace_branch,
    translate_even,
)
from .config import RunConfig
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    EventNotFoundError,
    IntegrationError,
    MuskatError,
    OutOfRangeError,
    ParityError,
    SaturationError,
    SingularityError,
)
from .ivp import (
    QuarterProfile,
    SolutionProfile,
    State,
    energy,
    extend_odd_periodic,
    integrate,
    max_amplitude,
    quarter_period,
    solve_quarter,
    zero_profile,
)
from .pendulum import (
    PendulumTrajectory,
    from_pendulum,
    lambda_of_period,
    pendulum_period,
    to_pendulum,
)
from .period import (
    beta_of_alpha,
    dtheta_dalpha,
    theta,
    theta_limit_infinity,
    theta_limit_zero,
)
from .special import Constants, beta, constants, log_gamma

__version__ = "0.1.0"
