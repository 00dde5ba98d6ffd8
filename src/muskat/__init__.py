"""Steady fingering interfaces in a periodic Hele-Shaw cell.

Computes the global bifurcation branches of steady two-phase interfaces
(heavier fluid on top), classifies their blow-up behaviour against the
cell-height threshold h_star, and realises the exact correspondence with
periodic pendulum swings.

The package imports lazily (PEP 562): ``import muskat`` loads no
submodule, and each public name loads its defining module on first use,
so the scalar layers (``agm``, ``period``, ``curve``, ``expansion``)
run without numpy.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset(
    ("agm", "branch", "cli", "config", "curve", "elliptic", "errors", "expansion", "export", "pendulum", "period")
)

#: public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(
        ("Branch", "BranchPoint", "PhysicalParams", "Regime", "RegimeKind", "alpha_of_lambda", "branch_amplitude",
         "coexistence_levels", "gamma_bar", "gamma_of_lambda", "lambda_floor", "lambda_h", "lambda_of_gamma",
         "max_amplitude", "trace_branch"),
        "curve",
    ),
    **dict.fromkeys(
        ("SolutionProfile", "fourier_sine_coefficient", "negate_profile", "profile_at", "residual", "scale_profile",
         "translate_even", "zero_profile"),
        "branch",
    ),
    **dict.fromkeys(("ExpansionFit", "expansion_check"), "expansion"),
    "RunConfig": "config",
    **dict.fromkeys(
        ("ConfigError", "ConvergenceError", "DomainError", "MuskatError", "OutOfRangeError", "ParityError",
         "SaturationError", "SingularityError"),
        "errors",
    ),
    **dict.fromkeys(
        ("PendulumTrajectory", "from_pendulum", "lambda_of_period", "pendulum_period", "to_pendulum"), "pendulum"
    ),
    **dict.fromkeys(("Constants", "beta_of_alpha", "constants"), "agm"),
    **dict.fromkeys(("dtheta_dalpha", "theta", "theta_limit_infinity", "theta_limit_zero"), "period"),
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
