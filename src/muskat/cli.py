"""Command-line front end.

Subcommands: constants, classify, branch, profile, pendulum, coexist,
expansion-check.  Every subcommand shares the flags --g, --rho-plus,
--rho-minus, --h, --config, --out and --format; none sets a solver
tolerance, since every slope solve runs to rounding.  Exit codes: 0
success, 1 numerical failure (a library error that is a RuntimeError),
2 invalid input (one that is a ValueError).  Flag values override config
file values, which override built-in defaults.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import curve
from .agm import constants
from .config import RunConfig
from .errors import ConfigError, DomainError, MuskatError, OutOfRangeError
from .export import format_float, write_table


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="muskat",
        description=(
            "Steady fingering interfaces in a periodic Hele-Shaw cell: "
            "bifurcation branches, blow-up regimes, pendulum correspondence."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--g", type=float, default=None, help="gravitational acceleration")
        sp.add_argument("--rho-plus", type=float, default=None, help="density of the upper fluid")
        sp.add_argument("--rho-minus", type=float, default=None, help="density of the lower fluid")
        sp.add_argument("--h", type=float, default=None, help="cell half-height")
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--out", default=None, help="output path (stdout when omitted)")
        sp.add_argument("--format", choices=("csv", "json"), default=None, help="table format")

    sp = sub.add_parser("constants", help="threshold constants and regime classification")
    common(sp)
    sp.add_argument("--l", type=int, default=5, help="list bifurcation points up to this mode")

    sp = sub.add_parser("classify", help="blow-up regime for the configured cell height")
    common(sp)

    sp = sub.add_parser("branch", help="trace a bifurcation branch to a table")
    common(sp)
    sp.add_argument("--l", type=int, default=1, help="mode number (minimal period 2*pi/l)")
    sp.add_argument("--n", type=int, default=None, help="number of branch points")

    sp = sub.add_parser("profile", help="export one steady profile over a 2*pi window")
    common(sp)
    sp.add_argument("--l", type=int, default=1, help="mode number")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=float, help="base branch parameter in (lambda_h, 1]")
    group.add_argument("--gamma", dest="gamma", type=float, help="scaled surface tension (alternative to --lambda)")
    sp.add_argument("--parity", choices=("odd", "even"), default="odd")
    sp.add_argument("--sign", choices=("plus", "minus"), default="plus")
    sp.add_argument("--n", type=int, default=None, help="number of samples")

    sp = sub.add_parser("pendulum", help="export the pendulum swing matched to a profile")
    common(sp)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=float, help="branch parameter in (lambda_star, 1]")
    group.add_argument("--gamma", dest="gamma", type=float, help="surface tension (alternative to --lambda)")
    sp.add_argument("--n", type=int, default=None, help="number of samples")

    sp = sub.add_parser("coexist", help="gamma windows where consecutive branches coexist")
    common(sp)
    sp.add_argument("--l-max", type=int, default=6, help="largest mode to examine")

    sp = sub.add_parser(
        "expansion-check", help="fit the quadratic gamma coefficient near a bifurcation point"
    )
    common(sp)
    sp.add_argument("--l", type=int, default=1, help="mode number")
    sp.add_argument(
        "--eps", default="0.02,0.04,0.08", help="comma-separated distinct amplitude parameters in [1e-5, 0.1]"
    )

    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = dict(
        grav=args.g,
        rho_plus=getattr(args, "rho_plus"),
        rho_minus=getattr(args, "rho_minus"),
        h=args.h,
        format=args.format,
        out=args.out,
    )
    n = getattr(args, "n", None)
    if n is not None:
        overrides.update(n_points=n, n_samples=n)
    cfg = cfg.updated(**overrides)
    cfg.validate()
    return cfg


def _emit_text(cfg: RunConfig, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if cfg.out is None:
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _regime_lines(cfg: RunConfig) -> list[str]:
    p = cfg.physical()
    reg = curve.lambda_h(p)
    fmt = lambda v: format_float(v, cfg.precision)
    return [
        f"cell half-height h = {p.h:g}: regime ({reg.kind.roman}) {reg.kind.value}",
        f"  lambda_h = {fmt(reg.lambda_h)}",
        f"  gamma_h  = {fmt(reg.gamma_h)}",
    ]


def cmd_constants(cfg: RunConfig, args) -> None:
    if args.l < 1:
        raise DomainError(f"mode number must be >= 1, got {args.l}")
    c = constants()
    p = cfg.physical()
    fmt = lambda v: format_float(v, cfg.precision)
    lines = [
        f"lambda_star = {fmt(c.lambda_star)}   (1 / K(1/2)^2 = B(3/4,1/2)^2 / (2 pi^2), via the AGM)",
        f"h_star      = {fmt(c.h_star)}   (sqrt(2 / lambda_star) = sqrt(2) K(1/2))",
        f"gamma_star  = {fmt(p.weight / c.lambda_star)}   (g (rho_plus - rho_minus) / lambda_star)",
        "bifurcation points gamma_bar_l = g (rho_plus - rho_minus) / l^2:",
    ]
    for l in range(1, args.l + 1):
        lines.append(f"  l={l}: {fmt(curve.gamma_bar(p, l))}")
    lines.extend(_regime_lines(cfg))
    _emit_text(cfg, lines)


def cmd_classify(cfg: RunConfig, args) -> None:
    _emit_text(cfg, _regime_lines(cfg))


def cmd_branch(cfg: RunConfig, args) -> None:
    p = cfg.physical()
    br = curve.trace_branch(p, l=args.l, n_points=cfg.n_points)
    n_trunc = sum(pt.truncated for pt in br.points)
    if n_trunc:
        _warn(f"{n_trunc} branch point(s) near lambda_star saturated the slope cap and carry NaN data")
    metadata = {
        "kind": "branch",
        "l": br.l,
        "n_points": len(br.points),
        "grav": p.grav,
        "rho_plus": p.rho_plus,
        "rho_minus": p.rho_minus,
        "h": p.h,
        "regime": br.regime.kind.value,
        "lambda_h_base": br.regime.lambda_h,
        "gamma_h_base": br.regime.gamma_h,
        "n_truncated": n_trunc,
        "units": "lambda,alpha,max_slope:dimensionless gamma:force/length amplitude:length quarter_period:radian",
    }

    def column(attr: str) -> list[float]:
        return [float(getattr(pt, attr)) for pt in br.points]

    columns = {
        "lambda": column("lam"),
        "gamma": column("gamma"),
        "alpha": column("alpha"),
        "amplitude": column("amplitude"),
        "max_slope": column("alpha"),
        "quarter_period": column("quarter_period"),
        "truncated": [int(pt.truncated) for pt in br.points],
    }
    write_table(cfg.out, metadata, columns, fmt=cfg.format, precision=cfg.precision)


def _base_lambda(cfg: RunConfig, args, l: int) -> float:
    p = cfg.physical()
    if getattr(args, "lam", None) is not None:
        return args.lam
    # scaled gamma -> base lambda: gamma_scaled = weight / (lam * l^2)
    return curve.lambda_of_gamma(p, args.gamma * l * l)


def cmd_profile(cfg: RunConfig, args) -> None:
    import numpy as np

    from . import branch as branch_mod

    p = cfg.physical()
    l = args.l
    if l < 1:
        raise DomainError(f"mode number must be >= 1, got {l}")
    lam = _base_lambda(cfg, args, l)
    window = curve.lambda_h(p._replace(h=l * p.h))
    if not window.lambda_h < lam <= 1.0:
        raise OutOfRangeError(
            lam,
            (window.lambda_h, 1.0),
            f"lambda={lam:.9g} outside feasible window ({window.lambda_h:.9g}, 1] "
            f"for l={l}, h={p.h:g}",
        )
    prof = branch_mod.profile_at(lam, n_samples=cfg.n_samples)
    prof = branch_mod.scale_profile(prof, l)
    if args.parity == "even":
        prof = branch_mod.translate_even(prof, l)
    if args.sign == "minus":
        prof = branch_mod.negate_profile(prof)
    res_ode, res_mean = branch_mod.residual(prof)
    # the samples sit on linspace(0, 2 pi/l, n): x = 2 pi j/(n - 1) is sample l j, modulo the period
    n = cfg.n_samples
    xs = np.linspace(0.0, 2.0 * math.pi, n)
    idx = (l * np.arange(n)) % (n - 1)
    f, fp = prof.f[idx], prof.f_prime[idx]
    metadata = {
        "kind": "profile",
        "lambda": prof.lam,
        "gamma": curve.gamma_of_lambda(p, lam) / (l * l),
        "l": l,
        "alpha": prof.alpha,
        "period": prof.period,
        "parity": prof.parity,
        "sign": args.sign,
        "residual_ode": res_ode,
        "residual_mean": res_mean,
        "units": "x:radian f:length f_prime:dimensionless",
    }
    write_table(cfg.out, metadata, {"x": xs, "f": f, "f_prime": fp}, fmt=cfg.format, precision=cfg.precision)


def cmd_pendulum(cfg: RunConfig, args) -> None:
    from . import pendulum as pendulum_mod

    lam = _base_lambda(cfg, args, 1)
    # one slope solve: the swing of its arc (crest up) and the branch-form period 2 pi/Q
    mod = curve._modulus_of_lambda(lam)
    traj = pendulum_mod._sample_swing(lam, mod, cfg.n_samples)
    L_formula = 2.0 * math.pi / mod.Q
    metadata = {
        "kind": "pendulum",
        "lambda": lam,
        "alpha": mod.alpha,
        "theta_max": traj.theta_max,
        "L_formula": L_formula,
        "L_arclength": traj.period_L,
        "L_abs_diff": abs(L_formula - traj.period_L),
        "units": "s:length theta:radian theta_prime:radian/length",
    }
    columns = {"s": traj.s, "theta": traj.theta, "theta_prime": traj.theta_prime}
    write_table(cfg.out, metadata, columns, fmt=cfg.format, precision=cfg.precision)


def cmd_coexist(cfg: RunConfig, args) -> None:
    p = cfg.physical()
    levels = curve.coexistence_levels(p, args.l_max)
    metadata = {
        "kind": "coexist",
        "l_max": args.l_max,
        "lambda_star": constants().lambda_star,
        "gamma_star": p.weight / constants().lambda_star,
        "n_levels": len(levels),
    }
    columns = {
        "l": [l for l, _ in levels],
        "gamma_low": [float(w[0]) for _, w in levels],
        "gamma_high": [float(w[1]) for _, w in levels],
    }
    write_table(cfg.out, metadata, columns, fmt=cfg.format, precision=cfg.precision)


def cmd_expansion_check(cfg: RunConfig, args) -> None:
    from . import expansion

    p = cfg.physical()
    try:
        eps_list = tuple(float(tok) for tok in args.eps.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"--eps must be a comma-separated float list, got {args.eps!r}") from exc
    fit = expansion.expansion_check(p, l=args.l, eps_list=eps_list)
    metadata = {
        "kind": "expansion-check",
        "l": fit.l,
        "gamma_bar": curve.gamma_bar(p, fit.l),
        "fitted_coefficient": fit.coefficient,
        "expected_coefficient": fit.expected,
        "relative_deviation": abs(fit.coefficient - fit.expected) / fit.expected,
    }
    columns = {"eps": fit.eps, "gamma": fit.gammas, "ratio": fit.ratios}
    write_table(cfg.out, metadata, columns, fmt=cfg.format, precision=cfg.precision)


_HANDLERS = {
    "constants": cmd_constants,
    "classify": cmd_classify,
    "branch": cmd_branch,
    "profile": cmd_profile,
    "pendulum": cmd_pendulum,
    "coexist": cmd_coexist,
    "expansion-check": cmd_expansion_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        _HANDLERS[args.command](cfg, args)
    except MuskatError as exc:
        if isinstance(exc, ValueError):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
