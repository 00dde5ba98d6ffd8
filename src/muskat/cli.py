"""Command-line front end.

Subcommands: constants, classify, branch, profile, pendulum, coexist,
expansion-check.  Every subcommand shares the flags --g, --rho-plus,
--rho-minus, --h, --config, --out and --format; none sets a solver
tolerance, since every slope solve runs to rounding.  Exit codes: 0
success, 1 numerical failure (a library error that is a RuntimeError),
2 invalid input (one that is a ValueError).  Flag values override config
file values, which override built-in defaults; ``--n`` sets ``n_points``
for ``branch`` and ``n_samples`` for ``profile`` and ``pendulum``.

No command loads numpy.  ``profile`` and ``pendulum`` run the arc's
namespace-generic code (``elliptic.Arc``) on ``elliptic.MATH``, one
sample at a time, and hand plain lists to ``write_table``; their samples
are the numpy library's (``branch.profile_at``, ``scale_profile``,
``translate_even``, ``pendulum.to_pendulum``) to within an ulp of the
arc's u.  ``main`` builds the parser of the named subcommand only, whose
usage and error text are the full parser's.
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


def _common(sp) -> None:
    sp.add_argument("--g", type=float, default=None, help="gravitational acceleration")
    sp.add_argument("--rho-plus", type=float, default=None, help="density of the upper fluid")
    sp.add_argument("--rho-minus", type=float, default=None, help="density of the lower fluid")
    sp.add_argument("--h", type=float, default=None, help="cell half-height")
    sp.add_argument("--config", default=None, help="JSON config file")
    sp.add_argument("--out", default=None, help="output path (stdout when omitted)")
    sp.add_argument("--format", choices=("csv", "json"), default=None, help="table format")


def _constants_args(sp) -> None:
    sp.add_argument("--l", type=int, default=5, help="list bifurcation points up to this mode")


def _branch_args(sp) -> None:
    sp.add_argument("--l", type=int, default=1, help="mode number (minimal period 2*pi/l)")
    sp.add_argument("--n", type=int, default=None, help="number of branch points")


def _profile_args(sp) -> None:
    sp.add_argument("--l", type=int, default=1, help="mode number")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=float, help="base branch parameter in (lambda_h, 1]")
    group.add_argument("--gamma", dest="gamma", type=float, help="scaled surface tension (alternative to --lambda)")
    sp.add_argument("--parity", choices=("odd", "even"), default="odd")
    sp.add_argument("--sign", choices=("plus", "minus"), default="plus")
    sp.add_argument("--n", type=int, default=None, help="number of samples")


def _pendulum_args(sp) -> None:
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=float, help="branch parameter in (lambda_star, 1]")
    group.add_argument("--gamma", dest="gamma", type=float, help="surface tension (alternative to --lambda)")
    sp.add_argument("--n", type=int, default=None, help="number of samples")


def _coexist_args(sp) -> None:
    sp.add_argument("--l-max", type=int, default=6, help="largest mode to examine")


def _expansion_check_args(sp) -> None:
    sp.add_argument("--l", type=int, default=1, help="mode number")
    sp.add_argument(
        "--eps", default="0.02,0.04,0.08", help="comma-separated distinct amplitude parameters in [1e-5, 0.1]"
    )


#: each subcommand's help line and the flags it adds to the common ones, in the order of --help
_SUBCOMMANDS = {
    "constants": ("threshold constants and regime classification", _constants_args),
    "classify": ("blow-up regime for the configured cell height", None),
    "branch": ("trace a bifurcation branch to a table", _branch_args),
    "profile": ("export one steady profile over a 2*pi window", _profile_args),
    "pendulum": ("export the pendulum swing matched to a profile", _pendulum_args),
    "coexist": ("gamma windows where consecutive branches coexist", _coexist_args),
    "expansion-check": ("fit the quadratic gamma coefficient near a bifurcation point", _expansion_check_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone when it names one.

    A parser of one subcommand writes the usage and error text of the full
    parser: its subcommand metavar is the full parser's list of choices.
    """
    parser = argparse.ArgumentParser(
        prog="muskat",
        description=(
            "Steady fingering interfaces in a periodic Hele-Shaw cell: "
            "bifurcation branches, blow-up regimes, pendulum correspondence."
        ),
    )
    names = [command] if command in _SUBCOMMANDS else list(_SUBCOMMANDS)
    metavar = "{" + ",".join(_SUBCOMMANDS) + "}" if len(names) == 1 else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_args = _SUBCOMMANDS[name]
        sp = sub.add_parser(name, help=help_text)
        _common(sp)
        if add_args is not None:
            add_args(sp)
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
        # --n sets the grid the command reads: branch points, or profile and swing samples
        overrides["n_points" if args.command == "branch" else "n_samples"] = n
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
    # every point resolves: the truncation fields stay, always 0, until the schema is next bumped
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
        "n_truncated": 0,
        "units": "lambda,alpha,max_slope:dimensionless gamma:force/length amplitude:length quarter_period:radian",
    }
    lam, gamma, alpha, amplitude, quarter, *_ = map(list, zip(*br.points))
    columns = {"lambda": lam, "gamma": gamma, "alpha": alpha, "amplitude": amplitude, "max_slope": alpha,
               "quarter_period": quarter, "truncated": [0] * len(lam)}
    write_table(cfg.out, metadata, columns, fmt=cfg.format, precision=cfg.precision)


def _base_lambda(cfg: RunConfig, args, l: int) -> float:
    if getattr(args, "lam", None) is not None:
        return args.lam
    # checked before the scaling, so that the message quotes the gamma given
    if not 0.0 < args.gamma < math.inf:
        raise DomainError(f"gamma must be positive and finite, got {args.gamma}")
    # scaled gamma -> base lambda: gamma_scaled = weight / (lam * l^2)
    return curve.lambda_of_gamma(cfg.physical(), args.gamma * l * l)


def _profile_samples(lam: float, mod, n: int, l: int, even: bool):
    """(period, f, f') of the mode-l profile at base lam on linspace(0, period, n), as lists.

    The samples of ``branch.profile_at``, ``scale_profile`` and
    ``translate_even``, from the same arc code on ``MATH``: a 4k + 1 grid
    reflects the inverted first quarter and shifts an even profile by k
    steps, and other grids evaluate the odd profile at x, or at
    l (x + period/4) for an even one.
    """
    if mod.alpha == 0.0:
        return 2.0 * math.pi / l, [0.0] * n, [0.0] * n
    from .elliptic import MATH, Arc

    arc = Arc(lam, mod)
    period = 4.0 * arc.quarter
    k, rem = divmod(n - 1, 4)
    if rem == 0:
        F, G = zip(*(arc._rising(MATH, x) for x in MATH.linspace(0.0, period, n)[: k + 1]))
        back_f, back_g = F[-2::-1], G[-2::-1]
        f = [*F, *back_f, *(-v for v in F[1:]), *(-v for v in back_f)]
        fp = [*G, *(-v for v in back_g), *(-v for v in G[1:]), *back_g]
        if even:
            f, fp = f[k:-1] + f[: k + 1], fp[k:-1] + fp[: k + 1]
    else:
        if even:
            shift = 0.25 * (period / l)
            xs = [l * (x + shift) for x in MATH.linspace(0.0, period / l, n)]
        else:
            xs = MATH.linspace(0.0, period, n)
        f, fp = zip(*(arc._odd(MATH, x) for x in xs))
    return period / l, [v / l for v in f], list(fp)


def _residual(period: float, f: list, fp: list, lam: float) -> tuple[float, float]:
    """``branch.residual`` of samples on linspace(0, period, n), with the trapezoid sum by math.fsum."""
    from .elliptic import MATH

    x = MATH.linspace(0.0, period, len(f))
    step = x[1] - x[0]
    fi = f[:-1]
    worst = 0.0
    for j, v in enumerate(fi):
        f2 = (fi[(j + 1) % len(fi)] - 2.0 * v + fi[j - 1]) / step**2
        worst = max(worst, abs(f2 / (1.0 + fp[j] * fp[j]) ** 1.5 + lam * v))
    mean = math.fsum((b - a) * (g + e) / 2.0 for a, b, e, g in zip(x, x[1:], f, f[1:])) / period
    return worst, abs(mean)


def cmd_profile(cfg: RunConfig, args) -> None:
    from .elliptic import MATH

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
    n = cfg.n_samples
    mod = curve._modulus_of_lambda(lam)
    period, f, fp = _profile_samples(lam, mod, n, l, args.parity == "even")
    if args.sign == "minus":
        f, fp = [-v for v in f], [-v for v in fp]
    res_ode, res_mean = _residual(period, f, fp, lam * l * l)
    # the samples sit on linspace(0, 2 pi/l, n): x = 2 pi j/(n - 1) is sample l j, modulo the period
    idx = [l * j % (n - 1) for j in range(n)]
    metadata = {
        "kind": "profile",
        "lambda": lam * l * l,
        "gamma": curve.gamma_of_lambda(p, lam) / (l * l),
        "l": l,
        "alpha": mod.alpha,
        "period": period,
        "parity": args.parity,
        "sign": args.sign,
        "residual_ode": res_ode,
        "residual_mean": res_mean,
        "units": "x:radian f:length f_prime:dimensionless",
    }
    columns = {"x": MATH.linspace(0.0, 2.0 * math.pi, n), "f": [f[i] for i in idx], "f_prime": [fp[i] for i in idx]}
    write_table(cfg.out, metadata, columns, fmt=cfg.format, precision=cfg.precision)


def cmd_pendulum(cfg: RunConfig, args) -> None:
    from .elliptic import MATH, Arc

    lam = _base_lambda(cfg, args, 1)
    # one slope solve: the swing of its arc (crest up) and the branch-form period 2 pi/Q
    mod = curve._modulus_of_lambda(lam)
    arc = Arc(lam, mod)
    s = MATH.linspace(0.0, arc.length, cfg.n_samples)
    theta, theta_prime = zip(*(arc._swing(MATH, arc.root_lam * v) for v in s))
    L_formula = 2.0 * math.pi / mod.Q
    metadata = {
        "kind": "pendulum",
        "lambda": lam,
        "alpha": mod.alpha,
        "theta_max": math.atan(mod.alpha),
        "L_formula": L_formula,
        "L_arclength": arc.length,
        "L_abs_diff": abs(L_formula - arc.length),
        "units": "s:length theta:radian theta_prime:radian/length",
    }
    write_table(cfg.out, metadata, {"s": s, "theta": theta, "theta_prime": theta_prime}, fmt=cfg.format,
                precision=cfg.precision)


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


def _is_negative_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return token.startswith("-")


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with ``--opt -1e-3`` written ``--opt=-1e-3``, for every negative value float() reads.

    argparse alone takes a plain negative (``-1``, ``-.5``) as a value, but
    reads an exponent form, ``-inf`` or ``-nan`` as an option, leaving the
    flag before it without its value.
    """
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and prev != "--help" and _is_negative_float(tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = _join_negative_values(sys.argv[1:] if argv is None else list(argv))
    args = build_parser(argv[0] if argv else None).parse_args(argv)
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
