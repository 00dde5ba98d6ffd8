"""Seeded request generators for the three benchmark workloads.

Every workload is an endless series of cycles; a run executes whole cycles
until its time is up, so each run sees the same mix of request kinds.  The
continuous inputs come from low-discrepancy sequences with a seeded start:
any prefix covers its range almost evenly, so the share of inputs near the
blow-up end moves little between seeds and run lengths, while no input
repeats.

The workloads stay where every request succeeds at the seed commit, so a
run's ``failed`` count is a regression, not a known defect.  The known
defects are probed separately, on the fixed inputs of ``DEFECT_PROBES``,
outside the timed region, and reported on every run:

* ``alpha_of_lambda`` raises SaturationError below the library's
  ``lambda_floor`` (a gap of about 6.4e-9), so slope gaps start at 1e-8;
* the arc-length swing period (``to_pendulum``) leaves the 1e-6 band
  between gaps of 3e-3 and 1e-3, and the ``from_pendulum`` round trip is
  off by ~5 below a gap of about 0.04, so the full pendulum chain runs on bulk
  lambdas (gap >= 0.05) and the blow-up half stops at ``pendulum_period``.

Why these workloads:

* ``cli-mix``: fresh-process CLI commands over all seven subcommands.
  Import and front end are about 90% of each command, so import-path and
  cli/config/export changes show here and compute changes barely do.
* ``branch-sweep``: in-process trace_branch / lambda_h / alpha_of_lambda,
  the period/quadrature/branch root-finding path with no ODE.  Modes in
  the slope-blow-up regime share one base grid, so memoisation can show.
* ``profile-pendulum``: in-process profile, export and pendulum chain,
  the ivp/pendulum path.  Half the lambdas are in the bulk (they set the
  median), half sit within 1e-1..1e-8 of lambda_star (they set the tail).
  No input repeats, so a branch-layer cache should change nothing here.

Inputs are generated here, without the library; the library only ever
receives the generated values.
"""

from __future__ import annotations

import math
import random

# lambda_star = 1/K(1/2)^2 with K(1/2) = Gamma(1/4)^2 / (4 sqrt(pi))
LAMBDA_STAR = 16.0 * math.pi / math.gamma(0.25) ** 4
H_STAR = math.sqrt(2.0 / LAMBDA_STAR)
REGIMES = ("TOUCHES_BOUNDARY", "BOTH_BLOWUP", "SLOPE_BLOWUP")
SUBCOMMANDS = ("constants", "classify", "branch", "profile", "pendulum", "coexist", "expansion-check")
WORKLOADS = ("cli-mix", "branch-sweep", "profile-pendulum")
GAP_MIN = 1e-8  # smallest lambda - lambda_star requested: above lambda_floor (~6.4e-9)
BULK_GAP_MIN = 0.05  # smallest gap of the full pendulum chain: above the round trip's ~0.04

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


class Draws:
    """Named uniform draws in [0, 1): x_k = frac(x_0 + k sqrt(p)), x_0 seeded.

    Each name gets its own irrational step (the square root of the next
    prime), so the dimensions do not move in lockstep.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._state: dict[str, list[float]] = {}

    def __call__(self, name: str) -> float:
        if name not in self._state:
            step = math.sqrt(_PRIMES[len(self._state)]) % 1.0
            self._state[name] = [self.rng.random(), step]
        st = self._state[name]
        st[0] = (st[0] + st[1]) % 1.0
        return st[0]

    def pick(self, name: str, options):
        return options[int(self(name) * len(options))]


def _log_gap(u: float, lo: float, hi: float) -> float:
    return 10.0 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo)))


def _h_for(regime: str, l: int, u: float) -> float:
    """Cell half-height that puts a mode-l branch (ceiling l*h) in ``regime``."""
    if regime == "TOUCHES_BOUNDARY":
        return (0.3 + 0.65 * u) * H_STAR / l
    if regime == "BOTH_BLOWUP":
        return H_STAR / l
    return (1.05 + 0.95 * u) * H_STAR / l


def _branch_cycle(d: Draws) -> list[dict]:
    regime = d.pick("regime", REGIMES)
    l = d.pick("l", (1, 2, 3, 4))
    reqs = [
        {"kind": "trace_branch", "regime": regime, "h": _h_for(regime, l, d("h")), "l": l,
         "n": d.pick("n", (25, 50))},
        {"kind": "lambda_h", "h": _h_for("TOUCHES_BOUNDARY", 1, d("h_touch"))},
    ]
    for _ in range(4):
        # log-uniform over the whole window, down to GAP_MIN above lambda_star
        gap = _log_gap(d("gap"), GAP_MIN, 0.999 * (1.0 - LAMBDA_STAR))
        reqs.append({"kind": "alpha_of_lambda", "gap": gap, "lam": LAMBDA_STAR + gap})
    return reqs


def _profile_request(d: Draws, kind: str, lam: float, gap: float) -> dict:
    return {"kind": kind, "lam": lam, "gap": gap, "l": d.pick("l", (1, 2, 3)),
            "even": d("even") < 0.5, "negate": d("negate") < 0.5, "fmt": d.pick("fmt", ("csv", "json"))}


def _profile_cycle(d: Draws) -> list[dict]:
    """A bulk lambda through the whole chain, then one near blow-up up to pendulum_period."""
    lam = 1.0 - (1.0 - LAMBDA_STAR - BULK_GAP_MIN) * d("bulk")
    gap = _log_gap(d("gap"), GAP_MIN, 1e-1)
    return [_profile_request(d, "profile", lam, lam - LAMBDA_STAR),
            _profile_request(d, "profile_edge", LAMBDA_STAR + gap, gap)]


def _cli_argv(d: Draws, cmd: str) -> list[str]:
    argv = [cmd, "--format", d.pick("fmt", ("csv", "json"))]
    l = d.pick("l", (1, 2, 3, 4))
    if cmd in ("constants", "classify", "branch"):
        regime = d.pick("regime", REGIMES)
        argv += ["--h", repr(_h_for(regime, l if cmd == "branch" else 1, d("h")))]
    if cmd in ("constants", "branch", "expansion-check"):
        argv += ["--l", str(l)]
    if cmd == "branch":
        argv += ["--n", str(d.pick("n", (25, 50)))]
    if cmd in ("profile", "pendulum"):
        lam = 0.4 + 0.55 * d("lam")
        if cmd == "profile":
            argv += ["--l", str(l), "--h", repr(_profile_h(d, lam, l)),
                     "--parity", d.pick("parity", ("odd", "even")), "--sign", d.pick("sign", ("plus", "minus"))]
        scale = l * l if cmd == "profile" else 1
        argv += ["--gamma", repr(1.0 / (lam * scale))] if d("by_gamma") < 0.5 else ["--lambda", repr(lam)]
    if cmd == "coexist":
        argv += ["--l-max", str(d.pick("l_max", (2, 3, 4, 5, 6, 7, 8)))]
    return argv


def _profile_h(d: Draws, lam: float, l: int) -> float:
    """A cell half-height whose mode-l window contains base parameter lam."""
    regime = d.pick("regime", REGIMES)
    if regime != "TOUCHES_BOUNDARY":
        return _h_for(regime, l, d("h"))
    from oracle import amplitude_at

    # the finger at lam must fit: amplitude(lam) < l h < h_star
    lo = amplitude_at(lam) / H_STAR
    return (lo + (0.98 - lo) * (0.05 + 0.9 * d("h"))) * H_STAR / l


def _cli_cycle(d: Draws) -> list[dict]:
    order = list(SUBCOMMANDS)
    d.rng.shuffle(order)
    return [{"kind": "cli", "argv": _cli_argv(d, cmd)} for cmd in order]


_CYCLES = {"cli-mix": _cli_cycle, "branch-sweep": _branch_cycle, "profile-pendulum": _profile_cycle}


# known defects at fixed inputs, run outside the timed region (see the module docstring)
DEFECT_PROBES = {
    "branch-sweep": [{"kind": "alpha_of_lambda", "gap": 1e-10, "lam": LAMBDA_STAR + 1e-10}],
    "profile-pendulum": [{"kind": "profile", "lam": LAMBDA_STAR + 1e-3, "gap": 1e-3, "l": 1, "even": False,
                          "negate": False, "fmt": "csv"}],
}


def cycles(workload: str, seed: int):
    """Endless cycles of requests for ``workload``; the same seed gives the same requests."""
    d = Draws(seed)
    make = _CYCLES[workload]
    while True:
        yield make(d)


def warmup(workload: str, seed: int) -> list[dict]:
    """One cycle from a separate stream, run before timing (none for cli-mix)."""
    if workload == "cli-mix":
        return []
    return next(cycles(workload, seed + 1_000_003))
