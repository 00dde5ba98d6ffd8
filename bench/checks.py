"""Per-request correctness checks against the mpmath oracle.

Tolerances are the acceptance suite's own (tests/test_acceptance.py), no
new gates: first-integral drift and amplitude within 1e-8 (criteria 4, 5),
touching-regime endpoint amplitude within 1e-8 of h (criterion 7),
swing period and round trip within 1e-6 (criterion 10), fitted expansion
coefficient within 2% (criterion 8), alpha strictly decreasing along the
branch (criterion 6), CLI exit code 0 and a table that re-reads.

A failed check is counted, never raised.  Besides the verdict each check
returns the relative errors of every oracle-checked quantity (for
``accuracy_digits``) and the layer diagnostics the traced run reports.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import oracle
from workloads import H_STAR

H_STAR_REL_TOL = 1e-9  # the library's band for h == h_star


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    errs: list[float] = field(default_factory=list)  # relative errors against the oracle
    layer: dict = field(default_factory=dict)  # worst diagnostics, by per-layer metric

    def need(self, ok: bool, what: str) -> None:
        """Record a failed check under a fixed label (the report counts labels)."""
        if not ok:
            self.problems.append(what)

    def worst(self, key: str, value: float) -> None:
        self.layer[key] = max(self.layer.get(key, 0.0), value)

    @property
    def ok(self) -> bool:
        return not self.problems


def expected_regime(ceiling: float) -> str:
    if abs(ceiling - H_STAR) <= H_STAR_REL_TOL * H_STAR:
        return "BOTH_BLOWUP"
    return "SLOPE_BLOWUP" if ceiling > H_STAR else "TOUCHES_BOUNDARY"


def _touching_endpoint(v: Verdict, lam_h: float, h: float) -> None:
    amp = oracle.amplitude_at(lam_h)
    v.errs.append(oracle.rel_err(amp, h))
    v.need(abs(amp - h) <= 1e-8, "endpoint amplitude != h")


def _branch_rows(v: Verdict, lam, alpha, amp, l: int) -> None:
    if not all(math.isfinite(a) for a in alpha):
        v.need(False, "truncated rows")
        return
    v.need(all(a > b for a, b in zip(alpha, alpha[1:])), "alpha not strictly decreasing along the branch")
    for la, a, A in zip(lam, alpha, amp):
        lam_o, _, amp_o = oracle.from_alpha(a)
        err = oracle.rel_err(la / (l * l), lam_o)
        v.errs += [err, oracle.rel_err(A, amp_o / l)]
        v.worst("branch.lambda_err_max", err)
        v.need(abs(A - amp_o / l) <= 1e-8, "branch amplitude off the closed form")


def check_trace_branch(req, out, v: Verdict) -> None:
    want = expected_regime(req["l"] * req["h"])
    v.need(out["regime"] == want, "wrong regime")
    v.need(out["truncated"] == 0, "truncated rows")
    _branch_rows(v, out["lam"], out["alpha"], out["amplitude"], req["l"])
    if want == "TOUCHES_BOUNDARY":
        v.need(abs(out["amplitude"][0] - req["h"]) <= 1e-8, "first point does not touch the wall")
        _touching_endpoint(v, out["lambda_h"], req["l"] * req["h"])


def check_lambda_h(req, out, v: Verdict) -> None:
    v.need(out["regime"] == "TOUCHES_BOUNDARY", "wrong regime")
    _touching_endpoint(v, out["lambda_h"], req["h"])


def check_alpha(req, out, v: Verdict) -> None:
    lam_o = oracle.from_alpha(out["alpha"])[0]
    err = oracle.rel_err(lam_o, req["lam"])
    v.errs.append(err)
    v.worst("branch.lambda_err_max", err)


def check_profile(req, out, v: Verdict) -> None:
    """The profile chain; the swing checks only where the request ran the round trip."""
    lam_o, L_o, amp_o = oracle.from_alpha(out["alpha"])
    lam_err = oracle.rel_err(lam_o, req["lam"])
    v.errs += [lam_err, oracle.rel_err(out["amplitude"], amp_o), oracle.rel_err(out["L"], L_o)]
    v.worst("branch.lambda_err_max", lam_err)
    v.worst("ivp.drift_max", out["drift"])
    v.worst("ivp.period_defect_max", out["period_defect"])
    v.need(out["drift"] <= 1e-8, "first-integral drift")
    v.need(abs(out["amplitude"] - amp_o) <= 1e-8, "amplitude off the closed form")
    v.need(abs(out["L"] - L_o) <= 1e-6, "pendulum_period off the closed form")
    v.need(out["reread"], "table does not re-read")
    if "L_arclength" in out:
        v.errs.append(oracle.rel_err(out["L_arclength"], L_o))
        v.worst("pendulum.L_arclength_err_max", abs(out["L_arclength"] - L_o))
        v.worst("pendulum.roundtrip_err_max", out["roundtrip"])
        v.need(abs(out["L_arclength"] - L_o) <= 1e-6, "arc-length period off the closed form")
        v.need(out["roundtrip"] <= 1e-6, "pendulum round trip")


# CLI outputs ---------------------------------------------------------------
def _flag(argv, name, default=None, kind=float):
    return kind(argv[argv.index(name) + 1]) if name in argv else default


def _text_regime(v: Verdict, text: str, h: float) -> None:
    want = expected_regime(h)
    v.need(f" {want}" in text, "wrong regime")
    if want == "TOUCHES_BOUNDARY":
        _touching_endpoint(v, float(re.search(r"lambda_h = (\S+)", text).group(1)), h)


def check_cli(req, out, v: Verdict, read_table) -> None:
    """Check one CLI command's output file; ``read_table`` is muskat.export.read_table."""
    argv = req["argv"]
    cmd, h, l = argv[0], _flag(argv, "--h", 2.0), _flag(argv, "--l", 1, int)
    v.need(out["exit"] == 0, "nonzero exit code")
    if out["exit"] != 0:
        return
    if cmd in ("constants", "classify"):
        with open(out["path"], encoding="utf-8") as fh:
            text = fh.read()
        if cmd == "constants":
            ls = float(re.search(r"lambda_star = (\S+)", text).group(1))
            hs = float(re.search(r"h_star\s+= (\S+)", text).group(1))
            v.errs += [oracle.rel_err(ls, oracle.lambda_star()),
                       oracle.rel_err(hs, math.sqrt(2.0 / oracle.lambda_star()))]
        _text_regime(v, text, h)
        return
    meta, cols = read_table(out["path"])
    if cmd == "branch":
        want = expected_regime(l * h)
        v.need(meta["regime"] == want, "wrong regime")
        _branch_rows(v, cols["lambda"], cols["alpha"], cols["amplitude"], l)
    elif cmd == "profile":
        lam_o = oracle.from_alpha(meta["alpha"])[0]
        v.errs.append(oracle.rel_err(meta["lambda"] / (l * l), lam_o))
        v.need(len(cols["x"]) == 513, "profile table has the wrong length")
    elif cmd == "pendulum":
        L_o = oracle.from_alpha(meta["alpha"])[1]
        for key in ("L_formula", "L_arclength"):
            v.errs.append(oracle.rel_err(meta[key], L_o))
            v.need(abs(meta[key] - L_o) <= 1e-6, "swing period off the closed form")
    elif cmd == "coexist":
        gs = 1.0 / oracle.lambda_star()
        want = [(k, 1.0 / k**2, gs / (k + 1) ** 2) for k in range(1, _flag(argv, "--l-max", 6, int) + 1)
                if 1.0 / (k + 1) ** 2 < 1.0 / k**2 < gs / (k + 1) ** 2 < gs / k**2]
        v.need([int(k) for k in cols["l"]] == [k for k, _, _ in want], "coexistence levels differ")
        for (_, lo, hi), got_lo, got_hi in zip(want, cols["gamma_low"], cols["gamma_high"]):
            v.errs += [oracle.rel_err(got_lo, lo), oracle.rel_err(got_hi, hi)]
    elif cmd == "expansion-check":
        v.need(meta["relative_deviation"] <= 0.02, "expansion coefficient")


CHECKS = {"trace_branch": check_trace_branch, "lambda_h": check_lambda_h, "alpha_of_lambda": check_alpha,
          "profile": check_profile, "profile_edge": check_profile}


def check_records(records: list[dict], read_table=None) -> list[Verdict]:
    """One verdict per record; a record whose request raised fails with its error's name."""
    verdicts = []
    for rec in records:
        v = Verdict()
        if rec["error"] is not None:
            v.need(False, rec["error"])
        elif rec["req"]["kind"] == "cli":
            check_cli(rec["req"], rec["out"], v, read_table)
        else:
            CHECKS[rec["req"]["kind"]](rec["req"], rec["out"], v)
        verdicts.append(v)
    _alpha_monotone(records, verdicts)
    return verdicts


def _alpha_monotone(records, verdicts) -> None:
    """Across all returned slope solves, alpha must fall as lambda rises."""
    solved = sorted(((rec["req"]["lam"], rec["out"]["alpha"], v) for rec, v in zip(records, verdicts)
                     if rec["req"]["kind"] == "alpha_of_lambda" and rec["error"] is None), key=lambda t: t[0])
    for (lam0, a0, v0), (lam1, a1, v1) in zip(solved, solved[1:]):
        if lam0 < lam1 and not a0 > a1:
            v0.need(False, "alpha not decreasing in lambda")
            v1.need(False, "alpha not decreasing in lambda")
