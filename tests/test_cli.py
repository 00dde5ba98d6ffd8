"""End-to-end CLI behaviour: formats, exit codes, determinism."""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import muskat
from muskat.cli import build_parser, main
from muskat.config import RunConfig
from muskat.export import read_table

README = Path(__file__).resolve().parents[1] / "README.md"


def run(args):
    return main(args)


def test_constants_report(capsys):
    assert run(["constants", "--l", "3"]) == 0
    out = capsys.readouterr().out
    assert "lambda_star = 2.90901" in out
    assert "h_star      = 2.62205" in out
    assert "l=3: 1.111" in out
    assert "regime (i) TOUCHES_BOUNDARY" in out  # default h = 2 < h_star


def test_classify_touching(capsys):
    h = muskat.constants().h_star / 2.0
    assert run(["classify", "--h", str(h)]) == 0
    assert "regime (i) TOUCHES_BOUNDARY" in capsys.readouterr().out


def test_classify_slope_blowup(capsys):
    assert run(["classify", "--h", "5"]) == 0
    assert "regime (iii) SLOPE_BLOWUP" in capsys.readouterr().out


def test_invalid_density_ordering(capsys):
    code = run(["constants", "--rho-plus", "0.5", "--rho-minus", "1.0"])
    assert code == 2
    assert "rho_plus must exceed rho_minus" in capsys.readouterr().err


def test_branch_rows_and_monotonicity(tmp_path):
    out = tmp_path / "branch.csv"
    assert run(["branch", "--l", "1", "--n", "50", "--h", "5", "--out", str(out)]) == 0
    meta, cols = read_table(str(out))
    assert meta["schema_version"] == 1
    assert cols["lambda"].size == 50
    order = np.argsort(cols["lambda"])
    amps = cols["amplitude"][order]
    assert np.all(np.diff(amps) < 0)  # amplitude falls as lambda rises
    assert np.all(cols["truncated"] == 0)


def test_branch_touching_boundary_row(tmp_path):
    out = tmp_path / "branch_h1.csv"
    assert run(["branch", "--l", "1", "--n", "25", "--h", "1", "--out", str(out)]) == 0
    _, cols = read_table(str(out))
    # the row at the window endpoint has the cell-filling amplitude
    boundary = cols["amplitude"][np.argmin(cols["lambda"])]
    assert boundary == pytest.approx(1.0, abs=1e-9)


def test_branch_mode_scaling(tmp_path):
    out1 = tmp_path / "b1.csv"
    out3 = tmp_path / "b3.csv"
    assert run(["branch", "--l", "1", "--n", "20", "--h", "5", "--out", str(out1)]) == 0
    assert run(["branch", "--l", "3", "--n", "20", "--h", "5", "--out", str(out3)]) == 0
    _, c1 = read_table(str(out1))
    _, c3 = read_table(str(out3))
    assert np.max(np.abs(c3["gamma"] - c1["gamma"] / 9.0)) <= 1e-12


def test_profile_trivial(tmp_path):
    out = tmp_path / "prof.csv"
    assert run(["profile", "--lambda", "1.0", "--out", str(out)]) == 0
    meta, cols = read_table(str(out))
    assert meta["residual_ode"] == 0.0
    assert np.max(np.abs(cols["f"])) == 0.0


def test_profile_even_symmetry(tmp_path):
    out = tmp_path / "prof_even.csv"
    assert run(
        ["profile", "--lambda", "0.9", "--parity", "even", "--n", "257", "--out", str(out)]
    ) == 0
    meta, cols = read_table(str(out))
    assert meta["parity"] == "even"
    f = cols["f"]
    assert f[0] == pytest.approx(np.max(np.abs(f)), rel=1e-12)  # crest at x = 0
    assert np.max(np.abs(f - f[::-1])) <= 1e-9  # symmetric columns


def test_profile_sign_flag(tmp_path):
    plus = tmp_path / "plus.csv"
    minus = tmp_path / "minus.csv"
    assert run(["profile", "--lambda", "0.8", "--out", str(plus)]) == 0
    assert run(["profile", "--lambda", "0.8", "--sign", "minus", "--out", str(minus)]) == 0
    _, cp = read_table(str(plus))
    _, cm = read_table(str(minus))
    assert np.max(np.abs(cp["f"] + cm["f"])) == 0.0


def test_profile_out_of_window_message(capsys):
    code = run(["profile", "--lambda", "0.2", "--h", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "feasible window" in err and ", 1]" in err


def test_profile_gamma_selector(tmp_path):
    by_lam = tmp_path / "lam.csv"
    by_gamma = tmp_path / "gam.csv"
    assert run(["profile", "--lambda", "0.8", "--out", str(by_lam)]) == 0
    assert run(["profile", "--gamma", "1.25", "--out", str(by_gamma)]) == 0
    assert by_lam.read_bytes() == by_gamma.read_bytes()


def test_lambda_gamma_mutually_exclusive():
    with pytest.raises(SystemExit) as exc:
        run(["profile", "--lambda", "0.8", "--gamma", "1.25"])
    assert exc.value.code == 2


def test_pendulum_trivial(tmp_path):
    out = tmp_path / "pend.csv"
    assert run(["pendulum", "--lambda", "1.0", "--out", str(out)]) == 0
    meta, _ = read_table(str(out))
    assert meta["L_formula"] == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert meta["L_arclength"] == pytest.approx(2.0 * math.pi, rel=1e-12)


def test_pendulum_dual_period(tmp_path):
    out = tmp_path / "pend9.csv"
    assert run(["pendulum", "--lambda", "0.9", "--out", str(out)]) == 0
    meta, cols = read_table(str(out))
    assert meta["L_abs_diff"] <= 1e-6
    assert np.max(np.abs(cols["theta"])) < math.pi / 2


def test_pendulum_near_blowup_is_clean(tmp_path, capsys):
    # at gap 1e-6 (alpha ~ 6e5) the closed-form swing is as good as in the
    # bulk: no warning, and the two swing periods agree
    lam = muskat.constants().lambda_star + 1e-6
    out = tmp_path / "near.csv"
    assert run(["pendulum", "--lambda", f"{lam:.15f}", "--n", "64", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    meta, _ = read_table(str(out))
    assert meta["alpha"] > 1e5
    assert meta["L_abs_diff"] <= 1e-6


def test_coexist_table(tmp_path):
    out = tmp_path / "coexist.csv"
    assert run(["coexist", "--l-max", "5", "--out", str(out)]) == 0
    _, cols = read_table(str(out))
    assert cols["l"].astype(int).tolist() == [2, 3, 4, 5]
    assert np.all(cols["gamma_low"] < cols["gamma_high"])


def test_expansion_check_report(tmp_path):
    out = tmp_path / "exp.csv"
    assert run(["expansion-check", "--l", "1", "--eps", "0.04,0.08", "--out", str(out)]) == 0
    meta, cols = read_table(str(out))
    assert meta["expected_coefficient"] == pytest.approx(0.375, rel=1e-12)
    assert meta["fitted_coefficient"] == pytest.approx(0.375, rel=0.02)
    assert cols["eps"].size == 2


def test_outputs_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["branch", "--l", "2", "--n", "15", "--h", "5"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_json_format_round_trip(tmp_path):
    out = tmp_path / "prof.json"
    assert run(["profile", "--lambda", "0.9", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == "1"
    assert set(payload["samples"]) == {"x", "f", "f_prime"}
    meta, cols = read_table(str(out))
    assert meta["lambda"] == pytest.approx(0.9, rel=1e-12)
    assert cols["x"].size == len(payload["samples"]["x"]) > 0


def _emitted_profile(tmp_path):
    """The samples-only profile (evaluate None) rebuilt from a ``profile --lambda 0.7`` table."""
    out = tmp_path / "prof.csv"
    assert run(["profile", "--lambda", "0.7", "--out", str(out)]) == 0
    meta, cols = read_table(str(out))
    return muskat.SolutionProfile(
        lam=meta["lambda"],
        alpha=meta["alpha"],
        period=cols["x"][-1] - cols["x"][0],
        parity=str(meta["parity"]),
        x=cols["x"],
        f=cols["f"],
        f_prime=cols["f_prime"],
    )


def test_emitted_profile_revalidates(tmp_path):
    rebuilt = _emitted_profile(tmp_path)
    res, mean = muskat.residual(rebuilt)
    assert res <= 1e-3  # file samples carry the 2*pi export grid, not the fine grid
    assert mean <= 1e-9


def test_transforms_of_an_emitted_profile_evaluate_nothing_on_its_grid(tmp_path):
    # both transforms reuse the samples on the period grid, so a profile
    # read back from a table needs no evaluator there
    rebuilt = _emitted_profile(tmp_path)
    own = muskat.profile_at(0.7)
    # the table closes the period with the first sample, as cmd_profile gathers it
    closed = np.arange(own.x.size) % (own.x.size - 1)
    own = dataclasses.replace(own, f=own.f[closed], f_prime=own.f_prime[closed])
    for from_file, from_library in (
        (muskat.scale_profile(rebuilt, 2), muskat.scale_profile(own, 2)),
        (muskat.translate_even(rebuilt), muskat.translate_even(own)),
    ):
        assert from_file.evaluate is None
        for a, b in ((from_file.f, from_library.f), (from_file.f_prime, from_library.f_prime)):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
    # off the period grid, or on a grid the quarter shift does not hit, the
    # samples must be evaluated, which samples alone cannot be
    off_grid = dataclasses.replace(rebuilt, x=rebuilt.x + 0.1)
    with pytest.raises(muskat.DomainError, match="dense evaluator"):
        muskat.scale_profile(off_grid, 2)
    with pytest.raises(muskat.DomainError, match="dense evaluator"):
        muskat.translate_even(off_grid)
    n = 100
    coarse = dataclasses.replace(
        rebuilt, x=np.linspace(0.0, rebuilt.period, n), f=np.zeros(n), f_prime=np.zeros(n)
    )
    with pytest.raises(muskat.DomainError, match="dense evaluator"):
        muskat.translate_even(coarse)


@pytest.mark.parametrize(
    "argv",
    [["constants"], ["profile", "--lambda", "0.5"], ["branch"], ["expansion-check"]],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("l", ["0", "-3"])
def test_mode_number_below_one_is_bad_input(tmp_path, capsys, argv, l):
    # every command that takes --l refuses it before writing anything
    out = tmp_path / "out.txt"
    assert run([*argv, "--l", l, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: mode number must be >= 1, got {l}\n"
    assert not out.exists()


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"h": 5.0}))
    assert run(["classify", "--config", str(cfg)]) == 0
    assert "SLOPE_BLOWUP" in capsys.readouterr().out
    assert run(["classify", "--config", str(cfg), "--h", "1.0"]) == 0
    assert "TOUCHES_BOUNDARY" in capsys.readouterr().out


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"not_a_key": 1}))
    assert run(["classify", "--config", str(cfg)]) == 2
    assert "not_a_key" in capsys.readouterr().err


def test_invalid_tolerance_rejected(capsys):
    # no flag sets a solver tolerance: --tol is an argparse error
    with pytest.raises(SystemExit) as exc:
        run(["classify", "--tol", "1e-12"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_config_validation_names_fields(tmp_path, capsys):
    for payload, field in [
        ({"precision": 3}, "precision"),
        ({"n_points": 1}, "n_points"),
        ({"format": "xml"}, "format"),
        # values of the wrong JSON type
        ({"h": "5"}, "h must be a number"),
        ({"grav": True}, "grav must be a number"),
        ({"precision": "17"}, "precision must be an integer"),
        ({"precision": 17.0}, "precision must be an integer"),
        ({"n_samples": "9"}, "n_samples must be an integer"),
        ({"n_points": 7.5}, "n_points must be an integer"),
        ({"n_points": True}, "n_points must be an integer"),
        ({"format": 1}, "format must be a string"),
        ({"out": 3}, "out must be a string or null"),
    ]:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(payload))
        assert run(["classify", "--config", str(cfg)]) == 2
        assert field in capsys.readouterr().err
    # an int where a float is expected is a number
    cfg.write_text(json.dumps({"h": 5, "rho_minus": 0}))
    assert run(["classify", "--config", str(cfg)]) == 0
    assert "SLOPE_BLOWUP" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["branch", "--n", "3", "--g", "nan"], "grav must be positive"),
        (["coexist", "--h", "nan"], "h must be positive"),
        (["classify", "--rho-plus", "nan"], "rho_plus must exceed rho_minus"),
        (["constants", "--rho-minus", "nan"], "rho_plus must exceed rho_minus"),
    ],
)
def test_nan_physical_flags_are_bad_input(tmp_path, capsys, argv, message):
    out = tmp_path / "t.out"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_nan_in_a_config_file_names_the_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for text, message in [('{"h": NaN}', "h must be positive"), ('{"grav": NaN}', "grav must be positive")]:
        cfg.write_text(text)  # Python's json reads the NaN literal
        for cmd in (["classify"], ["branch", "--n", "3"], ["coexist"]):
            assert run(cmd + ["--config", str(cfg)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["branch", "--n", "3", "--g", "inf"], "grav must be finite"),
        (["coexist", "--rho-plus", "inf"], "rho_plus must be finite"),
        (["classify", "--rho-minus=-inf"], "rho_minus must be finite"),
        (["constants", "--h", "inf"], "h must be finite"),
    ],
)
def test_infinite_physical_flags_are_bad_input(tmp_path, capsys, argv, message):
    out = tmp_path / "t.out"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_infinity_in_a_config_file_names_the_field(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cases = [('{"grav": Infinity}', "grav must be finite"), ('{"rho_plus": Infinity}', "rho_plus must be finite")]
    for text, message in cases:
        cfg.write_text(text)  # Python's json reads the Infinity literal
        for cmd in (["classify"], ["branch", "--n", "3"], ["coexist"]):
            assert run(cmd + ["--config", str(cfg)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"


#: sha256 of the scalar commands' files: the table writer and the branch
#: grid must keep these bytes; the branch rows are the Newton-in-b slope
#: solves, checked row by row against mpmath below.  lambda_star is the
#: branch's own b = 0 value, (2 K Q/pi)^2 at m = 1/2 from the AGM, and the
#: touching endpoint of branch-touching is the lambda of the record its
#: Newton in b stopped at
SCALAR_DIGESTS = {
    ("constants", "csv"): "145e8d5d532f0f2390f52be903f3bb4c6f916595ada4390abe70f214519cac79",
    ("constants", "json"): "145e8d5d532f0f2390f52be903f3bb4c6f916595ada4390abe70f214519cac79",
    ("classify", "csv"): "2a479fc89d0adca8bc51d5919f1d97dc12689ecd34fcd25ade440d58b80fac6a",
    ("classify", "json"): "2a479fc89d0adca8bc51d5919f1d97dc12689ecd34fcd25ade440d58b80fac6a",
    ("branch-touching", "csv"): "a30a6e1c1019a6d03f0dec231b1057122439819f6f7ceb9f1d05cfc4c4ed6b82",
    ("branch-touching", "json"): "308a8f4f8115984e2e268df83222bfc1316402bd45eb0800dca9d7eba4596e5c",
    ("branch-blowup-l3", "csv"): "6039491d9cbc492a32b724f89effbcb81a2a4e123ee07decb1bc376e9f457114",
    ("branch-blowup-l3", "json"): "336be0116f185625f75e1777dd8681d81973ce5535e5687943a0b7fc5c2ed635",
    ("coexist", "csv"): "d8844d5be1e5580a15c326e37d4970dddaaa5c8a26b30ed7bbf64527d915041f",
    ("coexist", "json"): "284539367ba2ff7dcee40d5da71adb7edcc0102b1e17dfe9572630baa838bee7",
}
SCALAR_ARGV = {
    "constants": ["constants"],
    "classify": ["classify"],
    "branch-touching": ["branch", "--h", "1"],
    "branch-blowup-l3": ["branch", "--h", "5", "--l", "3"],
    "coexist": ["coexist", "--l-max", "8"],
}


@pytest.mark.parametrize("name, fmt", list(SCALAR_DIGESTS))
def test_scalar_command_bytes_are_frozen(tmp_path, name, fmt):
    out = tmp_path / f"{name}.{fmt}"
    assert run(SCALAR_ARGV[name] + ["--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SCALAR_DIGESTS[name, fmt]


@pytest.mark.parametrize("name", ["branch-touching", "branch-blowup-l3"])
def test_branch_rows_against_mpmath(tmp_path, name):
    # every row's alpha has exact lambda(alpha) = the row's base lambda, and
    # its amplitude is the closed form 2 sqrt(m/lambda)/l, to 1e-14 relative
    out = tmp_path / "branch.json"
    assert run(SCALAR_ARGV[name] + ["--format", "json", "--out", str(out)]) == 0
    table = json.loads(out.read_text())
    l = table["metadata"]["l"]
    rows = zip(*(table["samples"][k] for k in ("lambda", "alpha", "amplitude")))
    with mpmath.workdps(40):
        for lam, alpha, amplitude in rows:
            base = mpmath.mpf(lam) / l**2
            a = mpmath.mpf(alpha)
            m = (1 - 1 / mpmath.sqrt(1 + a * a)) / 2
            exact_lam = (2 * (2 * mpmath.ellipe(m) - mpmath.ellipk(m)) / mpmath.pi) ** 2
            exact_amp = 2 * mpmath.sqrt(m / base) / l
            assert abs(exact_lam / base - 1) <= 1e-14, lam
            assert abs(amplitude - exact_amp) <= 1e-14 * exact_amp, lam


def test_readme_names_the_shared_flags_and_config_keys():
    # the "Common flags" paragraph against the parser, and its RunConfig key
    # list against the record's fields: a knob dropped on one side only fails here
    text = README.read_text(encoding="utf-8")
    paragraph = re.search(r"^Common flags.*?(?=\n\n)", text, re.S | re.M).group(0)
    (subparsers,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    per_command = [
        {opt for action in sp._actions for opt in action.option_strings} - {"-h", "--help"}
        for sp in subparsers.choices.values()
    ]
    assert set(re.findall(r"--[a-z][a-z-]*", paragraph)) == set.intersection(*per_command)
    keys = re.search(r"`RunConfig` keys (.*?); any other key", paragraph, re.S).group(1)
    assert re.findall(r"`(\w+)`", keys) == list(RunConfig._fields)


def test_retired_knobs_are_unknown_keys(tmp_path, capsys):
    # profiles come from the closed-form arc (no ODE tolerance), the slope
    # cap is a library constant, no quadrature runs in production and every
    # slope solve runs to rounding: all four are unknown keys now
    for key, value in (("ode_tol", 1e-10), ("alpha_max", 1e8), ("quad_tol", 1e-12), ("root_tol", 1e-12)):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run(["classify", "--config", str(cfg)]) == 2
        assert f"unknown configuration key '{key}'" in capsys.readouterr().err


def test_pendulum_swing_periods_agree_to_rounding(tmp_path):
    # the slope is solved to rounding, so at default settings the branch-form
    # and arc-length swing periods agree to rounding, 1e-6 above lambda_star too
    out = tmp_path / "swing.csv"
    for lam in (float(np.linspace(0.3, 0.99, 50)[26]), 0.9, muskat.constants().lambda_star + 1e-6):
        assert run(["pendulum", "--lambda", repr(lam), "--out", str(out)]) == 0
        meta, _ = read_table(str(out))
        assert float(meta["L_abs_diff"]) <= 1e-14, lam


def test_expansion_check_out_of_window_is_bad_input(tmp_path, capsys):
    # the first sine coefficient stays below c1(b=0) ~ 3.066268 on the whole
    # branch, so l * eps = 4 has no branch point: the window is quoted
    out = tmp_path / "fit.csv"
    assert run(["expansion-check", "--l", "40", "--eps", "0.1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eps=0.1 outside the window (0, 0.0766567")
    assert "c1(b=0)/l" in err
    assert not out.exists()


@pytest.mark.parametrize("eps", ["1e-9", "1e-300", "0.01,0.01"])
def test_expansion_check_refuses_eps_it_cannot_resolve(tmp_path, capsys, eps):
    # 1e-9 used to exit 0 with relative_deviation 1.0, 1e-300 to crash on
    # eps**2 underflowing, and a repeated eps to pass a rank-deficient fit
    out = tmp_path / "fit.csv"
    assert run(["expansion-check", "--eps", eps, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: eps values must ") and err.count("\n") == 1
    assert not out.exists()


def test_convergence_failure_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    def unconverged(*args, **kwargs):
        raise muskat.ConvergenceError("iteration not converged")

    monkeypatch.setattr(muskat.expansion, "expansion_check", unconverged)
    out = tmp_path / "fit.csv"
    assert run(["expansion-check", "--eps", "0.04", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "numerical failure: iteration not converged\n"
    assert not out.exists()


#: exit code of each library error in the CLI: 2 for invalid input, 1 for a numerical failure
EXIT_CODES = {
    "ConfigError": 2, "DomainError": 2, "OutOfRangeError": 2, "ParityError": 2,
    "ConvergenceError": 1, "SaturationError": 1, "SingularityError": 1,
}


@pytest.mark.parametrize("error", muskat.MuskatError.__subclasses__(), ids=lambda e: e.__name__)
def test_exit_code_follows_the_error_kind(tmp_path, capsys, monkeypatch, error):
    # each library error is exactly one of ValueError and RuntimeError, and
    # that kind alone picks the exit code and the stderr prefix
    assert sorted(e.__name__ for e in muskat.MuskatError.__subclasses__()) == sorted(EXIT_CODES)
    assert issubclass(error, ValueError) != issubclass(error, RuntimeError)
    exc = error(0.5, (0.0, 1.0), "boom") if error is muskat.OutOfRangeError else error("boom")

    def failing(cfg, args):
        raise exc

    monkeypatch.setitem(muskat.cli._HANDLERS, "classify", failing)
    code = run(["classify", "--out", str(tmp_path / "out.txt")])
    assert code == EXIT_CODES[error.__name__]
    prefix = "error" if code == 2 else "numerical failure"
    assert capsys.readouterr().err == f"{prefix}: boom\n"


def test_no_scipy_on_the_import_path(tmp_path):
    # scipy serves only the test oracles; a child that imports the package
    # and runs every subcommand must never load it, nor the quarter-period
    # map or a deleted oracle module
    commands = [
        ["constants"],
        ["classify", "--h", "1"],
        ["branch", "--n", "5", "--h", "1"],
        ["profile", "--lambda", "0.5", "--parity", "even", "--n", "65"],
        ["pendulum", "--lambda", "0.5", "--n", "65"],
        ["coexist", "--l-max", "3"],
        ["expansion-check", "--eps", "0.08"],
    ]
    script = (
        "import json, sys\n"
        "import muskat, muskat.cli, muskat.export\n"
        "codes = [muskat.cli.main(argv + ['--out', f'{sys.argv[2]}/{i}.out'])\n"
        "         for i, argv in enumerate(json.loads(sys.argv[1]))]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'\n"
        "                                 or m in ('muskat.period', 'muskat.ivp', 'muskat.quadrature'))]))\n"
    )
    path = [os.path.dirname(muskat.__path__[0]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, oracle_modules = json.loads(proc.stdout)
    assert codes == [0] * len(commands), proc.stderr
    assert oracle_modules == []
    assert len(list(tmp_path.iterdir())) == len(commands)
