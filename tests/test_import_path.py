"""The lazy package namespace and the numpy-free scalar commands."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import muskat
from muskat import branch as branch_mod

ROOT = Path(__file__).resolve().parents[1]

#: the names ``muskat`` exported when its ``__init__`` imported every
#: submodule, less ``beta`` and ``log_gamma``, which left with the log-gamma
#: route to the constants, and less the ODE route (``State``, ``energy``,
#: ``integrate``, ``quarter_period``, ``solve_quarter`` and its two errors),
#: and less ``QuarterProfile`` and ``extend_odd_periodic`` (the generic
#: quarter extension, now ``Arc.odd``), which left for ``tests/oracles.py``
PACKAGE_NAMES = [
    "Branch", "BranchPoint", "ConfigError", "Constants", "ConvergenceError", "DomainError",
    "ExpansionFit", "MuskatError", "OutOfRangeError", "ParityError", "PendulumTrajectory",
    "PhysicalParams", "Regime", "RegimeKind", "RunConfig", "SaturationError", "SingularityError",
    "SolutionProfile", "alpha_of_lambda", "beta_of_alpha", "branch_amplitude",
    "coexistence_levels", "constants", "dtheta_dalpha", "expansion_check",
    "fourier_sine_coefficient", "from_pendulum", "gamma_bar", "gamma_of_lambda", "lambda_floor",
    "lambda_h", "lambda_of_gamma", "lambda_of_period", "max_amplitude", "negate_profile",
    "pendulum_period", "profile_at", "residual", "scale_profile", "theta",
    "theta_limit_infinity", "theta_limit_zero", "to_pendulum", "trace_branch", "translate_even", "zero_profile",
]
#: the submodules that were attributes of the package after ``import muskat``,
#: less ``roots`` (the Brent port), ``special`` (the log-gamma route), and
#: ``ivp`` and ``quadrature`` (the ODE and cumulative Gauss oracle routes)
PACKAGE_MODULES = ["branch", "config", "elliptic", "errors", "pendulum", "period"]
#: the library modules that are gone; the benchmark's tracer skips them
REMOVED_MODULES = ["ivp", "quadrature", "roots", "special"]
#: ``muskat.branch.__all__`` before the scalar branch moved to ``curve``
BRANCH_NAMES = [
    "Branch", "BranchPoint", "ExpansionFit", "PhysicalParams", "Regime", "RegimeKind", "alpha_of_lambda",
    "branch_amplitude", "coexistence_levels", "expansion_check", "fourier_sine_coefficient", "gamma_bar",
    "gamma_of_lambda", "lambda_floor", "lambda_h", "lambda_of_gamma", "negate_profile", "profile_at", "residual",
    "scale_profile", "trace_branch", "translate_even",
]


def _child(script: str, *args: str) -> list:
    """Run ``script`` in a fresh interpreter on this checkout; it prints one JSON document."""
    path = [os.path.dirname(muskat.__path__[0]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


LOADED = "sorted(m for m in sys.modules if m.partition('.')[0] == 'numpy' or m.startswith('muskat.'))"


def test_import_muskat_loads_no_submodule_and_no_numpy():
    assert _child(f"import json, sys\nimport muskat\nprint(json.dumps({LOADED}))\n") == []


def test_scalar_commands_never_load_numpy(tmp_path):
    # constants, classify, branch, coexist and expansion-check run on the
    # math module alone; the profile handler then brings numpy in.  Their
    # records are NamedTuples: ``dataclasses`` imports ``inspect``, a tenth
    # of their start-up
    scalar = [["constants"], ["classify"], ["branch", "--n", "5"], ["coexist"], ["expansion-check"],
              ["expansion-check", "--l", "4", "--format", "json"]]
    script = (
        "import json, sys\n"
        "slow = {'dataclasses', 'inspect'}\n"
        "slow_before = slow & set(sys.modules)\n"
        "from muskat.cli import main\n"
        "out = sys.argv[2]\n"
        "codes = [main(argv + ['--out', f'{out}/{i}.out']) for i, argv in enumerate(json.loads(sys.argv[1]))]\n"
        "numpy_before = 'numpy' in sys.modules\n"
        "slow_loaded = sorted((slow & set(sys.modules)) - slow_before)\n"
        "code = main(['profile', '--lambda', '0.5', '--n', '65', '--out', f'{out}/profile.out'])\n"
        "print(json.dumps([codes, numpy_before, slow_loaded, code, 'numpy' in sys.modules]))\n"
    )
    codes, numpy_before, slow_loaded, profile_code, numpy_after = _child(script, json.dumps(scalar), str(tmp_path))
    assert codes == [0] * len(scalar)
    assert not numpy_before
    assert slow_loaded == []
    assert profile_code == 0 and numpy_after
    assert len(list(tmp_path.iterdir())) == len(scalar) + 1


def test_public_names_are_their_defining_objects():
    assert sorted(muskat.__all__) == sorted(PACKAGE_NAMES)
    for name in muskat.__all__:
        obj = getattr(muskat, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("muskat."), name
        assert getattr(home, name) is obj, name
    for name in PACKAGE_MODULES:
        assert getattr(muskat, name) is importlib.import_module(f"muskat.{name}")
    assert set(muskat.__all__) <= set(dir(muskat))
    removed_names = ("alpha_max", "log_gamma", "beta", "integrate", "solve_quarter", "QuarterProfile",
                     "extend_odd_periodic")
    for removed in (*removed_names, *REMOVED_MODULES):
        with pytest.raises(AttributeError, match=f"no attribute '{removed}'"):
            getattr(muskat, removed)
    for removed in REMOVED_MODULES:
        assert importlib.util.find_spec(f"muskat.{removed}") is None
    with pytest.raises(ImportError):
        from muskat import not_a_name  # noqa: F401


def test_branch_keeps_its_names_as_the_scalar_objects():
    curve_mod = importlib.import_module("muskat.curve")
    for name in [*BRANCH_NAMES, "ALPHA_MAX", "H_STAR_REL_TOL"]:
        assert hasattr(branch_mod, name), name
    assert not hasattr(branch_mod, "_slope_root")  # expansion-check solves in b
    for name in curve_mod.__all__:
        if name != "max_amplitude":
            assert getattr(branch_mod, name) is getattr(curve_mod, name), name
    # one record per AGM: the slope -> (K, S, Q) entry points left with it
    agm_mod = importlib.import_module("muskat.agm")
    for removed in ("_arc_agm", "complete_integrals"):
        assert not hasattr(agm_mod, removed) and not hasattr(muskat.elliptic, removed), removed
    for removed in ("_integrals_of_b", "_dkq_db", "_alpha_of_b", "_lambda_of_alpha"):
        assert not hasattr(curve_mod, removed) and not hasattr(branch_mod, removed), removed
    assert not hasattr(muskat.pendulum, "_swing_period")
    # the arc is the profile: the generic quarter extension left for the oracles
    for removed in ("QuarterProfile", "extend_odd_periodic", "_odd_extension_evaluator"):
        assert not hasattr(branch_mod, removed), removed
    # the expansion check is scalar: branch re-exports it, and its numpy
    # coefficient and least-squares fit are gone
    expansion_mod = importlib.import_module("muskat.expansion")
    for name in ("EPS_WINDOW", "ExpansionFit", "expansion_check"):
        assert getattr(branch_mod, name) is getattr(expansion_mod, name), name
    for removed in ("_sine_coefficient", "_lambda_for_coefficient"):
        assert not hasattr(branch_mod, removed), removed
    assert not hasattr(muskat.elliptic.Arc, "cosine_coefficient")
    assert muskat.elliptic._landen is agm_mod._landen  # one recurrence, in agm
    # agm is the one home of the slope -> b maps
    for removed in ("beta_of_alpha", "one_minus_beta"):
        assert not hasattr(muskat.elliptic, removed) and removed not in muskat.period.__all__, removed
    assert "parity" not in curve_mod.Branch._fields


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # bench/tracer.py wraps these by getattr on each imported module, so a
    # missing name would crash every traced run; a module that is not
    # imported is skipped, so a deleted module must not be importable
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.TRACED["branch"]) == 12
    for mod_name, names in tracer.TRACED.items():
        if mod_name in REMOVED_MODULES:
            assert importlib.util.find_spec(f"muskat.{mod_name}") is None, mod_name
            continue
        home = importlib.import_module(f"muskat.{mod_name}")
        for name in names:
            assert callable(getattr(home, name)), f"{mod_name}.{name}"


def test_traced_benchmark_worker_runs_every_command(tmp_path):
    # the traced cli-mix worker replays all seven commands in-process, so the
    # tracer installs over every production module the commands import
    out = tmp_path / "trace1.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", "cli-mix", "--seed", "11",
         "--mode", "trace1", "--out", str(out), "--tmp", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *records, last = (json.loads(line) for line in out.read_text().splitlines())
    assert records and all(r["error"] is None and r["out"]["exit"] == 0 for r in records)
    assert last["trace"]["calls"]


def test_branch_column_is_an_ndarray():
    br = muskat.trace_branch(muskat.PhysicalParams(h=5.0), n_points=5)
    col = br.column("lam")
    assert isinstance(col, np.ndarray) and col.dtype == float
    assert col.tolist() == [pt.lam for pt in br.points]
