"""muskat benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload {cli-mix,branch-sweep,profile-pendulum}
                         --seed N --seconds S --trace {0,1}

Run from anywhere; the benchmark uses the ``src/muskat`` next to its own
directory and fails when there is none.  One client, closed loop: each
request is sent when the previous one has returned.

``--trace 0`` measures, with no tracing, whole request cycles for S seconds
(cli-mix: S/7 cycles of seven fresh-process commands):

  setup_s          median over 5 fresh interpreters of the wall time until
                   ``import muskat`` and one warm-up cycle are done (bare
                   import for cli-mix); taken before and after the timed
                   requests, so that one slow spell of the host does not
                   sway all five
  latency_p50_ms   median latency of the requests that returned
  latency_tail_ms  highest percentile with at least ten samples beyond it
  requests_per_s   returned requests per second spent in requests
  accuracy_digits  min over requests and oracle-checked quantities of
                   -log10(max(rel_err, 1e-16))
  peak_rss_mb      ru_maxrss of the worker (of the CLI processes for cli-mix)

``--trace 1`` runs a fixed request list twice in fresh workers, without and
with spans around the library's public functions, checks that both give the
same outputs, and reports per-layer self times, counts and diagnostics per
request, the ``-X importtime`` split of ``import muskat`` and the tracing
overhead.

Checks run outside the timed region against an mpmath oracle (checks.py).
``correct`` in the result line is false when the oracle's self-check
against ``muskat.constants().lambda_star`` fails, or the traced and untraced
outputs differ; requests that fail a check are counted in ``failed`` (and
printed as ``fail_ratio``).  The workloads avoid the library's known
defects; a timed run also probes them on fixed inputs and prints what it
finds (``known_defects`` in the record), without counting them as failed.
The last line of standard output is the JSON result; a run record with the
library versions, the seed and the sample counts precedes it and is also
written to ``.bench_out/``, with the raw spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5
COMMAND_TIMEOUT_S = 60
CLI_CYCLE_S = 7.0  # nominal length of one cli-mix cycle: seven commands of about a second
WORKER_TIMEOUT_S = 150
IMPORT_SPLIT = {"muskat": "cli.import_muskat_ms", "scipy.optimize": "cli.import_scipy_optimize_ms",
                "scipy.integrate": "cli.import_scipy_integrate_ms",
                "scipy.interpolate": "cli.import_scipy_interpolate_ms", "numpy": "cli.import_numpy_ms"}
END_TO_END = {"setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms", "requests_per_s": "1/s",
              "accuracy_digits": "digits", "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(workload: str, seed: int, mode: str, tmp: Path, seconds: float = 0.0) -> tuple[float, dict | None]:
    """Run worker.py; returns the wall time until it printed ``ready`` and its output document."""
    out = tmp / f"{mode}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", repr(seconds), "--out", str(out), "--tmp", str(tmp)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = ""
        if select.select([proc.stdout], [], [], WORKER_TIMEOUT_S)[0]:
            ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited with {proc.returncode}")
    if mode == "setup":
        return setup_s, None
    *records, last = out.read_text().splitlines()
    return setup_s, {**json.loads(last), "records": [json.loads(r) for r in records]}


def run_cli_commands(seed: int, seconds: float, tmp: Path) -> list[dict]:
    """cli-mix: each command in a fresh ``python -m muskat.cli`` process.

    Runs a fixed number of cycles for the nominal duration, so every run and
    every commit has the same sample count (and the same tail percentile).
    """
    records = []
    cycles = workloads.cycles("cli-mix", seed)
    for _ in range(max(1, round(seconds / CLI_CYCLE_S))):
        for req in next(cycles):
            path = str(tmp / f"cmd-{len(records)}.out")
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "muskat.cli", *req["argv"], "--out", path], cwd=ROOT,
                                  env=_env(), stdout=subprocess.DEVNULL, timeout=COMMAND_TIMEOUT_S)
            ms = (time.perf_counter() - start) * 1e3
            records.append({"req": req, "ms": ms, "error": None, "out": {"exit": proc.returncode, "path": path}})
    return records


def _library():
    """muskat from this checkout, imported into this process once measuring is done."""
    sys.path.insert(0, str(ROOT / "src"))
    import muskat.export

    return muskat


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples beyond it."""
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def end_to_end(records, verdicts, setup, rss_kb) -> tuple[dict, dict]:
    returned = [r["ms"] for r in records if r["error"] is None]
    errs = [e for v in verdicts for e in v.errs if math.isfinite(e)]
    tail_ms, tail_pct = tail(returned)
    metrics = {
        "setup_s": statistics.median(setup),
        "latency_p50_ms": statistics.median(returned),
        "latency_tail_ms": tail_ms,
        "requests_per_s": len(returned) / (sum(r["ms"] for r in records) / 1e3),
        "accuracy_digits": min((oracle.digits(e) for e in errs), default=0.0),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    samples = {"setup_s": len(setup), "latency_p50_ms": len(returned), "latency_tail_ms": len(returned),
               "latency_tail_percentile": tail_pct, "accuracy_digits": len(errs)}
    return metrics, samples


def import_split() -> dict:
    """Cumulative import times (ms) from one ``python -X importtime -c 'import muskat'``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import muskat"], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S, check=True)
    out = dict.fromkeys(IMPORT_SPLIT.values(), 0.0)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in IMPORT_SPLIT and parts[1].strip().isdigit():
            key = IMPORT_SPLIT[parts[2].strip()]
            out[key] = out[key] or int(parts[1]) / 1e3
    return out


def per_layer(doc0, doc1, verdicts) -> dict:
    tr = doc1["trace"]
    n = len(doc1["records"])
    calls, self_ns, total_ns, counts = tr["calls"], tr["self_ns"], tr["total_ns"], tr["counts"]

    def self_ms(name):
        return self_ns.get(name, 0) / 1e6 / n

    def ratio(a, b):
        return a / b if b else 0.0

    theta_calls = calls.get("period.theta", 0)
    alpha_calls = calls.get("branch.alpha_of_lambda", 0)
    gauss_calls = calls.get("quadrature.gauss_panels", 0)
    solves = counts.get("ivp.solve_ivp_calls", 0)
    busy0 = sum(r["ms"] for r in doc0["records"])
    busy1 = sum(r["ms"] for r in doc1["records"])
    m = {
        "cli.main_ms": self_ms("cli.main"),
        "export.write_table_ms": self_ms("export.write_table"),
        "export.bytes_written": counts.get("export.bytes_written", 0) / n,
        "branch.alpha_of_lambda_ms": self_ms("branch.alpha_of_lambda"),
        "branch.alpha_of_lambda_calls": alpha_calls / n,
        "branch.theta_calls_per_alpha": ratio(tr["theta_in_alpha"], alpha_calls),
        "branch.lambda_h_ms": self_ms("branch.lambda_h"),
        "branch.trace_branch_ms": self_ms("branch.trace_branch"),
        "branch.profile_at_self_ms": self_ms("branch.profile_at"),
        "branch.expansion_check_ms": self_ms("branch.expansion_check"),
        "branch.saturation_errors": counts.get("branch.saturation_errors", 0) / n,
        "period.theta_calls": theta_calls / n,
        "period.theta_us": ratio(total_ns.get("period.theta", 0) / 1e3, theta_calls),
        "period.theta_self_ms": self_ms("period.theta"),
        "quadrature.gauss_panels_calls": gauss_calls / n,
        "quadrature.nodes_per_call": ratio(counts.get("quadrature.nodes", 0), gauss_calls),
        "quadrature.max_panel_calls": counts.get("quadrature.max_panel_calls", 0) / n,
        "quadrature.cumulative_gauss_ms": self_ms("quadrature.cumulative_gauss"),
        "ivp.solve_quarter_ms": self_ms("ivp.solve_quarter"),
        "ivp.solve_ivp_calls": solves / n,
        "ivp.rhs_evals": counts.get("ivp.rhs_evals", 0) / n,
        "ivp.rhs_evals_per_solve": ratio(counts.get("ivp.rhs_evals", 0), solves),
        "ivp.dense_eval_calls": counts.get("ivp.dense_eval_calls", 0) / n,
        "pendulum.to_pendulum_ms": self_ms("pendulum.to_pendulum"),
        "pendulum.from_pendulum_ms": self_ms("pendulum.from_pendulum"),
        "pendulum.pendulum_period_ms": self_ms("pendulum.pendulum_period"),
        "trace.overhead_ms": (busy1 - busy0) / n,
        "trace.overhead_pct": 100.0 * (busy1 / busy0 - 1.0),
    }
    for key in ("branch.lambda_err_max", "ivp.drift_max", "ivp.period_defect_max",
                "pendulum.L_arclength_err_max", "pendulum.roundtrip_err_max"):
        m[key] = max((v.layer.get(key, 0.0) for v in verdicts), default=0.0)
    return m


def _same_outputs(doc0, doc1) -> bool:
    strip = lambda recs: [(r["req"], r["error"], r.get("out")) for r in recs]  # noqa: E731
    return strip(doc0["records"]) == strip(doc1["records"])


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": oracle.mpmath.__version__}


def measure(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> tuple[dict, dict, list, dict]:
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        if trace:
            split = import_split()
            _, doc0 = spawn(workload, seed, "trace0", tmp)
            _, doc1 = spawn(workload, seed, "trace1", tmp)
            # records, then spans as [name, start_ns, end_ns, parent index], kept for inspection
            shutil.copy(tmp / "trace1.json", out_dir / f"{workload}-seed{seed}-spans.jsonl")
            verdicts = checks.check_records(doc1["records"], _library().export.read_table)
            metrics = {**split, **per_layer(doc0, doc1, verdicts)}
            invariants = {"oracle_self_check": _self_check(doc1["lambda_star"]),
                          "traced_equals_untraced": _same_outputs(doc0, doc1)}
            return metrics, {"requests": len(doc1["records"])}, verdicts, invariants

        def setups(n):
            return [spawn(workload, seed, "setup", tmp)[0] for _ in range(n)]

        if workload == "cli-mix":
            setup = setups(SETUP_RUNS // 2)
            records = run_cli_commands(seed, seconds, tmp)
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            setup += setups(SETUP_RUNS - len(setup))
            lib = _library()
            verdicts = checks.check_records(records, lib.export.read_table)
            lam_star = lib.constants().lambda_star
        else:
            setup = setups(SETUP_RUNS // 2)
            setup_s, doc = spawn(workload, seed, "run", tmp, seconds)
            setup += [setup_s, *setups(SETUP_RUNS - len(setup) - 1)]
            records, rss_kb, lam_star = doc["records"], doc["peak_rss_kb"], doc["lambda_star"]
            verdicts = checks.check_records(records)
        metrics, samples = end_to_end(records, verdicts, setup, rss_kb)
        return metrics, samples, verdicts, {"oracle_self_check": _self_check(lam_star)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def probe_defects(workload: str, out_dir: Path) -> dict:
    """Failed checks of each fixed input in ``workloads.DEFECT_PROBES``, run in this process."""
    import worker

    lib = _library()
    tmp = out_dir / f"probe-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        client = worker.Client(lib, tmp)
        found = {}
        for req in workloads.DEFECT_PROBES.get(workload, []):
            verdict = checks.check_records([client.serve(req)], lib.export.read_table)[0]
            found[f"{req['kind']} at gap {req['gap']:g}"] = verdict.problems
        return found
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _self_check(lambda_star_lib: float) -> bool:
    """1/K(1/2)^2 against the library's lambda_star, at criterion 1's tolerance."""
    return oracle.rel_err(lambda_star_lib, oracle.lambda_star()) <= 1e-10


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "muskat" / "__init__.py").is_file():
        print(f"error: no muskat sources at {ROOT / 'src' / 'muskat'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    metrics, samples, verdicts, invariants = measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    failed = [v for v in verdicts if not v.ok]
    reasons = dict(Counter(p for v in failed for p in set(v.problems)).most_common())
    for name, value in metrics.items():
        print(f"{args.workload:16s} {name:32s} {value:14.6g} {unit(name)}")
    print(f"{args.workload:16s} {'fail_ratio':32s} {len(failed) / len(verdicts):14.6g} "
          f"({len(failed)} of {len(verdicts)} failed; failed checks: {reasons})")
    defects = {} if args.trace else probe_defects(args.workload, out_dir)
    for name, problems in defects.items():
        print(f"{args.workload:16s} known defect, {name}: {', '.join(problems) or 'no longer shows'}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "commit": _git_commit(), "versions": _versions(), "nproc": os.cpu_count(), "samples": samples,
              "failures": reasons, "known_defects": defects, "invariants": invariants}
    print("record: " + json.dumps(record))
    result = {
        "correct": all(invariants.values()),
        "attempted": len(verdicts),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1))
    print(json.dumps(result))
    return 0


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_pct", "%"), ("bytes_written", "B")):
        if name.endswith(suffix):
            return unit
    return "1" if name.endswith(("_max", "_per_call", "_per_alpha", "_per_solve")) else "count"


if __name__ == "__main__":
    sys.exit(main())
