"""Benchmark worker: a fresh interpreter that imports muskat and serves requests.

    python bench/worker.py --workload W --seed N --mode MODE --seconds S --out FILE --tmp DIR

Prints ``ready`` once ``import muskat`` and the warm-up requests are done
(the parent times set-up up to that line).  MODE is

* ``setup``: stop there;
* ``run``: execute whole request cycles until S seconds have passed,
  timing each request;
* ``trace0`` / ``trace1``: execute a fixed list of cycles without / with
  the span tracer, so two traced runs do identical work.

Writes JSON lines to FILE as it goes: a record per request (its inputs,
the time it took, the error it raised or the outputs the checks need),
then a last line with the worker's peak RSS and the trace.  Records are
not kept in memory, so the peak RSS is the library's, not the run
length's.  Outputs are reduced to numbers here, outside the timed region;
the oracle comparisons happen in the parent.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_CYCLES = {"cli-mix": 4, "branch-sweep": 40, "profile-pendulum": 16}  # a few seconds each


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _beta(alpha: float) -> float:
    return 1.0 / math.sqrt(1.0 + alpha * alpha) if alpha <= 1.0 else (1.0 / alpha) / math.sqrt(1.0 + alpha ** -2)


class Client:
    """Calls muskat through its module attributes, so the tracer sees every call."""

    def __init__(self, muskat, tmp: Path):
        self.m = muskat
        self.tmp = tmp
        self.n_files = 0

    def _path(self, suffix: str) -> str:
        self.n_files += 1
        return str(self.tmp / f"out-{self.n_files}.{suffix}")

    # the timed part of each request ---------------------------------------
    def call(self, req: dict):
        m, kind = self.m, req["kind"]
        if kind == "trace_branch":
            return m.branch.trace_branch(m.branch.PhysicalParams(h=req["h"]), l=req["l"], n_points=req["n"])
        if kind == "lambda_h":
            return m.branch.lambda_h(m.branch.PhysicalParams(h=req["h"]))
        if kind == "alpha_of_lambda":
            return m.branch.alpha_of_lambda(req["lam"])
        if kind in ("profile", "profile_edge"):
            return self._profile_chain(req)
        if kind == "cli":
            path = self._path("out")
            return m.cli.main(req["argv"] + ["--out", path]), path
        raise ValueError(f"unknown request kind {kind!r}")

    def _profile_chain(self, req: dict):
        """profile_at, its transforms, export and pendulum_period; ``profile`` adds the swing round trip."""
        b, p = self.m.branch, self.m.pendulum
        prof = b.profile_at(req["lam"])
        shown = b.scale_profile(prof, req["l"])
        if req["even"]:
            shown = b.translate_even(shown, req["l"])
        if req["negate"]:
            shown = b.negate_profile(shown)
        res = b.residual(shown)
        path = self._path(req["fmt"])
        self.m.export.write_table(path, {"lambda": shown.lam, "alpha": shown.alpha, "parity": shown.parity},
                                  {"x": shown.x, "f": shown.f, "f_prime": shown.f_prime}, fmt=req["fmt"])
        L = p.pendulum_period(req["lam"])
        if req["kind"] == "profile_edge":
            return prof, shown, res, path, L, None
        even = b.translate_even(prof, 1)
        traj = p.to_pendulum(even)
        back = p.from_pendulum(traj)
        return prof, shown, res, path, L, (even, traj, back)

    # untimed reduction of the outputs to checkable numbers -------------------
    def outputs(self, req: dict, result) -> dict:
        import numpy as np  # already loaded by muskat; not imported before it, to keep set-up honest

        kind = req["kind"]
        if kind == "trace_branch":
            return {"regime": result.regime.kind.value, "lambda_h": result.regime.lambda_h,
                    "lam": result.column("lam").tolist(), "alpha": result.column("alpha").tolist(),
                    "amplitude": result.column("amplitude").tolist(),
                    "truncated": sum(pt.truncated for pt in result.points)}
        if kind == "lambda_h":
            return {"regime": result.kind.value, "lambda_h": result.lambda_h}
        if kind == "alpha_of_lambda":
            return {"alpha": result}
        if kind == "cli":
            code, path = result
            return {"exit": code, "path": path, "sha256": _digest(path) if os.path.exists(path) else None}
        prof, shown, res, path, L, swing = result
        lam, beta = prof.lam, _beta(prof.alpha)
        drift = np.abs(1.0 / np.sqrt(1.0 + prof.f_prime ** 2) - 0.5 * lam * prof.f ** 2 - beta)
        meta, cols = self.m.export.read_table(path)
        reread = all(np.array_equal(cols[k], v) for k, v in (("x", shown.x), ("f", shown.f), ("f_prime", shown.f_prime)))
        out = {"alpha": prof.alpha, "amplitude": prof.max_abs_f(), "drift": float(np.max(drift)),
               "period_defect": abs(prof.period - 2.0 * math.pi), "residual": res[0],
               "reread": bool(reread and meta["lambda"] == shown.lam), "sha256": _digest(path), "L": L}
        if swing is not None:
            even, traj, back = swing
            out["L_arclength"] = traj.period_L
            out["roundtrip"] = float(np.max(np.abs(back.f - even.evaluate(back.x)[0])))
        return out

    def serve(self, req: dict, tracer=None) -> dict:
        """Run one request; the record holds its time and outputs or its error."""
        t0 = time.perf_counter()
        span = tracer.open("request") if tracer is not None else None
        try:
            result = self.call(req)
        except self.m.errors.MuskatError as exc:
            return {"req": req, "ms": (time.perf_counter() - t0) * 1e3, "error": type(exc).__name__}
        finally:
            if span is not None:
                tracer.close(span)
        ms = (time.perf_counter() - t0) * 1e3
        return {"req": req, "ms": ms, "error": None, "out": self.outputs(req, result)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace0", "trace1"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tmp", required=True, help="directory for the tables the requests write")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import muskat

    if args.workload == "profile-pendulum":
        import muskat.export  # noqa: F401  (write_table is not loaded by ``import muskat``)
    if not Path(muskat.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"muskat imported from {muskat.__file__}, not from {ROOT / 'src'}")
    import workloads

    client = Client(muskat, Path(args.tmp))
    for req in workloads.warmup(args.workload, args.seed):
        client.serve(req)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0
    if args.workload == "cli-mix":
        import muskat.cli  # noqa: F401  (replayed in-process by the traced run)

    cycles = workloads.cycles(args.workload, args.seed)
    tracer = None
    with open(args.out, "w", encoding="utf-8") as fh:
        if args.mode == "run":
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < args.seconds:
                for req in next(cycles):
                    fh.write(json.dumps(client.serve(req)) + "\n")
        else:
            todo = [req for cycle in itertools.islice(cycles, TRACE_CYCLES[args.workload]) for req in cycle]
            if args.mode == "trace1":
                from tracer import Tracer

                tracer = Tracer()
                tracer.install(muskat)
            try:
                for req in todo:
                    fh.write(json.dumps(client.serve(req, tracer)) + "\n")
            finally:
                if tracer is not None:
                    tracer.restore()
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        json.dump({"lambda_star": muskat.constants().lambda_star, "peak_rss_kb": peak_rss_kb,
                   "trace": tracer.summary() if tracer is not None else None,
                   "spans": tracer.spans if tracer is not None else None}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
