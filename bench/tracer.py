"""In-memory span tracer that wraps the library's public functions from outside.

Each wrapped function records a span (name, start, end, parent) per call
made inside a ``request`` span; calls outside one (the benchmark's own
checks) pass through unrecorded.
A function is wrapped at every module attribute of the package that refers
to it, because the modules call each other through those attributes
(``period.theta`` from ``branch``, ``ivp.solve_ivp`` from ``ivp``...).
``Tracer.restore`` puts the originals back.  Besides spans, the tracer
counts integrand nodes of ``gauss_panels``, right-hand-side evaluations and
dense-output calls of ``solve_ivp``, bytes written by ``write_table`` and
``SaturationError`` raised by ``alpha_of_lambda``.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# (module, function) pairs; each is wrapped wherever the package refers to it
TRACED = {
    "period": ("theta", "dtheta_dalpha"),
    "quadrature": ("gauss_panels", "cumulative_gauss"),
    "branch": ("alpha_of_lambda", "branch_amplitude", "lambda_floor", "lambda_h", "trace_branch",
               "profile_at", "scale_profile", "translate_even", "negate_profile", "residual",
               "fourier_sine_coefficient", "expansion_check"),
    "ivp": ("solve_quarter", "extend_odd_periodic", "zero_profile", "max_amplitude", "quarter_period",
            "integrate", "solve_ivp"),
    "pendulum": ("to_pendulum", "from_pendulum", "pendulum_period", "lambda_of_period"),
    "export": ("write_table",),
    "cli": ("main",),
}


class _DenseCounter:
    """Stands in for an OdeSolution and counts its evaluations."""

    def __init__(self, dense, tracer):
        self._dense = dense
        self._tracer = tracer

    def __call__(self, t):
        self._tracer.count("ivp.dense_eval_calls")
        return self._dense(t)

    def __getattr__(self, name):
        return getattr(self._dense, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent_index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # spans -----------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        if self._stack:
            self.counts[key] += n

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return traced

    # special wrappers ------------------------------------------------------
    def _gauss_panels(self, fn):
        params = list(inspect.signature(fn).parameters.values())
        defaults = {p.name: p.default for p in params}
        optional = [p.name for p in params[3:]]  # after (fn, a, b)

        def gauss_panels(integrand, a, b, *args, **kwargs):
            last = [0]

            def counted(x):
                last[0] = np.size(x)
                self.count("quadrature.nodes", last[0])
                return integrand(x)

            result = fn(counted, a, b, *args, **kwargs)
            opts = {**defaults, **dict(zip(optional, args)), **kwargs}
            if last[0] >= opts["n_nodes"] * opts["max_panels"]:
                self.count("quadrature.max_panel_calls")
            return result

        return gauss_panels

    def _solve_ivp(self, fn):
        def solve_ivp(*args, **kwargs):
            sol = fn(*args, **kwargs)
            self.count("ivp.solve_ivp_calls")
            self.count("ivp.rhs_evals", sol.nfev)
            if getattr(sol, "sol", None) is not None:
                sol.sol = _DenseCounter(sol.sol, self)
            return sol

        return solve_ivp

    def _write_table(self, fn):
        def write_table(path, *args, **kwargs):
            fn(path, *args, **kwargs)
            if path is not None:
                self.count("export.bytes_written", os.path.getsize(path))

        return write_table

    def _alpha_of_lambda(self, fn, saturation_error):
        def alpha_of_lambda(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except saturation_error:
                self.count("branch.saturation_errors")
                raise

        return alpha_of_lambda

    # install / restore -----------------------------------------------------
    def install(self, package) -> None:
        """Wrap every TRACED function at each package-module attribute naming it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))]
        for mod_name, names in TRACED.items():
            home = sys.modules.get(f"{package.__name__}.{mod_name}")
            if home is None:  # not imported by this workload
                continue
            for fname in names:
                original = getattr(home, fname)
                inner = original
                if fname == "gauss_panels":
                    inner = self._gauss_panels(original)
                elif fname == "solve_ivp":
                    # counted only: its time stays in the self time of the muskat caller
                    inner = self._solve_ivp(original)
                elif fname == "write_table":
                    inner = self._write_table(original)
                elif fname == "alpha_of_lambda":
                    inner = self._alpha_of_lambda(original, package.errors.SaturationError)
                wrapped = inner if fname == "solve_ivp" else self.span(f"{mod_name}.{fname}", inner)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapped)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    # summary -----------------------------------------------------------------
    def summary(self) -> dict:
        """Per-name call counts, total and self time (ns), plus the counters."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        total: defaultdict = defaultdict(int)
        self_ns: defaultdict = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_ns[name] += end - start - child_ns[i]
        # theta calls made on behalf of a slope solve (root-finder work per alpha)
        theta_in_alpha = 0
        for name, _, _, parent in self.spans:
            if name != "period.theta":
                continue
            while parent >= 0 and self.spans[parent][0] != "branch.alpha_of_lambda":
                parent = self.spans[parent][3]
            theta_in_alpha += parent >= 0
        return {"calls": dict(calls), "total_ns": dict(total), "self_ns": dict(self_ns),
                "counts": dict(self.counts), "theta_in_alpha": theta_in_alpha}
