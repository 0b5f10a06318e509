"""Layer tracer for the etafit benchmark.

Wraps the public entry points of each etafit module from outside the
package, records one span (name, start, end, parent span, fit id) per call
in memory, and counts work at the same boundaries.  Nothing under ``src/``
knows about it: functions are replaced at every module binding that holds
them (``from ... import`` copies a name into the importing module), and
classes are traced by replacing the method on the class itself, which every
binding of the class shares.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import time
import weakref
from contextlib import contextmanager

# span name -> (home module, function name)
FUNCTIONS = {
    "kernels.correlation_matrix": ("etafit.kernels", "correlation_matrix"),
    "analysis.spectrum_bounds": ("etafit.analysis", "spectrum_bounds"),
    "analysis.asymptote_coefficients": ("etafit.analysis",
                                        "asymptote_coefficients"),
    "traces.fit_tau_interpolant": ("etafit.traces", "fit_tau_interpolant"),
    "traces.trace_inv_hutchinson": ("etafit.traces", "trace_inv_hutchinson"),
    "likelihood.d_ell_deta": ("etafit.likelihood", "d_ell_deta"),
    "likelihood.profile_ell": ("etafit.likelihood", "profile_ell"),
    "likelihood.d2_ell_deta2": ("etafit.likelihood", "d2_ell_deta2"),
    "estimation.estimate_variances": ("etafit.estimation",
                                      "estimate_variances"),
    "estimation.profile_optimize": ("etafit.estimation", "profile_optimize"),
}

# span name -> (home module, class name, method name)
METHODS = {
    "model.GpModel": ("etafit.model", "GpModel", "__init__"),
    "model.Solver.solve": ("etafit.model", "Solver", "solve"),
    "model.Solver.logdet": ("etafit.model", "Solver", "logdet"),
    "traces.ExactTraceProvider": ("etafit.traces", "ExactTraceProvider",
                                  "__init__"),
}

FIT_SPAN = "bench.fit"

# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "kernels.assemble_s": ("kernels.correlation_matrix",),
    "model.gpmodel_s": ("model.GpModel",),
    "model.solve_s": ("model.Solver.solve",),
    "model.logdet_s": ("model.Solver.logdet",),
    "analysis.spectrum_s": ("analysis.spectrum_bounds",),
    "analysis.asymptote_s": ("analysis.asymptote_coefficients",),
    "traces.interp_fit_s": ("traces.fit_tau_interpolant",),
    "traces.exact_setup_s": ("traces.ExactTraceProvider",),
    "traces.hutchinson_s": ("traces.trace_inv_hutchinson",),
    "likelihood.deriv_s": ("likelihood.d_ell_deta",),
    "likelihood.profile_s": ("likelihood.profile_ell",),
    "likelihood.d2_s": ("likelihood.d2_ell_deta2",),
    "estimation.self_s": ("estimation.estimate_variances",
                          "estimation.profile_optimize"),
}

# per-layer metric -> span name whose calls it counts
CALL_METRICS = {
    "kernels.assemble_calls": "kernels.correlation_matrix",
    "model.solve_calls": "model.Solver.solve",
    "model.logdet_calls": "model.Solver.logdet",
    "analysis.spectrum_calls": "analysis.spectrum_bounds",
    "traces.interp_fit_calls": "traces.fit_tau_interpolant",
    "traces.hutchinson_calls": "traces.trace_inv_hutchinson",
    "likelihood.deriv_calls": "likelihood.d_ell_deta",
    "likelihood.profile_calls": "likelihood.profile_ell",
    "likelihood.d2_calls": "likelihood.d2_ell_deta2",
}

# per-layer metrics read straight from the counters
COUNT_METRICS = (
    "model.solve_cols", "model.distinct_etas", "model.jitter_events",
    "estimation.deriv_evals", "estimation.ell_evals", "estimation.root_iters",
    "estimation.polish_iters", "estimation.inner_runs",
    "estimation.inner_failures", "estimation.posterior_evals",
)


class Tracer:
    """In-memory spans and counters around the calls into etafit's layers.

    ``spans`` holds ``[name, start, end, parent, fit_id]`` lists, where
    ``parent`` is the index of the enclosing span or None.  ``counts`` maps
    a fit id to a Counter of work counted at span boundaries.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = collections.defaultdict(collections.Counter)
        self._stack: list[int] = []
        self._fit_id = None
        self._patched: list[tuple] = []
        # solver instance -> etas it has been asked for; weak, so the
        # tracer never keeps a solver's factor cache alive
        self._etas = weakref.WeakKeyDictionary()

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self._fit_id])
        self._stack.append(idx)
        self.counts[self._fit_id][name + ".calls"] += 1
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def fit(self, fit_id):
        """Root span of one fit; every span opened inside carries its id."""
        self._fit_id = fit_id
        idx = self._open(FIT_SPAN)
        try:
            yield
        finally:
            self._close(idx)
            self._fit_id = None

    def _count(self, key: str, value=1) -> None:
        self.counts[self._fit_id][key] += value

    def _wrap(self, name: str, fn, on_call=None, on_return=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                if on_call is not None:
                    on_call(*args, **kwargs)
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(result)
                return result
            finally:
                self._close(idx)
        return traced

    # -- counters at the boundaries ------------------------------------------

    def _on_solve(self, solver, eta, B, *args, **kwargs):
        shape = getattr(B, "shape", ())
        self._count("model.solve_cols", shape[1] if len(shape) == 2 else 1)
        self._on_eta(solver, eta)

    def _on_logdet(self, solver, eta, *args, **kwargs):
        self._on_eta(solver, eta)

    def _on_eta(self, solver, eta):
        seen = self._etas.setdefault(solver, set())
        if eta not in seen:
            seen.add(eta)
            self._count("model.distinct_etas")

    def _on_correlation(self, K):
        stored = K.entries.nnz if K.storage == "sparse" else K.n * K.n
        self._count("kernels.stored_entries", stored)
        self._count("kernels.rows", K.n)

    def _on_estimate(self, report):
        diag = report.diagnostics
        self._count("estimation.deriv_evals", report.n_deriv_evals)
        self._count("estimation.ell_evals", report.n_ell_evals)
        self._count("estimation.root_iters", report.n_root_iters)
        self._count("estimation.polish_iters",
                    diag.get("counts", {}).get("polish_iters", 0))
        self._count("model.jitter_events", int(diag.get("jitter", 0.0) > 0))
        self._count("estimation.reports")

    def _on_profile_optimize(self, report):
        diag = report.diagnostics
        self._count("estimation.inner_runs", diag["n_inner_runs"])
        self._count("estimation.inner_failures", diag["n_inner_failures"])
        self._count("estimation.posterior_evals", diag["n_posterior_evals"])

    # -- install / uninstall ------------------------------------------------

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer is already installed")
        hooks = {
            "kernels.correlation_matrix": (None, self._on_correlation),
            "estimation.estimate_variances": (None, self._on_estimate),
            "estimation.profile_optimize": (None, self._on_profile_optimize),
            "model.Solver.solve": (self._on_solve, None),
            "model.Solver.logdet": (self._on_logdet, None),
        }
        for name, (home, attr) in FUNCTIONS.items():
            original = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(name, original, *hooks.get(name, (None, None)))
            for module in _etafit_modules():
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, binding, original))
                        setattr(module, binding, wrapper)
        for name, (home, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(home), cls_name)
            original = cls.__dict__[attr]
            self._patched.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original,
                                          *hooks.get(name, (None, None))))
        return self

    def uninstall(self) -> None:
        for owner, binding, original in reversed(self._patched):
            setattr(owner, binding, original)
        self._patched.clear()

    @property
    def patched(self) -> list[tuple]:
        """(owner, binding, original) for every binding currently replaced."""
        return list(self._patched)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- reduction ------------------------------------------------------------

    def self_times(self, fit_id) -> dict:
        """Span name -> summed self time (duration minus child spans)."""
        child = collections.Counter()
        for name, start, end, parent, fid in self.spans:
            if fid == fit_id and parent is not None:
                child[parent] += end - start
        out = collections.Counter()
        for idx, (name, start, end, parent, fid) in enumerate(self.spans):
            if fid == fit_id:
                out[name] += (end - start) - child[idx]
        return dict(out)

    def fit_wall(self, fit_id) -> float:
        return sum(end - start for name, start, end, parent, fid in self.spans
                   if fid == fit_id and name == FIT_SPAN)

    def layer_metrics(self, fit_id) -> dict:
        """Every per-layer metric of one traced fit."""
        own = self.self_times(fit_id)
        counts = self.counts[fit_id]
        out = {metric: sum(own.get(s, 0.0) for s in spans)
               for metric, spans in SELF_TIME_METRICS.items()}
        out.update({metric: counts[span + ".calls"]
                    for metric, span in CALL_METRICS.items()})
        out.update({metric: counts[metric] for metric in COUNT_METRICS})
        rows = counts["kernels.rows"]
        out["kernels.nnz_per_row"] = (counts["kernels.stored_entries"] / rows
                                      if rows else 0.0)
        etas = counts["model.distinct_etas"]
        out["model.solves_per_eta"] = (counts["model.Solver.solve.calls"]
                                       / etas if etas else 0.0)
        return out

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counts": {str(k): dict(v) for k, v in self.counts.items()}}


def _etafit_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "etafit" or name.startswith("etafit."))]
