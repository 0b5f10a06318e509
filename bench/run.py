#!/usr/bin/env python3
"""etafit benchmark: one workload, timed in a closed loop, every fit checked.

    python3 bench/run.py --workload dense_reference --seed 23 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client runs one fit at a time until ``--seconds`` have
passed, with BLAS capped at the process's CPU count.  With ``--trace 0``
the last stdout line carries the end-to-end metrics; with ``--trace 1``
the loop is run once untraced and once traced, and the last line carries
the per-layer metrics of the traced fits.  Spans, fits and the
environment are written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("dense_reference", "kernel_opt", "sparse_taper")
# setup is repeated in this many fresh interpreters besides this one
SETUP_CHILDREN = 4
# Added to the failure fraction so that it is never 0 and a bound relative
# to the parent's value stays defined; one failed fit in a run moves it by
# orders of magnitude.
FAIL_FRAC_FLOOR = 1e-3
SETUP_CHILD_TIMEOUT_S = 60


def cap_blas_threads() -> int:
    """Never run more BLAS or OpenMP threads than this process has CPUs."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def import_and_generate(workload: str, seed: int | None):
    """``import etafit`` plus datagen and design.

    Returns (seconds, workload, seed, inputs); seed None means the
    workload's own default.
    """
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports etafit
    wl = workloads.WORKLOADS[workload]
    seed = wl.default_seed if seed is None else seed
    inputs = wl.make_inputs(seed)
    return time.perf_counter() - started, wl, seed, inputs


def setup_in_child(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True,
        timeout=SETUP_CHILD_TIMEOUT_S)
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def run_fits(wl, inputs_for, budget_s: float, min_fits: int,
             max_fits: int | None = None, tracer=None, first_id: int = 0):
    """Closed loop over datasets 0, 1, ...: one fit each, until ``budget_s``
    has passed and at least ``min_fits`` fits are done."""
    fits = []
    started = time.perf_counter()
    while (len(fits) < min_fits or time.perf_counter() - started < budget_s) \
            and (max_fits is None or len(fits) < max_fits):
        dataset = len(fits)
        inputs = inputs_for(dataset)
        fit_id = first_id + dataset
        wall0, cpu0 = time.perf_counter(), time.process_time()
        report, error = None, None
        try:
            if tracer is None:
                report = wl.fit(inputs)
            else:
                with tracer.fit(fit_id):
                    report = wl.fit(inputs)
        except Exception:  # a fit that raises is a failed fit
            error = traceback.format_exc()
            print(error, file=sys.stderr)
        fits.append({"id": fit_id, "dataset": dataset,
                     "traced": tracer is not None,
                     "wall_s": time.perf_counter() - wall0,
                     "cpu_s": time.process_time() - cpu0,
                     "report": report, "error": error})
    return fits


def environment(nproc: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc,
        "machine": platform.machine(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git checkout.  The ceiling
    keeps git from searching the checkout's parent directories."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=os.environ | {"GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def summarize_report(report) -> dict | None:
    if report is None:
        return None
    hp = report.hyperparams
    out = {"outcome": report.outcome, "sigma": hp.sigma, "sigma0": hp.sigma0,
           "eta": hp.eta, "ell_max": report.ell_max,
           "n_deriv_evals": report.n_deriv_evals,
           "n_ell_evals": report.n_ell_evals}
    if report.nu_hat is not None:
        out.update(alpha_hat=report.alpha_hat, nu_hat=report.nu_hat,
                   n_posterior_evals=report.diagnostics["n_posterior_evals"])
    return out


def jsonable(value):
    return dataclasses.asdict(value) if dataclasses.is_dataclass(value) \
        else value


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"kernels.nnz_per_row": "nnz/row",
            "model.solves_per_eta": "solves/eta"}.get(name, "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only time the set-up and print it; the run "
                             "repeats its set-up this way in fresh "
                             "interpreters")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "etafit" / "__init__.py").is_file():
        print(f"error: no etafit sources under {SRC}; run from the root of "
              f"an etafit checkout", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()

    setup_s, wl, seed, inputs = import_and_generate(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setups = [setup_s] + [setup_in_child(args.workload, seed)
                          for _ in range(SETUP_CHILDREN)]
    env = environment(nproc)
    print(json.dumps({"environment": env}), flush=True)

    datasets = [inputs]

    def inputs_for(index: int):
        while len(datasets) <= index:
            datasets.append(wl.make_inputs(
                wl.dataset_seed(seed, len(datasets))))
        return datasets[index]

    wl.warmup()
    tracer = None
    if args.trace:
        from tracer import Tracer
        fits = run_fits(wl, inputs_for, args.seconds / 2, 1)
        # the traced pass repeats the untraced fits on the same datasets
        with Tracer() as tracer:
            fits += run_fits(wl, inputs_for, 0.0, len(fits), len(fits),
                             tracer, first_id=len(fits))
    else:
        fits = run_fits(wl, inputs_for, args.seconds, wl.min_fits)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # correctness: outside every timed region and every span
    references = [wl.reference(d) for d in datasets]
    for index, reference in enumerate(references):
        print(json.dumps({"dataset": index,
                          "seed": wl.dataset_seed(seed, index),
                          "reference": jsonable(reference)}), flush=True)
    failed = 0
    for f in fits:
        index = f["dataset"]
        problems = ([f"raised: {f['error'].strip().splitlines()[-1]}"]
                    if f["report"] is None
                    else wl.check(f["report"], datasets[index],
                                  references[index],
                                  wl.dataset_seed(seed, index)))
        f["check_failures"] = problems
        failed += bool(problems)
        print(json.dumps({"fit": f["id"], "dataset": index,
                          "traced": f["traced"],
                          "wall_s": f["wall_s"], "cpu_s": f["cpu_s"],
                          "result": summarize_report(f["report"]),
                          "check_failures": problems}), flush=True)
    attempted = len(fits)

    if args.trace:
        traced = [f for f in fits if f["traced"]]
        per_fit = [tracer.layer_metrics(f["id"]) for f in traced]
        metrics = {name: metric(statistics.median(p[name] for p in per_fit),
                                layer_unit(name))
                   for name in per_fit[0]}
        metrics["trace.overhead_s"] = metric(
            statistics.median(f["wall_s"] for f in traced)
            - statistics.median(f["wall_s"] for f in fits if not f["traced"]),
            "s")
    else:
        metrics = {
            "fit_s": metric(statistics.median(f["wall_s"] for f in fits), "s"),
            "fit_cpu_s": metric(statistics.median(f["cpu_s"] for f in fits),
                                "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MiB"),
            "setup_s": metric(statistics.median(setups), "s"),
            "fail_frac": metric(failed / attempted + FAIL_FRAC_FLOOR,
                                "frac"),
        }

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": wl.name, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_s": setups,
              "references": [jsonable(r) for r in references],
              "peak_rss_mb": peak_rss_mb, "metrics": metrics,
              "fits": [{k: v for k, v in f.items() if k != "report"}
                       | {"result": summarize_report(f["report"])}
                       for f in fits]}
    if tracer is not None:
        record["trace_data"] = tracer.dump()
    out_path = RESULTS / f"{wl.name}-seed{seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
