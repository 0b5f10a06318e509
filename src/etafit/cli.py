"""Command-line front end: dataset generation, estimation runs, table and
figure-data reproduction, benchmarks, and trace-interpolant inspection.

Exit codes: 0 success, 2 input error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, likelihood
from .datagen import generate_synthetic, load_dataset, save_dataset
from .design import BasisSpec, DesignMatrix, build_design, numerical_rank
from .errors import InputError, NumericError
from .estimation import (EstimateConfig, direct_variances, estimate_variances,
                         inverse_square_priors, profile_optimize,
                         uniform_priors)
from .kernels import (CorrelationKernel, CorrelationMatrix, correlation_matrix,
                      require_dense_memory)
from .model import GpModel, Solver
from .traces import ExactTraceProvider, eval_tau, fit_tau_interpolant

KERNEL_ALIASES = {"exp": "exponential", "exponential": "exponential",
                  "matern": "matern", "gauss": "gaussian",
                  "gaussian": "gaussian"}


def parse_number(text: str, flag: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise InputError(f"{flag}: invalid {kind.__name__} {text!r}") from None


def parse_kernel(text: str) -> CorrelationKernel:
    """family:alpha[:nu][:taper=kappa], e.g. exp:0.1 or matern:0.1:2.5."""
    parts = text.split(":")
    family = KERNEL_ALIASES.get(parts[0].lower())
    if family is None:
        raise InputError(f"unknown kernel family {parts[0]!r}")
    taper = 0.0
    numbers = []
    for part in parts[1:]:
        if part.startswith("taper="):
            taper = parse_number(part[len("taper="):], "--kernel")
        elif part:
            numbers.append(parse_number(part, "--kernel"))
    if not numbers:
        raise InputError(f"kernel spec {text!r} is missing alpha")
    alpha = numbers[0]
    nu = numbers[1] if len(numbers) > 1 else 0.5
    return CorrelationKernel(family, alpha, nu, taper)


def parse_basis(text: str):
    """poly:q, trig, or file:PATH (a tabulated n x m design matrix CSV)."""
    parts = text.split(":", 1)
    name = parts[0].lower()
    if name in ("poly", "polynomial"):
        order = parse_number(parts[1], "--basis", int) if len(parts) > 1 else 2
        return BasisSpec("polynomial", order)
    if name in ("trig", "trigonometric"):
        return BasisSpec("trigonometric")
    if name == "file":
        if len(parts) < 2:
            raise InputError("file basis needs a path, e.g. file:design.csv")
        return parts[1]
    raise InputError(f"unknown basis {text!r}")


def parse_pair(text: str, flag: str) -> tuple[float, float]:
    parts = [parse_number(p, flag) for p in text.split(",")]
    if len(parts) != 2:
        raise InputError(f"{flag}: expected two values, got {text!r}")
    return parts[0], parts[1]


def parse_priors(text: str):
    name = text.lower().replace("_", "-")
    if name in ("none", "flat"):
        return None
    if name == "uniform":
        return uniform_priors()
    if name == "inverse-square":
        return inverse_square_priors()
    raise InputError(f"unknown priors {text!r}")


def load_tabulated_design(path, n: int):
    """Read a plain numeric CSV as an n x m design matrix with a rank check."""
    try:
        entries = np.loadtxt(path, delimiter=",", ndmin=2)
    except OSError:
        raise InputError(f"design matrix file {path} does not exist") from None
    except ValueError as exc:
        raise InputError(f"could not parse design matrix {path}: {exc}") \
            from None
    if entries.shape[0] != n:
        raise InputError(f"design matrix has {entries.shape[0]} rows but the "
                         f"dataset has {n} points")
    m = entries.shape[1]
    if m >= n:
        raise InputError(f"need more points than basis columns (n={n}, m={m})")
    if numerical_rank(np.linalg.svd(entries, compute_uv=False), n) < m:
        raise InputError(f"tabulated design matrix {path} is rank deficient")
    return DesignMatrix(entries)


def dataset_design(dataset, basis):
    """The design matrix of a parsed ``--basis``: a basis family evaluated
    at the points, or a tabulated file."""
    if isinstance(basis, BasisSpec):
        return build_design(dataset.points, basis)
    return load_tabulated_design(basis, dataset.n)


def build_model(dataset, basis, kernel: CorrelationKernel) -> GpModel:
    X = dataset_design(dataset, basis)
    K = correlation_matrix(dataset.points, kernel)
    return GpModel(dataset.z, X, K, dataset.points)


def make_config(args) -> EstimateConfig:
    c, C = ((EstimateConfig.c_threshold, EstimateConfig.C_threshold)
            if args.thresholds is None
            else parse_pair(args.thresholds, "--thresholds"))
    return EstimateConfig(c_threshold=c, C_threshold=C,
                          exact_traces=args.exact_traces, seed=args.seed)


def _write_text(path, text: str) -> None:
    Path(path).write_text(text)


def _csv_line(fields) -> str:
    """One CSV row; a field holding a comma (an error message) is quoted."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_generate(args) -> int:
    dataset = generate_synthetic(args.n, args.sigma0, args.seed, args.sampling)
    save_dataset(dataset, args.out)
    print(f"wrote {args.n} points to {args.out} "
          f"(sigma0={args.sigma0}, seed={args.seed}, {args.sampling})")
    return 0


def cmd_estimate(args) -> int:
    dataset = load_dataset(args.data)
    basis = parse_basis(args.basis)
    kernel = parse_kernel(args.kernel)
    config = make_config(args)

    if args.optimize_kernel:
        family = KERNEL_ALIASES.get(args.optimize_kernel.lower())
        if family is None:
            raise InputError(f"unknown kernel family {args.optimize_kernel!r}")
        X = dataset_design(dataset, basis)
        points = dataset.points

        def builder(alpha, nu):
            K = correlation_matrix(
                points, CorrelationKernel(family, alpha, nu,
                                          kernel.taper_threshold))
            return GpModel(dataset.z, X, K, points)

        priors = parse_priors(args.priors)
        init = parse_pair(args.init, "--init")
        report = profile_optimize(builder, init, priors, config=config)
    elif args.direct:
        model = build_model(dataset, basis, kernel)
        report = direct_variances(model, config=config)
    else:
        model = build_model(dataset, basis, kernel)
        report = estimate_variances(model, config=config)

    if args.out:
        _write_text(args.out, report.to_json())
    hp = report.hyperparams
    eta_txt = "inf" if math.isinf(hp.eta) else f"{hp.eta:.6g}"
    extra = ""
    if report.alpha_hat is not None:
        extra = f" alpha={report.alpha_hat:.4f} nu={report.nu_hat:.4f}"
    print(f"sigma={hp.sigma:.6f} sigma0={hp.sigma0:.6f} eta={eta_txt} "
          f"outcome={report.outcome} ell={report.ell_max:.4f} "
          f"evals={report.n_ell_evals}{extra}")
    return 0


def cmd_table1(args) -> int:
    if args.data:
        dataset = load_dataset(args.data)
    else:
        dataset = generate_synthetic(args.n, args.sigma0, args.seed, "grid")
    kernel = parse_kernel(args.kernel)
    config = make_config(args)
    sigma0_true = dataset.metadata.get("sigma0_true", args.sigma0)

    specs = [("poly:%d" % q, BasisSpec("polynomial", q)) for q in range(6)]
    specs.append(("trig", BasisSpec("trigonometric")))

    rows = ["basis,m,sigma0,log10_eta,sigma_hat,sigma0_hat,rel_error"]
    for name, basis in specs:
        try:
            model = build_model(dataset, basis, kernel)
            report = estimate_variances(model, config=config)
            hp = report.hyperparams
            log_eta = ("inf" if math.isinf(hp.eta) else
                       "-inf" if hp.eta == 0 else f"{math.log10(hp.eta):.4f}")
            rel = abs(sigma0_true - hp.sigma0) / sigma0_true \
                if sigma0_true else math.nan
            rows.append(_csv_line([name, model.m, sigma0_true, log_eta,
                                   f"{hp.sigma:.4f}", f"{hp.sigma0:.4f}",
                                   f"{rel:.4f}"]))
            print(rows[-1])
        except (InputError, NumericError) as exc:
            # a failed row is recorded and the sweep continues
            rows.append(_csv_line([name, "", "", f"failed: {exc}", "", "",
                                   ""]))
            print(rows[-1])
    _write_text(args.out, "\n".join(rows) + "\n")
    return 0


def _benchmark_cell(n, storage, method, sigma0, seed, config):
    dataset = generate_synthetic(n, sigma0, seed, "grid")
    if storage == "sparse":
        kernel = CorrelationKernel("exponential", 0.005, taper_threshold=0.03)
    else:
        kernel = CorrelationKernel("exponential", 0.1)
    basis = BasisSpec("polynomial", 2)
    model = build_model(dataset, basis, kernel)
    start = time.perf_counter()
    if method == "profiled":
        report = estimate_variances(model, config=config)
    else:
        report = direct_variances(model, config=config)
    wall = time.perf_counter() - start
    timing = report.diagnostics.get("timing", {})
    return {"n": n, "storage": storage, "method": method,
            "wall_time": wall,
            "precompute": timing.get("precompute", ""),
            "root_find": timing.get("root_find", ""),
            "n_evals": report.n_ell_evals + report.n_deriv_evals,
            "n_ell_evals": report.n_ell_evals,
            "outcome": report.outcome}


def cmd_benchmark(args) -> int:
    config = make_config(args)
    dense_sizes = [parse_number(v, "--sizes", int)
                   for v in args.sizes.split(",") if v]
    sparse_sizes = [parse_number(v, "--sparse-sizes", int)
                    for v in args.sparse_sizes.split(",") if v]
    cells = [(n, "dense") for n in sorted(dense_sizes)]
    cells += [(n, "sparse") for n in sorted(sparse_sizes)]
    methods = ["profiled", "direct"]

    def run(n, storage, method):
        try:
            return _benchmark_cell(n, storage, method, args.sigma0, args.seed,
                                   config)
        except (InputError, NumericError) as exc:
            return {"n": n, "storage": storage, "method": method,
                    "wall_time": "", "precompute": "", "root_find": "",
                    "n_evals": "", "n_ell_evals": "",
                    "outcome": f"failed: {exc}"}

    results = [run(n, s, meth) for (n, s) in cells for meth in methods]

    header = ["n", "storage", "method", "wall_time", "precompute",
              "root_find", "n_evals", "n_ell_evals", "outcome"]
    rows = [",".join(header)]
    for row in results:
        rows.append(_csv_line(row[h] for h in header))
        print(rows[-1])
    _write_text(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_plotdata(args) -> int:
    lo, hi = parse_pair(args.eta_range, "--eta-range")
    if not 0.0 < lo < hi:
        raise InputError(f"--eta-range needs 0 < lo < hi, got {lo}, {hi}")
    if args.grid_points < 1:
        raise InputError(f"--grid-points must be at least 1, got "
                         f"{args.grid_points}")
    dataset = load_dataset(args.data)
    basis = parse_basis(args.basis)
    kernel = parse_kernel(args.kernel)
    model = build_model(dataset, basis, kernel)
    solver = Solver(model.K)
    traces = likelihood.trace_provider(solver)

    etas = np.logspace(math.log10(lo), math.log10(hi), args.grid_points)
    spectrum = analysis.spectrum_bounds(solver)
    coeffs = analysis.asymptote_coefficients(model, solver=solver)

    d_vals = [likelihood.d_ell_deta(model, e, solver, traces) for e in etas]
    rows = ["eta,d_ell,bound_lo,bound_hi,asymptote_1,asymptote_2,is_root"]
    for i, e in enumerate(etas):
        b1, _ = analysis.derivative_bounds(spectrum, model.n, model.m, e)
        a1 = analysis.asymptote_d_ell(coeffs, model.n, model.m, e, order=1)
        a2 = analysis.asymptote_d_ell(coeffs, model.n, model.m, e, order=2)
        is_root = int(i + 1 < len(etas)
                      and np.sign(d_vals[i]) != np.sign(d_vals[i + 1]))
        rows.append(f"{e:.8g},{d_vals[i]:.10g},{-b1:.10g},{b1:.10g},"
                    f"{a1:.10g},{a2:.10g},{is_root}")
    _write_text(args.out, "\n".join(rows) + "\n")
    print(f"wrote {len(etas)} grid rows to {args.out}")
    return 0


def cmd_trace_interp(args) -> int:
    nodes = tuple(parse_number(v, "--nodes") for v in args.nodes.split(","))
    dataset = load_dataset(args.data)
    kernel = parse_kernel(args.kernel)
    K = correlation_matrix(dataset.points, kernel)
    if args.check and K.storage == "sparse":
        # --check reduces a dense copy of sparse K: two n x n arrays
        require_dense_memory(K.n, 2.0, "its dense eigensolve")
    solver = Solver(K)
    interp = fit_tau_interpolant(
        nodes, likelihood.trace_provider(solver, args.seed))
    _write_text(args.out, interp.to_json() + "\n")
    print(f"fitted tau interpolant: n={interp.n} nodes={list(interp.nodes)} "
          f"method={interp.method} cond={interp.cond:.3g}")
    if args.check:
        if solver.eigvals is None:
            solver = Solver(CorrelationMatrix(K.toarray()))
        exact_traces = ExactTraceProvider(solver.eigvals)
        for e in np.logspace(-3, 3, 13):
            exact = exact_traces(e)
            approx = interp.n * eval_tau(interp, e)
            rel = abs(approx - exact) / exact
            print(f"eta={e:10.4g}  interp={approx:12.6g}  "
                  f"exact={exact:12.6g}  rel_err={rel:.3e}")
    return 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------

def _add_estimation_flags(p):
    p.add_argument("--thresholds", default=None, metavar="c,C",
                   help="interior classification thresholds, 0 < c < C")
    p.add_argument("--exact-traces", action="store_true",
                   help="disable trace interpolation on sparse K "
                        "(validation runs)")
    p.add_argument("--seed", type=int, default=0,
                   help="probe seed; also the table1/benchmark data seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etafit",
        description="GP noise/error variance estimation via the variance "
                    "ratio eta")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--n", type=int, default=2500)
    p.add_argument("--sigma0", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sampling", choices=["grid", "random"], default="grid")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("estimate", help="run the variance estimator")
    p.add_argument("--data", required=True)
    p.add_argument("--basis", default="poly:2")
    p.add_argument("--kernel", default="exp:0.1")
    p.add_argument("--direct", action="store_true",
                   help="use the direct Nelder-Mead baseline")
    p.add_argument("--optimize-kernel", default=None, metavar="FAMILY",
                   help="also optimize (alpha, nu) of this kernel family")
    p.add_argument("--priors", default="none",
                   help="none | uniform | inverse-square")
    p.add_argument("--init", default="0.1,1",
                   help="initial alpha,nu for kernel optimization")
    p.add_argument("--out", default=None, help="report JSON path")
    _add_estimation_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("table1", help="basis-function comparison table")
    p.add_argument("--data", default=None)
    p.add_argument("--n", type=int, default=2500)
    p.add_argument("--sigma0", type=float, default=0.2)
    p.add_argument("--kernel", default="exp:0.1")
    p.add_argument("--out", required=True)
    _add_estimation_flags(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("benchmark", help="timing sweep over data sizes")
    p.add_argument("--sizes", default="256,1024,4096",
                   help="dense sizes, comma separated")
    p.add_argument("--sparse-sizes", default="",
                   help="tapered-sparse sizes, comma separated")
    p.add_argument("--sigma0", type=float, default=0.2)
    p.add_argument("--out", required=True)
    _add_estimation_flags(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("plotdata", help="derivative/bounds/asymptote curves")
    p.add_argument("--data", required=True)
    p.add_argument("--basis", default="poly:2")
    p.add_argument("--kernel", default="exp:0.1")
    p.add_argument("--eta-range", default="1e-3,1e3")
    p.add_argument("--grid-points", type=int, default=49)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plotdata)

    p = sub.add_parser("trace-interp", help="fit/inspect a trace interpolant")
    p.add_argument("--data", required=True)
    p.add_argument("--kernel", default="exp:0.1")
    p.add_argument("--nodes", default="1,10,40,100,1000")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check", action="store_true",
                   help="print interpolation error against exact traces")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_trace_interp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
