"""Hyperparameter estimation: Chandrupatla root finding on the profiled
likelihood derivative, the end-to-end variance estimator, a direct
Nelder-Mead baseline, and kernel-hyperparameter profile optimization.

The profiled estimator reduces the (sigma^2, sigma0^2) search to a
univariate root-finding problem in the variance ratio; the direct
optimizers are retained as comparison baselines.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import analysis, likelihood
from .errors import (BracketError, ConvergenceError, InputError,
                     NumericError)
from .model import (JITTER_SCALE, GpModel, HyperParams, Solver,
                    default_solver)
from .traces import (DEFAULT_NODES, ExactTraceProvider,
                     HutchinsonTraceProvider, InterpolantTraceProvider,
                     fit_tau_interpolant)

OUTCOME_INTERIOR = "interior"
OUTCOME_NOISE = "noise_dominated"
OUTCOME_ERROR = "error_dominated"
OUTCOME_DEGENERATE = "degenerate"

METHOD_PROFILED = "profiled_eta"
METHOD_DIRECT = "direct_nelder_mead"


# ----------------------------------------------------------------------
# Root finding
# ----------------------------------------------------------------------

def chandrupatla_root(f, lo: float, hi: float, x_tol: float = 1e-8,
                      f_tol: float = 0.0, max_iter: int = 100,
                      f_lo: float | None = None, f_hi: float | None = None,
                      full_output: bool = False):
    """Bracketing root finder mixing bisection with inverse quadratic
    interpolation, accepted through Chandrupatla's criterion.

    Stops when |f| <= f_tol or the bracket width falls below x_tol.
    Returns (root, iterations); with ``full_output`` the final bracket
    (x1, x2, f1, f2) is appended.  The two initial endpoint evaluations
    are not counted as iterations.
    """
    if not lo < hi:
        raise InputError(f"need lo < hi, got [{lo}, {hi}]")
    f1 = f(lo) if f_lo is None else f_lo
    f2 = f(hi) if f_hi is None else f_hi
    x1, x2 = lo, hi
    if f1 == 0.0:
        return (x1, 0, (x1, x2, f1, f2)) if full_output else (x1, 0)
    if f2 == 0.0:
        return (x2, 0, (x1, x2, f1, f2)) if full_output else (x2, 0)
    if math.copysign(1.0, f1) == math.copysign(1.0, f2):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: f(lo)={f1:.3e}, f(hi)={f2:.3e}")

    x3, f3 = x2, f2
    t = 0.5
    xm, fm = (x1, f1) if abs(f1) < abs(f2) else (x2, f2)
    for iteration in range(1, max_iter + 1):
        x = x1 + t * (x2 - x1)
        fx = f(x)
        if not math.isfinite(fx):
            raise NumericError(f"non-finite function value {fx} at x={x}")
        if math.copysign(1.0, fx) == math.copysign(1.0, f1):
            x3, f3 = x1, f1
        else:
            x3, f3 = x2, f2
            x2, f2 = x1, f1
        x1, f1 = x, fx

        xm, fm = (x1, f1) if abs(f1) < abs(f2) else (x2, f2)
        dx = abs(x2 - x1)
        tol = x_tol + 4.0 * np.finfo(float).eps * abs(xm)
        if abs(fm) <= f_tol or dx <= tol:
            out = (xm, iteration, (x1, x2, f1, f2))
            return out if full_output else out[:2]

        # inverse quadratic interpolation only when admissible, else bisect
        t = 0.5
        if f3 != f2 and f3 != f1:
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            if (1.0 - math.sqrt(1.0 - xi)) < phi < math.sqrt(xi):
                alpha = (x3 - x1) / (x2 - x1)
                t = (f1 / (f1 - f2)) * (f3 / (f3 - f2)) \
                    - alpha * (f1 / (f3 - f1)) * (f2 / (f2 - f3))
        t_lim = 0.5 * tol / dx
        t = min(max(t, t_lim), 1.0 - t_lim)

    raise ConvergenceError(
        f"root finder hit {max_iter} iterations; best bracket "
        f"[{min(x1, x2)}, {max(x1, x2)}] with |f|={abs(fm):.3e}")


# ----------------------------------------------------------------------
# Nelder-Mead (adaptive simplex, minimization)
# ----------------------------------------------------------------------

@dataclass
class NelderMeadResult:
    x: np.ndarray
    fun: float
    n_evals: int
    n_iters: int
    converged: bool


def nelder_mead(f, x0, tol: float = 1e-6, max_evals: int = 10000,
                initial_step=None) -> NelderMeadResult:
    """Adaptive-coefficient simplex descent (reflection 1, expansion 1+2/k,
    contraction 0.75-1/(2k), shrink 1-1/k for dimension k >= 2).

    Terminates when the simplex size and the function spread both fall
    below ``tol``; on eval exhaustion the best point is returned with
    ``converged=False``.
    """
    x0 = np.asarray(x0, dtype=float)
    k = x0.size
    if k < 1:
        raise InputError("need at least one coordinate")

    if k >= 2:
        rho, chi, psi, shrink = 1.0, 1.0 + 2.0 / k, 0.75 - 0.5 / k, 1.0 - 1.0 / k
    else:
        rho, chi, psi, shrink = 1.0, 2.0, 0.5, 0.5

    evals = 0

    def call(x):
        nonlocal evals
        evals += 1
        return float(f(x))

    f0 = call(x0)
    if not np.isfinite(f0):
        raise InputError("objective must be finite at the initial point")

    sim = [x0]
    if initial_step is None:
        steps = np.where(x0 != 0.0, 0.05 * np.abs(x0), 0.00025)
    else:
        steps = np.broadcast_to(np.asarray(initial_step, dtype=float),
                                (k,)).copy()
    for i in range(k):
        xi = x0.copy()
        xi[i] += steps[i]
        sim.append(xi)
    sim = np.asarray(sim)
    fsim = np.array([f0] + [call(x) for x in sim[1:]])

    n_iters = 0
    converged = False
    while evals < max_evals:
        order = np.argsort(fsim, kind="stable")
        sim, fsim = sim[order], fsim[order]
        size = np.max(np.abs(sim[1:] - sim[0])) if k else 0.0
        spread = np.max(np.abs(fsim[1:] - fsim[0]))
        if size <= tol and spread <= tol:
            converged = True
            break
        n_iters += 1

        centroid = np.mean(sim[:-1], axis=0)
        xr = centroid + rho * (centroid - sim[-1])
        fr = call(xr)
        if fr < fsim[0]:
            xe = centroid + rho * chi * (centroid - sim[-1])
            fe = call(xe)
            if fe < fr:
                sim[-1], fsim[-1] = xe, fe
            else:
                sim[-1], fsim[-1] = xr, fr
        elif fr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fr
        else:
            if fr < fsim[-1]:
                xc = centroid + psi * rho * (centroid - sim[-1])
                fc = call(xc)
                accept = fc <= fr
            else:
                xc = centroid - psi * (centroid - sim[-1])
                fc = call(xc)
                accept = fc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fc
            else:
                for i in range(1, k + 1):
                    sim[i] = sim[0] + shrink * (sim[i] - sim[0])
                    fsim[i] = call(sim[i])

    order = np.argsort(fsim, kind="stable")
    sim, fsim = sim[order], fsim[order]
    return NelderMeadResult(sim[0].copy(), float(fsim[0]), evals, n_iters,
                            converged)


# ----------------------------------------------------------------------
# Priors
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Prior:
    """Uniform(lo, hi) box or inverse-square tail H(x)/(1 + x/scale)^2."""

    kind: str
    lo: float = 0.0
    hi: float = math.inf
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "inverse_square"):
            raise InputError(f"unknown prior kind {self.kind!r}")
        if self.kind == "uniform" and not self.lo < self.hi:
            raise InputError("uniform prior needs lo < hi")
        if self.kind == "inverse_square" and self.scale <= 0:
            raise InputError("inverse-square prior needs a positive scale")

    def log_pdf(self, x: float) -> float:
        if self.kind == "uniform":
            return 0.0 if self.lo <= x <= self.hi else -math.inf
        if x < 0:
            return -math.inf
        return -2.0 * math.log1p(x / self.scale)


@dataclass(frozen=True)
class PriorSpec:
    """Priors per kernel hyperparameter; default is flat (posterior ==
    likelihood)."""

    alpha: Prior = Prior("uniform")
    nu: Prior = Prior("uniform")

    def log_pdf(self, alpha: float, nu: float) -> float:
        return self.alpha.log_pdf(alpha) + self.nu.log_pdf(nu)


def uniform_priors(nu_cap: float = 25.0) -> PriorSpec:
    """Flat priors with the smoothness capped, as in the baseline study."""
    return PriorSpec(alpha=Prior("uniform", 0.0, math.inf),
                     nu=Prior("uniform", 0.0, nu_cap))


def inverse_square_priors() -> PriorSpec:
    """Non-informative inverse-square priors (nu scale 25, alpha scale 1)."""
    return PriorSpec(alpha=Prior("inverse_square", scale=1.0),
                     nu=Prior("inverse_square", scale=25.0))


# ----------------------------------------------------------------------
# Configuration and report
# ----------------------------------------------------------------------

@dataclass
class EstimateConfig:
    """Knobs for the profiled estimator; defaults reproduce the reference
    workflow."""

    c_threshold: float = 1e-4
    C_threshold: float = 1e4
    eta_tol: float = 1e-6           # bracket tolerance in log10(eta)
    f_tol_scale: float = 1e-8       # derivative tolerance = scale * (n - m)
    max_root_iter: int = 100
    scan_probes: int = 24
    # The trace fields below apply to solvers without a spectrum (CG on
    # sparse K); the dense eigenbasis backend always uses exact traces.
    use_trace_interpolant: bool = True
    exact_traces: bool = False      # force exact traces (validation runs)
    trace_nodes: tuple = DEFAULT_NODES
    trace_method: str = "auto"
    trace_interpolant: object = None  # pre-fitted TraceInterpolant to reuse
    hutchinson_vectors: int = 20
    seed: int = 0
    large_n_approx: object = "auto"  # True/False or "auto" (n > 50 m)


@dataclass
class EstimationReport:
    """Estimates plus likelihood value, evaluation counts, and diagnostics.

    ``n_ell_evals`` counts evaluations of the likelihood function proper;
    derivative-only evaluations (used by the root finder) are counted in
    ``n_deriv_evals``.
    """

    hyperparams: HyperParams
    ell_max: float
    n_ell_evals: int
    n_root_iters: int
    method: str
    outcome: str
    alpha_hat: float | None = None
    nu_hat: float | None = None
    n_deriv_evals: int = 0
    diagnostics: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(_jsonable(asdict(self)), indent=indent)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


# ----------------------------------------------------------------------
# Profiled estimator
# ----------------------------------------------------------------------

def classify_outcome(eta: float, config: EstimateConfig) -> str:
    """Interior inside [c, C]; error-dominated below c (and at eta = 0),
    noise-dominated above C (and at eta = inf)."""
    if eta == 0.0 or eta < config.c_threshold:
        return OUTCOME_ERROR
    if math.isinf(eta) or eta > config.C_threshold:
        return OUTCOME_NOISE
    return OUTCOME_INTERIOR


def _exact_traces(model: GpModel, solver: Solver, config: EstimateConfig):
    """Exact traces from the solver's spectrum; Hutchinson estimates for a
    CG solver on sparse K, where no spectrum is formed."""
    if solver.eigvals is None and model.K.storage == "sparse":
        return HutchinsonTraceProvider(model.K, solver,
                                       config.hutchinson_vectors, config.seed)
    return ExactTraceProvider(model.K, solver.eigvals)


def _degenerate_report(model: GpModel, started: float) -> EstimationReport:
    hp = HyperParams(0.0, 0.0, math.nan)
    return EstimationReport(
        hyperparams=hp, ell_max=math.inf, n_ell_evals=0, n_root_iters=0,
        method=METHOD_PROFILED, outcome=OUTCOME_DEGENERATE,
        diagnostics={"timing": {"total": time.perf_counter() - started}},
        warnings=["observations lie in the range of the design matrix; "
                  "the likelihood is unbounded at sigma = 0"])


def estimate_variances(model: GpModel, solver: Solver | None = None,
                       config: EstimateConfig | None = None) -> EstimationReport:
    """End-to-end profiled estimator of (sigma^2, sigma0^2).

    Pipeline: spectrum bounds -> asymptote advisory -> search interval ->
    derivative sign scan -> bracketed root finding -> candidate selection
    against the boundary estimates -> threshold classification.

    With the dense eigenbasis solver (the default for dense K) the spectrum
    and every trace are exact and come from its one eigendecomposition.
    Solvers without a spectrum (CG) fit the trace interpolant instead,
    unless ``config`` asks for exact traces.
    """
    started = time.perf_counter()
    config = config or EstimateConfig()
    if model.degenerate:
        return _degenerate_report(model, started)
    solver = solver or default_solver(model.K)
    n, m = model.n, model.m
    f_tol = config.f_tol_scale * (n - m)
    counters = {"ell": 0, "deriv": 0}
    warnings_out: list[str] = []

    # --- pre-computation: spectrum, asymptotes, traces -----------------
    spectrum = analysis.spectrum_bounds(model.K, solver.eigvals)
    if solver.jitter > 2.0 * JITTER_SCALE * n:
        warnings_out.append(
            f"K is indefinite (lambda_min = "
            f"{spectrum.lambda_min - solver.jitter:.3e}); solves, "
            f"log-determinants and traces use K + {solver.jitter:.3e} I")
    if config.large_n_approx == "auto":
        large_n = n > analysis.LARGE_N_FACTOR * m
    else:
        large_n = bool(config.large_n_approx)
    coeffs = analysis.asymptote_coefficients(model, large_n)
    roots1 = analysis.asymptote_roots(coeffs, 1)
    roots2 = analysis.asymptote_roots(coeffs, 2)
    interval = analysis.search_interval(spectrum, roots1 + roots2)

    if (config.trace_interpolant is not None
            and config.trace_interpolant.n != n):
        raise InputError(
            f"trace interpolant was fitted for n={config.trace_interpolant.n}"
            f" but the model has n={n}")
    exact_traces = _exact_traces(model, solver, config)
    interp = None
    if (solver.eigvals is not None or config.exact_traces
            or not config.use_trace_interpolant):
        traces = exact_traces
    else:
        if config.trace_interpolant is not None:
            interp = config.trace_interpolant
        else:
            interp = fit_tau_interpolant(
                model.K, config.trace_nodes, config.trace_method, solver,
                config.hutchinson_vectors, config.seed)
        traces = InterpolantTraceProvider(interp, exact_traces)
    t_precompute = time.perf_counter() - started

    def eval_d_ell(eta: float) -> float:
        counters["deriv"] += 1
        return likelihood.d_ell_deta(model, eta, solver, traces)

    def eval_profile(eta: float):
        counters["ell"] += 1
        return likelihood.profile_ell(model, eta, solver, traces)

    # --- scan for sign changes in log10(eta) ---------------------------
    t_lo, t_hi = math.log10(interval[0]), math.log10(interval[1])
    grid_t = np.linspace(t_lo, t_hi, config.scan_probes)
    grid_d = np.array([eval_d_ell(10.0 ** t) for t in grid_t])
    bounds_at_probes = [analysis.derivative_bounds(spectrum, n, m, 10.0 ** t)
                        for t in grid_t]

    brackets = []
    for i in range(len(grid_t) - 1):
        if grid_d[i] == 0.0 or np.sign(grid_d[i]) != np.sign(grid_d[i + 1]):
            brackets.append(i)

    # --- root finding per bracket --------------------------------------
    g = lambda t: eval_d_ell(10.0 ** t)  # noqa: E731
    n_root_iters = 0
    polish_iters = 0
    bracket_records = []
    root_candidates = []
    for i in brackets:
        try:
            t_root, iters, (b_lo, b_hi, fb_lo, fb_hi) = chandrupatla_root(
                g, grid_t[i], grid_t[i + 1], x_tol=config.eta_tol,
                f_tol=f_tol, max_iter=config.max_root_iter,
                f_lo=float(grid_d[i]), f_hi=float(grid_d[i + 1]),
                full_output=True)
        except NumericError as exc:
            warnings_out.append(f"root finding failed on bracket "
                                f"[{grid_t[i]:.3f}, {grid_t[i + 1]:.3f}]: {exc}")
            continue
        n_root_iters += iters
        f_root = g(t_root)
        extra = 0
        if abs(f_root) > f_tol and b_lo != b_hi:
            lo_, hi_ = min(b_lo, b_hi), max(b_lo, b_hi)
            f_lo_, f_hi_ = (fb_lo, fb_hi) if b_lo < b_hi else (fb_hi, fb_lo)
            try:
                t_root, extra = chandrupatla_root(
                    g, lo_, hi_, x_tol=config.eta_tol * 1e-6, f_tol=f_tol,
                    max_iter=config.max_root_iter, f_lo=f_lo_, f_hi=f_hi_)
            except NumericError:
                pass
            polish_iters += extra
        eta_root = 10.0 ** t_root
        ev = eval_profile(eta_root)
        counters["deriv"] += 1
        try:
            d2 = likelihood.d2_ell_deta2(model, eta_root, solver,
                                         exact_traces)
        except NumericError as exc:
            warnings_out.append(
                f"second-derivative check failed at eta={eta_root:.6g}: {exc}")
            d2 = math.nan
        accepted = d2 < 0
        bracket_records.append({
            "t_lo": float(grid_t[i]), "t_hi": float(grid_t[i + 1]),
            "log10_eta": float(t_root), "iterations": iters,
            "polish_iterations": extra, "d_ell": float(ev.d_ell),
            "d2_ell": float(d2), "accepted": bool(accepted)})
        if accepted:
            root_candidates.append((ev, d2))
        else:
            warnings_out.append(
                f"stationary point at log10(eta)={t_root:.4f} rejected: "
                f"second derivative {d2:.3e} is not negative")

    # --- boundary candidates -------------------------------------------
    ev_zero = None
    try:
        ev_zero = eval_profile(0.0)
    except NumericError as exc:
        warnings_out.append(f"eta=0 boundary evaluation failed: {exc}")
    ell_inf, sigma02_inf = likelihood.ell_infinite_eta(model)
    counters["ell"] += 1  # the closed-form eta->inf likelihood evaluation

    candidates = [(ev.eta, ev.ell, ev) for ev, _ in root_candidates]
    if ev_zero is not None:
        candidates.append((0.0, ev_zero.ell, ev_zero))
    candidates.append((math.inf, ell_inf, None))
    eta_hat, ell_max, ev_best = max(candidates, key=lambda c: c[1])

    if not root_candidates and ev_zero is not None:
        if abs(ev_zero.ell - ell_inf) <= 1e-9 * max(1.0, abs(ell_inf)):
            warnings_out.append("no interior root and the boundary "
                                "candidates are indistinguishable")

    # --- classification --------------------------------------------------
    # A root outside [c, C] is reported as the boundary estimate; ell_max
    # stays the best candidate's likelihood, so it is continuous in K.
    outcome = classify_outcome(eta_hat, config)
    if outcome == OUTCOME_INTERIOR:
        hp = HyperParams.from_sigma2_eta(ev_best.sigma2_hat, eta_hat)
    elif outcome == OUTCOME_ERROR:
        ev_zero = ev_zero or eval_profile(0.0)
        hp = HyperParams(ev_zero.sigma2_hat, 0.0, 0.0)
    else:
        hp = HyperParams(0.0, sigma02_inf, math.inf)

    total = time.perf_counter() - started
    diagnostics = {
        "spectrum": {"lambda_min": spectrum.lambda_min,
                     "lambda_max": spectrum.lambda_max},
        "search_interval": list(interval),
        "asymptote": {"a0": coeffs.a0, "a1": coeffs.a1, "a2": coeffs.a2,
                      "a3": coeffs.a3, "trace_n": coeffs.trace_n,
                      "trace_n2": coeffs.trace_n2,
                      "large_n_approx": coeffs.large_n_approx,
                      "roots_order1": roots1, "roots_order2": roots2},
        "scan": {"log10_eta": grid_t.tolist(), "d_ell": grid_d.tolist(),
                 "bound_first": [b[0] for b in bounds_at_probes],
                 "bound_second": [b[1] for b in bounds_at_probes]},
        "brackets": bracket_records,
        "boundary": {"ell_eta_zero":
                     None if ev_zero is None else ev_zero.ell,
                     "ell_eta_inf": ell_inf},
        "trace": {"interpolated": interp is not None,
                  "method": None if interp is None else interp.method,
                  "nodes": None if interp is None else list(interp.nodes),
                  "condition": None if interp is None else interp.cond},
        "counts": {"ell_evals": counters["ell"],
                   "deriv_evals": counters["deriv"],
                   "root_iters": n_root_iters,
                   "polish_iters": polish_iters},
        "jitter": solver.jitter,
        "timing": {"precompute": t_precompute,
                   "root_find": total - t_precompute, "total": total},
    }
    return EstimationReport(
        hyperparams=hp, ell_max=float(ell_max),
        n_ell_evals=counters["ell"], n_root_iters=n_root_iters,
        method=METHOD_PROFILED, outcome=outcome,
        n_deriv_evals=counters["deriv"], diagnostics=diagnostics,
        warnings=warnings_out)


# ----------------------------------------------------------------------
# Direct baselines
# ----------------------------------------------------------------------

def direct_variances(model: GpModel, init=(0.1, 0.1), tol: float = 1e-6,
                     max_evals: int = 2000,
                     solver: Solver | None = None,
                     config: EstimateConfig | None = None) -> EstimationReport:
    """Direct 2-D Nelder-Mead maximization of ell(sigma, sigma0); baseline."""
    started = time.perf_counter()
    config = config or EstimateConfig()
    if model.degenerate:
        rep = _degenerate_report(model, started)
        rep.method = METHOD_DIRECT
        return rep
    solver = solver or default_solver(model.K)
    counters = {"ell": 0}

    def objective(x):
        sigma, sigma0 = x
        if sigma <= 0 or sigma0 < 0:
            return math.inf
        eta = (sigma0 / sigma) ** 2
        if not np.isfinite(eta):
            return math.inf
        counters["ell"] += 1
        try:
            return -likelihood.log_marginal_likelihood(
                model, sigma ** 2, eta, solver)
        except NumericError:
            return math.inf

    res = nelder_mead(objective, np.asarray(init, dtype=float), tol=tol,
                      max_evals=max_evals)
    sigma, sigma0 = res.x
    eta = (sigma0 / sigma) ** 2
    hp = HyperParams(sigma ** 2, sigma0 ** 2, eta)
    total = time.perf_counter() - started
    return EstimationReport(
        hyperparams=hp, ell_max=-res.fun, n_ell_evals=counters["ell"],
        n_root_iters=0, method=METHOD_DIRECT,
        outcome=classify_outcome(eta, config),
        diagnostics={"converged": res.converged, "nm_iters": res.n_iters,
                     "timing": {"total": total}},
        warnings=[] if res.converged else
        ["Nelder-Mead hit the evaluation budget before converging"])


# ----------------------------------------------------------------------
# Kernel hyperparameter optimization
# ----------------------------------------------------------------------

NU_BOUNDS = (1e-2, 25.0)


def profile_optimize(model_builder, init, priors: PriorSpec | None = None,
                     tol: float = 1e-4, max_evals: int = 500,
                     config: EstimateConfig | None = None,
                     nu_bounds=NU_BOUNDS) -> EstimationReport:
    """Maximize the profiled log posterior over (alpha, nu).

    Every objective evaluation runs the full profiled variance estimation
    for the kernel at (alpha, nu); the search itself is Nelder-Mead in
    log10 coordinates.  Inner failures are treated as rejected simplex
    moves.
    """
    started = time.perf_counter()
    priors = priors or PriorSpec()
    alpha0, nu0 = init
    if not np.isfinite(priors.log_pdf(alpha0, nu0)):
        raise InputError("initial point is outside the prior support")
    counters = {"ell": 0, "deriv": 0, "root_iters": 0, "inner": 0,
                "failures": 0, "singular": 0}

    def objective(u):
        alpha, nu = 10.0 ** u[0], 10.0 ** u[1]
        if not nu_bounds[0] <= nu <= nu_bounds[1]:
            return math.inf
        lp = priors.log_pdf(alpha, nu)
        if not np.isfinite(lp):
            return math.inf
        counters["inner"] += 1
        try:
            rep = estimate_variances(model_builder(alpha, nu), config=config)
        except NumericError:
            counters["failures"] += 1
            return math.inf
        if rep.outcome == OUTCOME_DEGENERATE:
            counters["failures"] += 1
            return math.inf
        if rep.outcome == OUTCOME_ERROR and rep.diagnostics["jitter"] > 0.0:
            # sigma0 = 0 on a K that is singular at working precision: the
            # reported covariance sigma2 K is itself singular, and its
            # likelihood is set by the jitter, not by the data
            counters["singular"] += 1
            return math.inf
        counters["ell"] += rep.n_ell_evals
        counters["deriv"] += rep.n_deriv_evals
        counters["root_iters"] += rep.n_root_iters
        return -(rep.ell_max + lp)

    u0 = np.log10([alpha0, nu0])
    res = nelder_mead(objective, u0, tol=tol, max_evals=max_evals,
                      initial_step=0.25)
    alpha_hat, nu_hat = 10.0 ** res.x[0], 10.0 ** res.x[1]

    final = estimate_variances(model_builder(alpha_hat, nu_hat),
                               config=config)
    counters["ell"] += final.n_ell_evals
    counters["deriv"] += final.n_deriv_evals
    total = time.perf_counter() - started
    return EstimationReport(
        hyperparams=final.hyperparams, ell_max=final.ell_max,
        n_ell_evals=counters["ell"], n_root_iters=counters["root_iters"],
        method=METHOD_PROFILED, outcome=final.outcome,
        alpha_hat=float(alpha_hat), nu_hat=float(nu_hat),
        n_deriv_evals=counters["deriv"],
        diagnostics={
            "log_posterior": final.ell_max + priors.log_pdf(alpha_hat, nu_hat),
            "n_posterior_evals": res.n_evals,
            "n_inner_runs": counters["inner"],
            "n_inner_failures": counters["failures"],
            "n_singular_rejections": counters["singular"],
            "converged": res.converged,
            "timing": {"total": total},
        },
        warnings=[] if res.converged else
        ["Nelder-Mead hit the evaluation budget before converging"])


def direct_optimize(model_builder, init4, priors: PriorSpec | None = None,
                    tol: float = 1e-4, max_evals: int = 3000,
                    config: EstimateConfig | None = None) -> EstimationReport:
    """Direct 4-D Nelder-Mead over (alpha, nu, sigma, sigma0); baseline.

    Reports the converged point even when it is a non-global local
    maximum of the posterior.  ``config`` supplies the classification
    thresholds.
    """
    started = time.perf_counter()
    config = config or EstimateConfig()
    priors = priors or PriorSpec()
    counters = {"ell": 0}
    solver_cache: dict[tuple, tuple] = {}

    def objective(x):
        alpha, nu, sigma, sigma0 = x
        if alpha <= 0 or nu <= 0 or sigma <= 0 or sigma0 < 0:
            return math.inf
        lp = priors.log_pdf(alpha, nu)
        if not np.isfinite(lp):
            return math.inf
        eta = (sigma0 / sigma) ** 2
        if not np.isfinite(eta):
            return math.inf
        key = (alpha, nu)
        if key not in solver_cache:
            if len(solver_cache) > 8:
                solver_cache.clear()
            model = model_builder(alpha, nu)
            solver_cache[key] = (model, default_solver(model.K))
        model, solver = solver_cache[key]
        if model.degenerate:
            return math.inf
        counters["ell"] += 1
        try:
            ell = likelihood.log_marginal_likelihood(
                model, sigma ** 2, eta, solver)
        except NumericError:
            return math.inf
        return -(ell + lp)

    res = nelder_mead(objective, np.asarray(init4, dtype=float), tol=tol,
                      max_evals=max_evals)
    alpha_hat, nu_hat, sigma, sigma0 = res.x
    eta = (sigma0 / sigma) ** 2 if sigma > 0 else math.inf
    hp = HyperParams(sigma ** 2, sigma0 ** 2, eta)
    lp = priors.log_pdf(alpha_hat, nu_hat)
    total = time.perf_counter() - started
    return EstimationReport(
        hyperparams=hp, ell_max=-res.fun - lp, n_ell_evals=counters["ell"],
        n_root_iters=0, method=METHOD_DIRECT,
        outcome=classify_outcome(eta, config),
        alpha_hat=float(alpha_hat), nu_hat=float(nu_hat),
        diagnostics={"log_posterior": -res.fun, "converged": res.converged,
                     "nm_iters": res.n_iters, "timing": {"total": total}},
        warnings=[] if res.converged else
        ["Nelder-Mead hit the evaluation budget before converging"])
