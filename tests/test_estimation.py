import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_solver
from etafit import likelihood
from etafit.datagen import generate_synthetic
from etafit.design import BasisSpec, build_design
from etafit.errors import BracketError, ConvergenceError, InputError
from etafit.estimation import (EstimateConfig, Prior, PriorSpec,
                               chandrupatla_root, classify_outcome,
                               direct_optimize,
                               direct_variances, estimate_variances,
                               inverse_square_priors, nelder_mead,
                               uniform_priors)
from etafit.kernels import (CorrelationKernel, CorrelationMatrix,
                            correlation_matrix)
from etafit.model import GpModel, default_solver

# a tapered grid that the default estimator fits on the sparse path
SPARSE_SIDE, SPARSE_ALPHA, SPARSE_TAPER = 20, 0.05, 0.05


def grid_model(n_side=10, sigma0=0.2, seed=3, q=2, alpha=0.1,
               basis="polynomial", taper=0.0):
    ds = generate_synthetic(n_side * n_side, sigma0, seed=seed)
    X = build_design(ds.points, BasisSpec(basis, q))
    K = correlation_matrix(ds.points, CorrelationKernel(
        "exponential", alpha, taper_threshold=taper))
    return GpModel(ds.z, X, K, ds.points)


def bisection(f, lo, hi, x_tol):
    f_lo = f(lo)
    iterations = 0
    while hi - lo > x_tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        iterations += 1
        if f_mid == 0.0:
            return mid, iterations
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi), iterations


class TestChandrupatla:
    def test_simple_quadratic(self):
        root, iters = chandrupatla_root(lambda x: x * x - 4.0, 0.0, 5.0,
                                        x_tol=1e-10)
        assert root == pytest.approx(2.0, abs=1e-9)
        assert iters >= 1

    def test_beats_bisection_on_cubic(self):
        f = lambda x: x ** 3 - 2.0 * x - 5.0  # noqa: E731
        root, iters = chandrupatla_root(f, 1.0, 3.0, x_tol=1e-10)
        _, bisect_iters = bisection(f, 1.0, 3.0, 1e-10)
        assert abs(f(root)) < 1e-8
        assert iters < bisect_iters

    def test_missing_sign_change_rejected(self):
        with pytest.raises(BracketError):
            chandrupatla_root(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_iteration_budget_respected(self):
        with pytest.raises(ConvergenceError):
            chandrupatla_root(lambda x: x ** 3 - 2.0 * x - 5.0, 1.0, 3.0,
                              x_tol=1e-300, f_tol=0.0, max_iter=2)

    def test_f_tol_stopping(self):
        root, _ = chandrupatla_root(lambda x: x ** 3, -1.0, 2.0, x_tol=1e-15,
                                    f_tol=1e-6)
        assert abs(root ** 3) <= 1e-6

    def test_endpoint_root_detected(self):
        root, iters = chandrupatla_root(lambda x: x - 1.0, 1.0, 2.0)
        assert root == 1.0 and iters == 0

    def test_precomputed_endpoint_values_reused(self):
        calls = []

        def f(x):
            calls.append(x)
            return x - 0.6

        root, _ = chandrupatla_root(f, 0.0, 1.0, x_tol=1e-12,
                                    f_lo=-0.6, f_hi=0.4)
        assert root == pytest.approx(0.6, abs=1e-11)
        assert 0.0 not in calls and 1.0 not in calls

    @settings(max_examples=80, deadline=None)
    @given(r=st.floats(-5.0, 5.0), c=st.floats(0.0, 10.0),
           a=st.floats(0.1, 8.0), b=st.floats(0.1, 8.0))
    def test_finds_roots_of_flat_cubics(self, r, c, a, b):
        # cubics with c ~ 0 are nearly flat around the root, the regime the
        # hybrid interpolation/bisection mix is built for
        def f(x):
            return (x - r) ** 3 + c * (x - r)

        root, iters = chandrupatla_root(f, r - a, r + b, x_tol=1e-12,
                                        max_iter=200)
        assert root == pytest.approx(r, abs=1e-9 * max(1.0, abs(r)))
        assert iters <= 120


class TestNelderMead:
    def test_quadratic_bowl(self):
        c = np.array([1.5, -2.0, 0.5])
        res = nelder_mead(lambda x: float(np.sum((x - c) ** 2)),
                          np.zeros(3), tol=1e-10)
        assert res.converged
        np.testing.assert_allclose(res.x, c, atol=1e-4)

    def test_rosenbrock(self):
        def rosen(x):
            return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)

        res = nelder_mead(rosen, np.array([-1.2, 1.0]), tol=1e-10,
                          max_evals=2000)
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-4)

    def test_eval_budget_returns_best_with_flag(self):
        res = nelder_mead(lambda x: float(np.sum(x * x)),
                          np.array([5.0, 5.0]), tol=1e-14, max_evals=10)
        assert not res.converged
        assert res.n_evals <= 10

    def test_one_dimensional(self):
        res = nelder_mead(lambda x: float((x[0] - 3.0) ** 2),
                          np.array([0.0]), tol=1e-10)
        assert res.x[0] == pytest.approx(3.0, abs=1e-4)

    def test_infinite_start_rejected(self):
        with pytest.raises(InputError):
            nelder_mead(lambda x: math.inf, np.array([0.0, 0.0]))

    def test_infinite_region_acts_as_barrier(self):
        def f(x):
            if x[0] > 1.0:
                return math.inf
            return float((x[0] - 2.0) ** 2 + x[1] ** 2)

        res = nelder_mead(f, np.array([0.0, 0.5]), tol=1e-9,
                          max_evals=2000)
        assert res.x[0] <= 1.0
        assert res.x[0] == pytest.approx(1.0, abs=1e-3)


class TestPriors:
    def test_uniform_box(self):
        p = Prior("uniform", 0.0, 25.0)
        assert p.log_pdf(10.0) == 0.0
        assert p.log_pdf(25.0) == 0.0
        assert p.log_pdf(26.0) == -math.inf
        assert p.log_pdf(-1.0) == -math.inf

    def test_inverse_square_shape(self):
        p = Prior("inverse_square", scale=25.0)
        assert p.log_pdf(0.0) == 0.0
        assert p.log_pdf(25.0) == pytest.approx(-2.0 * math.log(2.0))
        assert p.log_pdf(-0.1) == -math.inf
        # halves the density ratio expected from the closed form
        assert math.exp(p.log_pdf(50.0)) == pytest.approx(1.0 / 9.0)

    def test_reference_prior_spec(self):
        spec = inverse_square_priors()
        assert spec.alpha.scale == 1.0
        assert spec.nu.scale == 25.0
        assert spec.log_pdf(1.0, 25.0) == pytest.approx(
            -2.0 * math.log(2.0) * 2.0)
        cap = uniform_priors()
        assert cap.nu.log_pdf(25.0) == 0.0
        assert cap.nu.log_pdf(25.1) == -math.inf

    def test_invalid_priors_rejected(self):
        with pytest.raises(InputError):
            Prior("gaussian")
        with pytest.raises(InputError):
            Prior("uniform", 2.0, 1.0)
        with pytest.raises(InputError):
            Prior("inverse_square", scale=0.0)


class TestEstimateVariances:
    def test_interior_outcome_on_reference_style_data(self):
        model = grid_model(n_side=12, seed=3)
        report = estimate_variances(model)
        assert report.outcome == "interior"
        hp = report.hyperparams
        assert hp.sigma2 > 0 and hp.sigma02 > 0
        assert hp.sigma02 == pytest.approx(hp.eta * hp.sigma2, rel=1e-12)
        assert 0.1 < hp.sigma0 < 0.3

    def test_accepted_root_satisfies_both_stationarity_conditions(self):
        # with exact traces the accepted root is a root of the exact
        # derivative and a local maximum
        model = grid_model(n_side=12, seed=3)
        config = EstimateConfig(exact_traces=True)
        report = estimate_variances(model, config=config)
        assert report.outcome == "interior"
        eta_hat = report.hyperparams.eta
        solver = dense_solver(model)
        f_tol = config.f_tol_scale * (model.n - model.m)
        assert abs(likelihood.d_ell_deta(model, eta_hat, solver)) <= f_tol
        assert likelihood.d2_ell_deta2(model, eta_hat, solver) < 0.0

    def test_interpolated_root_zeroes_the_interpolated_derivative(self):
        # on sparse K the default run roots the derivative built on
        # interpolated traces; refitting the same interpolant reproduces
        # that zero
        from etafit.traces import (InterpolantTraceProvider,
                                   fit_tau_interpolant)
        model = grid_model(n_side=SPARSE_SIDE, seed=3, alpha=SPARSE_ALPHA,
                           taper=SPARSE_TAPER)
        assert model.K.storage == "sparse"
        config = EstimateConfig()
        report = estimate_variances(model, config=config)
        assert report.outcome == "interior"
        assert report.diagnostics["trace"]["interpolated"]
        solver = default_solver(model.K)
        interp = fit_tau_interpolant(model.K, config.trace_nodes,
                                     config.trace_method, solver,
                                     config.hutchinson_vectors, config.seed)
        traces = InterpolantTraceProvider(interp)
        f_tol = config.f_tol_scale * (model.n - model.m)
        d_at_root = likelihood.d_ell_deta(model, report.hyperparams.eta,
                                          solver, traces)
        assert abs(d_at_root) <= f_tol

    def test_dense_default_is_the_exact_root(self):
        # the dense backend's traces are exact, so the default run and the
        # exact-trace validation run find the same root
        model = grid_model(n_side=12, seed=3)
        default = estimate_variances(model)
        exact = estimate_variances(model,
                                   config=EstimateConfig(exact_traces=True))
        assert default.outcome == exact.outcome == "interior"
        assert abs(math.log10(default.hyperparams.eta)
                   - math.log10(exact.hyperparams.eta)) <= 1e-8
        assert not default.diagnostics["trace"]["interpolated"]

    def test_dense_run_makes_one_eigendecomposition_and_no_n_by_n_cholesky(
            self, monkeypatch):
        import scipy.linalg
        model = grid_model(n_side=12, seed=3)
        n = model.n
        calls = []

        def counting(name, real):
            def wrapper(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return real(a, *args, **kwargs)
            return wrapper

        for module, names in ((scipy.linalg, ("eigh", "eigvalsh", "cholesky",
                                              "cho_factor")),
                              (np.linalg, ("eigh", "eigvalsh", "cholesky"))):
            for name in names:
                monkeypatch.setattr(module, name, counting(
                    f"{module.__name__}.{name}", getattr(module, name)))
        report = estimate_variances(model)
        assert report.outcome == "interior"
        big = [c for c in calls if c[1] == (n, n)]
        assert big == [("scipy.linalg.eigh", (n, n))]
        # every Cholesky left is of an m x m matrix
        assert all(shape == (model.m, model.m) for name, shape in calls
                   if "cho" in name)

    def test_thresholds_do_not_change_ell_max(self):
        # a root outside [c, C] is reported as the boundary estimate, but
        # ell_max stays the root's likelihood, so it is continuous in K
        model = grid_model(n_side=12, seed=3)
        default = estimate_variances(model)
        assert default.outcome == "interior"
        for config, outcome in ((EstimateConfig(c_threshold=1e3),
                                 "error_dominated"),
                                (EstimateConfig(C_threshold=1.0),
                                 "noise_dominated")):
            report = estimate_variances(model, config=config)
            assert report.outcome == outcome
            assert report.ell_max == default.ell_max

    def test_indefinite_kernel_is_shifted_and_reported(self):
        rng = np.random.default_rng(21)
        model = grid_model(n_side=8, seed=21)
        n = model.n
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.linspace(-0.01, 3.0, n)
        K = CorrelationMatrix((Q * lam) @ Q.T, "dense", n)
        report = estimate_variances(GpModel(model.z, model.X, K,
                                            model.points))
        jitter = report.diagnostics["jitter"]
        assert jitter == pytest.approx(0.01 + 1e-10 * n, rel=1e-6)
        assert report.diagnostics["spectrum"]["lambda_min"] == pytest.approx(
            1e-10 * n, abs=1e-12)
        assert any("lambda_min = -1.000e-02" in w for w in report.warnings)

    def test_deterministic_given_model_and_config(self):
        model = grid_model(n_side=9, seed=5)
        a = estimate_variances(model)
        b = estimate_variances(model)
        ja = json.loads(a.to_json())
        jb = json.loads(b.to_json())
        ja["diagnostics"].pop("timing")
        jb["diagnostics"].pop("timing")
        assert ja == jb

    def test_evaluation_counts_are_audited(self, monkeypatch):
        model = grid_model(n_side=9, seed=6)
        calls = {"ell": 0, "deriv": 0}
        real_profile = likelihood.profile_ell
        real_d_ell = likelihood.d_ell_deta
        real_d2 = likelihood.d2_ell_deta2
        real_inf = likelihood.ell_infinite_eta

        def counting_profile(*args, **kwargs):
            calls["ell"] += 1
            return real_profile(*args, **kwargs)

        def counting_d_ell(*args, **kwargs):
            calls["deriv"] += 1
            return real_d_ell(*args, **kwargs)

        def counting_d2(*args, **kwargs):
            calls["deriv"] += 1
            return real_d2(*args, **kwargs)

        def counting_inf(*args, **kwargs):
            calls["ell"] += 1
            return real_inf(*args, **kwargs)

        monkeypatch.setattr(likelihood, "profile_ell", counting_profile)
        monkeypatch.setattr(likelihood, "d_ell_deta", counting_d_ell)
        monkeypatch.setattr(likelihood, "d2_ell_deta2", counting_d2)
        monkeypatch.setattr(likelihood, "ell_infinite_eta", counting_inf)
        report = estimate_variances(model)
        assert report.n_ell_evals == calls["ell"]
        assert report.n_deriv_evals == calls["deriv"]

    def test_degenerate_data_short_circuits(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(size=(12, 2))
        X = build_design(pts, BasisSpec("polynomial", 1))
        K = correlation_matrix(pts, CorrelationKernel("exponential", 0.2))
        model = GpModel(X.entries @ np.array([1.0, 2.0, 3.0]), X, K, pts)
        report = estimate_variances(model)
        assert report.outcome == "degenerate"
        assert report.hyperparams.sigma2 == 0.0
        assert report.hyperparams.sigma02 == 0.0

    def test_threshold_classification_noise_dominated(self):
        model = grid_model(n_side=12, seed=3)
        config = EstimateConfig(C_threshold=1.0)  # force eta_hat > C
        report = estimate_variances(model, config=config)
        assert report.outcome == "noise_dominated"
        assert report.hyperparams.sigma2 == 0.0
        assert math.isinf(report.hyperparams.eta)
        _, sigma02 = likelihood.ell_infinite_eta(model)
        assert report.hyperparams.sigma02 == pytest.approx(sigma02)

    def test_threshold_classification_error_dominated(self):
        model = grid_model(n_side=12, seed=3)
        config = EstimateConfig(c_threshold=1e3)  # force eta_hat < c
        report = estimate_variances(model, config=config)
        assert report.outcome == "error_dominated"
        assert report.hyperparams.sigma02 == 0.0
        assert report.hyperparams.eta == 0.0
        solver = dense_solver(model)
        assert report.hyperparams.sigma2 == pytest.approx(
            likelihood.sigma2_hat(model, 0.0, solver), rel=1e-9)

    def test_exact_traces_flag_matches_interpolated_run(self):
        model = grid_model(n_side=10, seed=8)
        fast = estimate_variances(model, config=EstimateConfig())
        slow = estimate_variances(model,
                                  config=EstimateConfig(exact_traces=True))
        assert fast.hyperparams.eta == pytest.approx(slow.hyperparams.eta,
                                                     rel=1e-3)
        assert not slow.diagnostics["trace"]["interpolated"]

    def test_diagnostics_payload_is_json_serializable(self):
        model = grid_model(n_side=9, seed=9)
        report = estimate_variances(model)
        payload = json.loads(report.to_json())
        for key in ("spectrum", "search_interval", "asymptote", "scan",
                    "brackets", "boundary", "trace", "counts", "timing"):
            assert key in payload["diagnostics"]


class TestOutcomeClassification:
    def test_thresholds_bound_the_interior(self):
        config = EstimateConfig(c_threshold=0.1, C_threshold=10.0)
        assert classify_outcome(0.0, config) == "error_dominated"
        assert classify_outcome(0.05, config) == "error_dominated"
        assert classify_outcome(0.1, config) == "interior"
        assert classify_outcome(10.0, config) == "interior"
        assert classify_outcome(20.0, config) == "noise_dominated"
        assert classify_outcome(math.inf, config) == "noise_dominated"

    def test_direct_baselines_read_the_configured_thresholds(self):
        model = grid_model(n_side=9, seed=11)
        report = direct_variances(model, max_evals=200)
        eta = report.hyperparams.eta
        assert report.outcome == "interior"
        low_C = EstimateConfig(C_threshold=eta / 2.0)
        assert direct_variances(model, max_evals=200,
                                config=low_C).outcome == "noise_dominated"

        ds = generate_synthetic(64, 0.2, seed=15)
        build = TestKernelOptimization.builder_for(ds)
        args = (build, (0.15, 1.0, 0.1, 0.15), uniform_priors())
        kwargs = {"tol": 1e-3, "max_evals": 200}
        default = direct_optimize(*args, **kwargs)
        assert default.outcome == "interior"
        low_C = EstimateConfig(C_threshold=default.hyperparams.eta / 2.0)
        changed = direct_optimize(*args, config=low_C, **kwargs)
        assert changed.hyperparams == default.hyperparams
        assert changed.outcome == "noise_dominated"


class TestDirectVariances:
    def test_agrees_with_profiled_method(self):
        model = grid_model(n_side=10, seed=10)
        profiled = estimate_variances(model)
        profiled_exact = estimate_variances(
            model, config=EstimateConfig(exact_traces=True))
        direct = direct_variances(model, init=(0.1, 0.1), tol=1e-9,
                                  max_evals=4000)
        # exact-trace profiled run and the direct optimizer share the
        # optimum of the same likelihood
        assert direct.hyperparams.sigma == pytest.approx(
            profiled_exact.hyperparams.sigma, abs=1e-5)
        assert direct.hyperparams.sigma0 == pytest.approx(
            profiled_exact.hyperparams.sigma0, abs=1e-5)
        # the interpolated-trace default carries a small root bias
        assert direct.hyperparams.sigma == pytest.approx(
            profiled.hyperparams.sigma, abs=1e-2)
        assert direct.n_ell_evals > 5 * profiled.n_ell_evals

    def test_reports_method_tag(self):
        model = grid_model(n_side=9, seed=11)
        report = direct_variances(model, max_evals=50)
        assert report.method == "direct_nelder_mead"
        assert report.n_ell_evals <= 50


class TestKernelOptimization:
    @staticmethod
    def builder_for(dataset, basis_order=1):
        X = build_design(dataset.points, BasisSpec("polynomial", basis_order))
        points = dataset.points

        def build(alpha, nu):
            K = correlation_matrix(points,
                                   CorrelationKernel("matern", alpha, nu))
            return GpModel(dataset.z, X, K, points)

        return build

    def test_profile_optimize_small_instance(self):
        from etafit.estimation import profile_optimize
        ds = generate_synthetic(100, 0.2, seed=12)
        build = self.builder_for(ds)
        report = profile_optimize(build, (0.1, 1.0), uniform_priors(),
                                  tol=1e-2, max_evals=60)
        assert report.alpha_hat is not None and report.nu_hat is not None
        assert 1e-2 <= report.nu_hat <= 25.0
        assert report.hyperparams.sigma0 > 0.0
        # the budget may be overshot by the evaluations of one in-flight
        # simplex iteration
        assert report.diagnostics["n_posterior_evals"] <= 60 + 4

    def test_error_dominated_estimate_on_singular_kernel_rejected(self):
        # on this instance the profiled posterior keeps rising towards
        # smooth kernels that are singular at working precision, where
        # the root falls below c and sigma0 = 0 would leave sigma2 K
        # singular; those kernels are rejected simplex moves
        from etafit.estimation import profile_optimize
        ds = generate_synthetic(100, 0.2, seed=12)
        build = self.builder_for(ds)
        report = profile_optimize(build, (0.1, 1.0), uniform_priors(),
                                  tol=1e-2, max_evals=60)
        assert report.diagnostics["n_singular_rejections"] > 0
        final = estimate_variances(build(report.alpha_hat, report.nu_hat))
        assert not (final.outcome == "error_dominated"
                    and final.diagnostics["jitter"] > 0.0)

    def test_flat_priors_equal_no_priors(self):
        from etafit.estimation import profile_optimize
        ds = generate_synthetic(64, 0.2, seed=13)
        build = self.builder_for(ds)
        a = profile_optimize(build, (0.1, 1.0), None, tol=1e-2, max_evals=40)
        b = profile_optimize(build, (0.1, 1.0), PriorSpec(), tol=1e-2,
                             max_evals=40)
        assert a.alpha_hat == b.alpha_hat
        assert a.nu_hat == b.nu_hat
        assert a.ell_max == b.ell_max

    def test_initial_point_outside_support_rejected(self):
        from etafit.estimation import profile_optimize
        ds = generate_synthetic(64, 0.2, seed=14)
        build = self.builder_for(ds)
        with pytest.raises(InputError):
            profile_optimize(build, (0.1, 30.0), uniform_priors())

    def test_direct_optimize_quadratic_sanity(self):
        ds = generate_synthetic(64, 0.2, seed=15)
        build = self.builder_for(ds)
        report = direct_optimize(build, (0.15, 1.0, 0.1, 0.15),
                                 uniform_priors(), tol=1e-3, max_evals=400)
        assert report.method == "direct_nelder_mead"
        assert report.alpha_hat is not None
        assert report.n_ell_evals <= 400
        assert "log_posterior" in report.diagnostics
