"""Self-tests of the benchmark's tracer, oracle and checks.

Run from the repository root with ``python3 -m pytest -q bench/tests``.
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import etafit as ef  # noqa: E402
from etafit import estimation, likelihood, model, traces  # noqa: E402
import workloads  # noqa: E402
from oracle import EigenbasisOracle, matern_correlation  # noqa: E402
from tracer import FUNCTIONS, METHODS, Tracer, _etafit_modules  # noqa: E402

POLY2 = ef.BasisSpec("polynomial", 2)


def small_inputs(n, seed=3):
    ds = ef.generate_synthetic(n, 0.2, seed=seed)
    return ds.points, ds.z, ef.build_design(ds.points, POLY2)


def variance_fit(n, kernel, config=None):
    points, z, X = small_inputs(n)
    K = ef.correlation_matrix(points, kernel)
    return ef.estimate_variances(ef.GpModel(z, X, K, points), config=config)


def snapshot():
    modules = {m.__name__: dict(vars(m)) for m in _etafit_modules()}
    classes = {}
    for home, cls_name, _ in METHODS.values():
        cls = getattr(sys.modules[home], cls_name)
        classes[cls] = dict(cls.__dict__)
    return modules, classes


@pytest.mark.parametrize("kernel", [
    ef.CorrelationKernel("exponential", 0.1),
    ef.CorrelationKernel("exponential", 0.02, taper_threshold=0.05),
], ids=["dense", "sparse"])
def test_traced_counts_equal_estimator_counters(kernel):
    n = 1024 if kernel.taper_threshold else 400
    with Tracer() as tracer:
        with tracer.fit(0):
            report = variance_fit(n, kernel)
    layers = tracer.layer_metrics(0)
    assert report.n_deriv_evals == (layers["likelihood.deriv_calls"]
                                    + layers["likelihood.d2_calls"])
    # +1: the closed-form eta -> inf likelihood is counted without a call
    assert report.n_ell_evals == layers["likelihood.profile_calls"] + 1
    assert layers["estimation.deriv_evals"] == report.n_deriv_evals
    assert layers["estimation.ell_evals"] == report.n_ell_evals
    assert layers["kernels.assemble_calls"] == 1
    assert layers["analysis.spectrum_calls"] == 1
    assert layers["model.distinct_etas"] >= 1
    if kernel.taper_threshold:
        assert layers["traces.hutchinson_calls"] > 0
        assert layers["kernels.nnz_per_row"] < n
    else:
        assert layers["kernels.nnz_per_row"] == n


def test_traced_counts_over_a_profile_optimization():
    points, z, X = small_inputs(100)

    def build(alpha, nu):
        K = ef.correlation_matrix(points, ef.CorrelationKernel("matern",
                                                                alpha, nu))
        return ef.GpModel(z, X, K, points)

    with Tracer() as tracer:
        with tracer.fit(7):
            report = ef.profile_optimize(
                build, (0.1, 1.0), ef.inverse_square_priors(), tol=1e-2,
                max_evals=10, config=ef.EstimateConfig(exact_traces=True))
    layers = tracer.layer_metrics(7)
    counts = tracer.counts[7]
    assert layers["estimation.inner_failures"] == 0
    assert layers["estimation.inner_runs"] == report.diagnostics[
        "n_inner_runs"]
    assert counts["estimation.reports"] == layers["estimation.inner_runs"] + 1
    assert layers["estimation.deriv_evals"] == (
        layers["likelihood.deriv_calls"] + layers["likelihood.d2_calls"])
    assert layers["estimation.ell_evals"] == (
        layers["likelihood.profile_calls"] + counts["estimation.reports"])
    # one kernel assembly per inner run, plus the final estimate
    assert layers["kernels.assemble_calls"] == counts["estimation.reports"]


def test_tracer_patches_every_binding_and_restores_them():
    before_modules, before_classes = snapshot()
    originals = {name: getattr(sys.modules[home], attr)
                 for name, (home, attr) in FUNCTIONS.items()}
    tracer = Tracer().install()
    try:
        # names copied by `from ... import` are patched in the importer too
        assert estimation.fit_tau_interpolant is not originals[
            "traces.fit_tau_interpolant"]
        assert estimation.fit_tau_interpolant is traces.fit_tau_interpolant
        assert ef.correlation_matrix is not originals[
            "kernels.correlation_matrix"]
        assert ef.estimate_variances is estimation.estimate_variances
        # classes are shared by every binding, so tracing patches the class
        assert likelihood.ExactTraceProvider is traces.ExactTraceProvider
        assert (traces.ExactTraceProvider.__init__
                is not before_classes[traces.ExactTraceProvider]["__init__"])
        assert model.Solver.solve is not before_classes[model.Solver]["solve"]
        assert tracer.patched
    finally:
        tracer.uninstall()
    assert not tracer.patched
    after_modules, after_classes = snapshot()
    for name, bindings in before_modules.items():
        for attr, value in bindings.items():
            assert after_modules[name][attr] is value, f"{name}.{attr}"
    for cls, attrs in before_classes.items():
        for attr, value in attrs.items():
            assert after_classes[cls][attr] is value, f"{cls.__name__}.{attr}"


def test_self_times_never_exceed_wall_time():
    with Tracer() as tracer:
        for fit_id in range(2):
            with tracer.fit(fit_id):
                variance_fit(400, ef.CorrelationKernel("exponential", 0.1))
    for fit_id in range(2):
        own = tracer.self_times(fit_id)
        wall = tracer.fit_wall(fit_id)
        assert wall > 0
        assert all(t >= -1e-9 for t in own.values())
        assert sum(own.values()) <= wall * (1 + 1e-9)
        assert sum(own.values()) == pytest.approx(wall, rel=1e-6)


def test_oracle_matches_exact_trace_estimator():
    points, z, X = small_inputs(400)
    K = ef.correlation_matrix(points, ef.CorrelationKernel("exponential", 0.1))
    report = ef.estimate_variances(ef.GpModel(z, X, K, points),
                                   config=ef.EstimateConfig(exact_traces=True))
    oracle = EigenbasisOracle(K.entries, X.entries, z)
    root = oracle.best_interior_root()
    assert report.outcome == "interior"
    assert root is not None
    log_eta = math.log10(report.hyperparams.eta)
    # the estimator stops once |d ell/d eta| <= f_tol_scale * (n - m)
    f_tol = ef.EstimateConfig().f_tol_scale * (X.entries.shape[0] - X.m)
    assert abs(oracle.d_ell(log_eta)) <= f_tol
    assert abs(log_eta - root.log10_eta) < 1e-4
    assert report.hyperparams.sigma0 == pytest.approx(math.sqrt(root.sigma02),
                                                      rel=1e-4)


@pytest.mark.parametrize("nu", [0.7, 2.5, 6.3])
def test_oracle_matern_matches_etafit(nu):
    points, _, _ = small_inputs(100)
    K = ef.correlation_matrix(points, ef.CorrelationKernel("matern", 0.1, nu))
    assert np.abs(K.entries - matern_correlation(points, 0.1, nu)).max() \
        < 1e-12


def test_kernel_opt_check_passes_the_estimate_and_fails_a_wrong_one():
    wl = workloads.WORKLOADS["kernel_opt"]
    inputs = wl.make_inputs(3)
    alpha, nu = 0.1, 2.0
    report = dataclasses.replace(
        ef.estimate_variances(wl._builder(inputs)(alpha, nu),
                              config=ef.EstimateConfig(exact_traces=True)),
        alpha_hat=alpha, nu_hat=nu, diagnostics={"converged": True})
    assert report.outcome == "interior"
    assert wl.check(report, inputs, None, 3) == []
    # the same estimate reported at another nu, or with another eta
    assert wl.check(dataclasses.replace(report, nu_hat=1.05 * nu), inputs,
                    None, 3)
    hp = report.hyperparams
    moved = dataclasses.replace(report, hyperparams=ef.HyperParams(
        hp.sigma2, hp.sigma02 * 1.0201, hp.eta * 1.0201))
    assert wl.check(moved, inputs, None, 3)
