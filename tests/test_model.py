import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sparse

import etafit.model
from conftest import (dense_m1, dense_p, dense_solver, gls_beta, m_action,
                      oracle_traces, random_model)
from etafit.datagen import generate_synthetic
from etafit.design import BasisSpec, DesignMatrix, build_design
from etafit.errors import InputError, ModelError, SolverError
from etafit.estimation import estimate_variances
from etafit.kernels import CorrelationKernel, CorrelationMatrix, \
    correlation_matrix
from etafit.likelihood import profile_ell
from etafit.model import (GpModel, HyperParams, Solver, block_lanczos,
                          spectral_jitter)
from etafit.traces import ExactTraceProvider


def identity_corr(n):
    return CorrelationMatrix(np.eye(n))


def identity_model(n=12, q=1, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 2))
    X = build_design(pts, BasisSpec("polynomial", q))
    z = X.entries @ rng.standard_normal(X.m) + rng.standard_normal(n)
    return GpModel(z, X, identity_corr(n), pts)


class TestSolver:
    def test_identity_matrix_solution(self):
        model = identity_model()
        solver = dense_solver(model)
        b = np.arange(1.0, 13.0)
        for eta in (0.0, 0.5, 3.0):
            np.testing.assert_allclose(
                solver.solve(eta, b), b / (1.0 + eta),
                rtol=1e-12)

    def test_matches_explicit_inverse(self):
        model = random_model(n=6, seed=2)
        solver = dense_solver(model)
        rng = np.random.default_rng(0)
        B = rng.standard_normal((6, 3))
        for eta in (0.0, 0.7, 12.0):
            expected = np.linalg.inv(
                model.K.toarray() + eta * np.eye(6)) @ B
            np.testing.assert_allclose(
                solver.solve(eta, B), expected, atol=1e-9)

    def test_large_eta_limit(self):
        model = random_model(n=20, seed=3)
        solver = dense_solver(model)
        b = np.linspace(-1.0, 1.0, 20)
        x = solver.solve(1e8, b)
        np.testing.assert_allclose(x, b / 1e8, rtol=1e-6)

    def test_sparse_solve_agrees_with_dense(self):
        kernel = CorrelationKernel("exponential", 0.1, taper_threshold=0.01)
        rng = np.random.default_rng(5)
        pts = rng.uniform(size=(60, 2))
        K = correlation_matrix(pts, kernel)
        assert K.storage == "sparse"
        sparse = Solver(K)
        dense = Solver(CorrelationMatrix(K.toarray()))
        b = rng.standard_normal(60)
        np.testing.assert_allclose(sparse.solve(0.5, b), dense.solve(0.5, b),
                                   atol=1e-8)

    def test_solution_residual_within_tolerance(self):
        model = random_model(n=30, seed=8)
        solver = dense_solver(model)
        b = np.sin(np.arange(30.0))
        for eta in (0.01, 1.0, 100.0):
            x = solver.solve(eta, b)
            A = model.K.toarray() + eta * np.eye(30)
            assert np.linalg.norm(A @ x - b) <= 1e-8 * np.linalg.norm(b)

    def test_invalid_eta_rejected(self):
        model = random_model(n=6)
        solver = dense_solver(model)
        with pytest.raises(InputError):
            solver.solve(-1.0, model.z)
        with pytest.raises(InputError):
            solver.solve(math.inf, model.z)

    def test_backend_follows_storage(self):
        dense = correlation_matrix(np.random.default_rng(0).uniform(size=(8, 2)),
                                   CorrelationKernel("exponential", 0.1))
        solver = Solver(dense)
        assert solver.K.storage == "dense" and solver.eigvals is not None
        entries = sparse.identity(10, format="csr")
        solver = Solver(CorrelationMatrix(entries))
        assert solver.K.storage == "sparse" and solver.eigvals is None
        with pytest.raises(TypeError):
            Solver(dense, "cg")

    def test_jitter_retry_on_indefinite_matrix(self):
        # an explicitly indefinite "correlation" matrix triggers the jitter
        n = 4
        A = np.eye(n)
        A[0, 1] = A[1, 0] = 1.0 + 1e-13  # barely indefinite
        K = CorrelationMatrix(A)
        solver = Solver(K)
        x = solver.solve(0.0, np.ones(n))
        assert solver.jitter > 0
        assert np.all(np.isfinite(x))


    def test_one_shift_for_solves_logdet_and_traces(self):
        # K with lambda_min = -0.01: solves, log-determinant and traces
        # must all describe the same matrix K + (eta + jitter) I
        n, eta = 30, 0.5
        rng = np.random.default_rng(17)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = np.linspace(-0.01, 2.0, n)
        K = CorrelationMatrix((Q * lam) @ Q.T)
        solver = Solver(K)
        assert solver.jitter == pytest.approx(0.01 + 1e-10 * n, rel=1e-8)
        A = K.entries + (eta + solver.jitter) * np.eye(n)
        A_inv = np.linalg.inv(A)
        b = rng.standard_normal(n)
        np.testing.assert_allclose(solver.solve(eta, b),
                                   np.linalg.solve(A, b), rtol=1e-9)
        assert solver.logdet(eta) == pytest.approx(
            np.linalg.slogdet(A)[1], rel=1e-10)
        for traces in (oracle_traces(K),
                       ExactTraceProvider(solver.eigvals)):
            assert traces(eta, 1) == pytest.approx(np.trace(A_inv),
                                                   rel=1e-10)
            assert traces(eta, 2) == pytest.approx(
                np.sum(A_inv * A_inv), rel=1e-10)


def _oracle_cases():
    """(K, R = [U | z]) pairs: the barely indefinite matrix of
    ``test_jitter_retry_on_indefinite_matrix``, the orthonormal basis of
    a poly:3 design (m = 10) and the edge sizes n = 1 and n = 2."""
    rng = np.random.default_rng(23)
    A = np.eye(4)
    A[0, 1] = A[1, 0] = 1.0 + 1e-13
    cases = {"indefinite": (CorrelationMatrix(A),
                            rng.standard_normal((4, 3)))}
    pts = rng.uniform(size=(150, 2))
    X = build_design(pts, BasisSpec("polynomial", 3))
    assert X.m == 10
    cases["poly3"] = (correlation_matrix(pts, CorrelationKernel(
        "exponential", 0.2)), np.column_stack([np.linalg.qr(X.entries)[0],
                                               rng.standard_normal(150)]))
    for n in (1, 2):
        pts = rng.uniform(size=(n, 2))
        cases[f"n{n}"] = (correlation_matrix(pts, CorrelationKernel(
            "exponential", 0.3)), rng.standard_normal((n, 2)))
    return cases


ORACLE_CASES = _oracle_cases()


class TestTridiagonalBackend:
    """The dense solver against the eigenbasis of the same K from
    ``scipy.linalg.eigh``, shifted by the same jitter policy."""

    @pytest.mark.parametrize("eta", [0.0, 1e-2, 1.0, 30.0, 1e3])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_eigenbasis(self, case, eta):
        K, R = ORACLE_CASES[case]
        n = K.n
        solver = Solver(K)
        lam, U = sla.eigh(K.toarray())
        jitter = spectral_jitter(float(lam[0]), n)
        assert solver.jitter == pytest.approx(jitter, rel=1e-6)
        lam = lam + jitter
        d = 1.0 / (lam + eta)
        C = U.T @ R
        # two backward-stable routes agree to about eps times the condition
        # number of K_eta; 1e-12 for every case but the jittered K at
        # eta = 0, whose smallest eigenvalue sits at the rounding floor
        rtol = max(1e-12, 8 * np.finfo(float).eps * d.max() / d.min())
        model = SimpleNamespace(basis=R[:, :-1], z=R[:, -1])
        for p, G in enumerate(solver.grams(model, eta, 3), start=1):
            expected = C.T @ (d[:, None] ** p * C)
            assert np.abs(G - expected).max() <= rtol * np.abs(expected).max()
        assert solver.logdet(eta) == pytest.approx(np.sum(np.log(lam + eta)),
                                                   rel=1e-10, abs=1e-10)
        traces = ExactTraceProvider(solver.eigvals)
        for p in (1, 2):
            assert traces(eta, p) == pytest.approx(np.sum(d ** p), rel=1e-12)
        expected = U @ (d[:, None] * C)
        X2 = solver.solve(eta, R)
        X1 = solver.solve(eta, R[:, 0])
        assert X1.shape == (n,) and X2.shape == R.shape
        scale = np.abs(expected).max()
        assert np.abs(X2 - expected).max() <= rtol * scale
        assert np.abs(X1 - expected[:, 0]).max() <= rtol * scale

    @pytest.mark.parametrize("routine", ["dsytrd", "dsterf"])
    def test_lapack_failure_raises_solver_error(self, routine, monkeypatch):
        import etafit.model
        real = getattr(etafit.model.lapack, routine)

        def failing(*args, **kwargs):
            *out, _ = real(*args, **kwargs)
            return (*out, 1)
        monkeypatch.setattr(etafit.model.lapack, routine, failing)
        with pytest.raises(SolverError, match="tridiagonal reduction"):
            Solver(ORACLE_CASES["poly3"][0])


class TestM1Apply:
    def test_cokernel_property(self):
        for seed in range(4):
            model = random_model(n=10, q=1, seed=seed)
            solver = dense_solver(model)
            for eta in (0.0, 0.3, 5.0):
                w = m_action(model, eta, solver)
                resid = model.X.entries.T @ w
                assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(w)

    def test_data_in_design_range_gives_zero(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(size=(9, 2))
        X = build_design(pts, BasisSpec("polynomial", 1))
        K = correlation_matrix(pts, CorrelationKernel("exponential", 0.2))
        z = X.entries @ np.array([1.0, -2.0, 0.5])
        model = GpModel(z, X, K, pts)
        assert model.degenerate
        w = m_action(model, 0.7, dense_solver(model))
        assert np.linalg.norm(w) <= 1e-10 * np.linalg.norm(z)

    def test_matches_dense_construction(self):
        model = random_model(n=5, q=0, seed=6)
        solver = dense_solver(model)
        for eta in (0.0, 0.4, 2.0):
            expected = dense_m1(model, eta) @ model.z
            np.testing.assert_allclose(m_action(model, eta, solver),
                                       expected, atol=1e-10)


def gls_beta_x(model, eta, solver):
    """``gls_beta`` in the coordinates of X: X beta = U beta_U."""
    beta_u = gls_beta(model, eta, solver)
    return np.linalg.lstsq(model.X.entries, model.basis @ beta_u,
                           rcond=None)[0]


class TestBetaGls:
    def test_identity_correlation_reduces_to_ols(self):
        model = identity_model(n=15, q=1, seed=7)
        beta = gls_beta_x(model, 0.0, dense_solver(model))
        ols, *_ = np.linalg.lstsq(model.X.entries, model.z, rcond=None)
        np.testing.assert_allclose(beta, ols, atol=1e-10)

    def test_exact_linear_data_recovered(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(size=(12, 2))
        X = build_design(pts, BasisSpec("polynomial", 1))
        K = correlation_matrix(pts, CorrelationKernel("exponential", 0.3))
        beta_true = np.array([0.4, 1.5, -0.7])
        model = GpModel(X.entries @ beta_true, X, K, pts)
        beta = gls_beta_x(model, 1.3, dense_solver(model))
        np.testing.assert_allclose(beta, beta_true, atol=1e-10)

    def test_matches_dense_normal_equations(self):
        model = random_model(n=8, q=1, seed=10)
        solver = dense_solver(model)
        eta = 0.9
        Kinv = np.linalg.inv(model.K.toarray() + eta * np.eye(8))
        X = model.X.entries
        expected = np.linalg.solve(X.T @ Kinv @ X, X.T @ Kinv @ model.z)
        np.testing.assert_allclose(gls_beta_x(model, eta, solver), expected,
                                   atol=1e-9)


class TestTraceM1:
    def test_identity_correlation_closed_form(self):
        model = identity_model(n=14, q=1)
        solver = dense_solver(model)
        n, m = model.n, model.m
        for eta in (0.0, 1.0, 9.0):
            t = profile_ell(model, eta, solver,
                            lambda e, power=1: n / (1.0 + e)).trace_m1
            assert t == pytest.approx((n - m) / (1.0 + eta), rel=1e-12)

    def test_matches_dense_trace(self):
        model = random_model(n=6, q=0, seed=11)
        solver = dense_solver(model)
        for eta in (0.0, 0.2, 4.0):
            Kinv = np.linalg.inv(model.K.toarray() + eta * np.eye(6))
            t = profile_ell(model, eta, solver,
                            lambda e, power=1: np.trace(Kinv)).trace_m1
            expected = float(np.trace(dense_m1(model, eta)))
            assert t == pytest.approx(expected, abs=1e-9)

    def test_m_zero_eigenvalue_count(self):
        for seed in (0, 5):
            model = random_model(n=9, q=1, seed=seed)
            M = dense_m1(model, 0.8)
            eigvals = np.sort(np.abs(np.linalg.eigvalsh(M)))
            m = model.m
            assert np.all(eigvals[:m] < 1e-10)
            assert np.all(eigvals[m:] > 1e-8)


class TestProjectionIdentities:
    def test_projection_idempotent_and_annihilates_design(self):
        model = random_model(n=7, q=1, seed=12)
        for eta in (0.0, 0.6, 3.0):
            P = dense_p(model, eta)
            assert np.max(np.abs(P @ P - P)) <= 1e-9
            assert np.max(np.abs(P @ model.X.entries)) <= 1e-9

    def test_orthogonal_decomposition_of_mean_deviation(self):
        rng = np.random.default_rng(13)
        for seed in range(3):
            model = random_model(n=8, q=1, seed=seed)
            sigma2, eta = 0.7, 0.9
            n = model.n
            Sigma = sigma2 * (model.K.toarray() + eta * np.eye(n))
            Sigma_inv = np.linalg.inv(Sigma)
            X = model.X.entries
            z = model.z
            beta_hat = np.linalg.solve(X.T @ Sigma_inv @ X,
                                       X.T @ Sigma_inv @ z)
            M = Sigma_inv - Sigma_inv @ X @ np.linalg.inv(
                X.T @ Sigma_inv @ X) @ X.T @ Sigma_inv
            for _ in range(4):
                beta = rng.standard_normal(model.m)
                r = z - X @ beta
                lhs = r @ Sigma_inv @ r
                rhs = z @ M @ z + (beta - beta_hat) @ (
                    X.T @ Sigma_inv @ X) @ (beta - beta_hat)
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_m_matrix_symmetry(self):
        model = random_model(n=8, q=1, seed=14)
        M = dense_m1(model, 1.1)
        assert np.max(np.abs(M - M.T)) <= 1e-10

    def test_m_derivative_is_minus_m_squared(self):
        # finite difference of M_{1,eta} against the analytic -M^2
        model = random_model(n=7, q=1, seed=15)
        eta = 0.8
        M = dense_m1(model, eta)
        analytic = -M @ M
        errs = []
        for h in (1e-4, 5e-5):
            fd = (dense_m1(model, eta + h) - M) / h
            errs.append(np.max(np.abs(fd - analytic)))
        assert errs[0] <= 1e-3
        # first-order convergence: error shrinks roughly with h
        assert errs[1] <= 0.75 * errs[0]


class TestGpModel:
    def test_dimension_mismatch_rejected(self):
        model = random_model(n=8)
        with pytest.raises(ModelError):
            GpModel(model.z[:-1], model.X, model.K, model.points)

    def test_degenerate_flag_only_for_range_data(self):
        model = random_model(n=10, q=1, seed=16)
        assert not model.degenerate

    def test_one_thin_svd_of_the_design(self):
        model = random_model(n=10, q=1, seed=16)
        X, U = model.X.entries, model.basis
        np.testing.assert_allclose(U.T @ U, np.eye(model.m), atol=1e-12)
        np.testing.assert_allclose(U @ (U.T @ X), X, atol=1e-12)
        assert model.logdet_xtx == pytest.approx(
            np.linalg.slogdet(X.T @ X)[1], rel=1e-12)
        ols, *_ = np.linalg.lstsq(X, model.z, rcond=None)
        np.testing.assert_allclose(model.residual, model.z - X @ ols,
                                   atol=1e-12)

    @pytest.mark.parametrize("taper", [0.0, 0.05])
    def test_rank_deficient_design_raises_model_error(self, taper):
        # the fourth column is the sum of two others; the model rejects it
        # when it is built, in either storage of K
        rng = np.random.default_rng(17)
        pts = rng.uniform(size=(60, 2))
        X = build_design(pts, BasisSpec("polynomial", 1)).entries
        K = correlation_matrix(pts, CorrelationKernel(
            "exponential", 0.1, taper_threshold=taper))
        assert K.storage == ("sparse" if taper else "dense")
        with pytest.raises(ModelError, match="rank 3 < m 4"):
            GpModel(rng.standard_normal(60),
                    DesignMatrix(np.column_stack([X, X[:, 1] + X[:, 2]])),
                    K, pts)


class TestHyperParams:
    def test_consistency_enforced(self):
        HyperParams(4.0, 8.0, 2.0)
        with pytest.raises(InputError):
            HyperParams(4.0, 9.0, 2.0)
        with pytest.raises(InputError):
            HyperParams(-1.0, 0.0, 0.0)

    def test_infinite_eta_means_zero_error_variance(self):
        hp = HyperParams.from_sigma2_eta(0.04, math.inf)
        assert hp.sigma2 == 0.0
        assert hp.sigma02 == 0.04
        assert math.isinf(hp.eta)

    def test_sigma_accessors(self):
        hp = HyperParams(0.25, 0.5, 2.0)
        assert hp.sigma == 0.5
        assert hp.sigma0 == pytest.approx(math.sqrt(0.5))


def blas_thread_counts():
    return [get() for get, _ in etafit.model._openblas_thread_controls()]


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS loaded runs two threads for the test, so that a count
    of 1 can only come from the scope; the counts found are restored."""
    controls = etafit.model._openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS is loaded in this process, so there is no "
                    "thread count to limit")
    saved = blas_thread_counts()
    for _, set_ in controls:
        set_(2)
    yield
    for (_, set_), count in zip(controls, saved):
        set_(count)


def small_tapered_model():
    ds = generate_synthetic(400, 0.2, seed=23)
    K = correlation_matrix(ds.points, CorrelationKernel(
        "exponential", 0.03, taper_threshold=0.08))
    assert K.storage == "sparse"
    X = build_design(ds.points, BasisSpec("polynomial", 2))
    return GpModel(ds.z, X, K, ds.points)


def report_without_timing(report):
    fields = dataclasses.asdict(report)
    fields["diagnostics"].pop("timing")
    return repr(fields)


def small_dense_model():
    ds = generate_synthetic(100, 0.2, seed=23)
    K = correlation_matrix(ds.points, CorrelationKernel("matern", 0.1, 1.37))
    assert K.storage == "dense" and \
        K.n < etafit.model.THREADED_REDUCTION_MIN_N
    X = build_design(ds.points, BasisSpec("polynomial", 2))
    return GpModel(ds.z, X, K, ds.points)


@pytest.mark.usefixtures("two_blas_threads")
class TestOneBlasThread:
    """Products with thin blocks (block Lanczos, the rotation of a dense
    Krylov state) run under one OpenBLAS thread, and so
    does the dense reduction of K with fewer than THREADED_REDUCTION_MIN_N
    points; every library's thread count comes back after each."""

    def test_scope_sets_one_thread_and_restores_the_counts(self):
        with etafit.model.one_blas_thread():
            assert blas_thread_counts() == [1] * len(blas_thread_counts())
        assert blas_thread_counts() == [2] * len(blas_thread_counts())

    def test_counts_restored_after_solver_error(self):
        model = small_tapered_model()
        R = np.column_stack([model.basis, model.z])
        with pytest.raises(SolverError, match="did not converge"):
            with etafit.model.one_blas_thread():
                block_lanczos(model.K.entries, R, 1e-10, 1)
        assert blas_thread_counts() == [2] * len(blas_thread_counts())

    def test_sparse_fit_runs_block_lanczos_on_one_thread(self, monkeypatch):
        seen = []

        def recording(K, R, tol, max_iter):
            seen.append(blas_thread_counts())
            return block_lanczos(K, R, tol, max_iter)

        monkeypatch.setattr(etafit.model, "block_lanczos", recording)
        estimate_variances(small_tapered_model())
        ones = [1] * len(blas_thread_counts())
        assert seen == [ones, ones]
        assert blas_thread_counts() == [2] * len(ones)

    @pytest.mark.parametrize("at_rule", [False, True])
    def test_dense_reduction_threads_follow_the_size_rule(self, monkeypatch,
                                                          at_rule):
        model = small_dense_model()
        if at_rule:
            monkeypatch.setattr(etafit.model, "THREADED_REDUCTION_MIN_N",
                                model.n)
        lapack = etafit.model.lapack
        seen = {"dsytrd": [], "dormqr": []}

        def recording(name):
            routine = getattr(lapack, name)

            def call(*args, **kwargs):
                seen[name].append(blas_thread_counts())
                return routine(*args, **kwargs)
            return call

        for name in seen:
            monkeypatch.setattr(lapack, name, recording(name))
        estimate_variances(model)
        ones = [1] * len(blas_thread_counts())
        assert seen["dsytrd"] == [[2] * len(ones) if at_rule else ones]
        # the workspace query and the rotation of [U | z], at every n
        assert seen["dormqr"] == [ones, ones]
        assert blas_thread_counts() == [2] * len(ones)

    def test_fit_without_openblas_gives_the_same_report(self, monkeypatch):
        sparse_scoped = estimate_variances(small_tapered_model())
        dense_scoped = estimate_variances(small_dense_model())
        monkeypatch.setattr(etafit.model, "_openblas_thread_controls",
                            lambda: ())
        assert report_without_timing(estimate_variances(
            small_tapered_model())) == report_without_timing(sparse_scoped)
        # the unscoped dense reduction runs on two threads, which may round
        # differently from one: the reports agree to 1e-9, not bitwise
        dense = estimate_variances(small_dense_model())
        assert dense.outcome == dense_scoped.outcome
        for name in ("sigma2", "sigma02", "eta"):
            assert getattr(dense.hyperparams, name) == pytest.approx(
                getattr(dense_scoped.hyperparams, name), rel=1e-9)
        assert dense.ell_max == pytest.approx(dense_scoped.ell_max,
                                              rel=1e-9)


def test_import_does_not_look_for_openblas():
    src = Path(etafit.model.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", "import etafit, etafit.model as m; "
         "print(m._openblas_thread_controls.cache_info().misses)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "0"
