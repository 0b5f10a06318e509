import math

import numpy as np
import pytest
import scipy.sparse as sparse

from conftest import dense_m1, dense_p, dense_solver, random_model
from etafit.design import BasisSpec, build_design
from etafit.errors import InputError, ModelError
from etafit.kernels import CorrelationKernel, CorrelationMatrix, \
    correlation_matrix
from etafit.model import (GpModel, HyperParams, Solver, beta_gls,
                          default_solver, m1_apply, solve_K_eta, trace_m1)
from etafit.traces import ExactTraceProvider


def identity_corr(n):
    return CorrelationMatrix(np.eye(n), "dense", n)


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
                solve_K_eta(model, eta, b, solver), b / (1.0 + eta),
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
                solve_K_eta(model, eta, B, solver), expected, atol=1e-9)

    def test_large_eta_limit(self):
        model = random_model(n=20, seed=3)
        solver = dense_solver(model)
        b = np.linspace(-1.0, 1.0, 20)
        x = solve_K_eta(model, 1e8, b, solver)
        np.testing.assert_allclose(x, b / 1e8, rtol=1e-6)

    def test_cg_agrees_with_dense(self):
        kernel = CorrelationKernel("exponential", 0.1, taper_threshold=0.01)
        rng = np.random.default_rng(5)
        pts = rng.uniform(size=(60, 2))
        K = correlation_matrix(pts, kernel)
        assert K.storage == "sparse"
        cg = Solver(K, "cg", tol=1e-12)
        dense = Solver(CorrelationMatrix(K.toarray(), "dense", K.n),
                       "dense")
        b = rng.standard_normal(60)
        np.testing.assert_allclose(cg.solve(0.5, b), dense.solve(0.5, b),
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

    def test_default_solver_selection(self):
        dense = correlation_matrix(np.random.default_rng(0).uniform(size=(8, 2)),
                                   CorrelationKernel("exponential", 0.1))
        assert default_solver(dense).method == "dense"
        entries = sparse.identity(10, format="csr")
        sparse_K = CorrelationMatrix(entries, "sparse", 10)
        assert default_solver(sparse_K).method == "cg"

    def test_jitter_retry_on_indefinite_matrix(self):
        # an explicitly indefinite "correlation" matrix triggers the jitter
        n = 4
        A = np.eye(n)
        A[0, 1] = A[1, 0] = 1.0 + 1e-13  # barely indefinite
        K = CorrelationMatrix(A, "dense", n)
        solver = Solver(K, "dense")
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
        K = CorrelationMatrix((Q * lam) @ Q.T, "dense", n)
        solver = Solver(K, "dense")
        assert solver.jitter == pytest.approx(0.01 + 1e-10 * n, rel=1e-8)
        A = K.entries + (eta + solver.jitter) * np.eye(n)
        A_inv = np.linalg.inv(A)
        b = rng.standard_normal(n)
        np.testing.assert_allclose(solver.solve(eta, b),
                                   np.linalg.solve(A, b), rtol=1e-9)
        assert solver.logdet(eta) == pytest.approx(
            np.linalg.slogdet(A)[1], rel=1e-10)
        for traces in (ExactTraceProvider(K),
                       ExactTraceProvider(K, solver.eigvals)):
            assert traces(eta, 1) == pytest.approx(np.trace(A_inv),
                                                   rel=1e-10)
            assert traces(eta, 2) == pytest.approx(
                np.sum(A_inv * A_inv), rel=1e-10)


class TestM1Apply:
    def test_cokernel_property(self):
        for seed in range(4):
            model = random_model(n=10, q=1, seed=seed)
            solver = dense_solver(model)
            for eta in (0.0, 0.3, 5.0):
                w = m1_apply(model, eta, solver)
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
        w = m1_apply(model, 0.7, dense_solver(model))
        assert np.linalg.norm(w) <= 1e-10 * np.linalg.norm(z)

    def test_matches_dense_construction(self):
        model = random_model(n=5, q=0, seed=6)
        solver = dense_solver(model)
        for eta in (0.0, 0.4, 2.0):
            expected = dense_m1(model, eta) @ model.z
            np.testing.assert_allclose(m1_apply(model, eta, solver),
                                       expected, atol=1e-10)


class TestBetaGls:
    def test_identity_correlation_reduces_to_ols(self):
        model = identity_model(n=15, q=1, seed=7)
        beta = beta_gls(model, 0.0, dense_solver(model))
        ols, *_ = np.linalg.lstsq(model.X.entries, model.z, rcond=None)
        np.testing.assert_allclose(beta, ols, atol=1e-10)

    def test_exact_linear_data_recovered(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(size=(12, 2))
        X = build_design(pts, BasisSpec("polynomial", 1))
        K = correlation_matrix(pts, CorrelationKernel("exponential", 0.3))
        beta_true = np.array([0.4, 1.5, -0.7])
        model = GpModel(X.entries @ beta_true, X, K, pts)
        beta = beta_gls(model, 1.3, dense_solver(model))
        np.testing.assert_allclose(beta, beta_true, atol=1e-10)

    def test_matches_dense_normal_equations(self):
        model = random_model(n=8, q=1, seed=10)
        solver = dense_solver(model)
        eta = 0.9
        Kinv = np.linalg.inv(model.K.toarray() + eta * np.eye(8))
        X = model.X.entries
        expected = np.linalg.solve(X.T @ Kinv @ X, X.T @ Kinv @ model.z)
        np.testing.assert_allclose(beta_gls(model, eta, solver), expected,
                                   atol=1e-9)


class TestTraceM1:
    def test_identity_correlation_closed_form(self):
        model = identity_model(n=14, q=1)
        solver = dense_solver(model)
        n, m = model.n, model.m
        for eta in (0.0, 1.0, 9.0):
            t = trace_m1(model, eta, solver,
                         lambda e: n / (1.0 + e))
            assert t == pytest.approx((n - m) / (1.0 + eta), rel=1e-12)

    def test_matches_dense_trace(self):
        model = random_model(n=6, q=0, seed=11)
        solver = dense_solver(model)
        for eta in (0.0, 0.2, 4.0):
            Kinv = np.linalg.inv(model.K.toarray() + eta * np.eye(6))
            t = trace_m1(model, eta, solver, float(np.trace(Kinv)))
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
