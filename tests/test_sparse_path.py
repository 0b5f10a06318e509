"""End-to-end coverage of the sparse/tapered route: CG solves,
Hutchinson-backed trace interpolation, sparse log-determinants, and the
iterative spectrum bounds."""

import numpy as np
import pytest

from etafit.datagen import generate_synthetic
from etafit.design import BasisSpec, build_design
from etafit.errors import ModelError, SolverError
from etafit.estimation import EstimateConfig, estimate_variances
from etafit.kernels import CorrelationKernel, CorrelationMatrix, \
    correlation_matrix
from etafit.likelihood import profile_ell
from etafit.model import GpModel, Solver, default_solver


@pytest.fixture(scope="module")
def sparse_problem():
    ds = generate_synthetic(1600, 0.2, seed=23)
    kernel = CorrelationKernel("exponential", 0.017, taper_threshold=0.03)
    K = correlation_matrix(ds.points, kernel)
    X = build_design(ds.points, BasisSpec("polynomial", 2))
    return GpModel(ds.z, X, K, ds.points)


class TestSparseEstimation:
    def test_matrix_is_sparse_and_solver_is_cg(self, sparse_problem):
        assert sparse_problem.K.storage == "sparse"
        assert default_solver(sparse_problem.K).method == "cg"

    def test_end_to_end_estimate(self, sparse_problem):
        report = estimate_variances(sparse_problem)
        assert report.outcome in ("interior", "noise_dominated")
        assert report.hyperparams.sigma0 > 0.1
        assert report.diagnostics["trace"]["method"] == "hutchinson"

    def test_sparse_agrees_with_densified_run(self, sparse_problem):
        report = estimate_variances(sparse_problem)
        dense_K = CorrelationMatrix(sparse_problem.K.toarray(), "dense",
                                    sparse_problem.K.n)
        dense_model = GpModel(sparse_problem.z, sparse_problem.X, dense_K,
                              sparse_problem.points)
        dense_report = estimate_variances(
            dense_model, config=EstimateConfig(exact_traces=True))
        assert report.hyperparams.sigma0 == pytest.approx(
            dense_report.hyperparams.sigma0, rel=0.02)

    def test_sparse_logdet_matches_dense(self, sparse_problem):
        cg = Solver(sparse_problem.K, "cg")
        dense = Solver(CorrelationMatrix(sparse_problem.K.toarray(), "dense",
                                         sparse_problem.K.n),
                       "dense")
        for eta in (0.5, 5.0):
            assert cg.logdet(eta) == pytest.approx(dense.logdet(eta),
                                                   rel=1e-9)

    def test_profile_ell_on_cg_path(self, sparse_problem):
        cg = Solver(sparse_problem.K, "cg")
        dense = Solver(CorrelationMatrix(sparse_problem.K.toarray(), "dense",
                                         sparse_problem.K.n),
                       "dense")
        ev_cg = profile_ell(sparse_problem, 2.0, cg)
        ev_dense = profile_ell(sparse_problem, 2.0, dense)
        assert ev_cg.ell == pytest.approx(ev_dense.ell, rel=1e-8)
        assert ev_cg.sigma2_hat == pytest.approx(ev_dense.sigma2_hat,
                                                 rel=1e-8)


class TestSolverErrors:
    def test_cg_iteration_budget(self, sparse_problem):
        solver = Solver(sparse_problem.K, "cg", tol=1e-14, max_iter=2)
        with pytest.raises(SolverError, match="residual"):
            solver.solve(1e-4, sparse_problem.z)

    def test_singular_inner_system_raises_model_error(self):
        from etafit.design import DesignMatrix
        from etafit.model import m1_apply
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(10, 2))
        col = rng.standard_normal(10)
        X = DesignMatrix(np.column_stack([col, col]), 2)  # duplicate columns
        K = correlation_matrix(pts, CorrelationKernel("exponential", 0.2))
        model = GpModel(rng.standard_normal(10), X, K, pts)
        with pytest.raises(ModelError):
            m1_apply(model, 0.5, Solver(K, "dense"))


class TestTaperedSpectrum:
    def test_tapered_eigenvalues_above_negative_jitter(self):
        # the taper can break exact positive-definiteness, but on this
        # configuration the spectrum stays above the jitter floor
        ds = generate_synthetic(400, 0.2, seed=1)
        kernel = CorrelationKernel("exponential", 0.03, taper_threshold=0.03)
        K = correlation_matrix(ds.points, kernel)
        eigvals = np.linalg.eigvalsh(K.toarray())
        n = K.n
        assert eigvals[0] >= -1e-10 * n
        assert eigvals[0] + 1e-10 * n > 0.0
