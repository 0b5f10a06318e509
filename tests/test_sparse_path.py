"""End-to-end coverage of the sparse/tapered route: block Lanczos Gram
matrices, Hutchinson traces by Lanczos quadrature on the probes and the
interpolant fitted from them, SuperLU solves and log-determinants, and the
iterative spectrum bounds."""

import numpy as np
import pytest
import scipy.sparse as sparse

import etafit.model
from conftest import oracle_traces
from etafit.analysis import spectrum_bounds
from etafit.datagen import generate_synthetic
from etafit.design import BasisSpec, build_design
from etafit.errors import ModelError, SolverError
from etafit.estimation import EstimateConfig, estimate_variances
from etafit.kernels import CorrelationKernel, CorrelationMatrix, \
    correlation_matrix
from etafit.likelihood import (d2_ell_deta2, d_ell_deta, profile_ell,
                               sigma2_hat)
from etafit.model import (GpModel, Solver, block_lanczos, rademacher_probes,
                          sparse_lu)
from etafit.traces import (DEFAULT_HUTCHINSON_VECTORS,
                           HutchinsonTraceProvider, trace_inv_hutchinson)


@pytest.fixture(scope="module")
def sparse_problem():
    ds = generate_synthetic(1600, 0.2, seed=23)
    kernel = CorrelationKernel("exponential", 0.017, taper_threshold=0.03)
    K = correlation_matrix(ds.points, kernel)
    X = build_design(ds.points, BasisSpec("polynomial", 2))
    return GpModel(ds.z, X, K, ds.points)


class URecordingLU:
    """A SuperLU factor that counts the reads of its ``U`` property."""

    def __init__(self, lu):
        self._lu = lu
        self.U_reads = 0

    @property
    def U(self):
        self.U_reads += 1
        return self._lu.U

    def __getattr__(self, name):
        return getattr(self._lu, name)


class TestSparseEstimation:
    def test_matrix_is_sparse_and_solver_has_no_spectrum(self,
                                                         sparse_problem):
        assert sparse_problem.K.storage == "sparse"
        assert Solver(sparse_problem.K).eigvals is None

    def test_end_to_end_estimate(self, sparse_problem):
        report = estimate_variances(sparse_problem)
        assert report.outcome in ("interior", "noise_dominated")
        assert report.hyperparams.sigma0 > 0.1
        assert report.diagnostics["trace"]["method"] == "hutchinson"

    def test_sparse_agrees_with_densified_run(self, sparse_problem):
        report = estimate_variances(sparse_problem)
        dense_K = CorrelationMatrix(sparse_problem.K.toarray())
        dense_model = GpModel(sparse_problem.z, sparse_problem.X, dense_K,
                              sparse_problem.points)
        dense_report = estimate_variances(
            dense_model, config=EstimateConfig(exact_traces=True))
        assert report.hyperparams.sigma0 == pytest.approx(
            dense_report.hyperparams.sigma0, rel=0.02)

    def test_sparse_logdet_matches_dense(self, sparse_problem):
        sparse_solver = Solver(sparse_problem.K)
        dense = Solver(CorrelationMatrix(sparse_problem.K.toarray()))
        for eta in (0.5, 5.0):
            assert sparse_solver.logdet(eta) == pytest.approx(
                dense.logdet(eta), rel=1e-9)

    def test_profile_ell_on_sparse_path(self, sparse_problem):
        sparse_solver = Solver(sparse_problem.K)
        dense = Solver(CorrelationMatrix(sparse_problem.K.toarray()))
        traces = oracle_traces(sparse_problem.K)
        n_m = sparse_problem.n - sparse_problem.m
        for eta in (0.0, 0.05, 2.0, 40.0):
            ev_sparse = profile_ell(sparse_problem, eta, sparse_solver,
                                    traces, second_order=True)
            ev_dense = profile_ell(sparse_problem, eta, dense, traces,
                                   second_order=True)
            assert ev_sparse.ell == pytest.approx(ev_dense.ell, rel=1e-8)
            assert ev_sparse.sigma2_hat == pytest.approx(
                ev_dense.sigma2_hat, rel=1e-8)
            assert ev_sparse.d_ell == pytest.approx(ev_dense.d_ell, rel=0,
                                                    abs=1e-8 * n_m)
            for field in ("z_m3_z", "trace_m1_sq", "d2_ell"):
                assert getattr(ev_sparse, field) == pytest.approx(
                    getattr(ev_dense, field), rel=1e-8), field

    @pytest.mark.parametrize("exact_traces", [False, True],
                             ids=["interpolant", "exact_traces"])
    def test_fit_makes_no_solve_and_two_lanczos_runs(self, sparse_problem,
                                                     monkeypatch,
                                                     exact_traces):
        # the Gram matrices of [X | z] and every probe trace come from one
        # block Lanczos run each, so a fit solves nothing
        runs = []

        def recording(K, R, tol, max_iter):
            runs.append(R.shape[1])
            return block_lanczos(K, R, tol, max_iter)

        def no_solve(self, eta, B):
            raise AssertionError("Solver.solve called in a sparse fit")

        monkeypatch.setattr(etafit.model, "block_lanczos", recording)
        monkeypatch.setattr(Solver, "solve", no_solve)
        report = estimate_variances(
            sparse_problem, config=EstimateConfig(exact_traces=exact_traces))
        assert sorted(runs) == [sparse_problem.m + 1,
                                DEFAULT_HUTCHINSON_VECTORS]
        counts = report.diagnostics["counts"]
        assert counts["lanczos_steps"] > 0
        assert counts["probe_lanczos_steps"] > 0

    def test_fit_factors_K_once(self, sparse_problem, monkeypatch):
        # the positive-definiteness check and log det K share one LU of K;
        # the next one certifies the lower spectrum bound, and the last is
        # the root's log det
        etas = []

        def counting(A, eta=0.0):
            etas.append(eta)
            return sparse_lu(A, eta)

        monkeypatch.setattr(etafit.model, "sparse_lu", counting)
        report = estimate_variances(sparse_problem)
        assert report.outcome == "interior"
        lambda_min = report.diagnostics["spectrum"]["lambda_min"]
        assert etas == [0.0, -lambda_min, report.hyperparams.eta]

    def test_fit_reads_each_factor_once(self, sparse_problem, monkeypatch):
        # SuperLU's U builds a full copy of U, so the pivots (its diagonal)
        # are read once per factorization: K, the certificate and the root
        factors = []

        def counting(A, eta=0.0):
            factors.append(URecordingLU(sparse_lu(A, eta)))
            return factors[-1]

        monkeypatch.setattr(etafit.model, "sparse_lu", counting)
        estimate_variances(sparse_problem)
        assert [lu.U_reads for lu in factors] == [1, 1, 1]

    def test_spectrum_does_not_depend_on_the_probe_seed(self, sparse_problem,
                                                        monkeypatch):
        # the spectrum reads the seed-0 probe run; another seed costs one
        # more probe run
        runs = []

        def recording(K, R, tol, max_iter):
            runs.append(R.shape[1])
            return block_lanczos(K, R, tol, max_iter)

        monkeypatch.setattr(etafit.model, "block_lanczos", recording)
        spectra = []
        for seed, probe_runs in ((0, 1), (3, 2)):
            runs.clear()
            report = estimate_variances(sparse_problem,
                                        config=EstimateConfig(seed=seed))
            spectra.append(report.diagnostics["spectrum"])
            assert runs.count(DEFAULT_HUTCHINSON_VECTORS) == probe_runs
        assert spectra[0] == spectra[1]

    def test_logdet_at_zero_reads_the_spectrum_factorization(self,
                                                             sparse_problem):
        solver = Solver(sparse_problem.K)
        spectrum_bounds(solver)
        assert solver.factor_s > 0.0
        assert solver.logdet(0.0) == Solver(sparse_problem.K).logdet(0.0)

    def test_default_traces_on_sparse_path_never_densify(self,
                                                         sparse_problem,
                                                         monkeypatch):
        # without a provider, a sparse solver uses its own Hutchinson route;
        # it must never form the dense n x n matrix
        solver = Solver(sparse_problem.K)
        hutchinson = HutchinsonTraceProvider(solver,
                                             DEFAULT_HUTCHINSON_VECTORS, 0)

        def densify(self):
            raise AssertionError("K.toarray() called on the sparse path")

        monkeypatch.setattr(CorrelationMatrix, "toarray", densify)
        for eta in (0.1, 3.0):
            assert d_ell_deta(sparse_problem, eta, solver) == d_ell_deta(
                sparse_problem, eta, solver, hutchinson)
            assert d2_ell_deta2(sparse_problem, eta, solver) == d2_ell_deta2(
                sparse_problem, eta, solver, hutchinson)


class TestSparseSolve:
    @pytest.mark.parametrize("eta", [0.0, 1e-3, 2.0])
    def test_matches_dense_solve(self, sparse_problem, eta):
        n = sparse_problem.n
        rng = np.random.default_rng(7)
        B = np.column_stack([sparse_problem.z, sparse_problem.X.entries,
                             np.zeros(n), rng.standard_normal((n, 3))])
        got = Solver(sparse_problem.K).solve(eta, B)
        want = np.linalg.solve(sparse_problem.K.toarray() + eta * np.eye(n),
                               B)
        for j in range(B.shape[1]):
            assert np.linalg.norm(got[:, j] - want[:, j]) <= \
                1e-10 * np.linalg.norm(want[:, j]), j

    def test_zero_columns_solve_to_zero(self, sparse_problem):
        solver = Solver(sparse_problem.K)
        B = np.zeros((sparse_problem.n, 3))
        np.testing.assert_array_equal(solver.solve(0.5, B), B)

    def test_vector_in_vector_out(self, sparse_problem):
        solver = Solver(sparse_problem.K)
        x = solver.solve(0.5, sparse_problem.z)
        assert x.shape == (sparse_problem.n,)
        np.testing.assert_array_equal(
            x, solver.solve(0.5, sparse_problem.z[:, None])[:, 0])


def block_model(entries):
    """Model with poly:2 design on n random points over the sparse K."""
    n = entries.shape[0]
    rng = np.random.default_rng(1)
    points = rng.uniform(size=(n, 2))
    K = CorrelationMatrix(sparse.csr_matrix(entries))
    X = build_design(points, BasisSpec("polynomial", 2))
    return GpModel(rng.standard_normal(n), X, K, points)


class TestLanczosGrams:
    """Sparse ``grams`` (one block Lanczos run per model) against the dense
    eigenbasis ones on the same K."""

    @pytest.mark.parametrize("case", ["fixture", "identity",
                                      "two_eigenvalues"])
    def test_matches_dense_grams(self, sparse_problem, case):
        if case == "fixture":
            model = sparse_problem
        elif case == "identity":
            # Krylov space exhausted after one step
            model = block_model(sparse.identity(400))
        else:
            # two distinct eigenvalues (0.5 and 1.5): exhausted after two
            # steps, where normalizing the rounding-level residual into new
            # directions puts G_3 off by 4e-7
            model = block_model(sparse.kron(sparse.identity(200),
                                            [[1.0, 0.5], [0.5, 1.0]]))
        sparse_solver = Solver(model.K)
        dense = Solver(CorrelationMatrix(model.K.toarray()))
        for eta in (0.0, 1e-3, 2.0, 1e3):
            got = sparse_solver.grams(model, eta, 3)
            want = dense.grams(model, eta, 3)
            for p in range(3):
                assert np.linalg.norm(got[p] - want[p]) <= \
                    1e-10 * np.linalg.norm(want[p]), (eta, p + 1)
        expected_steps = {"identity": 1, "two_eigenvalues": 2}
        if case in expected_steps:
            assert sparse_solver.lanczos_steps == expected_steps[case]
        assert dense.lanczos_steps == 0

    def test_one_run_serves_every_eta(self, sparse_problem):
        solver = Solver(sparse_problem.K)
        assert solver.lanczos_steps == 0
        solver.grams(sparse_problem, 0.0, 3)
        steps = solver.lanczos_steps
        run = solver._per_model[1]
        for eta in (1e-3, 2.0, 1e3):
            solver.grams(sparse_problem, eta, 2)
        assert solver._per_model[1] is run
        assert solver.lanczos_steps == steps > 0

    def test_duplicate_design_column_raises_model_error(self,
                                                        sparse_problem):
        from etafit.design import DesignMatrix
        X = sparse_problem.X.entries
        with pytest.raises(ModelError):
            GpModel(sparse_problem.z,
                    DesignMatrix(np.column_stack([X, X[:, 1]])),
                    sparse_problem.K, sparse_problem.points)

    def test_step_budget(self, sparse_problem, monkeypatch):
        monkeypatch.setattr(etafit.model, "LANCZOS_STEPS_PER_POINT",
                            2 / sparse_problem.n)
        solver = Solver(sparse_problem.K)
        with pytest.raises(SolverError, match="stopped after 2 of 2 steps"):
            solver.grams(sparse_problem, 0.5, 2)

    @pytest.mark.parametrize("min_steps", [None, 1])
    def test_three_steps_unless_exhausted(self, monkeypatch, min_steps):
        # exp:0.002 tapered at 1e-6 on the 1600-point grid: neighbours
        # correlate by 2.7e-6, and G_1..G_3 settle after 2 steps; the run
        # takes a third, which the asymptote's forms of degree 4 need
        ds = generate_synthetic(1600, 0.2, seed=23)
        K = correlation_matrix(ds.points, CorrelationKernel(
            "exponential", 0.002, taper_threshold=1e-6))
        X = build_design(ds.points, BasisSpec("polynomial", 2))
        R = np.column_stack([GpModel(ds.z, X, K, ds.points).basis, ds.z])
        if min_steps is not None:
            monkeypatch.setattr(etafit.model, "LANCZOS_MIN_STEPS", min_steps)
        assert block_lanczos(K.entries, R, 1e-10, 100).steps == \
            (3 if min_steps is None else 2)
        # an exhausted Krylov space still ends the run at once
        assert block_lanczos(sparse.identity(1600, format="csr"), R, 1e-10,
                             100).steps == 1


def duplicate_point_K():
    """Tapered K on 200 points with points 0 and 1 coincident: K has two
    equal rows and is exactly singular."""
    pts = np.random.default_rng(0).uniform(size=(200, 2))
    pts[1] = pts[0]
    return correlation_matrix(pts, CorrelationKernel("exponential", 0.05,
                                                     taper_threshold=0.05))


class TestProbeTraces:
    """Hutchinson traces on sparse K, read from one block Lanczos run on
    the probes, against the same probes solved one by one."""

    def test_match_per_vector_superlu_solves(self, sparse_problem):
        K = sparse_problem.K
        solver = Solver(K)
        provider = HutchinsonTraceProvider(solver,
                                           DEFAULT_HUTCHINSON_VECTORS, 0)
        V = rademacher_probes(K.n, DEFAULT_HUTCHINSON_VECTORS, 0)
        for eta in (0.0, 1e-3, 1.0, 16.8, 1e3):
            lu = sparse_lu(K.entries, eta)
            W = np.column_stack([lu.solve(v) for v in V.T])
            want1 = np.mean(np.einsum("ij,ij->j", V, W))
            want2 = np.mean(np.einsum("ij,ij->j", W, W))
            got1 = trace_inv_hutchinson(eta, solver,
                                        DEFAULT_HUTCHINSON_VECTORS, 0)[0]
            assert abs(got1 - want1) <= 1e-10 * want1, eta
            assert abs(provider(eta, 1) - want1) <= 1e-10 * want1, eta
            assert abs(provider(eta, 2) - want2) <= 1e-10 * want2, eta

    def test_one_probe_run_per_solver(self, sparse_problem):
        solver = Solver(sparse_problem.K)
        assert solver.probe_lanczos_steps == 0
        trace_inv_hutchinson(0.0, solver, 20, seed=3)
        run = solver._probes[1]
        for eta in (1e-3, 2.0, 1e3):
            trace_inv_hutchinson(eta, solver, 20, seed=3)
            HutchinsonTraceProvider(solver, 20, 3)(eta, 2)
        assert solver._probes[1] is run
        assert solver.probe_lanczos_steps == run.steps > 0
        # a model's Gram matrices use the other slot
        solver.grams(sparse_problem, 1.0, 2)
        assert solver._probes[1] is run
        assert solver.lanczos_steps > 0
        dense = Solver(CorrelationMatrix(sparse_problem.K.toarray()))
        trace_inv_hutchinson(1.0, dense, 20, seed=3)
        assert dense.probe_lanczos_steps == 0


class TestSolverErrors:
    def test_probe_step_budget(self, sparse_problem, monkeypatch):
        monkeypatch.setattr(etafit.model, "LANCZOS_STEPS_PER_POINT",
                            2 / sparse_problem.n)
        solver = Solver(sparse_problem.K)
        with pytest.raises(SolverError, match="stopped after 2 of 2 steps"):
            trace_inv_hutchinson(1e-4, solver, DEFAULT_HUTCHINSON_VECTORS)

    def test_singular_logdet_raises_solver_error(self):
        K = duplicate_point_K()
        assert K.storage == "sparse"
        with pytest.raises(SolverError, match="K \\+ 0.0 I"):
            Solver(K).logdet(0.0)
        A = K.toarray() + 0.5 * np.eye(K.n)
        assert Solver(K).logdet(0.5) == pytest.approx(
            np.linalg.slogdet(A)[1], rel=1e-12)

    def test_singular_spectrum_raises_solver_error(self):
        with pytest.raises(SolverError, match="K \\+ 0.0 I"):
            spectrum_bounds(Solver(duplicate_point_K()))

    def test_coincident_points_are_named(self):
        K = duplicate_point_K()
        assert K.has_duplicates
        with pytest.raises(SolverError) as info:
            Solver(K).logdet(0.0)
        assert str(info.value) == (
            "K + 0.0 I is singular: points 0 and 1 coincide (1 coincident "
            "pair(s) in all), so K has equal rows; K + eta I with eta > 0 "
            "still factors")

    def test_indefinite_logdet_raises_solver_error(self):
        # tridiagonal with off-diagonal 0.8: eigenvalues 1 + 1.6 cos(...)
        # reach -0.59, so K is indefinite yet nonsingular
        n = 10
        entries = sparse.diags([0.8, 1.0, 0.8], [-1, 0, 1], shape=(n, n),
                               format="csr")
        K = CorrelationMatrix(entries)
        with pytest.raises(SolverError, match="not positive definite"):
            Solver(K).logdet(0.0)
        A = entries.toarray() + np.eye(n)
        assert Solver(K).logdet(1.0) == pytest.approx(
            np.linalg.slogdet(A)[1], rel=1e-12)

    def test_indefinite_probe_traces_raise_solver_error(self):
        # like the Gram matrices, the probe traces need K itself positive
        # definite, even when K + eta I is
        n = 10
        K = CorrelationMatrix(sparse.diags([0.8, 1.0, 0.8], [-1, 0, 1],
                                           shape=(n, n), format="csr"))
        with pytest.raises(SolverError, match="K \\+ 0.0 I is not positive"):
            trace_inv_hutchinson(1.0, Solver(K), 4)

    def test_indefinite_grams_raise_solver_error(self):
        # the Lanczos run converges at eta = 0, so it needs K itself
        # positive definite, even when K + eta I is
        n = 10
        entries = sparse.diags([0.8, 1.0, 0.8], [-1, 0, 1], shape=(n, n))
        model = block_model(entries)
        with pytest.raises(SolverError, match="K \\+ 0.0 I is not positive"):
            Solver(model.K).grams(model, 1.0, 2)

    def test_singular_inner_system_raises_model_error(self):
        from etafit.design import DesignMatrix
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(10, 2))
        col = rng.standard_normal(10)
        X = DesignMatrix(np.column_stack([col, col]))  # duplicate columns
        K = correlation_matrix(pts, CorrelationKernel("exponential", 0.2))
        with pytest.raises(ModelError):
            GpModel(rng.standard_normal(10), X, K, pts)

    def test_pivot_ratio_flags_singular_inner_system(self):
        # sparse K is not jittered: K_01 one ulp below 1 leaves eigenvalue
        # 1.1e-16 on e_0 - e_1, a column of X, so U' K^-1 U is singular at
        # working precision at eta = 0 and fine at eta > 0
        from etafit.design import DesignMatrix
        n = 10
        entries = sparse.lil_matrix(np.eye(n))
        entries[0, 1] = entries[1, 0] = np.nextafter(1.0, 0.0)
        columns = np.zeros((n, 2))
        columns[:2] = [[1.0, 1.0], [1.0, -1.0]]
        rng = np.random.default_rng(1)
        model = GpModel(rng.standard_normal(n), DesignMatrix(columns),
                        CorrelationMatrix(entries.tocsr()),
                        rng.uniform(size=(n, 2)))
        solver = Solver(model.K)
        with pytest.raises(ModelError, match="Cholesky pivot ratio"):
            sigma2_hat(model, 0.0, solver)
        assert sigma2_hat(model, 1.0, solver) > 0


def indefinite_grid_K(n, alpha):
    """exp:alpha tapered at 0.05 on the n-point grid: indefinite K."""
    points = generate_synthetic(n, 0.2, seed=23).points
    return correlation_matrix(points, CorrelationKernel(
        "exponential", alpha, taper_threshold=0.05))


def tapered_fixture(name):
    """The positive-definite tapered spectrum fixtures: a 15 x 15 grid
    (n225), the 40 x 40 grid of cell centres (grid40) and 1024 synthetic
    points (n1024)."""
    if name == "n1024":
        points, alpha = generate_synthetic(1024, 0.2, seed=23).points, 0.02
    else:
        g, alpha = ((np.linspace(0.0, 1.0, 15), 0.08) if name == "n225"
                    else ((np.arange(40) + 0.5) / 40, 0.03))
        xx, yy = np.meshgrid(g, g)
        points = np.column_stack([xx.ravel(), yy.ravel()])
    K = correlation_matrix(points, CorrelationKernel("exponential", alpha,
                                                     taper_threshold=0.05))
    assert K.storage == "sparse"
    return K


def no_negative_pivot(A, sigma):
    """A - sigma I has no negative pivot: sigma <= lambda_min(A)."""
    lu = sparse_lu(A, -sigma)
    assert np.array_equal(lu.perm_r, lu.perm_c)
    return not np.any(lu.U.diagonal() < 0)


class TestTaperedSpectrum:
    def test_lambda_min_matches_dense_eigensolve(self):
        K = tapered_fixture("grid40")
        lam_min = np.linalg.eigvalsh(K.toarray())[0]
        bound = spectrum_bounds(Solver(K)).lambda_min
        assert 0.98 * lam_min <= bound <= lam_min

    @pytest.mark.parametrize("name", ["n225", "grid40", "n1024"])
    def test_bounds_are_certified_ritz_values(self, name):
        K = tapered_fixture(name)
        spec = spectrum_bounds(Solver(K))
        eigvals = np.linalg.eigvalsh(K.toarray())
        assert no_negative_pivot(K.entries, spec.lambda_min)
        assert spec.lambda_min <= eigvals[0]
        assert spec.lambda_max == pytest.approx(eigvals[-1], rel=1e-4)

    def test_margin_doubles_until_certified(self, monkeypatch):
        # a lowest Ritz value 3% above lambda_min fails the certificate at
        # margins 0.01 and 0.02, and passes at 0.04
        K = tapered_fixture("n225")
        lam_min = np.linalg.eigvalsh(K.toarray())[0]
        eigvals_banded = etafit.model.sla.eigvals_banded
        shifts = []

        def raised(*args, **kwargs):
            ritz = eigvals_banded(*args, **kwargs)
            ritz[0] = 1.03 * lam_min
            return ritz

        def counting(A, eta=0.0):
            shifts.append(-eta)
            return sparse_lu(A, eta)

        monkeypatch.setattr(etafit.model.sla, "eigvals_banded", raised)
        monkeypatch.setattr(etafit.model, "sparse_lu", counting)
        bound = spectrum_bounds(Solver(K)).lambda_min
        certificates = shifts[1:]  # after the LU of K itself
        assert certificates == pytest.approx(
            [(1 - m) * 1.03 * lam_min for m in (0.01, 0.02, 0.04)],
            rel=1e-15)
        assert bound == certificates[-1]
        assert 0.9 * lam_min < bound <= lam_min
        assert no_negative_pivot(K.entries, bound)
        assert not no_negative_pivot(K.entries, certificates[-2])

    @pytest.mark.parametrize("n,alpha,negative", [(1600, 0.05, 4),
                                                  (4096, 0.04, 165)])
    def test_indefinite_taper_raises_with_inertia(self, n, alpha, negative):
        # the counts equal those of a dense eigvalsh of the same K
        K = indefinite_grid_K(n, alpha)
        with pytest.raises(SolverError, match=f"{negative} negative"):
            spectrum_bounds(Solver(K))

    def test_indefinite_taper_estimate_raises_solver_error(self):
        ds = generate_synthetic(4096, 0.2, seed=23)
        X = build_design(ds.points, BasisSpec("polynomial", 2))
        model = GpModel(ds.z, X, indefinite_grid_K(4096, 0.04), ds.points)
        with pytest.raises(SolverError, match="indefinite"):
            estimate_variances(model)

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
