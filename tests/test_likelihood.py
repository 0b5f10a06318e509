import math

import numpy as np
import pytest
from scipy.optimize import brentq

import etafit.kernels
from conftest import dense_g_h, dense_m1, dense_solver, random_model
from etafit.datagen import generate_synthetic
from etafit.design import BasisSpec, build_design
from etafit.errors import InputError, ModelError
from etafit.estimation import estimate_variances
from etafit.kernels import CorrelationKernel, correlation_matrix
from etafit.likelihood import (LOG_2PI, d2_ell_deta2, d_ell_deta,
                               ell_derivative_generic, ell_infinite_eta,
                               log_marginal_likelihood, profile_ell,
                               sigma2_hat)
from etafit.model import GpModel
from etafit.traces import ExactTraceProvider


def dense_log_marginal(model, sigma2, eta):
    """Direct evaluation of the marginal likelihood logarithm via explicit
    determinants and inverses."""
    n, m = model.n, model.m
    Sigma = sigma2 * (model.K.toarray() + eta * np.eye(n))
    Sigma_inv = np.linalg.inv(Sigma)
    X = model.X.entries
    M = Sigma_inv - Sigma_inv @ X @ np.linalg.inv(
        X.T @ Sigma_inv @ X) @ X.T @ Sigma_inv
    _, logdet_sigma = np.linalg.slogdet(Sigma)
    _, logdet_xsx = np.linalg.slogdet(X.T @ Sigma_inv @ X)
    return (-0.5 * (n - m) * LOG_2PI - 0.5 * logdet_sigma
            - 0.5 * logdet_xsx - 0.5 * model.z @ M @ model.z)


class TestSigma2Hat:
    def test_eta_zero_equals_trivial_estimate(self):
        model = random_model(n=10, seed=20)
        solver = dense_solver(model)
        s2 = sigma2_hat(model, 0.0, solver)
        expected = model.z @ dense_m1(model, 0.0) @ model.z / (model.n - model.m)
        assert s2 == pytest.approx(expected, rel=1e-9)

    def test_large_eta_reaches_noise_limit(self):
        model = random_model(n=30, seed=21)
        solver = dense_solver(model)
        eta = 1e8
        _, sigma02 = ell_infinite_eta(model)
        assert eta * sigma2_hat(model, eta, solver) == pytest.approx(
            sigma02, rel=1e-3)

    def test_grid_search_peaks_at_profiled_variance(self):
        model = random_model(n=40, seed=22)
        solver = dense_solver(model)
        eta = 2.0
        s2 = sigma2_hat(model, eta, solver)
        grid = np.linspace(0.25 * s2, 4.0 * s2, 400)
        vals = [log_marginal_likelihood(model, g, eta, solver) for g in grid]
        best = grid[int(np.argmax(vals))]
        assert best == pytest.approx(s2, rel=2.0 * (grid[1] - grid[0]) / s2)

    def test_degenerate_model_rejected(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(size=(9, 2))
        X = build_design(pts, BasisSpec("polynomial", 1))
        K = correlation_matrix(pts, CorrelationKernel("exponential", 0.2))
        model = GpModel(X.entries @ np.ones(3), X, K, pts)
        with pytest.raises(ModelError):
            sigma2_hat(model, 1.0, dense_solver(model))

    def test_ill_conditioned_design_fits_at_the_eigenbasis_root(self):
        # poly:12 on the 400-point grid, kappa(X) = 1.5e9: X' K_eta^-1 X is
        # singular at working precision, U' K_eta^-1 U is not, and the fit
        # matches an eigenbasis oracle on a QR basis of X
        ds = generate_synthetic(400, 0.2, seed=23)
        X = build_design(ds.points, BasisSpec("polynomial", 12))
        K = correlation_matrix(ds.points,
                               CorrelationKernel("exponential", 0.1))
        model = GpModel(ds.z, X, K, ds.points)
        report = estimate_variances(model)
        assert report.outcome == "interior"
        t_hat = math.log10(report.hyperparams.eta)

        lam, V = np.linalg.eigh(K.toarray())
        Qt = V.T @ np.linalg.qr(X.entries)[0]
        zt = V.T @ ds.z
        n, m = Qt.shape

        def d_ell(t):
            d = 1.0 / (lam + 10.0 ** t)
            DQ = d[:, None] * Qt
            B = Qt.T @ DQ
            w = d * zt - DQ @ np.linalg.solve(B, DQ.T @ zt)
            trace_m = np.sum(d) - np.trace(np.linalg.solve(B, DQ.T @ DQ))
            return -0.5 * (trace_m - (n - m) * (w @ w) / (zt @ w))

        oracle = brentq(d_ell, t_hat - 0.01, t_hat + 0.01, xtol=1e-13)
        assert t_hat == pytest.approx(oracle, abs=1e-9)


class TestLogMarginalLikelihood:
    def test_matches_dense_oracle(self):
        model = random_model(n=6, seed=24)
        solver = dense_solver(model)
        for sigma2, eta in [(0.5, 0.0), (1.3, 0.8), (0.02, 30.0)]:
            got = log_marginal_likelihood(model, sigma2, eta, solver)
            assert got == pytest.approx(
                dense_log_marginal(model, sigma2, eta), abs=1e-8)

    def test_profile_matches_dense_oracle(self):
        model = random_model(n=6, seed=25)
        solver = dense_solver(model)
        for eta in (0.1, 1.0, 10.0):
            ev = profile_ell(model, eta, solver)
            assert ev.ell == pytest.approx(
                dense_log_marginal(model, ev.sigma2_hat, eta), abs=1e-8)

    def test_profiled_variance_is_the_maximizer(self):
        model = random_model(n=12, seed=26)
        solver = dense_solver(model)
        eta = 0.7
        ev = profile_ell(model, eta, solver)
        for factor in (0.5, 0.9, 1.1, 2.0):
            other = log_marginal_likelihood(
                model, factor * ev.sigma2_hat, eta, solver)
            assert ev.ell >= other

    def test_nonpositive_sigma2_rejected(self):
        model = random_model(n=6, seed=27)
        with pytest.raises(InputError):
            log_marginal_likelihood(model, 0.0, 1.0, dense_solver(model))

    def test_infinite_eta_limit_matches_finite_evaluation(self):
        model = random_model(n=25, seed=28)
        solver = dense_solver(model)
        ell_inf, sigma02 = ell_infinite_eta(model)
        ev = profile_ell(model, 1e9, solver)
        assert ev.ell == pytest.approx(ell_inf, abs=1e-5)
        assert 1e9 * ev.sigma2_hat == pytest.approx(sigma02, rel=1e-4)


class TestEtaDerivatives:
    def test_first_derivative_matches_finite_differences(self):
        model = random_model(n=20, seed=29)
        solver = dense_solver(model)
        for eta in (0.2, 1.0, 8.0):
            h = 1e-4 * eta
            analytic = d_ell_deta(model, eta, solver)
            fd = (profile_ell(model, eta + h, solver).ell
                  - profile_ell(model, eta - h, solver).ell) / (2.0 * h)
            assert analytic == pytest.approx(fd, rel=1e-5)

    def test_second_derivative_matches_finite_differences(self):
        model = random_model(n=20, seed=30)
        solver = dense_solver(model)
        for eta in (0.5, 3.0):
            h = 1e-4 * eta
            analytic = d2_ell_deta2(model, eta, solver)
            fd = (d_ell_deta(model, eta + h, solver)
                  - d_ell_deta(model, eta - h, solver)) / (2.0 * h)
            assert analytic == pytest.approx(fd, rel=1e-4)

    def test_second_derivative_reads_no_power_one_trace(self):
        model = random_model(n=20, seed=30)
        solver = dense_solver(model)
        exact = ExactTraceProvider(solver.eigvals)
        powers = []

        def counting(eta, power=1):
            powers.append(power)
            return exact(eta, power)

        for eta in (0.5, 3.0):
            powers.clear()
            d2 = d2_ell_deta2(model, eta, solver, counting)
            assert powers == [2]
            assert d2 == profile_ell(model, eta, solver, exact,
                                     second_order=True).d2_ell

    def test_profiled_variance_derivative_identity(self):
        # d sigma2_hat / d eta = -z'M^2 z / (n - m), hence non-increasing
        model = random_model(n=15, seed=31)
        solver = dense_solver(model)
        for eta in (0.3, 2.0, 20.0):
            h = 1e-5 * eta
            fd = (sigma2_hat(model, eta + h, solver)
                  - sigma2_hat(model, eta - h, solver)) / (2.0 * h)
            ev = profile_ell(model, eta, solver)
            expected = -ev.z_m2_z / (model.n - model.m)
            assert fd == pytest.approx(expected, rel=1e-5)
            assert expected <= 0.0

    def test_quadratic_forms_match_dense_powers(self):
        model = random_model(n=7, seed=32)
        solver = dense_solver(model)
        eta = 0.9
        ev = profile_ell(model, eta, solver, second_order=True)
        M = dense_m1(model, eta)
        z = model.z
        assert ev.z_m_z == pytest.approx(z @ M @ z, rel=1e-9)
        assert ev.z_m2_z == pytest.approx(z @ M @ M @ z, rel=1e-9)
        assert ev.z_m3_z == pytest.approx(z @ M @ M @ M @ z, rel=1e-9)
        assert ev.trace_m1 == pytest.approx(np.trace(M), rel=1e-9)
        assert ev.trace_m1_sq == pytest.approx(np.trace(M @ M), rel=1e-9)


class TestStationarityMatrices:
    def test_g_quadratic_form_tracks_first_derivative(self):
        # -2 sigma2_hat * d_ell = z'Gz
        model = random_model(n=9, seed=33)
        solver = dense_solver(model)
        for eta in (0.4, 4.0):
            ev = profile_ell(model, eta, solver)
            G, _ = dense_g_h(model, eta)
            assert -2.0 * ev.sigma2_hat * ev.d_ell == pytest.approx(
                model.z @ G @ model.z, rel=1e-8)

    def test_h_quadratic_form_sign_matches_second_derivative_at_root(self):
        # at a stationary point, 2 sigma2_hat * d2_ell = z'Hz
        model = random_model(n=30, seed=34)
        solver = dense_solver(model)
        # bracket a root of the derivative
        etas = np.logspace(-2, 3, 40)
        vals = [d_ell_deta(model, e, solver) for e in etas]
        sign_changes = [i for i in range(len(etas) - 1)
                        if np.sign(vals[i]) != np.sign(vals[i + 1])]
        assert sign_changes, "test instance must have an interior root"
        i = sign_changes[0]
        from etafit.estimation import chandrupatla_root
        root, _ = chandrupatla_root(
            lambda t: d_ell_deta(model, 10.0 ** t, solver),
            math.log10(etas[i]), math.log10(etas[i + 1]), x_tol=1e-10)
        eta_hat = 10.0 ** root
        ev = profile_ell(model, eta_hat, solver, second_order=True)
        G, H = dense_g_h(model, eta_hat)
        z = model.z
        assert abs(z @ G @ z) <= 1e-6 * abs(z @ H @ z)
        assert 2.0 * ev.sigma2_hat * ev.d2_ell == pytest.approx(
            z @ H @ z, rel=1e-6)

    def test_g_and_h_are_sign_indefinite(self):
        for seed in (35, 36):
            model = random_model(n=10, seed=seed)
            for eta in (0.5, 5.0):
                G, H = dense_g_h(model, eta)
                eig_g = np.linalg.eigvalsh(G)
                eig_h = np.linalg.eigvalsh(H)
                assert eig_g[0] < -1e-12 and eig_g[-1] > 1e-12
                assert eig_h[0] < -1e-12 and eig_h[-1] > 1e-12


class TestGenericDerivative:
    def test_sigma2_direction_vanishes_at_profiled_variance(self):
        model = random_model(n=10, seed=37)
        solver = dense_solver(model)
        eta = 1.2
        s2 = sigma2_hat(model, eta, solver)
        K_eta = model.K.toarray() + eta * np.eye(model.n)
        val = ell_derivative_generic(model, s2, eta, K_eta, k=1)
        assert val == pytest.approx(0.0, abs=1e-8)

    def test_eta_direction_equals_profiled_derivative(self):
        # at sigma2 = sigma2_hat the partial in eta equals the total
        # derivative of the profiled likelihood
        model = random_model(n=10, seed=38)
        solver = dense_solver(model)
        eta = 0.8
        s2 = sigma2_hat(model, eta, solver)
        val = ell_derivative_generic(model, s2, eta,
                                     s2 * np.eye(model.n), k=1)
        assert val == pytest.approx(d_ell_deta(model, eta, solver),
                                    rel=1e-8)

    def test_matches_finite_differences_along_arbitrary_direction(self):
        model = random_model(n=8, seed=39)
        rng = np.random.default_rng(0)
        A = rng.standard_normal((8, 8))
        S = 0.05 * (A + A.T)
        sigma2, eta = 0.9, 1.5
        n, m = model.n, model.m
        X = model.X.entries
        z = model.z
        base = sigma2 * (model.K.toarray() + eta * np.eye(n))

        def ell_of(t):
            Sigma = base + t * S
            Sigma_inv = np.linalg.inv(Sigma)
            M = Sigma_inv - Sigma_inv @ X @ np.linalg.inv(
                X.T @ Sigma_inv @ X) @ X.T @ Sigma_inv
            _, ld_s = np.linalg.slogdet(Sigma)
            _, ld_x = np.linalg.slogdet(X.T @ Sigma_inv @ X)
            return (-0.5 * (n - m) * LOG_2PI - 0.5 * ld_s - 0.5 * ld_x
                    - 0.5 * z @ M @ z)

        h = 1e-6
        fd1 = (ell_of(h) - ell_of(-h)) / (2.0 * h)
        assert ell_derivative_generic(model, sigma2, eta, S, 1) == \
            pytest.approx(fd1, rel=1e-6)
        # second differences need a larger step to stay above rounding noise
        h = 1e-3
        fd2 = (ell_of(h) - 2.0 * ell_of(0.0) + ell_of(-h)) / h ** 2
        assert ell_derivative_generic(model, sigma2, eta, S, 2) == \
            pytest.approx(fd2, rel=1e-4)

    def test_callable_sigma_dot_accepted(self):
        model = random_model(n=6, seed=40)
        S = np.diag(np.linspace(0.5, 1.5, 6))
        direct = ell_derivative_generic(model, 1.0, 0.5, S, 1)
        via_callable = ell_derivative_generic(model, 1.0, 0.5,
                                              lambda V: S @ V, 1)
        assert direct == pytest.approx(via_callable, rel=1e-12)

    def test_refused_beyond_available_memory(self, monkeypatch):
        # sparse K at a size whose dense M would not fit: the guard fires
        # before sigma_dot is first applied
        model = random_model(n=60, seed=43)
        n = model.n
        K = correlation_matrix(model.points, CorrelationKernel(
            "exponential", 0.2, taper_threshold=0.3))
        assert K.storage == "sparse"
        model = GpModel(model.z, model.X, K, model.points)
        calls = []

        def sigma_dot(V):
            calls.append(V.shape)
            return V

        monkeypatch.setattr(etafit.kernels, "available_memory",
                            lambda: int(8 * 3.5 * n * n))
        with pytest.raises(InputError, match="generic likelihood derivative"):
            ell_derivative_generic(model, 1.0, 0.5, sigma_dot, 2)
        assert calls == []
        # the refusal names the arrays it sizes, not K, and gives the
        # 0.11 MiB they need and the 0.096 MiB available without rounding
        # them to 0
        with pytest.raises(InputError) as refused:
            ell_derivative_generic(model, 1.0, 0.5, sigma_dot, 2)
        assert str(refused.value) == (
            "4 dense n x n arrays at n=60 need about 0.11 MiB for the "
            "generic likelihood derivative, but only 0.096 MiB of memory "
            "is available")
        monkeypatch.setattr(etafit.kernels, "available_memory",
                            lambda: int(8 * 4.0 * n * n))
        ell_derivative_generic(model, 1.0, 0.5, sigma_dot, 2)
        assert calls == [(n, n)]

    def test_order_capped_at_two(self):
        model = random_model(n=6, seed=41)
        with pytest.raises(InputError):
            ell_derivative_generic(model, 1.0, 0.5, np.eye(6), 3)

    def test_trace_identity_in_sigma2_direction(self):
        # trace((Sigma_dot M)^k) = (n - m) / sigma^{2k} for theta = sigma^2
        model = random_model(n=9, seed=42)
        sigma2, eta = 0.7, 1.1
        n, m = model.n, model.m
        K_eta = model.K.toarray() + eta * np.eye(n)
        Sigma = sigma2 * K_eta
        Sigma_inv = np.linalg.inv(Sigma)
        X = model.X.entries
        M = Sigma_inv - Sigma_inv @ X @ np.linalg.inv(
            X.T @ Sigma_inv @ X) @ X.T @ Sigma_inv
        SdM = K_eta @ M
        prod = np.eye(n)
        for k in (1, 2, 3):
            prod = prod @ SdM
            assert np.trace(prod) == pytest.approx(
                (n - m) / sigma2 ** k, rel=1e-9)
