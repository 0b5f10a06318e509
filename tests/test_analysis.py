import math

import numpy as np
import pytest

from conftest import dense_m1, dense_solver, random_model
from etafit.analysis import (AsymptoteCoefficients, SpectrumSummary,
                             asymptote_coefficients, asymptote_d_ell,
                             asymptote_roots, derivative_bounds,
                             ell_gap_bound, search_interval, spectrum_bounds)
from etafit.design import BasisSpec, build_design
from etafit.errors import ModelError
from etafit.kernels import (CorrelationKernel, CorrelationMatrix,
                            correlation_matrix)
from etafit.likelihood import d2_ell_deta2, d_ell_deta, profile_ell
from etafit.model import GpModel, Solver


def dense_q_n(model):
    X = model.X.entries
    Q = np.eye(model.n) - X @ np.linalg.inv(X.T @ X) @ X.T
    N = model.K.toarray() @ Q
    return Q, N


class TestSpectrumBounds:
    def test_identity(self):
        K = CorrelationMatrix(np.eye(9))
        spec = spectrum_bounds(Solver(K))
        assert spec.lambda_min == pytest.approx(1.0, rel=1e-9)
        assert spec.lambda_max == pytest.approx(1.0, rel=1e-9)

    def test_matches_full_eigensolve(self):
        rng = np.random.default_rng(50)
        pts = rng.uniform(size=(200, 2))
        K = correlation_matrix(pts, CorrelationKernel("exponential", 0.2))
        spec = spectrum_bounds(Solver(K))
        eigvals = np.linalg.eigvalsh(K.toarray())
        assert spec.lambda_min == pytest.approx(eigvals[0], rel=1e-6)
        assert spec.lambda_max == pytest.approx(eigvals[-1], rel=1e-6)

    def test_sparse_path(self):
        g = np.linspace(0.0, 1.0, 15)
        xx, yy = np.meshgrid(g, g)
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        K = correlation_matrix(pts, CorrelationKernel("exponential", 0.08,
                                                      taper_threshold=0.05))
        assert K.storage == "sparse"
        spec = spectrum_bounds(Solver(K))
        eigvals = np.linalg.eigvalsh(K.toarray())
        # a certified lower bound on lambda_min, a Ritz value for lambda_max
        assert 0.98 * eigvals[0] <= spec.lambda_min <= eigvals[0]
        assert spec.lambda_max == pytest.approx(eigvals[-1], rel=1e-4)


class TestDerivativeBounds:
    def test_equal_eigenvalues_vanish(self):
        spec = SpectrumSummary(2.0, 2.0)
        assert derivative_bounds(spec, 50, 3, 0.7) == (0.0, 0.0)

    def test_decay_at_huge_eta(self):
        spec = SpectrumSummary(0.1, 100.0)
        b1, b2 = derivative_bounds(spec, 100, 6, 1e12)
        assert b1 < 1e-10 and b2 < 1e-10

    def test_exact_derivatives_respect_bounds(self):
        model = random_model(n=100, q=1, seed=51, alpha=0.2)
        solver = dense_solver(model)
        spec = spectrum_bounds(solver)
        for eta in np.logspace(-2, 3, 20):
            b1, b2 = derivative_bounds(spec, model.n, model.m, eta)
            assert abs(d_ell_deta(model, eta, solver)) <= b1 * (1 + 1e-9)
            assert abs(d2_ell_deta2(model, eta, solver)) <= b2 * (1 + 1e-9)

    def test_eigenvalue_sandwich_of_m_spectrum(self):
        # nonzero eigenvalues of M_{1,eta} sit inside
        # [1/(lambda_max+eta), 1/(lambda_min+eta)]
        model = random_model(n=12, q=1, seed=52)
        spec = spectrum_bounds(dense_solver(model))
        for eta in (0.2, 2.0):
            psi = np.sort(np.linalg.eigvalsh(dense_m1(model, eta)))
            nonzero = psi[model.m:]
            assert nonzero[0] >= 1.0 / (spec.lambda_max + eta) - 1e-12
            assert nonzero[-1] <= 1.0 / (spec.lambda_min + eta) + 1e-12

    def test_rayleigh_quotient_sandwich(self):
        model = random_model(n=12, q=1, seed=53)
        solver = dense_solver(model)
        for eta in (0.2, 2.0):
            psi = np.sort(np.linalg.eigvalsh(dense_m1(model, eta)))
            ev = profile_ell(model, eta, solver)
            ratio = ev.z_m2_z / ev.z_m_z
            assert psi[model.m] - 1e-12 <= ratio <= psi[-1] + 1e-12


class TestEllGapBound:
    def test_zero_gap(self):
        spec = SpectrumSummary(0.5, 10.0)
        assert ell_gap_bound(spec, 40, 4, 3.0, 3.0) == 0.0

    def test_likelihood_differences_respect_bound(self):
        model = random_model(n=100, q=1, seed=54, alpha=0.2)
        solver = dense_solver(model)
        spec = spectrum_bounds(solver)
        etas = np.logspace(-2, 2, 7)
        ells = [profile_ell(model, e, solver).ell for e in etas]
        for i in range(len(etas)):
            for j in range(i + 1, len(etas)):
                bound = ell_gap_bound(spec, model.n, model.m,
                                      etas[i], etas[j])
                assert abs(ells[i] - ells[j]) <= bound * (1 + 1e-9)

    def test_monotone_in_separation(self):
        spec = SpectrumSummary(0.1, 50.0)
        base = 1.0
        gaps = [ell_gap_bound(spec, 60, 5, base, base * 10.0 ** k)
                for k in range(5)]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))


class TestAsymptote:
    def test_degenerate_data_rejected(self):
        rng = np.random.default_rng(55)
        pts = rng.uniform(size=(9, 2))
        X = build_design(pts, BasisSpec("polynomial", 1))
        K = correlation_matrix(pts, CorrelationKernel("exponential", 0.2))
        model = GpModel(X.entries @ np.ones(3), X, K, pts)
        with pytest.raises(ModelError):
            asymptote_coefficients(model)

    def test_coefficients_match_dense_construction(self):
        model = random_model(n=10, q=1, seed=56)
        coeffs = asymptote_coefficients(model)
        Q, N = dense_q_n(model)
        n, m = model.n, model.m
        t1 = np.trace(N) / (n - m)
        t2 = np.trace(N @ N) / (n - m)
        zc = model.z / math.sqrt(model.z @ Q @ model.z)
        A0 = -Q @ (t1 * np.eye(n) - N)
        A1 = Q @ (t2 * np.eye(n) + t1 * N - 2.0 * N @ N)
        A2 = -Q @ (t2 * N + t1 * N @ N - 2.0 * N @ N @ N)
        A3 = Q @ (t2 * N @ N - N @ N @ N @ N)
        assert coeffs.a0 == pytest.approx(zc @ A0 @ zc, rel=1e-9)
        assert coeffs.a1 == pytest.approx(zc @ A1 @ zc, rel=1e-9)
        assert coeffs.a2 == pytest.approx(zc @ A2 @ zc, rel=1e-9)
        assert coeffs.a3 == pytest.approx(zc @ A3 @ zc, rel=1e-9)

    def test_higher_matrices_factor_through_lower_ones(self):
        # A2 = -A1 N and A3 = (A1 + A0 N) N^2, as applied to the data vector
        model = random_model(n=10, q=1, seed=57)
        Q, N = dense_q_n(model)
        n, m = model.n, model.m
        t1 = np.trace(N) / (n - m)
        t2 = np.trace(N @ N) / (n - m)
        zc = model.z / math.sqrt(model.z @ Q @ model.z)
        A0 = -Q @ (t1 * np.eye(n) - N)
        A1 = Q @ (t2 * np.eye(n) + t1 * N - 2.0 * N @ N)
        A2 = -Q @ (t2 * N + t1 * N @ N - 2.0 * N @ N @ N)
        A3 = Q @ (t2 * N @ N - N @ N @ N @ N)
        np.testing.assert_allclose(A2 @ zc, -A1 @ N @ zc, atol=1e-9)
        np.testing.assert_allclose(A3 @ zc, (A1 + A0 @ N) @ N @ N @ zc,
                                   atol=1e-9)

    def test_asymptote_approaches_exact_derivative(self):
        model = random_model(n=100, q=1, seed=58, alpha=0.2)
        solver = dense_solver(model)
        coeffs = asymptote_coefficients(model)
        rel_errs = []
        for eta in (1e3, 1e4, 1e5, 1e6):
            exact = d_ell_deta(model, eta, solver)
            approx = asymptote_d_ell(coeffs, model.n, model.m, eta, order=2)
            rel_errs.append(abs(approx - exact) / abs(exact))
        assert rel_errs[-1] < 1e-3
        assert rel_errs[-1] < rel_errs[0]

    @pytest.mark.parametrize("taper", [0.0, 0.3])
    def test_traces_are_exact_when_n_far_exceeds_m(self, taper):
        # n = 150 and m = 1: n >> m, the regime of Remark 13's surrogates
        # n and ||K||_F^2 for trace(N) and trace(N^2); dense and sparse K
        model = random_model(n=150, q=0, seed=59)
        K = correlation_matrix(model.points, CorrelationKernel(
            "exponential", 0.4, taper_threshold=taper))
        assert K.storage == ("sparse" if taper else "dense")
        model = GpModel(model.z, model.X, K, model.points)
        coeffs = asymptote_coefficients(model)
        _, N = dense_q_n(model)
        assert coeffs.trace_n == pytest.approx(np.trace(N), rel=1e-9)
        assert coeffs.trace_n2 == pytest.approx(np.trace(N @ N), rel=1e-9)

    def test_neumann_expansion_error_decays_like_eta_fourth(self):
        model = random_model(n=8, q=1, seed=60)
        Q, N = dense_q_n(model)
        errs = []
        for eta in (1e3, 2e3, 4e3, 8e3, 1.6e4, 3.2e4):
            M = dense_m1(model, eta)
            approx = (Q - Q @ N / eta + Q @ N @ N / eta ** 2) / eta
            errs.append(np.max(np.abs(M - approx)))
        for a, b in zip(errs, errs[1:]):
            assert 8.0 <= a / b <= 32.0  # nominal ratio 2^4 = 16


class TestAsymptoteRoots:
    def test_linear_root(self):
        coeffs = AsymptoteCoefficients(1.0, -2.0, 0.0, 0.0, 0.0, 0.0)
        assert asymptote_roots(coeffs, 1) == [2.0]

    def test_no_linear_root_when_leading_term_vanishes(self):
        coeffs = AsymptoteCoefficients(0.0, -2.0, 0.0, 0.0, 0.0, 0.0)
        assert asymptote_roots(coeffs, 1) == []

    def test_cubic_roots_match_companion_matrix_oracle(self):
        coeffs = AsymptoteCoefficients(2.0, -13.0, 17.0, 10.0, 0.0, 0.0)
        got = asymptote_roots(coeffs, 2)
        # companion matrix of 2 x^3 - 13 x^2 + 17 x + 10, built by hand
        a = np.array([-13.0, 17.0, 10.0]) / 2.0
        companion = np.zeros((3, 3))
        companion[0, :] = -a
        companion[1, 0] = companion[2, 1] = 1.0
        eigs = np.linalg.eigvals(companion)
        expected = sorted(float(r.real) for r in eigs
                          if abs(r.imag) < 1e-10 and r.real > 0)
        assert got == pytest.approx(expected, rel=1e-9)
        for r in got:
            assert 2.0 * r ** 3 - 13.0 * r ** 2 + 17.0 * r + 10.0 == \
                pytest.approx(0.0, abs=1e-9 * max(1.0, r ** 3))


class TestSearchInterval:
    def test_unit_spectrum_without_roots(self):
        spec = SpectrumSummary(0.3, 1.0)
        lo, hi = search_interval(spec, [])
        assert lo == pytest.approx(0.03)
        assert hi == pytest.approx(10.0)

    def test_clamped_to_global_range(self):
        spec = SpectrumSummary(1e-12, 1e12)
        lo, hi = search_interval(spec, [1e15])
        assert lo == 1e-6
        assert hi == 1e8

    def test_contains_all_roots_found_by_dense_scan(self):
        for seed in (61, 62, 63):
            model = random_model(n=60, q=1, seed=seed, alpha=0.3)
            solver = dense_solver(model)
            spec = spectrum_bounds(solver)
            coeffs = asymptote_coefficients(model)
            roots = asymptote_roots(coeffs, 1) + asymptote_roots(coeffs, 2)
            lo, hi = search_interval(spec, roots)
            grid = np.logspace(-6, 8, 141)
            vals = [d_ell_deta(model, e, solver) for e in grid]
            for i in range(len(grid) - 1):
                if np.sign(vals[i]) != np.sign(vals[i + 1]):
                    assert lo <= grid[i + 1] and grid[i] <= hi
