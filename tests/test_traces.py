import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_traces
from etafit.errors import InputError
from etafit.kernels import CorrelationKernel, CorrelationMatrix, \
    correlation_matrix
from etafit.model import Solver
from etafit.traces import (ExactTraceProvider, HutchinsonTraceProvider,
                           eval_tau, fit_tau_interpolant,
                           trace_inv_hutchinson)


def random_corr(n, seed=0, alpha=0.3):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 2))
    return correlation_matrix(pts, CorrelationKernel("exponential", alpha))


def random_spd(n, seed=0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    S = A @ A.T / n + np.eye(n)
    return CorrelationMatrix(S)


def solver_traces(K):
    """Exact traces from the dense solver's own spectrum."""
    return ExactTraceProvider(Solver(K).eigvals)


class TestExactTraces:
    def test_identity_closed_form(self):
        K = CorrelationMatrix(np.eye(40))
        for traces in (oracle_traces(K), solver_traces(K)):
            for eta in (0.0, 1.0, 7.5):
                assert traces(eta) == pytest.approx(40.0 / (1.0 + eta),
                                                    rel=1e-12)

    def test_eigen_matches_explicit_inverse(self):
        K = random_spd(50, seed=1)
        traces = oracle_traces(K)
        for eta in (0.0, 0.3, 10.0):
            expected = float(np.trace(np.linalg.inv(
                K.entries + eta * np.eye(50))))
            assert traces(eta) == pytest.approx(expected, abs=1e-9)

    def test_solver_spectrum_matches_explicit_inverse(self):
        K = random_spd(50, seed=2)
        traces = solver_traces(K)
        for eta in (0.0, 0.3, 10.0):
            inv = np.linalg.inv(K.entries + eta * np.eye(50))
            assert traces(eta, 1) == pytest.approx(float(np.trace(inv)),
                                                   abs=1e-9)
            assert traces(eta, 2) == pytest.approx(float(np.sum(inv * inv)),
                                                   abs=1e-9)

    def test_oracle_and_solver_spectrum_agree(self):
        K = random_corr(200, seed=3)
        oracle, traces = oracle_traces(K), solver_traces(K)
        for eta in (0.1, 1.0, 100.0):
            assert traces(eta) == pytest.approx(oracle(eta), rel=1e-8)


class TestHutchinson:
    def test_identity_has_zero_variance(self):
        K = CorrelationMatrix(np.eye(25))
        solver = Solver(K)
        est, stderr = trace_inv_hutchinson(1.5, solver, 8, seed=0)
        assert est == pytest.approx(25.0 / 2.5, rel=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_single_vector_rejected(self):
        K = CorrelationMatrix(np.eye(5))
        solver = Solver(K)
        with pytest.raises(InputError):
            trace_inv_hutchinson(1.0, solver, 1)

    def test_provider_rejects_powers_other_than_one_and_two(self):
        provider = HutchinsonTraceProvider(Solver(CorrelationMatrix(
            np.eye(25))), 8, seed=0)
        assert provider(1.5, 2) == pytest.approx(25.0 / 2.5 ** 2, rel=1e-12)
        for power in (0, 3):
            with pytest.raises(InputError, match="powers 1 and 2"):
                provider(1.5, power)

    def test_deterministic_given_seed(self):
        K = random_corr(60, seed=4)
        solver = Solver(K)
        a = trace_inv_hutchinson(0.5, solver, 10, seed=42)
        b = trace_inv_hutchinson(0.5, solver, 10, seed=42)
        assert a == b
        c = trace_inv_hutchinson(0.5, solver, 10, seed=43)
        assert a != c

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    def test_block_probes_match_per_vector_loop(self, storage):
        # reference: one generator and one solve per probe vector
        def per_vector(K, eta, solver, n_vectors, seed, power):
            seqs = np.random.SeedSequence(seed).spawn(n_vectors)
            samples = []
            for seq in seqs:
                rng = np.random.default_rng(seq)
                v = rng.integers(0, 2, size=K.n) * 2.0 - 1.0
                x = solver.solve(eta, v)
                samples.append(float(v @ x) if power == 1 else float(x @ x))
            return float(np.mean(samples))

        rng = np.random.default_rng(16)
        K = correlation_matrix(rng.uniform(size=(300, 2)),
                               CorrelationKernel("exponential", 0.1,
                                                 taper_threshold=0.05))
        assert K.storage == "sparse"
        if storage == "dense":
            K = CorrelationMatrix(K.toarray())
        solver = Solver(K)
        assert solver.K.storage == storage
        provider = HutchinsonTraceProvider(solver, 12, seed=5)
        for eta in (0.05, 1.0):
            ref1 = per_vector(K, eta, solver, 12, 5, 1)
            assert trace_inv_hutchinson(eta, solver, 12, seed=5)[0] == \
                pytest.approx(ref1, rel=1e-12)
            assert provider(eta, 1) == pytest.approx(ref1, rel=1e-12)
            assert provider(eta, 2) == pytest.approx(
                per_vector(K, eta, solver, 12, 5, 2), rel=1e-12)

    def test_three_sigma_coverage(self):
        # statistical oracle: the exact trace should fall within three
        # standard errors in at least 95% of seeded trials
        K = random_corr(300, seed=5)
        solver = Solver(K)
        eta = 1.0
        exact = oracle_traces(K)(eta)
        hits = 0
        for seed in range(100):
            est, stderr = trace_inv_hutchinson(eta, solver, 50, seed=seed)
            if abs(est - exact) <= 3.0 * stderr:
                hits += 1
        assert hits >= 95


class TestTauInterpolant:
    def test_exact_at_origin_and_nodes(self):
        K = random_corr(80, seed=6)
        interp = fit_tau_interpolant((1.0, 10.0, 100.0), oracle_traces(K))
        assert eval_tau(interp, 0.0) == interp.tau0
        for node, tau in zip(interp.nodes, interp.tau_values):
            assert eval_tau(interp, node) == pytest.approx(tau, rel=1e-8)

    def test_weights_start_with_unit_coefficient(self):
        K = random_corr(40, seed=7)
        interp = fit_tau_interpolant((1.0, 30.0), oracle_traces(K))
        assert interp.weights[0] == 1.0
        assert len(interp.weights) == 3

    def test_p_zero_is_upper_bound(self):
        # with no nodes the interpolant provably bounds tau from above
        K = random_corr(120, seed=8)
        exact_traces = oracle_traces(K)
        interp = fit_tau_interpolant((), exact_traces)
        for eta in np.logspace(-3, 4, 30):
            exact = exact_traces(eta) / K.n
            assert eval_tau(interp, eta) >= exact * (1.0 - 1e-12)

    def test_accuracy_against_exact_traces_within_node_span(self):
        # the fractional-power basis tracks tau tightly between the first
        # and the last node; below the first node only the exact tau0
        # anchor remains
        K = random_corr(200, seed=9, alpha=0.15)
        exact_traces = oracle_traces(K)
        interp = fit_tau_interpolant((1.0, 10.0, 40.0, 100.0, 1000.0),
                                     exact_traces)
        for eta in np.logspace(0, 3, 25):
            exact = exact_traces(eta) / K.n
            assert eval_tau(interp, eta) == pytest.approx(exact, rel=0.01)

    def test_tau_is_decreasing_over_node_range(self):
        K = random_corr(90, seed=10)
        interp = fit_tau_interpolant((1.0, 10.0, 100.0), oracle_traces(K))
        grid = np.logspace(0, 2, 60)
        vals = [eval_tau(interp, e) for e in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_large_eta_asymptote(self):
        K = random_corr(100, seed=11)
        exact_traces = oracle_traces(K)
        interp = fit_tau_interpolant((1.0, 10.0, 100.0, 1000.0),
                                     exact_traces)
        eta = 1e6
        exact = exact_traces(eta)
        assert K.n * eval_tau(interp, eta) == pytest.approx(K.n / eta,
                                                            rel=0.05)
        assert K.n * eval_tau(interp, eta) == pytest.approx(exact, rel=0.05)

    def test_too_many_nodes_rejected(self):
        K = random_corr(30, seed=12)
        with pytest.raises(InputError):
            fit_tau_interpolant(tuple(float(i) for i in range(1, 11)),
                                oracle_traces(K))

    def test_bad_nodes_rejected(self):
        K = random_corr(30, seed=12)
        with pytest.raises(InputError):
            fit_tau_interpolant((1.0, 1.0), oracle_traces(K))
        with pytest.raises(InputError):
            fit_tau_interpolant((-1.0, 2.0), oracle_traces(K))

    def test_hutchinson_backed_fit(self):
        K = random_corr(70, seed=14)
        solver = Solver(K)
        interp = fit_tau_interpolant(
            (1.0, 10.0), HutchinsonTraceProvider(solver, 30, seed=1))
        exact_traces = oracle_traces(K)
        for eta in (0.5, 5.0, 50.0):
            exact = exact_traces(eta) / K.n
            assert eval_tau(interp, eta) == pytest.approx(exact, rel=0.1)

    @settings(max_examples=25, deadline=None)
    @given(eta=st.floats(0.0, 1e6))
    def test_eval_tau_positive(self, eta):
        K = random_corr(30, seed=15)
        interp = fit_tau_interpolant((1.0, 10.0), oracle_traces(K))
        assert eval_tau(interp, eta) > 0.0

    def test_nonfinite_eta_rejected(self):
        K = random_corr(20, seed=16)
        interp = fit_tau_interpolant((1.0,), oracle_traces(K))
        with pytest.raises(InputError):
            eval_tau(interp, float("nan"))
        with pytest.raises(InputError):
            eval_tau(interp, -2.0)
