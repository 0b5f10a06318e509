"""Shared fixtures: small random model instances and dense oracles.

The dense helpers build M_{1,eta}, P_eta, G, H explicitly from their
definitions with plain inverses, and the trace oracle reads the spectrum
of K from LAPACK's dense symmetric eigensolver; the library under test
never does either, so these serve as independent references.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from etafit.design import BasisSpec, build_design
from etafit.kernels import (CorrelationKernel, correlation_matrix,
                            require_dense_memory)
from etafit.model import GpModel, Solver, spectral_jitter
from etafit.traces import ExactTraceProvider


def random_model(n=8, q=1, seed=0, alpha=0.4, noise=0.3):
    """Small dense model with polynomial mean plus correlated bumps."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(size=(n, 2))
    X = build_design(pts, BasisSpec("polynomial", q))
    K = correlation_matrix(pts, CorrelationKernel("exponential", alpha))
    beta = rng.standard_normal(X.m)
    z = X.entries @ beta + noise * rng.standard_normal(n) \
        + 0.5 * np.sin(6.0 * pts[:, 0])
    return GpModel(z, X, K, pts)


def dense_solver(model):
    return Solver(model.K)


def oracle_traces(K):
    """The dense trace oracle: exact traces over the full spectrum of K
    (densified, ``eigvalsh``), shifted by the library's jitter policy.  It
    raises InputError up front when the available memory cannot hold the
    dense copy of sparse K and the eigensolver's own copy."""
    copies = 2.0 if K.storage == "sparse" else 1.0
    require_dense_memory(K.n, copies, "its dense eigensolve")
    eigvals = sla.eigvalsh(K.toarray(), check_finite=False)
    return ExactTraceProvider(
        eigvals + spectral_jitter(float(eigvals[0]), eigvals.size))


def m_action(model, eta, solver):
    """w = M_{1,eta} z = K_eta^{-1} [U | z] v with v = [-beta; 1] and beta
    from the solver's Gram matrix (``gls_beta``)."""
    v = np.append(-gls_beta(model, eta, solver), 1.0)
    return solver.solve(eta, np.column_stack([model.basis, model.z]) @ v)


def gls_beta(model, eta, solver):
    """GLS coefficients (U' Kinv U)^{-1} U' Kinv z in the model's
    orthonormal basis U of range(X), from the solver's
    G_1 = [U | z]' Kinv [U | z]."""
    G1 = solver.grams(model, eta, 1)[0]
    m = model.m
    return np.linalg.solve(G1[:m, :m], G1[m, :m])


def dense_m1(model, eta):
    """M_{1,eta} built from its definition with explicit inverses, on the
    orthonormal basis U of range(X), on which M depends alone."""
    n = model.n
    Kinv = np.linalg.inv(model.K.toarray() + eta * np.eye(n))
    U = model.basis
    mid = np.linalg.inv(U.T @ Kinv @ U)
    return Kinv - Kinv @ U @ mid @ U.T @ Kinv


def dense_p(model, eta):
    """Projection P_eta = I - X (X' Kinv X)^{-1} X' Kinv, built on the
    orthonormal basis U of range(X) in place of X."""
    n = model.n
    Kinv = np.linalg.inv(model.K.toarray() + eta * np.eye(n))
    U = model.basis
    mid = np.linalg.inv(U.T @ Kinv @ U)
    return np.eye(n) - U @ mid @ U.T @ Kinv


def dense_g_h(model, eta):
    """The stationarity matrices G_eta, H_eta from dense M powers."""
    n, m = model.n, model.m
    M = dense_m1(model, eta)
    M2 = M @ M
    M3 = M2 @ M
    t1 = np.trace(M) / (n - m)
    t2 = np.trace(M2) / (n - m)
    G = t1 * M - M2
    H = (t2 + t1 ** 2) * M - 2.0 * M3
    return G, H


@pytest.fixture
def small_model():
    return random_model(n=8, q=1, seed=1)
