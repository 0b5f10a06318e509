"""Shared fixtures: small random model instances and dense oracles.

The dense helpers build M_{1,eta}, P_eta, G, H explicitly from their
definitions with plain inverses; the library under test never does, so
these serve as independent references.
"""

import numpy as np
import pytest

from etafit.design import BasisSpec, build_design
from etafit.kernels import CorrelationKernel, correlation_matrix
from etafit.model import GpModel, Solver


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
    return Solver(model.K, "dense")


def dense_m1(model, eta):
    """M_{1,eta} built from its definition with explicit inverses."""
    n = model.n
    Kinv = np.linalg.inv(model.K.toarray() + eta * np.eye(n))
    X = model.X.entries
    mid = np.linalg.inv(X.T @ Kinv @ X)
    return Kinv - Kinv @ X @ mid @ X.T @ Kinv


def dense_p(model, eta):
    """Projection P_eta = I - X (X' Kinv X)^{-1} X' Kinv."""
    n = model.n
    Kinv = np.linalg.inv(model.K.toarray() + eta * np.eye(n))
    X = model.X.entries
    mid = np.linalg.inv(X.T @ Kinv @ X)
    return np.eye(n) - X @ mid @ X.T @ Kinv


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
