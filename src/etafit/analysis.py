"""Bounds and large-eta asymptotes of the profiled likelihood derivative,
used to bracket and initialize the search over the variance ratio.

The derivative bounds depend only on the extreme eigenvalues of K.  The
asymptote replaces the M-matrix by its Neumann expansion around eta = inf,
giving a cubic polynomial whose positive real roots approximate large-eta
stationary points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .errors import InputError, ModelError, NumericError
from .kernels import CorrelationMatrix
from .model import GpModel

SPARSE_EIG_TOL = 1e-8
INTERVAL_FLOOR = 1e-6
INTERVAL_CEIL = 1e8
# Remark-13 regime: approximate trace(N), trace(N^2) when n >> m.
LARGE_N_FACTOR = 50


@dataclass
class SpectrumSummary:
    """Smallest and largest eigenvalues of the correlation matrix."""

    lambda_min: float
    lambda_max: float

    def __post_init__(self):
        if not self.lambda_min <= self.lambda_max:
            raise NumericError(
                f"invalid spectrum: {self.lambda_min} > {self.lambda_max}")


@dataclass
class AsymptoteCoefficients:
    """Quadratic-form coefficients of the large-eta derivative expansion."""

    a0: float
    a1: float
    a2: float
    a3: float
    trace_n: float
    trace_n2: float
    large_n_approx: bool


def spectrum_bounds(K, eigvals: np.ndarray | None = None) -> SpectrumSummary:
    """Extreme eigenvalues of K.

    Read off ``eigvals`` (ascending, such as a dense Solver's spectrum)
    when the spectrum is already known; otherwise two subset eigensolves
    for dense K, or ``eigsh`` for sparse K.
    """
    if eigvals is not None:
        return SpectrumSummary(float(eigvals[0]), float(eigvals[-1]))
    is_corr = isinstance(K, CorrelationMatrix)
    if is_corr and K.storage == "sparse":
        A = K.entries
        # a seeded start vector (ARPACK's own is drawn afresh per call) makes
        # the bounds, and so every sparse estimate, reproducible
        v0 = np.random.default_rng(0).uniform(-1.0, 1.0, A.shape[0])
        try:
            lam_max = float(spla.eigsh(A, k=1, which="LA", tol=SPARSE_EIG_TOL,
                                       v0=v0, return_eigenvectors=False)[0])
            lam_min = float(spla.eigsh(A, k=1, sigma=0.0, which="LM",
                                       tol=SPARSE_EIG_TOL, v0=v0,
                                       return_eigenvectors=False)[0])
        except Exception as exc:
            raise NumericError(f"sparse eigensolve failed: {exc}") from None
        return SpectrumSummary(lam_min, lam_max)
    A = K.entries if is_corr else np.asarray(K, dtype=float)
    n = A.shape[0]
    try:
        lam_min = float(sla.eigh(A, eigvals_only=True, check_finite=False,
                                 subset_by_index=[0, 0])[0])
        lam_max = float(sla.eigh(A, eigvals_only=True, check_finite=False,
                                 subset_by_index=[n - 1, n - 1])[0])
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolve failed: {exc}") from None
    return SpectrumSummary(lam_min, lam_max)


def derivative_bounds(spec: SpectrumSummary, n: int, m: int,
                      eta: float) -> tuple[float, float]:
    """Envelopes for |d ell/d eta| and |d^2 ell/d eta^2| at one eta."""
    if eta < 0:
        raise InputError("eta must be nonnegative")
    lo, hi = spec.lambda_min, spec.lambda_max
    b1 = 0.5 * (n - m) * (1.0 / (lo + eta) - 1.0 / (hi + eta))
    b2 = (n - m) * (1.0 / (lo + eta) ** 2 - 1.0 / (hi + eta) ** 2)
    return b1, b2


def ell_gap_bound(spec: SpectrumSummary, n: int, m: int, eta: float,
                  eta_prime: float) -> float:
    """Upper bound on |ell(eta) - ell(eta')| from integrating the envelope."""
    if eta < 0 or eta_prime < 0:
        raise InputError("eta values must be nonnegative")
    lo, hi = spec.lambda_min, spec.lambda_max
    ratio = ((lo + eta) / (hi + eta)) * ((hi + eta_prime) / (lo + eta_prime))
    return abs(0.5 * (n - m) * math.log(ratio))


def _frobenius_sq(K) -> float:
    if isinstance(K, CorrelationMatrix) and K.storage == "sparse":
        E = K.entries
        return float(E.multiply(E).sum())
    A = K.entries if isinstance(K, CorrelationMatrix) else np.asarray(K)
    return float(np.sum(A * A))


def asymptote_coefficients(model: GpModel,
                           large_n_approx: bool = False) -> AsymptoteCoefficients:
    """Build the expansion coefficients a_i = zc' A_i zc via matrix actions.

    Powers of N = K Q are never materialized; each a_i comes from nested
    K-products and projections applied to the normalized data vector.  With
    ``large_n_approx`` the two traces are replaced by their n >> m
    surrogates n and ||K||_F^2.
    """
    n, m = model.n, model.m
    X = model.X.entries
    z = model.z
    K = model.K.entries

    xtx_factor = sla.cho_factor(X.T @ X, lower=True, check_finite=False)

    def q_apply(v):
        return v - X @ sla.cho_solve(xtx_factor, X.T @ v, check_finite=False)

    qz = q_apply(z)
    znorm_sq = float(z @ qz)
    if znorm_sq <= 0 or model.degenerate:
        raise ModelError("observations lie in the range of the design "
                         "matrix; asymptote coefficients are undefined")
    zc = z / math.sqrt(znorm_sq)

    if large_n_approx:
        trace_n = float(n)
        trace_n2 = _frobenius_sq(model.K)
    else:
        W = K @ X
        G_S = sla.cho_solve(xtx_factor, X.T @ W, check_finite=False)
        trace_n = float(n - np.trace(G_S))
        G_WtW = sla.cho_solve(xtx_factor, W.T @ W, check_finite=False)
        trace_n2 = float(_frobenius_sq(model.K) - 2.0 * np.trace(G_WtW)
                         + np.trace(G_S @ G_S))

    t1 = trace_n / (n - m)
    t2 = trace_n2 / (n - m)

    y0 = q_apply(zc)
    v1 = K @ y0
    v2 = K @ q_apply(v1)
    v3 = K @ q_apply(v2)
    v4 = K @ q_apply(v3)

    p1 = float(y0 @ v1)
    p2 = float(y0 @ v2)
    p3 = float(y0 @ v3)
    p4 = float(y0 @ v4)

    a0 = -t1 + p1
    a1 = t2 + t1 * p1 - 2.0 * p2
    a2 = -(t2 * p1 + t1 * p2 - 2.0 * p3)
    a3 = t2 * p2 - p4
    return AsymptoteCoefficients(a0, a1, a2, a3, trace_n, trace_n2,
                                 large_n_approx)


def asymptote_d_ell(coeffs: AsymptoteCoefficients, n: int, m: int,
                    eta: float, order: int = 2) -> float:
    """Asymptotic approximation of d ell/d eta at large eta."""
    if order not in (1, 2):
        raise InputError("asymptote order must be 1 or 2")
    acc = coeffs.a0 + coeffs.a1 / eta
    if order == 2:
        acc += coeffs.a2 / eta ** 2 + coeffs.a3 / eta ** 3
    return -0.5 * (n - m) * acc / eta ** 2


def asymptote_roots(coeffs: AsymptoteCoefficients, order: int) -> list[float]:
    """Positive real roots of the expansion polynomial, ascending.

    Order 1 solves a0 eta + a1 = 0; order 2 keeps the full cubic (the a2 and
    a3 terms are kept or dropped together).
    """
    if order not in (1, 2):
        raise InputError("asymptote order must be 1 or 2")
    if order == 1:
        if coeffs.a0 == 0.0:
            return []
        root = -coeffs.a1 / coeffs.a0
        return [root] if root > 0 else []
    poly = np.array([coeffs.a0, coeffs.a1, coeffs.a2, coeffs.a3])
    if np.all(poly == 0.0):
        return []
    roots = np.roots(poly)
    real = roots[np.abs(roots.imag) <= 1e-8 * np.maximum(1.0, np.abs(roots))]
    positive = sorted(float(r.real) for r in real if r.real > 0)
    return positive


def search_interval(spec: SpectrumSummary,
                    asym_roots=()) -> tuple[float, float]:
    """Root-search interval [lambda_min/10, 10*max(lambda_max, roots, 1)],
    clamped to [1e-6, 1e8]."""
    largest_root = max(asym_roots) if len(asym_roots) else 0.0
    lo = spec.lambda_min / 10.0
    hi = 10.0 * max(spec.lambda_max, largest_root, 1.0)
    lo = min(max(lo, INTERVAL_FLOOR), INTERVAL_CEIL)
    hi = min(max(hi, INTERVAL_FLOOR), INTERVAL_CEIL)
    if lo >= hi:
        lo = hi / 10.0
    return lo, hi
