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

from .errors import InputError, ModelError, NumericError
from .model import GpModel, Solver, one_blas_thread

INTERVAL_FLOOR = 1e-6
INTERVAL_CEIL = 1e8


@dataclass
class SpectrumSummary:
    """Extreme eigenvalues of K, or certified Ritz bounds on them if sparse."""

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


def spectrum_bounds(solver: Solver) -> SpectrumSummary:
    """Extreme eigenvalues of the solver's K (``Solver.extreme_eigvals``):
    the ends of the dense spectrum, or certified Ritz bounds on sparse K,
    where an indefinite K raises SolverError first."""
    return SpectrumSummary(*solver.extreme_eigvals())


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
    """||K||_F^2 of a model's correlation matrix, in either storage."""
    A = K.entries
    if K.storage == "sparse":
        return float(A.multiply(A).sum())
    # einsum makes no n x n temporary, which would add a third n x n array
    # to K and its tridiagonal reduction in a dense fit
    return float(np.einsum("ij,ij->", A, A))


def asymptote_coefficients(model: GpModel) -> AsymptoteCoefficients:
    """Build the expansion coefficients a_i = y0' A_i y0 via matrix actions.

    Powers of N = K Q are never materialized; each a_i comes from nested
    K-products and projections Q = I - U U' (U = ``GpModel.basis``) applied
    to y0, the normalized ``residual``.  tr N and tr N^2 come from one
    product KU.
    """
    if model.degenerate:
        raise ModelError("observations lie in the range of the design "
                         "matrix; asymptote coefficients are undefined")
    n, m = model.n, model.m
    U = model.basis
    K = model.K.entries

    def q_apply(v):
        return v - U @ (U.T @ v)

    y0 = model.residual / np.linalg.norm(model.residual)
    # products of K with thin blocks run on one thread, as in the solver
    with one_blas_thread():
        KU = K @ U
        v1 = K @ y0
        v2 = K @ q_apply(v1)
        v3 = K @ q_apply(v2)
        v4 = K @ q_apply(v3)
    UKU = U.T @ KU
    trace_n = float(n - np.trace(UKU))
    trace_n2 = float(_frobenius_sq(model.K) - 2.0 * np.sum(KU * KU)
                     + np.sum(UKU * UKU))

    t1 = trace_n / (n - m)
    t2 = trace_n2 / (n - m)

    p1 = float(y0 @ v1)
    p2 = float(y0 @ v2)
    p3 = float(y0 @ v3)
    p4 = float(y0 @ v4)

    a0 = -t1 + p1
    a1 = t2 + t1 * p1 - 2.0 * p2
    a2 = -(t2 * p1 + t1 * p2 - 2.0 * p3)
    a3 = t2 * p2 - p4
    return AsymptoteCoefficients(a0, a1, a2, a3, trace_n, trace_n2)


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
