"""Log marginal likelihood, its profiled form over the error variance, and
analytic first/second derivatives in the variance ratio eta.

With Sigma = sigma^2 (K + eta I) the marginal likelihood over the data (with
the regression coefficients integrated out) profiles in closed form over
sigma^2; what remains is a univariate function of eta whose derivatives are
built from traces of K_eta^-p and the (m+1) x (m+1) Gram matrices
G_p = R' K_eta^-p R of R = [X | z] (``Solver.grams``): every quadratic form
and trace of M is m x m algebra on them.  Derivative evaluations never
touch the log-determinant, so they stay cheap on sparse paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla

from .errors import InputError, ModelError
from .model import GpModel, Solver
from .traces import (DEFAULT_HUTCHINSON_VECTORS, ExactTraceProvider,
                     HutchinsonTraceProvider)

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class LikelihoodEval:
    """Profiled likelihood value and derivatives at one eta.

    ``ell``, the first-order fields and the second-order fields are None
    when not requested.  Traces may be interpolated surrogates depending on
    the provider.
    """

    eta: float
    sigma2_hat: float
    ell: float | None
    d_ell: float | None
    d2_ell: float | None = None
    z_m_z: float = 0.0
    z_m2_z: float = 0.0
    z_m3_z: float | None = None
    trace_m1: float | None = None
    trace_m1_sq: float | None = None


def trace_provider(solver: Solver, seed: int = 0):
    """The trace route of the solver's backend: exact traces from the
    dense solver's spectrum (the eigenvalues of its tridiagonal T),
    Hutchinson estimates with DEFAULT_HUTCHINSON_VECTORS probes on sparse
    K, read by Gauss quadrature from one block Lanczos run on the probes
    (no dense matrix)."""
    if solver.eigvals is None:
        return HutchinsonTraceProvider(solver.K, solver,
                                       DEFAULT_HUTCHINSON_VECTORS, seed)
    return ExactTraceProvider(solver.K, solver.eigvals)


def _pieces(model: GpModel, eta: float, solver: Solver,
            count: int) -> SimpleNamespace:
    """Shared per-eta quantities, all m x m: the Gram matrices
    G_p = R' K_eta^{-p} R of R = [X | z] for p <= count (``Solver.grams``),
    the factor of B = X' K_eta^{-1} X, the GLS coefficients beta, and
    v = [-beta; 1], so that M z = K_eta^{-1} R v and z' M z = G_1[m] v.
    """
    G = solver.grams(model, eta, count)
    m = model.m
    B = G[0][:m, :m]
    try:
        B_factor = sla.cho_factor(B, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"X' K_eta^{{-1}} X is singular: {exc}") from None
    # pivots^2 bound the spectrum of B, so a ratio at rounding level means
    # B is singular at working precision even when the factorization ran
    pivots = np.diag(B_factor[0]) ** 2
    ratio = pivots.min() / pivots.max()
    if ratio <= B.shape[0] * np.finfo(float).eps:
        raise ModelError(f"X' K_eta^{{-1}} X is singular at eta={eta} "
                         f"(Cholesky pivot ratio {ratio:.1e})")
    # G_1 = E'(T + eta I)^-1 E is symmetric only to rounding; taking
    # b from row m makes z'Mz = G_1[m, m] - b' B^-1 b a Schur complement
    beta = sla.cho_solve(B_factor, G[0][m, :m], check_finite=False)
    v = np.append(-beta, 1.0)
    logdet_B = 2.0 * float(np.sum(np.log(np.diag(B_factor[0]))))
    return SimpleNamespace(G=G, B_factor=B_factor, beta=beta, v=v,
                           z_m_z=float(G[0][m] @ v), logdet_B=logdet_B)


def _require_nondegenerate(model: GpModel):
    if model.degenerate:
        raise ModelError(
            "observations lie in the range of the design matrix; the error "
            "variance is identically zero (use the trivial estimates)")


def _evaluate(model: GpModel, eta: float, solver: Solver, traces,
              want_ell: bool, want_first: bool,
              want_second: bool) -> LikelihoodEval:
    _require_nondegenerate(model)
    if traces is None:
        traces = trace_provider(solver)
    n, m = model.n, model.m
    p = _pieces(model, eta, solver, 3 if want_second else 2)
    G2 = p.G[1]
    z_m2_z = float(p.v @ G2 @ p.v)
    s2 = p.z_m_z / (n - m)
    if s2 <= 0:
        raise ModelError(f"nonpositive profiled variance at eta={eta}")

    # B^-1 X' K_eta^-2 X; trace(M) = trace(K_eta^-1) - trace(A)
    A = sla.cho_solve(p.B_factor, G2[:m, :m], check_finite=False)
    t_m1 = d_ell = None
    if want_first:
        t_m1 = traces(eta, 1) - float(np.trace(A))
        d_ell = -0.5 * (t_m1 - z_m2_z / s2)

    ell = None
    if want_ell:
        ell = (-0.5 * (n - m) * LOG_2PI
               - 0.5 * (n - m) * math.log(s2)
               - 0.5 * solver.logdet(eta)
               - 0.5 * p.logdet_B
               - 0.5 * (n - m))

    ev = LikelihoodEval(eta=eta, sigma2_hat=s2, ell=ell, d_ell=d_ell,
                        z_m_z=p.z_m_z, z_m2_z=z_m2_z, trace_m1=t_m1)
    if want_second:
        # M^2 z = K_eta^-2 R v - K_eta^-1 X B^-1 g with g = X' K_eta^-2 R v
        G3 = p.G[2]
        g = G2[:m] @ p.v
        ev.z_m3_z = float(p.v @ G3 @ p.v
                          - g @ sla.cho_solve(p.B_factor, g,
                                              check_finite=False))
        C = sla.cho_solve(p.B_factor, G3[:m, :m], check_finite=False)
        ev.trace_m1_sq = (traces(eta, 2) - 2.0 * float(np.trace(C))
                          + float(np.trace(A @ A)))
        ev.d2_ell = 0.5 * (ev.trace_m1_sq - 2.0 * ev.z_m3_z / s2
                           + z_m2_z ** 2 / ((n - m) * s2 * s2))
    return ev


def sigma2_hat(model: GpModel, eta: float, solver: Solver) -> float:
    """Profiled error variance z' M_{1,eta} z / (n - m); strictly positive."""
    _require_nondegenerate(model)
    return _pieces(model, eta, solver, 1).z_m_z / (model.n - model.m)


def log_marginal_likelihood(model: GpModel, sigma2: float, eta: float,
                            solver: Solver) -> float:
    """Log marginal likelihood at given (sigma2, eta).

    Uses |Sigma| = sigma^(2n) |K_eta| via the solver's log-determinant and
    the dense m x m determinant of X' K_eta^{-1} X.
    """
    _require_nondegenerate(model)
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise InputError(f"sigma2 must be positive, got {sigma2}")
    n, m = model.n, model.m
    p = _pieces(model, eta, solver, 1)
    return (-0.5 * (n - m) * LOG_2PI
            - 0.5 * (n - m) * math.log(sigma2)
            - 0.5 * solver.logdet(eta)
            - 0.5 * p.logdet_B
            - 0.5 * p.z_m_z / sigma2)


def ell_infinite_eta(model: GpModel) -> tuple[float, float]:
    """(limit of the profiled likelihood, sigma02 estimate) as eta -> inf.

    In that limit the covariance is pure noise and the optimal noise
    variance is the plain least-squares residual variance ||z||_P^2/(n-m).
    """
    n, m = model.n, model.m
    coef, *_ = np.linalg.lstsq(model.X.entries, model.z, rcond=None)
    resid = model.z - model.X.entries @ coef
    sigma02 = float(resid @ resid) / (n - m)
    if sigma02 <= 0:
        raise ModelError("degenerate model: zero residual variance")
    sign, logdet_xtx = np.linalg.slogdet(model.X.entries.T @ model.X.entries)
    if sign <= 0:
        raise ModelError("X'X is not positive definite")
    ell = (-0.5 * (n - m) * LOG_2PI
           - 0.5 * (n - m) * math.log(sigma02)
           - 0.5 * logdet_xtx
           - 0.5 * (n - m))
    return ell, sigma02


def profile_ell(model: GpModel, eta: float, solver: Solver,
                traces=None, second_order: bool = False) -> LikelihoodEval:
    """Evaluate the profiled likelihood and its eta-derivatives at one point.

    ``traces`` is a provider callable (eta, power) -> trace(K_eta^{-power});
    when omitted, the solver's own route is used (``trace_provider``):
    exact traces from the dense solver's spectrum, Hutchinson estimates
    on sparse K.
    """
    return _evaluate(model, eta, solver, traces, want_ell=True,
                     want_first=True, want_second=second_order)


def d_ell_deta(model: GpModel, eta: float, solver: Solver,
               traces=None) -> float:
    """First total derivative of the profiled likelihood in eta.

    Costs G_1 and G_2 from the solver and one trace lookup; no
    log-determinant.
    """
    return _evaluate(model, eta, solver, traces, want_ell=False,
                     want_first=True, want_second=False).d_ell


def d2_ell_deta2(model: GpModel, eta: float, solver: Solver,
                 traces=None) -> float:
    """Second total derivative; needs z'M^3 z and trace(M^2), the latter
    from the provider's power-2 route.  The power-1 trace is not read."""
    return _evaluate(model, eta, solver, traces, want_ell=False,
                     want_first=False, want_second=True).d2_ell


def ell_derivative_generic(model: GpModel, sigma2: float, eta: float,
                           sigma_dot, k: int) -> float:
    """k-th derivative of the log marginal likelihood in an arbitrary
    hyperparameter with covariance derivative ``sigma_dot``.

    Dense construction, intended for small n.  ``sigma_dot`` may be an
    n x n symmetric array or a callable applying it to a matrix.  The
    covariance is assumed linear in the hyperparameter for k = 2.
    """
    if k not in (1, 2):
        raise InputError("only derivative orders 1 and 2 are supported")
    _require_nondegenerate(model)
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise InputError(f"sigma2 must be positive, got {sigma2}")
    n = model.n
    Sd = sigma_dot(np.eye(n)) if callable(sigma_dot) else np.asarray(
        sigma_dot, dtype=float)
    if Sd.shape != (n, n):
        raise InputError("sigma_dot must act as an n x n matrix")

    X = model.X.entries
    Sigma = sigma2 * (model.K.toarray() + eta * np.eye(n))
    Sigma_inv = sla.inv(Sigma)
    SX = Sigma_inv @ X
    M = Sigma_inv - SX @ sla.solve(X.T @ SX, SX.T, assume_a="sym")

    SdM = Sd @ M
    z = model.z
    if k == 1:
        return float(-0.5 * np.trace(SdM) + 0.5 * z @ (M @ (Sd @ (M @ z))))
    SdM2 = SdM @ SdM
    return float(0.5 * (np.trace(SdM2) - 2.0 * z @ (M @ (SdM2 @ z))))
