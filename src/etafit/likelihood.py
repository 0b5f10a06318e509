"""Log marginal likelihood, its profiled form over the error variance, and
analytic first/second derivatives in the variance ratio eta.

With Sigma = sigma^2 (K + eta I) the marginal likelihood over the data (with
the regression coefficients integrated out) profiles in closed form over
sigma^2; what remains is a univariate function of eta whose derivatives are
built from M-actions and traces.  Derivative evaluations never touch the
log-determinant, so they stay cheap on sparse paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla

from .errors import InputError, ModelError
from .model import GpModel, Solver
from .traces import ExactTraceProvider

LOG_2PI = math.log(2.0 * math.pi)


@dataclass
class LikelihoodEval:
    """Profiled likelihood value and derivatives at one eta.

    ``ell`` and the second-order fields are None when not requested.
    Traces may be interpolated surrogates depending on the provider.
    """

    eta: float
    sigma2_hat: float
    ell: float | None
    d_ell: float
    d2_ell: float | None = None
    z_m_z: float = 0.0
    z_m2_z: float = 0.0
    z_m3_z: float | None = None
    trace_m1: float = 0.0
    trace_m1_sq: float | None = None


def _cdot(a: np.ndarray, b: np.ndarray) -> float:
    """Compensated dot product; keeps the trace-minus-Rayleigh cancellation
    in the eta derivative accurate near the root."""
    return math.fsum(np.multiply(a, b).tolist())


def _pieces(model: GpModel, eta: float, solver: Solver) -> SimpleNamespace:
    """Shared per-eta quantities in the solver's basis: z, Y = Kinv X, the
    m x m factor of X' Kinv X, and w = M z.

    The basis is orthonormal, so inner products and traces computed from
    these equal those of the standard basis.
    """
    z, X = solver.model_in_basis(model)
    Y = solver.solve_in_basis(eta, X)
    B = X.T @ Y
    try:
        B_factor = sla.cho_factor(B, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"X' K_eta^{{-1}} X is singular: {exc}") from None
    u = solver.solve_in_basis(eta, z)
    w = u - Y @ sla.cho_solve(B_factor, Y.T @ z, check_finite=False)
    logdet_B = 2.0 * float(np.sum(np.log(np.diag(B_factor[0]))))
    return SimpleNamespace(z=z, Y=Y, B_factor=B_factor, w=w,
                           logdet_B=logdet_B)


def _m_action(eta: float, solver: Solver, pieces,
              v: np.ndarray) -> np.ndarray:
    """M v for v in the solver's basis."""
    t = solver.solve_in_basis(eta, v)
    return t - pieces.Y @ sla.cho_solve(pieces.B_factor, pieces.Y.T @ v,
                                        check_finite=False)


def _require_nondegenerate(model: GpModel):
    if model.degenerate:
        raise ModelError(
            "observations lie in the range of the design matrix; the error "
            "variance is identically zero (use the trivial estimates)")


def _trace_m1(pieces, eta: float, traces) -> float:
    C = sla.cho_solve(pieces.B_factor, pieces.Y.T @ pieces.Y,
                      check_finite=False)
    return traces(eta, 1) - float(np.trace(C))


def _trace_m1_sq(eta: float, solver: Solver, pieces, traces) -> float:
    V = solver.solve_in_basis(eta, pieces.Y)
    C = sla.cho_solve(pieces.B_factor, pieces.Y.T @ V, check_finite=False)
    A = sla.cho_solve(pieces.B_factor, pieces.Y.T @ pieces.Y,
                      check_finite=False)
    return traces(eta, 2) - 2.0 * float(np.trace(C)) + float(np.trace(A @ A))


def _evaluate(model: GpModel, eta: float, solver: Solver, traces,
              want_ell: bool, want_second: bool) -> LikelihoodEval:
    _require_nondegenerate(model)
    if traces is None:
        traces = ExactTraceProvider(model.K, solver.eigvals)
    n, m = model.n, model.m
    pieces = _pieces(model, eta, solver)

    z_m_z = _cdot(pieces.z, pieces.w)
    z_m2_z = _cdot(pieces.w, pieces.w)
    s2 = z_m_z / (n - m)
    if s2 <= 0:
        raise ModelError(f"nonpositive profiled variance at eta={eta}")

    t_m1 = _trace_m1(pieces, eta, traces)
    d_ell = -0.5 * (t_m1 - z_m2_z / s2)

    ell = None
    if want_ell:
        ell = (-0.5 * (n - m) * LOG_2PI
               - 0.5 * (n - m) * math.log(s2)
               - 0.5 * solver.logdet(eta)
               - 0.5 * pieces.logdet_B
               - 0.5 * (n - m))

    ev = LikelihoodEval(eta=eta, sigma2_hat=s2, ell=ell, d_ell=d_ell,
                        z_m_z=z_m_z, z_m2_z=z_m2_z, trace_m1=t_m1)
    if want_second:
        mw = _m_action(eta, solver, pieces, pieces.w)
        ev.z_m3_z = _cdot(pieces.w, mw)
        ev.trace_m1_sq = _trace_m1_sq(eta, solver, pieces, traces)
        ev.d2_ell = 0.5 * (ev.trace_m1_sq - 2.0 * ev.z_m3_z / s2
                           + z_m2_z ** 2 / ((n - m) * s2 * s2))
    return ev


def sigma2_hat(model: GpModel, eta: float, solver: Solver) -> float:
    """Profiled error variance z' M_{1,eta} z / (n - m); strictly positive."""
    _require_nondegenerate(model)
    pieces = _pieces(model, eta, solver)
    return _cdot(pieces.z, pieces.w) / (model.n - model.m)


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
    pieces = _pieces(model, eta, solver)
    z_m_z = _cdot(pieces.z, pieces.w)
    return (-0.5 * (n - m) * LOG_2PI
            - 0.5 * (n - m) * math.log(sigma2)
            - 0.5 * solver.logdet(eta)
            - 0.5 * pieces.logdet_B
            - 0.5 * z_m_z / sigma2)


def ell_infinite_eta(model: GpModel) -> tuple[float, float]:
    """(limit of the profiled likelihood, sigma02 estimate) as eta -> inf.

    In that limit the covariance is pure noise and the optimal noise
    variance is the plain least-squares residual variance ||z||_P^2/(n-m).
    """
    n, m = model.n, model.m
    coef, *_ = np.linalg.lstsq(model.X.entries, model.z, rcond=None)
    resid = model.z - model.X.entries @ coef
    sigma02 = _cdot(resid, resid) / (n - m)
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
    when omitted, exact traces are read from the dense solver's spectrum
    (or, for a CG solver, from a full eigendecomposition of K).
    """
    return _evaluate(model, eta, solver, traces, want_ell=True,
                     want_second=second_order)


def d_ell_deta(model: GpModel, eta: float, solver: Solver,
               traces=None) -> float:
    """First total derivative of the profiled likelihood in eta.

    Costs two linear-solve groups and one trace lookup; no log-determinant.
    """
    return _evaluate(model, eta, solver, traces, want_ell=False,
                     want_second=False).d_ell


def d2_ell_deta2(model: GpModel, eta: float, solver: Solver,
                 traces=None) -> float:
    """Second total derivative; needs z'M^3 z and trace(M^2), the latter
    from the provider's power-2 route."""
    return _evaluate(model, eta, solver, traces, want_ell=False,
                     want_second=True).d2_ell


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
