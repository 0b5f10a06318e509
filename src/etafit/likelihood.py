"""Log marginal likelihood, its profiled form over the error variance, and
analytic first/second derivatives in the variance ratio eta.

With Sigma = sigma^2 (K + eta I) the marginal likelihood over the data (with
the regression coefficients integrated out) profiles in closed form over
sigma^2; what remains is a univariate function of eta whose derivatives are
built from traces of K_eta^-p and the (m+1) x (m+1) Gram matrices
G_p = R' K_eta^-p R of R = [U | z], U = ``GpModel.basis`` (``Solver.grams``),
whitened by one Cholesky factor of G_1 per eta (``_pieces``).  Derivative
evaluations never touch the log-determinant, so they stay cheap on sparse
paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla
import scipy.linalg.lapack as lapack

from .errors import InputError, ModelError
from .kernels import require_dense_memory
from .model import GpModel, Solver
from .traces import ExactTraceProvider, HutchinsonTraceProvider

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
        return HutchinsonTraceProvider(solver, seed=seed)
    return ExactTraceProvider(solver.eigvals)


def _pieces(model: GpModel, eta: float, solver: Solver,
            count: int) -> SimpleNamespace:
    """Per-eta quantities from G_p = R' K_eta^{-p} R, p <= count
    (``Solver.grams``, R = [U | z]), and one Cholesky factor of G_1,
    L = [[L_B, 0], [l', lambda]]: z' M z = lambda^2, and log det B of
    B = X' K_eta^{-1} X is log det L_B^2 + ``logdet_xtx``.  ``W`` holds the
    whitened W_p = L^-1 G_p L^-T for p >= 2, the Gram matrices of
    R~ = R L^-T.  As R~' K_eta^-1 R~ = I and M z = lambda K_eta^-1 r~ for
    the last column r~ of R~, every other form and trace of M, which
    depend on range(X) alone, is read from W_2 and W_3."""
    G = solver.grams(model, eta, count)
    m = model.m
    L, info = lapack.dpotrf(G[0], lower=1)
    if 0 < info <= m:
        raise ModelError(f"X' K_eta^{{-1}} X is singular at eta={eta}")
    # pivots^2 bound the spectrum of U' K_eta^-1 U: a ratio at rounding
    # level means B is singular at working precision, though factored
    pivots = np.diag(L)[:m] ** 2
    ratio = pivots.min() / pivots.max()
    if ratio <= m * np.finfo(float).eps:
        raise ModelError(f"X' K_eta^{{-1}} X is singular at eta={eta} "
                         f"(Cholesky pivot ratio {ratio:.1e})")
    if info:
        raise ModelError(f"nonpositive profiled variance at eta={eta}")
    L_inv = lapack.dtrtri(L, lower=1)[0] if count > 1 else None
    W = [L_inv @ Gp @ L_inv.T for Gp in G[1:]]
    return SimpleNamespace(z_m_z=float(L[m, m] ** 2), W=W,
                           logdet_B=2.0 * float(np.sum(np.log(np.diag(L)[:m])))
                           + model.logdet_xtx)


def _require_nondegenerate(model: GpModel):
    if model.degenerate:
        raise ModelError(
            "observations lie in the range of the design matrix; the error "
            "variance is identically zero (use the trivial estimates)")


def _log_likelihood(model: GpModel, eta: float, solver: Solver, p,
                    sigma2: float) -> float:
    n, m = model.n, model.m
    return (-0.5 * (n - m) * LOG_2PI
            - 0.5 * (n - m) * math.log(sigma2)
            - 0.5 * solver.logdet(eta)
            - 0.5 * p.logdet_B
            - 0.5 * p.z_m_z / sigma2)


def _evaluate(model: GpModel, eta: float, solver: Solver, traces,
              want_ell: bool, want_first: bool,
              want_second: bool) -> LikelihoodEval:
    _require_nondegenerate(model)
    if traces is None:
        traces = trace_provider(solver)
    n, m = model.n, model.m
    p = _pieces(model, eta, solver, 3 if want_second else 2)
    W2 = p.W[0]
    s2 = p.z_m_z / (n - m)
    z_m2_z = p.z_m_z * float(W2[m, m])

    t_m1 = d_ell = None
    if want_first:
        t_m1 = traces(eta, 1) - float(np.trace(W2[:m, :m]))
        d_ell = -0.5 * (t_m1 - z_m2_z / s2)

    ell = _log_likelihood(model, eta, solver, p, s2) if want_ell else None
    ev = LikelihoodEval(eta=eta, sigma2_hat=s2, ell=ell, d_ell=d_ell,
                        z_m_z=p.z_m_z, z_m2_z=z_m2_z, trace_m1=t_m1)
    if want_second:
        W3 = p.W[1]
        ev.z_m3_z = p.z_m_z * float(W3[m, m] - W2[:m, m] @ W2[:m, m])
        ev.trace_m1_sq = (traces(eta, 2) - 2.0 * float(np.trace(W3[:m, :m]))
                          + float(np.sum(W2[:m, :m] ** 2)))
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
    return _log_likelihood(model, eta, solver, _pieces(model, eta, solver, 1),
                           sigma2)


def ell_infinite_eta(model: GpModel) -> tuple[float, float]:
    """(limit of the profiled likelihood, sigma02 estimate) as eta -> inf.

    In that limit the covariance is pure noise and the optimal noise
    variance is the plain least-squares residual variance ||z||_P^2/(n-m).
    """
    n, m = model.n, model.m
    sigma02 = float(model.residual @ model.residual) / (n - m)
    if sigma02 <= 0:
        raise ModelError("degenerate model: zero residual variance")
    ell = (-0.5 * (n - m) * LOG_2PI
           - 0.5 * (n - m) * math.log(sigma02)
           - 0.5 * model.logdet_xtx
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

    Dense construction for small n; InputError when memory cannot hold
    it.  ``sigma_dot`` may be an n x n symmetric array or a callable
    applying it to a matrix.  The covariance is assumed linear in the
    hyperparameter for k = 2.
    """
    if k not in (1, 2):
        raise InputError("only derivative orders 1 and 2 are supported")
    _require_nondegenerate(model)
    if not (np.isfinite(sigma2) and sigma2 > 0):
        raise InputError(f"sigma2 must be positive, got {sigma2}")
    n = model.n
    # at most four n x n arrays at once (tracemalloc): Sd, M, SdM, SdM^2
    require_dense_memory(n, 4.0, "the generic likelihood derivative")
    Sd = sigma_dot(np.eye(n)) if callable(sigma_dot) else np.asarray(
        sigma_dot, dtype=float)
    if Sd.shape != (n, n):
        raise InputError("sigma_dot must act as an n x n matrix")

    U = model.basis
    M = sla.inv(sigma2 * (model.K.toarray() + eta * np.eye(n)),
                overwrite_a=True)  # Sigma^-1, made M in place
    SU = M @ U
    M -= SU @ sla.solve(U.T @ SU, SU.T, assume_a="sym")

    SdM = Sd @ M
    z = model.z
    if k == 1:
        return float(-0.5 * np.trace(SdM) + 0.5 * z @ (M @ (Sd @ (M @ z))))
    SdM2 = SdM @ SdM
    return float(0.5 * (np.trace(SdM2) - 2.0 * z @ (M @ (SdM2 @ z))))
