"""Covariance/projection algebra: K_eta solves, M-actions, GLS, trace(M).

The central object is M_{1,eta} = Kinv - Kinv X (X' Kinv X)^{-1} X' Kinv
with Kinv = (K + eta I)^{-1}, applied through linear solves rather than
materialized.  Dense K is diagonalized once, so each solve is a diagonal
scaling; sparse K is solved by conjugate gradients.  The m x m inner
system is always solved densely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .design import DesignMatrix
from .errors import InputError, ModelError, SolverError
from .kernels import CorrelationMatrix

# Degeneracy flag: z counts as lying in range(X) when the projection
# residual is below this fraction of ||z||.
DEGENERACY_RTOL = 1e-12

# Rounding floor of the spectrum, per point: eigenvalues of a correlation
# matrix within JITTER_SCALE * n of zero are indistinguishable from it.
JITTER_SCALE = 1e-10


def spectral_jitter(lambda_min: float, n: int) -> float:
    """The one diagonal shift applied to K: it lifts the smallest eigenvalue
    to the rounding floor JITTER_SCALE * n, and is 0 when K already clears
    it.  Solves, log-determinants, traces and the reported spectrum all use
    K + jitter I."""
    return max(0.0, JITTER_SCALE * n - lambda_min)


@dataclass
class HyperParams:
    """Variance hyperparameters (sigma2, sigma02, eta) with sigma02 = eta*sigma2.

    ``eta`` may be +inf (noise-dominated limit, sigma2 = 0).  ``source``
    records whether the values were estimated or user-fixed.
    """

    sigma2: float
    sigma02: float
    eta: float
    source: str = "estimated"

    def __post_init__(self):
        if self.sigma2 < 0 or self.sigma02 < 0:
            raise InputError("variances must be nonnegative")
        if math.isfinite(self.eta) and self.eta >= 0 and self.sigma2 > 0:
            if not math.isclose(self.sigma02, self.eta * self.sigma2,
                                rel_tol=1e-9, abs_tol=1e-300):
                raise InputError("sigma02 must equal eta * sigma2")

    @classmethod
    def from_sigma2_eta(cls, sigma2: float, eta: float,
                        source: str = "estimated") -> "HyperParams":
        if math.isinf(eta):
            return cls(0.0, sigma2, eta, source)
        return cls(sigma2, eta * sigma2, eta, source)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def sigma0(self) -> float:
        return math.sqrt(self.sigma02)


class Solver:
    """Solves and log-determinants of K_eta = K + eta I for one correlation
    matrix.

    ``method`` "dense" factors K = U diag(lam) U' once (LAPACK ``evd``
    driver).  Every per-eta quantity is then diagonal in the eigenbasis: a
    solve scales by 1 / (lam + eta), log det K_eta = sum log(lam + eta), and
    ``eigvals`` gives trace(K_eta^-p) = sum (lam + eta)^-p.  ``eigvals``
    already carries ``jitter`` (see ``spectral_jitter``), so every one of
    these describes K + jitter I.

    ``method`` "cg" runs conjugate gradients on the stored (sparse) matrix,
    with sparse-LU log-determinants; it has no spectrum (``eigvals`` is
    None) and applies no jitter.

    Work in the *basis* of the solver (``model_in_basis``,
    ``solve_in_basis``) is how the likelihood avoids n x n work per eta:
    the eigenbasis on the dense path, the standard basis on the CG path.
    A solver is bound to one correlation matrix.
    """

    def __init__(self, K: CorrelationMatrix, method: str = "dense",
                 tol: float = 1e-10, max_iter: int | None = None):
        if method not in ("dense", "cg"):
            raise InputError(f"unknown solver method {method!r}")
        self.K = K
        self.method = method
        self.tol = tol
        self.max_iter = max_iter if max_iter is not None else 10 * K.n
        self.jitter = 0.0
        self.eigvals = None
        self._U = None
        self._rotated = None
        self._logdets: dict[float, float] = {}
        if method == "dense":
            try:
                lam, self._U = sla.eigh(K.toarray(), driver="evd",
                                        check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"eigendecomposition of K failed: {exc}") \
                    from None
            self.jitter = spectral_jitter(float(lam[0]), K.n)
            self.eigvals = lam + self.jitter

    # -- working basis -----------------------------------------------------

    def model_in_basis(self, model: GpModel) -> tuple:
        """(z, X) of ``model`` in the solver's basis: (U'z, U'X) on the
        dense path, rotated once for the model the solver last served;
        z and X themselves for CG."""
        if self._U is None:
            return model.z, model.X.entries
        if self._rotated is None or self._rotated[0] is not model:
            self._rotated = (model, self._U.T @ model.z,
                             self._U.T @ model.X.entries)
        return self._rotated[1], self._rotated[2]

    def solve_in_basis(self, eta: float, B: np.ndarray) -> np.ndarray:
        """K_eta^{-1} B with B and the result in the solver's basis."""
        _check_eta(eta)
        if self._U is None:
            return self._solve_cg(eta, np.asarray(B, dtype=float))
        d = 1.0 / (self.eigvals + eta)
        return d * B if B.ndim == 1 else d[:, None] * B

    # -- public API ----------------------------------------------------

    def solve(self, eta: float, B: np.ndarray) -> np.ndarray:
        """Return K_eta^{-1} B (to solver tolerance on the CG path)."""
        B = np.asarray(B, dtype=float)
        if self._U is None:
            return self.solve_in_basis(eta, B)
        return self._U @ self.solve_in_basis(eta, self._U.T @ B)

    def _solve_cg(self, eta: float, B: np.ndarray) -> np.ndarray:
        n = self.K.n
        K = self.K.entries
        op = spla.LinearOperator(
            (n, n), matvec=lambda v: K @ v + eta * v, dtype=float)
        single = B.ndim == 1
        cols = B[:, None] if single else B
        out = np.empty_like(cols)
        for j in range(cols.shape[1]):
            b = cols[:, j]
            x, info = _cg(op, b, rtol=self.tol, maxiter=self.max_iter)
            if info != 0:
                resid = float(np.linalg.norm(op.matvec(x) - b))
                raise SolverError(
                    f"CG did not converge for eta={eta} within "
                    f"{self.max_iter} iterations (residual {resid:.3e}, "
                    f"target {self.tol * np.linalg.norm(b):.3e})")
            out[:, j] = x
        return out[:, 0] if single else out

    def logdet(self, eta: float) -> float:
        """log det(K_eta); from the spectrum on the dense path, sparse LU
        otherwise."""
        _check_eta(eta)
        if self.eigvals is not None:
            return float(np.sum(np.log(self.eigvals + eta)))
        if eta in self._logdets:
            return self._logdets[eta]
        A = (self.K.entries
             + eta * sparse.identity(self.K.n, format="csr")).tocsc()
        lu = spla.splu(A)
        diag_u = lu.U.diagonal()
        if np.any(diag_u == 0):
            raise SolverError(f"singular K + {eta} I in sparse logdet")
        val = float(np.sum(np.log(np.abs(diag_u))))
        self._logdets[eta] = val
        return val


def _check_eta(eta: float) -> None:
    if not (np.isfinite(eta) and eta >= 0):
        raise InputError(f"eta must be a finite nonnegative real, got {eta}")


def _cg(op, b, rtol, maxiter):
    """scipy.sparse.linalg.cg across the tol/rtol API rename."""
    try:
        return spla.cg(op, b, rtol=rtol, maxiter=maxiter)
    except TypeError:  # scipy < 1.12
        return spla.cg(op, b, tol=rtol, maxiter=maxiter)


def default_solver(K: CorrelationMatrix) -> Solver:
    """The eigenbasis backend for dense storage, CG for sparse/tapered K."""
    if K.storage == "dense":
        return Solver(K, "dense")
    return Solver(K, "cg")


@dataclass
class GpModel:
    """Immutable problem instance: observations, design, correlation, points.

    ``degenerate`` flags z in range(X) (projection residual below
    DEGENERACY_RTOL * ||z||), in which case the fitted error variance is
    identically zero and estimation short-circuits.
    """

    z: np.ndarray
    X: DesignMatrix
    K: CorrelationMatrix
    points: np.ndarray
    degenerate: bool = field(init=False)

    def __post_init__(self):
        self.z = np.asarray(self.z, dtype=float)
        n = self.z.shape[0]
        if self.X.entries.shape[0] != n or self.K.n != n:
            raise ModelError(
                f"inconsistent dimensions: len(z)={n}, "
                f"rows(X)={self.X.entries.shape[0]}, rows(K)={self.K.n}")
        if not np.all(np.isfinite(self.z)):
            raise InputError("observations must be finite")
        # z in range(X) makes every M-action vanish regardless of eta, so the
        # plain least-squares residual is an equivalent, cheaper probe.
        coef, *_ = np.linalg.lstsq(self.X.entries, self.z, rcond=None)
        resid = self.z - self.X.entries @ coef
        znorm = np.linalg.norm(self.z)
        self.degenerate = bool(
            np.linalg.norm(resid) <= DEGENERACY_RTOL * max(znorm, 1e-300))

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def m(self) -> int:
        return self.X.m


def solve_K_eta(model: GpModel, eta: float, B: np.ndarray,
                solver: Solver) -> np.ndarray:
    """Solution of (K + eta I) U = B."""
    return solver.solve(eta, B)


def _xty_solve(model: GpModel, Y: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve the m x m system (X' Y) a = rhs densely."""
    B = model.X.entries.T @ Y
    try:
        return sla.solve(B, rhs, assume_a="sym")
    except np.linalg.LinAlgError as exc:
        raise ModelError(f"X' K_eta^{{-1}} X is singular: {exc}") from None


def m1_apply(model: GpModel, eta: float, solver: Solver) -> np.ndarray:
    """w = M_{1,eta} z via u = Kinv z, Y = Kinv X, w = u - Y (X'Y)^{-1} Y'z."""
    u = solver.solve(eta, model.z)
    Y = solver.solve(eta, model.X.entries)
    a = _xty_solve(model, Y, Y.T @ model.z)
    return u - Y @ a


def beta_gls(model: GpModel, eta: float, solver: Solver) -> np.ndarray:
    """Generalized least squares coefficients (sigma^2 cancels, K_eta suffices)."""
    Y = solver.solve(eta, model.X.entries)
    return _xty_solve(model, Y, Y.T @ model.z)


def trace_m1(model: GpModel, eta: float, solver: Solver,
             trace_k_inv) -> float:
    """trace(M_{1,eta}) from trace(K_eta^{-1}) minus the exact m x m correction.

    ``trace_k_inv`` is either the scalar trace(K_eta^{-1}) or a callable
    eta -> trace(K_eta^{-1}) (a trace provider).
    """
    t_kinv = trace_k_inv(eta) if callable(trace_k_inv) else float(trace_k_inv)
    Y = solver.solve(eta, model.X.entries)
    C = _xty_solve(model, Y, Y.T @ Y)
    return t_kinv - float(np.trace(C))
