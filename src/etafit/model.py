"""The problem instance and the numerical backend behind it: solves and
log-determinants of K_eta = K + eta I.

The storage of K picks the backend.  Dense K is diagonalized once, so each
solve is a diagonal scaling.  Sparse K is solved by one block
conjugate-gradient run per call, over all right-hand sides at once, and its
log-determinants come from a symmetric-mode SuperLU factorization with a
minimum-degree ordering.  ``Solver.grams`` hands the likelihood the Gram
matrices [X | z]' K_eta^-p [X | z]; the M-matrix algebra built on them
lives in ``likelihood``.
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

    ``eta`` may be +inf (noise-dominated limit, sigma2 = 0).
    """

    sigma2: float
    sigma02: float
    eta: float

    def __post_init__(self):
        if self.sigma2 < 0 or self.sigma02 < 0:
            raise InputError("variances must be nonnegative")
        if math.isfinite(self.eta) and self.eta >= 0 and self.sigma2 > 0:
            if not math.isclose(self.sigma02, self.eta * self.sigma2,
                                rel_tol=1e-9, abs_tol=1e-300):
                raise InputError("sigma02 must equal eta * sigma2")

    @classmethod
    def from_sigma2_eta(cls, sigma2: float, eta: float) -> "HyperParams":
        if math.isinf(eta):
            return cls(0.0, sigma2, eta)
        return cls(sigma2, eta * sigma2, eta)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @property
    def sigma0(self) -> float:
        return math.sqrt(self.sigma02)


class Solver:
    """Solves and log-determinants of K_eta = K + eta I for one correlation
    matrix; ``K.storage`` picks the backend (``method``, read-only).

    Dense storage ("dense") factors K = U diag(lam) U' once (LAPACK ``evd``
    driver).  Every per-eta quantity is then diagonal in the eigenbasis: a
    solve scales by 1 / (lam + eta), log det K_eta = sum log(lam + eta), and
    ``eigvals`` gives trace(K_eta^-p) = sum (lam + eta)^-p.  ``eigvals``
    already carries ``jitter`` (see ``spectral_jitter``), so every one of
    these describes K + jitter I.

    Sparse storage ("cg") runs conjugate gradients on the stored matrix,
    one block run over all columns of each right-hand side (``tol`` and
    ``max_iter`` apply here only), and takes log-determinants from the
    pivots of ``sparse_lu`` (symmetric-mode SuperLU, minimum-degree
    ordering of K + K').  It has no spectrum (``eigvals`` is None) and
    applies no jitter.

    ``grams`` gives the likelihood everything it needs from the solves as
    (m+1) x (m+1) Gram matrices of [X | z], so no n x n work and no
    n-length vector leaves the solver per eta.  A solver is bound to one
    correlation matrix.
    """

    def __init__(self, K: CorrelationMatrix, *, tol: float = 1e-10,
                 max_iter: int | None = None):
        self.K = K
        self.tol = tol
        self.max_iter = max_iter if max_iter is not None else 10 * K.n
        self.jitter = 0.0
        self.eigvals = None
        self._U = None
        self._rotated = None
        if K.storage == "dense":
            try:
                lam, self._U = sla.eigh(K.toarray(), driver="evd",
                                        check_finite=False)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"eigendecomposition of K failed: {exc}") \
                    from None
            self.jitter = spectral_jitter(float(lam[0]), K.n)
            self.eigvals = lam + self.jitter

    @property
    def method(self) -> str:
        """"dense" (eigenbasis) or "cg", as set by the storage of K."""
        return "cg" if self._U is None else "dense"

    def grams(self, model: GpModel, eta: float, count: int) -> list:
        """[G_1, ..., G_count] with G_p = R' K_eta^{-p} R, R = [X | z].

        Dense: C = U'R is rotated once for the model the solver last
        served, and G_p = C' diag((lam + eta)^-p) C.  CG: S = K_eta^{-1} R
        is one block solve, G_1 = R'S and G_2 = S'S; G_3 = S' K_eta^{-1} S
        costs one more block solve.
        """
        _check_eta(eta)
        if self._U is None:
            R = np.column_stack([model.X.entries, model.z])
            S = self.solve(eta, R)
            grams = [R.T @ S, S.T @ S][:count]
            if count > 2:
                grams.append(S.T @ self.solve(eta, S))
            return grams
        if self._rotated is None or self._rotated[0] is not model:
            # U'X and U'z apart: OpenBLAS runs U'[X | z] (7 columns at m=6) on
            # two threads, whose spin-wait slowed kernel_opt's next kernel
            # assembly and eigh by 40% on 2 cores
            self._rotated = (model, np.column_stack(
                [self._U.T @ model.X.entries, self._U.T @ model.z]))
        C = self._rotated[1]
        d = 1.0 / (self.eigvals + eta)
        return [C.T @ (d[:, None] ** p * C) for p in range(1, count + 1)]

    def solve(self, eta: float, B: np.ndarray) -> np.ndarray:
        """Return K_eta^{-1} B (to solver tolerance on the CG path)."""
        _check_eta(eta)
        B = np.asarray(B, dtype=float)
        if self._U is None:
            return self._solve_cg(eta, B)
        d = 1.0 / (self.eigvals + eta)
        V = self._U.T @ B
        return self._U @ (d * V if V.ndim == 1 else d[:, None] * V)

    def _solve_cg(self, eta: float, B: np.ndarray) -> np.ndarray:
        """One conjugate-gradient run over all columns of B: each iteration
        makes one sparse product K @ P, with per-column step sizes.  A
        column is frozen once its residual falls below tol * ||b|| (the
        stopping rule of ``scipy.sparse.linalg.cg``); a zero column
        returns 0 without iterating."""
        K = self.K.entries
        single = B.ndim == 1
        B2 = B[:, None] if single else B
        out = np.zeros_like(B2)
        bnorm = np.linalg.norm(B2, axis=0)
        target = self.tol * bnorm
        live = np.flatnonzero(bnorm > 0)
        X = out[:, live]
        R = B2[:, live]
        P = R.copy()
        rho = _coldot(R, R)
        for it in range(self.max_iter + 1):
            done = np.sqrt(rho) < target[live]
            if done.any():
                out[:, live[done]] = X[:, done]
                keep = ~done
                live, X, R, P, rho = (live[keep], X[:, keep], R[:, keep],
                                      P[:, keep], rho[keep])
            if live.size == 0:
                break
            if it == self.max_iter or not np.all(np.isfinite(rho)):
                A = K @ X + eta * X - B2[:, live]
                resid = float(np.max(np.linalg.norm(A, axis=0)))
                raise SolverError(
                    f"CG did not converge for eta={eta}: stopped after {it} "
                    f"of {self.max_iter} iterations (residual {resid:.3e}, "
                    f"target {float(np.max(target[live])):.3e})")
            Q = K @ P
            Q += eta * P
            alpha = rho / _coldot(P, Q)
            X += alpha * P
            R -= alpha * Q
            rho_next = _coldot(R, R)
            P *= rho_next / rho
            P += R
            rho = rho_next
        return out[:, 0] if single else out

    def logdet(self, eta: float) -> float:
        """log det(K_eta); from the spectrum on the dense path, from the
        pivots of a symmetric sparse LU (``sparse_lu``) otherwise.  The
        symmetric factorization is only valid for positive-definite
        K_eta: a non-positive pivot raises SolverError."""
        _check_eta(eta)
        if self.eigvals is not None:
            return float(np.sum(np.log(self.eigvals + eta)))
        lu = sparse_lu(self.K.entries, eta)
        pivots = lu.U.diagonal()
        if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(pivots > 0)):
            raise SolverError(
                f"K + {eta} I is not positive definite (sparse logdet)")
        return float(np.sum(np.log(pivots)))


def _check_eta(eta: float) -> None:
    if not (np.isfinite(eta) and eta >= 0):
        raise InputError(f"eta must be a finite nonnegative real, got {eta}")


def _coldot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Column-wise inner products of two n x k arrays."""
    return np.einsum("ij,ij->j", A, B)


def sparse_lu(A, eta: float = 0.0):
    """SuperLU factors of the symmetric sparse matrix A + eta I.

    Symmetric mode: a minimum-degree ordering of A + A' applied to rows
    and columns alike, with diagonal pivots.  On 2-D grid matrices this has
    far less fill than the default COLAMD column ordering with partial
    pivoting, and for a positive-definite matrix the diagonal of U holds
    the pivots of its LDL' factorization.
    """
    M = (A + eta * sparse.identity(A.shape[0], format="csr")).tocsc()
    try:
        return spla.splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(
            f"sparse factorization of K + {eta} I failed: {exc}") from None


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
