"""The problem instance and the numerical backend behind it: solves and
log-determinants of K_eta = K + eta I.

The storage of K picks the backend, and both read Gram matrices
B' K_eta^-p B of a block B (the likelihood's [U | z], or the Rademacher
trace probes) from a banded T by one banded Cholesky per eta.  Dense K is
reduced once to tridiagonal form K = Q T Q' by Householder reflections;
the eigenvalues of T give the log-determinants and traces.  On sparse K,
T comes from one block Lanczos run on the block (Gauss quadrature), and
solves and log-determinants come from a symmetric-mode SuperLU
factorization with a minimum-degree ordering.  The M-matrix algebra built
on the Gram matrices lives in ``likelihood``.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
import scipy.linalg.lapack as lapack
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from .design import DesignMatrix, numerical_rank
from .errors import InputError, ModelError, SolverError
from .kernels import CorrelationMatrix, require_dense_K_memory
from .traces import DEFAULT_HUTCHINSON_VECTORS

# Degeneracy flag: z counts as lying in range(X) when the projection
# residual is below this fraction of ||z||.
DEGENERACY_RTOL = 1e-12

# Rounding floor of the spectrum, per point: eigenvalues of a correlation
# matrix within JITTER_SCALE * n of zero are indistinguishable from it.
JITTER_SCALE = 1e-10

# Block Lanczos stops once G_1..G_3 at eta = 0 change by at most
# LANCZOS_TOL in one step, but not before LANCZOS_MIN_STEPS steps, and
# fails after LANCZOS_STEPS_PER_POINT * n steps.
LANCZOS_TOL = 1e-10
LANCZOS_MIN_STEPS = 3
LANCZOS_STEPS_PER_POINT = 10

# starting fraction of the sparse lambda_min bound below the lowest Ritz value
SPECTRUM_MARGIN = 0.01

# Dense K of fewer points is reduced to tridiagonal form on one OpenBLAS
# thread (``one_blas_thread``), larger K on every thread.  Measured on 2
# cores, back-to-back dense fits of a kernel search took 12.8 ms on one
# thread against 17.2 ms on two at n = 400, as long at 484 and 576, and
# 35.5 against 30.9 ms at 676 (README, "Numerical notes").
THREADED_REDUCTION_MIN_N = 600


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
    """Solves and log-determinants of K_eta = K + eta I, and the extreme
    eigenvalues of K, for one correlation matrix; ``K.storage`` picks the
    backend.

    Dense storage reduces K = Q T Q' to a symmetric tridiagonal T once
    (LAPACK ``dsytrd``; Golub & Van Loan, *Matrix Computations*, 4th ed.,
    section 8.3), in ``factor_s`` seconds.  Q is kept as its Householder
    reflectors and never formed, and no eigenvector is computed.
    ``eigvals``, the spectrum of T from ``dsterf``, gives
    log det K_eta = sum log(lam + eta) and trace(K_eta^-p) =
    sum (lam + eta)^-p.  The Krylov state of a block B is (T, Q'B, 0);
    ``solve`` is Q (T + eta I)^-1 Q' B.  T and ``eigvals`` carry
    ``jitter`` (see ``spectral_jitter``), so every one of these describes
    K + jitter I.

    Sparse storage works on the stored matrix only.  The Krylov state of
    a block is that of one block Lanczos run on it (``block_lanczos``; the
    step counts are ``lanczos_steps`` and ``probe_lanczos_steps``), and
    ``solve`` and ``logdet`` use one ``sparse_lu`` (symmetric-mode
    SuperLU, minimum-degree ordering of K + K') of K_eta.
    ``extreme_eigvals`` factors K itself once, in ``factor_s`` seconds:
    its inertia checks K positive definite and its log-determinant is kept
    for ``logdet(0)``, but the factor (6.3 M entries at n = 16384 and 44
    neighbours per point, a quarter of a fit's peak memory) is not.  The
    spectrum bounds are the extreme Ritz values of the default probe run,
    lambda_min lowered until an LU of K - lambda_min I certifies it.
    Sparse storage applies no jitter and has no full spectrum (``eigvals``
    is None), and the Gram matrices need K itself positive definite, since
    the Lanczos runs converge at eta = 0.

    Thin n x b products (each Lanczos run, the rotation Q'B of a Krylov
    state) run on one OpenBLAS thread, as does the dense reduction below
    THREADED_REDUCTION_MIN_N points (``one_blas_thread``; timings in the
    README, "Numerical notes").  The per-eta banded algebra and SuperLU
    keep every thread.

    ``grams`` and ``probe_grams`` read a block's Gram matrices from its
    ``KrylovState``, by one banded Cholesky per eta in either storage.
    ``grams`` gives the likelihood everything it needs from [U | z] as
    (m+1) x (m+1) Gram matrices, so no n x n work and no n-length vector
    leaves the solver per eta.  ``krylov_state`` and ``frobenius_sq``
    serve the asymptote, so no other module reads K.  A solver is bound
    to one correlation matrix, and keeps two Krylov states: that of the
    model ``grams`` last served, and that of the probe block
    ``probe_grams`` last served.
    """

    def __init__(self, K: CorrelationMatrix):
        self.K = K
        self.jitter = 0.0
        self.eigvals = None
        self.factor_s = 0.0
        self._logdet0 = None
        self._band = None
        self._per_model = None
        self._probes = None
        if K.storage == "dense":
            started = time.perf_counter()
            with (one_blas_thread() if K.n < THREADED_REDUCTION_MIN_N
                  else nullcontext()):
                self._tridiagonalize(K.toarray())
            self.factor_s = time.perf_counter() - started

    def _tridiagonalize(self, A: np.ndarray) -> None:
        n = A.shape[0]
        require_dense_K_memory(n, 1.0, "its tridiagonal reduction")
        lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
        # overwrite_a=0: A is the stored matrix of K itself
        a, d, e, self._tau, info = lapack.dsytrd(A, lower=1, lwork=lwork,
                                                 overwrite_a=0)
        lam = d
        if info == 0 and n > 1:  # the dsterf wrapper needs n >= 2
            lam, info = lapack.dsterf(d, e)
        if info != 0:
            raise SolverError(f"tridiagonal reduction of K failed (LAPACK "
                              f"info {info})")
        self.jitter = spectral_jitter(float(lam[0]), n)
        self.eigvals = lam + self.jitter
        # lower band form of T + jitter I, as in block_lanczos
        self._band = np.vstack([d + self.jitter, np.append(e, 0.0)])
        # Q fixes row 0; its reflectors are those of a QR factorization of
        # a[1:, :n-1].  This view keeps a's leading dimension n, of which
        # LAPACK reads the first n - 1 rows, so no (n-1) x (n-1) copy is made
        self._reflectors = a.reshape(-1, order="F")[1:1 + n * (n - 1)] \
            .reshape((n, n - 1), order="F")

    @property
    def lanczos_steps(self) -> int:
        """Block Lanczos steps behind the model ``grams`` last served: 0 on
        dense K and before the first call."""
        return self._per_model[1].steps if self._per_model else 0

    @property
    def probe_lanczos_steps(self) -> int:
        """Block Lanczos steps behind the probe block ``probe_grams`` last
        served: 0 on dense K and before the first call."""
        return self._probes[1].steps if self._probes else 0

    def grams(self, model: GpModel, eta: float, count: int) -> list:
        """[G_1, ..., G_count] with G_p = R' K_eta^{-p} R, R = [U | z] for
        the orthonormal basis U of range(X) (``GpModel.basis``).

        R's ``KrylovState`` is built once for the model the solver last
        served: C = Q'R on dense K, one block Lanczos run on R on sparse
        K, where G_p is a Gauss-quadrature form.  Either way one banded
        Cholesky per eta, O(n m^2) dense and O(k m^2) on the Lanczos T of
        k steps.
        """
        _check_eta(eta)
        return _banded_grams(self.krylov_state(model), eta, count)

    def krylov_state(self, model: GpModel) -> KrylovState:
        """The ``KrylovState`` of R = [U | z] behind ``grams``, built once
        for the model the solver last served and kept: (T + jitter I, Q'R)
        on dense K, one block Lanczos run on R on sparse K."""
        if self._per_model is None or self._per_model[0] is not model:
            R = np.column_stack([model.basis, model.z])
            self._per_model = (model, self._krylov_state(R))
        return self._per_model[1]

    def frobenius_sq(self) -> float:
        """||K||_F^2 by pairwise sums (a dot product rounds worse): of the
        squared stored entries of sparse K, and of d^2 + 2 e^2 over the
        diagonal d and off-diagonal e of T - jitter I on dense K."""
        if self._band is None:
            A = self.K.entries.tocsr()  # no copy of K as assembled
            A.sum_duplicates()
            return float(np.sum(A.data * A.data))
        d = self._band[0] - self.jitter
        e = self._band[1, :-1]
        return float(np.sum(d * d) + 2.0 * np.sum(e * e))

    def probe_grams(self, n_vectors: int, seed: int, eta: float,
                    count: int) -> list:
        """[G_1, ..., G_count] with G_p = V' K_eta^{-p} V for the Rademacher
        probes V = ``rademacher_probes(n, n_vectors, seed)``, read like
        ``grams``: diag G_1 holds the Hutchinson samples v' K_eta^-1 v and
        diag G_2 the samples ||K_eta^-1 v||^2.  On sparse K this is
        stochastic Lanczos quadrature (Ubaru, Chen & Saad 2017, *SIMAX*
        38:1075).  V's Krylov state is built on the first call for a
        given (n_vectors, seed) and serves every eta after it.
        """
        _check_eta(eta)
        return _banded_grams(self._probe_state(n_vectors, seed), eta, count)

    def _probe_state(self, n_vectors: int, seed: int) -> KrylovState:
        if self._probes is None or self._probes[0] != (n_vectors, seed):
            V = rademacher_probes(self.K.n, n_vectors, seed)
            self._probes = ((n_vectors, seed), self._krylov_state(V))
        return self._probes[1]

    def _krylov_state(self, B: np.ndarray) -> KrylovState:
        with one_blas_thread():
            if self._band is None:
                return block_lanczos(self.K.entries, B, LANCZOS_TOL,
                                     int(LANCZOS_STEPS_PER_POINT * self.K.n))
            return KrylovState(self._band, self._rotate(B, "T"), 0)

    def _rotate(self, B: np.ndarray, trans: str) -> np.ndarray:
        """Q'B (``trans`` "T") or QB ("N") for an n x k array B."""
        out = np.array(B, dtype=float)
        if out.shape[0] > 1:
            lwork = int(lapack.dormqr("L", trans, self._reflectors,
                                      self._tau, out[1:], -1)[1][0])
            out[1:] = lapack.dormqr("L", trans, self._reflectors, self._tau,
                                    out[1:], lwork)[0]
        return out

    def solve(self, eta: float, B: np.ndarray) -> np.ndarray:
        """Return K_eta^{-1} B: one banded Cholesky of T + eta I on dense
        K, one ``sparse_lu`` of K_eta on sparse K.  A K_eta that is not
        positive definite raises SolverError."""
        _check_eta(eta)
        B = np.asarray(B, dtype=float)
        if self._band is None:
            return self._sparse_factor(eta)[0].solve(B)
        L = _banded_cholesky(self._band, eta)
        C = self._rotate(B.reshape(B.shape[0], -1), "T")
        X = self._rotate(lapack.dpbtrs(L, C, lower=1)[0], "N")
        return X.reshape(B.shape)

    def logdet(self, eta: float) -> float:
        """log det(K_eta); from the spectrum on the dense path, from the
        pivots of a symmetric sparse LU (``sparse_lu``) otherwise, where
        eta = 0 reads the value ``extreme_eigvals`` kept.  The symmetric
        factorization is only valid for positive-definite K_eta: a
        non-positive pivot raises SolverError."""
        _check_eta(eta)
        if self.eigvals is not None:
            return float(np.sum(np.log(self.eigvals + eta)))
        if eta == 0.0 and self._logdet0 is not None:
            return self._logdet0
        return self._sparse_factor(eta)[1]

    def extreme_eigvals(self) -> tuple[float, float]:
        """(lambda_min, lambda_max) of K: the ends of ``eigvals`` on dense
        K.  On sparse K, once the LU of K has checked it, the extreme Ritz
        values of the default probe run, which lie inside the spectrum
        (Parlett, *The Symmetric Eigenvalue Problem*, 1998); lambda_min is
        lowered by a margin that doubles from SPECTRUM_MARGIN until an LU
        of K - lambda_min I with no negative pivot proves it a bound."""
        if self.eigvals is not None:
            return float(self.eigvals[0]), float(self.eigvals[-1])
        self._sparse_factor(0.0)
        state = self._probe_state(DEFAULT_HUTCHINSON_VECTORS, 0)
        ritz = sla.eigvals_banded(state.band, lower=True)
        margin = SPECTRUM_MARGIN
        # one LU alive at a time: each is dropped inside the condition
        while _inertia(sparse_lu(
                self.K.entries, -(1.0 - margin) * ritz[0]))[1] != 0:
            margin *= 2.0
        return (1.0 - margin) * float(ritz[0]), float(ritz[-1])

    def _sparse_factor(self, eta: float):
        """``sparse_lu`` of K_eta and its log-determinant, checked positive
        definite by its inertia (``_inertia``).  A factorization of
        K itself is timed in ``factor_s`` and leaves ``_logdet0``; on K
        with coincident points (``has_duplicates``), which has equal rows,
        it raises SolverError naming them instead of factoring."""
        if eta == 0.0 and self.K.has_duplicates:
            # coincident points are the unit entries off the diagonal
            upper = sparse.triu(self.K.entries, k=1, format="coo")
            unit = upper.data == 1.0
            named = "; ".join(f"{i} and {j}" for i, j in
                              zip(upper.row[unit][:3], upper.col[unit][:3]))
            raise SolverError(
                f"K + 0.0 I is singular: points {named} coincide "
                f"({np.count_nonzero(unit)} coincident pair(s) in all), so "
                f"K has equal rows; K + eta I with eta > 0 still factors")
        started = time.perf_counter()
        lu = sparse_lu(self.K.entries, eta)
        pivots, negative = _inertia(lu)
        if negative != 0 or not np.all(pivots > 0):
            count = "an unknown number of" if negative is None else negative
            raise SolverError(f"K + {eta} I is not positive definite "
                              f"(indefinite or singular): {count} "
                              f"negative eigenvalue(s) (sparse LDL' inertia)")
        logdet = float(np.sum(np.log(pivots)))
        if eta == 0.0:
            self._logdet0 = logdet
            self.factor_s += time.perf_counter() - started
        return lu, logdet


def _inertia(lu) -> tuple[np.ndarray, int | None]:
    """(pivots, negative) of a matrix's ``sparse_lu``: the diagonal of U,
    read once since SuperLU builds a full copy of U for it, and the
    negative eigenvalues of the matrix by Sylvester's law of inertia, its
    negative pivots, or None when a zero pivot forced SuperLU off the
    diagonal, where they tell nothing."""
    pivots = lu.U.diagonal()
    if np.array_equal(lu.perm_r, lu.perm_c):
        return pivots, int(np.count_nonzero(pivots < 0))
    return pivots, None


def _check_eta(eta: float) -> None:
    if not (np.isfinite(eta) and eta >= 0):
        raise InputError(f"eta must be a finite nonnegative real, got {eta}")


def rademacher_probes(n: int, n_vectors: int, seed: int) -> np.ndarray:
    """n x n_vectors Rademacher probes, one column per generator spawned
    off the master seed, so column i does not depend on how many are
    drawn or in which order they are used."""
    seqs = np.random.SeedSequence(seed).spawn(n_vectors)
    return np.column_stack([
        np.random.default_rng(seq).integers(0, 2, size=n) * 2.0 - 1.0
        for seq in seqs])


# (get, set) thread-count functions of the OpenBLAS builds numpy and scipy
# ship: plain OpenBLAS, scipy-openblas, and its ILP64 build with suffix 64_
_OPENBLAS_THREAD_FUNCTIONS = (
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_",
     "scipy_openblas_set_num_threads64_"),
)


@functools.cache
def _openblas_thread_controls() -> tuple:
    """The (get, set) thread-count functions of every OpenBLAS already
    mapped into this process (found in /proc/self/maps, opened with
    RTLD_NOLOAD so no second copy is loaded); empty for any other BLAS or
    where /proc is missing.  Runs once, on first use, never at import."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[5].strip() for line in maps
                     if "openblas" in os.path.basename(line).lower()}
    except OSError:
        return ()
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for get, set_ in _OPENBLAS_THREAD_FUNCTIONS:
            if hasattr(lib, get) and hasattr(lib, set_):
                get, set_ = getattr(lib, get), getattr(lib, set_)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextmanager
def one_blas_thread():
    """Run the block under one OpenBLAS thread, and restore each library's
    thread count after it, also when it raises.  The setting is
    process-wide while the block lasts: BLAS calls from other Python
    threads run on one thread too.  Without an OpenBLAS it does nothing.

    It is the one thread policy of the package: products with thin n x b
    blocks (block Lanczos, the rotation Q'B of a dense Krylov state) run
    under it at every n, and the dense reduction below
    THREADED_REDUCTION_MIN_N points.  A threaded call wakes the sleeping
    OpenBLAS workers (about 7.5 ms once they have idled, on 2 cores) and
    leaves them spinning after it, which in a kernel search cost twice the
    CPU time for no gain in wall time."""
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    try:
        for _, set_ in controls:
            set_(1)
        yield
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)


class KrylovState(NamedTuple):
    """A block R as T (lower band form) and E with R' K_eta^-p R =
    E' (T + eta I)^-p E after ``steps`` block Lanczos steps; 0 steps on
    dense K, where T is the tridiagonal form of K and E = Q'R.  Not
    ``definite``: a Lanczos T, and so K, is not positive definite."""

    band: np.ndarray
    E: np.ndarray
    steps: int
    definite: bool = True


def block_lanczos(K, R: np.ndarray, tol: float,
                  max_iter: int) -> KrylovState:
    """Block Lanczos on R = Q_1 B_1 against a symmetric sparse K, kept as
    the ``KrylovState`` of its block-tridiagonal T (diagonal blocks A_j,
    couplings B_{j+1}) and E = E_1 B_1; the basis is not stored.

    ``_banded_grams`` reads from it the Gauss-quadrature form
    B_1' E_1' (T + eta I)^-p E_1 B_1 of R' K_eta^-p R (Golub & Meurant,
    *Matrices, Moments and Quadrature*, 2010), which stays accurate
    without reorthogonalization (Meurant & Strakos 2006, *Acta Numerica*
    15:471).  The Krylov space of K + eta I does not depend on eta, so one
    run serves every eta, and only Q_{j-1}, Q_j and the residual block
    are n-length.  It runs until G_1..G_3 at eta = 0, where they
    converge slowest, change by at most ``tol`` relative to
    sqrt(G_ii G_jj) in one step, but takes at least LANCZOS_MIN_STEPS
    steps: a T of 3 blocks gives every form of degree <= 4 in K exactly,
    as the asymptote needs.  ``max_iter`` caps the steps (one sparse
    product K @ Q_j each).  Residual directions at rounding level are
    deflated, never normalized into new directions, and the run ends once
    none remain (the Krylov space is exhausted and T is exact).  A T that
    is not positive definite ends the run after LANCZOS_MIN_STEPS steps,
    with a state that is not ``definite``.  ``Solver`` runs it under one
    OpenBLAS thread (``one_blas_thread``).
    """
    b = R.shape[1]
    Q, B1 = _deflated_qr(R, float(np.linalg.norm(R, axis=0).max()))
    # lower band form of T: band[i - j, j] = T[i, j]; every coupling is
    # b_{j+1} x b_j with b_j <= b, so T has lower bandwidth < 2b
    band = np.zeros((2 * b, 0))
    E = np.zeros((0, b))
    steps = 0
    Q_prev = coupling = previous = None
    change = math.inf
    definite = True
    while Q.shape[1]:
        if steps == max_iter:
            raise SolverError(
                f"block Lanczos did not converge: stopped after "
                f"{steps} of {max_iter} steps (relative change "
                f"{change:.3e}, target {tol:.3e})")
        W = K @ Q
        steps += 1
        scale = float(np.linalg.norm(W, axis=0).max())
        if Q_prev is not None:
            W -= Q_prev @ coupling.T
        Q_prev = None  # released before the QR below makes Q_{j+1}
        A = Q.T @ W
        W -= Q @ A
        A = 0.5 * (A + A.T)
        bj = A.shape[0]
        block = np.zeros((2 * b, bj))
        for c in range(bj):
            block[:bj - c, c] = A[c:, c]
        band = np.hstack([band, block])
        E = np.vstack([B1, np.zeros((band.shape[1] - len(B1), b))])
        try:
            current = _banded_grams(KrylovState(band, E, steps, definite),
                                    0.0, 3)
        except SolverError:
            # T's Ritz values lie in K's spectrum: K is not positive
            # definite, G_p at eta = 0 do not exist, and T serves only
            # the forms of K
            definite, current = False, None
        if previous is not None and current is not None:
            change = max(_relative_change(g, h)
                         for g, h in zip(current, previous))
        if (change <= tol or not definite) and steps >= LANCZOS_MIN_STEPS:
            break
        previous = current
        Q_prev, (Q, coupling) = Q, _deflated_qr(W, scale)
        for c in range(bj):
            band[bj - c:bj - c + Q.shape[1], c - bj] = coupling[:, c]
    return KrylovState(band, E, steps, definite)


def _banded_cholesky(band: np.ndarray, eta: float) -> np.ndarray:
    """Lower banded Cholesky factor of T + eta I (LAPACK ``dpbtrf``), for
    ``dpbtrs``; ``band`` is T in lower band form, band[i - j, j] = T[i, j]."""
    ab = band.copy()
    ab[0] += eta
    L, info = lapack.dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0:
        raise SolverError(f"K + {eta} I is not positive definite (banded "
                          f"Cholesky)")
    return L


def band_product(band: np.ndarray, X: np.ndarray) -> np.ndarray:
    """T X for a symmetric T in lower band form, band[i - j, j] = T[i, j],
    and an array X with one row per row of T."""
    B = band.reshape(band.shape + (1,) * (X.ndim - 1))
    Y = B[0] * X
    for d in range(1, len(band)):
        Y[d:] += B[d, :-d] * X[:-d]
        Y[:-d] += B[d, :-d] * X[d:]
    return Y


def _banded_grams(state: KrylovState, eta: float, count: int) -> list:
    """[G_1, ..., G_count] with G_p = E' (T + eta I)^-p E for the state
    (T, E) of a block R, from one banded Cholesky of T + eta I (T in lower
    band form, see ``_banded_cholesky``).
    With K = Q T Q' and E = Q'R, G_p = R' K_eta^-p R: dense K gives T and
    Q exactly (tridiagonal, Householder), sparse K gives them by block
    Lanczos on R, where E = E_1 B_1 and G_p is a Gauss-quadrature form.
    A state whose T is not positive definite raises SolverError."""
    if not state.definite:
        raise SolverError("K + 0.0 I is not positive definite (banded "
                          "Cholesky)")
    L = _banded_cholesky(state.band, eta)
    Y = lapack.dpbtrs(L, state.E, lower=1)[0]
    grams = [state.E.T @ Y, Y.T @ Y][:count]
    if count > 2:
        grams.append(Y.T @ lapack.dpbtrs(L, Y, lower=1)[0])
    return grams


def _deflated_qr(W: np.ndarray, scale: float):
    """(Q, B) with W = Q B up to rounding and orthonormal Q.  Directions
    at rounding level relative to ``scale`` (by the pivots of a
    column-pivoted QR) are dropped, so Q may have fewer columns than W."""
    n, b = W.shape
    floor = b * math.sqrt(n) * np.finfo(float).eps * scale
    G = W.T @ W
    lam = np.linalg.eigvalsh(G)
    if lam[0] > max(1e-8 * lam[-1], floor ** 2):
        # cond(W) < 1e4 and every direction far above rounding level: two
        # Cholesky-QR passes (BLAS-3 only) orthonormalize to rounding, in
        # 4.3 ms on one thread at n x b = 16384 x 20, where the pivoted
        # Householder QR below (level-2 BLAS) takes 6.3 ms.
        R1 = sla.cholesky(G, check_finite=False)
        Q = W @ _triangular_inverse(R1)
        R2 = sla.cholesky(Q.T @ Q, check_finite=False)
        return Q @ _triangular_inverse(R2), R2 @ R1
    Q, R, perm = sla.qr(W, mode="economic", pivoting=True, check_finite=False)
    keep = int(np.count_nonzero(np.abs(np.diag(R)) > floor))
    B = np.empty((keep, b))
    B[:, perm] = R[:keep]
    return Q[:, :keep], B


def _triangular_inverse(R: np.ndarray) -> np.ndarray:
    """R^-1 of a small upper-triangular R."""
    return sla.solve_triangular(R, np.eye(R.shape[0]), check_finite=False)


def _relative_change(G: np.ndarray, H: np.ndarray) -> float:
    """max |G_ij - H_ij| / sqrt(G_ii G_jj), a change that does not depend
    on the scale of the columns of R (|G_ij| <= sqrt(G_ii G_jj))."""
    d = np.diag(G)
    s = 1.0 / np.sqrt(np.where(d > 0, d, 1.0))
    return float(np.max(np.abs(G - H) * s[:, None] * s))


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
        return splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})
    except RuntimeError as exc:
        raise SolverError(
            f"sparse factorization of K + {eta} I failed: {exc}") from None


@dataclass
class GpModel:
    """Immutable problem instance: observations, design, correlation, points.

    X is factored once, by a thin SVD X = U S V' whose rank must pass
    ``design.numerical_rank``: ``basis`` is U, ``residual`` z - U U'z and
    ``logdet_xtx`` log det X'X = 2 sum log s.  ``degenerate`` flags z in
    range(X) (``residual`` below DEGENERACY_RTOL * ||z||), in which case
    the fitted error variance is identically zero and estimation
    short-circuits.
    """

    z: np.ndarray
    X: DesignMatrix
    K: CorrelationMatrix
    points: np.ndarray
    residual: np.ndarray = field(init=False, repr=False)
    basis: np.ndarray = field(init=False, repr=False)
    logdet_xtx: float = field(init=False, repr=False)
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
        U, s, _ = np.linalg.svd(self.X.entries, full_matrices=False)
        if (rank := numerical_rank(s, n)) < self.m:
            raise ModelError(f"design matrix is rank deficient (rank {rank} "
                             f"< m {self.m})")
        self.basis, self.logdet_xtx = U, 2.0 * float(np.sum(np.log(s)))
        # z in range(X) makes every M-action vanish regardless of eta, so the
        # plain least-squares residual is an equivalent, cheaper probe.
        self.residual = self.z - U @ (U.T @ self.z)
        znorm = np.linalg.norm(self.z)
        self.degenerate = bool(np.linalg.norm(self.residual)
                               <= DEGENERACY_RTOL * max(znorm, 1e-300))

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def m(self) -> int:
        return self.X.m
