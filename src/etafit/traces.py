"""trace((K + eta I)^{-1}) by eigenvalues, Cholesky, or Hutchinson sampling,
plus the fractional-power interpolant for cheap repeated evaluation.

The interpolant represents the normalized trace tau(eta) = trace(K_eta^{-1})/n
through 1/tau(eta) = 1/tau0 + sum_i w_i eta^{1/(i+1)} with w_0 = 1 fixed, so
tau is exact at eta = 0 and at every node, and n*tau(eta) ~ n/eta as
eta -> infinity.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sparse

from .errors import InputError, NumericError, SolverError
from .kernels import CorrelationMatrix
from .model import spectral_jitter

MAX_INTERPOLANT_NODES = 8
DEFAULT_NODES = (1.0, 10.0, 40.0, 100.0, 1000.0)
EIGEN_MAX_N = 1024
CHOLESKY_MAX_N = 8192
DEFAULT_HUTCHINSON_VECTORS = 20
CONDITION_WARN = 1e10


def _as_dense(K) -> np.ndarray:
    if isinstance(K, CorrelationMatrix):
        return K.toarray()
    if sparse.issparse(K):
        return K.toarray()
    return np.asarray(K, dtype=float)


def eigenvalues(K) -> np.ndarray:
    """All eigenvalues of K, ascending (dense path)."""
    A = _as_dense(K)
    try:
        return sla.eigh(A, eigvals_only=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from None


def _trace_eigvals(K) -> np.ndarray:
    """Eigenvalues of K + jitter I, with the solver's jitter policy
    (``model.spectral_jitter``), for 1/(lambda+eta) sums."""
    ev = eigenvalues(K)
    return ev + spectral_jitter(float(ev[0]), ev.size)


def trace_inv_eigen(K, eta: float, eigvals: np.ndarray | None = None) -> float:
    """sum_i 1/(lambda_i + eta) from the full spectrum of K."""
    if eigvals is None:
        eigvals = _trace_eigvals(K)
    return float(np.sum(1.0 / (eigvals + eta)))


def trace_inv_cholesky(K, eta: float) -> float:
    """Squared Frobenius norm of L^{-1} where K + eta I = L L'.

    Applies no jitter: an indefinite K + eta I raises SolverError.
    """
    n = _n_of(K)
    A = _as_dense(K) + eta * np.eye(n)
    try:
        L = sla.cholesky(A, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Cholesky failed for eta={eta}: {exc}") from None
    Linv = sla.solve_triangular(L, np.eye(L.shape[0]), lower=True,
                                check_finite=False)
    return float(np.sum(Linv * Linv))


def _n_of(K) -> int:
    if isinstance(K, CorrelationMatrix):
        return K.n
    return K.shape[0]


def trace_inv_hutchinson(K, eta: float, solver, n_vectors: int,
                         seed: int = 0) -> tuple[float, float]:
    """Rademacher-probe estimate of trace(K_eta^{-1}) with its standard error.

    Deterministic for a given seed: probe vectors come from per-vector
    generators spawned off the master seed, so any evaluation schedule
    yields the same estimate.
    """
    if n_vectors < 2:
        raise InputError("Hutchinson needs at least 2 probe vectors")
    n = _n_of(K)
    seqs = np.random.SeedSequence(seed).spawn(n_vectors)
    samples = np.empty(n_vectors)
    for i, seq in enumerate(seqs):
        rng = np.random.default_rng(seq)
        v = rng.integers(0, 2, size=n) * 2.0 - 1.0
        samples[i] = float(v @ solver.solve(eta, v))
    estimate = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(n_vectors))
    return estimate, stderr


@dataclass
class TraceInterpolant:
    """Fitted interpolant of tau(eta) = trace(K_eta^{-1}) / n.

    ``weights`` holds (w_0, ..., w_p) with w_0 = 1; basis i is
    eta^(1/(i+1)).  ``cond`` is the condition number of the node system.
    """

    nodes: tuple
    tau0: float
    tau_values: tuple
    weights: tuple
    n: int
    method: str = "cholesky"
    seed: int | None = None
    cond: float = 1.0

    def trace(self, eta: float) -> float:
        return self.n * eval_tau(self, eta)

    def to_json(self) -> str:
        return json.dumps({
            "nodes": list(self.nodes),
            "tau0": self.tau0,
            "tau_values": list(self.tau_values),
            "weights": list(self.weights),
            "n": self.n,
            "method": self.method,
            "seed": self.seed,
            "cond": self.cond,
        }, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TraceInterpolant":
        d = json.loads(text)
        return cls(tuple(d["nodes"]), d["tau0"], tuple(d["tau_values"]),
                   tuple(d["weights"]), d["n"], d["method"], d.get("seed"),
                   d.get("cond", 1.0))


def pick_trace_method(K) -> str:
    """eigen for small dense K, Cholesky for mid-size dense, else Hutchinson."""
    n = _n_of(K)
    is_sparse = isinstance(K, CorrelationMatrix) and K.storage == "sparse"
    if not is_sparse and n <= EIGEN_MAX_N:
        return "eigen"
    if not is_sparse and n <= CHOLESKY_MAX_N:
        return "cholesky"
    return "hutchinson"


def _trace_at(K, eta, method, solver, n_vectors, seed, eigvals):
    if method == "eigen":
        return trace_inv_eigen(K, eta, eigvals)
    if method == "cholesky":
        return trace_inv_cholesky(K, eta)
    if method == "hutchinson":
        if solver is None:
            raise InputError("hutchinson trace needs a solver")
        return trace_inv_hutchinson(K, eta, solver, n_vectors, seed)[0]
    raise InputError(f"unknown trace method {method!r}")


def fit_tau_interpolant(K, nodes=DEFAULT_NODES, trace_method: str = "auto",
                        solver=None, n_vectors: int = DEFAULT_HUTCHINSON_VECTORS,
                        seed: int = 0) -> TraceInterpolant:
    """Compute tau at eta=0 and the nodes, then solve for the weights.

    The p x p node system is solved by dense LU with partial pivoting; its
    condition number is recorded and a warning is emitted when it is large.
    More than MAX_INTERPOLANT_NODES nodes are rejected.
    """
    nodes = tuple(float(e) for e in nodes)
    p = len(nodes)
    if p > MAX_INTERPOLANT_NODES:
        raise InputError(
            f"at most {MAX_INTERPOLANT_NODES} interpolation nodes are "
            f"supported, got {p}")
    if any(e <= 0 for e in nodes):
        raise InputError("interpolation nodes must be positive")
    if len(set(nodes)) != p:
        raise InputError("interpolation nodes must be distinct")
    nodes = tuple(sorted(nodes))

    if trace_method == "auto":
        trace_method = pick_trace_method(K)
    eigvals = _trace_eigvals(K) if trace_method == "eigen" else None

    n = _n_of(K)
    tau0 = _trace_at(K, 0.0, trace_method, solver, n_vectors, seed,
                     eigvals) / n
    tau_values = tuple(
        _trace_at(K, e, trace_method, solver, n_vectors, seed, eigvals) / n
        for e in nodes)

    cond = 1.0
    if p == 0:
        weights = (1.0,)
    else:
        A = np.empty((p, p))
        for i, e in enumerate(nodes):
            for j in range(p):
                A[i, j] = e ** (1.0 / (j + 2))
        b = np.array([1.0 / tau_values[i] - 1.0 / tau0 - nodes[i]
                      for i in range(p)])
        cond = float(np.linalg.cond(A))
        if cond > CONDITION_WARN:
            warnings.warn(
                f"trace interpolant node system is ill-conditioned "
                f"(cond={cond:.2e}); use fewer nodes", stacklevel=2)
        lu, piv = sla.lu_factor(A)
        w = sla.lu_solve((lu, piv), b)
        weights = (1.0,) + tuple(float(x) for x in w)

    return TraceInterpolant(nodes, float(tau0), tau_values, weights, n,
                            trace_method, seed, cond)


def eval_tau(interp: TraceInterpolant, eta: float) -> float:
    """tau(eta) = 1 / (1/tau0 + sum_i w_i eta^(1/(i+1))).

    The fitted sum is floored by 1/tau0 + eta: the zero-node form is a
    proven upper bound on tau, so the true 1/tau never falls below it.
    This keeps extrapolation below the smallest node sane when the fitted
    weights oscillate.
    """
    if not (np.isfinite(eta) and eta >= 0):
        raise InputError(f"eta must be a finite nonnegative real, got {eta}")
    if eta == 0.0:
        return interp.tau0
    acc = 1.0 / interp.tau0
    for i, w in enumerate(interp.weights):
        acc += w * eta ** (1.0 / (i + 1))
    acc = max(acc, 1.0 / interp.tau0 + eta)
    if not np.isfinite(acc):
        raise NumericError(
            f"trace interpolant broke down at eta={eta} (1/tau = {acc}); "
            f"the node system may be too ill-conditioned")
    return 1.0 / acc


class ExactTraceProvider:
    """Callable (eta, power) -> trace(K_eta^{-power}) = sum (lam + eta)^-power.

    ``eigvals`` is a spectrum already known, such as a dense Solver's
    ``eigvals``; without it the full spectrum of K is computed once and
    shifted by the solver's jitter policy.
    """

    def __init__(self, K, eigvals: np.ndarray | None = None):
        self.K = K
        self.eigvals = _trace_eigvals(K) if eigvals is None else eigvals

    def __call__(self, eta: float, power: int = 1) -> float:
        return float(np.sum((self.eigvals + eta) ** (-power)))


class HutchinsonTraceProvider:
    """Stochastic provider for sparse paths; power 2 uses ||K_eta^{-1} v||^2."""

    def __init__(self, K, solver, n_vectors: int = DEFAULT_HUTCHINSON_VECTORS,
                 seed: int = 0):
        self.K = K
        self.solver = solver
        self.n_vectors = n_vectors
        self.seed = seed

    def __call__(self, eta: float, power: int = 1) -> float:
        if power == 1:
            return trace_inv_hutchinson(self.K, eta, self.solver,
                                        self.n_vectors, self.seed)[0]
        n = _n_of(self.K)
        seqs = np.random.SeedSequence(self.seed).spawn(self.n_vectors)
        samples = np.empty(self.n_vectors)
        for i, seq in enumerate(seqs):
            rng = np.random.default_rng(seq)
            v = rng.integers(0, 2, size=n) * 2.0 - 1.0
            x = self.solver.solve(eta, v)
            samples[i] = float(x @ x)
        return float(np.mean(samples))


class InterpolantTraceProvider:
    """Power-1 traces from a fitted interpolant, power 2 from a fallback."""

    def __init__(self, interp: TraceInterpolant, fallback=None):
        self.interp = interp
        self.fallback = fallback

    def __call__(self, eta: float, power: int = 1) -> float:
        if power == 1:
            return self.interp.trace(eta)
        if self.fallback is None:
            raise InputError("interpolated traces only support power 1")
        return self.fallback(eta, power)
