"""Trace providers, callables (eta, power) -> trace((K + eta I)^-power):
exact sums over a spectrum of K that a backend hands over, Hutchinson
estimates read from one Krylov run of a solver on the probe block, and the
fractional-power interpolant fitted from either for cheap repeated
evaluation.  ``likelihood.trace_provider`` picks the route that matches the
solver's backend; nothing here reads K itself.

The interpolant represents the normalized trace tau(eta) = trace(K_eta^{-1})/n
through 1/tau(eta) = 1/tau0 + sum_i w_i eta^{1/(i+1)} with w_0 = 1 fixed, so
tau is exact at eta = 0 and at every node, and n*tau(eta) ~ n/eta as
eta -> infinity.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg as sla

from .errors import InputError, NumericError

MAX_INTERPOLANT_NODES = 8
DEFAULT_NODES = (1.0, 10.0, 40.0, 100.0, 1000.0)
DEFAULT_HUTCHINSON_VECTORS = 20
CONDITION_WARN = 1e10


def trace_inv_hutchinson(eta: float, solver, n_vectors: int,
                         seed: int = 0) -> tuple[float, float]:
    """Rademacher-probe estimate of trace(K_eta^{-1}) with its standard error.

    ``solver`` is a ``model.Solver`` of K.  Deterministic for a given seed
    (see ``model.rademacher_probes``); the samples v' K_eta^-1 v are the
    diagonal of the probes' G_1 (``Solver.probe_grams``), so the probe
    block's Krylov state is built once per solver and every later eta
    costs one banded Cholesky.
    """
    if n_vectors < 2:
        raise InputError("Hutchinson needs at least 2 probe vectors")
    samples = np.diag(solver.probe_grams(n_vectors, seed, eta, 1)[0])
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
    method: str = "exact"
    seed: int | None = None
    cond: float = 1.0

    def trace(self, eta: float) -> float:
        return self.n * eval_tau(self, eta)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def fit_tau_interpolant(nodes, traces) -> TraceInterpolant:
    """Compute tau at eta=0 and the nodes from the provider ``traces``
    (``ExactTraceProvider`` or ``HutchinsonTraceProvider``, whose ``n``,
    ``method`` and ``seed`` the interpolant records), then solve for the
    weights.

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

    n = traces.n
    tau0 = traces(0.0) / n
    tau_values = tuple(traces(e) / n for e in nodes)

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
                            traces.method, traces.seed, cond)


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
    """Callable (eta, power) -> trace(K_eta^{-power}) = sum (lam + eta)^-power
    over a given spectrum ``eigvals`` of K, such as a dense Solver's."""

    method = "exact"
    seed = None

    def __init__(self, eigvals: np.ndarray):
        self.eigvals = eigvals
        self.n = eigvals.size

    def __call__(self, eta: float, power: int = 1) -> float:
        return float(np.sum((self.eigvals + eta) ** (-power)))


class HutchinsonTraceProvider:
    """Stochastic provider for sparse paths: power 1 is
    ``trace_inv_hutchinson``, power 2 the mean of ||K_eta^{-1} v||^2, the
    diagonal of the probes' G_2 (``Solver.probe_grams``); any other power
    raises InputError."""

    method = "hutchinson"

    def __init__(self, solver, n_vectors: int = DEFAULT_HUTCHINSON_VECTORS,
                 seed: int = 0):
        self.solver = solver
        self.n = solver.K.n
        self.n_vectors = n_vectors
        self.seed = seed

    def __call__(self, eta: float, power: int = 1) -> float:
        if power == 1:
            return trace_inv_hutchinson(eta, self.solver, self.n_vectors,
                                        self.seed)[0]
        if power != 2:
            raise InputError(f"Hutchinson traces support powers 1 and 2, "
                             f"got {power}")
        G2 = self.solver.probe_grams(self.n_vectors, self.seed, eta, 2)[1]
        return float(np.mean(np.diag(G2)))


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
