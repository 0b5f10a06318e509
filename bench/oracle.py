"""Eigenbasis oracle for the dense profiled estimator, independent of etafit.

One symmetric eigendecomposition K = U diag(lam) U' turns every quantity
of the profiled likelihood into a diagonal sum plus m x m algebra, so the
exact derivative d ell / d eta costs O(n m) per eta.  Its roots are found
with ``scipy.optimize.brentq`` in log10(eta).  ``matern_correlation``
assembles a Matern correlation matrix without etafit's kernel code.  Uses
numpy and scipy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.optimize import brentq
from scipy.spatial.distance import cdist
from scipy.special import gammaln, kve

SCAN_LOG10_ETA = (-6.0, 8.0)
SCAN_PROBES = 281


@dataclass
class OracleRoot:
    log10_eta: float
    sigma2: float
    sigma02: float
    ell: float


def matern_correlation(points: np.ndarray, alpha: float,
                       nu: float) -> np.ndarray:
    """Dense Matern correlation 2^(1-nu)/Gamma(nu) x^nu K_nu(x) at
    x = sqrt(2 nu) r / alpha, with exactly 1 on the diagonal."""
    x = math.sqrt(2.0 * nu) / alpha * cdist(points, points)
    K = np.ones_like(x)
    off = x > 0.0
    xo = x[off]
    # kve(nu, x) = K_nu(x) e^x stays finite where K_nu underflows
    K[off] = np.exp((1.0 - nu) * math.log(2.0) - gammaln(nu)
                    + nu * np.log(xo) - xo) * kve(nu, xo)
    return K


class EigenbasisOracle:
    """Exact profiled likelihood of (z, X, K) in the eigenbasis of K."""

    def __init__(self, K: np.ndarray, X: np.ndarray, z: np.ndarray):
        self.lam, U = sla.eigh(K, driver="evd")
        self.zt = U.T @ z
        self.Xt = U.T @ X
        self.n, self.m = X.shape

    def _terms(self, eta: float):
        d = 1.0 / (self.lam + eta)
        DX = d[:, None] * self.Xt
        B = self.Xt.T @ DX
        factor = sla.cho_factor(B, lower=True)
        beta = sla.cho_solve(factor, DX.T @ self.zt)
        w = d * self.zt - DX @ beta            # U' M z
        s2 = float(self.zt @ w) / (self.n - self.m)
        trace_m = float(np.sum(d)) - float(np.trace(
            sla.cho_solve(factor, DX.T @ DX)))
        logdet_b = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
        return w, s2, trace_m, logdet_b

    def d_ell(self, log10_eta: float) -> float:
        w, s2, trace_m, _ = self._terms(10.0 ** log10_eta)
        return -0.5 * (trace_m - float(w @ w) / s2)

    def ell(self, log10_eta: float) -> float:
        return self.ell_at(10.0 ** log10_eta)

    def ell_at(self, eta: float) -> float:
        """Profiled log likelihood up to the constant -(n-m)(log 2 pi + 1)/2."""
        _, s2, _, logdet_b = self._terms(eta)
        return (-0.5 * (self.n - self.m) * math.log(s2)
                - 0.5 * float(np.sum(np.log(self.lam + eta)))
                - 0.5 * logdet_b)

    def best_interior_root(self) -> OracleRoot | None:
        """The interior maximum with the largest likelihood, or None."""
        lo, hi = SCAN_LOG10_ETA
        if self.lam[0] <= 0.0:
            lo = max(lo, math.log10(-self.lam[0]) + 1e-3)
        grid = np.linspace(lo, hi, SCAN_PROBES)
        signs = np.array([self.d_ell(t) for t in grid])
        roots = [brentq(self.d_ell, grid[i], grid[i + 1], xtol=1e-12)
                 for i in range(len(grid) - 1)
                 if signs[i] > 0.0 > signs[i + 1]]
        if not roots:
            return None
        best = max(roots, key=self.ell)
        s2 = self.sigma2_at(10.0 ** best)
        return OracleRoot(best, s2, s2 * 10.0 ** best, self.ell(best))

    def sigma2_at(self, eta: float) -> float:
        """Profiled sigma^2 at eta."""
        return self._terms(eta)[1]
