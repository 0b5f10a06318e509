"""Correlation kernels and assembly of the correlation matrix.

Three isotropic families are supported: exponential decay
``exp(-r/alpha)``, the Matern family with smoothness ``nu``, and the
Gaussian kernel ``exp(-r^2 / (2 alpha^2))``.  All kernels equal 1 at zero
distance.  An optional taper zeroes every value at or below a threshold
``kappa``, which makes the correlation matrix sparse for small ``alpha``.

Dense assembly evaluates the kernel on one triangle (the condensed
``pdist`` vector) and mirrors it, so symmetry is exact.  The general
Matern branch calls the Bessel function once per distinct distance, which
on a grid is a few hundred calls instead of one per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist, squareform
from scipy.special import gammaln, kv

from .errors import InputError

FAMILIES = ("exponential", "matern", "gaussian")

# Above this smoothness the Matern kernel is within 1% of the Gaussian
# kernel everywhere, and Bessel evaluation becomes fragile.
MATERN_GAUSSIAN_NU = 25.0

# Scaled distances below this are treated as zero in the general Matern
# branch; K_nu overflows against x**nu underflowing long before this matters.
_TINY_SCALED_DISTANCE = 1e-10


@dataclass(frozen=True)
class CorrelationKernel:
    """Kernel family tag plus hyperparameters.

    ``nu`` is only meaningful for the Matern family.  ``taper_threshold``
    (kappa) in [0, 1) zeroes kernel values <= kappa; 0 disables tapering.
    """

    family: str
    alpha: float
    nu: float = 0.5
    taper_threshold: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown kernel family {self.family!r}; "
                             f"expected one of {FAMILIES}")
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise InputError(f"alpha must be a positive real, got {self.alpha}")
        if self.family == "matern" and not (np.isfinite(self.nu) and self.nu > 0):
            raise InputError(f"nu must be a positive real, got {self.nu}")
        if not (0.0 <= self.taper_threshold < 1.0):
            raise InputError("taper_threshold must lie in [0, 1), got "
                             f"{self.taper_threshold}")


@dataclass
class CorrelationMatrix:
    """Symmetric unit-diagonal correlation matrix over ``n`` points.

    ``entries`` is a dense ndarray or a CSR matrix depending on ``storage``.
    ``has_duplicates`` flags coincident points (unit off-diagonal entries),
    which can break strict positive-definiteness.
    """

    entries: object
    storage: str
    n: int
    has_duplicates: bool = False
    diagnostics: dict = field(default_factory=dict)

    def toarray(self) -> np.ndarray:
        if self.storage == "sparse":
            return self.entries.toarray()
        return self.entries


def _half_integer_order(nu: float) -> int | None:
    """Return p for nu = p + 1/2 when nu is (numerically) a half-integer."""
    two_nu = 2.0 * nu
    rounded = round(two_nu)
    if rounded % 2 == 1 and abs(two_nu - rounded) < 1e-12:
        return (rounded - 1) // 2
    return None


def _matern_half_integer(p: int, x: np.ndarray) -> np.ndarray:
    """Closed form for nu = p + 1/2 at scaled distance x = sqrt(2 nu) r / alpha."""
    poly = np.zeros_like(x)
    for i in range(p + 1):
        coeff = (math.factorial(p + i)
                 / (math.factorial(i) * math.factorial(p - i)))
        poly += coeff * (2.0 * x) ** (p - i)
    return (math.factorial(p) / math.factorial(2 * p)) * np.exp(-x) * poly


def _matern_general(nu: float, x: np.ndarray) -> np.ndarray:
    """General-order Matern profile 2^(1-nu)/Gamma(nu) x^nu K_nu(x).

    The profile is evaluated once per distinct scaled distance and
    scattered back, since each Bessel call is costly and grids repeat
    distances many times.
    """
    out = np.ones_like(x)
    live = x > _TINY_SCALED_DISTANCE
    xl, inverse = np.unique(x[live], return_inverse=True)
    log_pref = (1.0 - nu) * math.log(2.0) - gammaln(nu)
    val = np.exp(log_pref + nu * np.log(xl)) * kv(nu, xl)
    # kv underflows to 0 for large x: the true value is ~0 there.
    val = np.where(np.isfinite(val), val, 0.0)
    out[live] = val[inverse]
    return out


def kernel_profile(kernel: CorrelationKernel, distances: np.ndarray) -> np.ndarray:
    """Vectorized kernel values over an array of nonnegative distances."""
    d = np.asarray(distances, dtype=float)
    if not np.all(np.isfinite(d)):
        raise InputError("distances must be finite")
    if np.any(d < 0):
        raise InputError("distances must be nonnegative")

    # at least 1-d, so that every branch yields a fresh ndarray that can be
    # updated in place; a scalar distance still gets a 0-d result
    r = np.atleast_1d(d / kernel.alpha)
    if kernel.family == "exponential":
        values = np.exp(np.negative(r, out=r), out=r)
    elif kernel.family == "gaussian":
        values = np.exp(-0.5 * r * r)
    else:
        nu = kernel.nu
        if nu >= MATERN_GAUSSIAN_NU:
            values = np.exp(-0.5 * r * r)
        else:
            x = math.sqrt(2.0 * nu) * r
            p = _half_integer_order(nu)
            if p is not None:
                values = _matern_half_integer(p, x)
            else:
                values = _matern_general(nu, x)
    values = np.clip(values, 0.0, 1.0, out=values)

    kappa = kernel.taper_threshold
    if kappa > 0.0:
        values = np.where(values <= kappa, 0.0, values)
    return values.reshape(d.shape)


def kernel_value(kernel: CorrelationKernel, distance: float) -> float:
    """Kernel value at a single distance; exactly 1 at distance 0."""
    return float(kernel_profile(kernel, np.asarray([distance]))[0])


def taper_radius(kernel: CorrelationKernel) -> float:
    """Distance beyond which the tapered kernel is certainly zero."""
    kappa = kernel.taper_threshold
    if kappa <= 0.0:
        return math.inf
    if kernel.family == "exponential":
        return -kernel.alpha * math.log(kappa)
    if kernel.family == "gaussian" or (
            kernel.family == "matern" and kernel.nu >= MATERN_GAUSSIAN_NU):
        return kernel.alpha * math.sqrt(-2.0 * math.log(kappa))
    # Matern: monotone decreasing in distance; bisect on the untapered value.
    untapered = CorrelationKernel(kernel.family, kernel.alpha, kernel.nu, 0.0)
    lo, hi = 0.0, kernel.alpha
    while kernel_value(untapered, hi) > kappa:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if kernel_value(untapered, mid) > kappa:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(hi, 1.0):
            break
    return hi


def correlation_matrix(points: np.ndarray,
                       kernel: CorrelationKernel) -> CorrelationMatrix:
    """Assemble K_ij = kernel(||x_i - x_j||_2) over a point set.

    With a positive taper threshold the matrix is assembled in CSR storage
    from a KD-tree neighbor query; otherwise it is dense.  Symmetry is exact
    by construction and the diagonal is exactly 1.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2:
        raise InputError("points must be an (n, d) array")
    if not np.all(np.isfinite(pts)):
        raise InputError("points must be finite")
    n = pts.shape[0]
    if n < 1:
        raise InputError("need at least one point")

    if kernel.taper_threshold > 0.0:
        radius = taper_radius(kernel)
        tree = cKDTree(pts)
        pairs = tree.query_pairs(r=radius, output_type="ndarray")
        if pairs.size:
            dists = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
            vals = kernel_profile(kernel, dists)
            keep = vals > 0.0
            pairs, dists, vals = pairs[keep], dists[keep], vals[keep]
        else:
            dists = np.empty(0)
            vals = np.empty(0)
        has_duplicates = bool(np.any(dists == 0.0))
        rows = np.concatenate([pairs[:, 0], pairs[:, 1], np.arange(n)])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0], np.arange(n)])
        data = np.concatenate([vals, vals, np.ones(n)])
        entries = sparse.csr_matrix((data, (rows, cols)), shape=(n, n))
        density = entries.nnz / float(n * n)
        return CorrelationMatrix(entries, "sparse", n, has_duplicates,
                                 {"nnz_density": density})

    # one triangle: the condensed pair distances (empty for n = 1)
    dist = pdist(pts)
    entries = squareform(kernel_profile(kernel, dist), checks=False)
    np.fill_diagonal(entries, 1.0)
    has_duplicates = bool(np.any(dist == 0.0))
    return CorrelationMatrix(entries, "dense", n, has_duplicates)
