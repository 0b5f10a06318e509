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

That branch reads the distinct pair distances from a one-entry memo,
since a kernel search assembles K over the same points at every step.
The memo is keyed on the points' shape and bytes, and holds the sorted
distinct distances and the index that expands them back to the condensed
pair vector (``np.unique(pdist(points), return_inverse=True)``).  A
second assembly over equal points skips ``pdist`` and the sort; points
that differ in any bit, or in shape, replace the entry.  The other
branches evaluate their closed forms on every pair and leave the memo
alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

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

# Peak memory of dense assembly in n x n arrays of doubles, K included:
# the condensed distances, the kernel values over them and the square K.
# tracemalloc measured 2.5 (exponential, Gaussian) and 3.0 (half-integer
# Matern) at n = 2500 and n = 1500.  The general Matern branch peaks when
# it misses the distance memo on scattered points, whose pair distances
# are all distinct: 6.12 at n = 400 and 900, while the memo's distinct
# distances and index (1.0) are alive beside the profile's temporaries
# over them.  On a grid its miss peaks at 3.06 and its hit at 1.5.
DENSE_ASSEMBLY_COPIES = 3.0
BESSEL_ASSEMBLY_COPIES = 6.2

# Where available_memory reads the host's free memory and the limits of
# this process's cgroup.
_MEMINFO = "/proc/meminfo"
_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"

# Scaled distances below this are treated as zero in the general Matern
# branch; K_nu overflows against x**nu underflowing long before this matters.
_TINY_SCALED_DISTANCE = 1e-10

# (key, distinct distances, inverse index) of the last point set the
# general Matern branch assembled over; see ``_distinct_distances``
_distance_memo = None


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

    ``storage`` is "sparse" when ``entries`` is a scipy sparse matrix.
    ``has_duplicates`` flags coincident points (unit off-diagonal entries),
    which make K singular: dense K takes the spectral jitter, and on
    sparse K the factorization of K itself raises SolverError naming them.
    """

    entries: object
    has_duplicates: bool = field(default=False, kw_only=True)

    @property
    def storage(self) -> str:
        return "sparse" if sparse.issparse(self.entries) else "dense"

    @property
    def n(self) -> int:
        return self.entries.shape[0]

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


def _gaussian_like(kernel: CorrelationKernel) -> bool:
    """Whether the kernel is evaluated as the Gaussian profile."""
    return kernel.family == "gaussian" or (
        kernel.family == "matern" and kernel.nu >= MATERN_GAUSSIAN_NU)


def _bessel_matern(kernel: CorrelationKernel) -> bool:
    """Whether the kernel is evaluated by the general Bessel branch."""
    return (kernel.family == "matern" and not _gaussian_like(kernel)
            and _half_integer_order(kernel.nu) is None)


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
    elif _gaussian_like(kernel):
        values = np.exp(-0.5 * r * r)
    else:
        x = math.sqrt(2.0 * kernel.nu) * r
        if _bessel_matern(kernel):
            values = _matern_general(kernel.nu, x)
        else:
            values = _matern_half_integer(_half_integer_order(kernel.nu), x)
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
    if _gaussian_like(kernel):
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


def _read_stat(path: Path) -> dict[str, int]:
    """The ``key value`` lines of a cgroup memory.stat file."""
    return {key: int(value) for key, value in
            (line.split() for line in path.read_text().splitlines())}


def _working_set(directory: Path, usage: str, inactive: str) -> int:
    """Memory charged to a cgroup, less its reclaimable inactive file
    cache."""
    stat = _read_stat(directory / "memory.stat")
    return int((directory / usage).read_text()) - stat.get(inactive, 0)


def _cgroup_headroom() -> int | None:
    """Bytes left under the tightest memory limit of this process's cgroup
    and its ancestors (cgroup v2 ``memory.max``, or v1
    ``hierarchical_memory_limit``), measured against the working set;
    None when no limit is set or none can be read."""
    try:
        with open(_PROC_CGROUP) as fh:
            entries = [line.rstrip("\n").split(":", 2) for line in fh]
    except OSError:
        return None
    headroom = []
    for entry in entries:
        if len(entry) != 3:
            continue
        _, controllers, path = entry
        parts = [part for part in path.split("/") if part]
        try:
            if controllers == "":
                for depth in range(len(parts), 0, -1):
                    level = Path(_CGROUP_ROOT, *parts[:depth])
                    limit = (level / "memory.max").read_text().strip()
                    if limit != "max":
                        headroom.append(int(limit) - _working_set(
                            level, "memory.current", "inactive_file"))
            elif "memory" in controllers.split(","):
                level = Path(_CGROUP_ROOT, "memory", *parts)
                limit = _read_stat(level / "memory.stat")[
                    "hierarchical_memory_limit"]
                headroom.append(limit - _working_set(
                    level, "memory.usage_in_bytes", "total_inactive_file"))
        except (OSError, ValueError, KeyError):
            continue
    return min(headroom) if headroom else None


def available_memory() -> int | None:
    """Bytes of memory available to a new allocation: MemAvailable from
    /proc/meminfo (else the free physical pages), capped by the headroom
    under this process's cgroup memory limit; None when none of these can
    be read."""
    host = None
    try:
        with open(_MEMINFO) as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    host = int(line.split()[1]) * 1024
                    break
    except (OSError, ValueError, IndexError):
        pass
    if host is None:
        try:
            host = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        except (OSError, ValueError):
            pass
    known = [v for v in (host, _cgroup_headroom()) if v is not None]
    return max(min(known), 0) if known else None


def _mib(nbytes: float) -> str:
    """A byte count in MiB: whole MiB from 1 MiB up, two significant
    digits below it, so that a small need never reads 0."""
    mib = nbytes / 2**20
    return f"{mib:.0f}" if mib >= 1.0 else f"{mib:.2g}"


def _memory_shortfall(n: int, copies: float, what: str) -> str | None:
    """What ``copies`` n x n arrays of doubles need for ``what`` against
    the available memory (``available_memory``), when it cannot hold
    them; None when it can or is unknown."""
    need = 8.0 * copies * n * n
    have = available_memory()
    if have is None or need <= have:
        return None
    return (f"about {_mib(need)} MiB for {what}, but only {_mib(have)} MiB "
            f"of memory is available")


def require_dense_memory(n: int, copies: float, what: str) -> None:
    """Raise InputError before an allocation of ``copies`` n x n arrays of
    doubles that the available memory cannot hold, instead of letting the
    operating system kill the process."""
    if shortfall := _memory_shortfall(n, copies, what):
        raise InputError(f"{copies:g} dense n x n arrays at n={n} need "
                         f"{shortfall}")


def require_dense_K_memory(n: int, copies: float, what: str) -> None:
    """``require_dense_memory`` for K stored dense, advising the sparse
    storage of a tapered kernel, which a copy of sparse K cannot use."""
    if shortfall := _memory_shortfall(n, copies, what):
        raise InputError(f"dense K at n={n} needs {shortfall}; use a tapered "
                         f"kernel (such as exp:0.1:taper=0.05) for sparse "
                         f"storage")


def _assembly_copies(kernel: CorrelationKernel) -> float:
    return (BESSEL_ASSEMBLY_COPIES if _bessel_matern(kernel)
            else DENSE_ASSEMBLY_COPIES)


def correlation_matrix(points: np.ndarray,
                       kernel: CorrelationKernel) -> CorrelationMatrix:
    """Assemble K_ij = kernel(||x_i - x_j||_2) over a point set.

    With a positive taper threshold the matrix is assembled in CSR storage
    from a KD-tree neighbor query; otherwise it is dense.  Symmetry is exact
    by construction and the diagonal is exactly 1.  Dense assembly raises
    InputError up front when the memory available cannot hold it.
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
        return CorrelationMatrix(entries, has_duplicates=has_duplicates)

    # its peak exceeds that of K plus the tridiagonal reduction (2 copies)
    require_dense_K_memory(n, _assembly_copies(kernel), "its assembly")
    # one triangle: the condensed pair distances (empty for n = 1)
    if _bessel_matern(kernel):
        distinct, inverse = _distinct_distances(pts)
        condensed = kernel_profile(kernel, distinct)[inverse]
        has_duplicates = bool(distinct.size and distinct[0] == 0.0)
    else:
        dist = pdist(pts)
        condensed = kernel_profile(kernel, dist)
        has_duplicates = bool(np.any(dist == 0.0))
    entries = squareform(condensed, checks=False)
    np.fill_diagonal(entries, 1.0)
    return CorrelationMatrix(entries, has_duplicates=has_duplicates)


def _distinct_distances(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct pair distances of an (n, d) point set and the
    index that expands them to ``pdist(pts)``, from the memo when it holds
    equal points (see the module docstring)."""
    global _distance_memo
    key = (pts.shape, pts.tobytes())
    # one read of the entry: another thread may replace it meanwhile
    entry = _distance_memo
    if entry is not None and entry[0] == key:
        return entry[1], entry[2]
    distinct, inverse = np.unique(pdist(pts), return_inverse=True)
    # every later hit hands out these same arrays
    distinct.flags.writeable = inverse.flags.writeable = False
    _distance_memo = (key, distinct, inverse)
    return distinct, inverse
