"""Design matrix construction for the linear mean model.

Polynomial bases use graded-lexicographic monomials (1, x1, x2, x1^2,
x1*x2, x2^2, ...); the trigonometric basis uses sin(pi x_j), cos(pi x_j)
per coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ModelError

RANK_TOL_FACTOR = 1e-12


@dataclass(frozen=True)
class BasisSpec:
    """Basis family for the mean model.

    ``order`` is the maximal total degree q for the polynomial family and
    is ignored for the trigonometric family.
    """

    family: str
    order: int = 0
    dimension: int = 2

    def __post_init__(self):
        if self.family not in ("polynomial", "trigonometric"):
            raise InputError(f"unknown basis family {self.family!r}")
        if self.family == "polynomial" and self.order < 0:
            raise InputError("polynomial order must be nonnegative")
        if self.dimension < 1:
            raise InputError("dimension must be >= 1")


@dataclass
class DesignMatrix:
    entries: np.ndarray

    @property
    def m(self) -> int:
        return self.entries.shape[1]


def monomial_exponents(q: int, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= q, graded, leading variable first.

    Within each total degree k the exponent of x1 descends from k to 0,
    so for d=2 the order is (0,0); (1,0), (0,1); (2,0), (1,1), (0,2); ...
    """
    def _of_degree(k, dims):
        if dims == 1:
            return [(k,)]
        out = []
        for e in range(k, -1, -1):
            out.extend([(e,) + rest for rest in _of_degree(k - e, dims - 1)])
        return out

    exps = []
    for k in range(q + 1):
        exps.extend(_of_degree(k, d))
    return exps


def n_basis(spec: BasisSpec) -> int:
    """Number of basis columns m."""
    if spec.family == "polynomial":
        return math.comb(spec.order + spec.dimension, spec.dimension)
    return 2 * spec.dimension


def numerical_rank(svals: np.ndarray, n: int) -> int:
    """Count of singular values above n * RANK_TOL_FACTOR times the largest."""
    return int(np.sum(svals > n * svals[0] * RANK_TOL_FACTOR))


def build_design(points: np.ndarray, spec: BasisSpec) -> DesignMatrix:
    """Evaluate the basis at every point and verify full column rank."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise InputError("points must be finite")
    n, d = pts.shape
    if d != spec.dimension:
        raise InputError(f"points are {d}-dimensional but the basis expects "
                         f"{spec.dimension}")
    m = n_basis(spec)
    if n <= m:
        raise InputError(f"need more points than basis functions (n={n}, m={m})")

    if spec.family == "polynomial":
        cols = [np.prod(pts ** np.asarray(e), axis=1)
                for e in monomial_exponents(spec.order, d)]
    else:
        cols = []
        for j in range(d):
            cols.append(np.sin(np.pi * pts[:, j]))
            cols.append(np.cos(np.pi * pts[:, j]))
    X = np.column_stack(cols)

    rank = numerical_rank(np.linalg.svd(X, compute_uv=False), n)
    if rank < m:
        raise ModelError(
            f"design matrix is rank deficient (rank {rank} < m {m}) for "
            f"{spec.family} basis of order {spec.order}")
    return DesignMatrix(X)
