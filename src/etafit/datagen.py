"""Synthetic dataset generation and CSV persistence.

The test surface is z = sin(pi x1) + sin(pi x2) + eps on [0, 1]^2 with
i.i.d. Gaussian noise.  Noise comes from the counter-based Philox
generator keyed directly on the seed, so a dataset is reproducible
bit-for-bit from its metadata.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InputError

SAMPLINGS = ("grid", "random")


@dataclass
class Dataset:
    points: np.ndarray
    z: np.ndarray
    metadata: dict

    @property
    def n(self) -> int:
        return self.z.shape[0]


def mean_function(points: np.ndarray) -> np.ndarray:
    """sin(pi x1) + sin(pi x2); equals 2 at the center of the unit square."""
    pts = np.atleast_2d(points)
    return np.sin(np.pi * pts[:, 0]) + np.sin(np.pi * pts[:, 1])


def generate_synthetic(n: int, sigma0: float, seed: int = 0,
                       sampling: str = "grid") -> Dataset:
    """Sample n points from [0,1]^2 and add N(0, sigma0^2) noise to the mean.

    Grid sampling requires a perfect-square n and lays the points on a
    uniform s x s lattice including the boundary.
    """
    if sampling not in SAMPLINGS:
        raise InputError(f"unknown sampling {sampling!r}; expected grid/random")
    if sigma0 < 0:
        raise InputError("sigma0 must be nonnegative")
    if n < 1:
        raise InputError("n must be positive")

    rng = np.random.Generator(np.random.Philox(key=seed))
    if sampling == "grid":
        s = math.isqrt(n)
        if s * s != n:
            raise InputError(f"grid sampling needs a perfect-square n, got {n}")
        g = np.linspace(0.0, 1.0, s)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        points = np.column_stack([xx.ravel(), yy.ravel()])
    else:
        points = rng.uniform(0.0, 1.0, size=(n, 2))

    noise = rng.normal(0.0, sigma0, size=n) if sigma0 > 0 else np.zeros(n)
    z = mean_function(points) + noise
    metadata = {"n": n, "d": 2, "sigma0_true": sigma0, "seed": seed,
                "sampling": sampling, "generator": "philox"}
    return Dataset(points, z, metadata)


def _sidecar(path: Path) -> Path:
    return path.with_suffix(path.suffix + ".json")


def save_dataset(dataset: Dataset, path) -> None:
    """CSV with header x1,x2,z plus a sidecar JSON metadata file."""
    path = Path(path)
    lines = ["x1,x2,z"]
    for (x1, x2), z in zip(dataset.points, dataset.z):
        lines.append(f"{x1:.17g},{x2:.17g},{z:.17g}")
    path.write_text("\n".join(lines) + "\n")
    _sidecar(path).write_text(json.dumps(dataset.metadata, indent=2) + "\n")


def load_dataset(path) -> Dataset:
    """Read a dataset written by save_dataset; metadata sidecar is optional."""
    path = Path(path)
    if not path.exists():
        raise InputError(f"dataset file {path} does not exist")
    lines = path.read_text().strip().splitlines()
    if not lines or lines[0].strip().lower() != "x1,x2,z":
        raise InputError(f"{path} is not a dataset CSV (expected header x1,x2,z)")
    points = []
    zs = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise InputError(f"{path}:{i}: expected 3 comma-separated values")
        try:
            x1, x2, z = (float(p) for p in parts)
        except ValueError:
            raise InputError(f"{path}:{i}: non-numeric value") from None
        if not all(math.isfinite(v) for v in (x1, x2, z)):
            raise InputError(f"{path}:{i}: non-finite value")
        points.append((x1, x2))
        zs.append(z)
    if not points:
        raise InputError(f"{path} contains no data rows")

    metadata = {"n": len(zs), "d": 2}
    sidecar = _sidecar(path)
    if sidecar.exists():
        try:
            metadata = json.loads(sidecar.read_text())
        except ValueError as exc:
            raise InputError(f"metadata file {sidecar} is not valid JSON: "
                             f"{exc}") from None
        if not isinstance(metadata, dict):
            raise InputError(f"metadata file {sidecar} must hold a JSON "
                             f"object, not {type(metadata).__name__}")
    return Dataset(np.asarray(points), np.asarray(zs), metadata)
