"""Seeded instance generators for tests, benchmarks, and the CLI."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .geometry import DistanceMode, Instance, InstanceError


@dataclass
class GeneratorSpec:
    """A reproducible recipe for an instance: identical specs generate
    identical instances bit for bit."""

    family: str
    seed: int
    params: dict = field(default_factory=dict)
    k: int = 2
    n_prime: int | None = None
    epsilon: float = 1.0


def generate(spec: GeneratorSpec) -> Instance:
    maker = _MAKERS.get(spec.family)
    if maker is None:
        raise InstanceError(f"unknown generator family {spec.family!r}")
    points, dist = maker(np.random.default_rng(check_seed(spec.seed)), **spec.params)
    n = points.shape[0] if points is not None else dist.shape[0]
    n_prime = n if spec.n_prime is None else spec.n_prime
    mode = DistanceMode.EXPLICIT_METRIC if dist is not None else DistanceMode.SQEUCLIDEAN
    return Instance(
        mode=mode,
        k=min(spec.k, n),
        n_prime=n_prime,
        epsilon=spec.epsilon,
        points=points,
        dist_matrix=dist,
    )


def check_seed(seed) -> int:
    """The one rule for a seed: a nonnegative integer, as numpy's generators
    take it.  Anything else raises an ``InstanceError`` that names the seed."""
    try:
        if operator.index(seed) >= 0:
            return operator.index(seed)
    except TypeError:
        pass
    raise InstanceError(f"seed must be a nonnegative integer, got {seed!r}")


def _rings(rng, radii=(1.0, 5.0), counts=(16, 16), noise=0.0):
    """Concentric rings: evenly spaced angles, Gaussian radial noise."""
    radii = [float(r) for r in radii]
    counts = [int(c) for c in counts]
    if len(radii) != len(counts) or not radii:
        raise InstanceError("rings needs matching, nonempty radii and counts")
    if any(c < 1 for c in counts):
        raise InstanceError("ring counts must be positive")
    if not all(0.0 <= r < np.inf for r in radii):
        raise InstanceError("rings radii must be finite and nonnegative")
    noise = float(noise)
    if not 0.0 <= noise < np.inf:
        raise InstanceError("rings noise must be finite and nonnegative")
    pieces = []
    for r, c in zip(radii, counts):
        angles = 2.0 * np.pi * np.arange(c) / c
        radial = r + rng.normal(0.0, noise, c) if noise > 0 else np.full(c, r)
        pieces.append(np.column_stack([radial * np.cos(angles), radial * np.sin(angles)]))
    return np.concatenate(pieces), None


def _gauss(rng, centers=((0.0, 0.0), (4.0, 0.0)), spreads=(0.5, 0.5), counts=(16, 16)):
    """Gaussian blobs: counts[i] points about centers[i], with standard
    deviation spreads[i] in each coordinate."""
    try:
        centers = np.asarray(centers, dtype=float)
    except ValueError:
        raise InstanceError("gauss centers must be points of one dimension") from None
    if centers.ndim != 2 or centers.shape[1] < 1:
        raise InstanceError("gauss centers must be points of one dimension")
    spreads = [float(s) for s in spreads]
    counts = [int(c) for c in counts]
    if not (len(centers) == len(spreads) == len(counts)) or len(counts) == 0:
        raise InstanceError("gauss needs matching centers, spreads, counts")
    if not all(0.0 <= s < np.inf for s in spreads):
        raise InstanceError("gauss spreads must be finite and nonnegative")
    if any(c < 1 for c in counts):
        raise InstanceError("mixture counts must be positive")
    pieces = [
        center + rng.normal(0.0, spread, (count, centers.shape[1]))
        for center, spread, count in zip(centers, spreads, counts)
    ]
    return np.concatenate(pieces), None


def _box(rng, n=32, dims=(1.0, 1.0)):
    n = int(n)
    if n < 1:
        raise InstanceError("box needs a positive point count")
    dims = np.asarray(dims, dtype=float)
    if dims.ndim != 1 or dims.size < 1 or not ((dims > 0) & (dims < np.inf)).all():
        raise InstanceError("box dims must be finite positive lengths")
    return rng.uniform(0.0, 1.0, (n, dims.size)) * dims, None


def _metric(rng, n=16, embed_dim=3):
    """A guaranteed metric: Euclidean distances of hidden embedded points."""
    n, embed_dim = int(n), int(embed_dim)
    if n < 1:
        raise InstanceError("metric needs a positive point count")
    if embed_dim < 1:
        raise InstanceError("metric embed_dim must be positive")
    pts = rng.uniform(0.0, 1.0, (n, embed_dim))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    dist = (dist + dist.T) / 2.0
    np.fill_diagonal(dist, 0.0)
    return None, dist


# Family name -> maker(rng, **params), which returns (points, None) or (None, matrix).
_MAKERS = {"rings": _rings, "gauss": _gauss, "box": _box, "metric": _metric}
FAMILIES = tuple(_MAKERS)
