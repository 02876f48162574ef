"""Instance recipes shared by the test modules and ``tools/fingerprint.py``."""

import numpy as np

from minsumclust.geometry import Instance

# An epsilon whose scale base is the key.
EPS_OF_BASE = {2: 1.0, 3: 0.5}


def line_instance(*xs, k=1, n_prime=None, eps=1.0):
    """Points on a line; n' defaults to every point."""
    pts = np.array(xs, dtype=float).reshape(-1, 1)
    n_prime = len(xs) if n_prime is None else n_prime
    return Instance(mode="sqeuclid", k=k, n_prime=n_prime, epsilon=eps, points=pts)


def simplex_groups(dim, per_vertex):
    """``per_vertex`` coincident points at each vertex of the unit simplex."""
    return np.repeat(np.eye(dim + 1), per_vertex, axis=0)


def simplex_recipe(seed):
    """Equal groups at the vertices of a scaled simplex, shuffled, in either
    distance mode.  Groups merge together, so k' jumps past k and most seeds
    end the lambda search on two distinct endpoints."""
    rng = np.random.default_rng(seed)
    dim, per = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)][seed % 7]
    pts = rng.uniform(0.5, 3.0) * simplex_groups(dim, per)[rng.permutation((dim + 1) * per)]
    n, k = len(pts), int(rng.integers(1, dim + 1))
    params = dict(k=k, n_prime=n - int(rng.integers(0, 2)),
                  epsilon=float(rng.choice([0.5, 1.0])))
    if seed % 2:
        dmat = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
        return Instance(mode="metric", dist_matrix=dmat, **params)
    return Instance(mode="sqeuclid", points=pts, **params)
