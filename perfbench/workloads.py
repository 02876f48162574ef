"""Seeded workload recipes.

Each workload is one fixed suite of instances; ``--seed`` relabels the
points of every instance by a seeded permutation (seed 0 keeps the order the
generator gives).  Relabelling changes the input arrays but not the
clustering problem, so every seed asks the solver for the same amount of
work and run-to-run differences in time come from the host, not from the
draw of instances.  The solver sees nothing but the generated ``Instance``
objects, and the same seed always gives the same instances, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from minsumclust.generators import GeneratorSpec, generate
from minsumclust.geometry import Instance

# Family order of the pd_small recipe; kept here so the recipe cannot drift.
SMALL_FAMILIES = ("rings", "gauss", "box", "metric")


@dataclass(frozen=True)
class Case:
    """One instance of a workload and the arguments it is solved with.

    ``order_seed`` seeds the permutation that relabels the generated points;
    None keeps the generator's order.
    """

    label: str
    spec: GeneratorSpec
    force_primal_dual: bool = False
    solve_seed: int = 0
    score_against_opt: bool = False
    order_seed: tuple[int, int] | None = None


def pd_scale(seed: int) -> list[Case]:
    """Primal-dual branch in its natural regime (k > 4/eps), n = 128.

    Both distance modes and both scale bases (2 at eps = 1, 3 at eps = 0.5);
    n' = 0.9 n everywhere.
    """
    n, n_prime = 128, int(0.9 * 128)
    cases = [
        Case("gauss-k8", _gauss_spec(0, n, 8, n_prime, 1.0, 0.5)),
        Case("box-k8", GeneratorSpec("box", _sub(1), {"n": n, "dims": [1.0, 1.0]},
                                     k=8, n_prime=n_prime, epsilon=1.0)),
        Case("metric-k8", GeneratorSpec("metric", _sub(2), {"n": n, "embed_dim": 3},
                                        k=8, n_prime=n_prime, epsilon=1.0)),
        Case("gauss-k12", _gauss_spec(3, n, 12, n_prime, 0.5, 0.5)),
    ]
    return _relabelled(cases, seed)


def pd_small(seed: int) -> list[Case]:
    """The small-suite recipe's forty tiny instances, forced through the
    primal-dual branch and scored against the exact optimum.

    Case ``i`` is recipe index ``i``; no case is dropped or re-drawn,
    whatever the solver returns on it.
    """
    return _relabelled([_small_case(i) for i in range(40)], seed)


def small_k(seed: int) -> list[Case]:
    """Default path with k <= 4/eps: five exact-DP cases and two local-search
    cases.  The dual ascent never runs here.

    The subset DP's work depends only on n, and its three n = 13 cases sit
    between the local searches at n = 256 and n = 512 in solve time, so the
    median solve time is one of them.
    """
    exact = [
        Case(f"{family}-n{n}-exact",
             GeneratorSpec(family, _sub(10 + i), params,
                           k=2, n_prime=n - 1, epsilon=0.5))
        for i, (family, n, params) in enumerate([
            ("box", 12, {"n": 12, "dims": [1.0, 1.0]}),
            ("gauss", 13, {"centers": [[0.0, 0.0], [3.0, 1.0]], "spreads": [0.6, 0.6],
                           "counts": [7, 6]}),
            ("box", 13, {"n": 13, "dims": [1.0, 1.0]}),
            ("metric", 13, {"n": 13, "embed_dim": 3}),
            ("metric", 14, {"n": 14, "embed_dim": 3}),
        ])
    ]
    local = [
        Case("gauss-n256-local", _gauss_spec(20, 256, 3, int(0.9 * 256), 1.0, 0.7)),
        Case("gauss-n512-local", _gauss_spec(21, 512, 4, int(0.9 * 512), 1.0, 0.7)),
    ]
    return _relabelled(exact + local, seed)


WORKLOADS = {"pd_scale": pd_scale, "pd_small": pd_small, "small_k": small_k}


def build(cases: list[Case]) -> list[Instance]:
    """Generate every case's instance, relabel its points and compute its
    distance matrix."""
    instances = [_relabel(generate(case.spec), case.order_seed) for case in cases]
    for inst in instances:
        inst.distances()
    return instances


def fresh_copy(inst: Instance) -> Instance:
    """An equal instance with an empty cache except the distance matrix, so
    every timed solve starts as a first solve would."""
    copy = Instance(
        mode=inst.mode,
        k=inst.k,
        n_prime=inst.n_prime,
        epsilon=inst.epsilon,
        points=inst.points,
        dist_matrix=inst.dist_matrix,
    )
    copy.distances()
    return copy


def _relabelled(cases: list[Case], seed: int) -> list[Case]:
    if seed == 0:
        return cases
    return [replace(case, order_seed=(seed, i)) for i, case in enumerate(cases)]


def _relabel(inst: Instance, order_seed) -> Instance:
    """The same instance with its points listed in a seeded random order."""
    if order_seed is None:
        return inst
    order = np.random.default_rng(list(order_seed)).permutation(inst.n)
    if inst.points is not None:
        points, matrix = inst.points[order], None
    else:
        points, matrix = None, inst.dist_matrix[np.ix_(order, order)]
    return Instance(mode=inst.mode, k=inst.k, n_prime=inst.n_prime, epsilon=inst.epsilon,
                    points=points, dist_matrix=matrix)


def _sub(index: int) -> int:
    """Generator seed of the suite's case ``index``."""
    return int(np.random.SeedSequence([0, index]).generate_state(1)[0])


def _gauss_spec(index, n, k, n_prime, epsilon, spread) -> GeneratorSpec:
    """k Gaussian blobs whose centers sit on a jittered grid of pitch 3."""
    rng = np.random.default_rng([0, index, 1])
    cols = int(np.ceil(np.sqrt(k)))
    grid = np.array([(i % cols, i // cols) for i in range(k)], dtype=float)
    centers = 3.0 * grid + rng.uniform(-0.6, 0.6, (k, 2))
    counts = [len(part) for part in np.array_split(np.arange(n), k)]
    return GeneratorSpec(
        "gauss",
        _sub(index),
        {"centers": centers.tolist(), "spreads": [spread] * k, "counts": counts},
        k=k,
        n_prime=n_prime,
        epsilon=epsilon,
    )


def _small_case(index: int) -> Case:
    rng = np.random.default_rng(1000 + index)
    n = int(rng.integers(6, 11))
    k = int(rng.integers(2, 4))
    n_prime = n - int(rng.integers(0, 3))
    epsilon = [0.5, 1.0][index % 2]
    family = SMALL_FAMILIES[index % len(SMALL_FAMILIES)]
    if family == "rings":
        params = {"radii": [1.0, 4.0], "counts": [n // 2, n - n // 2], "noise": 0.1}
    elif family == "gauss":
        params = {
            "centers": [[0.0, 0.0], [5.0, 1.0]],
            "spreads": [0.6, 0.6],
            "counts": [n // 2, n - n // 2],
        }
    elif family == "box":
        params = {"n": n, "dims": [2.0, 2.0]}
    else:
        params = {"n": n, "embed_dim": 3}
    spec = GeneratorSpec(
        family=family, seed=index, params=params, k=k,
        n_prime=max(k, n_prime), epsilon=epsilon,
    )
    return Case(f"{family}-r{index}", spec, force_primal_dual=True, score_against_opt=True)
