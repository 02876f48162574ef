"""Solver outputs pinned on seeded instances, one or more per branch.

The expected values were recorded from the solver and are checked in as
literals, so a refactor that moves any output fails here.  Clusters (in the
order returned), outliers, branch, exactness and the number of certificates
must match exactly; the total cost, the lambda bracket and rho1 within
``REL_TOL``.  Regenerate a literal only for a deliberate change of output.
Each result must also audit the same after ``save_result`` and
``load_result``.  The exact oracle's pick among tied optima is pinned the
same way, on coincident points and a unit grid.
"""

import numpy as np
import pytest

from minsumclust.geometry import REL_TOL, Instance
from minsumclust.io import load_result, save_result
from minsumclust.oracle import audit, brute_force_opt
from minsumclust.search import min_sum_clustering

from instances import line_instance, simplex_recipe


def _uniform(seed, n, dim=2, **params):
    pts = np.random.default_rng(seed).uniform(0.0, 4.0, (n, dim))
    return Instance(mode="sqeuclid", points=pts, **params)


def _metric(seed, n, **params):
    pts = np.random.default_rng(seed).uniform(0.0, 4.0, (n, 3))
    dmat = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
    return Instance(mode="metric", dist_matrix=dmat, **params)


# name -> (instance builder, force_primal_dual)
CASES = {
    "degenerate-k-at-least-nprime": (
        lambda: line_instance(0.0, 5.0, 9.0, 2.5, k=3, n_prime=3), False),
    "degenerate-coincident": (
        lambda: line_instance(*[2.0] * 6, k=2, n_prime=5, eps=0.5), False),
    "small-k-exact": (lambda: _uniform(1, 10, k=2, n_prime=9, epsilon=1.0), False),
    "small-k-local-search": (lambda: _uniform(2, 24, k=3, n_prime=22, epsilon=1.0), False),
    "one-probe-sqeuclid": (lambda: _uniform(3, 16, k=5, n_prime=15, epsilon=1.0), False),
    "one-probe-metric": (lambda: _metric(4, 14, k=6, n_prime=13, epsilon=1.0), False),
    "two-endpoints-split-sqeuclid": (lambda: simplex_recipe(10), True),
    "two-endpoints-split-metric": (lambda: simplex_recipe(3), True),
    "bipoint-low-metric": (lambda: simplex_recipe(187), True),
}

EXPECTED = {
    "bipoint-low-metric": dict(
        clusters=[[0, 8], [1, 3], [2, 7]],
        outliers=[4, 5, 6, 9],
        branch="bipoint_low", exact=False, certificates=2,
        total_cost=0.0, lambda_low=6.422854282493468,
        lambda_high=6.423834422014679, rho1=0.75,
    ),
    "degenerate-coincident": dict(
        clusters=[[0, 1, 2], [3, 4]],
        outliers=[5],
        branch="degenerate", exact=True, certificates=0,
        total_cost=0.0, lambda_low=0.0,
        lambda_high=0.0, rho1=1.0,
    ),
    "degenerate-k-at-least-nprime": dict(
        clusters=[[0], [1], [2]],
        outliers=[3],
        branch="degenerate", exact=True, certificates=0,
        total_cost=0.0, lambda_low=0.0,
        lambda_high=0.0, rho1=1.0,
    ),
    "one-probe-metric": dict(
        clusters=[[6, 13], [4, 5, 10], [8, 12], [0, 2, 11], [3], [7]],
        outliers=[1, 9],
        branch="bipoint_high", exact=False, certificates=1,
        total_cost=8.399969276620526, lambda_low=1.761408749115512,
        lambda_high=1.761408749115512, rho1=1.0,
    ),
    "one-probe-sqeuclid": dict(
        clusters=[[5, 6, 8, 13], [3, 15], [4, 9], [0, 2, 11], [10, 14]],
        outliers=[1, 7, 12],
        branch="bipoint_high", exact=False, certificates=1,
        total_cost=7.786052743066969, lambda_low=2.408501326282652,
        lambda_high=2.408501326282652, rho1=1.0,
    ),
    "small-k-exact": dict(
        clusters=[[0, 1, 5, 6], [2, 4, 7, 8, 9]],
        outliers=[3],
        branch="small_k", exact=True, certificates=0,
        total_cost=38.113490753956725, lambda_low=0.0,
        lambda_high=0.0, rho1=1.0,
    ),
    "small-k-local-search": dict(
        clusters=[[8, 11, 17, 19, 20, 21, 22], [2, 4, 6, 7, 10, 12, 13, 15, 18],
                  [0, 3, 5, 9, 14, 23]],
        outliers=[1, 16],
        branch="small_k", exact=False, certificates=0,
        total_cost=83.81214289305453, lambda_low=0.0,
        lambda_high=0.0, rho1=1.0,
    ),
    "two-endpoints-split-metric": dict(
        clusters=[[1, 2, 3, 4, 5, 6], [0]],
        outliers=[7],
        branch="bipoint_high", exact=False, certificates=2,
        total_cost=13.12899010329051, lambda_low=2.0178721267527333,
        lambda_high=2.0208308835368283, rho1=0.6666666666666666,
    ),
    "two-endpoints-split-sqeuclid": dict(
        clusters=[[1, 2, 3, 4, 5, 6, 7], [0]],
        outliers=[],
        branch="bipoint_high", exact=False, certificates=2,
        total_cost=300.67648934965064, lambda_low=33.40837137331877,
        lambda_high=33.408562538282396, rho1=0.6666666666666666,
    ),
}


def _unit_grid(mode, k, n_prime, cols=3, rows=3):
    """The cols x rows grid of unit spacing, numbered row by row; metric
    mode takes L1 distances.  Many clusterings tie at the optimum."""
    pts = np.array([(x, y) for y in range(rows) for x in range(cols)], dtype=float)
    if mode == "sqeuclid":
        return Instance(mode=mode, k=k, n_prime=n_prime, epsilon=1.0, points=pts)
    dmat = np.abs(pts[:, None] - pts[None]).sum(axis=-1)
    return Instance(mode=mode, k=k, n_prime=n_prime, epsilon=1.0, dist_matrix=dmat)


# The exact oracle's choice among tied optima: name -> (instance builder,
# clusters in the order returned, cost).  Every cost is a sum of integers.
ORACLE_TIES = {
    "coincident": (lambda: line_instance(*[2.0] * 7, k=3, n_prime=5),
                   [[0, 1, 2, 3, 4]], 0.0),
    "unit-grid-k2": (lambda: _unit_grid("sqeuclid", 2, 7),
                     [[1, 2, 4, 5], [3, 6, 7]], 12.0),
    "unit-grid-k3": (lambda: _unit_grid("sqeuclid", 3, 9),
                     [[0, 3, 6], [1, 2, 5], [4, 7, 8]], 14.0),
    "unit-grid-l1-k3": (lambda: _unit_grid("metric", 3, 9),
                        [[0, 3, 6], [1, 4, 7], [2, 5, 8]], 12.0),
    # with outliers at k = 4 and n = 14, where the DP's middle layers skip
    # low points and its last computes only the n'-point masks
    "unit-grid-4x3-k4": (lambda: _unit_grid("sqeuclid", 4, 10, cols=4),
                         [[0, 4, 5], [1, 2, 6], [3, 7], [8, 9]], 10.0),
    "unit-grid-4x3-l1-k4": (lambda: _unit_grid("metric", 4, 10, cols=4),
                            [[0, 4, 8], [1, 5, 9], [2, 6], [3, 7]], 10.0),
    "unit-grid-7x2-k3": (lambda: _unit_grid("sqeuclid", 3, 12, cols=7, rows=2),
                         [[0, 1, 7, 8], [2, 3, 9, 10], [4, 5, 11, 12]], 24.0),
    "unit-grid-7x2-l1-k2": (lambda: _unit_grid("metric", 2, 13, cols=7, rows=2),
                            [[0, 1, 2, 7, 8, 9], [3, 4, 5, 6, 10, 11, 12]], 65.0),
}


@pytest.mark.parametrize("name", sorted(ORACLE_TIES))
def test_oracle_tie_breaking_is_pinned(name):
    build, clusters, cost = ORACLE_TIES[name]
    got_clusters, got_cost = brute_force_opt(build())
    assert [sorted(c) for c in got_clusters] == clusters
    assert got_cost == cost


def _close(got, want):
    return abs(got - want) <= REL_TOL * max(abs(got), abs(want))


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_pinned(name):
    build, force = CASES[name]
    res = min_sum_clustering(build(), force_primal_dual=force)
    want = EXPECTED[name]
    assert [sorted(c) for c in res.clusters] == want["clusters"]
    assert sorted(res.outliers) == want["outliers"]
    assert res.branch.value == want["branch"]
    assert res.exact is want["exact"]
    assert len(res.certificates) == want["certificates"]
    for field in ("total_cost", "lambda_low", "lambda_high", "rho1"):
        assert _close(getattr(res, field), want[field]), field


@pytest.mark.parametrize("name", sorted(CASES))
def test_audit_reads_the_same_after_save_and_load(name, tmp_path):
    build, force = CASES[name]
    inst = build()
    res = min_sum_clustering(inst, force_primal_dual=force)
    save_result(res, tmp_path / "result.txt")
    assert audit(inst, load_result(tmp_path / "result.txt")).lines() == audit(inst, res).lines()
