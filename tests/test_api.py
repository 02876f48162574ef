"""The package exports exactly the names callers use."""

import pytest

import minsumclust

PUBLIC = [
    "AuditReport",
    "Branch",
    "ClusteringResult",
    "DistanceMode",
    "DualCertificate",
    "GeneratorSpec",
    "Instance",
    "InstanceError",
    "OracleError",
    "audit",
    "brute_force_opt",
    "cluster_cost",
    "generate",
    "min_sum_clustering",
    "verify_dual_feasible",
]


def test_all_lists_the_public_names():
    assert sorted(minsumclust.__all__) == PUBLIC


def test_every_public_name_resolves():
    namespace = {}
    exec("from minsumclust import *", namespace)
    assert all(namespace[name] is getattr(minsumclust, name) for name in PUBLIC)


def test_quick_start():
    # the library example of README.md
    inst = minsumclust.generate(minsumclust.GeneratorSpec(
        "gauss", seed=0, k=2, n_prime=9, epsilon=1.0,
        params={"centers": [[0, 0], [4, 0]], "spreads": [0.5, 0.5], "counts": [5, 5]},
    ))
    result = minsumclust.min_sum_clustering(inst)
    _, opt = minsumclust.brute_force_opt(inst)
    report = minsumclust.audit(inst, result, oracle_opt=opt)
    assert report.ok
    assert result.clustered_count() == 9
    assert result.total_cost == pytest.approx(opt, rel=1e-12)
