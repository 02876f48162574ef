"""Exhaustive oracle, feasibility verification, and the audit harness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minsumclust.dual import run_phase1
from minsumclust.geometry import REL_TOL, DistanceMode, Instance, cluster_cost, tightness_tolerance
from minsumclust.oracle import (
    OracleError,
    _subset_costs,
    audit,
    brute_force_opt,
    enumeration_tractable,
    verify_dual_feasible,
)
from minsumclust.search import (
    DualCertificate,
    approx_bound,
    min_sum_clustering,
    small_k_solver,
)

from instances import (
    exhaustive_opt,
    exhaustive_worst_slack,
    grid_instance,
    line_instance,
    scalar_subset_dp,
    untied_instance,
)


def two_pairs(metric):
    """Two close pairs far apart on a line, k = 2, with squared distances or,
    in metric mode, plain ones."""
    inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
    if not metric:
        return inst
    return Instance(mode="metric", k=2, n_prime=4, epsilon=1.0,
                    dist_matrix=np.sqrt(inst.distances()))


class TestBruteForce:
    def test_two_pairs(self):
        inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
        clusters, cost = brute_force_opt(inst)
        assert cost == pytest.approx(0.02)
        assert sorted(map(sorted, clusters)) == [[0, 1], [2, 3]]

    def test_k_at_least_budget_is_free(self):
        inst = line_instance(0.0, 3.0, 8.0, k=3)
        _, cost = brute_force_opt(inst)
        assert cost == 0.0

    def test_far_point_becomes_outlier(self):
        inst = line_instance(0.0, 0.1, 5.0, 5.1, 100.0, k=2, n_prime=4)
        clusters, cost = brute_force_opt(inst)
        assert cost == pytest.approx(0.02)
        assert all(4 not in c for c in clusters)

    def test_clusters_exactly_budget(self):
        inst = line_instance(0.0, 1.0, 2.0, 7.0, 8.0, k=2, n_prime=3)
        clusters, _ = brute_force_opt(inst)
        assert sum(len(c) for c in clusters) == 3

    def test_too_large_rejected(self):
        rng = np.random.default_rng(0)
        inst = Instance(
            mode="sqeuclid", k=5, n_prime=40, epsilon=1.0,
            points=rng.normal(size=(40, 2)),
        )
        assert not enumeration_tractable(inst)
        with pytest.raises(OracleError):
            brute_force_opt(inst)

    def test_step_bound_refuses_what_the_dp_cannot_finish(self):
        # 3 (3**16 - 1) / 2 = 64.6M steps exceed the budget
        rng = np.random.default_rng(1)
        inst = Instance(
            mode="sqeuclid", k=3, n_prime=16, epsilon=1.0,
            points=rng.normal(size=(16, 2)),
        )
        assert not enumeration_tractable(inst)
        with pytest.raises(OracleError):
            brute_force_opt(inst)

    def test_step_bound_admits_what_the_dp_can_finish(self):
        # 4 (3**13 - 1) / 2 = 3.2M steps fit the budget, with an outlier
        rng = np.random.default_rng(2)
        inst = Instance(
            mode="sqeuclid", k=4, n_prime=12, epsilon=1.0,
            points=rng.normal(size=(13, 2)),
        )
        assert enumeration_tractable(inst)
        assert small_k_solver(inst).exact

    def test_agrees_with_small_k_exact_regime(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 9))
            k = int(rng.integers(2, 4))
            inst = Instance(
                mode="sqeuclid", k=k, n_prime=max(k, n - 1), epsilon=1.0,
                points=rng.uniform(0, 2, (n, 2)),
            )
            _, opt = brute_force_opt(inst)
            res = small_k_solver(inst)
            assert res.exact
            assert res.total_cost == pytest.approx(opt, rel=1e-9, abs=1e-12)


    @given(st.integers(0, 2**32 - 1), st.sampled_from(["sqeuclid", "metric"]),
           st.sampled_from([2, 3]), st.integers(1, 3), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_references(self, seed, mode, base, k, tied):
        # the scalar DP bit for bit, and the exhaustive optimum and the
        # clusters' own costs up to summation order
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        n_prime = int(rng.integers(1, n + 1))
        inst = (grid_instance(rng, mode, base, n, k=k, n_prime=n_prime) if tied
                else untied_instance(rng, mode, base, n, k=k, n_prime=n_prime))
        clusters, cost = brute_force_opt(inst)
        want_costs, want_clusters, want_cost = scalar_subset_dp(inst)
        assert np.array_equal(_subset_costs(inst.distances()), want_costs)
        assert (clusters, cost) == (want_clusters, want_cost)
        assert sum(len(c) for c in clusters) == inst.n_prime
        assert len(set().union(*clusters)) == inst.n_prime
        assert 0 < len(clusters) <= k
        recomputed = sum(cluster_cost(inst, c) for c in clusters)
        for want in (exhaustive_opt(inst), recomputed):
            assert abs(cost - want) <= REL_TOL * max(abs(cost), abs(want))

    @pytest.mark.parametrize("mode", ["sqeuclid", "metric"])
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_subset_costs_agree_with_cluster_cost(self, n, mode):
        rng = np.random.default_rng(n)
        for inst in (grid_instance(rng, mode, 2, n), untied_instance(rng, mode, 2, n)):
            cost = _subset_costs(inst.distances())
            assert cost.shape == (1 << n,) and cost[0] == 0.0
            for mask in range(1, 1 << n):
                want = cluster_cost(inst, [i for i in range(n) if mask >> i & 1])
                assert abs(cost[mask] - want) <= REL_TOL * want


class TestVerifyDualFeasible:
    def test_zero_duals_always_feasible(self):
        inst = line_instance(0.0, 1.0, 2.0)
        ok, worst = verify_dual_feasible(inst, np.zeros(3), 0.5)
        assert ok and worst <= 0.0

    def test_overpaying_singleton_infeasible(self):
        inst = line_instance(0.0, 0.0, 0.0)
        gamma, lam = 2.0, 1.0
        ok, worst = verify_dual_feasible(inst, np.full(3, gamma), lam)
        assert not ok
        assert worst >= gamma - lam

    @pytest.mark.parametrize("metric", [False, True])
    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    def test_duals_outside_the_program_are_infeasible(self, value, metric):
        # every constraint has slack here, yet no dual may be negative or
        # non-finite; in either distance mode the check says so with an
        # infinite slack
        inst = two_pairs(metric)
        assert verify_dual_feasible(inst, np.full(4, -1.0), 1.0) == (False, np.inf)
        alpha = np.zeros(4)
        alpha[2] = value
        assert verify_dual_feasible(inst, alpha, 1.0) == (False, np.inf)

    @pytest.mark.parametrize("shape", [(0,), (1,), (3,), (5,), (4, 1)])
    def test_a_vector_of_another_shape_is_infeasible(self, shape):
        # one dual of 0.05 would broadcast over all four points and meet
        # every constraint; only one dual per point is a certificate
        inst = two_pairs(False)
        assert verify_dual_feasible(inst, np.full(shape, 0.05), 1.0) == (False, np.inf)

    @pytest.mark.parametrize("lam", [np.inf, np.nan])
    def test_a_non_finite_lambda_is_infeasible(self, lam):
        assert verify_dual_feasible(two_pairs(False), np.zeros(4), lam) == (False, np.inf)

    @pytest.mark.parametrize("seed", range(8))
    def test_fast_and_exhaustive_agree_on_ascent_output(self, seed):
        rng = np.random.default_rng(seed)
        inst = Instance(
            mode="sqeuclid", k=1, n_prime=7, epsilon=1.0,
            points=rng.uniform(0, 2, (8, 2)),
        )
        lam = float(rng.uniform(0.1, 1.5))
        out = run_phase1(inst, lam)
        fast_ok, fast_worst = verify_dual_feasible(inst, out.alpha, lam)
        exact_worst = exhaustive_worst_slack(inst, out.alpha, lam)
        assert fast_ok and exact_worst <= tightness_tolerance(inst, lam)
        assert fast_worst <= exact_worst + 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_modes_agree_on_random_duals(self, seed):
        # the scan and the exhaustive reference reach the same verdict
        rng = np.random.default_rng(50 + seed)
        n = int(rng.integers(3, 9))
        inst = Instance(
            mode="sqeuclid", k=1, n_prime=n, epsilon=1.0,
            points=rng.uniform(0, 2, (n, 2)),
        )
        alpha = rng.uniform(0, 1.0, n)
        lam = float(rng.uniform(0, 1.0))
        fast_ok, _ = verify_dual_feasible(inst, alpha, lam)
        exact_worst = exhaustive_worst_slack(inst, alpha, lam)
        assert fast_ok == (exact_worst <= tightness_tolerance(inst, lam))

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["sqeuclid", "metric"]),
           st.sampled_from([2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_reference_on_tied_duals(self, seed, mode, base):
        # grid points and one raised level that many duals share, as in an
        # ascent, but every dual nonnegative
        rng = np.random.default_rng(seed)
        inst = grid_instance(rng, mode, base, int(rng.integers(1, 9)))
        level = rng.uniform(0.5, 4.0)
        alpha = np.where(rng.uniform(size=inst.n) < 0.5, level, rng.uniform(0.0, level, inst.n))
        lam = rng.uniform(0.0, inst.n * level)
        feasible, worst = verify_dual_feasible(inst, alpha, lam)
        want = exhaustive_worst_slack(inst, alpha, lam)
        tau = tightness_tolerance(inst, lam)
        assert feasible == (want <= tau)
        # the scan family is a subfamily; its sums round another way, far
        # inside tau
        assert worst <= want + 1e-3 * tau


def merge_into_an_empty_cluster(inst, res):
    res.clusters = [res.clusters[0] | res.clusters[1], set()]
    res.total_cost = cluster_cost(inst, res.clusters[0])


def cluster_one_point(inst, res):
    res.clusters, res.outliers, res.total_cost = [{0}], set(range(1, inst.n)), 0.0


class TestAudit:
    def test_degenerate_instance_passes_with_unit_ratio(self):
        inst = line_instance(1.0, 1.0, 1.0, k=2)
        res = min_sum_clustering(inst)
        report = audit(inst, res, oracle_opt=0.0)
        assert report.ok
        assert report.cost_ratio == 1.0

    def test_valid_run_within_bound(self):
        rng = np.random.default_rng(42)
        inst = Instance(
            mode="sqeuclid", k=2, n_prime=10, epsilon=1.0,
            points=rng.uniform(0, 2, (10, 2)),
        )
        _, opt = brute_force_opt(inst)
        res = min_sum_clustering(inst, force_primal_dual=True)
        report = audit(inst, res, oracle_opt=opt)
        assert report.dual_feasible
        assert report.worst_constraint_slack <= tightness_tolerance(inst, res.lambda_high)
        assert report.cost_ratio is not None
        assert report.cost_ratio <= approx_bound(inst.epsilon)

    def test_corrupted_result_flags_disjointness(self):
        inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
        res = min_sum_clustering(inst)
        res.clusters[1].add(0)  # point 0 now lives in two clusters
        report = audit(inst, res)
        assert not report.ok
        assert any("shares points" in msg for msg in report.invariant_failures)

    def test_wrong_cost_flags_mismatch(self):
        inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
        res = min_sum_clustering(inst)
        res.total_cost += 1.0
        report = audit(inst, res)
        assert any("disagrees with recomputation" in m for m in report.invariant_failures)

    def test_infeasible_certificate_detected(self):
        inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
        res = min_sum_clustering(inst, force_primal_dual=True)
        res.certificates[0].alpha = res.certificates[0].alpha + 100.0
        report = audit(inst, res)
        assert not report.dual_feasible

    def test_missing_certificates_fail(self):
        inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
        res = min_sum_clustering(inst, force_primal_dual=True)
        assert audit(inst, res).ok and res.lambda_low < res.lambda_high
        res.certificates = []
        report = audit(inst, res)
        assert not report.ok and not report.dual_feasible
        assert report.invariant_failures == [
            "bipoint_high result carries certificates at lambda [], "
            f"expected {[res.lambda_low, res.lambda_high]}"
        ]

    def test_extra_certificate_fails(self):
        inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
        res = min_sum_clustering(inst, force_primal_dual=True)
        res.certificates.append(DualCertificate(res.lambda_high, np.zeros(inst.n)))
        report = audit(inst, res)
        assert not report.ok and not report.dual_feasible
        assert len(report.invariant_failures) == 1
        assert "result carries certificates at lambda [" in report.invariant_failures[0]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_cost_fails(self, value):
        inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
        res = min_sum_clustering(inst)
        res.total_cost = value
        report = audit(inst, res)
        assert not report.ok
        assert any("is not finite" in m for m in report.invariant_failures)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_certificate_fails(self, value):
        inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
        res = min_sum_clustering(inst, force_primal_dual=True)
        res.certificates[0].alpha = res.certificates[0].alpha.copy()
        res.certificates[0].alpha[1] = value
        report = audit(inst, res)
        assert not report.ok and not report.dual_feasible
        assert any("non-finite" in m for m in report.invariant_failures)

    @pytest.mark.parametrize("value", [-1.0, -1e6])
    def test_negative_certificate_fails(self, value):
        # alpha >= 0 is a constraint of the dual program; a negative dual
        # satisfies every cluster constraint, so the scan alone would pass it
        inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
        res = min_sum_clustering(inst, force_primal_dual=True)
        res.certificates[0].alpha = np.full(inst.n, value)
        report = audit(inst, res)
        assert not report.ok and not report.dual_feasible
        assert report.invariant_failures == [
            f"dual certificate at lambda {res.certificates[0].lam:.6g} holds a negative dual"
        ]

    @pytest.mark.parametrize("length", [1, 3, 5])
    def test_certificate_of_another_length_fails(self, length):
        # one dual would broadcast over all four points and pass the scan
        inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
        res = min_sum_clustering(inst, force_primal_dual=True)
        for cert in res.certificates:
            cert.alpha = np.full(length, 0.05)
        report = audit(inst, res)
        assert not report.ok and not report.dual_feasible
        assert report.invariant_failures == [
            f"dual certificate at lambda {cert.lam:.6g} has shape ({length},), not (4,)"
            for cert in res.certificates
        ]

    def test_result_of_another_size_fails_without_raising(self):
        # the 14-point result's clusters and duals index points the 13-point
        # instance lacks; its certificates fail for their length
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 2, (14, 2))
        params = dict(mode="sqeuclid", k=5, n_prime=12, epsilon=1.0)
        res = min_sum_clustering(Instance(points=pts, **params))
        assert res.certificates and 13 in set().union(*res.clusters)
        report = audit(Instance(points=pts[:13], **params), res)
        assert not report.ok and not report.dual_feasible
        assert report.invariant_failures == [
            "result states n 14, but the instance has 13",
            *(f"dual certificate at lambda {cert.lam:.6g} has shape (14,), not (13,)"
              for cert in res.certificates),
        ]

    def test_checks_use_the_base_of_epsilon(self):
        # lambda = 9 and alpha 5 on the unit triangle: 15 - 9 exceeds the
        # scaled cost 2 * 2 at base 2 (eps = 1) but not 3 * 2 at base 3
        h = np.sqrt(3.0) / 2.0
        pts = np.array([[0, 0], [1, 0], [0.5, h], [50, 50], [50, 51], [80, 0]])
        inst = Instance(mode="sqeuclid", k=3, n_prime=6, epsilon=1.0, points=pts)
        alpha = np.array([5.0, 5.0, 5.0, 0.0, 0.0, 0.0])
        feasible, slack = verify_dual_feasible(inst, alpha, 9.0)
        assert not feasible and slack == pytest.approx(2.0)
        assert exhaustive_worst_slack(inst, alpha, 9.0) == pytest.approx(2.0)
        res = min_sum_clustering(inst)
        res.certificates = [DualCertificate(9.0, alpha)]
        res.base = 3
        report = audit(inst, res)
        assert not report.ok and not report.dual_feasible
        assert report.worst_constraint_slack == pytest.approx(2.0)
        assert "result states scale base 3, but epsilon 1 gives base 2" in (
            report.invariant_failures
        )

    def test_stated_cost_constant_must_match_the_base(self):
        inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
        res = min_sum_clustering(inst, force_primal_dual=True)
        assert audit(inst, res).ok
        res.c_eps = 1.0
        report = audit(inst, res)
        assert not report.ok
        assert report.invariant_failures == ["result states c_eps 1, but base 2 gives 144"]

    @pytest.mark.parametrize("name, value, message", [
        ("n", 5, "n 5, but the instance has 4"),
        ("mode", DistanceMode.EXPLICIT_METRIC, "mode metric, but the instance has sqeuclid"),
        ("k", 3, "k 3, but the instance has 2"),
        ("n_prime", 3, "n_prime 3, but the instance has 4"),
        ("epsilon", 0.5, "epsilon 0.5, but the instance has 1.0"),
    ])
    def test_stated_instance_parameters_must_match(self, name, value, message):
        inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
        res = min_sum_clustering(inst, force_primal_dual=True)
        setattr(res, name, value)
        report = audit(inst, res)
        assert not report.ok
        assert report.invariant_failures == [f"result states {message}"]

    @pytest.mark.parametrize("edit, ratio, message, size_bound", [
        (merge_into_an_empty_cluster, None, "cluster 1 is empty", False),
        (lambda inst, res: res.outliers.clear(), None,
         "outlier set is not the complement of the clustered points", False),
        # at eps 0.5 at least 2 of n' = 4 points must be clustered
        (cluster_one_point, None, "clustered 1 points outside [2.00, 4]", True),
        (None, 1e4, "cost ratio 1e+04 exceeds the guarantee 3904", False),
    ], ids=["empty-cluster", "outliers", "clustered-count", "cost-ratio"])
    def test_each_failure_lands_in_its_list(self, edit, ratio, message, size_bound):
        inst = line_instance(0.0, 0.1, 5.0, 5.1, 9.0, k=2, n_prime=4, eps=0.5)
        res = min_sum_clustering(inst)
        assert audit(inst, res).ok and res.outliers == {4}
        if edit is not None:
            edit(inst, res)
        report = audit(inst, res, oracle_opt=None if ratio is None else res.total_cost / ratio)
        assert not report.ok
        failures = report.size_bound_violations if size_bound else report.invariant_failures
        others = report.invariant_failures if size_bound else report.size_bound_violations
        assert (failures, others) == ([message], [])

    def test_report_lines_render(self):
        inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
        res = min_sum_clustering(inst, force_primal_dual=True)
        report = audit(inst, res, oracle_opt=0.02)
        text = "\n".join(report.lines())
        assert "audit PASS" in text
