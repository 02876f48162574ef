"""Exhaustive oracle, feasibility verification, and the audit harness."""

import numpy as np
import pytest

from minsumclust.dual import run_phase1
from minsumclust.geometry import DistanceMode, Instance, tightness_tolerance
from minsumclust.oracle import (
    OracleError,
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

from instances import line_instance


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

    @pytest.mark.parametrize("exhaustive", [False, True])
    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    def test_duals_outside_the_program_are_infeasible(self, value, exhaustive):
        # every constraint has slack here, yet no dual may be negative or
        # non-finite; both modes say so with an infinite slack
        inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
        assert verify_dual_feasible(inst, np.full(4, -1.0), 1.0, exhaustive) == (False, np.inf)
        alpha = np.zeros(4)
        alpha[2] = value
        assert verify_dual_feasible(inst, alpha, 1.0, exhaustive) == (False, np.inf)

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
        exact_ok, exact_worst = verify_dual_feasible(inst, out.alpha, lam, exhaustive=True)
        assert fast_ok and exact_ok
        assert fast_worst <= exact_worst + 1e-12

    def test_exhaustive_rejects_large_instances(self):
        rng = np.random.default_rng(1)
        inst = Instance(
            mode="sqeuclid", k=1, n_prime=13, epsilon=1.0,
            points=rng.normal(size=(13, 1)),
        )
        with pytest.raises(OracleError):
            verify_dual_feasible(inst, np.zeros(13), 0.0, exhaustive=True)

    @pytest.mark.parametrize("seed", range(10))
    def test_modes_agree_on_random_duals(self, seed):
        rng = np.random.default_rng(50 + seed)
        n = int(rng.integers(3, 9))
        inst = Instance(
            mode="sqeuclid", k=1, n_prime=n, epsilon=1.0,
            points=rng.uniform(0, 2, (n, 2)),
        )
        alpha = rng.uniform(0, 1.0, n)
        lam = float(rng.uniform(0, 1.0))
        fast_ok, _ = verify_dual_feasible(inst, alpha, lam)
        exact_ok, _ = verify_dual_feasible(inst, alpha, lam, exhaustive=True)
        assert fast_ok == exact_ok


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

    def test_checks_use_the_base_of_epsilon(self):
        # lambda = 9 and alpha 5 on the unit triangle: 15 - 9 exceeds the
        # scaled cost 2 * 2 at base 2 (eps = 1) but not 3 * 2 at base 3
        h = np.sqrt(3.0) / 2.0
        pts = np.array([[0, 0], [1, 0], [0.5, h], [50, 50], [50, 51], [80, 0]])
        inst = Instance(mode="sqeuclid", k=3, n_prime=6, epsilon=1.0, points=pts)
        alpha = np.array([5.0, 5.0, 5.0, 0.0, 0.0, 0.0])
        for exhaustive in (False, True):
            feasible, slack = verify_dual_feasible(inst, alpha, 9.0, exhaustive)
            assert not feasible and slack == pytest.approx(2.0)
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

    def test_report_lines_render(self):
        inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
        res = min_sum_clustering(inst, force_primal_dual=True)
        report = audit(inst, res, oracle_opt=0.02)
        text = "\n".join(report.lines())
        assert "audit PASS" in text
