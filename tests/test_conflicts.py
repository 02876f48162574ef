"""Conflict graph, anchor selection, and part assignment."""

import numpy as np
import pytest

from minsumclust.conflicts import (
    MetaAssignment,
    check_assignments,
    conflict_witnesses,
    run_phase2,
)
from minsumclust.dual import run_phase1
from minsumclust.geometry import Instance, ScaledCluster, resolution_tolerance

from instances import EPS_OF_BASE, line_instance


class TestConflictEdge:
    # two clusters conflict iff they have a witness
    def test_disjoint_clusters_never_conflict(self):
        inst = line_instance(0.0, 1.0, 5.0, 6.0)
        a = ScaledCluster({0, 1}, 1, 0)
        b = ScaledCluster({2, 3}, 1, 2)
        alpha = np.full(4, 100.0)
        assert not conflict_witnesses(a, b, alpha, inst.distances(), 2, 0.0)

    def test_tight_payment_is_not_strict(self):
        inst = line_instance(0.0, 0.0)
        a = ScaledCluster({0}, 0, 0)
        b = ScaledCluster({0}, 0, 1)
        alpha = np.zeros(2)
        assert not conflict_witnesses(a, b, alpha, inst.distances(), 2, 1e-12)

    def test_strict_overpayment_conflicts(self):
        inst = line_instance(0.0, 1.0, 2.0)
        # shared point 1 pays 5 against scaled distances 1 and 2
        a = ScaledCluster({0, 1}, 0, 0)
        b = ScaledCluster({1, 2}, 1, 2)
        alpha = np.array([0.0, 5.0, 0.0])
        d = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 1.0], [4.0, 1.0, 0.0]])
        assert conflict_witnesses(a, b, alpha, d, 2, 1e-12) == [1]


class TestRunPhase2:
    def test_disjoint_clusters_become_anchors(self):
        inst = line_instance(0.0, 0.1, 5.0, 5.1)
        clusters = [ScaledCluster({0, 1}, 1, 0, 0), ScaledCluster({2, 3}, 1, 2, 1)]
        alpha = np.array([0.2, 0.2, 0.2, 0.2])
        out = run_phase2(inst, alpha, clusters, None)
        assert [(sorted(ma.part), ma.part_scale) for ma in out] == [
            ([0, 1], 1),
            ([2, 3], 1),
        ]
        assert all(ma.anchor is c for ma, c in zip(out, clusters))

    def test_single_cluster_single_anchor(self):
        inst = line_instance(0.0, 0.1, 0.2)
        clusters = [ScaledCluster({0, 1, 2}, 1, 0, 0)]
        out = run_phase2(inst, np.full(3, 0.1), clusters, None)
        assert len(out) == 1 and sorted(out[0].part) == [0, 1, 2]

    def test_rejected_cluster_donates_high_dual_points(self):
        # anchor {0,1,2,3} at scale 2; {3,5} at scale 1 conflicts through
        # point 3 and donates its unassigned member 5
        inst = line_instance(0.0, 0.1, 0.2, 0.3, 9.0, 0.5, n_prime=5)
        big = ScaledCluster({0, 1, 2, 3}, 2, 0, 0)
        small = ScaledCluster({3, 5}, 1, 5, 1)
        alpha = np.array([1.0, 1.0, 1.0, 1.0, 0.0, 2.0])
        out = run_phase2(inst, alpha, [big, small], None)
        assert out[0].anchor is big and sorted(out[0].part) == [0, 1, 2, 3]
        assert out[1].anchor is big
        assert sorted(out[1].part) == [5]
        assert out[1].part_scale == 1

    def test_anchor_reclaims_points_from_earlier_parts(self):
        # second accepted anchor pulls its own points out of the first part
        inst = line_instance(0.0, 0.0, 0.0, 4.0, 4.0, n_prime=5)
        a = ScaledCluster({0, 1, 2}, 1, 0, 0)
        b = ScaledCluster({2, 3, 4}, 1, 3, 1)
        alpha = np.zeros(5)  # nobody strictly overpays: both accepted
        out = run_phase2(inst, alpha, [a, b], None)
        assert sorted(out[0].part) == [0, 1]
        assert sorted(out[1].part) == [2, 3, 4]

    def test_top_up_takes_lowest_unassigned_indices(self):
        inst = line_instance(0.0, 0.0, 0.0, 0.0, n_prime=3)
        overflow = ScaledCluster({0, 1, 2, 3}, 2, 0, 0)
        out = run_phase2(inst, np.zeros(4), [], overflow)
        assert len(out) == 1
        assert sorted(out[0].part) == [0, 1, 2]
        assert out[0].anchor_is_overflow
        assert out[0].part_scale == 2

    def test_unreachable_budget_raises(self):
        inst = line_instance(0.0, 1.0, 2.0)
        clusters = [ScaledCluster({0}, 0, 0, 0)]
        with pytest.raises(RuntimeError, match="2 points short of n' and no overflow"):
            run_phase2(inst, np.zeros(3), clusters, None)

    @pytest.mark.parametrize("seed", range(12))
    def test_pipeline_counts_and_factors(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 14))
        n_prime = int(rng.integers(2, n + 1))
        if seed % 2:
            payload = dict(mode="sqeuclid", points=rng.uniform(0, 2, (n, 2)))
        else:
            pts = rng.uniform(0, 1, (n, 3))
            diff = pts[:, None, :] - pts[None, :, :]
            dm = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            dm = (dm + dm.T) / 2
            np.fill_diagonal(dm, 0)
            payload = dict(mode="metric", dist_matrix=dm)
        base = int(rng.choice([2, 3]))
        inst = Instance(k=1, n_prime=n_prime, epsilon=EPS_OF_BASE[base], **payload)
        lam = float(rng.uniform(0.05, 1.5))
        p1 = run_phase1(inst, lam)
        out = run_phase2(inst, p1.alpha, p1.clusters, p1.overflow)
        check_assignments(inst, out, p1.alpha)

    def test_anchors_form_independent_set(self):
        rng = np.random.default_rng(33)
        inst = Instance(
            mode="sqeuclid", k=1, n_prime=11, epsilon=1.0,
            points=rng.uniform(0, 2, (12, 2)),
        )
        base, lam = inst.base, 0.6
        p1 = run_phase1(inst, lam)
        out = run_phase2(inst, p1.alpha, p1.clusters, p1.overflow)
        anchors = []
        for ma in out:
            if not ma.anchor_is_overflow and all(ma.anchor is not a for a in anchors):
                anchors.append(ma.anchor)
        tau = resolution_tolerance(inst, p1.alpha)
        for i, a in enumerate(anchors):
            for b in anchors[i + 1 :]:
                assert not conflict_witnesses(a, b, p1.alpha, inst.distances(), base, tau)


class TestCheckAssignments:
    # points 0..3 on a line; the anchor sits at point 0 with scale 1 (base 2),
    # so point x needs alpha >= 2 * x**2 / 9
    ANCHOR = ScaledCluster({0, 1}, 1, 0, 0)

    def check(self, parts, alpha=10.0):
        inst = line_instance(0.0, 1.0, 2.0, 3.0)
        alpha = np.array([10.0, 10.0, 10.0, alpha])
        check_assignments(
            inst, [MetaAssignment(self.ANCHOR, set(p), scale) for p, scale in parts], alpha
        )

    def test_disjoint_parts_covering_n_prime_pass(self):
        self.check([({0, 1}, 1), ({2, 3}, 0)])

    @pytest.mark.parametrize("parts, alpha, message", [
        ([({0, 1}, 1), ({1, 2, 3}, 1)], 10.0, r"parts overlap on \[1\]"),
        ([({0, 1, 2, 3}, 2)], 10.0, "part scale 2 exceeds anchor scale 1"),
        ([({0, 1, 2, 3}, 1)], 0.0, "point 3 holds alpha 0 < connection share 2"),
        ([({0, 1, 2}, 1)], 10.0, "assigned 3 points, expected 4"),
        # the underpaying point comes first, so it is reported, not the overlap
        ([({0, 1, 2, 3}, 1), ({0}, 1)], 0.0, "point 3 holds alpha 0"),
    ], ids=["overlap", "scale", "connection", "count", "first-failure"])
    def test_raises_its_first_failure(self, parts, alpha, message):
        with pytest.raises(RuntimeError, match=message):
            self.check(parts, alpha)
