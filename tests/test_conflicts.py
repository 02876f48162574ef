"""Conflict graph, anchor selection, and part assignment; the resolution,
which tests only the anchors sharing a point, against the reference that
tests every earlier anchor (in ``instances``)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minsumclust import conflicts
from minsumclust.conflicts import (
    MetaAssignment,
    check_assignments,
    conflict_witnesses,
    run_phase2,
)
from minsumclust.dual import run_phase1
from minsumclust.geometry import Instance, ScaledCluster, resolution_tolerance

from instances import (
    EPS_OF_BASE, grid_instance, line_instance, phase2_reference, simplex_recipe,
    untied_instance,
)


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


def resolved(resolve, inst, alpha, clusters, overflow):
    """The assignments as (anchor id, part, part scale, overflow flag) rows,
    or the ``RuntimeError`` message on a shortfall."""
    try:
        out = resolve(inst, alpha, clusters, overflow)
    except RuntimeError as exc:
        return str(exc)
    return [(id(ma.anchor), ma.part, ma.part_scale, ma.anchor_is_overflow) for ma in out]


def random_clusters(rng, n):
    """Overlapping clusters of random members, centers and scales, and an
    overflow cluster or none."""
    def cluster():
        size = int(rng.integers(1, max(n // 2, 1) + 1))
        members = set(rng.choice(n, size, replace=False).tolist())
        return ScaledCluster(members, int(rng.integers(0, 4)), int(rng.choice(sorted(members))))

    clusters = [cluster() for _ in range(int(rng.integers(1, 13)))]
    return clusters, cluster() if rng.uniform() < 0.5 else None


class TestSharingAnchors:
    # Only an anchor that shares a point with the cluster can hold a witness,
    # so testing those alone, in anchor order, finds the same first blocker.

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["sqeuclid", "metric"]),
           st.sampled_from([2, 3]), st.sampled_from(["grid", "untied", "simplex", "random"]))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_all_anchors_scan(self, seed, mode, base, family):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 25))
        n_prime = int(rng.integers(1, n + 1))
        if family == "simplex":  # its own mode and base
            inst = simplex_recipe(int(rng.integers(200)))
        else:
            make = grid_instance if family == "grid" else untied_instance
            inst = make(rng, mode, base, n, n_prime=n_prime)
        if family == "random":  # hand-made overlaps, duals around the distances
            alpha = rng.uniform(0.0, 2.0, inst.n) * rng.choice([0.5, 3.0, 20.0])
            runs = [(alpha, *random_clusters(rng, inst.n)) for _ in range(4)]
        else:  # the candidate clusters of probes at lam from 0 to the top of the search
            lam_top = float(inst.distances().sum())
            lams = [0.0, *(lam_top * 0.5 ** rng.uniform(0.0, 20.0, 3))]
            runs = [(state.alpha, state.clusters, state.overflow)
                    for state in (run_phase1(inst, float(lam)) for lam in lams)]
        for alpha, clusters, overflow in runs:
            want = resolved(phase2_reference, inst, alpha, clusters, overflow)
            assert resolved(run_phase2, inst, alpha, clusters, overflow) == want

    def test_a_shared_point_that_does_not_witness_does_not_block(self, monkeypatch):
        # anchors a = {0, 1} and b = {3, 4}; c shares point 1 with a, who pays
        # no more than its scaled distances, and point 4 with b, a witness, so
        # b blocks c and takes point 5; d shares a witness with both, and the
        # earlier, a, blocks it and takes point 2
        inst = line_instance(0.0, 0.5, 1.0, 5.0, 5.5, 6.0, n_prime=6)
        a, b = ScaledCluster({0, 1}, 1, 0), ScaledCluster({3, 4}, 1, 3)
        c, d = ScaledCluster({1, 4, 5}, 0, 5), ScaledCluster({0, 2, 3}, 0, 2)
        alpha = np.array([50.0, 0.0, 60.0, 50.0, 30.0, 40.0])
        clusters = [a, b, c, d]
        assert resolved(run_phase2, inst, alpha, clusters, None) == resolved(
            phase2_reference, inst, alpha, clusters, None)
        calls = []

        def counting(*args):
            calls.append((args[0], args[1]))
            return conflict_witnesses(*args)

        monkeypatch.setattr(conflicts, "conflict_witnesses", counting)
        out = run_phase2(inst, alpha, clusters, None)
        assert [(id(ma.anchor), sorted(ma.part)) for ma in out] == [
            (id(a), [0, 1]), (id(b), [3, 4]), (id(b), [5]), (id(a), [2])]
        # c is tested against a, which shares point 1, then b; d against a only
        assert [(id(x), id(y)) for x, y in calls] == [
            (id(c), id(a)), (id(c), id(b)), (id(d), id(a))]


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
