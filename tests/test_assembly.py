"""Cluster assembly: even partitioning and the scale capacity rule."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minsumclust.assembly import (
    AssembledCluster,
    AssembledClustering,
    check_size_windows,
    partition_evenly,
    run_phase3,
)
from minsumclust.conflicts import MetaAssignment, run_phase2
from minsumclust.dual import run_phase1
from minsumclust.geometry import Instance, ScaledCluster


class TestPartitionEvenly:
    def test_nine_into_two(self):
        parts = partition_evenly(range(9), 2)
        assert sorted(len(p) for p in parts) == [4, 5]
        assert parts[0] == {0, 1, 2, 3, 4}

    def test_identity(self):
        assert partition_evenly(range(5), 1) == [set(range(5))]

    def test_six_into_three(self):
        assert [len(p) for p in partition_evenly(range(6), 3)] == [2, 2, 2]

    def test_more_parts_than_points(self):
        with pytest.raises(ValueError):
            partition_evenly({1, 2}, 3)

    @given(st.sets(st.integers(0, 200), min_size=1, max_size=60), st.integers(1, 8))
    @settings(max_examples=120)
    def test_even_cover(self, members, m):
        if m > len(members):
            return
        parts = partition_evenly(members, m)
        assert len(parts) == m
        assert set().union(*parts) == set(members)
        assert sum(len(p) for p in parts) == len(members)
        sizes = [len(p) for p in parts]
        assert max(sizes) - min(sizes) <= 1


def _assignment(anchor, part, scale=None):
    return MetaAssignment(
        anchor=anchor,
        part=set(part),
        part_scale=anchor.scale_exp if scale is None else scale,
    )


class TestRunPhase3:
    def test_small_top_bucket_opens_one_cluster(self):
        anchor = ScaledCluster(set(range(5)), 0, 0, 0)
        out = run_phase3([_assignment(anchor, range(5))], 2)
        assert len(out.clusters) == 1
        assert out.clusters[0].points == set(range(5))
        assert out.discarded == set()

    def test_top_bucket_splits_at_capacity(self):
        # 9 points at scale 0, base 2: open floor(9/4) = 2 clusters
        anchor = ScaledCluster(set(range(9)), 0, 0, 0)
        out = run_phase3([_assignment(anchor, range(9))], 2)
        sizes = sorted(len(c.points) for c in out.clusters)
        assert sizes == [4, 5]
        assert all(len(c.points) <= 2 * 2**2 for c in out.clusters)

    def test_underfull_low_scale_is_discarded(self):
        # anchor at scale 4 with a scale-0 part of 3 points < 2**2
        anchor = ScaledCluster(set(range(16)), 4, 0, 0)
        low = _assignment(anchor, {16, 17, 18}, scale=0)
        out = run_phase3([_assignment(anchor, range(16)), low], 2)
        assert out.discarded == {16, 17, 18}
        assert out.discard_events == [(0, 0, frozenset({16, 17, 18}))]

    def test_full_low_scale_opens_clusters(self):
        anchor = ScaledCluster(set(range(16)), 4, 0, 0)
        low = _assignment(anchor, range(16, 25), scale=0)  # 9 >= 4 opens 2
        out = run_phase3([_assignment(anchor, range(16)), low], 2)
        low_clusters = [c for c in out.clusters if not c.from_top_bucket]
        assert sorted(len(c.points) for c in low_clusters) == [4, 5]
        assert all(c.scale_exp == 0 for c in low_clusters)
        assert out.discarded == set()

    def test_nearby_scales_merge_into_top_bucket(self):
        anchor = ScaledCluster(set(range(8)), 3, 0, 0)
        parts = [
            _assignment(anchor, range(8)),
            _assignment(anchor, range(8, 12), scale=1),  # within two steps of 3
            _assignment(anchor, range(12, 14), scale=0),  # below the window
        ]
        out = run_phase3(parts, 2)
        top = [c for c in out.clusters if c.from_top_bucket]
        assert set().union(*(c.points for c in top)) == set(range(12))
        assert out.discarded == set(range(12, 14))

    @pytest.mark.parametrize("seed", range(10))
    def test_pipeline_windows_and_partition(self, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(8, 16))
        n_prime = int(rng.integers(4, n + 1))
        pts = rng.uniform(0, 2, (n, 2))
        base = int(rng.choice([2, 3]))
        inst = Instance(
            mode="sqeuclid", k=1, n_prime=n_prime, epsilon={2: 1.0, 3: 0.5}[base], points=pts
        )
        lam = float(rng.uniform(0.05, 2.0))
        p1 = run_phase1(inst, lam)
        meta = run_phase2(inst, p1.alpha, p1.clusters, p1.overflow)
        out = run_phase3(meta, base)
        check_size_windows(out, base, n_prime)
        # every assigned point lands in exactly one cluster or is discarded
        assigned = set().union(*(ma.part for ma in meta))
        seen = set(out.discarded)
        for c in out.clusters:
            assert not (c.points & seen)
            seen |= c.points
        assert seen == assigned

    def test_window_checker_flags_corruption(self):
        anchor = ScaledCluster(set(range(5)), 0, 0, 0)
        out = run_phase3([_assignment(anchor, range(5))], 2)
        out.clusters[0].points |= set(range(100, 120))  # blow past the cap
        with pytest.raises(RuntimeError, match="cluster 0 has 25 points, cap 8"):
            check_size_windows(out, 2, 5)


def _top(points, scale, overflow=False):
    return AssembledCluster(set(points), scale, True, overflow)


def _low(points, scale):
    return AssembledCluster(set(points), scale, False, False)


# (clusters, discard events (anchor, scale, points), base, n', message): each
# plants one violation, and every rule checked before it passes
WINDOW_VIOLATIONS = {
    "top-cap": ([_top(range(9), 0)], [], 2, 9, "cluster 0 has 9 points, cap 8"),
    # an overflow anchor's cluster has no floor
    "top-floor": ([_top(range(3), 2, overflow=True), _top(range(3, 6), 2)], [], 2, 6,
                  "cluster 1 has 3 points, floor 4"),
    "low-underfull": ([_top(range(4), 0), _low(range(4, 7), 0)], [], 2, 7,
                      "cluster 1 has 3 points outside [4, 8)"),
    "low-overfull": ([_low(range(8), 0)], [], 2, 8, "cluster 0 has 8 points outside [4, 8)"),
    "one-discard": ([_top(range(4), 0)], [(1, 0, range(4, 8))], 2, 8,
                    "anchor 1 discarded 4 points at scale 0, enough to open a cluster"),
    # at base 3 the bound is n' / 2, and each discard stays below 9
    "all-discards": ([_top(range(4), 0)], [(0, 0, range(4, 7)), (1, 0, [7])], 3, 8,
                     "discarded 4 points, bound 4.000"),
    "more-than-n-prime": ([_top(range(6), 1)], [], 2, 5, "clustered 6 points, more than n' = 5"),
    "coverage": ([_top(range(3), 1)], [(0, 0, [3])], 2, 5,
                 "clustered plus discarded points do not cover the assignment"),
}


class TestCheckSizeWindows:
    @pytest.mark.parametrize("case", WINDOW_VIOLATIONS.values(), ids=WINDOW_VIOLATIONS.keys())
    def test_each_rule_raises_its_message(self, case):
        clusters, events, base, n_prime, message = case
        events = [(key, scale, frozenset(points)) for key, scale, points in events]
        discarded = set().union(*(points for _, _, points in events))
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            check_size_windows(AssembledClustering(clusters, discarded, events), base, n_prime)

    # the inputs of the two low-scale tests of run_phase3, with n' the
    # number of points assigned
    @pytest.mark.parametrize("low_part, n_prime", [({16, 17, 18}, 19), (range(16, 25), 25)],
                             ids=["underfull-discarded", "full-opens-clusters"])
    def test_low_scale_outputs_pass(self, low_part, n_prime):
        anchor = ScaledCluster(set(range(16)), 4, 0, 0)
        parts = [_assignment(anchor, range(16)), _assignment(anchor, low_part, scale=0)]
        check_size_windows(run_phase3(parts, 2), 2, n_prime)
