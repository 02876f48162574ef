"""Distance models, cluster costs, and scale arithmetic."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minsumclust.geometry import (
    REL_TOL,
    Instance,
    InstanceError,
    cluster_cost,
    cost_constant,
    scale_base,
    scale_exponent,
)
from minsumclust.oracle import verify_dual_feasible

from instances import exhaustive_worst_slack, line_instance


def centred_sum(inst, members):
    """Reference: summed squared distance from the members to their mean."""
    pts = inst.points[sorted(members)]
    diff = pts - pts.mean(axis=0)
    return float((diff * diff).sum())


class TestPairDistance:
    def test_one_dimensional(self):
        inst = line_instance(0.0, 2.0)
        assert inst.distances()[0, 1] == 4.0

    def test_self_distance_is_zero(self):
        inst = line_instance(0.0, 2.0)
        assert inst.distances()[0, 0] == 0.0

    def test_metric_lookup(self):
        mat = np.array([[0.0, 3.0], [3.0, 0.0]])
        inst = Instance(mode="metric", k=1, n_prime=2, epsilon=1.0, dist_matrix=mat)
        assert inst.distances()[0, 1] == 3.0

    def test_out_of_range(self):
        # a pair's cluster cost is its distance; an index past n is rejected
        with pytest.raises(IndexError):
            cluster_cost(line_instance(0.0, 2.0), {0, 5})

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 2**31))
    @settings(max_examples=50)
    def test_symmetry_and_sign(self, i, j, seed):
        rng = np.random.default_rng(seed)
        inst = Instance(
            mode="sqeuclid", k=1, n_prime=6, epsilon=1.0,
            points=rng.normal(size=(6, 3)),
        )
        d = inst.distances()
        assert d[i, j] == d[j, i]
        assert d[i, j] >= 0.0


class TestClusterCost:
    def test_pair(self):
        assert cluster_cost(line_instance(0.0, 2.0), {0, 1}) == 4.0

    def test_three_points(self):
        # half of 2 * (1 + 4 + 1); the mean-centered identity gives 3 * 2
        assert cluster_cost(line_instance(0.0, 1.0, 2.0), {0, 1, 2}) == pytest.approx(6.0)

    def test_singleton(self):
        assert cluster_cost(line_instance(0.0, 1.0), {0}) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cluster_cost(line_instance(0.0), set())

    @given(st.integers(0, 2**31), st.integers(2, 50))
    @settings(max_examples=60, deadline=None)
    def test_matches_mean_centered_identity(self, seed, size):
        rng = np.random.default_rng(seed)
        inst = Instance(
            mode="sqeuclid", k=1, n_prime=size, epsilon=1.0,
            points=rng.normal(scale=3.0, size=(size, 3)),
        )
        members = set(range(size))
        pairwise = cluster_cost(inst, members)
        centered = size * centred_sum(inst, members)
        assert pairwise == pytest.approx(centered, rel=1e-9)


class TestCentroid:
    @given(st.integers(0, 2**31))
    @settings(max_examples=40)
    def test_minimizes_summed_squared_distance(self, seed):
        # the mean minimizes the summed squared distance, so no center c
        # gives |C| * sum |x - c|^2 below the cost
        rng = np.random.default_rng(seed)
        inst = Instance(
            mode="sqeuclid", k=1, n_prime=8, epsilon=1.0,
            points=rng.normal(size=(8, 2)),
        )
        members = set(range(8))
        mean = inst.points.mean(axis=0)
        cost = cluster_cost(inst, members)
        for _ in range(10):
            other = mean + rng.normal(scale=0.1, size=2)
            diff = inst.points - other
            assert 8 * (diff * diff).sum() >= cost - 1e-12


class TestBestMedoid:
    @given(st.integers(0, 2**31), st.integers(1, 30))
    @settings(max_examples=60, deadline=None)
    def test_within_twice_centroid_cost(self, seed, size):
        # the best member's summed distance to the cluster is at most twice
        # the centred sum, which is cost / |C|
        rng = np.random.default_rng(seed)
        inst = Instance(
            mode="sqeuclid", k=1, n_prime=size, epsilon=1.0,
            points=rng.normal(scale=2.0, size=(size, 2)),
        )
        medoid_sum = inst.distances().sum(axis=1).min()
        cost = cluster_cost(inst, set(range(size)))
        assert medoid_sum <= 2.0 * cost / size + 1e-12


class TestFloorPow:
    # base ** scale_exponent(base, m) is the largest power of base <= m

    def test_examples(self):
        assert 2 ** scale_exponent(2, 5) == 4
        assert 2 ** scale_exponent(2, 1) == 1
        assert 3 ** scale_exponent(3, 9) == 9

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            scale_exponent(2, 0)

    @given(st.sampled_from([2, 3, 5]), st.integers(1, 10**6))
    @settings(max_examples=300)
    def test_bracketing(self, base, m):
        p = base ** scale_exponent(base, m)
        assert p <= m < base * p


class TestScaleBase:
    # The instance derives b from epsilon: the smallest integer b >= 2 with
    # b >= (1 + eps) / eps, up to REL_TOL.

    @pytest.mark.parametrize("eps, want", [
        (1.0, 2), (0.5, 3), (1 / 3, 4), (0.25, 5), (0.2, 6), (0.1, 11),
    ])
    @pytest.mark.parametrize("seed", range(3))
    def test_instance_base_follows_epsilon(self, eps, want, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        pts = rng.uniform(0, 2, (n, 2))
        if seed % 2:
            dmat = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
            inst = Instance(mode="metric", k=1, n_prime=n, epsilon=eps, dist_matrix=dmat)
        else:
            inst = Instance(mode="sqeuclid", k=1, n_prime=n, epsilon=eps, points=pts)
        ratio = (1.0 + eps) / eps - REL_TOL
        assert inst.base == scale_base(eps) == want
        assert inst.base >= 2 and inst.base >= ratio
        assert inst.base == 2 or inst.base - 1 < ratio
        # a copy with another epsilon derives its own base
        assert replace(inst, epsilon=0.5).base == 3


class TestScaledCost:
    # The scaled cost base**j * sum of d(x, y) over a set is the right side
    # of its dual constraint at center y, less lambda; the worst slack that
    # verify_dual_feasible and the exhaustive reference report is the
    # largest alpha sum minus both.

    def test_three_points(self):
        # the whole set at center 1: 2 * (1 + 0 + 1) = 4
        inst = line_instance(0.0, 1.0, 2.0)
        assert verify_dual_feasible(inst, np.full(3, 10.0), 0.0)[1] == 30.0 - 4.0
        assert exhaustive_worst_slack(inst, np.full(3, 10.0), 0.0) == 30.0 - 4.0

    def test_singleton(self):
        inst = line_instance(7.0)
        assert verify_dual_feasible(inst, np.array([3.0]), 1.0)[1] == 3.0 - 1.0
        assert exhaustive_worst_slack(inst, np.array([3.0]), 1.0) == 3.0 - 1.0

    def test_with_far_point(self):
        # four points take scale 2**2; center 2 costs 4 * (4 + 1 + 0 + 64),
        # less than center 1's 4 * (1 + 0 + 1 + 81) = 332
        inst = line_instance(0.0, 1.0, 2.0, 10.0)
        assert verify_dual_feasible(inst, np.full(4, 1000.0), 0.0)[1] == 4000.0 - 276.0
        assert exhaustive_worst_slack(inst, np.full(4, 1000.0), 0.0) == 4000.0 - 276.0

    @given(st.integers(0, 2**31), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_mean_centered_variant_brackets_cost(self, seed, size):
        # floor power of |Y| times the centred sum lies in (cost / b, cost]
        rng = np.random.default_rng(seed)
        inst = Instance(
            mode="sqeuclid", k=1, n_prime=size, epsilon=1.0,
            points=rng.normal(size=(size, 2)),
        )
        members = set(range(size))
        cost = cluster_cost(inst, members)
        for base in (2, 3):
            variant = base ** scale_exponent(base, size) * centred_sum(inst, members)
            assert variant <= cost + 1e-12
            assert variant > cost / base - 1e-12 or cost == 0.0


class TestInstanceValidation:
    def test_requires_exactly_one_payload(self):
        with pytest.raises(InstanceError):
            Instance(mode="sqeuclid", k=1, n_prime=1, epsilon=1.0)
        with pytest.raises(InstanceError):
            Instance(
                mode="sqeuclid", k=1, n_prime=1, epsilon=1.0,
                points=np.zeros((1, 1)), dist_matrix=np.zeros((1, 1)),
            )

    def test_one_dimensional_points_become_a_column(self):
        inst = Instance(mode="sqeuclid", k=1, n_prime=3, epsilon=1.0, points=[0.0, 1.0, 3.0])
        assert inst.points.shape == (3, 1) and inst.n == 3

    @pytest.mark.parametrize("mode, payload, message", [
        ("sqeuclid", np.zeros((0, 2)), "points must be a nonempty n x d array"),
        ("sqeuclid", np.zeros((2, 2, 2)), "points must be a nonempty n x d array"),
        ("sqeuclid", [[0.0], [np.nan]], "points contain non-finite values"),
        ("metric", np.zeros((2, 3)), "distance matrix must be square and nonempty"),
        ("metric", np.zeros((0, 0)), "distance matrix must be square and nonempty"),
        ("metric", [[0.0, np.inf], [np.inf, 0.0]], "distance matrix contains non-finite values"),
        ("metric", [[0.0, -1.0], [-1.0, 0.0]], "distance matrix has negative entries"),
    ], ids=["no-points", "three-dims", "nan-point", "not-square", "empty-matrix",
            "inf-entry", "negative-entry"])
    def test_malformed_payloads_are_named(self, mode, payload, message):
        key = "points" if mode == "sqeuclid" else "dist_matrix"
        with pytest.raises(InstanceError, match=f"^{re.escape(message)}$"):
            Instance(mode=mode, k=1, n_prime=1, epsilon=1.0, **{key: payload})

    def test_metric_mode_takes_no_points(self):
        with pytest.raises(InstanceError, match="^metric mode takes a matrix and no points$"):
            Instance(mode="metric", k=1, n_prime=1, epsilon=1.0, points=np.zeros((1, 1)))

    def test_an_overflowing_squared_distance_is_rejected(self):
        # every coordinate is finite, but 1e160**2 is not
        inst = line_instance(0.0, 1e160, 3.0)
        with pytest.raises(InstanceError, match="^points too far apart: a squared distance "
                                                "overflows a float$"):
            inst.distances()

    def test_metric_rejects_asymmetry(self):
        mat = np.array([[0.0, 1.0], [1.001, 0.0]])
        with pytest.raises(InstanceError):
            Instance(mode="metric", k=1, n_prime=2, epsilon=1.0, dist_matrix=mat)

    def test_metric_rejects_nonzero_diagonal(self):
        mat = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(InstanceError):
            Instance(mode="metric", k=1, n_prime=2, epsilon=1.0, dist_matrix=mat)

    def test_metric_rejects_triangle_violation(self):
        mat = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(InstanceError):
            Instance(mode="metric", k=1, n_prime=3, epsilon=1.0, dist_matrix=mat)

    def test_parameter_ranges(self):
        pts = np.zeros((3, 1))
        with pytest.raises(InstanceError):
            Instance(mode="sqeuclid", k=0, n_prime=3, epsilon=1.0, points=pts)
        with pytest.raises(InstanceError):
            Instance(mode="sqeuclid", k=1, n_prime=0, epsilon=1.0, points=pts)
        with pytest.raises(InstanceError):
            Instance(mode="sqeuclid", k=1, n_prime=4, epsilon=1.0, points=pts)
        with pytest.raises(InstanceError):
            Instance(mode="sqeuclid", k=1, n_prime=3, epsilon=0.0, points=pts)
        with pytest.raises(InstanceError):
            Instance(mode="sqeuclid", k=1, n_prime=3, epsilon=1.5, points=pts)

    # b**3 overflows a float at 1e-310 and 1e-120 (b itself at 1e-310); at
    # 3e-103 it fits, but 18 * b**3 rounds to inf
    @pytest.mark.parametrize("eps", [1e-310, 1e-120, 3e-103])
    def test_epsilon_needs_a_finite_cost_constant(self, eps):
        with pytest.raises(InstanceError, match=f"epsilon {eps!r} is too small"):
            line_instance(0.0, 1.0, eps=eps)

    def test_small_epsilon_with_a_finite_cost_constant_is_kept(self):
        inst = line_instance(0.0, 1.0, eps=1e-102)
        assert math.isfinite(cost_constant(inst.base))

    @pytest.mark.parametrize("name, value", [
        ("k", 2.5), ("k", 10.0), ("n_prime", 2.5), ("n_prime", 10.0),
    ])
    def test_counts_must_be_integers(self, name, value):
        params = dict(mode="sqeuclid", k=2, n_prime=10, epsilon=1.0, points=np.zeros((12, 1)))
        with pytest.raises(InstanceError, match="must be integers"):
            Instance(**{**params, name: value})

    def test_numpy_integer_counts_are_kept_as_ints(self):
        inst = Instance(mode="sqeuclid", k=np.int64(2), n_prime=np.int32(10), epsilon=1.0,
                        points=np.zeros((12, 1)))
        assert (inst.k, inst.n_prime) == (2, 10)
        assert type(inst.k) is int and type(inst.n_prime) is int

    def test_squared_euclidean_skips_triangle_check(self):
        # squared distances on a line violate the triangle inequality
        inst = line_instance(0.0, 1.0, 2.0)
        d = inst.distances()
        assert d[0, 2] > d[0, 1] + d[1, 2]

    def test_replaced_points_get_a_fresh_cache(self):
        inst = line_instance(0.0, 1.0)
        assert inst.distances()[0, 1] == 1.0
        copy = replace(inst, points=np.array([[0.0], [10.0]]))
        assert copy.distances()[0, 1] == 100.0
        assert copy.max_distance() == 100.0
        assert cluster_cost(copy, {0, 1}) == 100.0
        assert inst.distances()[0, 1] == 1.0
