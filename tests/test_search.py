"""Opening-cost search, endpoint selection, and the small-k fallback."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from minsumclust import search
from minsumclust.assembly import AssembledCluster, AssembledClustering
from minsumclust.generators import GeneratorSpec, generate
from minsumclust.geometry import Instance, InstanceError, cluster_cost, scale_base
from minsumclust.oracle import enumeration_tractable
from minsumclust.search import (
    Branch,
    _local_search,
    _split_to_k,
    approx_bound,
    cost_constant,
    min_sum_clustering,
    probe,
    small_k_solver,
)

from instances import (
    grid_instance,
    line_instance,
    local_search_reference,
    simplex_groups,
    simplex_recipe,
    untied_instance,
)


class TestParameters:
    def test_scale_base(self):
        assert scale_base(1.0) == 2
        assert scale_base(0.5) == 3
        assert scale_base(0.25) == 5

    def test_cost_constant(self):
        assert cost_constant(2) == pytest.approx(144.0)
        assert cost_constant(3) == pytest.approx(243.0)

    def test_bound_arithmetic(self):
        assert approx_bound(1.0) == pytest.approx(8 * 145.0)


class TestProbe:
    def test_zero_lambda_gives_near_singletons(self):
        inst = line_instance(0.0, 1.0, 3.0, 6.0, 10.0)
        out = probe(inst, 0.0)
        assert out.k_prime == inst.n - 1

    def test_huge_lambda_gives_one_cluster(self):
        inst = line_instance(0.0, 1.0, 3.0, 6.0)
        lam = float(inst.distances().sum())
        out = probe(inst, lam)
        assert out.k_prime == 0

    def test_budget_of_one(self):
        inst = line_instance(0.0, 1.0, 3.0, n_prime=1)
        out = probe(inst, 0.3)
        assert out.k_prime == 0
        assert len(out.clusters) == 1 and len(out.clusters[0]) == 1

    def test_small_cluster_removal_rule(self):
        # eps/3 of the budget: clusters at or below that size are dropped
        inst = line_instance(0.0, 0.1, 5.0, 5.1, 100.0, eps=1.0)
        out = probe(inst, 0.5)
        assert out.k_prime == len(out.clusters)  # one was removed after counting

    def test_assembly_over_its_cap_raises(self, monkeypatch):
        # a top-bucket cluster at scale 0 holds at most 2 * 2**2 = 8 points
        oversized = AssembledClustering([AssembledCluster(set(range(9)), 0, True, False)], set())
        monkeypatch.setattr(search, "run_phase3", lambda assignments, base: oversized)
        inst = line_instance(*range(9))
        with pytest.raises(RuntimeError, match="cluster 0 has 9 points, cap 8"):
            probe(inst, 0.0)


class TestMinSumClustering:
    def test_identical_points_cost_zero(self):
        inst = line_instance(2.0, 2.0, 2.0, 2.0, k=2)
        res = min_sum_clustering(inst)
        assert res.branch is Branch.DEGENERATE
        assert res.total_cost == 0.0
        assert res.clustered_count() == inst.n_prime

    def test_k_at_least_budget_gives_singletons(self):
        inst = line_instance(0.0, 5.0, 9.0, k=3, n_prime=2)
        res = min_sum_clustering(inst)
        assert res.branch is Branch.DEGENERATE
        assert res.total_cost == 0.0
        assert res.clusters == [{0}, {1}]

    def test_budget_one_single_cluster(self):
        inst = line_instance(0.0, 5.0, 9.0, k=1, n_prime=1)
        res = min_sum_clustering(inst)
        assert len(res.clusters) == 1 and res.total_cost == 0.0

    def test_rho_rule_arithmetic(self):
        # counts 5 and 2 around k = 4 mix with weight 2/3, below the 3/4
        # threshold at eps = 1, so the expensive endpoint is returned
        rho = (4 - 2) / (5 - 2)
        assert rho == pytest.approx(2 / 3)
        assert rho < 1 - 1.0 / 4

    def test_two_pairs_within_bound(self):
        inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
        res = min_sum_clustering(inst)
        assert res.exact and res.total_cost == pytest.approx(0.02)
        forced = min_sum_clustering(inst, force_primal_dual=True)
        bound = approx_bound(inst.epsilon)
        assert forced.total_cost <= bound * 0.02

    def test_bipoint_low_branch(self):
        inst = Instance(
            mode="sqeuclid", k=3, n_prime=10, epsilon=1.0,
            points=simplex_groups(4, 2),
        )
        res = min_sum_clustering(inst, force_primal_dual=True)
        assert res.branch is Branch.BIPOINT_LOW
        assert res.rho1 >= 1 - inst.epsilon / 4
        assert len(res.clusters) == 3
        assert res.total_cost == 0.0

    def test_bracket_fields(self):
        rng = np.random.default_rng(5)
        inst = Instance(
            mode="sqeuclid", k=2, n_prime=9, epsilon=1.0,
            points=rng.uniform(0, 2, (9, 2)),
        )
        res = min_sum_clustering(inst, force_primal_dual=True)
        assert res.lambda_low <= res.lambda_high
        assert 0.0 < res.rho1 <= 1.0
        if res.branch in (Branch.BIPOINT_LOW, Branch.BIPOINT_HIGH):
            assert res.certificates
            for cert in res.certificates:
                assert cert.alpha.shape == (inst.n,)

    def test_outliers_complement_clusters(self):
        rng = np.random.default_rng(9)
        inst = Instance(
            mode="sqeuclid", k=2, n_prime=8, epsilon=0.5,
            points=rng.uniform(0, 2, (10, 2)),
        )
        res = min_sum_clustering(inst, force_primal_dual=True)
        covered = set().union(*res.clusters)
        assert res.outliers == set(range(10)) - covered
        assert res.clustered_count() <= inst.n_prime

    def test_total_cost_matches_recomputation(self):
        rng = np.random.default_rng(13)
        inst = Instance(
            mode="sqeuclid", k=2, n_prime=10, epsilon=1.0,
            points=rng.uniform(0, 3, (10, 2)),
        )
        res = min_sum_clustering(inst, force_primal_dual=True)
        again = sum(cluster_cost(inst, c) for c in res.clusters)
        assert res.total_cost == pytest.approx(again, rel=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(0, 2, (9, 2))
        a = min_sum_clustering(
            Instance(mode="sqeuclid", k=2, n_prime=8, epsilon=1.0, points=pts),
            force_primal_dual=True,
        )
        b = min_sum_clustering(
            Instance(mode="sqeuclid", k=2, n_prime=8, epsilon=1.0, points=pts.copy()),
            force_primal_dual=True,
        )
        assert a.clusters == b.clusters
        assert a.total_cost == b.total_cost
        assert a.lambda_low == b.lambda_low and a.lambda_high == b.lambda_high

    @pytest.mark.parametrize("seed", range(21))
    def test_lambda_bracket_holds_at_its_endpoints(self, seed):
        # The bisection needs k'(low) > k >= k'(high) only at the endpoints it
        # returns, not monotonicity of k' in lambda.  Equal groups at the
        # vertices of a simplex merge together, so k' jumps past k and most
        # seeds end on two distinct endpoints; random points mostly hit k.
        inst = simplex_recipe(seed)
        res = min_sum_clustering(inst, force_primal_dual=True)
        assert res.branch in (Branch.BIPOINT_LOW, Branch.BIPOINT_HIGH)
        low = probe(inst, res.lambda_low).k_prime
        high = probe(inst, res.lambda_high).k_prime
        if res.lambda_low == res.lambda_high:
            assert low <= inst.k
        else:
            assert low > inst.k >= high

    # k >= n' is degenerate, k > 4/epsilon runs the primal-dual search, and
    # k <= 4/epsilon runs the subset DP at n = 12 and the local search at n = 20
    @pytest.mark.parametrize("seed", [-1, 1.5, "1", None])
    @pytest.mark.parametrize("n, k, branch", [
        (12, 11, "degenerate"), (12, 5, "bipoint"), (12, 2, "small_k"), (20, 2, "small_k"),
    ], ids=["degenerate", "primal-dual", "subset-dp", "local-search"])
    def test_a_bad_seed_raises_on_every_branch(self, n, k, branch, seed):
        inst = generate(GeneratorSpec("box", seed=3, params={"n": n}, k=k, n_prime=n - 1))
        message = f"^seed must be a nonnegative integer, got {re.escape(repr(seed))}$"
        with pytest.raises(InstanceError, match=message) as exc:
            min_sum_clustering(inst, seed=seed)
        assert isinstance(exc.value, ValueError)
        res = min_sum_clustering(inst, seed=np.int64(1))
        assert res.branch.value.startswith(branch)
        assert res.exact is (n == 12 and k != 5)


class TestSplitToK:
    def test_peels_singletons_from_largest(self):
        out = _split_to_k([{0, 1, 2, 3}, {4, 5}], 4)
        assert len(out) == 4
        assert sorted(map(sorted, out)) == [[0], [1], [2, 3], [4, 5]]

    def test_stops_when_everything_is_singleton(self):
        out = _split_to_k([{0}, {1}], 5)
        assert len(out) == 2

    def test_split_never_increases_cost(self):
        rng = np.random.default_rng(23)
        inst = Instance(
            mode="sqeuclid", k=1, n_prime=8, epsilon=1.0,
            points=rng.normal(size=(8, 2)),
        )
        whole = [set(range(8))]
        split = _split_to_k(whole, 4)
        before = sum(cluster_cost(inst, c) for c in whole)
        after = sum(cluster_cost(inst, c) for c in split)
        assert after <= before + 1e-12


class TestSmallK:
    def test_two_pairs_exact(self):
        inst = line_instance(0.0, 0.1, 5.0, 5.1, k=2)
        res = small_k_solver(inst)
        assert res.exact
        assert res.total_cost == pytest.approx(0.02)

    def test_all_singletons(self):
        inst = line_instance(0.0, 1.0, 2.0, k=3)
        res = small_k_solver(inst)
        assert res.total_cost == 0.0
        assert len(res.clusters) == 3

    def test_line_split(self):
        inst = line_instance(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, k=2)
        res = small_k_solver(inst)
        assert res.total_cost == pytest.approx(12.0)
        assert sorted(map(sorted, res.clusters)) == [[0, 1, 2], [3, 4, 5]]

    @pytest.mark.parametrize("n", [12, 20], ids=["subset-dp", "local-search"])
    def test_a_bad_seed_raises_on_both_branches(self, n):
        inst = generate(GeneratorSpec("box", seed=3, params={"n": n}, k=2, n_prime=n - 1))
        with pytest.raises(InstanceError, match="^seed must be a nonnegative integer, got -1$"):
            small_k_solver(inst, seed=-1)

    def test_local_search_finds_separated_optimum(self):
        inst = line_instance(0.0, 0.1, 0.2, 9.0, 9.1, 9.2, k=2)
        clusters = _local_search(inst, seed=0)
        cost = sum(cluster_cost(inst, c) for c in clusters)
        assert cost == pytest.approx(sum(cluster_cost(inst, c) for c in [{0, 1, 2}, {3, 4, 5}]))

    def test_local_search_respects_budget(self):
        inst = line_instance(0.0, 0.1, 0.2, 9.0, 9.1, 50.0, k=2, n_prime=5)
        clusters = _local_search(inst, seed=1)
        assert sum(len(c) for c in clusters) == 5
        assert all(50.0 not in {inst.points[i, 0] for i in c} for c in clusters)

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["sqeuclid", "metric"]),
           st.integers(1, 5), st.integers(0, 3), st.booleans(), st.integers(1, 2**32 - 1),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    # tied outliers, where only an ascending outlier list picks the reference's
    @example(2661941425, "sqeuclid", 2, 3, True, 735850878, False)
    @example(4153481458, "metric", 4, 2, True, 2799751284, False)
    def test_local_search_matches_the_sequential_reference(
        self, data_seed, mode, k, dropped, tied, seed, wide
    ):
        # the lockstep restarts give the clusters of one restart and one
        # point at a time, and small_k_solver their cost bit for bit wherever
        # the subset DP is out of budget; n' = n never swaps, and the grid's
        # coincident points tie argmin.  A wide instance (n = 40-160, up to
        # 12 outliers) spans many windows per sweep, so the window width
        # reaches its cap and accepts fall inside windows
        rng = np.random.default_rng(data_seed)
        if wide:
            n, dropped = int(rng.integers(40, 161)), 4 * dropped
        else:
            n = int(rng.integers(k + dropped + 1, 25))
        make = grid_instance if tied else untied_instance
        inst = make(rng, mode, 2, n, k=k, n_prime=n - dropped)
        want = local_search_reference(inst, seed)
        assert _local_search(inst, seed) == want
        if not enumeration_tractable(inst):
            res = small_k_solver(inst, seed=seed)
            assert not res.exact and res.clusters == want
            assert res.total_cost == float(sum(cluster_cost(inst, c) for c in want))
