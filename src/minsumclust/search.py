"""Outer search over the cluster-opening cost.

A single probe runs the full primal-dual pipeline at a fixed opening cost
lambda and reports how many clusters came out.  Binary search on lambda
brackets the target count k between a cheap-opening solution with more than
k clusters and an expensive-opening one with at most k; the final output is
one of the two bracket endpoints, chosen by the convex combination weight
that would mix them into exactly k clusters.

Each answer leaves ``min_sum_clustering`` by one exit: one for degenerate
instances, one for the small-k fallback, one for the lambda = 0 probe at or
below k, one for a probe that hits k' = k exactly, and one for a bracket of
two endpoints.  Every result's lambda endpoints are its certificates' own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .assembly import check_size_windows, partition_evenly, run_phase3
from .conflicts import check_assignments, run_phase2
from .dual import run_phase1
from .generators import check_seed
from .geometry import (
    REL_TOL, DistanceMode, Instance, InstanceError, cluster_cost, cost_constant, scale_base,
    tightness_tolerance,
)

# Random restarts of the small-k local search.
LOCAL_SEARCH_RESTARTS = 20


class Branch(str, Enum):
    """Which rule produced the final clustering."""

    BIPOINT_LOW = "bipoint_low"
    BIPOINT_HIGH = "bipoint_high"
    SMALL_K = "small_k"
    DEGENERATE = "degenerate"


@dataclass
class DualCertificate:
    """A feasible dual vector together with the opening cost it was grown at."""

    lam: float
    alpha: np.ndarray


@dataclass
class ProbeOutcome:
    """What the search needs of one pipeline run: the point sets of the
    clusters kept, the count k' and the certificate, which holds the opening
    cost (read as ``lam``) and the ascent's duals."""

    clusters: list[set[int]]
    k_prime: int
    certificate: DualCertificate

    @property
    def lam(self) -> float:
        return self.certificate.lam


@dataclass
class ClusteringResult:
    """Final clustering plus the artifacts needed to re-verify it."""

    clusters: list[set[int]]
    outliers: set[int]
    total_cost: float
    lambda_low: float
    lambda_high: float
    rho1: float
    branch: Branch
    base: int
    c_eps: float
    exact: bool
    mode: DistanceMode
    n: int
    k: int
    n_prime: int
    epsilon: float
    certificates: list[DualCertificate] = field(default_factory=list)

    def clustered_count(self) -> int:
        return sum(len(c) for c in self.clusters)


def approx_bound(epsilon: float) -> float:
    """End-to-end approximation factor guaranteed against the exact optimum,
    at the scale base of epsilon."""
    return 8.0 * (cost_constant(scale_base(epsilon)) + 1.0) / epsilon


def probe(inst: Instance, lam: float) -> ProbeOutcome:
    """Run the full pipeline at one opening cost.

    Phases 2 and 3 read the duals, candidate clusters and overflow of the
    ascent's ``DualState``, and the probe's certificate holds its duals.
    Each phase's guarantee is checked on every probe: the ascent's by
    ``run_phase1``, the resolution's by ``check_assignments`` and the
    assembly's by ``check_size_windows``.  The first failure of any phase
    raises ``RuntimeError`` as ``probe at lambda {lam}: {message}``.
    ``k_prime`` is one less than the number of assembled clusters, recorded
    before the smallest cluster is dropped (which happens when it holds at
    most eps/3 of the n' budget; ties drop the earliest such cluster).  The
    outcome keeps the remaining clusters' point sets and a certificate of
    ``lam`` with the ascent's duals.
    """
    try:
        phase1 = run_phase1(inst, lam)
        assignments = run_phase2(inst, phase1.alpha, phase1.clusters, phase1.overflow)
        check_assignments(inst, assignments, phase1.alpha)
        assembled = run_phase3(assignments, inst.base)
        check_size_windows(assembled, inst.base, inst.n_prime)
    except RuntimeError as exc:
        raise RuntimeError(f"probe at lambda {lam:.6g}: {exc}") from exc
    clusters = [c.points for c in assembled.clusters]
    k_prime = len(clusters) - 1
    if clusters:
        smallest = min(range(len(clusters)), key=lambda i: (len(clusters[i]), i))
        if len(clusters[smallest]) <= inst.epsilon * inst.n_prime / 3.0 + REL_TOL:
            del clusters[smallest]
    return ProbeOutcome(clusters, k_prime, DualCertificate(float(lam), phase1.alpha))


def min_sum_clustering(
    inst: Instance, force_primal_dual: bool = False, seed: int = 0
) -> ClusteringResult:
    """Cluster between (1 - eps) * n' and n' points into at most k clusters.

    Degenerate instances (k >= n', or all points coincident) are answered
    directly at cost zero.  Small k falls back to exhaustive or local-search
    optimization; otherwise the opening cost is bisected until the bracket
    is tighter than delta and one bracket endpoint is returned.
    ``force_primal_dual`` skips the small-k fallback; the bracket endpoints'
    guarantees then still hold but the returned clustering may use up to
    k + 1 clusters, since the smallest-cluster rule only enforces k of them
    when k exceeds 4 / eps.  ``seed`` feeds only the local search, but every
    branch first checks it by ``check_seed`` (a nonnegative integer), so a
    bad seed raises ``InstanceError``, a ``ValueError``, on every instance.
    The primal-dual search also raises ``InstanceError`` for distances so
    large that the tightness tolerance at the total pairwise cost is not a
    finite float.
    """
    seed = check_seed(seed)
    n, k, n_prime, eps = inst.n, inst.k, inst.n_prime, inst.epsilon
    if k >= n_prime or inst.max_distance() <= 0.0:
        clusters = partition_evenly(range(n_prime), min(k, n_prime))
        return _result(inst, clusters, Branch.DEGENERATE, exact=True)

    if not force_primal_dual and k <= 4.0 / eps:
        return small_k_solver(inst, seed=seed)

    with np.errstate(over="ignore"):  # an infinite sum is rejected below
        lam_top = float(inst.distances().sum())

    if not math.isfinite(tightness_tolerance(inst, lam_top)):
        raise InstanceError(
            f"distances too large for the primal-dual search: the tightness "
            f"tolerance at the total pairwise cost {lam_top:.6g} overflows a float"
        )
    delta = 2.0 / ((n + k) * lam_top)
    low = probe(inst, 0.0)
    if low.k_prime <= k:
        return _result(inst, low.clusters, Branch.BIPOINT_HIGH, certificates=[low.certificate])
    high = probe(inst, lam_top)
    if high.k_prime > k:
        raise RuntimeError(
            "opening cost equal to the total pairwise cost still produced "
            f"{high.k_prime + 1} clusters"
        )

    while high.k_prime < k and high.lam - low.lam > delta:
        mid = (low.lam + high.lam) / 2.0
        if not low.lam < mid < high.lam:
            break  # float resolution exhausted before reaching delta
        out = probe(inst, mid)
        if out.k_prime > k:
            low = out
        else:
            high = out
    if high.k_prime == k:
        return _result(inst, high.clusters, Branch.BIPOINT_HIGH, certificates=[high.certificate])

    rho1 = (k - high.k_prime) / (low.k_prime - high.k_prime)
    if rho1 >= 1.0 - eps / 4.0:
        ranked = sorted(range(len(low.clusters)), key=lambda i: (-len(low.clusters[i]), i))
        chosen = [low.clusters[i] for i in ranked[:k]]
        branch = Branch.BIPOINT_LOW
    else:
        chosen = _split_to_k(high.clusters, k)
        branch = Branch.BIPOINT_HIGH
    return _result(
        inst, chosen, branch, rho1=rho1, certificates=[low.certificate, high.certificate]
    )


def _split_to_k(clusters: list[set[int]], k: int) -> list[set[int]]:
    """Peel singletons off the largest cluster until there are k clusters.

    Splitting never increases the min-sum cost.  Stops early if every
    cluster is already a singleton.
    """
    clusters = [set(c) for c in clusters]
    while len(clusters) < k:
        largest = max(range(len(clusters)), key=lambda i: (len(clusters[i]), -i))
        if len(clusters[largest]) < 2:
            break
        peeled = min(clusters[largest])
        clusters[largest].discard(peeled)
        clusters.append({peeled})
    return clusters


def _result(
    inst: Instance,
    clusters: list[set[int]],
    branch: Branch,
    *,
    exact: bool = False,
    rho1: float = 1.0,
    certificates: list[DualCertificate] = (),
) -> ClusteringResult:
    """The result for a chosen clustering: empty clusters dropped, the
    outliers and the total cost derived from the rest, and the lambda
    endpoints read off the first and the last certificate (0.0 without
    one)."""
    clusters = [set(c) for c in clusters if c]
    total = sum(cluster_cost(inst, c) for c in clusters)
    return ClusteringResult(
        clusters=clusters,
        outliers=set(range(inst.n)).difference(*clusters),
        total_cost=float(total),
        lambda_low=certificates[0].lam if certificates else 0.0,
        lambda_high=certificates[-1].lam if certificates else 0.0,
        rho1=float(rho1),
        branch=branch,
        base=inst.base,
        c_eps=cost_constant(inst.base),
        exact=exact,
        mode=inst.mode,
        n=inst.n,
        k=inst.k,
        n_prime=inst.n_prime,
        epsilon=inst.epsilon,
        certificates=list(certificates),
    )


def small_k_solver(inst: Instance, seed: int = 0) -> ClusteringResult:
    """Direct optimization for small k: the exact subset DP within the
    oracle's step budget, seeded local search otherwise (flagged non-exact).
    Both check ``seed`` by ``check_seed`` first."""
    from .oracle import brute_force_opt, enumeration_tractable

    seed = check_seed(seed)
    if enumeration_tractable(inst):
        clusters, _ = brute_force_opt(inst)
        return _result(inst, clusters, Branch.SMALL_K, exact=True)
    return _result(inst, _local_search(inst, seed=seed), Branch.SMALL_K)


@np.errstate(over="ignore", invalid="ignore")  # a cost that overflows is rejected below
def _local_search(inst: Instance, seed: int) -> list[set[int]]:
    """Randomized first-improvement search over point moves and swaps.

    Each of ``LOCAL_SEARCH_RESTARTS`` restarts deals a random n' of the
    points round-robin to the k clusters; the start permutations are drawn
    from ``default_rng(seed)`` in restart order, and nothing else is drawn.
    A sweep visits the points in index order.  A clustered point moves to
    the cluster it is closest to in total if that saves more than the
    tolerance, and otherwise trades places with the outlier whose swap into
    its cluster saves most, if that saves more than the tolerance; ties go
    to the lowest-numbered cluster or outlier.  A restart ends after a sweep
    that improves nothing, or after 1000 sweeps.  The cheapest restart wins;
    a later one must be cheaper by more than the tolerance.

    The restarts run in lockstep: their labels, distance sums (stored as
    (restart, cluster, point), so an accept updates whole rows), costs and
    outlier lists are stacked along a leading restart axis.  Each restart
    keeps its own cursor into its sweep.  One numpy step tests, in every
    restart still running, a window of the next points at the cursor on
    that restart's current state, then applies each restart's first accept
    (a move before a swap) and moves its cursor just past that point, or
    past the window when nothing in it accepts.  Until the first accept the
    state a window reads is the one a point-by-point loop would read, so
    every decision reads the same floats as a loop over one restart and one
    point at a time, and the clusters are the same bit for bit.  The
    distance matrix is exactly symmetric, so its rows stand in for its
    columns.  The window width is shared: it doubles, up to 64, after a step
    in which fewer than half of the running restarts accepted, and halves,
    down to 1, otherwise; it changes only how many steps the search takes.
    When no restart ends with a finite cost, the distances' sums overflow a
    float and ``InstanceError`` is raised.
    """
    dmat = inst.distances()
    n, k, n_prime = inst.n, inst.k, inst.n_prime
    rng = np.random.default_rng(seed)
    tol = REL_TOL * max(1.0, float(dmat.max()))
    restarts = LOCAL_SEARCH_RESTARTS

    labels = np.full((restarts, n), -1, dtype=int)
    # conn[r, c, x] = total distance from x to cluster c in restart r
    conn = np.zeros((restarts, k, n))
    cost = np.zeros(restarts)
    for r in range(restarts):
        labels[r, rng.permutation(n)[:n_prime]] = np.arange(n_prime) % k
        for c in range(k):
            conn[r, c] = dmat[:, labels[r] == c].sum(axis=1)
        cost[r] = 0.5 * sum(conn[r, c, labels[r] == c].sum() for c in range(k))
    # ascending per restart, so argmin picks the lowest-numbered of tied
    # outliers; only an accepted swap changes a row
    outliers = np.nonzero(labels < 0)[1].reshape(restarts, n - n_prime)

    # flat views for np.take; dmat is exactly symmetric, so row x is column x
    flat_labels, flat_conn, flat_dmat = labels.reshape(-1), conn.reshape(-1), dmat.reshape(-1)
    cluster_rows = np.arange(k) * n
    cursor = np.zeros(restarts, dtype=int)  # the next point each restart visits
    sweeps = np.zeros(restarts, dtype=int)
    improved = np.zeros(restarts, dtype=bool)
    running = np.arange(restarts)
    width = 1
    while running.size:
        rows, start = np.arange(running.size), cursor[running]
        visit = start[:, None] + np.arange(width)
        xs = np.minimum(visit, n - 1)
        c0 = flat_labels.take(running[:, None] * n + xs)
        clustered = (c0 >= 0) & (visit < n)
        c0 = np.maximum(c0, 0)  # an outlier's gains are computed, then masked
        blocks = running[:, None] * (k * n)
        home = blocks + c0 * n  # where conn[r, c0] starts
        own = flat_conn.take(home + xs)
        # relocate x to a cheaper cluster; a row's minimum is the float at
        # its first argmin, so the cost adds the same value
        deltas = flat_conn.take((blocks + xs)[..., None] + cluster_rows) - own[..., None]
        move_gain = deltas.min(axis=2)
        moves = clustered & (move_gain < -tol)
        accept = moves
        if n_prime < n:
            # swap x with an outlier staying in the same cluster
            out = outliers[running][:, None, :]
            # in place, sparing two temporaries, in the reference's order
            swap = flat_conn.take(home[..., None] + out)
            swap -= flat_dmat.take(xs[..., None] * n + out)
            swap -= own[..., None]
            swap_gain = swap.min(axis=2)
            accept = moves | clustered & (swap_gain < -tol)
        first = accept.argmax(axis=1)
        hit = accept[rows, first]
        x = xs[rows, first]

        moved = np.flatnonzero(hit & moves[rows, first])
        if moved.size:
            at = first[moved]
            r, pt, c_from = running[moved], x[moved], c0[moved, at]
            c_to = deltas[moved, at].argmin(axis=1)
            labels[r, pt] = c_to
            conn[r, c_from] -= dmat[pt]
            conn[r, c_to] += dmat[pt]
            cost[r] += move_gain[moved, at]
        swapped = np.flatnonzero(hit & ~moves[rows, first])
        if swapped.size:
            at = first[swapped]
            r, pt, c_in = running[swapped], x[swapped], c0[swapped, at]
            held = outliers[r]
            o = held[np.arange(r.size), swap[swapped, at].argmin(axis=1)]
            labels[r, pt] = -1
            labels[r, o] = c_in
            conn[r, c_in] -= dmat[pt]
            conn[r, c_in] += dmat[o]
            cost[r] += swap_gain[swapped, at]
            outliers[r] = np.sort(np.where(held == o[:, None], pt[:, None], held), axis=1)
        improved[running[hit]] = True

        nxt = np.where(hit, x + 1, start + width)
        cursor[running] = nxt
        if 2 * np.count_nonzero(hit) < running.size:
            width = min(2 * width, 64)
        else:
            width = max(width // 2, 1)
        # a finished sweep starts the next one, unless it improved nothing
        # or was the restart's 1000th
        ended = running[nxt >= n]
        if ended.size:
            sweeps[ended] += 1
            cursor[ended] = 0
            stop = ended[~improved[ended] | (sweeps[ended] >= 1000)]
            improved[ended] = False
            running = np.setdiff1d(running, stop, assume_unique=True)

    best_cost = np.inf
    best_labels: np.ndarray | None = None
    for r in range(restarts):
        if cost[r] < best_cost - tol:
            best_cost = cost[r]
            best_labels = labels[r]
    if best_labels is None:
        raise InstanceError(
            "distances too large for the local search: every restart's cost "
            "overflows a float"
        )

    return [
        set(np.flatnonzero(best_labels == c).tolist())
        for c in range(k)
        if (best_labels == c).any()
    ]
