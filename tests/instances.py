"""Instance recipes shared by the test modules and ``tools/fingerprint.py``,
and the tests' references: exhaustive ones for the dual constraints and for
the optimum, the ascent's fire floors computed whole at each lambda,
conflict resolution testing every earlier anchor, the exact oracle's subset
DP as a loop over every split, and the small-k local search one restart and
one point at a time."""

import itertools

import numpy as np

from minsumclust.conflicts import MetaAssignment, conflict_witnesses
from minsumclust.geometry import (
    REL_TOL, UNIT_ROUNDOFF, Instance, resolution_tolerance, scale_exponent,
)
from minsumclust.search import LOCAL_SEARCH_RESTARTS

# An epsilon whose scale base is the key.
EPS_OF_BASE = {2: 1.0, 3: 0.5}


def line_instance(*xs, k=1, n_prime=None, eps=1.0):
    """Points on a line; n' defaults to every point."""
    pts = np.array(xs, dtype=float).reshape(-1, 1)
    n_prime = len(xs) if n_prime is None else n_prime
    return Instance(mode="sqeuclid", k=k, n_prime=n_prime, epsilon=eps, points=pts)


def simplex_groups(dim, per_vertex):
    """``per_vertex`` coincident points at each vertex of the unit simplex."""
    return np.repeat(np.eye(dim + 1), per_vertex, axis=0)


def simplex_recipe(seed):
    """Equal groups at the vertices of a scaled simplex, shuffled, in either
    distance mode.  Groups merge together, so k' jumps past k and most seeds
    end the lambda search on two distinct endpoints."""
    rng = np.random.default_rng(seed)
    dim, per = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)][seed % 7]
    pts = rng.uniform(0.5, 3.0) * simplex_groups(dim, per)[rng.permutation((dim + 1) * per)]
    n, k = len(pts), int(rng.integers(1, dim + 1))
    params = dict(k=k, n_prime=n - int(rng.integers(0, 2)),
                  epsilon=float(rng.choice([0.5, 1.0])))
    if seed % 2:
        dmat = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
        return Instance(mode="metric", dist_matrix=dmat, **params)
    return Instance(mode="sqeuclid", points=pts, **params)


def grid_instance(rng, mode, base, n, k=1, n_prime=None):
    """n points on a scaled integer grid, so full of ties (coincident points,
    equal distances), at the epsilon of ``base``, with n' = n by default;
    metric mode takes their L1 distances."""
    pts = rng.uniform(0.3, 2.0) * rng.integers(0, 3, (n, 2))
    n_prime = n if n_prime is None else n_prime
    params = dict(mode=mode, k=k, n_prime=n_prime, epsilon=EPS_OF_BASE[base])
    if mode == "sqeuclid":
        return Instance(points=pts, **params)
    return Instance(dist_matrix=np.abs(pts[:, None] - pts[None]).sum(axis=-1), **params)


def untied_instance(rng, mode, base, n, k=1, n_prime=None):
    """n uniform random points in the unit cube, at the epsilon of ``base``,
    with n' = n by default; metric mode takes their Euclidean distances."""
    pts = rng.uniform(0.0, 1.0, (n, 3))
    n_prime = n if n_prime is None else n_prime
    params = dict(mode=mode, k=k, n_prime=n_prime, epsilon=EPS_OF_BASE[base])
    if mode == "sqeuclid":
        return Instance(points=pts, **params)
    return Instance(dist_matrix=np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1)), **params)


def exhaustive_worst_slack(inst, alpha, lam, active=None):
    """Reference for the dual constraints: the largest slack, sum of alpha
    over S minus lam minus base**j times the distance sum from S to y, over
    every nonempty subset S, each center y in S and S's scale exponent j, or
    -inf if none.  With ``active`` only subsets holding an active point
    count.  It enumerates all 2**n subsets, so keep n small."""
    alpha = np.asarray(alpha, dtype=float)
    dmat = inst.distances()
    worst = -np.inf
    for size in range(1, inst.n + 1):
        scale = inst.base ** scale_exponent(inst.base, size)
        for members in map(list, itertools.combinations(range(inst.n), size)):
            if active is not None and not np.asarray(active)[members].any():
                continue
            cheapest = dmat[np.ix_(members, members)].sum(axis=0).min()
            worst = max(worst, alpha[members].sum() - lam - scale * cheapest)
    return float(worst)


def opening_times_reference(state):
    """``dual._opening_times`` with every term computed at the state's lam,
    from the instance's sorted rows, as it was before the terms lam does not
    enter were cached per instance; the cached floors must equal it bit for
    bit."""
    inst = state.inst
    rows = inst.sorted_distances()
    threshold = state.lam - state.tau
    times = np.empty((inst.n, inst.top_exp + 1))
    for exp in range(inst.top_exp + 1):
        lo, hi = inst.base**exp, min(inst.base ** (exp + 1) - 1, inst.n)
        scaled = float(inst.base**exp) * rows[:, :hi]  # the floats of scaled_dists
        if threshold <= 0.0:
            times[:, exp] = scaled[:, lo - 1]
            continue
        sizes = np.arange(lo, hi + 1)
        sums = np.cumsum(scaled, axis=1)[:, lo - 1 :]
        need = (threshold / sizes + sums / sizes) * (1.0 - 2 * (sizes + 2) * UNIT_ROUNDOFF)
        times[:, exp] = np.maximum(scaled[:, lo - 1 :], need).min(axis=1)
    return times


def phase2_reference(inst, alpha, clusters, overflow):
    """``conflicts.run_phase2`` as it was before it kept an index of the
    anchors holding each point: every cluster is tested against every
    earlier anchor, in order, and the first with a witness blocks it.  The
    indexed version must return the same assignments, anchors included."""
    dmat = inst.distances()
    tau = resolution_tolerance(inst, alpha)
    order = sorted(range(len(clusters)), key=lambda i: (-clusters[i].scale_exp, i))
    anchors, parts, assigned = [], [], set()
    for i in order:
        cluster = clusters[i]
        blocker, witnesses = None, []
        for anchor in anchors:
            witnesses = conflict_witnesses(cluster, anchor, alpha, dmat, inst.base, tau)
            if witnesses:
                blocker = anchor
                break
        if blocker is None:
            for ma in parts:
                ma.part -= cluster.members
            parts = [ma for ma in parts if ma.part]
            parts.append(MetaAssignment(cluster, set(cluster.members), cluster.scale_exp))
            anchors.append(cluster)
            assigned |= cluster.members
        else:
            floor = float(alpha[witnesses].min())
            part = {x for x in cluster.members - assigned if alpha[x] >= floor - tau}
            if part:
                parts.append(MetaAssignment(blocker, part, cluster.scale_exp))
                assigned |= part
    missing = inst.n_prime - len(assigned)
    if missing > 0:
        if overflow is None:
            raise RuntimeError(
                f"{missing} points short of n' and no overflow cluster to draw from")
        pool = sorted(overflow.members - assigned)
        if len(pool) < missing:
            raise RuntimeError(f"{missing} points short of n' but only {len(pool)} available")
        parts.append(MetaAssignment(overflow, set(pool[:missing]), overflow.scale_exp,
                                    anchor_is_overflow=True))
    return parts


def exhaustive_opt(inst):
    """Reference for the optimum: the least cost of any assignment of
    exactly n' points to k labels (so at most k clusters), over every choice
    of the n' points and every labelling of them.  It enumerates
    C(n, n') k**n' assignments, so keep n at 8 or below."""
    dmat = inst.distances()
    labels = np.array(list(itertools.product(range(inst.k), repeat=inst.n_prime)))
    same = labels[:, :, None] == labels[:, None, :]
    best = np.inf
    for members in map(list, itertools.combinations(range(inst.n), inst.n_prime)):
        costs = (same * dmat[np.ix_(members, members)]).sum(axis=(1, 2)) / 2.0
        best = min(best, float(costs.min()))
    return best


def scalar_subset_dp(inst):
    """The exact oracle's subset DP one mask and one split at a time: the
    subset costs, and the clusters and cost of the optimum, which the
    oracle's array passes must reproduce bit for bit.  Each layer keeps, per
    mask, the first cheapest split in the order ``sub = (sub - 1) & rest``."""
    n, dmat = inst.n, inst.distances()
    full = 1 << n
    point_sum = np.zeros((n, full))
    cost = np.zeros(full)
    for m in range(1, full):
        low, rest = (m & -m).bit_length() - 1, m ^ (m & -m)
        point_sum[:, m] = point_sum[:, rest] + dmat[:, low]
        cost[m] = cost[rest] + point_sum[low, rest]
    layer = np.full(full, np.inf)
    layer[0] = 0.0
    parents = []
    for _ in range(inst.k):
        nxt, parent = layer.copy(), [0] * full
        for m in range(1, full):
            lowbit = m & -m
            rest, sub, nxt[m] = m ^ lowbit, m ^ lowbit, np.inf
            while True:
                val = cost[sub | lowbit] + layer[rest ^ sub]
                if val < nxt[m]:
                    nxt[m], parent[m] = val, sub | lowbit
                if sub == 0:
                    break
                sub = (sub - 1) & rest
        parents.append(parent)
        layer = nxt
    eligible = [m for m in range(full) if m.bit_count() == inst.n_prime]
    m = min(eligible, key=lambda e: layer[e])
    best = float(layer[m])
    clusters = []
    for parent in reversed(parents):
        if m:
            clusters.append({i for i in range(n) if parent[m] >> i & 1})
            m ^= parent[m]
    return cost, sorted(clusters, key=min), best


def local_search_reference(inst, seed):
    """``search._local_search`` one restart after another and one visited
    point at a time, as the loop the lockstep search must reproduce bit for
    bit: the same start permutations, the same float groupings, the same
    first-minimum ties and the same choice of the best restart."""
    dmat = inst.distances()
    n, k, n_prime = inst.n, inst.k, inst.n_prime
    rng = np.random.default_rng(seed)
    tol = REL_TOL * max(1.0, float(dmat.max()))
    best_cost = np.inf
    best_labels = None

    for _ in range(LOCAL_SEARCH_RESTARTS):
        labels = np.full(n, -1, dtype=int)
        chosen = rng.permutation(n)[:n_prime]
        labels[chosen] = np.arange(n_prime) % k
        # conn[x, c] = total distance from x to cluster c
        conn = np.zeros((n, k))
        for c in range(k):
            conn[:, c] = dmat[:, labels == c].sum(axis=1)
        cost = 0.5 * sum(conn[labels == c, c].sum() for c in range(k))
        # ascending, so argmin picks the lowest-numbered of tied outliers
        outliers = np.flatnonzero(labels < 0)

        for _sweep in range(1000):
            improved = False
            for x in range(n):
                c0 = labels[x]
                if c0 < 0:
                    continue
                # relocate x to a cheaper cluster
                deltas = conn[x] - conn[x, c0]
                c1 = int(deltas.argmin())
                if deltas[c1] < -tol:
                    labels[x] = c1
                    conn[:, c0] -= dmat[:, x]
                    conn[:, c1] += dmat[:, x]
                    cost += deltas[c1]
                    improved = True
                    continue
                # swap x with an outlier staying in the same cluster
                if outliers.size:
                    swap = conn[outliers, c0] - dmat[outliers, x] - conn[x, c0]
                    o = int(swap.argmin())
                    if swap[o] < -tol:
                        out_point = int(outliers[o])
                        labels[x] = -1
                        labels[out_point] = c0
                        for col, sign in ((x, -1.0), (out_point, 1.0)):
                            conn[:, c0] += sign * dmat[:, col]
                        cost += swap[o]
                        outliers = np.flatnonzero(labels < 0)
                        improved = True
            if not improved:
                break
        if cost < best_cost - tol:
            best_cost = cost
            best_labels = labels.copy()

    return [
        set(np.flatnonzero(best_labels == c).tolist())
        for c in range(k)
        if (best_labels == c).any()
    ]
