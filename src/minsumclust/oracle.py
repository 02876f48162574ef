"""Ground-truth solver and invariant audits for small instances.

The exact optimum is computed by dynamic programming over point subsets:
cluster costs for all 2**n subsets, then a partition layer per allowed
cluster.  A layer splits a mask into a cluster holding the mask's lowest
point and a rest partitioned by the layer before.  Each layer computes only
the masks that the next layer, or the answer, reads:

- layer 1 is the subset costs, each mask its own cluster;
- layer ``size``, for 1 < size < k, the masks that avoid the k - size lowest
  points and hold at most n' - (k - size) points, since the next layer reads
  it at subsets of a mask without that mask's lowest point;
- layer k the masks of n' points.

Masks a layer does not compute hold inf.  ``ENUMERATION_BUDGET`` still counts
the k (3**n - 1) / 2 splits of every layer over all masks, so whether the DP
runs is a rule on n and k alone.  It stays independent of the primal-dual
solver it checks.

Both passes are numpy array operations, with no interpreter step per mask
or split.  The subset costs go one lowest point at a time, over strided
slices of the masks.  A layer takes its masks by the popcount p of their
rest, and for a block of them builds a table of each rest's 2**p submasks
in decreasing order, the order of ``sub = (sub - 1) & rest``; ``argmin``
along a row picks the first cheapest split, as a scan keeping the first
strict minimum would.  Each cost is the same float addition a scan over the
splits makes, so costs and clusters do not depend on the vectorization or on
which masks are computed, bit for bit.  The tables are cut into blocks of at
most ``_TABLE_ENTRIES`` entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dual import DualState, worst_slack
from .geometry import (
    REL_TOL, Instance, InstanceError, cluster_cost, cost_constant, tightness_tolerance,
)
from .search import Branch, ClusteringResult, approx_bound

# Step budget of the exact oracle's subset DP, counted as k (3**n - 1) / 2
# splits whatever masks the layers compute; it caps n at 15.
ENUMERATION_BUDGET = 2e7

# Entries of one submask table of the DP (1 MB of int64), so a table's
# temporaries stay small at any n.
_TABLE_ENTRIES = 1 << 17


class OracleError(ValueError):
    """The instance is too large for exhaustive optimization."""


def enumeration_tractable(inst: Instance) -> bool:
    """Whether the subset DP's k (3**n - 1) / 2 steps fit the budget.  The
    count is that of every layer over all masks, more than the DP computes,
    so the answer depends on n and k alone."""
    return inst.k * (3**inst.n - 1) // 2 <= ENUMERATION_BUDGET


def brute_force_opt(inst: Instance) -> tuple[list[set[int]], float]:
    """Exact optimum: cluster exactly n' points into at most k clusters.

    Clustering more than n' points never helps (removing a point from a
    cluster cannot increase its cost), so restricting to exactly n' is
    lossless.  Only the last layer's n'-point masks are read, and each layer
    computes only the masks the next one reads (see the module docstring).
    Returns one optimal clustering, empty clusters omitted, and the optimal
    cost.  Distances whose total cost overflows a float raise
    ``InstanceError``.
    """
    if not enumeration_tractable(inst):
        raise OracleError(
            f"instance too large for exhaustive search (n={inst.n}, k={inst.k})"
        )
    n, k, n_prime = inst.n, inst.k, inst.n_prime
    full = 1 << n
    with np.errstate(over="ignore"):  # an infinite cost is rejected below
        cost = _subset_costs(inst.distances())
    if not math.isfinite(cost[-1]):  # the largest subset cost
        raise InstanceError(
            f"distances too large for the subset DP: the cost of all {n} points "
            "overflows a float"
        )
    popcounts = _popcounts(n)
    eligible = np.flatnonzero(popcounts == n_prime)

    # one cluster: every split but the whole mask meets an infinite rest
    layer = cost + 0.0
    parents = [np.arange(full)]
    for size in range(2, k + 1):
        skip = k - size  # the lowest points no later layer reads
        masks = (np.flatnonzero(popcounts[:full >> skip] <= n_prime - skip) << skip
                 if skip else eligible)
        layer, parent = _partition_layer(cost, layer, masks, popcounts)
        parents.append(parent)

    pos = eligible[int(np.argmin(layer[eligible]))]
    best_cost = float(layer[pos])

    clusters = []
    m = int(pos)
    for parent in reversed(parents):
        if m == 0:
            break
        s = int(parent[m])
        clusters.append({i for i in range(n) if s >> i & 1})
        m ^= s
    clusters.sort(key=min)
    return clusters, best_cost


def _popcounts(n: int) -> np.ndarray:
    """The number of set bits of every mask below 2**n: each doubling
    appends the masks that hold the next bit."""
    counts = np.zeros(1, dtype=np.intp)
    for _ in range(n):
        counts = np.concatenate([counts, counts + 1])
    return counts


def _partition_layer(
    cost: np.ndarray, layer: np.ndarray, masks: np.ndarray, popcounts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One more allowed cluster: the cheapest split of each of ``masks``
    into a cluster holding its lowest point and a rest partitioned by
    ``layer``, and that mask's cluster.  The empty mask costs 0.0, and every
    other mask outside ``masks`` holds inf and cluster 0."""
    full = layer.size
    nxt = np.full(full, np.inf)
    nxt[0] = 0.0
    parent = np.zeros(full, dtype=np.intp)
    counts = popcounts[masks]
    for bits in range(counts.max(initial=0)):
        group = masks[counts == bits + 1]
        rows = max(1, _TABLE_ENTRIES >> bits)
        for start in range(0, group.size, rows):
            m = group[start:start + rows]
            lowbit = m & -m
            rest = m ^ lowbit
            sub = _submask_table(rest, bits)
            vals = cost[sub | lowbit[:, None]] + layer[rest[:, None] ^ sub]
            best = np.argmin(vals, axis=1)
            row = np.arange(m.size)
            nxt[m] = vals[row, best]
            parent[m] = sub[row, best] | lowbit
    return nxt, parent


def _submask_table(rest: np.ndarray, bits: int) -> np.ndarray:
    """Every submask of each row's ``rest`` (which has ``bits`` bits), in
    decreasing order, the order of ``sub = (sub - 1) & rest`` from ``rest``
    down to 0.  The last ``width`` columns hold the submasks of the lowest
    bits taken so far; adding the next bit to each fills the ``width``
    columns before them."""
    table = np.empty((rest.size, 1 << bits), dtype=np.intp)
    table[:, -1] = 0
    left = rest.copy()
    width = 1
    for _ in range(bits):
        low = left & -left
        left ^= low
        np.bitwise_or(table[:, -width:], low[:, None], out=table[:, -2 * width:-width])
        width *= 2
    return table


def _subset_costs(dmat: np.ndarray) -> np.ndarray:
    """The min-sum cost of every subset of the points, indexed by bit mask.

    Each mask's cost extends that of the mask without its lowest member, by
    the member's distance sum to the rest, kept per point in ``point_sum``.
    The masks whose lowest member is ``low`` are the stride ``2 << low``
    from ``1 << low``, and their rests the same stride from 0; their lowest
    members lie above ``low``, so going down from the top point finds every
    rest done.
    """
    n = dmat.shape[0]
    full = 1 << n
    point_sum = np.zeros((n, full))
    cost = np.zeros(full)
    for low in range(n - 1, -1, -1):
        masks, rests = slice(1 << low, full, 2 << low), slice(0, full, 2 << low)
        point_sum[:, masks] = point_sum[:, rests] + dmat[:, low, None]
        cost[masks] = cost[rests] + point_sum[low, rests]
    return cost


def _certificate_defect(inst: Instance, alpha: np.ndarray, lam: float) -> str | None:
    """Why (alpha, lam) lies outside the dual program of ``inst`` (one finite,
    nonnegative dual per point and a finite lambda), or None.  The length is
    checked last, so a non-finite or negative vector reads so at any length."""
    if not (math.isfinite(lam) and np.isfinite(alpha).all()):
        return "holds a non-finite number"
    if (alpha < 0.0).any():
        return "holds a negative dual"
    if alpha.shape != (inst.n,):
        return f"has shape {alpha.shape}, not ({inst.n},)"
    return None


def verify_dual_feasible(inst: Instance, alpha: np.ndarray, lam: float) -> tuple[bool, float]:
    """Check the dual vector against every cluster constraint.

    Returns whether the worst left-minus-right slack of the candidate-prefix
    family, which holds a violated constraint iff any (subset, center) pair
    does, is within the tightness tolerance, and that slack.  A vector
    outside the dual program (not n duals, a non-finite or negative one, or
    a non-finite lambda) returns (False, inf).
    """
    alpha = np.asarray(alpha, dtype=float)
    if _certificate_defect(inst, alpha, lam) is not None:
        return False, np.inf
    worst = worst_slack(DualState(inst, lam, alpha=alpha.copy()))
    return worst <= tightness_tolerance(inst, lam), worst


@dataclass
class AuditReport:
    """Verification outcome of one result.  ``size_bound_violations`` holds
    breaches of its size guarantees (at most k clusters, (1 - eps) n' to n'
    points clustered), ``invariant_failures`` every other failed check."""

    dual_feasible: bool = True
    worst_constraint_slack: float = -np.inf
    size_bound_violations: list[str] = field(default_factory=list)
    cost_ratio: float | None = None
    invariant_failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.dual_feasible
            and not self.size_bound_violations
            and not self.invariant_failures
        )

    def lines(self) -> list[str]:
        # a checked certificate has a finite worst slack (its singletons are
        # admissible), so a feasible report at -inf checked none
        if self.dual_feasible and self.worst_constraint_slack == -np.inf:
            dual = "dual_feasible n/a (no certificate)"
        else:
            dual = (f"dual_feasible {'yes' if self.dual_feasible else 'NO'}"
                    f" (worst slack {self.worst_constraint_slack:.3e})")
        out = [
            dual,
            f"size_bounds {'ok' if not self.size_bound_violations else 'VIOLATED'}",
        ]
        if self.cost_ratio is not None:
            out.append(f"cost_ratio {self.cost_ratio:.6g}")
        failures = self.size_bound_violations + self.invariant_failures
        if failures:
            out.append("failures:")
            out.extend(f"  {msg}" for msg in failures)
        out.append(f"audit {'PASS' if self.ok else 'FAIL'}")
        return out


def audit(
    inst: Instance, result: ClusteringResult, oracle_opt: float | None = None
) -> AuditReport:
    """Check a result against its instance, from what a result file holds.

    Structural checks (disjointness, size bounds, recomputed cost) always
    run, but a result of another n is not checked against this instance's
    points.  A bipoint result needs one feasible certificate per distinct
    lambda endpoint, in order, and the other branches none; a feasible
    certificate holds one finite, nonnegative dual per point that meets every
    cluster constraint within tau.  The per-phase guarantees are checked by
    the solver on every probe, so a result audits the same in memory and
    after ``save_result`` and ``load_result``.  Every check uses the
    instance's n, mode, k, n', epsilon and scale base, not the values the
    result states; each stated value must agree with them.
    """
    report = AuditReport()
    fail = report.invariant_failures.append
    for name, stated, actual in (
        ("n", result.n, inst.n),
        ("mode", result.mode.value, inst.mode.value),
        ("k", result.k, inst.k),
        ("n_prime", result.n_prime, inst.n_prime),
        ("epsilon", result.epsilon, inst.epsilon),
    ):
        if stated != actual:
            fail(f"result states {name} {stated}, but the instance has {actual}")
    if result.base != inst.base:
        fail(f"result states scale base {result.base}, but epsilon "
             f"{inst.epsilon:g} gives base {inst.base}")
    constant = cost_constant(inst.base)
    if result.c_eps != constant:
        fail(f"result states c_eps {result.c_eps:.17g}, but base {inst.base} "
             f"gives {constant:.17g}")

    seen: set[int] = set()
    for i, c in enumerate(result.clusters):
        overlap = c & seen
        if overlap:
            fail(f"cluster {i} shares points {sorted(overlap)} with an earlier cluster")
        if not c:
            fail(f"cluster {i} is empty")
        seen |= c
    # clusters and outliers of another n index another instance's points
    same_points = result.n == inst.n
    if same_points and result.outliers != set(range(inst.n)) - seen:
        fail("outlier set is not the complement of the clustered points")

    size_fail = report.size_bound_violations.append
    if len(result.clusters) > inst.k:
        size_fail(f"{len(result.clusters)} clusters exceed k = {inst.k}")
    clustered = len(seen)
    lower = (1.0 - inst.epsilon) * inst.n_prime
    if clustered > inst.n_prime or clustered < lower - REL_TOL:
        size_fail(
            f"clustered {clustered} points outside "
            f"[{lower:.2f}, {inst.n_prime}]"
        )

    if not math.isfinite(result.total_cost):
        fail(f"stored cost {result.total_cost!r} is not finite")
    elif same_points:
        recomputed = sum(cluster_cost(inst, c) for c in result.clusters if c)
        scale = max(abs(recomputed), abs(result.total_cost))
        if abs(recomputed - result.total_cost) > REL_TOL * scale:
            fail(f"stored cost {result.total_cost!r} disagrees with recomputation {recomputed!r}")

    endpoints = []
    if result.branch in (Branch.BIPOINT_LOW, Branch.BIPOINT_HIGH):
        endpoints = list(dict.fromkeys([result.lambda_low, result.lambda_high]))
    stated = [cert.lam for cert in result.certificates]
    if stated != endpoints:
        report.dual_feasible = False
        fail(f"{result.branch.value} result carries certificates at lambda "
             f"{stated}, expected {endpoints}")
    for cert in result.certificates:
        defect = _certificate_defect(inst, cert.alpha, cert.lam)
        if defect is None:
            feasible, slack = verify_dual_feasible(inst, cert.alpha, cert.lam)
            report.worst_constraint_slack = max(report.worst_constraint_slack, slack)
            defect = None if feasible else "is infeasible"
        if defect is not None:
            report.dual_feasible = False
            fail(f"dual certificate at lambda {cert.lam:.6g} {defect}")

    if oracle_opt is not None:
        if oracle_opt > 0.0:
            report.cost_ratio = result.total_cost / oracle_opt
        else:
            report.cost_ratio = 1.0 if result.total_cost == 0.0 else np.inf
        bound = approx_bound(inst.epsilon)
        if report.cost_ratio > bound:
            fail(
                f"cost ratio {report.cost_ratio:.4g} exceeds the guarantee {bound:.4g}"
            )
    return report

