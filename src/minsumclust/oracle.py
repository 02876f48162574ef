"""Ground-truth solver and invariant audits for small instances.

The exact optimum is computed by dynamic programming over point subsets:
cluster costs for all 2**n subsets, then a partition layer per allowed
cluster.  Each layer splits every mask into a cluster holding the mask's
lowest point and a rest, (3**n - 1) / 2 splits over all masks, so the DP
takes k (3**n - 1) / 2 steps.  It stays independent of the primal-dual
solver it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dual import DualState, worst_slack
from .geometry import REL_TOL, Instance, cluster_cost, scale_exponent, tightness_tolerance
from .search import Branch, ClusteringResult, approx_bound, cost_constant

# Exhaustive feasibility checking enumerates all subsets; keep it honest.
EXHAUSTIVE_MAX_N = 12
# Step budget of the exact oracle's subset DP; it caps n at 15.
ENUMERATION_BUDGET = 2e7


class OracleError(ValueError):
    """The instance is too large for exhaustive optimization."""


def enumeration_tractable(inst: Instance) -> bool:
    """Whether the subset DP's k (3**n - 1) / 2 steps fit the budget."""
    return inst.k * (3**inst.n - 1) // 2 <= ENUMERATION_BUDGET


def brute_force_opt(inst: Instance) -> tuple[list[set[int]], float]:
    """Exact optimum: cluster exactly n' points into at most k clusters.

    Clustering more than n' points never helps (removing a point from a
    cluster cannot increase its cost), so restricting to exactly n' is
    lossless.  Returns one optimal clustering, empty clusters omitted, and
    the optimal cost.
    """
    if not enumeration_tractable(inst):
        raise OracleError(
            f"instance too large for exhaustive search (n={inst.n}, k={inst.k})"
        )
    n, k = inst.n, inst.k
    full = 1 << n
    _, cost = _subset_tables(inst.distances())

    inf = np.inf
    layer = np.full(full, inf)
    layer[0] = 0.0
    parents = []
    for _ in range(k):
        nxt = np.full(full, inf)
        nxt[0] = 0.0
        parent = np.zeros(full, dtype=np.int64)
        for m in range(1, full):
            lowbit = m & -m
            rest = m ^ lowbit
            best = inf
            best_s = 0
            sub = rest
            while True:
                s = sub | lowbit
                val = cost[s] + layer[m ^ s]
                if val < best:
                    best = val
                    best_s = s
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            nxt[m] = best
            parent[m] = best_s
        parents.append(parent)
        layer = nxt

    popcounts = np.array([int(m).bit_count() for m in range(full)])
    eligible = np.flatnonzero(popcounts == inst.n_prime)
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


def _subset_tables(dmat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums over every subset of the points, indexed by bit mask.

    point_sum[x, m] is the total distance from x to the points in mask m, and
    cost[m] the min-sum cost of mask m.  Each mask's sums extend those of the
    mask without its lowest member.
    """
    n = dmat.shape[0]
    full = 1 << n
    point_sum = np.zeros((n, full))
    cost = np.zeros(full)
    for m in range(1, full):
        low = (m & -m).bit_length() - 1
        rest = m ^ (m & -m)
        point_sum[:, m] = point_sum[:, rest] + dmat[:, low]
        cost[m] = cost[rest] + point_sum[low, rest]
    return point_sum, cost


def verify_dual_feasible(
    inst: Instance, alpha: np.ndarray, lam: float, exhaustive: bool = False
) -> tuple[bool, float]:
    """Check the dual vector against every cluster constraint.

    Fast mode scans the candidate-prefix family, which finds a violation iff
    one exists; exhaustive mode (n <= 12) enumerates every (subset, center)
    pair.  Both return the worst left-minus-right slack they saw.  The scale
    base is the instance's.  A vector with a non-finite or negative dual
    lies outside the dual program; both modes return (False, inf) for it.
    """
    alpha = np.asarray(alpha, dtype=float)
    if not (np.isfinite(alpha).all() and (alpha >= 0.0).all()):
        return False, np.inf
    tau = tightness_tolerance(inst, lam)
    if exhaustive:
        if inst.n > EXHAUSTIVE_MAX_N:
            raise OracleError(f"exhaustive feasibility check needs n <= {EXHAUSTIVE_MAX_N}")
        worst = _exhaustive_worst_slack(inst, alpha, lam)
    else:
        worst = worst_slack(DualState(inst, lam, alpha=alpha.copy()))
    return worst <= tau, worst


def _exhaustive_worst_slack(inst: Instance, alpha: np.ndarray, lam: float) -> float:
    n, base = inst.n, inst.base
    full = 1 << n
    point_sum, _ = _subset_tables(inst.distances())
    alpha_sum = np.zeros(full)

    worst = -np.inf
    members_of = [np.flatnonzero([(m >> i) & 1 for i in range(n)]) for m in range(full)]
    for m in range(1, full):
        members = members_of[m]
        alpha_sum[m] = alpha_sum[m ^ (m & -m)] + alpha[members[0]]
        scale = base ** scale_exponent(base, len(members))
        cheapest = float(point_sum[members, m].min())
        slack = alpha_sum[m] - lam - scale * cheapest
        if slack > worst:
            worst = slack
    return float(worst)


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
        out = [
            f"dual_feasible {'yes' if self.dual_feasible else 'NO'}"
            f" (worst slack {self.worst_constraint_slack:.3e})",
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
    run.  A bipoint result needs one feasible certificate per distinct lambda
    endpoint, in order, and the other branches none; a feasible certificate
    holds finite, nonnegative duals that meet every cluster constraint within
    tau.  The per-phase guarantees are checked by the solver on every probe,
    so a result audits the same in memory and after ``save_result`` and
    ``load_result``.
    Every check uses the instance's mode, k, n', epsilon and scale base, not
    the values the result states; each stated value must agree with them.
    """
    report = AuditReport()
    fail = report.invariant_failures.append
    for name, stated, actual in (
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
    expected_outliers = set(range(inst.n)) - seen
    if result.outliers != expected_outliers:
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

    recomputed = sum(cluster_cost(inst, c) for c in result.clusters)
    scale = max(abs(recomputed), abs(result.total_cost))
    if not math.isfinite(result.total_cost):
        fail(f"stored cost {result.total_cost!r} is not finite")
    elif abs(recomputed - result.total_cost) > REL_TOL * scale:
        fail(
            f"stored cost {result.total_cost!r} disagrees with recomputation "
            f"{recomputed!r}"
        )

    endpoints = []
    if result.branch in (Branch.BIPOINT_LOW, Branch.BIPOINT_HIGH):
        endpoints = list(dict.fromkeys([result.lambda_low, result.lambda_high]))
    stated = [cert.lam for cert in result.certificates]
    if stated != endpoints:
        report.dual_feasible = False
        fail(f"{result.branch.value} result carries certificates at lambda "
             f"{stated}, expected {endpoints}")
    for cert in result.certificates:
        if not (math.isfinite(cert.lam) and np.isfinite(cert.alpha).all()):
            report.dual_feasible = False
            fail(f"dual certificate at lambda {cert.lam:.6g} holds a non-finite number")
            continue
        if (cert.alpha < 0.0).any():
            report.dual_feasible = False
            fail(f"dual certificate at lambda {cert.lam:.6g} holds a negative dual")
            continue
        feasible, slack = verify_dual_feasible(inst, cert.alpha, cert.lam)
        report.worst_constraint_slack = max(report.worst_constraint_slack, slack)
        if not feasible:
            report.dual_feasible = False
            fail(f"dual certificate at lambda {cert.lam:.6g} is infeasible")

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

