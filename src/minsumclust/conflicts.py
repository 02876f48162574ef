"""Conflict resolution: greedy independent set over tight clusters.

Candidate clusters from the ascent may share points.  Two clusters conflict
when a shared point strictly overpays both scaled connection costs, i.e. it
contributed to both opening payments.  Scanning clusters from the largest
scale down, a cluster either becomes an anchor (no conflict with an earlier
anchor) or donates its unassigned members to the earliest anchor that
blocks it.  Only an anchor that shares a point with the cluster can block
it, so each cluster is tested against those anchors alone, found through an
index of the anchors holding each point.  A donated point must hold at
least as much dual value as some conflict witness: a point that joined a
cluster paid its connection cost exactly and can never witness a conflict,
so every witness froze no later than the cluster's own tight time, and the
donation keeps the per-point connection guarantee intact while covering
every clustered point.  The
result assigns exactly n' points to anchors.  ``check_assignments`` checks
these guarantees; the search runs it on every probe, and its first failure
raises ``RuntimeError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DistanceMode, Instance, ScaledCluster, resolution_tolerance


@dataclass
class MetaAssignment:
    """One (anchor, part) pair produced by conflict resolution.

    ``part_scale`` is the scale exponent of the cluster the part came from;
    the part connects to the anchor's center.  Parts are pairwise disjoint
    and their sizes sum to exactly n'.
    """

    anchor: ScaledCluster
    part: set[int]
    part_scale: int
    anchor_is_overflow: bool = False


def conflict_witnesses(
    a: ScaledCluster,
    b: ScaledCluster,
    alpha: np.ndarray,
    dmat: np.ndarray,
    base: int,
    tau: float,
) -> list[int]:
    """Shared points that strictly overpay both scaled distances."""
    shared = a.members & b.members
    if not shared:
        return []
    idx = sorted(shared)
    da = float(base**a.scale_exp) * dmat[idx, a.center]
    db = float(base**b.scale_exp) * dmat[idx, b.center]
    hits = np.flatnonzero(alpha[idx] > np.maximum(da, db) + tau)
    return [idx[i] for i in hits]


def run_phase2(
    inst: Instance,
    alpha: np.ndarray,
    clusters: list[ScaledCluster],
    overflow: ScaledCluster | None,
) -> list[MetaAssignment]:
    """Group the clustered points around a greedy independent set of anchors.

    Clusters are visited by nonincreasing scale exponent (ties by creation
    order).  An accepted anchor claims all its points, pulling each out of
    the one earlier part that holds it, found through an index of the part
    holding each point; a part left empty is dropped, and the rest keep
    their order.  A rejected cluster donates its unassigned members whose
    dual value reaches the conflict's cheapest witness to the earliest
    blocking anchor.  A witness is a shared point, so the anchors
    sharing no point with the cluster are skipped: the rest are tested in
    anchor order, and the first blocker is the one a test of every earlier
    anchor finds.  Finally, unassigned points from the overflow cluster
    (lowest indices first) top the total up to exactly n'; when too few
    remain, ``RuntimeError`` names the shortfall.  The parts' guarantees
    are checked by ``check_assignments``, not here.
    """
    dmat = inst.distances()
    tau = resolution_tolerance(inst, alpha)
    order = sorted(range(len(clusters)), key=lambda i: (-clusters[i].scale_exp, i))

    anchors: list[ScaledCluster] = []
    holding: dict[int, list[int]] = {}  # point -> positions of the anchors holding it
    parts: list[MetaAssignment] = []
    # point -> the one part holding it; its keys are the assigned points
    owner: dict[int, MetaAssignment] = {}

    for i in order:
        cluster = clusters[i]
        blocker = None
        witnesses: list[int] = []
        # an anchor that shares no point has no witness
        sharing = {pos for x in cluster.members for pos in holding.get(x, ())}
        for pos in sorted(sharing):
            witnesses = conflict_witnesses(cluster, anchors[pos], alpha, dmat, inst.base, tau)
            if witnesses:
                blocker = anchors[pos]
                break
        if blocker is None:
            for x in cluster.members:
                holding.setdefault(x, []).append(len(anchors))
            emptied = False
            for x in cluster.members:
                if (ma := owner.get(x)) is not None:
                    ma.part.discard(x)
                    emptied |= not ma.part
            if emptied:
                parts = [ma for ma in parts if ma.part]
            claimed = MetaAssignment(
                anchor=cluster,
                part=set(cluster.members),
                part_scale=cluster.scale_exp,
            )
            parts.append(claimed)
            owner.update(dict.fromkeys(cluster.members, claimed))
            anchors.append(cluster)
        else:
            floor = float(alpha[witnesses].min())
            part = {
                x for x in cluster.members - owner.keys() if alpha[x] >= floor - tau
            }
            if part:
                donated = MetaAssignment(
                    anchor=blocker,
                    part=part,
                    part_scale=cluster.scale_exp,
                )
                parts.append(donated)
                owner.update(dict.fromkeys(part, donated))

    missing = inst.n_prime - len(owner)
    if missing > 0:
        if overflow is None:
            raise RuntimeError(
                f"{missing} points short of n' and no overflow cluster to draw from"
            )
        pool = sorted(overflow.members - owner.keys())
        if len(pool) < missing:
            raise RuntimeError(
                f"{missing} points short of n' but only {len(pool)} available"
            )
        parts.append(
            MetaAssignment(
                anchor=overflow,
                part=set(pool[:missing]),
                part_scale=overflow.scale_exp,
                anchor_is_overflow=True,
            )
        )
    return parts


def check_assignments(
    inst: Instance, assignments: list[MetaAssignment], alpha: np.ndarray
) -> None:
    """Check the guarantees of the resolution step; the first failure raises
    ``RuntimeError``.

    In one pass over the parts: parts are pairwise disjoint, no part's scale
    exceeds its anchor's, and every assigned point retains at least a 1/9
    fraction (1/3 with a true metric, where the triangle inequality is not
    squared away) of its scaled connection cost to the anchor's center in
    its dual value.  Then the parts must cover exactly n' points.
    """
    factor = 3.0 if inst.mode is DistanceMode.EXPLICIT_METRIC else 9.0
    dmat = inst.distances()
    tau = resolution_tolerance(inst, alpha)
    seen: set[int] = set()
    for ma in assignments:
        if ma.part & seen:
            raise RuntimeError(f"parts overlap on {sorted(ma.part & seen)}")
        seen |= ma.part
        if ma.part_scale > ma.anchor.scale_exp:
            raise RuntimeError(
                f"part scale {ma.part_scale} exceeds anchor scale {ma.anchor.scale_exp}"
            )
        idx = sorted(ma.part)
        need = float(inst.base**ma.part_scale) * dmat[idx, ma.anchor.center] / factor
        bad = np.flatnonzero(alpha[idx] < need - tau)
        if bad.size:
            x = idx[bad[0]]
            raise RuntimeError(
                f"point {x} holds alpha {alpha[x]:.6g} "
                f"< connection share {need[bad[0]]:.6g}"
            )
    if len(seen) != inst.n_prime:
        raise RuntimeError(f"assigned {len(seen)} points, expected {inst.n_prime}")
