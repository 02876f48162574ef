"""Final cluster assembly from meta-assignments.

Each anchor's parts are bucketed by scale.  Parts within two scale steps of
the anchor's own scale are merged and split into clusters of roughly
base**(2+p) points; lower scales open clusters only when they can fill one,
otherwise their points are discarded as outliers.  The capacity rule keeps
every opened cluster affordable from the dual values of its members.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .conflicts import MetaAssignment


@dataclass
class AssembledCluster:
    points: set[int]
    scale_exp: int
    from_top_bucket: bool
    anchor_is_overflow: bool


@dataclass
class AssembledClustering:
    """Phase-3 output: final clusters, discarded points, and per discard the
    anchor's creation index, the bucket's scale and the points."""

    clusters: list[AssembledCluster]
    discarded: set[int]
    discard_events: list[tuple[int, int, frozenset[int]]] = field(default_factory=list)


def partition_evenly(members, m: int) -> list[set[int]]:
    """Split a point set into m parts whose sizes differ by at most one.

    Filled deterministically in ascending index order; the first |S| mod m
    parts receive the extra point.
    """
    items = sorted(members)
    if m < 1:
        raise ValueError("m must be at least 1")
    if m > len(items):
        raise ValueError("cannot partition into more parts than points")
    base_size, extra = divmod(len(items), m)
    out = []
    pos = 0
    for i in range(m):
        size = base_size + (1 if i < extra else 0)
        out.append(set(items[pos : pos + size]))
        pos += size
    return out


def run_phase3(assignments: list[MetaAssignment], base: int) -> AssembledClustering:
    """Open clusters per anchor according to the scale capacity rule."""
    groups: dict[int, list[MetaAssignment]] = {}
    for ma in assignments:
        groups.setdefault(ma.anchor.created, []).append(ma)

    clusters: list[AssembledCluster] = []
    discarded: set[int] = set()
    discard_events: list[tuple[int, int, frozenset[int]]] = []

    for key, group in sorted(groups.items()):
        p = group[0].anchor.scale_exp
        top: set[int] = set()
        low: dict[int, set[int]] = {}
        for ma in group:
            if ma.part_scale >= p - 2:
                top |= ma.part
            else:
                low.setdefault(ma.part_scale, set()).update(ma.part)

        # The top bucket always opens at least one cluster; a low bucket
        # that cannot fill one is discarded.
        buckets = [(p, top, True)] if top else []
        buckets += [(scale, low[scale], False) for scale in sorted(low)]
        for scale, bucket, from_top in buckets:
            opened = len(bucket) // base ** (2 + scale)
            if from_top:
                opened = max(1, opened)
            if opened == 0:
                discarded |= bucket
                discard_events.append((key, scale, frozenset(bucket)))
                continue
            for piece in partition_evenly(bucket, opened):
                clusters.append(
                    AssembledCluster(piece, scale, from_top, group[0].anchor_is_overflow)
                )

    return AssembledClustering(clusters, discarded, discard_events)


def check_size_windows(assembled: AssembledClustering, base: int, n_prime: int) -> None:
    """Check the cluster-size and discard guarantees of the assembly step;
    the first failure raises ``RuntimeError``.

    Top-bucket clusters hold at most 2 * base**(2+p) points and, unless the
    anchor is the overflow cluster, at least base**p.  Low-scale clusters
    hold between base**(2+p') and 2 * base**(2+p') points, and a bucket that
    opens none discards fewer than base**(2+p').  Total discards stay below
    n' / (base - 1).
    """
    for i, c in enumerate(assembled.clusters):
        size = len(c.points)
        if c.from_top_bucket:
            cap = 2 * base ** (2 + c.scale_exp)
            if size > cap:
                raise RuntimeError(f"cluster {i} has {size} points, cap {cap}")
            if not c.anchor_is_overflow and size < base**c.scale_exp:
                raise RuntimeError(
                    f"cluster {i} has {size} points, floor {base ** c.scale_exp}"
                )
        else:
            capacity = base ** (2 + c.scale_exp)
            if not capacity <= size < 2 * capacity:
                raise RuntimeError(
                    f"cluster {i} has {size} points outside [{capacity}, {2 * capacity})"
                )
    for key, scale, points in assembled.discard_events:
        if len(points) >= base ** (2 + scale):
            raise RuntimeError(
                f"anchor {key} discarded {len(points)} points at scale {scale}, "
                f"enough to open a cluster"
            )
    bound = n_prime / (base - 1)
    if len(assembled.discarded) >= bound:
        raise RuntimeError(
            f"discarded {len(assembled.discarded)} points, bound {bound:.3f}"
        )
    clustered = sum(len(c.points) for c in assembled.clusters)
    if not clustered <= n_prime:
        raise RuntimeError(f"clustered {clustered} points, more than n' = {n_prime}")
    if clustered < n_prime - len(assembled.discarded):
        raise RuntimeError("clustered plus discarded points do not cover the assignment")
