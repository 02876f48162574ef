"""Distance models, exact min-sum cluster costs, power-of-b scale arithmetic,
and the numeric tolerances of the whole package.

Everything here is a pure function over an immutable :class:`Instance`; the
distance matrix is computed once and cached, so repeated calls are cheap and
safe to issue from multiple threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# ---------------------------------------------------------------- tolerances
# Every numeric tolerance of the package is decided in this block.
#
# Two derived floats agree when they differ by at most REL_TOL times the
# largest magnitude in the comparison.  A float bound compared with an
# integer count, or rounded to one, gets the absolute slack REL_TOL.
REL_TOL = 1e-9
# Checks on explicit distance matrices from outside the program (symmetry,
# zero diagonal, sign, triangle inequality), relative to the largest entry.
MATRIX_REL_TOL = 1e-6
# Unit roundoff of float64: one rounded operation moves a value by at most
# this fraction of it.  A float bound that must dominate another float sum of
# the same terms is widened by the sums' rounding in units of it.
UNIT_ROUNDOFF = 2.0**-53


def tightness_tolerance(inst: Instance, lam: float) -> float:
    """Absolute slack below which a dual constraint counts as tight.

    REL_TOL of the largest right-hand side one constraint can have (lam plus
    n points at the largest scaled distance), so event ordering stays stable
    across instance magnitudes.
    """
    return REL_TOL * (lam + _largest_scaled_distance(inst, inst.n))


def resolution_tolerance(inst: Instance, alpha: np.ndarray) -> float:
    """Absolute slack of conflict resolution's comparisons of duals against
    scaled distances: REL_TOL of the largest value either side can take."""
    return REL_TOL * (float(alpha.max(initial=0.0)) + _largest_scaled_distance(inst))


def _largest_scaled_distance(inst: Instance, copies: int = 1) -> float:
    """``copies`` times the largest distance scaled by base**top_exp; the
    integer product is formed first."""
    return copies * inst.base**inst.top_exp * inst.max_distance()


class DistanceMode(str, Enum):
    """How pairwise distances are defined for an instance."""

    SQEUCLIDEAN = "sqeuclid"
    EXPLICIT_METRIC = "metric"


class InstanceError(ValueError):
    """Raised for malformed instances: bad matrices, bad parameters."""


@dataclass
class Instance:
    """A clustering instance: a point set plus the targets k, n' and epsilon.

    Exactly one of ``points`` (squared-Euclidean mode) or ``dist_matrix``
    (explicit-metric mode) must be given.  Explicit matrices are validated at
    construction: finite, symmetric, zero diagonal, nonnegative, and triangle
    inequality within relative ``MATRIX_REL_TOL``.  Points are checked when
    their distances are first computed: a squared distance that overflows
    a float is rejected.

    ``k`` and ``n_prime`` must be integers.  Treat instances as immutable
    after construction.  ``base``, the scale base of epsilon, and
    ``top_exp``, the largest j with base**j <= n, are derived once here; an
    epsilon so small that the cost constant of its base is not a finite
    float is rejected.
    """

    mode: DistanceMode
    k: int
    n_prime: int
    epsilon: float
    points: np.ndarray | None = None
    dist_matrix: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    base: int = field(init=False, repr=False, compare=False)
    top_exp: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.mode = DistanceMode(self.mode)
        if self.mode is DistanceMode.SQEUCLIDEAN:
            if self.points is None or self.dist_matrix is not None:
                raise InstanceError("sqeuclid mode takes points and no matrix")
            pts = np.asarray(self.points, dtype=float)
            if pts.ndim == 1:
                pts = pts.reshape(-1, 1)
            if pts.ndim != 2 or pts.shape[0] < 1:
                raise InstanceError("points must be a nonempty n x d array")
            if not np.all(np.isfinite(pts)):
                raise InstanceError("points contain non-finite values")
            self.points = pts
        else:
            if self.dist_matrix is None or self.points is not None:
                raise InstanceError("metric mode takes a matrix and no points")
            self.dist_matrix = _validated_metric(np.asarray(self.dist_matrix, dtype=float))

        try:
            self.k, self.n_prime = operator.index(self.k), operator.index(self.n_prime)
        except TypeError:
            raise InstanceError("k and n_prime must be integers") from None
        if self.k < 1:
            raise InstanceError("k must be at least 1")
        if not 1 <= self.n_prime <= self.n:
            raise InstanceError("n_prime must satisfy 1 <= n_prime <= n")
        if not 0.0 < self.epsilon <= 1.0:
            raise InstanceError("epsilon must lie in (0, 1]")
        try:
            self.base = scale_base(self.epsilon)
            finite = math.isfinite(cost_constant(self.base))
        except OverflowError:
            finite = False
        if not finite:
            raise InstanceError(
                f"epsilon {self.epsilon!r} is too small: the cost constant of its "
                "scale base does not fit a finite float"
            )
        self.top_exp = scale_exponent(self.base, self.n)

    @property
    def n(self) -> int:
        if self.points is not None:
            return self.points.shape[0]
        return self.dist_matrix.shape[0]

    def distances(self) -> np.ndarray:
        """Full n x n pairwise distance matrix (cached).  Points whose
        squared distances overflow a float raise ``InstanceError`` here."""
        dmat = self._cache.get("dmat")
        if dmat is None:
            if self.mode is DistanceMode.SQEUCLIDEAN:
                with np.errstate(over="ignore"):  # an overflow is rejected below
                    diff = self.points[:, None, :] - self.points[None, :, :]
                    dmat = np.einsum("ijk,ijk->ij", diff, diff)
                if not np.isfinite(dmat).all():
                    raise InstanceError(
                        "points too far apart: a squared distance overflows a float"
                    )
                # exact symmetry and zero diagonal despite rounding
                dmat = np.maximum(dmat, dmat.T)
                np.fill_diagonal(dmat, 0.0)
            else:
                dmat = self.dist_matrix
            self._cache["dmat"] = dmat
        return dmat

    def max_distance(self) -> float:
        d = self._cache.get("maxd")
        if d is None:
            d = float(self.distances().max()) if self.n > 1 else 0.0
            self._cache["maxd"] = d
        return d


def _validated_metric(mat: np.ndarray) -> np.ndarray:
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise InstanceError("distance matrix must be square and nonempty")
    if not np.all(np.isfinite(mat)):
        raise InstanceError("distance matrix contains non-finite values")
    tol = MATRIX_REL_TOL * float(np.abs(mat).max())
    if np.abs(mat - mat.T).max() > tol:
        raise InstanceError("distance matrix is not symmetric")
    if np.abs(np.diagonal(mat)).max() > tol:
        raise InstanceError("distance matrix has a nonzero diagonal")
    if mat.min() < -tol:
        raise InstanceError("distance matrix has negative entries")
    mat = np.maximum((mat + mat.T) / 2.0, 0.0)
    np.fill_diagonal(mat, 0.0)
    n = mat.shape[0]
    for j in range(n):
        # d(i, l) <= d(i, j) + d(j, l) for all i, l
        if (mat - (mat[:, j][:, None] + mat[j, :][None, :])).max() > tol:
            raise InstanceError("distance matrix violates the triangle inequality")
    return mat


@dataclass
class ScaledCluster:
    """A candidate cluster carrying its frozen scale bookkeeping.

    ``scale_exp`` is the exponent j = scale_exponent(base, |members|)
    recorded when the cluster first became tight; it is deliberately never
    recomputed when members are added later.  ``center`` is a point index and
    need not remain a member once downstream phases reassign points.
    """

    members: set[int]
    scale_exp: int
    center: int
    created: int = 0


def cluster_cost(inst: Instance, members) -> float:
    """Exact min-sum cost of a cluster: half the sum over ordered pairs."""
    idx = _member_index(inst, members)
    sub = inst.distances()[np.ix_(idx, idx)]
    return float(sub.sum() / 2.0)


def scale_base(epsilon: float) -> int:
    """Integer scale base: at least 2 and at least (1 + eps) / eps."""
    return max(2, math.ceil((1.0 + epsilon) / epsilon - REL_TOL))


def cost_constant(base: int) -> float:
    """Per-cluster cost constant of the primal-dual guarantee."""
    return 18.0 * base**3 / (base - 1)


def scale_exponent(base: int, m: int) -> int:
    """Largest j with base**j <= m, found by integer multiplication."""
    if base < 2:
        raise ValueError("base must be at least 2")
    if m < 1:
        raise ValueError("m must be positive")
    j = 0
    p = 1
    while p * base <= m:
        p *= base
        j += 1
    return j


def _member_index(inst: Instance, members) -> np.ndarray:
    idx = np.fromiter(members, dtype=np.intp)
    if idx.size == 0:
        raise ValueError("cluster must be nonempty")
    idx.sort()
    if idx[0] < 0 or idx[-1] >= inst.n:
        raise IndexError("point index out of range")
    return idx
