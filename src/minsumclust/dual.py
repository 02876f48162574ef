"""Uniform dual ascent with tight-constraint detection.

The dual program has one variable per point and one constraint per
(cluster, reference point) pair, so constraints are never enumerated
directly.  For a reference point y and scale exponent j, the only sets that
can go tight are built from the candidate list C(y, j) = {x : alpha_x >=
base**j * d(x, y)} sorted by decreasing slack margin; scanning the (y, j)
grid therefore detects tightness exactly.

The ascent itself is event driven: all active duals rise at unit rate until
either an active point can afford to join an existing candidate cluster
(computed exactly from the join arrays ``DualState`` keeps) or some
constraint goes tight (located by bisection on the uniform increment).
When ``next_event`` returns a join at increment 0, ``run_phase1`` takes
every join that is ready then at once, lowest point first, in the order
``next_event`` would return them one per call.  The
value scan ``_pair_scan`` reads a pair's sorted margin values and returns
its best margin sum and that sum's slope in the increment.  Whether a pair
fires is nondecreasing in the increment, bit for bit, so the bisection
scans only the midpoints that no earlier scan of the pair already decides;
Newton steps down the margin-sum line and one scan at the grid point next
to where they end usually leave none.  ``next_event`` returns the pause and
what happens there: a ``JoinExisting``, or the new tight set as a
``ScaledCluster``, which ``_tight_set`` builds once, for the winning pair at
the returned increment, from the same floats the scan read.  Before any
exact scan, each (y, j) pair has a floor T(y, j) on the largest raised dual
at which it can fire, at any duals: a few array operations per exponent,
over sorted-row terms the instance caches and lowered for rounding,
compute it once per ascent.  Every event keeps only pairs whose T is at
most the largest raised dual at the probe, and times a kept pair only while
its T is at most the largest dual that the running best raises to: one
array search per new running best finds the pairs left to time.  In an
ascent's opening state (every dual zero, every point active) that is the
whole selection, and there T is the pair's fire time up to rounding, so it
seeds the pair's search: the bisection's path to T is predicted, and one
scan at its top usually confirms it.  Later events also screen the rows T
keeps, vectorized, and drop a pair whose margin bound falls short of
lam - tau, whose C(y, j) holds fewer than base**j points, or whose y is
inactive while C(y, j) holds no active point.  While no raised dual exceeds
the last event's and no point has become active, the screen only refilters
the pairs that event kept.  Floors and screens only rule pairs out; the
exact, sorted scan decides every pair they keep.

At lam = 0 every event comes at increment 0 and every candidate list holds
only coincident points, so ``run_phase1`` builds that ascent's state
directly, without events, wherever distance 0 is transitive.  The check
after every ascent, ``worst_slack``, also ranks first only the pairs the
floors keep at the largest dual.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .geometry import UNIT_ROUNDOFF, Instance, ScaledCluster, tightness_tolerance

# Bisection for event times stops when the bracket shrinks below this
# fraction of its initial width.
EVENT_TIME_REL_TOL = 1e-12
# Newton steps that seed an event-time bisection's bracket.  The cap bounds
# the steps' scans on coincident points, where the tie-inclusive slope makes
# the steps short: uncapped, a pair there took up to 90 steps.  Pairs of
# spread points rarely use all 4.
NEWTON_STEPS = 4


@dataclass
class Screen:
    """One event's raised duals at its probe, its active set, and the mask of
    the (y, exp) pairs it kept, ``kept[y, exp]``: pairs whose floor T is at
    most the event's largest raised dual and, after the opening event, that
    its screen passed.  No pair outside it can fire while no raised dual is
    higher and no point has become active."""

    alpha: np.ndarray
    active: np.ndarray
    kept: np.ndarray


@dataclass
class DualState:
    """Mutable state of one dual-ascent run, and its result.

    Without ``alpha`` and ``active`` the state is the start of an ascent:
    every dual zero and every point active.  All active points carry the
    identical current dual value (they rise at a uniform rate from zero);
    inactive values are frozen where they stopped.  ``tau`` is the tightness
    tolerance of (inst, lam).  ``clusters`` lists the candidate clusters added
    so far; a cluster's number, ``created``, is its position there.
    ``overflow`` is the tight set ``run_phase1`` withheld because deactivating
    it would push the clustered count past the n' budget, numbered as if it
    were the next cluster; None when no set was withheld.  The join arrays
    hold, per point, the cheapest scaled connection to any candidate cluster
    and that cluster's number (-1 for none); ties keep the earliest cluster.
    ``last_screen`` is what the last ``next_event`` saw and kept; a copy made
    with ``dataclasses.replace`` starts without it, its clusters and overflow.
    ``fire_floors`` holds the pairs' floors T, which depend on (inst, lam)
    only.  The state holds no scaled distances: each read forms base**j * d
    for the entries it needs, through ``scaled_dists``.
    """

    inst: Instance
    lam: float
    alpha: np.ndarray | None = None
    active: np.ndarray | None = None
    tau: float = field(init=False, repr=False)
    clusters: list[ScaledCluster] = field(init=False, default_factory=list, repr=False)
    overflow: ScaledCluster | None = field(init=False, default=None, repr=False)
    join_threshold: np.ndarray = field(init=False, repr=False)
    join_cluster: np.ndarray = field(init=False, repr=False)
    _floors: np.ndarray | None = field(init=False, default=None, repr=False)
    last_screen: Screen | None = field(init=False, default=None, repr=False)

    def __post_init__(self) -> None:
        n = self.inst.n
        self.lam = float(self.lam)
        if self.alpha is None:
            self.alpha = np.zeros(n)
        if self.active is None:
            self.active = np.ones(n, dtype=bool)
        self.tau = tightness_tolerance(self.inst, self.lam)
        self.join_threshold = np.full(n, np.inf)
        self.join_cluster = np.full(n, -1, dtype=int)

    def scaled_dists(self, exp: int, index) -> np.ndarray:
        """base**exp times the entries ``index`` picks from the distance
        matrix, built per call for those entries only: a row, the rows of a
        mask, or (rows, column)."""
        return float(self.inst.base**exp) * self.inst.distances()[index]

    def fire_floors(self) -> np.ndarray:
        """``_opening_times`` of (inst, lam), computed on first use: per
        (y, exp), a floor on the largest raised dual at which the pair can
        fire, at any duals."""
        if self._floors is None:
            self._floors = _opening_times(self)
        return self._floors

    def raised_alpha(self, shift: float) -> np.ndarray:
        """Dual values after raising every active point by ``shift``."""
        if shift == 0.0:
            return self.alpha
        return self.alpha + shift * self.active

    def add_cluster(self, cluster: ScaledCluster) -> None:
        """Number ``cluster``, add it and freeze its members; other points
        join it once they pay its frozen center and scale."""
        cluster.created = len(self.clusters)
        self.clusters.append(cluster)
        self.active[list(cluster.members)] = False
        vals = self.scaled_dists(cluster.scale_exp, cluster.center)
        better = vals < self.join_threshold
        self.join_threshold[better] = vals[better]
        self.join_cluster[better] = cluster.created


@dataclass
class JoinExisting:
    """``point`` joins ``state.clusters[cluster]``."""

    point: int
    cluster: int


def _admission(
    state: DualState, y: int, exp: int, require_active: bool, shift: float
) -> tuple[np.ndarray, list[int], int] | None:
    """The admission rules of the (y, exp) family, shared by the value scan
    and the tight-set builder.

    Returns (margins, forced, size_hi): the row's margins at the shift (a
    new array), the points every admissible set starts with, and the largest
    admissible size.  ``forced`` is y itself, member or not, then, when an
    active point is required and y is inactive, the active member of largest
    margin (smallest index among ties).  A set is admissible when its size s
    satisfies base**exp <= s < base**(exp + 1).  Returns None when no
    admissible set exists at all.
    """
    base = state.inst.base
    margins = state.raised_alpha(shift) - state.scaled_dists(exp, y)
    count = np.count_nonzero(margins >= 0.0)
    if count < base**exp:
        return None
    forced = [y]
    if require_active and not state.active[y]:
        active_margins = np.where(state.active, margins, -np.inf)
        first = int(np.argmax(active_margins))
        if not active_margins[first] >= 0.0:
            return None
        forced.append(first)
    size_hi = min(count, base ** (exp + 1) - 1)
    if size_hi < len(forced):
        return None
    return margins, forced, size_hi


def _pair_scan(
    state: DualState, y: int, exp: int, require_active: bool, shift: float
) -> tuple[float, int] | None:
    """The line of the (y, exp) family's best admissible set at the shift:
    its margin sum and the number of active points in it, or None when no
    admissible set exists.

    The best set is the forced points followed by the largest other
    candidate margins, up to the largest admissible size.  Only margin values
    enter the sum, and tied values are interchangeable, so sorting the values
    suffices.  The sum runs left to right in that order, as the prefix sums
    of ``_tight_set`` do, so both read the same floats.  Each active point in
    the set adds one to the sum's slope in the shift; an active point tied
    with the smallest summed margin counts too, so the slope never falls
    short.
    """
    admitted = _admission(state, y, exp, require_active, shift)
    if admitted is None:
        return None
    margins, forced, size_hi = admitted
    values = []
    for x in forced:
        values.append(float(margins[x]))
        margins[x] = np.inf  # out of the rest: it sorts last
    ordered = np.sort(margins)
    values += ordered[ordered.size - size_hi : ordered.size - len(forced)][::-1].tolist()
    total = values[0]
    for value in values[1:]:
        total += value  # left to right like np.cumsum; np.sum adds pairwise
    slope = np.count_nonzero((margins >= ordered[ordered.size - size_hi]) & state.active)
    return total, int(slope)


def _tight_set(state: DualState, y: int, exp: int, shift: float) -> list[int]:
    """The shortest admissible prefix of (y, exp) whose margin sum reaches
    lam - tau at the given shift, at which the pair must fire.

    The prefix is the forced points, then the other candidates by decreasing
    margin, ties broken by point index.
    """
    margins, forced, _ = _admission(state, y, exp, True, shift)
    candidates = margins >= 0.0
    candidates[forced] = False
    rest = np.flatnonzero(candidates)
    # rest ascends, so the stable sort breaks margin ties by point index
    ordered = np.concatenate([forced, rest[np.argsort(-margins[rest], kind="stable")]])
    sums = np.cumsum(margins[ordered])
    first = int(np.searchsorted(sums, state.lam - state.tau, side="left")) + 1
    return ordered[: max(first, state.inst.base**exp, len(forced))].tolist()


def _margin_bounds(
    state: DualState, shift: float, kept: np.ndarray
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Per scale exponent whose column of ``kept``, a (y, exp) mask, holds a
    row, in order: the exponent, the candidate-list mask of each row it
    holds, ascending, and an upper bound on each such row's best margin sum,
    at the given shift.

    ``in_list[y, x]`` says x is in C(y, exp), that is its margin is
    nonnegative.  The bound sums the largest m = min(cap, n) nonnegative
    margins in the row, cap the largest admissible size (ignoring the forcing
    rules), taken from the row sorted ascending and summed in whatever order
    numpy sums, and widens that float by 1 + 2 m u, u the unit roundoff, so
    it dominates the exact scan's float at this shift.  The rounding argument:
    in the program's domain alpha >= 0, y's own margin is alpha_y, so every
    term ``_pair_scan`` adds is a nonnegative margin of the row, and its at
    most m terms sum to no more than the bound's m largest, in reals.  Any
    order of summing m nonnegative floats, the scan's and the bound's alike,
    is within a factor 1 +- g of the real sum, g = (m - 1) u /
    (1 - (m - 1) u), so the exact scan's float is
    at most (1 + g) / (1 - g) = 1 / (1 - 2 (m - 1) u) times the bound's
    unwidened float; the widening, with its own rounding, exceeds that while
    4 m**2 u < 1.  A row with fewer than base**exp candidates admits no set
    at all and gets the bound -inf; ``_pair_scan`` reads the same floats and
    returns None for it.
    """
    alpha = state.raised_alpha(shift)
    n = alpha.size
    for exp in np.flatnonzero(kept.any(axis=0)).tolist():
        margins = alpha[None, :] - state.scaled_dists(exp, kept[:, exp])
        in_list = margins >= 0.0
        pos = np.maximum(margins, 0.0, out=margins)
        cap = state.inst.base ** (exp + 1) - 1
        if cap >= n:
            bound = pos.sum(axis=1)
        else:
            bound = np.sort(pos, axis=1)[:, n - cap :].sum(axis=1)
        bound *= 1.0 + 2 * min(cap, n) * UNIT_ROUNDOFF
        bound[in_list.sum(axis=1) < state.inst.base**exp] = -np.inf
        yield exp, in_list, bound


def _screen(state: DualState, shift: float) -> np.ndarray:
    """The mask of the (y, exp) pairs that may fire by the given shift.

    A pair passes when its margin bound reaches lam - tau, its candidate list
    holds at least base**exp points, and, if y is inactive, the list holds an
    active point.  Margins only fall as the shift drops, so a rejected pair
    has no qualifying prefix at any smaller shift either.  Passing is
    necessary, not sufficient: a passed pair may fire only after another
    pair does, or not at all.

    Only the rows whose floor T (``DualState.fire_floors``) is at most L,
    the largest raised dual at the shift, are computed: no other pair can
    fire there (``_opening_times``).  When, moreover, no raised dual is
    higher than at the state's ``last_screen`` and no point has become
    active since, every margin is no larger and every candidate list no
    longer, so no pair outside that event's kept mask can fire: only the
    rows in both are computed.
    """
    threshold = state.lam - state.tau
    alpha = state.raised_alpha(shift)
    rows = state.fire_floors() <= alpha.max()
    last = state.last_screen
    if (last is not None and (alpha <= last.alpha).all()
            and not (state.active & ~last.active).any()):
        rows &= last.kept
    passed = np.zeros_like(rows)
    for exp, in_list, bound in _margin_bounds(state, shift, rows):
        ys = rows[:, exp]
        reaches_active = in_list @ state.active  # a bool matmul: any over the row
        # written through the column's view: a mixed (mask, int) index costs more
        passed[:, exp][ys] = (bound >= threshold) & (state.active[ys] | reaches_active)
    return passed


def worst_slack(state: DualState) -> float:
    """Exact maximum of (margin sum - lam) over the scan family.

    Nonpositive values mean every dual constraint holds; values above the
    tightness tolerance mean a genuine violation.  The pairs whose floor T
    (``DualState.fire_floors``) is at most the largest dual are ranked
    first.  In the program's domain alpha >= 0, T bounds every admissible
    set of the family, y's own margin alpha_y included, so a pair with a
    higher floor sums to less than lam - tau; once the maximum over the
    kept pairs reaches lam - tau it is the maximum over all of them, bit
    for bit.  Otherwise every pair is ranked.
    """
    kept = state.fire_floors() <= state.alpha.max()
    best = _ranked_maximum(state, kept)
    if best < state.lam - state.tau:
        best = _ranked_maximum(state, np.ones_like(kept))
    return best - state.lam


def _ranked_maximum(state: DualState, rows: np.ndarray) -> float:
    """Exact maximum of the value scan (no active member required, shift 0)
    over the pairs in the (y, exp) mask ``rows``, or -inf when none is
    admissible.  The margin bounds of those rows are refined in decreasing
    order until the running maximum is certified."""
    bounds = np.full(rows.shape, -np.inf)
    for exp, _, bound in _margin_bounds(state, 0.0, rows):
        bounds[:, exp][rows[:, exp]] = bound
    ys, exps = np.nonzero(bounds > -np.inf)
    flat_bound = bounds[ys, exps]
    best = -np.inf
    for pos in np.lexsort((exps, ys, -flat_bound)):
        if flat_bound[pos] <= best:
            break
        exact = _pair_scan(state, int(ys[pos]), int(exps[pos]), False, 0.0)
        if exact is not None and exact[0] > best:
            best = exact[0]
    return best


def _opening_times(state: DualState) -> np.ndarray:
    """Per (y, exp), a lower bound T on L, the largest raised dual at which
    the pair can fire, at any duals.  In the opening state (every dual zero,
    every point active) L is the increment, so T bounds the fire time.

    Let S_1 <= S_2 <= ... be the scaled distances of row y, sorted, and
    P_M = S_1 + ... + S_M.  A scan that fires sums the margins of M points,
    base**exp <= M <= min(cap, n), cap = base**(exp + 1) - 1.  In the
    program's domain alpha >= 0 every summed margin alpha_x - d_x is
    nonnegative, so d_x <= alpha_x <= L, and the M distances d_x are
    distinct entries of the row: S_M <= L, and the margin sum is at most
    M L - P_M, which must reach thr = lam - tau.  So the pair cannot fire
    while L < T = min over M of max(S_M, (thr + P_M) / M).  At thr <= 0
    every admissible set reaches thr, and T is S_M at M = base**exp exactly.
    The rows are the instance's sorted distances, scaled like
    ``scaled_dists`` (one float multiply by base**exp), so S holds the same
    floats.  Every term but thr is the instance's (``Instance.floor_terms``,
    computed once per instance), so each lam costs a few array operations
    per exponent.  T depends on
    (inst, lam) only; ``DualState.fire_floors`` keeps it for the whole
    ascent.

    For thr > 0 the float thr / M + P_M / M is lowered by the factor
    1 - 2 m u, m = M + 2, u the unit roundoff, so that T stays at or below
    the smallest float L at which ``_pair_scan`` fires.  The rounding
    argument, as in ``_margin_bounds``: each of the M margins, at most
    L - d_x in reals, rounds up by at most a factor 1 + u, and the
    left-to-right sum of M nonnegative floats by at most 1 + g(M - 1),
    g(j) = j u / (1 - j u); so a firing float sum puts M L at or above
    (thr + P_M) / (1 + g(M)).  The prefix sum P_M, a cumsum of nonnegative
    floats, exceeds its real value by at most the same factor, and
    thr / M + P_M / M adds two roundings, so L >= q / (1 + g(M + 2)) for the
    float quotient q.  The lowered float, with its own rounding, is at most
    q (1 - (M + 3) u), which is 1 / (1 + g(M + 3)) of q.

    In the opening state T is the fire time up to that lowering: there the
    best set of M points sums M L - P_M in reals once L >= S_M, so the pair
    fires at the real min over M of max(S_M, (thr + P_M) / M), and at
    thr <= 0 exactly at T.  ``_fire_time`` starts from it.
    """
    threshold = state.lam - state.tau
    terms = state.inst.floor_terms()
    times = np.empty((state.inst.n, len(terms)))
    for exp, (sizes, dists, means, lowering) in enumerate(terms):
        if threshold <= 0.0:
            times[:, exp] = dists[:, 0]
        else:
            times[:, exp] = np.maximum(dists, (threshold / sizes + means) * lowering).min(axis=1)
    return times


def _fire_time(
    state: DualState, y: int, exp: int, hi: float, floor: float = 0.0
) -> float | None:
    """Smallest uniform increment in [0, hi] at which (y, exp) fires, on the
    bisection grid, or None when the pair does not fire by ``hi``.

    Whether the pair fires is nondecreasing in the increment, bit for bit:
    every margin is a rounded sum that grows with it, and the scan adds
    order statistics of them left to right, its extra terms nonnegative.  So
    every scan narrows a bracket, the largest increment seen not firing and
    the smallest seen firing, and the bisection takes each midpoint outside
    it as answered.

    ``floor`` is an increment below which the pair does not fire; the
    caller passes the pair's T in an ascent's opening state, where T is the
    fire time up to rounding (``_opening_times``).  When 0 < floor <= hi the
    bisection's path is predicted as if the pair first fired at the floor
    (``_bisection_path``, one plain loop over the midpoints, no scan).
    Its bottom lies below the floor and does not fire, so one scan at its
    top, when it fires, confirms the path and returns that grid point.

    Without a floor, or when that scan does not fire, the scan at ``hi``
    comes next, so a pair that does not fire by then costs one scan more.
    If it fires, Newton steps down the pair's margin-sum line seed the
    bracket: the sum is convex and piecewise linear in the increment, so the
    steps approach its root from above, and a step that a scan shows not
    firing (the size floor or a rounding) bounds the bracket from below
    instead.  The bisection's path, on the same grid as
    ever, is then predicted the same way, as if the pair first fired where
    the steps ended; one scan at the path's end next to that shift usually
    confirms it.  Otherwise the bisection runs, scanning what the bracket
    leaves open.  The caller builds the tight set of the pair that wins, at the
    returned increment.
    """
    threshold = state.lam - state.tau
    tol = EVENT_TIME_REL_TOL * hi
    no, yes = -np.inf, np.inf  # the bracket

    def scan(shift: float) -> tuple[float, int] | None:
        """The pair's line at the shift if it fires there, else None."""
        nonlocal no, yes
        line = _pair_scan(state, y, exp, True, shift)
        if line is None or line[0] < threshold:
            no = shift
            return None
        yes = shift
        return line

    def fires(shift: float) -> bool:
        if shift <= no:
            return False
        return shift >= yes or scan(shift) is not None

    if 0.0 < floor <= hi:
        # the path's bottom, below the floor, does not fire: no scan needed
        top = _bisection_path(hi, tol, floor)[1]
        if scan(top) is not None:
            return top
    shift, line = hi, scan(hi)
    if line is None:
        return None
    for _ in range(NEWTON_STEPS):
        value, slope = line
        if slope == 0:
            break
        step = max(shift - (value - threshold) / slope, 0.0)
        if shift - step <= tol:
            break
        shift, line = step, scan(step)
        if line is None:
            break
    # the bisection's path if the pair first fired where the steps ended (at
    # yes, or at the float above no); it is the true path when the pair fires
    # at its top and not at its bottom
    first = yes if line is not None else float(np.nextafter(no, np.inf))
    lo, top = _bisection_path(hi, tol, first)
    if not fires(lo) and fires(top):
        return top
    if hi > 0.0 and fires(0.0):
        return 0.0
    lo, top = 0.0, hi
    while top - lo > tol:
        mid = (lo + top) / 2.0
        if fires(mid):
            top = mid
        else:
            lo = mid
    return top


def _bisection_path(hi: float, tol: float, first: float) -> tuple[float, float]:
    """The bracket (lo, top) that ``_fire_time``'s bisection on [0, hi] ends
    with when the pair fires exactly at the increments from ``first`` up:
    the same midpoints, each answered without a scan."""
    lo, top = 0.0, hi
    while top - lo > tol:
        mid = (lo + top) / 2.0
        if mid >= first:
            top = mid
        else:
            lo = mid
    return lo, top


def next_event(state: DualState) -> tuple[float, JoinExisting | ScaledCluster]:
    """Locate the next pause point of the uniform ascent.

    Returns (increment, event): an active point joining a cluster added with
    ``add_cluster``, or a new tight set.  Join events win ties; among joins
    the smallest point index wins, among tight constraints the scan order
    does.
    """
    if not state.active.any():
        raise RuntimeError("no active points")
    ready = _ready_joins(state)
    if ready.size:
        x = int(ready[0])
        return 0.0, JoinExisting(x, int(state.join_cluster[x]))
    current = float(state.alpha[state.active].max())
    # every gap is positive now; a point without a cluster has threshold inf
    gaps = np.where(state.active, state.join_threshold - state.alpha, np.inf)
    x = int(np.argmin(gaps))
    join_t = float(gaps[x])
    join = JoinExisting(x, int(state.join_cluster[x])) if join_t < np.inf else None

    # Some active singleton constraint fires once its dual reaches lam, so
    # the next tight time is at most max(0, lam - current).
    probe = min(join_t, max(0.0, state.lam - current))
    # Per pair a floor on the largest raised dual at which it can fire.  In
    # the opening state that dual is the increment: the floors select alone
    # and seed each pair's search.  Later events screen the rows they keep.
    floors = state.fire_floors()
    opening = state.active.all() and not state.alpha.any()
    kept = floors <= probe if opening else _screen(state, probe)
    state.last_screen = Screen(state.raised_alpha(probe).copy(), state.active.copy(), kept)
    top = float(state.alpha.max())
    best_t: float | None = None
    ys, exps = np.nonzero(kept)  # ascending y, then exp
    kept_floors = floors[kept]
    todo = range(ys.size)  # before the first record, every kept pair
    while todo:
        for i in todo:
            t = _fire_time(state, int(ys[i]), int(exps[i]), probe if best_t is None else best_t,
                           float(kept_floors[i]) if opening else 0.0)
            if t is not None and (best_t is None or t < best_t):
                best_t, winner = t, i
                break
        else:
            break  # no record among them
        if best_t == 0.0:
            break  # increments are nonnegative and ties keep the earlier pair
        # up to best_t no raised dual exceeds fl(top + best_t), fl monotone, so
        # only the later pairs whose floor is at most that level can do better
        todo = (np.flatnonzero(kept_floors[i + 1 :] <= top + best_t) + (i + 1)).tolist()

    if best_t is None and probe < join_t:
        raise RuntimeError("ascent found no event below its guaranteed cap")
    if join is not None and (best_t is None or join_t <= best_t):
        return join_t, join
    y, exp = int(ys[winner]), int(exps[winner])
    return best_t, ScaledCluster(set(_tight_set(state, y, exp, best_t)), exp, y)


def _ready_joins(state: DualState) -> np.ndarray:
    """The active points that join a cluster at increment 0, ascending: those
    whose join threshold is at most their dual.  ``next_event`` returns the
    first of them, and ``run_phase1`` takes them together.  A join gap
    fl(threshold - alpha) is at most 0 exactly when threshold <= alpha."""
    return np.flatnonzero(state.active & (state.join_threshold <= state.alpha))


def run_phase1(inst: Instance, lam: float) -> DualState:
    """Raise duals uniformly, emitting candidate clusters, until the number
    of active points falls to n - n', and return the state the ascent ran.

    Its ``alpha`` and ``clusters`` are the duals and candidate clusters.
    Joining points inherit the cluster's frozen scale and center.  If
    deactivating a new tight set would drop the active count strictly below
    n - n', the ascent stops and that set is the state's ``overflow``.
    ``lam`` must be finite and nonnegative; otherwise ``ValueError``.

    Each pass calls ``next_event`` once.  It returns a join at increment 0
    exactly when a join is ready (``_ready_joins``): otherwise every join
    gap is the positive difference of two distinct floats.  Then the ready
    joins are taken together, lowest point first and cut at the n - n'
    budget: the call returned the lowest of them, and a join moves no dual
    and no join threshold, so the next calls would return the next of them,
    until none is left.

    At lam = 0 the state is built without the event loop when distance 0
    is transitive (``_coincident_groups``).  Every event then comes at
    increment 0, and with every dual 0 a margin -base**j * d is
    nonnegative only at d = 0, so a candidate list holds only points
    coincident with its y.  Joins win ties, so once a cluster opens, the
    active points coincident with its center join, lowest first.  After
    that no inactive point has an active point coincident with it, so the
    first pair in scan order that fires is the singleton of the lowest
    active point, at scale 0.  So each group of coincident points, in the
    order of its lowest point, opens at that point, and the rest of the
    group joins until n - n' points are active.  alpha stays 0 and no set
    overflows.
    """
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"opening cost lambda must be finite and nonnegative, got {lam!r}")
    state = DualState(inst, lam)
    target = inst.n - inst.n_prime
    groups = _coincident_groups(inst) if lam == 0.0 else None

    if groups is not None:
        for y in np.flatnonzero(groups == np.arange(inst.n)).tolist():
            left = np.count_nonzero(state.active) - target
            if left <= 0:
                break
            state.add_cluster(ScaledCluster(set(np.flatnonzero(groups == y)[:left].tolist()), 0, y))
    else:
        while (active := np.count_nonzero(state.active)) > target:
            t, event = next_event(state)
            if t == 0.0 and isinstance(event, JoinExisting):
                # a join is ready: take them all, in the order next_event
                # would return them one per call
                ready = _ready_joins(state)[: active - target]
                for x in ready.tolist():
                    state.clusters[state.join_cluster[x]].members.add(x)
                state.active[ready] = False
                continue
            if t > 0.0:
                state.alpha[state.active] += t
            if isinstance(event, JoinExisting):
                state.clusters[event.cluster].members.add(event.point)
                state.active[event.point] = False
            elif active - np.count_nonzero(state.active[list(event.members)]) < target:
                event.created = len(state.clusters)
                state.overflow = event
                break
            else:
                state.add_cluster(event)

    _check_phase1(state)
    return state


def _coincident_groups(inst: Instance) -> np.ndarray | None:
    """Per point, the lowest point at distance exactly 0 from it, when
    distance 0 is transitive; else None.  It is not always: a metric matrix
    passes its triangle inequality within a tolerance, and squared
    distances of points can underflow to 0."""
    zero = inst.distances() == 0.0
    groups = zero.argmax(axis=1)  # the diagonal is 0
    if not (zero == (groups[:, None] == groups[None, :])).all():
        return None
    return groups


def _check_phase1(state: DualState) -> None:
    """Postconditions of the ascent; the first failure raises ``RuntimeError``.

    Active duals rise from zero by the same increments, so they are equal bit
    for bit, and no frozen dual exceeds them.  No constraint is violated
    beyond tau.  Every cluster member pays its scaled distance to the center,
    alpha_x >= base**j * d(x, center) - tau, checked in cluster order with
    members ascending on the state's own scaled distances.
    """
    if (state.alpha[state.active] != state.alpha.max()).any():
        raise RuntimeError("active duals diverged from the uniform value")
    slack = worst_slack(state)
    if slack > state.tau:
        raise RuntimeError(f"dual constraint violated by {slack:.3e} after ascent")
    for c in state.clusters:
        members = sorted(c.members)
        need = state.scaled_dists(c.scale_exp, (members, c.center))
        bad = np.flatnonzero(state.alpha[members] < need - state.tau)
        if bad.size:
            x = members[bad[0]]
            raise RuntimeError(
                f"point {x} underpays its cluster "
                f"(alpha {state.alpha[x]:.6g} < {need[bad[0]]:.6g})"
            )
