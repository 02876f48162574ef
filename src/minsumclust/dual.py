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
constraint goes tight (located by bisection on the uniform increment).  The
value scan ``_pair_scan`` reads a pair's sorted margin values and returns
its best margin sum and that sum's slope in the increment.  Whether a pair
fires is nondecreasing in the increment, bit for bit, so the bisection
scans only the midpoints that no earlier scan of the pair already decides;
Newton steps down the margin-sum line and one scan at the grid point next
to where they end usually leave none.  ``next_event`` returns the pause and
what happens there: a ``JoinExisting``, or the new tight set as a
``ScaledCluster``, which ``_tight_set`` builds once, for the winning pair at
the returned increment, from the same floats the scan read.  Before any
exact scan, a vectorized screen drops every (y, j) pair that cannot fire by
the next pause: its margin bound falls short of lam - tau, C(y, j) holds
fewer than base**j points, or y is inactive and C(y, j) holds no active
point.  While no raised dual exceeds the last screen's, the screen only
refilters that screen's pass list.  The screen only rules pairs out; the
exact, sorted scan decides every pair it passes.
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
    """One screen's raised duals and active set, and per scale exponent the
    rows that passed it, ascending."""

    alpha: np.ndarray
    active: np.ndarray
    rows: list[np.ndarray]


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
    ``last_screen`` is what ``_screen`` last saw and passed; a copy made with
    ``dataclasses.replace`` starts without it, its clusters and overflow.
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
    _scaled: dict[int, np.ndarray] = field(init=False, default_factory=dict, repr=False)
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

    def scaled_dists(self, exp: int) -> np.ndarray:
        """base**exp times the distance matrix, computed once per state."""
        mat = self._scaled.get(exp)
        if mat is None:
            mat = self._scaled[exp] = float(self.inst.base**exp) * self.inst.distances()
        return mat

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
        vals = self.scaled_dists(cluster.scale_exp)[cluster.center]
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
    margins = state.raised_alpha(shift) - state.scaled_dists(exp)[y]
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
    state: DualState, shift: float, rows: list[np.ndarray] | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per scale exponent, in order, the candidate-list mask of every row and
    an upper bound on each row's best margin sum, at the given shift.

    ``in_list[y, x]`` says x is in C(y, exp), that is its margin is
    nonnegative.  The bound sums the largest m = min(cap, n) nonnegative
    margins in the row, cap the largest admissible size (ignoring the forcing
    rules), and widens that float by 1 + 2 m u, u the unit roundoff, so it
    dominates the exact scan's float at this shift.  The rounding argument:
    in the program's domain alpha >= 0, y's own margin is alpha_y, so every
    term ``_pair_scan`` adds is a nonnegative margin of the row, and its at
    most m terms sum to no more than the bound's m largest, in reals.  Any
    order of summing m nonnegative floats is within a factor 1 +- g of the
    real sum, g = (m - 1) u / (1 - (m - 1) u), so the exact scan's float is
    at most (1 + g) / (1 - g) = 1 / (1 - 2 (m - 1) u) times the bound's
    unwidened float; the widening, with its own rounding, exceeds that while
    4 m**2 u < 1.  A row with fewer than base**exp candidates admits no set
    at all and gets the bound -inf; ``_pair_scan`` reads the same floats and
    returns None for it.  With ``rows``, one index array per exponent, only
    those rows are computed, in that order.
    """
    alpha = state.raised_alpha(shift)
    n = alpha.size
    for exp in range(state.inst.top_exp + 1):
        scaled = state.scaled_dists(exp)
        margins = alpha[None, :] - (scaled if rows is None else scaled[rows[exp]])
        in_list = margins >= 0.0
        pos = np.clip(margins, 0.0, None)
        cap = state.inst.base ** (exp + 1) - 1
        if cap >= n:
            bound = pos.sum(axis=1)
        else:
            bound = np.partition(pos, n - cap, axis=1)[:, n - cap :].sum(axis=1)
        bound *= 1.0 + 2 * min(cap, n) * UNIT_ROUNDOFF
        bound[np.count_nonzero(in_list, axis=1) < state.inst.base**exp] = -np.inf
        yield in_list, bound


def _screen(state: DualState, shift: float) -> list[tuple[int, int]]:
    """The (y, exp) pairs that may fire by the given shift, in scan order
    (ascending y, then exp).

    A pair passes when its margin bound reaches lam - tau, its candidate list
    holds at least base**exp points, and, if y is inactive, the list holds an
    active point.  Margins only fall as the shift drops, so a rejected pair
    has no qualifying prefix at any smaller shift either.  Passing is
    necessary, not sufficient: a passed pair may fire only after another
    pair does, or not at all.

    The state remembers each screen's raised duals, active set and pass
    list.  When no raised dual is higher now and no point has become active,
    every margin is no larger and every candidate list no longer, so each
    pair that passes now passed then: only the remembered rows are
    recomputed, and the narrower list is remembered.  Otherwise every row
    is.
    """
    threshold = state.lam - state.tau
    alpha = state.raised_alpha(shift)
    last = state.last_screen
    rows = None
    if (last is not None and (alpha <= last.alpha).all()
            and not (state.active & ~last.active).any()):
        rows = last.rows
    passed = []
    for exp, (in_list, bound) in enumerate(_margin_bounds(state, shift, rows)):
        ys = np.arange(state.inst.n) if rows is None else rows[exp]
        reaches_active = in_list[:, state.active].any(axis=1)
        passed.append(ys[(bound >= threshold) & (state.active[ys] | reaches_active)])
    state.last_screen = Screen(alpha.copy(), state.active.copy(), passed)
    return sorted((y, exp) for exp, ys in enumerate(passed) for y in ys.tolist())


def worst_slack(state: DualState) -> float:
    """Exact maximum of (margin sum - lam) over the scan family.

    Nonpositive values mean every dual constraint holds; values above the
    tightness tolerance mean a genuine violation.  The screen bounds are
    refined in decreasing order until the running maximum is certified.
    """
    bounds = [bound for _, bound in _margin_bounds(state, 0.0)]
    flat_bound = np.concatenate(bounds)
    n = state.inst.n
    ys = np.tile(np.arange(n), len(bounds))
    exps = np.repeat(np.arange(len(bounds)), n)
    order = np.lexsort((exps, ys, -flat_bound))
    best = -np.inf
    for pos in order:
        if flat_bound[pos] <= best:
            break
        exact = _pair_scan(state, int(ys[pos]), int(exps[pos]), False, 0.0)
        if exact is not None and exact[0] > best:
            best = exact[0]
    return best - state.lam


def _fire_time(state: DualState, y: int, exp: int, hi: float) -> float | None:
    """Smallest uniform increment in [0, hi] at which (y, exp) fires, on the
    bisection grid, or None when the pair does not fire by ``hi``.

    Whether the pair fires is nondecreasing in the increment, bit for bit:
    every margin is a rounded sum that grows with it, and the scan adds
    order statistics of them left to right, its extra terms nonnegative.  So
    every scan narrows a bracket, the largest increment seen not firing and
    the smallest seen firing, and the bisection takes each midpoint outside
    it as answered.  The scan at ``hi`` comes first, so a pair that does not
    fire by then costs one scan.  Otherwise Newton steps down the pair's
    margin-sum line seed the bracket: the sum is convex and piecewise linear
    in the increment, so the steps approach its root from above, and a step
    that a scan shows not firing (the size floor or a rounding) bounds the
    bracket from below instead.  The bisection's path, on the same grid as
    ever, is then predicted as if the pair first fired where the steps
    ended; one scan at the path's end next to that shift usually confirms
    it.  Otherwise the bisection runs, scanning what the bracket leaves
    open.  The caller builds the tight set of the pair that wins, at the
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

    def bisect(answer) -> tuple[float, float]:
        lo, top = 0.0, hi
        while top - lo > tol:
            mid = (lo + top) / 2.0
            if answer(mid):
                top = mid
            else:
                lo = mid
        return lo, top

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
    # the bisection's path if the pair first fired where the steps ended; it
    # is the true path when the pair fires at its top and not at its bottom
    lo, top = bisect((lambda mid: mid > no) if line is None else (lambda mid: mid >= yes))
    if not fires(lo) and fires(top):
        return top
    if hi > 0.0 and fires(0.0):
        return 0.0
    return bisect(fires)[1]


def next_event(state: DualState) -> tuple[float, JoinExisting | ScaledCluster]:
    """Locate the next pause point of the uniform ascent.

    Returns (increment, event): an active point joining a cluster added with
    ``add_cluster``, or a new tight set.  Join events win ties; among joins
    the smallest point index wins, among tight constraints the scan order
    does.
    """
    if not state.active.any():
        raise RuntimeError("no active points")
    current = float(state.alpha[state.active].max())
    eligible = state.active & (state.join_cluster >= 0)
    gaps = np.where(eligible, np.maximum(state.join_threshold - state.alpha, 0.0), np.inf)
    x = int(np.argmin(gaps))
    join_t = float(gaps[x])
    join = JoinExisting(x, int(state.join_cluster[x])) if join_t < np.inf else None
    if join_t <= 0.0:
        return 0.0, join

    # Some active singleton constraint fires once its dual reaches lam, so
    # the next tight time is at most max(0, lam - current).
    probe = min(join_t, max(0.0, state.lam - current))
    best_t: float | None = None
    for y, exp in _screen(state, probe):
        t = _fire_time(state, y, exp, probe if best_t is None else best_t)
        if t is not None and (best_t is None or t < best_t):
            best_t, winner = t, (y, exp)
            if best_t == 0.0:
                break  # increments are nonnegative and ties keep the earlier pair

    if best_t is None and probe < join_t:
        raise RuntimeError("ascent found no event below its guaranteed cap")
    if join is not None and (best_t is None or join_t <= best_t):
        return join_t, join
    y, exp = winner
    return best_t, ScaledCluster(set(_tight_set(state, y, exp, best_t)), exp, y)


def run_phase1(inst: Instance, lam: float) -> DualState:
    """Raise duals uniformly, emitting candidate clusters, until the number
    of active points falls to n - n', and return the state the ascent ran.

    Its ``alpha`` and ``clusters`` are the duals and candidate clusters.
    Joining points inherit the cluster's frozen scale and center.  If
    deactivating a new tight set would drop the active count strictly below
    n - n', the ascent stops and that set is the state's ``overflow``.
    ``lam`` must be finite and nonnegative; otherwise ``ValueError``.
    """
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"opening cost lambda must be finite and nonnegative, got {lam!r}")
    state = DualState(inst, lam)
    target = inst.n - inst.n_prime

    while (active := np.count_nonzero(state.active)) > target:
        t, event = next_event(state)
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
        need = state.scaled_dists(c.scale_exp)[members, c.center]
        bad = np.flatnonzero(state.alpha[members] < need - state.tau)
        if bad.size:
            x = members[bad[0]]
            raise RuntimeError(
                f"point {x} underpays its cluster "
                f"(alpha {state.alpha[x]:.6g} < {need[bad[0]]:.6g})"
            )
