"""Dual ascent: candidate lists, tightness detection, events, full phase run.

Candidate lists and tightness are observed through ``next_event``, the one
entry into the ascent's event engine short of a full phase run.  The screen,
and the tight sets ``next_event`` returns, are checked directly against the
exact pair scan, on states recorded mid-ascent, and tightness and the worst
slack against the exhaustive reference in ``instances``.  The value scan is
checked bit for bit against the sorted prefix scan it replaced, and the
bracketed event-time search against the plain bisection it replaced, both
written out here.
"""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minsumclust import dual
from minsumclust.dual import (
    EVENT_TIME_REL_TOL,
    DualState,
    JoinExisting,
    _check_phase1,
    _pair_scan,
    _screen,
    _tight_set,
    next_event,
    run_phase1,
    worst_slack,
)
from minsumclust.geometry import (
    REL_TOL, Instance, ScaledCluster, scale_exponent, tightness_tolerance,
)

from instances import EPS_OF_BASE, exhaustive_worst_slack, grid_instance, line_instance


def state_for(inst, lam, alpha=None, active=None):
    if alpha is not None:
        alpha = np.asarray(alpha, dtype=float)
    if active is not None:
        active = np.asarray(active, dtype=bool)
    return DualState(inst, lam, alpha=alpha, active=active)


class TestCandidateSet:
    # C(y, j) holds the points x with alpha_x >= base**j * d(x, y), sorted
    # by decreasing margin; a tight set is the shortest qualifying prefix.

    def test_zero_duals_keep_colocated_points(self):
        # d(0, 1) = 0 keeps point 1 in C(0, 1) from the start, so the pair
        # fires once 2t reaches lambda, before any singleton at t = 1
        inst = line_instance(0.0, 0.0, 1.0)
        state = state_for(inst, 1.0)
        t, event = next_event(state)
        assert t == pytest.approx(0.5)
        assert event == ScaledCluster(members={0, 1}, scale_exp=1, center=0)

    def test_huge_duals_keep_everyone_sorted(self):
        # margins from y=0 at scale 1: 100, 98, 82; lambda 190 needs the two
        # largest, and lambda 250 all three
        inst = line_instance(0.0, 1.0, 3.0)
        state = state_for(inst, 190.0, alpha=[100.0, 100.0, 100.0])
        assert next_event(state) == (0.0, ScaledCluster({0, 1}, 1, 0))
        state = state_for(inst, 250.0, alpha=[100.0, 100.0, 100.0])
        assert next_event(state) == (0.0, ScaledCluster({0, 1, 2}, 1, 0))

    def test_membership_threshold(self):
        # point 2 fails: alpha 0 < 2 * 9, so {0, 1} fires alone at 8 + 2t = 9
        inst = line_instance(0.0, 1.0, 3.0)
        state = state_for(inst, 9.0, alpha=[5.0, 5.0, 0.0])
        t, event = next_event(state)
        assert t == pytest.approx(0.5)
        assert event == ScaledCluster(members={0, 1}, scale_exp=1, center=0)


class TestDetectViolation:
    # A constraint that is tight or violated now fires at increment zero.

    def test_zero_lambda_returns_first_singleton(self):
        inst = line_instance(0.0, 1.0, 2.0)
        state = state_for(inst, 0.0)
        assert next_event(state) == (0.0, ScaledCluster({0}, 0, 0))

    def test_large_lambda_yields_nothing(self):
        inst = line_instance(0.0, 1.0, 3.0)
        maxd = inst.max_distance()
        lam = inst.n * inst.n * maxd * 1.01
        state = state_for(inst, lam, alpha=np.full(3, maxd))
        t, _ = next_event(state)
        assert t > 0.0

    def test_reported_pair_violation(self):
        inst = line_instance(0.0, 0.1, 5.0)
        state = state_for(inst, 1.0, alpha=[0.6, 0.6, 0.0])
        t, v = next_event(state)
        assert t == 0.0
        assert v.members == {0, 1} and v.center == 0 and v.scale_exp == 1
        # lhs 1.2 against rhs 1 + 2 * 0.01
        lhs = 0.6 + 0.6
        rhs = 1.0 + 2**v.scale_exp * (0.0 + 0.01)
        assert lhs > rhs

    def test_example_agrees_with_enumeration(self):
        inst = line_instance(0.0, 0.1, 5.0)
        tau = tightness_tolerance(inst, 1.0)
        assert exhaustive_worst_slack(inst, [0.6, 0.6, 0.0], 1.0, np.ones(3, bool)) >= -tau

    @pytest.mark.parametrize("seed", range(25))
    def test_agreement_with_enumeration_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        pts = rng.uniform(0, 2, (n, 2))
        base = int(rng.choice([2, 3]))
        inst = Instance(
            mode="sqeuclid", k=1, n_prime=n, epsilon=EPS_OF_BASE[base], points=pts
        )
        lam = float(rng.uniform(0, 3))
        alpha = rng.uniform(0, 2, n)
        active = rng.uniform(size=n) < 0.7
        if not active.any():
            active[0] = True
        tau = tightness_tolerance(inst, lam)
        state = state_for(inst, lam, alpha=alpha, active=active)
        t, got = next_event(state)
        assert (t == 0.0) == (exhaustive_worst_slack(inst, alpha, lam, active) >= -tau)
        if t == 0.0:
            # the reported constraint must genuinely be tight or violated
            assert isinstance(got, ScaledCluster)
            lhs = alpha[sorted(got.members)].sum()
            rhs = lam + base**got.scale_exp * sum(
                inst.distances()[x, got.center] for x in got.members
            )
            assert lhs >= rhs - tau
            assert got.center in got.members
            assert active[sorted(got.members)].any()
            assert scale_exponent(base, len(got.members)) == got.scale_exp


def record_calls(monkeypatch, *names):
    """Patch each named ``dual`` function to log (name, *args after the
    state) before it runs; returns the shared log."""
    calls = []
    for name in names:
        def logging(*args, _name=name, _orig=getattr(dual, name)):
            calls.append((_name, *args[1:]))
            return _orig(*args)

        monkeypatch.setattr(dual, name, logging)
    return calls


class TestNextEvent:
    def test_singleton_fires_at_lambda(self):
        inst = line_instance(0.0, 1.0)
        state = state_for(inst, 0.5)
        t, event = next_event(state)
        assert t == pytest.approx(0.5, abs=1e-7)
        assert isinstance(event, ScaledCluster)
        assert event.members == {0} and event.center == 0 and event.scale_exp == 0

    def test_colocated_point_joins_immediately(self):
        inst = line_instance(0.0, 0.0)
        state = state_for(inst, 5.0, active=[False, True])
        cluster = ScaledCluster(members={0}, scale_exp=0, center=0)
        state.add_cluster(cluster)
        t, event = next_event(state)
        assert t == 0.0
        assert event == JoinExisting(point=1, cluster=0)

    def test_single_active_point_zero_lambda(self):
        inst = line_instance(4.0)
        state = state_for(inst, 0.0)
        t, event = next_event(state)
        assert t == 0.0
        assert isinstance(event, ScaledCluster) and event.members == {0}

    def test_search_stops_at_the_first_pair_firing_at_once(self, monkeypatch):
        # at lambda 0 every singleton fires at increment 0, and a later pair
        # can only tie, so the first screened pair ends the search
        inst = line_instance(0.0, 1.0, 2.0, 3.0)
        calls = record_calls(monkeypatch, "_fire_time")
        assert next_event(state_for(inst, 0.0)) == (0.0, ScaledCluster({0}, 0, 0))
        assert [call[:3] for call in calls] == [("_fire_time", 0, 0)]

    def test_a_pair_that_cannot_fire_by_hi_costs_one_scan(self, monkeypatch):
        # the singleton {0} fires once its dual reaches lambda 1, not by 0.5
        inst = line_instance(0.0, 1.0)
        calls = record_calls(monkeypatch, "_pair_scan", "_tight_set")
        assert dual._fire_time(state_for(inst, 1.0), 0, 0, 0.5) is None
        assert calls == [("_pair_scan", 0, 0, True, 0.5)]

    def test_an_event_builds_one_tight_set_the_winners(self, monkeypatch):
        # the singleton {0} fires at 1, then {0, 1} about 0 and about 1 both
        # at 2t = 1 + 2 * 0.25, and the earlier of the two wins the tie
        inst = line_instance(0.0, 0.5, 2.0)
        calls = record_calls(monkeypatch, "_tight_set")
        t, event = next_event(state_for(inst, 1.0))
        assert t == pytest.approx(0.75)
        assert event == ScaledCluster({0, 1}, 1, 0)
        assert calls == [("_tight_set", 0, 1, t)]
        state = state_for(inst, 1.0)
        assert [dual._fire_time(state, y, exp, 1.0) is not None
                for y, exp in [(0, 0), (0, 1), (1, 1)]] == [True, True, True]

    def test_requires_active_points(self):
        inst = line_instance(0.0, 1.0)
        state = state_for(inst, 1.0, active=[False, False])
        with pytest.raises(RuntimeError, match="no active points"):
            next_event(state)


class TestRunPhase1:
    def test_two_points_two_singletons(self):
        inst = line_instance(0.0, 1.0)
        out = run_phase1(inst, 0.5)
        assert out.overflow is None
        assert [sorted(c.members) for c in out.clusters] == [[0], [1]]
        assert out.alpha == pytest.approx([0.5, 0.5], abs=1e-7)

    @pytest.mark.parametrize("lam", [-1.0, np.inf, np.nan])
    def test_lambda_must_be_finite_and_nonnegative(self, lam):
        inst = line_instance(0.0, 1.0)
        with pytest.raises(ValueError, match="^opening cost lambda must be finite and "
                                             f"nonnegative, got {lam!r}$"):
            run_phase1(inst, lam)

    def test_colocated_overflow(self):
        # four coincident points; the first tight set takes all of them,
        # overshooting n' = 3, so it is withheld as overflow
        inst = line_instance(0.0, 0.0, 0.0, 0.0, n_prime=3)
        out = run_phase1(inst, 1.0)
        assert out.clusters == []
        assert out.overflow is not None
        assert out.overflow.members == {0, 1, 2, 3}
        assert out.overflow.scale_exp == 2

    def test_partial_budget_stops_early(self):
        inst = line_instance(0.0, 5.0, n_prime=1)
        out = run_phase1(inst, 0.0)
        covered = set().union(*(c.members for c in out.clusters)) if out.clusters else set()
        if out.overflow is not None:
            covered |= out.overflow.members
        assert len(covered) >= 1
        # untouched actives keep the running maximum dual
        gamma = out.alpha.max()
        assert out.alpha[1] == pytest.approx(gamma)

    def test_unclustered_points_carry_max_dual(self):
        rng = np.random.default_rng(7)
        inst = Instance(
            mode="sqeuclid", k=1, n_prime=6, epsilon=1.0,
            points=rng.uniform(0, 2, (9, 2)),
        )
        out = run_phase1(inst, 0.4)
        covered = set().union(*(c.members for c in out.clusters)) if out.clusters else set()
        gamma = out.alpha.max()
        for x in range(9):
            if x not in covered:
                assert out.alpha[x] == pytest.approx(gamma, abs=1e-9)

    def test_members_afford_their_cluster(self):
        rng = np.random.default_rng(11)
        inst = Instance(
            mode="sqeuclid", k=1, n_prime=10, epsilon=1.0,
            points=rng.uniform(0, 3, (10, 2)),
        )
        lam = 1.3
        out = run_phase1(inst, lam)
        _check_phase1(out)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0, 2, (8, 2))
        inst1 = Instance(mode="sqeuclid", k=1, n_prime=7, epsilon=1.0, points=pts)
        inst2 = Instance(mode="sqeuclid", k=1, n_prime=7, epsilon=1.0, points=pts.copy())
        a = run_phase1(inst1, 0.7)
        b = run_phase1(inst2, 0.7)
        assert np.array_equal(a.alpha, b.alpha)
        assert [(sorted(c.members), c.scale_exp, c.center) for c in a.clusters] == [
            (sorted(c.members), c.scale_exp, c.center) for c in b.clusters
        ]

    def test_coverage_brackets_budget(self):
        # clusters alone cover at most n'; with overflow, at least n'
        for seed in range(8):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 11))
            inst = Instance(
                mode="sqeuclid", k=1, n_prime=int(rng.integers(1, n + 1)),
                epsilon=1.0, points=rng.uniform(0, 2, (n, 1)),
            )
            out = run_phase1(inst, float(rng.uniform(0.1, 2.0)))
            covered = set().union(*(c.members for c in out.clusters)) if out.clusters else set()
            assert len(covered) <= inst.n_prime
            if out.overflow is not None:
                assert len(covered | out.overflow.members) >= inst.n_prime

    def test_check_raises_for_a_member_that_underpays(self):
        # a member at alpha 0, 100 away from the center, with every dual zero
        # so the uniformity and feasibility checks pass
        state = DualState(line_instance(0.0, 1.0, 100.0), 1.0)
        state.add_cluster(ScaledCluster({0, 2}, 1, 0))
        with pytest.raises(RuntimeError, match="point 2 underpays its cluster"):
            _check_phase1(state)

    def test_feasibility_after_run(self):
        rng = np.random.default_rng(21)
        inst = Instance(
            mode="sqeuclid", k=1, n_prime=8, epsilon=0.5,
            points=rng.uniform(0, 2, (8, 2)),
        )
        lam = 0.9
        out = run_phase1(inst, lam)
        state = DualState(inst, lam, alpha=out.alpha)
        assert worst_slack(state) <= state.tau


class TestWorstSlack:
    def test_zero_state_slack_is_minus_lambda_at_most(self):
        inst = line_instance(0.0, 1.0)
        state = state_for(inst, 2.0)
        assert worst_slack(state) == pytest.approx(-2.0)

    def test_matches_enumeration(self):
        for seed in range(15):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(3, 7))
            inst = Instance(
                mode="sqeuclid", k=1, n_prime=n, epsilon=1.0,
                points=rng.uniform(0, 2, (n, 1)),
            )
            alpha = rng.uniform(0, 1.5, n)
            lam = float(rng.uniform(0, 2))
            fast = worst_slack(state_for(inst, lam, alpha=alpha))
            worst = exhaustive_worst_slack(inst, alpha, lam)
            # the scan family is a subfamily, so it can only under-report,
            # and it must agree on the violated / feasible verdict
            assert fast <= worst + 1e-12
            tau = tightness_tolerance(inst, lam)
            assert (fast > tau) == (worst > tau)


def plane_instance(rng, mode, base, n):
    """n uniform points in the plane at the epsilon of ``base``, with n' = n - 2,
    and an opening cost near their median distance."""
    pts = rng.uniform(0, 3, (n, 2))
    params = dict(mode=mode, k=1, n_prime=n - 2, epsilon=EPS_OF_BASE[base])
    if mode == "sqeuclid":
        inst = Instance(points=pts, **params)
    else:
        dmat = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=-1))
        inst = Instance(dist_matrix=dmat, **params)
    lam = float(rng.uniform(0.5, 2.0)) * float(np.median(inst.distances()))
    return inst, lam


def mid_ascent_states(inst, lam):
    """(state, probe, screened) at every screen of ``run_phase1``: a copy of
    the state, which remembers no screen, the increment ``next_event``
    screens at, and the list the ascent's own screen returned."""
    snapshots = []

    def recording(state, shift):
        copy = replace(state, alpha=state.alpha.copy(), active=state.active.copy())
        screened = _screen(state, shift)
        snapshots.append((copy, shift, screened))
        return screened

    with pytest.MonkeyPatch.context() as m:
        m.setattr(dual, "_screen", recording)
        run_phase1(inst, lam)
    return snapshots


class TestScreen:
    # The screen may pass pairs that never fire, but it must pass every pair
    # that fires, and only pairs whose candidate lists are big enough.

    @pytest.mark.parametrize("mode", ["sqeuclid", "metric"])
    @pytest.mark.parametrize("base", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_passes_every_firing_pair_and_only_admissible_ones(self, mode, base, seed):
        rng = np.random.default_rng([seed, base])
        n = int(rng.integers(20, 41))
        inst, lam = plane_instance(rng, mode, base, n)
        snapshots = mid_ascent_states(inst, lam)
        assert any(not state.active.all() for state, _, _ in snapshots)
        for state, probe, _ in snapshots[::3]:
            for shift in (0.0, probe):
                screened = set(_screen(state, shift))
                alpha = state.raised_alpha(shift)
                for y, exp in itertools.product(range(n), range(inst.top_exp + 1)):
                    line = _pair_scan(state, y, exp, True, shift)
                    if line is not None and line[0] >= lam - state.tau:
                        assert (y, exp) in screened
                        tight = _tight_set(state, y, exp, shift)
                        assert tight[0] == y and state.active[tight].any()
                        assert base**exp <= len(tight) < base ** (exp + 1)
                    if (y, exp) in screened:
                        in_list = alpha - state.scaled_dists(exp)[y] >= 0.0
                        assert in_list.sum() >= base**exp
                        assert state.active[y] or (in_list & state.active).any()

    @pytest.mark.parametrize("mode", ["sqeuclid", "metric"])
    @pytest.mark.parametrize("base", [2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_a_refiltered_list_equals_a_full_screen(self, mode, base, seed, monkeypatch):
        # the ascent's screens refilter their last pass list whenever no
        # raised dual rose; a copy of the state remembers nothing, so its
        # screen computes every row
        rng = np.random.default_rng([seed, base])
        inst, lam = plane_instance(rng, mode, base, int(rng.integers(20, 41)))
        calls = record_calls(monkeypatch, "_margin_bounds")
        snapshots = mid_ascent_states(inst, lam)
        screens = [call[2] for call in calls if len(call) == 3]  # worst_slack passes no rows
        refilters = sum(rows is not None for rows in screens)
        assert 0 < refilters < len(snapshots) == len(screens)
        for state, probe, screened in snapshots:
            assert _screen(state, probe) == screened


def sorted_prefix_scan(state, y, exp, require_active, shift):
    """Reference for the value scan and the tight set: (best, slope,
    minimal) from one stable sort of the candidates' indices by decreasing
    margin, the forced points first, and one running sum.  slope counts the
    active points summed, and the active ones left out that tie with the
    smallest summed margin; minimal is None unless the pair fires."""
    base = state.inst.base
    margins = state.raised_alpha(shift) - state.scaled_dists(exp)[y]
    members = np.flatnonzero(margins >= 0.0)
    if members.size < base**exp:
        return None, None, None
    order = members[np.argsort(-margins[members], kind="stable")]
    forced = [y]
    if require_active and not state.active[y]:
        active_members = order[state.active[order]]
        if active_members.size == 0:
            return None, None, None
        forced.append(int(active_members[0]))
    size_hi = min(members.size, base ** (exp + 1) - 1)
    if size_hi < len(forced):
        return None, None, None
    ordered = np.array([*forced, *(x for x in order if x not in forced)])
    sums = np.cumsum(margins[ordered])
    best = float(sums[size_hi - 1])
    slope = int(state.active[ordered[:size_hi]].sum())
    if size_hi > len(forced):
        left_out = ordered[size_hi:]
        slope += int((state.active[left_out]
                      & (margins[left_out] == margins[ordered[size_hi - 1]])).sum())
    threshold = state.lam - state.tau
    if best < threshold:
        return best, slope, None
    first = int(np.searchsorted(sums, threshold, side="left")) + 1
    take = min(max(first, base**exp, len(forced)), size_hi)
    return best, slope, ordered[:take].tolist()


def tied_state(rng, mode, base):
    """A state full of ties: a grid instance, one active dual value, frozen
    duals that often equal it, and one negative dual."""
    inst = grid_instance(rng, mode, base, int(rng.integers(2, 21)))
    n = inst.n
    level = rng.uniform(0.5, 4.0)
    active = rng.uniform(size=n) < 0.5
    alpha = np.where(rng.uniform(size=n) < 0.5, level, rng.uniform(0.0, level, n))
    alpha[active] = level
    alpha[rng.integers(n)] = -rng.uniform(0.1, 2.0)
    return DualState(inst, rng.uniform(0.0, n * level), alpha=alpha, active=active)


def at_threshold(state, target):
    """A copy of the state whose lam - tau is ``target`` bit for bit, or None
    when no lam next to the real solution rounds there."""
    # lam - tau = lam (1 - REL_TOL) - tau at lam 0, in real arithmetic
    lam = (target + tightness_tolerance(state.inst, 0.0)) / (1.0 - REL_TOL)
    for _ in range(8):
        threshold = lam - tightness_tolerance(state.inst, lam)
        if threshold == target:
            return replace(state, lam=lam)
        lam = float(np.nextafter(lam, np.inf if threshold < target else -np.inf))
    return None


class TestMarginBound:
    # The screen's bound sums the capped margins in another order than the
    # exact scan, so it is widened by their rounding: on nonnegative duals it
    # is at least the exact scan's float, and a pair whose exact value just
    # reaches lam - tau stays in the screen.

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["sqeuclid", "metric"]),
           st.sampled_from([2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_dominates_the_exact_scan_on_nonnegative_tied_states(self, seed, mode, base):
        rng = np.random.default_rng(seed)
        state = tied_state(rng, mode, base)
        state = replace(state, alpha=np.maximum(state.alpha, 0.0))
        pairs = list(itertools.product(range(state.inst.n), range(state.inst.top_exp + 1)))
        for shift in (0.0, rng.uniform(0.0, 3.0)):
            bounds = [bound for _, bound in dual._margin_bounds(state, shift)]
            for (y, exp), require_active in itertools.product(pairs, (True, False)):
                line = _pair_scan(state, y, exp, require_active, shift)
                if line is not None:
                    assert bounds[exp][y] >= line[0]
        # with lam - tau at a pair's exact value the pair fires at shift 0
        for y, exp in pairs:
            line = _pair_scan(state, y, exp, True, 0.0)
            at = None if line is None else at_threshold(state, line[0])
            if at is not None:
                assert (y, exp) in _screen(at, 0.0)


class TestPairScan:
    # The value scan and the tight set read the same floats as one sorted
    # prefix scan: every value, fire decision and prefix agrees bit for bit.

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["sqeuclid", "metric"]),
           st.sampled_from([2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_sorted_prefix_scan(self, seed, mode, base):
        rng = np.random.default_rng(seed)
        state = tied_state(rng, mode, base)
        threshold = state.lam - state.tau
        for shift, y, exp, require_active in itertools.product(
            (0.0, 0.5, rng.uniform(0.0, 3.0)), range(state.inst.n),
            range(state.inst.top_exp + 1), (True, False),
        ):
            best, slope, minimal = sorted_prefix_scan(state, y, exp, require_active, shift)
            line = _pair_scan(state, y, exp, require_active, shift)
            assert (line is None) == (best is None)
            if best is None:
                continue
            assert line[0].hex() == best.hex()
            assert line[1] == slope
            assert (line[0] >= threshold) == (minimal is not None)
            if minimal is not None and require_active:
                assert _tight_set(state, y, exp, shift) == minimal


def plain_fire_time(state, y, exp, hi):
    """Reference for the event-time search: the scan at hi, the scan at 0,
    then one scan per step of the bisection on [0, hi]."""
    threshold = state.lam - state.tau

    def fires(shift):
        line = _pair_scan(state, y, exp, True, shift)
        return line is not None and line[0] >= threshold

    if not fires(hi):
        return None
    if hi > 0.0 and fires(0.0):
        return 0.0
    lo, top = 0.0, hi
    tol = EVENT_TIME_REL_TOL * hi
    while top - lo > tol:
        mid = (lo + top) / 2.0
        if fires(mid):
            top = mid
        else:
            lo = mid
    return top


class TestFireTime:
    # The bracket only skips scans whose answer monotonicity already gives,
    # so the search returns the plain bisection's float.

    @given(st.integers(0, 2**32 - 1), st.sampled_from(["sqeuclid", "metric"]),
           st.sampled_from([2, 3]), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_plain_bisection_and_firing_is_monotone(
        self, seed, mode, base, mid_ascent
    ):
        rng = np.random.default_rng(seed)
        if mid_ascent:
            inst, lam = plane_instance(rng, mode, base, int(rng.integers(6, 16)))
            snapshots = mid_ascent_states(inst, lam)
            state = snapshots[rng.integers(len(snapshots))][0]
        else:
            state = tied_state(rng, mode, base)
        threshold = state.lam - state.tau
        his = (0.0, rng.uniform(0.0, max(state.lam, 1.0)))
        for hi, y, exp in itertools.product(
            his, range(state.inst.n), range(state.inst.top_exp + 1)
        ):
            want = plain_fire_time(state, y, exp, hi)
            got = dual._fire_time(state, y, exp, hi)
            assert (got is None) == (want is None)
            if want is None:
                continue
            assert got.hex() == want.hex()
            # shifts around the event time, where the answer turns
            shifts = np.sort([*rng.uniform(0.0, hi, 4), hi, want,
                              np.nextafter(want, -np.inf), want * (1.0 - 1e-9)])
            fired = [line is not None and line[0] >= threshold
                     for line in (_pair_scan(state, y, exp, True, float(shift))
                                  for shift in shifts if shift >= 0.0)]
            assert fired == sorted(fired)

    def test_a_firing_pair_costs_three_scans(self, monkeypatch):
        # {0, 1} about 0 fires at 2t = 1 + 2 * 0.25: the scan at hi, one
        # Newton step to the root and one scan at the grid point below it;
        # the plain bisection makes 42 scans
        inst = line_instance(0.0, 0.5, 2.0)
        want = plain_fire_time(state_for(inst, 1.0), 0, 1, 1.0)
        calls = record_calls(monkeypatch, "_pair_scan")
        assert dual._fire_time(state_for(inst, 1.0), 0, 1, 1.0) == want
        assert want == pytest.approx(0.75)
        assert len(calls) == 3


class TestTightSet:
    # The set next_event returns is the minimal qualifying prefix of its pair
    # at the returned increment: its margin sum reaches lam - tau there, and
    # the prefix one shorter falls short or is below the size floor.

    @pytest.mark.parametrize("mode", ["sqeuclid", "metric"])
    @pytest.mark.parametrize("base", [2, 3])
    def test_is_the_minimal_prefix_at_the_returned_increment(self, mode, base):
        rng = np.random.default_rng([7, base])
        inst, lam = plane_instance(rng, mode, base, int(rng.integers(20, 31)))
        snapshots = mid_ascent_states(inst, lam)
        assert len(snapshots) > 1
        for state, _, _ in snapshots:
            t, event = next_event(state)
            assert isinstance(event, ScaledCluster)
            tight = _tight_set(state, event.center, event.scale_exp, t)
            assert len(tight) == len(event.members)
            assert set(tight) == event.members
            sums = np.cumsum(state.raised_alpha(t)[tight]
                             - state.scaled_dists(event.scale_exp)[event.center, tight])
            threshold = lam - state.tau
            assert sums[-1] >= threshold
            size_min = max(base**event.scale_exp, 1 + (not state.active[event.center]))
            assert len(tight) == size_min or sums[-2] < threshold
