"""Tests of the benchmark's own code: span arithmetic, patching, names, and
determinism of the metrics that must repeat exactly."""

from __future__ import annotations

import json
import math
import re
import types
from pathlib import Path

import pytest

import harness
import workloads
from spans import Recorder, Span, Target, self_times

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("a1", 2.0, 3.0, parent=1),
        Span("b", 5.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_clips_overlapping_children():
    spans = [Span("root", 0.0, 10.0), Span("a", 2.0, 6.0, parent=0),
             Span("b", 4.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_recorder_nests_spans_in_call_order():
    rec = Recorder(clock=FakeClock([0.0, 1.0, 2.0, 3.0]))
    inner = rec.wrap("inner", lambda: 7)
    outer = rec.wrap("outer", lambda: inner() + 1)
    assert outer() == 8
    assert [(s.name, s.start, s.end, s.parent) for s in rec.spans] == [
        ("outer", 0.0, 3.0, None), ("inner", 1.0, 2.0, 0)]


def test_originals_restored_after_wrapped_call_raises():
    def boom(x):
        raise ValueError(f"bad {x}")

    def fine():
        return 1

    owner = types.SimpleNamespace(boom=boom, fine=fine)
    rec = Recorder()
    with pytest.raises(ValueError, match="bad 3"):
        with rec.patched([Target(owner, "fine", "fine"), Target(owner, "boom", "boom")]):
            assert owner.fine is not fine
            owner.boom(3)
    assert owner.boom is boom and owner.fine is fine
    assert rec.spans[0].attrs["error"] == "ValueError: bad 3"
    assert rec._stack == []


def test_metric_and_workload_names():
    names = ([w["name"] for w in BENCHMARK["workloads"]]
             + [m["name"] for m in BENCHMARK["end_to_end"]]
             + [m["name"] for m in BENCHMARK["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(harness.E2E_UNITS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(harness.LAYER_UNITS)
    for metric in BENCHMARK["end_to_end"]:
        assert metric["unit"] == harness.E2E_UNITS[metric["name"]]
    for metric in BENCHMARK["per_layer"]:
        assert metric["unit"] == harness.LAYER_UNITS[metric["name"]]


def test_pd_small_is_the_small_suite_recipe():
    cases = workloads.pd_small(0)
    assert [c.spec.seed for c in cases] == list(range(40))
    assert all(c.force_primal_dual and c.score_against_opt for c in cases)
    assert all(c.order_seed is None for c in cases)
    assert [c.spec for c in workloads.pd_small(1)] == [c.spec for c in cases]


def test_other_seeds_relabel_the_same_instances():
    for make in workloads.WORKLOADS.values():
        base, moved = workloads.build(make(0)[:2]), workloads.build(make(5)[:2])
        for x, y in zip(base, moved):
            assert (x.k, x.n_prime, x.epsilon, x.mode) == (y.k, y.n_prime, y.epsilon, y.mode)
            assert x.distances().tobytes() != y.distances().tobytes()
            assert sorted(x.distances().ravel()) == pytest.approx(sorted(y.distances().ravel()))


def test_same_seed_same_instances():
    for make in workloads.WORKLOADS.values():
        a, b = workloads.build(make(3)[:2]), workloads.build(make(3)[:2])
        for x, y in zip(a, b):
            assert x.distances().tobytes() == y.distances().tobytes()


def _small_mix():
    """A few fast cases from both solver branches."""
    return workloads.pd_small(0)[:3] + [workloads.small_k(0)[0]]


def test_deterministic_metrics_repeat_exactly(tmp_path):
    exact = ("search.probes", "dual.candidate_clusters", "dual.overflow_frac",
             "conflicts.anchor_frac", "assembly.discarded",
             "oracle.cost_ratio_p50", "oracle.cost_ratio_max")
    seen = []
    for attempt in range(2):
        cases = _small_mix()
        layer, outcomes, problems, _ = harness.traced_run(cases, tmp_path)
        assert problems == [] and all(not o.problems for o in outcomes)
        instances = workloads.build(cases)
        quality = harness.quality_metrics(instances, outcomes)
        failed = sum(o.failed for o in outcomes)
        seen.append(({k: layer[k] for k in exact}, quality, failed))
    assert seen[0] == seen[1]
    assert seen[0][0]["search.probes"] > 0


def test_small_k_never_enters_the_ascent(tmp_path):
    cases = [workloads.small_k(0)[0], workloads.small_k(0)[5]]
    layer, outcomes, problems, _ = harness.traced_run(cases, tmp_path)
    assert problems == []
    assert layer["search.probes"] == 0
    assert layer["dual.run_phase1_s"] == 0.0
    assert layer["oracle.brute_force_opt_s"] > 0.0
    assert layer["search.small_k_solver_s"] > 0.0


def test_traced_run_restores_the_program(tmp_path):
    from minsumclust import oracle, search
    from minsumclust.geometry import Instance

    before = (search.probe, search.run_phase1, oracle.audit, Instance.distances)
    harness.traced_run(workloads.pd_small(0)[:1], tmp_path)
    assert (search.probe, search.run_phase1, oracle.audit, Instance.distances) == before


def test_solver_error_is_counted_and_the_loop_goes_on(monkeypatch):
    from minsumclust import search

    cases = workloads.pd_small(0)[:3]
    instances = workloads.build(cases)
    real = search.min_sum_clustering

    def flaky(inst, **kwargs):
        if inst.points is instances[1].points:
            raise RuntimeError("planted failure")
        return real(inst, **kwargs)

    monkeypatch.setattr(search, "min_sum_clustering", flaky)
    outcomes, _ = harness.closed_loop(cases, instances, 0.0)
    harness.score(cases, instances, outcomes)
    assert outcomes[1].failed and outcomes[1].error == "RuntimeError: planted failure"
    assert outcomes[0].result is not None and outcomes[2].result is not None


def test_round_trip_detects_a_changed_cost(tmp_path):
    from minsumclust import io

    cases = workloads.pd_small(0)[1:2]
    instances = workloads.build(cases)
    outcomes, _ = harness.closed_loop(cases, instances, 0.0)
    harness.score(cases, instances, outcomes)
    harness.round_trip(instances, outcomes, tmp_path)
    assert outcomes[0].problems == []
    loaded = io.load_result(tmp_path / "result-0.txt")
    assert harness.result_difference(outcomes[0], harness.Outcome(result=loaded)) is None
    loaded.total_cost = math.nextafter(loaded.total_cost, math.inf)
    assert harness.result_difference(outcomes[0], harness.Outcome(result=loaded)).startswith("total_cost")
