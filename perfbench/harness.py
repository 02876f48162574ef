"""Phases, checks and metrics of the benchmark; ``run.py`` is the entry point.

Importing this module imports ``minsumclust``; ``run.py`` checks first that
it comes from the checkout's ``src/``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from minsumclust import assembly, conflicts, dual, io, oracle, search
from minsumclust.geometry import Instance

import numpy as np

import workloads
from spans import Recorder, Target, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# Time spent on `reference_loop` after each solve, as a share of the solve.
REFERENCE_SHARE = 0.05
RESULT_FIELDS = ("clusters", "outliers", "total_cost", "lambda_low", "lambda_high",
                 "rho1", "branch", "base", "c_eps", "exact", "mode", "n", "k",
                 "n_prime", "epsilon")

E2E_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "solve_ref_p50": "ref",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
    "cost_norm_mean": "ratio",
    "clustered_frac_min": "ratio",
}
LAYER_UNITS = {
    "search.probes": "count",
    "search.probe_s": "s",
    "search.lam0_probe_s": "s",
    "search.self_s": "s",
    "search.small_k_solver_s": "s",
    "dual.run_phase1_s": "s",
    "dual.ms_per_ascent": "ms",
    "dual.candidate_clusters": "count",
    "dual.overflow_frac": "ratio",
    "conflicts.run_phase2_s": "s",
    "conflicts.anchor_frac": "ratio",
    "assembly.run_phase3_s": "s",
    "assembly.discarded": "count",
    "oracle.brute_force_opt_s": "s",
    "oracle.audit_s": "s",
    "oracle.verify_dual_feasible_s": "s",
    "oracle.cost_ratio_p50": "ratio",
    "oracle.cost_ratio_max": "ratio",
    "io.load_result_s": "s",
    "geometry.distances_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Outcome:
    """Everything the benchmark learned about one case."""

    result: object = None
    error: str | None = None
    times: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    audit_ok: bool = False
    audit_failures: list[str] = field(default_factory=list)
    opt: float | None = None
    cost_ratio: float | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or not self.audit_ok


# ---------------------------------------------------------------- runs

def untraced_run(cases, workdir: Path, seconds: float):
    """End-to-end metrics; nothing in the program is wrapped.

    Returns the metrics, the outcomes, the failed checks and the raw solve
    times in seconds, which are printed but not reported as metrics.
    """
    setup_s, instances = measure_setup(cases)
    outcomes, ref_times = closed_loop(cases, instances, seconds, reference=True)
    score(cases, instances, outcomes)
    round_trip(instances, outcomes, workdir)
    # Each instance's mean solve over the run, in units of the mean
    # reference loop of the same run: the host's speed drifts by tens of
    # percent within minutes, and the ratio cancels what both share.  The
    # reference runs after every solve for a fixed share of its time, so
    # the two means weigh the stretches of the run alike.
    per_case = [statistics.fmean(o.times) for o in outcomes]
    ref_s = statistics.fmean(ref_times)
    metrics = {
        "setup_s": setup_s,
        "wall_ref": sum(per_case) / ref_s,
        "solve_ref_p50": statistics.median(per_case) / ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(quality_metrics(instances, outcomes))
    raw = {"wall_s": sum(per_case), "solve_s_p50": statistics.median(per_case),
           "reference_s": ref_s}
    return metrics, outcomes, [], raw


def quality_metrics(instances, outcomes) -> dict:
    """Timing-free end-to-end metrics of a scored set of outcomes."""
    solved = [(inst, o.result) for inst, o in zip(instances, outcomes) if o.result is not None]
    return {
        "pass_frac": sum(not o.failed for o in outcomes) / len(outcomes),
        "cost_norm_mean": _mean([r.total_cost / pair_total(inst) for inst, r in solved]),
        "clustered_frac_min": min((r.clustered_count() / r.n_prime for _, r in solved),
                                  default=0.0),
    }


def traced_run(cases, workdir: Path):
    """Per-layer metrics from one traced pass, checked against an untraced one."""
    instances = workloads.build(cases)
    plain, _ = closed_loop(cases, instances, 0.0)
    untraced_wall = sum(o.times[0] for o in plain)

    solve_copies = [workloads.fresh_copy(inst) for inst in instances]
    recorder = Recorder()
    targets = solver_targets()
    with recorder.patched(targets):
        with recorder.span("bench.setup"):
            workloads.build(cases)
        with recorder.span("bench.solve"):
            traced = [solve_case(case, inst) for case, inst in zip(cases, solve_copies)]
    outcomes = [Outcome(result=r, error=e, times=[t]) for r, e, t in traced]
    score(cases, instances, outcomes)
    round_trip(instances, outcomes, workdir)
    with recorder.patched(targets), recorder.span("bench.verify"):
        verify_pass(instances, outcomes, workdir)

    problems = [f"{case.label}: traced run differs from untraced run: {diff}"
                for case, p, o in zip(cases, plain, outcomes)
                if (diff := result_difference(p, o))]
    metrics = layer_metrics(recorder.spans, untraced_wall, outcomes)
    return metrics, outcomes, problems, recorder


# ---------------------------------------------------------------- phases

def measure_setup(cases):
    """import + instance generation + distance matrices, median of repeats."""
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    builds = []
    instances = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        instances = workloads.build(cases)
        builds.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(builds), instances


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import minsumclust; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def solve_case(case, inst):
    """One timed solve.  Returns (result or None, error message or None, s)."""
    t0 = time.perf_counter()
    try:
        result = search.min_sum_clustering(
            inst, force_primal_dual=case.force_primal_dual, seed=case.solve_seed
        )
        error = None
    except Exception as exc:  # counted as a failed instance, the loop goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, time.perf_counter() - t0


def closed_loop(cases, instances, seconds: float, reference: bool = False):
    """Solve every instance once, then keep solving them in turn while the
    next solve is expected to end within `seconds` of the start.

    With `reference`, `reference_loop` is timed after every solve, once or
    more.  Returns the outcomes and the reference times.
    """
    outcomes = [Outcome() for _ in cases]
    ref_times = []
    start = time.perf_counter()
    i = 0
    while True:
        j = i % len(cases)
        if i >= len(cases) and (time.perf_counter() - start
                                + min(outcomes[j].times)) > seconds:
            break
        i += 1
        result, error, dt = solve_case(cases[j], workloads.fresh_copy(instances[j]))
        out = outcomes[j]
        out.times.append(dt)
        if len(out.times) == 1:
            out.result, out.error = result, error
        elif diff := result_difference(out, Outcome(result=result, error=error)):
            out.problems.append(f"repeat solve {len(out.times)} differs: {diff}")
        if reference:
            # at least one reference, and about REFERENCE_SHARE of the solve
            spent = 0.0
            while spent == 0.0 or spent < REFERENCE_SHARE * dt:
                t0 = time.perf_counter()
                reference_loop()
                ref_times.append(time.perf_counter() - t0)
                spent += ref_times[-1]
    return outcomes, ref_times


_REF_RNG = np.random.default_rng(7)
_REF_MATRIX = _REF_RNG.random((128, 128))
_REF_VALUES = _REF_RNG.random(128) + 0.5


def reference_loop() -> float:
    """Fixed work, about 10 ms, that shares no code with minsumclust: per
    row of a 128 x 128 matrix, a few numpy calls on length-128 arrays (mask,
    sort, cumulative sum, search) and a small dict, like the dual ascent's
    scans.  Its time tracks the host's current speed."""
    acc = 0.0
    for y in range(128):
        margins = _REF_VALUES - _REF_MATRIX[y]
        members = np.flatnonzero(margins >= 0.0)
        order = members[np.lexsort((members, -margins[members]))]
        rest = order[~np.isin(order, [y])]
        sums = np.cumsum(margins[rest])
        k = int(np.searchsorted(sums, 0.5 * float(sums[-1]))) + 1
        picked = {int(i): float(margins[i]) for i in rest[:k]}
        acc += float(sums[k - 1]) + min(picked.values())
    return acc


def score(cases, instances, outcomes) -> None:
    """Audit every result; score against the exact optimum where asked."""
    for case, inst, out in zip(cases, instances, outcomes):
        if out.result is None:
            continue
        if case.score_against_opt:
            _, out.opt = oracle.brute_force_opt(inst)
        audit = oracle.audit(inst, out.result, oracle_opt=out.opt)
        out.audit_ok = audit.ok
        out.audit_failures = list(audit.size_bound_violations) + list(audit.invariant_failures)
        out.cost_ratio = audit.cost_ratio


def verify_pass(instances, outcomes, workdir: Path) -> None:
    """The verify path, load_result + audit, on each result saved by
    `round_trip`, with a fresh instance copy as a verify run would have."""
    for j, (inst, out) in enumerate(zip(instances, outcomes)):
        if out.result is not None:
            oracle.audit(workloads.fresh_copy(inst), io.load_result(workdir / f"result-{j}.txt"))


def round_trip(instances, outcomes, workdir: Path) -> None:
    """save -> load must keep the result and its audit verdict."""
    for j, (inst, out) in enumerate(zip(instances, outcomes)):
        if out.result is None:
            continue
        path = workdir / f"result-{j}.txt"
        io.save_result(out.result, path)
        loaded = io.load_result(path)
        if diff := result_difference(out, Outcome(result=loaded)):
            out.problems.append(f"save/load round trip changed the result: {diff}")
        reloaded_ok = oracle.audit(inst, loaded, oracle_opt=out.opt).ok
        if reloaded_ok != out.audit_ok:
            out.problems.append(
                f"audit verdict {out.audit_ok} became {reloaded_ok} after save/load"
            )


# ---------------------------------------------------------------- checks

def result_difference(a: Outcome, b: Outcome) -> str | None:
    """First difference between two outcomes' results, bit for bit, or None."""
    if a.error != b.error:
        return f"error {a.error!r} vs {b.error!r}"
    if a.result is None or b.result is None:
        return None if a.result is b.result else "one side has no result"
    for name in RESULT_FIELDS:
        x, y = getattr(a.result, name), getattr(b.result, name)
        if isinstance(x, float) and isinstance(y, float):
            if x.hex() != y.hex():
                return f"{name} {x!r} vs {y!r}"
        elif x != y:
            return f"{name} {x!r} vs {y!r}"
    ca, cb = a.result.certificates, b.result.certificates
    if len(ca) != len(cb):
        return f"{len(ca)} vs {len(cb)} certificates"
    for i, (p, q) in enumerate(zip(ca, cb)):
        if float(p.lam).hex() != float(q.lam).hex():
            return f"certificate {i} lambda {p.lam!r} vs {q.lam!r}"
        if (p.alpha.shape != q.alpha.shape
                or p.alpha.astype(float).tobytes() != q.alpha.astype(float).tobytes()):
            return f"certificate {i} alpha differs"
    return None


def pair_total(inst) -> float:
    """Sum of distances over unordered pairs: the cost of one single cluster."""
    return float(inst.distances().sum()) / 2.0


# ---------------------------------------------------------------- tracing

# Modules whose names may bind a wrapped function; each binding is patched.
_BINDERS = (search, oracle, io, dual, conflicts, assembly)


def solver_targets():
    """Public functions of each layer, wherever the package binds them."""
    wanted = [
        (search, "min_sum_clustering", None),
        (search, "probe", lambda a, out: {"lam": float(list(a.values())[1])}),
        (search, "small_k_solver", None),
        (dual, "run_phase1", lambda a, out: {
            "candidates": len(out.clusters), "overflow": out.overflow is not None}),
        (conflicts, "run_phase2", lambda a, out: {
            "candidates": len(list(a.values())[2]),
            "anchors": len({id(m.anchor) for m in out if not m.anchor_is_overflow})}),
        (assembly, "run_phase3", lambda a, out: {"discarded": len(out.discarded)}),
        (oracle, "brute_force_opt", None),
        (oracle, "audit", None),
        (oracle, "verify_dual_feasible", None),
        (io, "load_result", None),
    ]
    targets = []
    for home, attr, describe in wanted:
        fn = getattr(home, attr)
        name = f"{home.__name__.rsplit('.', 1)[-1]}.{attr}"
        targets += [Target(module, attr, name, describe)
                    for module in _BINDERS if getattr(module, attr, None) is fn]
    targets.append(Target(Instance, "distances", "geometry.distances"))
    return targets


def layer_metrics(spans, untraced_wall: float, outcomes) -> dict:
    def pick(name, where=lambda s: True):
        return [s for s in spans if s.name == name and where(s)]

    def seconds(name, where=lambda s: True):
        return sum(s.duration for s in pick(name, where))

    def parent_is(name):
        return lambda s: s.parent is not None and spans[s.parent].name == name

    ascents = pick("dual.run_phase1")
    phase2 = pick("conflicts.run_phase2")
    ratios = [o.cost_ratio for o in outcomes if o.cost_ratio is not None]
    phase1_s = seconds("dual.run_phase1")
    candidates = sum(s.attrs["candidates"] for s in phase2)
    return {
        "search.probes": len(pick("search.probe")),
        "search.probe_s": seconds("search.probe"),
        "search.lam0_probe_s": seconds("search.probe", lambda s: s.attrs["lam"] == 0.0),
        "search.self_s": sum(own for s, own in zip(spans, self_times(spans))
                             if s.name == "search.min_sum_clustering"),
        "search.small_k_solver_s": seconds("search.small_k_solver"),
        "dual.run_phase1_s": phase1_s,
        "dual.ms_per_ascent": 1000.0 * phase1_s / len(ascents) if ascents else 0.0,
        "dual.candidate_clusters": _mean([s.attrs["candidates"] for s in ascents]),
        "dual.overflow_frac": _mean([float(s.attrs["overflow"]) for s in ascents]),
        "conflicts.run_phase2_s": seconds("conflicts.run_phase2"),
        "conflicts.anchor_frac": (sum(s.attrs["anchors"] for s in phase2) / candidates
                                  if candidates else 0.0),
        "assembly.run_phase3_s": seconds("assembly.run_phase3"),
        "assembly.discarded": _mean([s.attrs["discarded"]
                                     for s in pick("assembly.run_phase3")]),
        "oracle.brute_force_opt_s": seconds("oracle.brute_force_opt",
                                            parent_is("search.small_k_solver")),
        "oracle.audit_s": seconds("oracle.audit"),
        "oracle.verify_dual_feasible_s": seconds("oracle.verify_dual_feasible"),
        "oracle.cost_ratio_p50": _median(ratios),
        "oracle.cost_ratio_max": max(ratios, default=0.0),
        "io.load_result_s": seconds("io.load_result"),
        "geometry.distances_s": seconds("geometry.distances", parent_is("bench.setup")),
        "trace.overhead_s": seconds("search.min_sum_clustering") - untraced_wall,
    }


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------- output

def report(workload, cases, outcomes, metrics, units, problems, raw=None) -> None:
    failed = [(c, o) for c, o in zip(cases, outcomes) if o.failed]
    print(f"workload {workload}: {len(cases)} instances, one closed-loop caller, "
          f"{sum(len(o.times) for o in outcomes)} timed solves")
    for case, out in failed:
        why = out.error or "; ".join(out.audit_failures) or "audit failed"
        print(f"  FAILED {case.label}: {why}")
    print(f"  fail_frac {len(failed)}/{len(cases)}")
    for problem in problems:
        print(f"  CHECK FAILED {problem}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    for name, value in (raw or {}).items():
        print(f"  (raw) {name} {value:.6g} s")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(cases),
        "failed": len(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
