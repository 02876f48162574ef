"""Fingerprint the solver's outputs on a fixed set of 302 cases.

Usage: python tools/fingerprint.py [TREE] > fingerprint.json
       python tools/fingerprint.py --compare A.json B.json

Imports ``minsumclust`` from TREE/src (default: this checkout) and solves
every case of the ``pd_scale``, ``pd_small`` and ``small_k`` workloads at
seeds 0 and 3001 (102 cases), plus ``simplex_recipe`` at seeds 0-199
(forced primal-dual).  The inputs always come from this checkout's
``perfbench/workloads.py`` and ``tests/instances.py``, so two trees are
fingerprinted on the same instances.  Prints one JSON object, one case a
line, so two fingerprints can be compared with ``diff``:

- ``cases``: per case, the clusters in order, the outliers, the total cost,
  the lambda endpoints and rho1 (floats in hex), the branch, the exact flag,
  each certificate's lambda in hex with a SHA-1 of its alpha bytes, and the
  audit's verdict, messages, ``dual_feasible`` flag and worst constraint
  slack in hex (scored against the exact optimum where the workload asks).
  A solve that raises is recorded as its error.
- ``pair_scans``: calls of ``dual._pair_scan`` made by the solves (not by
  the audits), per workload and seed.  Reported, not compared.
- ``opening_scans``: those of the ``pair_scans`` made inside an ascent's
  opening event, the ``dual.next_event`` call whose state has every dual
  zero and every point active.  Reported, not compared.
- ``screen_rows``: the (y, exp) rows ``dual._margin_bounds`` computes for
  ``dual._screen`` during the solves, counted the same way.  Reported, not
  compared.
- ``slack_rows``: the rows it computes for ``dual.worst_slack`` (once per
  ascent, in its check), counted the same way.  Reported, not compared.
- ``tight_sets``: calls of ``dual._tight_set`` made by the solves, counted
  the same way.  Reported, not compared.
- ``probes``: calls of ``search.probe`` (one pipeline run at one lambda)
  made by the solves, counted the same way.  Reported, not compared.
- ``events``: calls of ``dual.next_event`` made by the solves, counted the
  same way.  ``dual.run_phase1`` takes the joins ready at increment 0
  together, so a batch of them makes one call.  Reported, not compared.
- ``witness_calls``: calls of ``conflicts.conflict_witnesses`` made by the
  solves, counted the same way.  Reported, not compared.

It takes about 20 s on one core of a shared 2-core host.

``--compare A.json B.json`` reads two fingerprints and classifies each case
as identical or moved.  For every moved case it lists the fields that
differ, the change in ``total_cost`` and a change of audit verdict
(``audit PASS -> FAIL``), then prints both files' value of every other
key, the counters, in A's order, then the keys only B has (null where a
file lacks one).  It exits 1 when a case moved, or is in one file only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SEEDS = (0, 3001)
WORKLOADS = ("pd_scale", "pd_small", "small_k")
SIMPLEX_SEEDS = range(200)


def main(tree: Path) -> None:
    sys.path[:0] = [str(tree / "src"), str(HERE / "perfbench"), str(HERE / "tests")]
    import minsumclust

    if not Path(minsumclust.__file__).resolve().is_relative_to(tree / "src"):
        sys.exit(f"minsumclust was imported from {minsumclust.__file__}, not {tree / 'src'}")

    import numpy as np
    import workloads
    from instances import simplex_recipe
    from minsumclust import conflicts, dual, search
    from minsumclust.oracle import audit, brute_force_opt
    from minsumclust.search import min_sum_clustering

    # the counted function of each output key; min_sum_clustering looks each
    # one up as a module global, so patching the module counts its calls
    counted = {"pair_scans": (dual, "_pair_scan"), "opening_scans": (dual, "next_event"),
               "screen_rows": (dual, "_screen"), "slack_rows": (dual, "worst_slack"),
               "tight_sets": (dual, "_tight_set"), "probes": (search, "probe"),
               "events": (dual, "next_event"),
               "witness_calls": (conflicts, "conflict_witnesses")}
    # keys counted by the (y, exp) rows their function's _margin_bounds calls compute
    by_rows = {"screen_rows", "slack_rows"}
    calls = dict.fromkeys(counted, 0)
    computing = []  # the by_rows key whose function is running, if any

    def counting(key, func):
        def wrapper(*args):
            if key not in by_rows:
                calls[key] += 1
                return func(*args)
            computing.append(key)
            try:
                return func(*args)
            finally:
                computing.pop()
        return wrapper

    def counting_events(func):
        """next_event, counted by its calls and, on a state that opens an
        ascent, by the _pair_scan calls it makes."""
        def wrapper(state):
            calls["events"] += 1
            opens = state.active.all() and not state.alpha.any()
            before = calls["pair_scans"]
            try:
                return func(state)
            finally:
                if opens:
                    calls["opening_scans"] += calls["pair_scans"] - before
        return wrapper

    for key, (module, attr) in counted.items():
        if key != "opening_scans":  # the events wrapper counts it
            func = getattr(module, attr)
            wrapped = counting_events(func) if key == "events" else counting(key, func)
            setattr(module, attr, wrapped)

    margin_bounds = dual._margin_bounds

    def counting_rows(state, shift, kept):
        """The rows the (y, exp) mask holds."""
        if computing:
            calls[computing[-1]] += int(kept.sum())
        return margin_bounds(state, shift, kept)

    dual._margin_bounds = counting_rows

    def fingerprint(inst, force_primal_dual, seed=0, score=False):
        """(fingerprint of one solve and its audit, calls of each counted
        function made by the solve)."""
        before = dict(calls)

        def used():
            return {key: calls[key] - before[key] for key in counted}

        try:
            res = min_sum_clustering(inst, force_primal_dual=force_primal_dual, seed=seed)
        except Exception as exc:  # a failed solve is part of the fingerprint
            return {"error": f"{type(exc).__name__}: {exc}"}, used()
        solve_calls = used()
        report = audit(inst, res, oracle_opt=brute_force_opt(inst)[1] if score else None)
        return {
            "clusters": [sorted(c) for c in res.clusters],
            "outliers": sorted(res.outliers),
            "total_cost": float(res.total_cost).hex(),
            "lambda_low": float(res.lambda_low).hex(),
            "lambda_high": float(res.lambda_high).hex(),
            "rho1": float(res.rho1).hex(),
            "branch": res.branch.value,
            "exact": bool(res.exact),
            "certificates": [
                [float(cert.lam).hex(),
                 hashlib.sha1(np.ascontiguousarray(cert.alpha, dtype=float)).hexdigest()]
                for cert in res.certificates
            ],
            "audit_ok": report.ok,
            "audit_messages": [*report.size_bound_violations, *report.invariant_failures],
            "dual_feasible": report.dual_feasible,
            "worst_constraint_slack": float(report.worst_constraint_slack).hex(),
        }, solve_calls

    cases = {}
    totals = {key: {} for key in counted}

    def record(group, label, *args):
        cases[f"{group}/{label}"], solve_calls = fingerprint(*args)
        for key in counted:
            totals[key][group] = totals[key].get(group, 0) + solve_calls[key]

    for seed in SEEDS:
        for name in WORKLOADS:
            suite = workloads.WORKLOADS[name](seed)
            for case, inst in zip(suite, workloads.build(suite)):
                record(f"{name}/{seed}", case.label, inst, case.force_primal_dual,
                       case.solve_seed, case.score_against_opt)
    for seed in SIMPLEX_SEEDS:
        record("simplex_recipe", seed, simplex_recipe(seed), True)

    body = ",\n".join(f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                      for key, value in cases.items())
    counts = "".join(f',\n"{key}": {json.dumps(totals[key])}' for key in counted)
    print(f'{{"cases": {{\n{body}\n}}{counts}}}')


def compare(path_a: Path, path_b: Path) -> int:
    """Print how the cases of fingerprint B differ from those of A; returns
    the exit code, 1 when a case moved."""
    a, b = (json.loads(path.read_text()) for path in (path_a, path_b))
    cases_a, cases_b = a["cases"], b["cases"]
    keys = {**cases_a, **cases_b}  # A's order, then the cases only B has
    moved = []
    for key in keys:
        if key not in cases_a or key not in cases_b:
            moved.append(f"{key}: only in {'A' if key in cases_a else 'B'}")
            continue
        case_a, case_b = cases_a[key], cases_b[key]
        fields = sorted(name for name in case_a.keys() | case_b.keys()
                        if case_a.get(name) != case_b.get(name))
        if not fields:
            continue
        line = f"{key}: {', '.join(fields)}"
        if "total_cost" in fields and "total_cost" in case_a and "total_cost" in case_b:
            cost_a, cost_b = (float.fromhex(case["total_cost"]) for case in (case_a, case_b))
            change = f"{cost_b - cost_a:+.3g}"
            if cost_a:
                change += f", {100.0 * (cost_b / cost_a - 1.0):+.2f} %"
            line += f"; total_cost {cost_a:.6g} -> {cost_b:.6g} ({change})"
        if "audit_ok" in fields and "audit_ok" in case_a and "audit_ok" in case_b:
            line += "; audit {} -> {}".format(
                *("PASS" if case["audit_ok"] else "FAIL" for case in (case_a, case_b)))
        moved.append(line)
    print(f"identical {len(keys) - len(moved)} of {len(keys)}, moved {len(moved)}")
    for line in moved:
        print(f"moved {line}")
    for key in {**a, **b}:  # A's order, then the keys only B has
        if key == "cases":
            continue
        for name, data in (("A", a), ("B", b)):
            print(f"{key} {name}: {json.dumps(data.get(key))}")
    return 1 if moved else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", type=Path, default=HERE,
                        help="the tree whose src/ is fingerprinted (default: this checkout)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two fingerprint files instead")
    args = parser.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    main(args.tree.resolve())
