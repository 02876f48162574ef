"""Fingerprint the solver's outputs on a fixed set of 302 cases.

Usage: python tools/fingerprint.py [TREE] > fingerprint.json

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
  audit verdict and messages (scored against the exact optimum where the
  workload asks).  A solve that raises is recorded as its error.
- ``pair_scans``: calls of ``dual._pair_scan`` made by the solves (not by
  the audits), per workload and seed.  Reported, not compared.

It takes about a minute on one core.
"""

from __future__ import annotations

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
    from minsumclust import dual
    from minsumclust.oracle import audit, brute_force_opt
    from minsumclust.search import min_sum_clustering

    scans = 0
    pair_scan = dual._pair_scan

    def counting_scan(*args):
        nonlocal scans
        scans += 1
        return pair_scan(*args)

    dual._pair_scan = counting_scan

    def fingerprint(inst, force_primal_dual, seed=0, score=False):
        """(fingerprint of one solve and its audit, pair scans of the solve)."""
        before = scans
        try:
            res = min_sum_clustering(inst, force_primal_dual=force_primal_dual, seed=seed)
        except Exception as exc:  # a failed solve is part of the fingerprint
            return {"error": f"{type(exc).__name__}: {exc}"}, scans - before
        used = scans - before
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
        }, used

    cases, pair_scans = {}, {}
    for seed in SEEDS:
        for name in WORKLOADS:
            key = f"{name}/{seed}"
            suite = workloads.WORKLOADS[name](seed)
            pair_scans[key] = 0
            for case, inst in zip(suite, workloads.build(suite)):
                cases[f"{key}/{case.label}"], used = fingerprint(
                    inst, case.force_primal_dual, case.solve_seed, case.score_against_opt)
                pair_scans[key] += used
    pair_scans["simplex_recipe"] = 0
    for seed in SIMPLEX_SEEDS:
        cases[f"simplex_recipe/{seed}"], used = fingerprint(simplex_recipe(seed), True)
        pair_scans["simplex_recipe"] += used

    body = ",\n".join(f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                      for key, value in cases.items())
    print(f'{{"cases": {{\n{body}\n}},\n"pair_scans": {json.dumps(pair_scans)}}}')


if __name__ == "__main__":
    main(Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else HERE)
