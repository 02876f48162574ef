"""Benchmark for the minsumclust solver, used as a library.

    python3 perfbench/run.py --workload pd_scale --seed 0 --seconds 30 --trace 0

One process, one caller, no worker threads, BLAS pinned to one thread: the
instances of a workload are solved one after another in a closed loop:
each once, then in turn while the next solve is expected to end within
``--seconds``.  Each timed solve gets a fresh copy of its instance (distance
matrix precomputed), so no solve profits from caches an earlier solve left.
Every workload is a fixed suite; ``--seed`` relabels its points.

Every result is audited, saved and re-loaded; the benchmark checks that
repeats of one instance agree bit for bit, that the round trip preserves
clusters, cost and certificates and the audit verdict, and (with
``--trace 1``) that the traced run returns exactly what the untraced run
returned.  Solver errors and failed audits are counted in ``failed``, never
skipped.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports the
end-to-end metrics, with solve times in units of a fixed reference loop
timed in the same run, ``--trace 1`` the per-layer metrics of a separate
traced pass.  The phases and metrics live in ``harness.py``; ``perfbench/README.md``
says what each metric means.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import minsumclust
    except ImportError as exc:
        print(f"error: cannot import minsumclust from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC.resolve() not in Path(minsumclust.__file__).resolve().parents:
        print(f"error: minsumclust was imported from {minsumclust.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    cases = workloads.WORKLOADS[args.workload](args.seed)
    workdir = OUT_DIR / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    raw = None
    try:
        if args.trace:
            metrics, outcomes, problems, recorder = harness.traced_run(cases, workdir)
            recorder.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics, outcomes, problems, raw = harness.untraced_run(cases, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = problems + [f"{cases[j].label}: {p}"
                           for j, o in enumerate(outcomes) for p in o.problems]
    units = harness.LAYER_UNITS if args.trace else harness.E2E_UNITS
    harness.report(args.workload, cases, outcomes, metrics, units, problems, raw)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
