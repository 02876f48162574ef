"""``tools/fingerprint.py --compare`` on two hand-made fingerprints."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "fingerprint.py"


def case(cost, clusters):
    return {"clusters": clusters, "total_cost": float(cost).hex(), "audit_ok": True}


def compare(tmp_path, cases_a, cases_b):
    paths = []
    for name, cases, scans in (("a", cases_a, 100), ("b", cases_b, 40)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"cases": cases, "pair_scans": {"pd_scale/0": scans}}))
        paths.append(str(path))
    return subprocess.run([sys.executable, str(TOOL), "--compare", *paths],
                          capture_output=True, text=True)


def test_identical_fingerprints_exit_zero(tmp_path):
    cases = {"pd_scale/0/gauss-k8": case(2.5, [[0, 1], [2]])}
    run = compare(tmp_path, cases, cases)
    assert run.returncode == 0
    assert run.stdout.splitlines() == [
        "identical 1 of 1, moved 0",
        'pair_scans A: {"pd_scale/0": 100}',
        'pair_scans B: {"pd_scale/0": 40}',
    ]


def test_a_moved_case_lists_its_fields_and_cost_change(tmp_path):
    cases_a = {"x/same": case(1.0, [[0]]), "x/moved": case(2.0, [[0, 1]]),
               "x/gone": case(3.0, [[0]])}
    cases_b = {"x/same": case(1.0, [[0]]), "x/moved": case(3.0, [[0], [1]]),
               "x/new": {"error": "RuntimeError: boom"}}
    run = compare(tmp_path, cases_a, cases_b)
    assert run.returncode == 1
    assert run.stdout.splitlines()[:4] == [
        "identical 1 of 4, moved 3",
        "moved x/moved: clusters, total_cost; total_cost 2 -> 3 (+1, +50.00 %)",
        "moved x/gone: only in A",
        "moved x/new: only in B",
    ]
