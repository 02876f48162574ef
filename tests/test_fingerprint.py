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


def test_a_changed_verdict_is_printed(tmp_path):
    failing = {**case(1.0, [[0]]), "audit_ok": False}
    run = compare(tmp_path, {"x/fails": case(1.0, [[0]]), "x/passes": failing},
                  {"x/fails": failing, "x/passes": case(2.0, [[0]])})
    assert run.returncode == 1
    assert run.stdout.splitlines()[:3] == [
        "identical 0 of 2, moved 2",
        "moved x/fails: audit_ok; audit PASS -> FAIL",
        "moved x/passes: audit_ok, total_cost; total_cost 1 -> 2 (+1, +100.00 %); "
        "audit FAIL -> PASS",
    ]


def test_every_counter_is_printed_in_file_order(tmp_path):
    # the eight counters in the order a fingerprint writes them; one that B
    # lacks is printed as null
    cases = {"pd_scale/0/gauss-k8": case(2.5, [[0, 1], [2]])}
    keys = ["pair_scans", "opening_scans", "screen_rows", "slack_rows", "tight_sets",
            "probes", "events", "witness_calls"]
    paths = []
    for name, offset in (("a", 10), ("b", 20)):
        counts = {key: {"pd_scale/0": offset + i} for i, key in enumerate(keys)
                  if name == "a" or key != "tight_sets"}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"cases": cases, **counts}))
        paths.append(str(path))
    run = subprocess.run([sys.executable, str(TOOL), "--compare", *paths],
                         capture_output=True, text=True)
    assert run.returncode == 0  # reported, not compared
    assert run.stdout.splitlines() == [
        "identical 1 of 1, moved 0",
        'pair_scans A: {"pd_scale/0": 10}',
        'pair_scans B: {"pd_scale/0": 20}',
        'opening_scans A: {"pd_scale/0": 11}',
        'opening_scans B: {"pd_scale/0": 21}',
        'screen_rows A: {"pd_scale/0": 12}',
        'screen_rows B: {"pd_scale/0": 22}',
        'slack_rows A: {"pd_scale/0": 13}',
        'slack_rows B: {"pd_scale/0": 23}',
        'tight_sets A: {"pd_scale/0": 14}',
        "tight_sets B: null",
        'probes A: {"pd_scale/0": 15}',
        'probes B: {"pd_scale/0": 25}',
        'events A: {"pd_scale/0": 16}',
        'events B: {"pd_scale/0": 26}',
        'witness_calls A: {"pd_scale/0": 17}',
        'witness_calls B: {"pd_scale/0": 27}',
    ]


def test_probe_counts_follow_the_pair_scans(tmp_path):
    cases = {"pd_scale/0/gauss-k8": case(2.5, [[0, 1], [2]])}
    paths = []
    for name, probes in (("a", 70), ("b", 64)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"cases": cases, "pair_scans": {"pd_scale/0": 100},
                                    "probes": {"pd_scale/0": probes}}))
        paths.append(str(path))
    run = subprocess.run([sys.executable, str(TOOL), "--compare", *paths],
                         capture_output=True, text=True)
    assert run.returncode == 0
    assert run.stdout.splitlines() == [
        "identical 1 of 1, moved 0",
        'pair_scans A: {"pd_scale/0": 100}',
        'pair_scans B: {"pd_scale/0": 100}',
        'probes A: {"pd_scale/0": 70}',
        'probes B: {"pd_scale/0": 64}',
    ]


def test_screen_rows_are_printed_between_pair_scans_and_probes(tmp_path):
    cases = {"pd_scale/0/gauss-k8": case(2.5, [[0, 1], [2]])}
    paths = []
    for name, rows in (("a", 900), ("b", 120)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"cases": cases, "pair_scans": {"pd_scale/0": 100},
                                    "screen_rows": {"pd_scale/0": rows},
                                    "probes": {"pd_scale/0": 70}}))
        paths.append(str(path))
    run = subprocess.run([sys.executable, str(TOOL), "--compare", *paths],
                         capture_output=True, text=True)
    assert run.returncode == 0  # reported, not compared
    assert run.stdout.splitlines()[1:] == [
        'pair_scans A: {"pd_scale/0": 100}',
        'pair_scans B: {"pd_scale/0": 100}',
        'screen_rows A: {"pd_scale/0": 900}',
        'screen_rows B: {"pd_scale/0": 120}',
        'probes A: {"pd_scale/0": 70}',
        'probes B: {"pd_scale/0": 70}',
    ]


def test_slack_rows_are_printed_between_screen_rows_and_probes(tmp_path):
    cases = {"pd_scale/0/gauss-k8": case(2.5, [[0, 1], [2]])}
    paths = []
    for name, rows in (("a", 63232), ("b", 5366)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"cases": cases, "pair_scans": {"pd_scale/0": 100},
                                    "screen_rows": {"pd_scale/0": 900},
                                    "slack_rows": {"pd_scale/0": rows},
                                    "probes": {"pd_scale/0": 70}}))
        paths.append(str(path))
    run = subprocess.run([sys.executable, str(TOOL), "--compare", *paths],
                         capture_output=True, text=True)
    assert run.returncode == 0  # reported, not compared
    assert run.stdout.splitlines()[3:] == [
        'screen_rows A: {"pd_scale/0": 900}',
        'screen_rows B: {"pd_scale/0": 900}',
        'slack_rows A: {"pd_scale/0": 63232}',
        'slack_rows B: {"pd_scale/0": 5366}',
        'probes A: {"pd_scale/0": 70}',
        'probes B: {"pd_scale/0": 70}',
    ]


def test_opening_scans_are_printed_after_pair_scans(tmp_path):
    cases = {"pd_scale/0/gauss-k8": case(2.5, [[0, 1], [2]])}
    paths = []
    for name, scans in (("a", 2186), ("b", 716)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"cases": cases, "pair_scans": {"pd_scale/0": 100},
                                    "opening_scans": {"pd_scale/0": scans},
                                    "screen_rows": {"pd_scale/0": 900},
                                    "probes": {"pd_scale/0": 70}}))
        paths.append(str(path))
    run = subprocess.run([sys.executable, str(TOOL), "--compare", *paths],
                         capture_output=True, text=True)
    assert run.returncode == 0  # reported, not compared
    assert run.stdout.splitlines()[1:7] == [
        'pair_scans A: {"pd_scale/0": 100}',
        'pair_scans B: {"pd_scale/0": 100}',
        'opening_scans A: {"pd_scale/0": 2186}',
        'opening_scans B: {"pd_scale/0": 716}',
        'screen_rows A: {"pd_scale/0": 900}',
        'screen_rows B: {"pd_scale/0": 900}',
    ]


def test_events_and_witness_calls_are_printed_after_probes(tmp_path):
    cases = {"pd_scale/0/gauss-k8": case(2.5, [[0, 1], [2]])}
    paths = []
    for name, events, witnesses in (("a", 2114, 28218), ("b", 895, 233)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"cases": cases, "pair_scans": {"pd_scale/0": 100},
                                    "probes": {"pd_scale/0": 70},
                                    "events": {"pd_scale/0": events},
                                    "witness_calls": {"pd_scale/0": witnesses}}))
        paths.append(str(path))
    run = subprocess.run([sys.executable, str(TOOL), "--compare", *paths],
                         capture_output=True, text=True)
    assert run.returncode == 0  # reported, not compared
    assert run.stdout.splitlines()[3:] == [
        'probes A: {"pd_scale/0": 70}',
        'probes B: {"pd_scale/0": 70}',
        'events A: {"pd_scale/0": 2114}',
        'events B: {"pd_scale/0": 895}',
        'witness_calls A: {"pd_scale/0": 28218}',
        'witness_calls B: {"pd_scale/0": 233}',
    ]
