"""Command line, run in-process through ``main``.

``test_flow`` is the table of end-to-end flows, gen -> cluster (twice) ->
verify, and oracle on an exact result, one row per branch and distance
mode; CI runs it again on the installed package, from outside the
checkout.  The other tests cover bad parameters, clean exit codes on
internal errors, and tampered result files."""

from types import SimpleNamespace

import numpy as np
import pytest

from minsumclust import cli, dual, search
from minsumclust.assembly import AssembledCluster, AssembledClustering
from minsumclust.geometry import REL_TOL
from minsumclust.io import load_result, save_points

SUBCOMMANDS = ["gen", "cluster", "verify", "oracle"]
# k > 4 / epsilon, so the primal-dual branch runs and certificates are saved
CLUSTER_FLAGS = ["--k", "5", "--nprime", "11", "--epsilon", "1"]


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module", params=["sqeuclid", "metric"])
def solved(request, tmp_path_factory):
    """An instance file and its result file, written by gen and cluster."""
    mode = request.param
    family = "box" if mode == "sqeuclid" else "metric"
    tmp = tmp_path_factory.mktemp(mode)
    data, result = tmp / "data.csv", tmp / "result.txt"
    assert cli.main(["gen", "--family", family, "--seed", "3", "--n", "12",
                     "--output", str(data)]) == 0
    assert cli.main(["cluster", "--input", str(data), "--mode", mode, *CLUSTER_FLAGS,
                     "--output", str(result)]) == 0
    return SimpleNamespace(mode=mode, data=data, result=result)


def verify(capsys, solved, result):
    """Run verify on a result file with the flags the instance was clustered
    with."""
    return run(capsys, "verify", "--input", solved.data, "--mode", solved.mode,
               *CLUSTER_FLAGS, "--result", result)


def tampered(solved, tmp_path, key, change):
    """A copy of the solved result file whose first ``key`` line is
    replaced by ``change(line)``."""
    lines = solved.result.read_text().splitlines()
    pos = next(i for i, line in enumerate(lines) if line.split(" ", 1)[0] == key)
    lines[pos] = change(lines[pos])
    path = tmp_path / "tampered.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_help_for_every_subcommand(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([sub, "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


# The end-to-end flows, one row each: (gen family, gen flags, mode, k, n',
# expected branch).  Every row generates with --seed 3 and clusters with
# --epsilon 1 and --seed 7.  CI runs this table on the installed package.
FLOWS = [
    # the README flow: k > 4/epsilon runs the primal-dual search
    pytest.param("box", ["--n", 12], "sqeuclid", 5, 11, "bipoint_high", id="readme-sqeuclid-12"),
    pytest.param("metric", ["--n", 12], "metric", 5, 11, "bipoint_high", id="readme-metric-12"),
    pytest.param("box", ["--n", 10], "sqeuclid", 5, 9, "bipoint_high", id="readme-sqeuclid-10"),
    pytest.param("metric", ["--n", 10], "metric", 5, 9, "bipoint_high", id="readme-metric-10"),
    # k <= 4/epsilon: the exact subset DP at n = 13, the local search past
    # its budget at n = 40
    pytest.param("box", ["--n", 13], "sqeuclid", 2, 12, "small_k", id="subset-dp-sqeuclid"),
    pytest.param("metric", ["--n", 13], "metric", 2, 12, "small_k", id="subset-dp-metric"),
    pytest.param("box", ["--n", 40], "sqeuclid", 3, 36, "small_k", id="local-search-sqeuclid"),
    pytest.param("metric", ["--n", 40], "metric", 3, 36, "small_k", id="local-search-metric"),
    # the degenerate exit: coincident points, and k >= n'
    pytest.param("rings", ["--radii", 0, "--counts", 6], "sqeuclid", 2, 5, "degenerate",
                 id="coincident"),
    pytest.param("box", ["--n", 8], "sqeuclid", 7, 7, "degenerate", id="k-ge-nprime-sqeuclid"),
    pytest.param("metric", ["--n", 8], "metric", 7, 7, "degenerate", id="k-ge-nprime-metric"),
]


@pytest.mark.parametrize("family, gen_flags, mode, k, nprime, branch", FLOWS)
def test_flow(family, gen_flags, mode, k, nprime, branch, tmp_path, capsys):
    data = tmp_path / "data.csv"
    code, out, _ = run(capsys, "gen", "--family", family, "--seed", 3, *gen_flags,
                       "--output", data)
    assert code == 0
    n = int(out.split()[1])
    tractable = n <= 15  # the oracle's subset DP fits its budget
    flags = ["--input", data, "--mode", mode, "--k", k, "--nprime", nprime, "--epsilon", 1]

    # one --seed writes the same result file twice
    results = [tmp_path / "result.txt", tmp_path / "again.txt"]
    printed = []
    for result in results:
        code, out, _ = run(capsys, "cluster", *flags, "--seed", 7, "--output", result)
        assert code == 0
        printed.append(out.splitlines())
    assert results[0].read_bytes() == results[1].read_bytes()
    head, *audit_lines = printed[0]
    assert head.startswith(f"branch {branch} ")
    assert audit_lines[-1] == "audit PASS"
    # scored against the oracle wherever it is tractable
    assert any(line.startswith("cost_ratio ") for line in audit_lines) == tractable

    code, out, _ = run(capsys, "verify", *flags, "--result", results[0])
    assert code == 0
    assert out.splitlines() == audit_lines

    result = load_result(results[0])
    assert bool(result.certificates) == branch.startswith("bipoint")
    assert result.exact == (branch == "degenerate" or branch == "small_k" and tractable)
    if result.exact:
        code, out, _ = run(capsys, "oracle", *flags)
        assert code == 0
        opt, *clusters, outliers = out.splitlines()
        assert opt.startswith("opt_cost ") and outliers.split(" ")[0] == "outliers"
        members = [set(map(int, line.split()[1:])) for line in clusters]
        assert all(line.split(" ")[0] == "cluster" for line in clusters)
        assert set(map(int, outliers.split()[1:])) == set(range(n)).difference(*members)
        # the subset DP and cluster_cost sum a cluster's distances in
        # different orders
        cost, opt_cost = float(head.split()[-1]), float(opt.split()[1])
        assert abs(cost - opt_cost) <= REL_TOL * max(abs(cost), abs(opt_cost))


@pytest.mark.parametrize("flags, message", [
    (["--family", "metric", "--embed-dim", "0"], "metric embed_dim must be positive"),
    (["--family", "metric", "--embed-dim", "-2"], "metric embed_dim must be positive"),
    (["--family", "gauss", "--spreads=-1,0.5"], "gauss spreads must be finite and nonnegative"),
    (["--family", "gauss", "--centers", "0,0;4"], "gauss centers must be points of one dimension"),
    (["--family", "rings", "--noise=-1"], "rings noise must be finite and nonnegative"),
    (["--family", "rings", "--noise=nan"], "rings noise must be finite and nonnegative"),
    (["--family", "rings", "--radii=-1,5"], "rings radii must be finite and nonnegative"),
    (["--family", "box", "--dims", "1,nan"], "box dims must be finite positive lengths"),
    (["--family", "rings", "--radii", "1,2", "--counts", "3"],
     "rings needs matching, nonempty radii and counts"),
    (["--family", "rings", "--counts", "0,3"], "ring counts must be positive"),
    (["--family", "gauss", "--spreads", "0.5"], "gauss needs matching centers, spreads, counts"),
    (["--family", "gauss", "--counts", "0,3"], "mixture counts must be positive"),
    (["--family", "metric", "--n", "0"], "metric needs a positive point count"),
], ids=["embed-zero", "embed-negative", "spread-negative", "centers-ragged",
        "noise-negative", "noise-nan", "radius-negative", "dims-nan", "rings-unmatched",
        "ring-count-zero", "gauss-unmatched", "gauss-count-zero", "metric-no-points"])
def test_gen_rejects_bad_parameters(flags, message, tmp_path, capsys):
    output = tmp_path / "data.csv"
    code, _, err = run(capsys, "gen", "--seed", 0, "--n", 4, *flags, "--output", output)
    assert code == 2
    assert err == f"error: {message}\n"
    assert not output.exists()


@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_gen_rejects_a_seed_numpy_cannot_take(seed, tmp_path, capsys):
    output = tmp_path / "data.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--family", "box", "--seed", seed, "--n", "4", "--output", str(output)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: argument --seed: expected a nonnegative integer, got '{seed}'\n")
    assert not output.exists()


# k > 4/epsilon runs the primal-dual search; k <= 4/epsilon runs the subset
# DP at n = 12 and the local search at n = 20
@pytest.mark.parametrize("n, k, branch, exact", [
    (12, 5, "bipoint", False), (12, 2, "small_k", True), (20, 2, "small_k", False),
], ids=["primal-dual", "subset-dp", "local-search"])
@pytest.mark.parametrize("mode", ["sqeuclid", "metric"])
def test_cluster_rejects_a_negative_seed_on_every_branch(mode, n, k, branch, exact,
                                                         tmp_path, capsys):
    data, output = tmp_path / "data.csv", tmp_path / "out.txt"
    family = "box" if mode == "sqeuclid" else "metric"
    assert run(capsys, "gen", "--family", family, "--seed", 3, "--n", n, "--output", data)[0] == 0
    flags = ["cluster", "--input", data, "--mode", mode, "--k", k, "--nprime", n - 1,
             "--epsilon", 1, "--output", output]
    with pytest.raises(SystemExit) as exc:
        run(capsys, *flags, "--seed", -1)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --seed: expected a nonnegative integer, got '-1'\n")
    assert not output.exists()
    code, out, _ = run(capsys, *flags, "--seed", 1)
    assert code == 0 and out.startswith(f"branch {branch}")
    assert load_result(output).exact is exact


@pytest.mark.parametrize("error", [RuntimeError("planted")])
def test_internal_error_exits_one(solved, error, monkeypatch, capsys, tmp_path):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "min_sum_clustering", fail)
    code, _, err = run(capsys, "cluster", "--input", solved.data, *CLUSTER_FLAGS,
                       "--output", tmp_path / "out.txt")
    assert code == 1
    assert err == "error: planted\n"


def plant_phase1_fault(monkeypatch):
    monkeypatch.setattr(dual, "worst_slack", lambda state: 1.0)
    return "dual constraint violated by 1.000e+00 after ascent"


def plant_phase2_fault(monkeypatch):
    run_phase2 = search.run_phase2

    def overlapping(*args):
        parts = run_phase2(*args)
        return [*parts, parts[0]]

    monkeypatch.setattr(search, "run_phase2", overlapping)
    return "parts overlap on ["


def plant_phase3_fault(monkeypatch):
    # a top-bucket cluster at scale 0 holds at most 2 * 2**2 = 8 points
    oversized = AssembledClustering([AssembledCluster(set(range(9)), 0, True, False)], set())
    monkeypatch.setattr(search, "run_phase3", lambda assignments, base: oversized)
    return "cluster 0 has 9 points, cap 8"


@pytest.mark.parametrize("plant", [plant_phase1_fault, plant_phase2_fault, plant_phase3_fault],
                         ids=["phase1", "phase2", "phase3"])
def test_broken_phase_guarantee_exits_one(solved, plant, monkeypatch, capsys, tmp_path):
    message = plant(monkeypatch)
    output = tmp_path / "out.txt"
    code, _, err = run(capsys, "cluster", "--input", solved.data, "--mode", solved.mode,
                       *CLUSTER_FLAGS, "--output", output)
    assert code == 1
    assert err.startswith("error: probe at lambda ") and message in err
    assert not output.exists()


@pytest.mark.parametrize("epsilon", ["1e-310", "1e-120", "3e-103"])
@pytest.mark.parametrize("sub", ["cluster", "oracle"])
def test_too_small_epsilon_exits_two(solved, sub, epsilon, tmp_path, capsys):
    output = tmp_path / "out.txt"
    extra = ["--output", output] if sub == "cluster" else []
    code, _, err = run(capsys, sub, "--input", solved.data, "--mode", solved.mode,
                       "--k", 5, "--nprime", 11, "--epsilon", epsilon, *extra)
    assert code == 2
    assert err == (f"error: epsilon {float(epsilon)!r} is too small: the cost constant "
                   "of its scale base does not fit a finite float\n")
    assert not output.exists()


# Each instance overflows a float somewhere: a squared distance (1e160**2,
# and (2e200)**2 on the small-k branch), the total pairwise cost (every
# distance finite, the largest 1.69e308), or only the tightness tolerance at
# that total (127 points in [0, 1] and one at 3.2e152, k = 20, n' = 120).
@pytest.mark.parametrize("points, k, nprime, force, message", [
    ([0, 1e160, 3, 4], 2, 4, True, "points too far apart: a squared distance overflows a float"),
    ([0, 1e200, 2e200, 5], 2, 4, False,
     "points too far apart: a squared distance overflows a float"),
    ([0, 1e154, -3e153, 3, 4, 5], 2, 5, True,
     "distances too large for the primal-dual search: the tightness tolerance at the "
     "total pairwise cost inf overflows a float"),
    ([*np.random.default_rng(0).uniform(0, 1, 127), 3.2e152], 20, 120, True,
     "distances too large for the primal-dual search: the tightness tolerance at the "
     "total pairwise cost 2.60096e+307 overflows a float"),
], ids=["squared-distance", "squared-distance-small-k", "total-cost", "tolerance"])
def test_overflowing_distances_exit_two(points, k, nprime, force, message, tmp_path, capsys):
    data, output = tmp_path / "data.csv", tmp_path / "out.txt"
    save_points(np.reshape(points, (-1, 1)), data)
    code, _, err = run(capsys, "cluster", "--input", data, "--k", k, "--nprime", nprime,
                       "--epsilon", 1, *(["--force-primal-dual"] if force else []),
                       "--output", output)
    assert code == 2
    assert err == f"error: {message}\n"
    assert not output.exists()


def test_plot_data_lists_every_point(tmp_path, capsys):
    data, output, plot = tmp_path / "data.csv", tmp_path / "out.txt", tmp_path / "plot.csv"
    assert run(capsys, "gen", "--family", "box", "--seed", 3, "--n", 12, "--output", data)[0] == 0
    code, _, _ = run(capsys, "cluster", "--input", data, *CLUSTER_FLAGS, "--output", output,
                     "--emit-plot-data", plot)
    assert code == 0
    lines = plot.read_text().splitlines()
    assert lines[0] == "x,y,label"
    assert len(lines) == 1 + 12 and all(len(line.split(",")) == 3 for line in lines)


def test_plot_data_of_a_metric_instance_exits_two_before_solving(tmp_path, capsys):
    data, output, plot = tmp_path / "data.csv", tmp_path / "out.txt", tmp_path / "plot.csv"
    assert run(capsys, "gen", "--family", "metric", "--seed", 3, "--n", 12,
               "--output", data)[0] == 0
    code, _, err = run(capsys, "cluster", "--input", data, "--mode", "metric", *CLUSTER_FLAGS,
                       "--output", output, "--emit-plot-data", plot)
    assert code == 2
    assert err == "error: plot data needs coordinate (sqeuclid) input\n"
    assert not output.exists() and not plot.exists()


def test_edited_cost_fails_the_audit(solved, tmp_path, capsys):
    path = tampered(solved, tmp_path, "total_cost",
                    lambda line: f"total_cost {float(line.split()[1]) * 1.5!r}")
    code, out, _ = verify(capsys, solved, path)
    assert code == 1
    assert "disagrees with recomputation" in out


def test_an_empty_cluster_fails_the_audit(solved, tmp_path, capsys):
    path = tampered(solved, tmp_path, "outliers", lambda line: f"cluster\n{line}")
    code, out, _ = verify(capsys, solved, path)
    assert code == 1
    assert out.splitlines()[-2:] == ["  cluster 5 is empty", "audit FAIL"]


def test_raised_alpha_fails_the_audit(solved, tmp_path, capsys):
    def raise_alpha(line):
        vals = line.split()
        vals[2] = repr(float(vals[2]) + 1e6)
        return " ".join(vals)

    path = tampered(solved, tmp_path, "certificate", raise_alpha)
    code, out, _ = verify(capsys, solved, path)
    assert code == 1
    assert "dual_feasible NO" in out


@pytest.mark.parametrize("value", ["-1", "-1e6"])
def test_negative_alpha_fails_the_audit(solved, tmp_path, capsys, value):
    def negate(line):
        key, lam, *alpha = line.split()
        return " ".join([key, lam, *[value] * len(alpha)])

    path = tampered(solved, tmp_path, "certificate", negate)
    code, out, _ = verify(capsys, solved, path)
    assert code == 1
    assert "dual_feasible NO" in out
    assert "holds a negative dual" in out


def test_deleted_certificates_fail_the_audit(solved, tmp_path, capsys):
    lines = solved.result.read_text().splitlines()
    path = tmp_path / "uncertified.txt"
    path.write_text("".join(f"{line}\n" for line in lines if not line.startswith("certificate")))
    code, out, _ = verify(capsys, solved, path)
    assert code == 1
    assert "dual_feasible NO" in out
    assert "result carries certificates at lambda [], expected [" in out


def test_edited_base_fails_the_audit(solved, tmp_path, capsys):
    # epsilon 1 gives scale base 2; the audit must not take the file's word
    path = tampered(solved, tmp_path, "b", lambda line: "b 3")
    code, out, _ = verify(capsys, solved, path)
    assert code == 1
    assert "result states scale base 3, but epsilon 1 gives base 2" in out


def test_edited_cost_constant_fails_the_audit(solved, tmp_path, capsys):
    path = tampered(solved, tmp_path, "c_eps", lambda line: "c_eps 1")
    code, out, _ = verify(capsys, solved, path)
    assert code == 1
    assert "result states c_eps 1, but base 2 gives 144" in out


# A unit triangle and three far points.  At lambda 9, alpha 5 on the triangle
# violates its constraint by 2 at scale base 2 (epsilon 1) and holds at base 3
# (epsilon 0.5).
SIX_POINTS = np.array([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2], [50, 50], [50, 51], [80, 0]])


@pytest.mark.parametrize("mode", ["sqeuclid", "metric"])
def test_edited_epsilon_cannot_pass_an_infeasible_certificate(mode, tmp_path, capsys):
    data, result = tmp_path / "data.csv", tmp_path / "result.txt"
    if mode == "sqeuclid":
        save_points(SIX_POINTS, data)
    else:
        save_points(np.sqrt(((SIX_POINTS[:, None] - SIX_POINTS[None]) ** 2).sum(axis=-1)), data)
    flags = ["--input", data, "--mode", mode, "--k", 3, "--nprime", 6, "--epsilon", 1]
    assert run(capsys, "cluster", *flags, "--output", result)[0] == 0
    # a header consistent with epsilon 0.5 throughout
    edits = {"epsilon": "epsilon 0.5", "b": "b 3", "c_eps": "c_eps 243"}
    lines = [edits.get(line.split(" ", 1)[0], line) for line in result.read_text().splitlines()]
    result.write_text("\n".join([*lines, "certificate 9 5 5 5 0 0 0"]) + "\n")
    code, out, _ = run(capsys, "verify", *flags, "--result", result)
    assert code == 1
    assert "dual_feasible NO (worst slack 2.000e+00)" in out
    assert "result states epsilon 0.5, but the instance has 1.0" in out
    assert "result states scale base 3, but epsilon 1 gives base 2" in out


def test_verify_rejects_an_instance_of_another_size(solved, tmp_path, capsys):
    data = tmp_path / "data.csv"
    family = "box" if solved.mode == "sqeuclid" else "metric"
    assert run(capsys, "gen", "--family", family, "--seed", 3, "--n", 13, "--output", data)[0] == 0
    code, _, err = run(capsys, "verify", "--input", data, "--mode", solved.mode,
                       *CLUSTER_FLAGS, "--result", solved.result)
    assert code == 2
    assert err == "error: result was computed on n=12, input has n=13\n"


@pytest.mark.parametrize("key, change, message", [
    ("cluster", lambda line: line + " 12", "point index 12 outside [0, 12)"),
    ("outliers", lambda line: line + " -1", "point index -1 outside [0, 12)"),
    ("certificate", lambda line: "certificate", "certificate holds 0 numbers"),
    ("certificate", lambda line: line.rsplit(" ", 1)[0], "certificate holds 12 numbers"),
    ("certificate", lambda line: line + " 0", "certificate holds 14 numbers"),
    ("total_cost", lambda line: "total_cost nan", "non-finite number 'nan'"),
    ("total_cost", lambda line: "total_cost inf", "non-finite number 'inf'"),
    ("certificate", lambda line: " ".join([*line.split()[:2], "nan", *line.split()[3:]]),
     "non-finite number 'nan'"),
    ("cluster", lambda line: line + " x", "cannot read 'x' as int"),
    ("rho1", lambda line: "rho1 1..0", "cannot read '1..0' as float"),
    ("exact", lambda line: "exact yes", "exact flag 'yes' is not 0 or 1"),
    ("mode", lambda line: "mode cosine", "cannot read 'cosine' as DistanceMode"),
    ("branch", lambda line: "branch bipoint_mid", "cannot read 'bipoint_mid' as Branch"),
    ("k", lambda line: f"k 7\n{line}", "key 'k' appears twice"),
    ("outliers", lambda line: f"{line}\n{line}", "key 'outliers' appears twice"),
    ("rho1", lambda line: f"{line}\nbogus 1", "unknown key 'bogus'"),
], ids=["cluster-index", "outlier-index", "empty-certificate", "short-certificate",
        "long-certificate", "nan-cost", "inf-cost", "nan-alpha", "bad-index",
        "bad-number", "bad-exact", "bad-mode", "bad-branch", "repeated-key",
        "repeated-outliers", "unknown-key"])
def test_malformed_result_exits_two(solved, key, change, message, tmp_path, capsys):
    path = tampered(solved, tmp_path, key, change)
    code, _, err = verify(capsys, solved, path)
    assert code == 2
    assert err.startswith(f"error: {path}: ") and message in err
