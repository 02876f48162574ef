"""Instance generators and file round trips."""

import itertools
import re

import numpy as np
import pytest

from minsumclust.generators import GeneratorSpec, generate
from minsumclust.geometry import DistanceMode, InstanceError
from minsumclust.io import (
    FormatError,
    load_instance,
    load_points,
    load_result,
    save_plot_data,
    save_points,
    save_result,
)
from minsumclust.search import min_sum_clustering


class TestGenerators:
    def test_rings_counts_and_radii(self):
        spec = GeneratorSpec(
            family="rings", seed=7,
            params={"radii": [1.0, 5.0], "counts": [4, 4], "noise": 0.0},
        )
        inst = generate(spec)
        assert inst.n == 8
        radii = np.linalg.norm(inst.points, axis=1)
        assert np.allclose(radii[:4], 1.0)
        assert np.allclose(radii[4:], 5.0)

    def test_box_rejects_zero_points(self):
        with pytest.raises(InstanceError):
            generate(GeneratorSpec(family="box", seed=0, params={"n": 0}))

    def test_random_metric_satisfies_triangle_inequality(self):
        inst = generate(GeneratorSpec(family="metric", seed=1, params={"n": 6}))
        d = inst.dist_matrix
        for i, j, l in itertools.product(range(6), repeat=3):
            assert d[i, l] <= d[i, j] + d[j, l] + 1e-12

    def test_gauss_counts(self):
        spec = GeneratorSpec(
            family="gauss", seed=3,
            params={"centers": [[0, 0], [9, 9]], "spreads": [0.1, 0.1], "counts": [5, 7]},
        )
        inst = generate(spec)
        assert inst.n == 12 and inst.points.shape[1] == 2

    def test_identical_specs_identical_instances(self):
        spec = GeneratorSpec(family="box", seed=11, params={"n": 20, "dims": [2.0, 3.0]})
        a, b = generate(spec), generate(spec)
        assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize("family, params, message", [
        ("metric", {"n": 4, "embed_dim": 0}, "metric embed_dim must be positive"),
        ("metric", {"n": 4, "embed_dim": -2}, "metric embed_dim must be positive"),
        ("gauss", {"spreads": [-1.0, 0.5]}, "gauss spreads must be finite and nonnegative"),
        ("gauss", {"spreads": [np.nan, 0.5]}, "gauss spreads must be finite and nonnegative"),
        ("gauss", {"centers": [[0.0, 0.0], [4.0]]}, "gauss centers must be points of one dimension"),
        ("gauss", {"centers": [0.0, 4.0]}, "gauss centers must be points of one dimension"),
        ("rings", {"noise": -1.0}, "rings noise must be finite and nonnegative"),
        ("rings", {"noise": np.nan}, "rings noise must be finite and nonnegative"),
        ("rings", {"noise": np.inf}, "rings noise must be finite and nonnegative"),
        ("rings", {"radii": [-1.0, 5.0]}, "rings radii must be finite and nonnegative"),
        ("rings", {"radii": [1.0, np.nan]}, "rings radii must be finite and nonnegative"),
        ("rings", {"radii": [np.inf, 5.0]}, "rings radii must be finite and nonnegative"),
        ("box", {"dims": [1.0, np.nan]}, "box dims must be finite positive lengths"),
        ("box", {"dims": [np.inf, 1.0]}, "box dims must be finite positive lengths"),
        ("box", {"dims": [1.0, 0.0]}, "box dims must be finite positive lengths"),
    ], ids=["embed-zero", "embed-negative", "spread-negative", "spread-nan",
            "centers-ragged", "centers-flat", "noise-negative", "noise-nan",
            "noise-inf", "radius-negative", "radius-nan", "radius-inf",
            "dims-nan", "dims-inf", "dims-zero"])
    def test_bad_parameters_are_named(self, family, params, message):
        with pytest.raises(InstanceError, match=f"^{message}$"):
            generate(GeneratorSpec(family=family, seed=0, params=params))

    def test_valid_specs_generate_the_same_bits(self):
        # checked values pass through unchanged: a noise of 0 gives exact
        # rings, an int noise draws as its float, a radius may be 0
        rings = {"radii": [0.0, 2.0], "counts": [3, 5]}
        exact = generate(GeneratorSpec(family="rings", seed=4, params={**rings, "noise": 0}))
        assert np.array_equal(np.linalg.norm(exact.points[:3], axis=1), np.zeros(3))
        noisy = [generate(GeneratorSpec(family="rings", seed=4, params={**rings, "noise": v}))
                 for v in (1, 1.0)]
        rng = np.random.default_rng(4)
        radial = np.concatenate([rng.normal(0.0, 1.0, 3), 2.0 + rng.normal(0.0, 1.0, 5)])
        angles = np.concatenate([2.0 * np.pi * np.arange(c) / c for c in (3, 5)])
        want = np.column_stack([radial * np.cos(angles), radial * np.sin(angles)])
        for inst in noisy:
            assert np.array_equal(inst.points, want)
        box = generate(GeneratorSpec(family="box", seed=6, params={"n": 5, "dims": [2, 3]}))
        want = np.random.default_rng(6).uniform(0.0, 1.0, (5, 2)) * np.array([2.0, 3.0])
        assert np.array_equal(box.points, want)

    @pytest.mark.parametrize("seed", [-1, 1.5, "6", None])
    def test_a_bad_seed_is_named(self, seed):
        # None would draw fresh entropy, so equal specs would differ
        message = f"^seed must be a nonnegative integer, got {re.escape(repr(seed))}$"
        with pytest.raises(InstanceError, match=message):
            generate(GeneratorSpec(family="box", seed=seed, params={"n": 5}))

    def test_a_numpy_integer_seed_is_the_same_seed(self):
        a, b = (generate(GeneratorSpec(family="metric", seed=s, params={"n": 5}))
                for s in (6, np.int64(6)))
        assert np.array_equal(a.dist_matrix, b.dist_matrix)

    def test_unknown_family_rejected(self):
        with pytest.raises(InstanceError):
            generate(GeneratorSpec(family="torus", seed=0))


class TestPointFiles:
    def test_csv_parses_two_points(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_text("0,0\n1,0\n")
        pts = load_points(path)
        assert pts.shape == (2, 2)
        assert pts[1, 0] == 1.0

    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(13, 3))
        path = tmp_path / "pts.csv"
        save_points(pts, path)
        assert np.array_equal(load_points(path), pts)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\n1\n")
        with pytest.raises(FormatError):
            load_points(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,zero\n")
        with pytest.raises(FormatError):
            load_points(path)

    def test_asymmetric_matrix_rejected_as_metric(self, tmp_path):
        path = tmp_path / "mat.csv"
        path.write_text("0,1\n1.001,0\n")
        with pytest.raises(InstanceError):
            load_instance(path, "metric", k=1, n_prime=2, epsilon=1.0)


class TestResultFiles:
    def _solve(self):
        spec = GeneratorSpec(
            family="box", seed=5, params={"n": 9, "dims": [2.0, 2.0]},
            k=2, n_prime=8, epsilon=1.0,
        )
        inst = generate(spec)
        return inst, min_sum_clustering(inst, force_primal_dual=True)

    def test_round_trip_preserves_membership(self, tmp_path):
        inst, res = self._solve()
        path = tmp_path / "out.result"
        save_result(res, path)
        back = load_result(path)
        assert back.clusters == res.clusters
        assert back.outliers == res.outliers
        assert back.total_cost == res.total_cost
        assert back.lambda_low == res.lambda_low
        assert back.lambda_high == res.lambda_high
        assert back.rho1 == res.rho1
        assert back.branch == res.branch
        assert back.base == res.base and back.c_eps == res.c_eps
        assert len(back.certificates) == len(res.certificates)
        for a, b in zip(back.certificates, res.certificates):
            assert a.lam == b.lam
            assert np.array_equal(a.alpha, b.alpha)

    def test_save_load_save_is_stable(self, tmp_path):
        _, res = self._solve()
        p1, p2 = tmp_path / "a.result", tmp_path / "b.result"
        save_result(res, p1)
        save_result(load_result(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.result"
        path.write_text("something else\n")
        with pytest.raises(FormatError):
            load_result(path)

    def test_plot_data_dump(self, tmp_path):
        inst, res = self._solve()
        path = tmp_path / "plot.csv"
        save_plot_data(inst, res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "x,y,label"
        assert len(lines) == inst.n + 1
        labels = {int(line.split(",")[2]) for line in lines[1:]}
        assert labels <= set(range(-1, len(res.clusters)))

    def test_plot_data_requires_coordinates(self, tmp_path):
        inst = generate(GeneratorSpec(family="metric", seed=2, params={"n": 5}))
        res = min_sum_clustering(inst)
        with pytest.raises(InstanceError):
            save_plot_data(inst, res, tmp_path / "plot.csv")
