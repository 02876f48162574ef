"""File formats: point/matrix CSV input and the plain-text result record.

Every float is written with 17 significant digits, which round-trips IEEE
doubles exactly, so saving and re-loading a result preserves all values.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import DistanceMode, Instance, InstanceError
from .search import Branch, ClusteringResult, DualCertificate

RESULT_HEADER = "minsum-result 1"


class FormatError(ValueError):
    """Malformed input or result file."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def load_points(path) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = [f for f in line.replace(",", " ").split() if f]
            try:
                row = [float(f) for f in fields]
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: bad number ({exc})") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise FormatError(f"{path}:{lineno}: expected {width} columns")
            rows.append(row)
    if not rows:
        raise FormatError(f"{path}: no points found")
    return np.asarray(rows)


def save_points(points: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.atleast_2d(points):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def load_instance(path, mode, k: int, n_prime: int, epsilon: float) -> Instance:
    """Read a points or matrix CSV and build a validated instance."""
    mode = DistanceMode(mode)
    data = load_points(path)
    if mode is DistanceMode.SQEUCLIDEAN:
        return Instance(mode=mode, k=k, n_prime=n_prime, epsilon=epsilon, points=data)
    return Instance(mode=mode, k=k, n_prime=n_prime, epsilon=epsilon, dist_matrix=data)


def save_result(result: ClusteringResult, path) -> None:
    lines = [
        RESULT_HEADER,
        f"mode {result.mode.value}",
        f"n {result.n}",
        f"k {result.k}",
        f"n_prime {result.n_prime}",
        f"epsilon {_fmt(result.epsilon)}",
        f"branch {result.branch.value}",
        f"b {result.base}",
        f"c_eps {_fmt(result.c_eps)}",
        f"exact {1 if result.exact else 0}",
        f"lambda_low {_fmt(result.lambda_low)}",
        f"lambda_high {_fmt(result.lambda_high)}",
        f"rho1 {_fmt(result.rho1)}",
        f"total_cost {_fmt(result.total_cost)}",
    ]
    for c in result.clusters:
        lines.append("cluster " + " ".join(str(i) for i in sorted(c)))
    lines.append("outliers " + " ".join(str(i) for i in sorted(result.outliers)))
    for cert in result.certificates:
        lines.append(
            "certificate "
            + _fmt(cert.lam)
            + " "
            + " ".join(_fmt(a) for a in cert.alpha)
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_result(path) -> ClusteringResult:
    """Read a result file, checking that every number parses and is finite,
    and its point indices and certificate lengths against the n in its own
    header."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines or lines[0] != RESULT_HEADER:
        raise FormatError(f"{path}: not a result file")
    scalars: dict[str, str] = {}
    clusters: list[set[int]] = []
    outliers: set[int] = set()
    certificates: list[list[float]] = []
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        if key == "cluster":
            clusters.append({_number(path, v, int) for v in rest.split()})
        elif key == "outliers":
            outliers = {_number(path, v, int) for v in rest.split()}
        elif key == "certificate":
            certificates.append([_number(path, v) for v in rest.split()])
        else:
            scalars[key] = rest
    try:
        n = _number(path, scalars["n"], int)
        if scalars["exact"] not in ("0", "1"):
            raise FormatError(f"{path}: exact flag {scalars['exact']!r} is not 0 or 1")
        result = ClusteringResult(
            clusters=clusters,
            outliers=outliers,
            total_cost=_number(path, scalars["total_cost"]),
            lambda_low=_number(path, scalars["lambda_low"]),
            lambda_high=_number(path, scalars["lambda_high"]),
            rho1=_number(path, scalars["rho1"]),
            branch=Branch(scalars["branch"]),
            base=_number(path, scalars["b"], int),
            c_eps=_number(path, scalars["c_eps"]),
            exact=scalars["exact"] == "1",
            mode=DistanceMode(scalars["mode"]),
            n=n,
            k=_number(path, scalars["k"], int),
            n_prime=_number(path, scalars["n_prime"], int),
            epsilon=_number(path, scalars["epsilon"]),
        )
    except KeyError as exc:
        raise FormatError(f"{path}: missing field {exc}") from None
    for members in [*clusters, outliers]:
        bad = [i for i in members if not 0 <= i < n]
        if bad:
            raise FormatError(f"{path}: point index {min(bad)} outside [0, {n})")
    for vals in certificates:
        if len(vals) != n + 1:
            raise FormatError(
                f"{path}: certificate holds {len(vals)} numbers, expected n + 1 = {n + 1}"
            )
        result.certificates.append(DualCertificate(vals[0], np.asarray(vals[1:])))
    return result


def _number(path, text: str, kind=float):
    """``text`` read as a finite float, or as an int with ``kind=int``."""
    try:
        value = kind(text)
    except ValueError:
        raise FormatError(f"{path}: cannot read {text!r} as {kind.__name__}") from None
    if not math.isfinite(value):
        raise FormatError(f"{path}: non-finite number {text!r}")
    return value


def save_plot_data(inst: Instance, result: ClusteringResult, path) -> None:
    """Dump 2D coordinates with cluster labels for external plotting.

    Labels are cluster positions in the result, -1 for outliers.  Only
    coordinate instances can be dumped; 1D points get a zero y column.
    """
    if inst.mode is not DistanceMode.SQEUCLIDEAN:
        raise InstanceError("plot data needs coordinate (sqeuclid) input")
    label = np.full(inst.n, -1, dtype=int)
    for ci, members in enumerate(result.clusters):
        for x in members:
            label[x] = ci
    pts = inst.points
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,label\n")
        for i in range(inst.n):
            x = pts[i, 0]
            y = pts[i, 1] if pts.shape[1] > 1 else 0.0
            fh.write(f"{_fmt(x)},{_fmt(y)},{label[i]}\n")
