"""File formats: point/matrix CSV input and the plain-text result record.

Every float is written with 17 significant digits, which round-trips IEEE
doubles exactly, so saving and re-loading a result preserves all values.
``_HEADER`` declares the result header's lines and how each is written and read.
"""

from __future__ import annotations

import math
from functools import partial
from operator import attrgetter

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
    lines = [RESULT_HEADER]
    lines += [f"{key} {write(getattr(result, attr))}" for key, attr, write, _ in _HEADER]
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
    """Read a result file.  Every key must be known, and only ``cluster`` and
    ``certificate`` lines may repeat; every number must parse and be finite,
    and the point indices and certificate lengths must fit the n in the
    file's own header."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines or lines[0] != RESULT_HEADER:
        raise FormatError(f"{path}: not a result file")
    scalars: dict[str, str] = {}
    clusters: list[set[int]] = []
    certificates: list[list[float]] = []
    for line in lines[1:]:
        key, _, rest = line.partition(" ")
        if key == "cluster":
            clusters.append({_parse(path, v, int) for v in rest.split()})
        elif key == "certificate":
            certificates.append([_parse(path, v) for v in rest.split()])
        elif key not in _ONCE_KEYS:
            raise FormatError(f"{path}: unknown key {key!r}")
        elif key in scalars:
            raise FormatError(f"{path}: key {key!r} appears twice")
        else:
            scalars[key] = rest
    outliers = {_parse(path, v, int) for v in scalars.get("outliers", "").split()}
    try:
        header = {attr: read(path, scalars[key]) for key, attr, _, read in _HEADER}
    except KeyError as exc:
        raise FormatError(f"{path}: missing field {exc}") from None
    result = ClusteringResult(clusters=clusters, outliers=outliers, **header)
    n = result.n
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


def _parse(path, text: str, kind=float):
    """``text`` read as a finite float, or as ``kind``: int or an enum."""
    try:
        value = kind(text)
    except ValueError:
        raise FormatError(f"{path}: cannot read {text!r} as {kind.__name__}") from None
    if kind is float and not math.isfinite(value):
        raise FormatError(f"{path}: non-finite number {text!r}")
    return value


def _flag(path, text: str) -> bool:
    if text not in ("0", "1"):
        raise FormatError(f"{path}: exact flag {text!r} is not 0 or 1")
    return text == "1"


_int = partial(_parse, kind=int)
_value = attrgetter("value")
# The result header in file order: (file key, ClusteringResult attribute,
# writer, reader); a reader takes (path, text).
_HEADER = (
    ("mode", "mode", _value, partial(_parse, kind=DistanceMode)),
    ("n", "n", str, _int),
    ("k", "k", str, _int),
    ("n_prime", "n_prime", str, _int),
    ("epsilon", "epsilon", _fmt, _parse),
    ("branch", "branch", _value, partial(_parse, kind=Branch)),
    ("b", "base", str, _int),
    ("c_eps", "c_eps", _fmt, _parse),
    ("exact", "exact", lambda flag: "1" if flag else "0", _flag),
    ("lambda_low", "lambda_low", _fmt, _parse),
    ("lambda_high", "lambda_high", _fmt, _parse),
    ("rho1", "rho1", _fmt, _parse),
    ("total_cost", "total_cost", _fmt, _parse),
)
# The keys a result file holds at most once.
_ONCE_KEYS = {key for key, *_ in _HEADER} | {"outliers"}


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
