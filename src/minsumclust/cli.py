"""Command-line interface.

Subcommands: ``cluster`` (solve an instance file), ``oracle`` (exact
optimum for small instances), ``verify`` (re-check a saved result against
the instance its flags describe) and ``gen`` (write seeded instance files).

Exit codes: 0 success, 1 invariant or audit failure, 2 input error.
"""

from __future__ import annotations

import argparse
import sys

from .generators import FAMILIES, GeneratorSpec, check_seed, generate
from .geometry import DistanceMode, InstanceError
from .io import FormatError, load_instance, load_result, save_points, save_plot_data, save_result
from .oracle import OracleError, audit, brute_force_opt, enumeration_tractable
from .search import min_sum_clustering


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, FormatError, OracleError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:  # an internal check failed; a probe's names its lambda
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minsumclust",
        description="Min-sum k-clustering with outliers: solver, oracle, verifiers.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("cluster", help="solve an instance and write a result file")
    _instance_flags(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--seed", type=_seed, default=0, help="seed for the local-search fallback")
    p.add_argument("--output", required=True)
    p.add_argument("--emit-plot-data", metavar="PATH", default=None,
                   help="also dump x,y,label rows for external plotting")
    p.add_argument("--force-primal-dual", action="store_true",
                   help="skip the small-k fallback even when k <= 4/epsilon")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("oracle", help="exact optimum by exhaustive search")
    _instance_flags(p)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="re-check a result file against its instance")
    _instance_flags(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--result", required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--radii", default="1,5", help="rings: circle radii")
    p.add_argument("--counts", default="16,16", help="rings/gauss: points per component")
    p.add_argument("--noise", type=float, default=0.0, help="rings: radial noise")
    p.add_argument("--centers", default="0,0;4,0", help="gauss: centers, ';'-separated")
    p.add_argument("--spreads", default="0.5,0.5", help="gauss: component spreads")
    p.add_argument("--n", type=int, default=32, help="box/metric: point count")
    p.add_argument("--dims", default="1,1", help="box: side lengths")
    p.add_argument("--embed-dim", type=int, default=3, help="metric: embedding dimension")
    p.set_defaults(func=_cmd_gen)
    return parser


def _seed(text: str) -> int:
    """``--seed``: an integer that passes the library's ``check_seed``."""
    try:
        return check_seed(int(text))
    except ValueError:  # from int() or from check_seed (an InstanceError)
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}") from None


def _instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=[m.value for m in DistanceMode], default="sqeuclid")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nprime", type=int, required=True)


def _cmd_cluster(args) -> int:
    inst = load_instance(args.input, args.mode, args.k, args.nprime, args.epsilon)
    if args.emit_plot_data and inst.mode is not DistanceMode.SQEUCLIDEAN:
        raise InstanceError("plot data needs coordinate (sqeuclid) input")
    result = min_sum_clustering(
        inst, force_primal_dual=args.force_primal_dual, seed=args.seed
    )
    report = _audit(inst, result)
    save_result(result, args.output)
    if args.emit_plot_data:
        save_plot_data(inst, result, args.emit_plot_data)
    print(f"branch {result.branch.value}  clusters {len(result.clusters)}  "
          f"outliers {len(result.outliers)}  cost {result.total_cost:.17g}")
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_oracle(args) -> int:
    inst = load_instance(args.input, args.mode, args.k, args.nprime, args.epsilon)
    clusters, cost = brute_force_opt(inst)
    print(f"opt_cost {cost:.17g}")
    for c in clusters:
        print("cluster " + " ".join(str(i) for i in sorted(c)))
    outliers = sorted(set(range(inst.n)) - set().union(*clusters) if clusters else set(range(inst.n)))
    print("outliers " + " ".join(str(i) for i in outliers))
    return 0


def _cmd_verify(args) -> int:
    result = load_result(args.result)
    inst = load_instance(args.input, args.mode, args.k, args.nprime, args.epsilon)
    if inst.n != result.n:
        print(f"error: result was computed on n={result.n}, input has n={inst.n}",
              file=sys.stderr)
        return 2
    report = _audit(inst, result)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _audit(inst, result):
    """The audit ``cluster`` and ``verify`` print, so both print the same
    lines: scored against the exact optimum wherever the oracle is tractable."""
    opt = brute_force_opt(inst)[1] if enumeration_tractable(inst) else None
    return audit(inst, result, oracle_opt=opt)


def _cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    inst = generate(spec)
    if inst.mode is DistanceMode.SQEUCLIDEAN:
        save_points(inst.points, args.output)
    else:
        save_points(inst.dist_matrix, args.output)
    print(f"wrote {inst.n} {'points' if inst.points is not None else 'matrix rows'} "
          f"to {args.output}")
    return 0


def _spec_from_args(args) -> GeneratorSpec:
    family = args.family
    if family == "rings":
        params = {
            "radii": _floats(args.radii),
            "counts": _ints(args.counts),
            "noise": args.noise,
        }
    elif family == "gauss":
        params = {
            "centers": [_floats(c) for c in args.centers.split(";") if c],
            "spreads": _floats(args.spreads),
            "counts": _ints(args.counts),
        }
    elif family == "box":
        params = {"n": args.n, "dims": _floats(args.dims)}
    else:
        params = {"n": args.n, "embed_dim": args.embed_dim}
    return GeneratorSpec(family=family, seed=args.seed, params=params)


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.replace(",", " ").split()]


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.replace(",", " ").split()]


if __name__ == "__main__":
    sys.exit(main())
