"""Command line front end.

Subcommands generate instances, learn graphs through the oracle, run both
global min cut pipelines and the s-t pipeline, and emit sparsifiers. Every
measured run goes through `scaling.measure`, prints one CSV row (stable
schema, header on demand) and can append it to a file; for a fixed seed
the row is byte identical across runs apart from wall_ms. --verify checks
a cut with `scaling.check_cut`, the check the size ladder behind
`scripts/run_scaling.py` also applies, and a learned graph against the
input.

Exit codes: 0 success, 1 a --verify check failed, 2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from fractions import Fraction

from .discovery import learn_graph
from .global_mincut import global_min_cut_v1, global_min_cut_v2
from .graph import (
    GENERATOR_KINDS,
    SimpleGraph,
    generate,
    read_edge_list,
    write_edge_list,
    write_weighted_edge_list,
)
from .params import DEFAULT_EPS, Tuning
from .rng import make_rng
from .scaling import CSV_COLUMNS, check_cut, csv_row, measure, pair_learn
from .st_mincut import st_min_cut
from .strength import approximate_strengths


def _parse_eps(text: str) -> Fraction:
    try:
        eps = Fraction(text)
    except ZeroDivisionError:  # "1/0"; argparse reports only ValueError and TypeError
        raise argparse.ArgumentTypeError(f"epsilon {text!r} divides by zero") from None
    if not 0 < eps < 1:
        raise argparse.ArgumentTypeError("epsilon must sit strictly between 0 and 1")
    return eps


def _default_seed() -> int:
    text = os.environ.get("CUTQUERY_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"CUTQUERY_SEED must be an integer, got {text!r}") from None


def _emit(args: argparse.Namespace, g: SimpleGraph, algo: str, **cols) -> int:
    """Print the row of one measured run and append it to --csv. Epsilon
    and scale come from the options that have them. Returns the exit code:
    1 when a --verify check failed."""
    eps = getattr(args, "epsilon", None)
    row = csv_row(
        os.path.basename(args.graph),
        g,
        algo,
        args.seed,
        epsilon="" if eps is None else str(eps),
        scale=getattr(args, "scale_constants", ""),
        **cols,
    )
    csv.DictWriter(sys.stdout, fieldnames=CSV_COLUMNS, lineterminator="\n").writerow(row)
    if args.csv:
        with open(args.csv, "a", newline="") as fh:
            out = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
            if fh.tell() == 0:
                out.writeheader()
            out.writerow(row)
    return 0 if row["correct"] in ("", 1) else 1


def _cmd_gen(args: argparse.Namespace) -> int:
    params = {
        "n": args.n,
        "p": args.p,
        "k": args.k,
        "inside_p": args.inside_p,
        "clique": args.clique,
        "path": args.path_len,
    }
    params = {k: v for k, v in params.items() if v is not None}
    g = generate(args.kind, params, args.seed)
    write_edge_list(g, args.out)
    print(f"{args.out}: {args.kind} n={g.n} m={g.m} seed={args.seed}")
    return 0


def _cmd_learn(args: argparse.Namespace) -> int:
    if args.strategy == "pairs" and args.abort_above is not None:
        raise ValueError("--abort-above applies only to --strategy splits")
    g = read_edge_list(args.graph)
    learn = pair_learn if args.strategy == "pairs" else lambda o: learn_graph(o, args.abort_above)
    learned, cols = measure(g, learn)
    if args.verify:
        cols["correct"] = int(learned is not None and learned.edges == g.edges)
    code = _emit(args, g, f"learn-{args.strategy}", **cols)
    if learned is None:
        print(f"# aborted above {args.abort_above} edges", file=sys.stderr)
    return code


def _cmd_global(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    rng = make_rng(args.seed, "global", args.algo)
    tuning = Tuning(scale=args.scale_constants)
    solver = global_min_cut_v1 if args.algo == "v1" else global_min_cut_v2
    cut, cols = measure(g, lambda oracle: solver(oracle, args.epsilon, rng, tuning=tuning))
    cols.update(check_cut(g, cut) if args.verify else {"cut_value": cut.value})
    return _emit(args, g, f"global-{args.algo}", **cols)


def _cmd_st(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    s, t = args.source, args.sink
    rng = make_rng(args.seed, "st", s, t)
    tuning = Tuning(scale=args.scale_constants)
    cut, cols = measure(
        g, lambda oracle: st_min_cut(oracle, s, t, rng, epsilon=args.epsilon, tuning=tuning)
    )
    cols.update(check_cut(g, cut, (s, t)) if args.verify else {"cut_value": cut.value})
    return _emit(args, g, "st", **cols)


def _cmd_sparsify(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    rng = make_rng(args.seed, "sparsify")
    tuning = Tuning(scale=args.scale_constants)
    h, cols = measure(g, lambda oracle: approximate_strengths(oracle, args.epsilon, rng, tuning).h)
    if args.out:
        write_weighted_edge_list(h, args.out)
    _emit(args, g, "sparsify", **cols)
    print(f"# sparsifier edges={h.m} total_weight={h.total_weight()}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="cutquery", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    seed = _default_seed()
    # options every subcommand that reads a graph and prints a row shares
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--in", "--graph", dest="graph", required=True, metavar="EDGELIST")
    run.add_argument("--seed", type=int, default=seed)
    run.add_argument("--csv")

    p = sub.add_parser("gen", help="generate an instance and write an edge list")
    p.add_argument("--kind", choices=GENERATOR_KINDS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--inside-p", dest="inside_p", type=float)
    p.add_argument("--clique", type=int)
    p.add_argument("--path-len", dest="path_len", type=int)
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("learn", parents=[run], help="reconstruct a graph through the oracle")
    p.add_argument("--strategy", choices=("splits", "pairs"), default="splits")
    p.add_argument("--abort-above", dest="abort_above", type=int)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(run=_cmd_learn)

    p = sub.add_parser("global-mincut", parents=[run], help="exact global min cut via queries")
    p.add_argument(
        "--algo",
        choices=("v1", "v2"),
        default="v2",
        help="v1: unit flows from a dominating set; v2: one strength sparsifier",
    )
    p.add_argument("--epsilon", type=_parse_eps, default=DEFAULT_EPS)
    p.add_argument("--scale-constants", dest="scale_constants", type=float, default=1.0)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(run=_cmd_global)

    p = sub.add_parser("st-mincut", parents=[run], help="exact min s-t cut via queries")
    p.add_argument("--source", type=int, required=True)
    p.add_argument("--sink", type=int, required=True)
    p.add_argument("--epsilon", type=_parse_eps, default=None)
    p.add_argument("--scale-constants", dest="scale_constants", type=float, default=1.0)
    p.add_argument("--verify", action="store_true")
    p.set_defaults(run=_cmd_st)

    p = sub.add_parser("sparsify", parents=[run], help="build a strength sparsifier via queries")
    p.add_argument("--epsilon", type=_parse_eps, default=DEFAULT_EPS)
    p.add_argument("--out")
    p.add_argument("--scale-constants", dest="scale_constants", type=float, default=1.0)
    p.set_defaults(run=_cmd_sparsify)

    return top


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
