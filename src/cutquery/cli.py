"""Command line front end.

Subcommands generate instances, learn graphs through the oracle, run both
global min cut pipelines and the s-t pipeline, and emit sparsifiers. Every
measured run prints one CSV row (stable schema, header on demand) and can
append it to a file; for a fixed seed the row is byte identical across runs
apart from wall_ms. The size ladder behind `scripts/run_scaling.py` lives
in `scaling`.

Exit codes: 0 success, 1 a --verify check failed, 2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
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
from .oracle import CutOracle
from .params import DEFAULT_EPS, Tuning
from .reference import deterministic_min_cut, st_min_cut_known
from .rng import make_rng
from .scaling import CSV_COLUMNS, csv_row, pair_learn
from .st_mincut import st_min_cut
from .strength import build_sparsifier


def _parse_eps(text: str) -> Fraction:
    eps = Fraction(text)
    if not 0 < eps < 1:
        raise argparse.ArgumentTypeError("epsilon must sit strictly between 0 and 1")
    return eps


def _default_seed() -> int:
    text = os.environ.get("CUTQUERY_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"CUTQUERY_SEED must be an integer, got {text!r}") from None


def _emit_row(row: dict, path: str | None) -> None:
    writer = csv.DictWriter(sys.stdout, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writerow(row)
    if path:
        fresh = not os.path.exists(path) or os.path.getsize(path) == 0
        with open(path, "a", newline="") as fh:
            out = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
            if fresh:
                out.writeheader()
            out.writerow(row)


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
    oracle = CutOracle(g)
    t0 = time.perf_counter()
    if args.strategy == "pairs":
        learned: SimpleGraph | None = pair_learn(oracle)
    else:
        learned = learn_graph(oracle, abort_above=args.abort_above)
    ms = round((time.perf_counter() - t0) * 1000)
    correct = ""
    if args.verify:
        correct = int(learned is not None and learned.edges == g.edges)
    row = csv_row(
        os.path.basename(args.graph),
        g,
        f"learn-{args.strategy}",
        args.seed,
        distinct_queries=oracle.ledger.distinct_queries,
        total_calls=oracle.ledger.total_calls,
        correct=correct,
        wall_ms=ms,
    )
    _emit_row(row, args.csv)
    if learned is None:
        print(f"# aborted above {args.abort_above} edges", file=sys.stderr)
    return 0 if correct in ("", 1) else 1


def _cmd_global(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    oracle = CutOracle(g)
    rng = make_rng(args.seed, "global", args.algo)
    tuning = Tuning(scale=args.scale_constants)
    solver = global_min_cut_v1 if args.algo == "v1" else global_min_cut_v2
    t0 = time.perf_counter()
    cut = solver(oracle, args.epsilon, rng, tuning=tuning)
    ms = round((time.perf_counter() - t0) * 1000)
    ref = ""
    correct = ""
    if args.verify:
        ref = deterministic_min_cut(g.to_weighted()).value
        correct = int(cut.value == ref and g.cut_value_mask(cut.side_mask()) == cut.value)
    row = csv_row(
        os.path.basename(args.graph),
        g,
        f"global-{args.algo}",
        args.seed,
        epsilon=str(args.epsilon),
        scale=args.scale_constants,
        distinct_queries=oracle.ledger.distinct_queries,
        total_calls=oracle.ledger.total_calls,
        cut_value=cut.value,
        ref_value=ref,
        correct=correct,
        wall_ms=ms,
    )
    _emit_row(row, args.csv)
    return 0 if correct in ("", 1) else 1


def _cmd_st(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    oracle = CutOracle(g)
    rng = make_rng(args.seed, "st", args.source, args.sink)
    tuning = Tuning(scale=args.scale_constants)
    t0 = time.perf_counter()
    cut = st_min_cut(oracle, args.source, args.sink, rng, epsilon=args.epsilon, tuning=tuning)
    ms = round((time.perf_counter() - t0) * 1000)
    ref = ""
    correct = ""
    if args.verify:
        ref = st_min_cut_known(g.to_weighted(), args.source, args.sink).value
        correct = int(
            cut.value == ref
            and g.cut_value_mask(cut.side_mask()) == cut.value
            and args.source in cut.side
            and args.sink not in cut.side
        )
    row = csv_row(
        os.path.basename(args.graph),
        g,
        "st",
        args.seed,
        epsilon="" if args.epsilon is None else str(args.epsilon),
        scale=args.scale_constants,
        distinct_queries=oracle.ledger.distinct_queries,
        total_calls=oracle.ledger.total_calls,
        cut_value=cut.value,
        ref_value=ref,
        correct=correct,
        wall_ms=ms,
    )
    _emit_row(row, args.csv)
    return 0 if correct in ("", 1) else 1


def _cmd_sparsify(args: argparse.Namespace) -> int:
    g = read_edge_list(args.graph)
    oracle = CutOracle(g)
    rng = make_rng(args.seed, "sparsify")
    tuning = Tuning(scale=args.scale_constants)
    t0 = time.perf_counter()
    h = build_sparsifier(oracle, args.epsilon, rng, tuning)
    ms = round((time.perf_counter() - t0) * 1000)
    if args.out:
        write_weighted_edge_list(h, args.out)
    row = csv_row(
        os.path.basename(args.graph),
        g,
        "sparsify",
        args.seed,
        epsilon=str(args.epsilon),
        scale=args.scale_constants,
        distinct_queries=oracle.ledger.distinct_queries,
        total_calls=oracle.ledger.total_calls,
        wall_ms=ms,
    )
    _emit_row(row, args.csv)
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
        help="v1: star contraction; v2: one strength sparsifier",
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
