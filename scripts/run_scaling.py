#!/usr/bin/env python3
"""Fit query-count scaling exponents across a size ladder.

Runs the pair-query baseline, both global pipelines (v2 through the
strength sparsifier, v1 by star contraction and spanning forests), and the
s-t pipeline on sparse random instances, then fits log-log slopes of the
distinct-query counts.  The fitted exponent is a proxy for asymptotic query
complexity: it inherits the usual caveats of finite-size fits, so treat the
numbers as evidence of the gap against the quadratic baseline rather than as
a measured constant.

Every cut a pipeline returns is checked against the known-graph solvers;
each runner's line gives its count of correct answers. Exit codes: 0
success, 1 some answer was wrong, 2 bad options or a ladder that cannot
be drawn.
"""

from __future__ import annotations

import argparse
import csv
import sys

from cutquery.scaling import (
    BENCH_DEGREE,
    BENCH_SCALE_GLOBAL,
    BENCH_SCALE_ST,
    BENCH_SIZES,
    CSV_COLUMNS,
    bench_run,
)


def _sizes(text: str) -> list[int]:
    try:
        sizes = [int(s) for s in text.split(",") if s]
    except ValueError:
        sizes = []
    if not sizes or min(sizes) < 1:
        raise ValueError(f"--sizes takes comma-separated positive integers, got {text!r}")
    if len(set(sizes)) < 2:
        raise ValueError(f"--sizes needs two distinct sizes to fit an exponent, got {text!r}")
    return sizes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default=",".join(str(s) for s in BENCH_SIZES))
    ap.add_argument("--trials", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--degree", type=float, default=BENCH_DEGREE)
    ap.add_argument("--suite", choices=("global", "st", "all"), default="all")
    ap.add_argument("--scale-global", type=float, default=BENCH_SCALE_GLOBAL)
    ap.add_argument("--scale-st", type=float, default=BENCH_SCALE_ST)
    ap.add_argument("--csv", default=None, help="write per-run rows here")
    args = ap.parse_args(argv)

    try:
        if args.trials < 1:
            raise ValueError(f"--trials must be at least 1, got {args.trials}")
        result = bench_run(
            sizes=_sizes(args.sizes),
            reps=args.trials,
            seed=args.seed,
            degree=args.degree,
            suite=args.suite,
            scale_global=args.scale_global,
            scale_st=args.scale_st,
        )
        if args.csv:
            with open(args.csv, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
                writer.writeheader()
                writer.writerows(result["rows"])
    except (ValueError, OSError) as exc:
        # bad options, a ladder with an isolated vertex, or an unwritable --csv path
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for row in result["rows"]:
        print(
            f"n={row['n']:>5}  {row['algo']:<15} distinct={row['distinct_queries']:>9}"
            f"  total={row['total_calls']:>9}  wall_ms={row['wall_ms']}"
        )
    print()
    checked: dict[str, list[int]] = {}
    for row in result["rows"]:
        if row["correct"] != "":
            checked.setdefault(row["algo"], []).append(row["correct"])
    for algo, exp in sorted(result["exponents"].items()):
        line = f"fitted exponent {algo:<15} {exp:.3f}"
        if algo in checked:
            line += f"  correct {sum(checked[algo])}/{len(checked[algo])}"
        print(line)
    return 0 if all(all(marks) for marks in checked.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
