#!/usr/bin/env python3
"""Estimate how often random contraction preserves a planted minimum cut.

Generates a planted-bisection instance with a known crossing set, repeatedly
runs uniform random edge contraction until at most c*n inter-group edges
survive (c = planted cut value), and counts trials where no crossing edge was
contracted, i.e. every contracted group ended up entirely inside one side.
All trials share one oracle so repeated cut queries are memoised.

Exit codes: 0 success, 2 bad options.
"""

from __future__ import annotations

import argparse
import sys

from cutquery import CutOracle, karger_until, make_rng, planted_cut_sides


def survival_rate(
    n: int, k: int, inside_p: float, trials: int, seed: int, verbose: bool = False
) -> float:
    """Fraction of contraction runs in which the planted cut survives intact."""
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    g, side = planted_cut_sides(n, k, inside_p, make_rng(seed, "instance"))
    oracle = CutOracle(g)
    target = max(1, k) * n
    survived = 0
    for t in range(trials):
        state = karger_until(oracle, target, make_rng(seed, "trial", t))
        ok = all(grp <= side or not (grp & side) for grp in state.groups())
        survived += ok
        if verbose and (t + 1) % 100 == 0:
            print(f"  {t + 1:>5} trials, rate so far {survived / (t + 1):.3f}")
    return survived / trials


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=40)
    ap.add_argument("--k", type=int, default=2, help="planted cut value")
    ap.add_argument("--inside-p", type=float, default=0.6)
    ap.add_argument("--trials", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    try:
        rate = survival_rate(
            args.n, args.k, args.inside_p, args.trials, args.seed, verbose=True
        )
    except ValueError as exc:  # an instance that cannot be planted, or no trials
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"planted cut (n={args.n}, k={args.k}) survived contraction to "
        f"{max(1, args.k) * args.n} edges in {rate:.3f} of {args.trials} trials"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
