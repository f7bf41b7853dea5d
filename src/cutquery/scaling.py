"""Measured runs, and the size ladder behind `scripts/run_scaling.py` and
criterion 04.

`measure` times one run on a fresh oracle and `check_cut` checks a cut
against the known-graph solvers; the command line and the ladder build
their rows (`CSV_COLUMNS`, through `csv_row`) from these two. `bench_run`
runs the quadratic pair learner, both global pipelines and the s-t
pipeline on sparse gnp instances of growing size, none with an isolated
vertex (`bench_graph`), checks every cut, and fits log-log slopes of the
distinct-query counts (`fitted_exponent`). `pair_learn` is the baseline
learner, also behind `cutquery learn --strategy pairs`.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable

from .global_mincut import global_min_cut_v1, global_min_cut_v2
from .graph import Cut, SimpleGraph, generate
from .oracle import CutOracle
from .params import DEFAULT_EPS, Tuning
from .reference import deterministic_min_cut, st_min_cut_known
from .rng import derive_seed, make_rng
from .st_mincut import st_min_cut

CSV_COLUMNS = [
    "instance",
    "n",
    "m",
    "algo",
    "seed",
    "epsilon",
    "scale",
    "distinct_queries",
    "total_calls",
    "cut_value",
    "ref_value",
    "correct",
    "wall_ms",
]

BENCH_SIZES = (64, 128, 256, 512, 1024)
BENCH_DEGREE = 8.0
# pinned so the sampled pipelines sit in their sublinear regime on desk sizes
BENCH_SCALE_GLOBAL = 2e-4
BENCH_SCALE_ST = 1e-4


def measure(g: SimpleGraph, run: Callable[[CutOracle], Any]) -> tuple[Any, dict]:
    """Time `run` on a fresh oracle over g. Returns its result and the
    row's `distinct_queries`, `total_calls` and `wall_ms`."""
    oracle = CutOracle(g)
    t0 = time.perf_counter()
    result = run(oracle)
    ms = round((time.perf_counter() - t0) * 1000)
    return result, {
        "distinct_queries": oracle.ledger.distinct_queries,
        "total_calls": oracle.ledger.total_calls,
        "wall_ms": ms,
    }


def check_cut(g: SimpleGraph, cut: Cut, terminals: tuple[int, int] | None = None) -> dict:
    """The row's `cut_value`, `ref_value` and `correct` for an answer on g.

    The answer is correct when its side cuts its reported value in g, that
    value is the min cut of g (the min s-t cut when terminals (s, t) are
    given), and for s-t the side holds s and not t.
    """
    if terminals is None:
        ref = deterministic_min_cut(g).value
        holds = True
    else:
        s, t = terminals
        ref = st_min_cut_known(g.to_weighted(), s, t).value
        holds = s in cut.side and t not in cut.side
    correct = holds and cut.value == ref and g.cut_value_mask(cut.side_mask()) == cut.value
    return {"cut_value": cut.value, "ref_value": ref, "correct": int(correct)}


def csv_row(instance: str, g: SimpleGraph, algo: str, seed: int, **extra) -> dict:
    """One row of `CSV_COLUMNS`; columns not given stay empty."""
    row = {c: "" for c in CSV_COLUMNS}
    row.update(instance=instance, n=g.n, m=g.m, algo=algo, seed=seed)
    row.update(extra)
    return row


def pair_learn(oracle: CutOracle) -> SimpleGraph:
    """Baseline learner: one query per vertex plus one per vertex pair."""
    n = oracle.n
    deg = [oracle.query_mask(1 << v) for v in range(n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            both = oracle.query_mask((1 << u) | (1 << v))
            if deg[u] + deg[v] - both == 2:
                edges.append((u, v))
    return SimpleGraph.from_edges(n, edges)


def fitted_exponent(sizes: list[int], counts: list[float]) -> float:
    """Least squares slope of log(count) against log(n)."""
    import numpy as np

    if len(sizes) < 2:
        return float("nan")
    xs = np.log(np.array(sizes, dtype=float))
    ys = np.log(np.array(counts, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


def bench_graph(
    n: int, rep: int, seed: int = 0, degree: float = BENCH_DEGREE
) -> tuple[SimpleGraph, int]:
    """Instance `rep` of size n on the ladder, and the generator seed that
    drew it: gnp with expected degree `degree`, redrawn until no vertex is
    isolated, so no pipeline reads a zero cut off its degree pass. Redraw
    a takes the seed `derive_seed(first, a)`, first the seed of the first
    draw; a ValueError names the size and degree after 1000 draws, or before
    any draw when the degree is not finite or every draw has an isolated
    vertex (n < 2 or degree <= 0).
    """
    if not math.isfinite(degree):
        raise ValueError(f"degree must be finite, got {degree:g}")
    if n < 2 or degree <= 0:
        raise ValueError(f"every gnp draw of n={n}, degree {degree:g} has an isolated vertex")
    first = seed * 1000003 + n * 101 + rep
    derive = first
    for attempt in range(1, 1001):
        g = generate("gnp", {"n": n, "p": min(1.0, degree / n)}, derive)
        if min(g.degrees()) > 0:
            return g, derive
        derive = derive_seed(first, attempt)
    raise ValueError(f"no gnp draw of n={n}, degree {degree:g} without an isolated vertex")


def bench_run(
    sizes=BENCH_SIZES,
    reps: int = 3,
    seed: int = 0,
    degree: float = BENCH_DEGREE,
    suite: str = "all",
    scale_global: float = BENCH_SCALE_GLOBAL,
    scale_st: float = BENCH_SCALE_ST,
) -> dict:
    """Measure distinct-query growth on sparse instances of increasing size.

    One family (gnp with expected degree `degree`), four runners per
    instance: the quadratic pair-query learner as the baseline, both
    global pipelines (suite "global") and the s-t pipeline (suite "st"),
    the last three with all log-factor constants shrunk so their sampled
    regime is visible at desk sizes. Each runner draws from its own stream.
    Instances come from `bench_graph`, so none has an isolated vertex;
    each row's seed column holds the generator seed of its instance. Every
    cut is checked by `check_cut` outside the timed region, st's with
    terminals (0, n - 1); the baseline's rows leave those columns empty.
    Returns per-run rows and the fitted log-log exponents. Raises
    ValueError on a suite other than "global", "st" or "all".
    """
    if suite not in ("global", "st", "all"):
        raise ValueError(f"unknown suite {suite!r}: expected global, st or all")
    rows: list[dict] = []
    per_algo: dict[str, dict[int, list[int]]] = {}
    for n in sizes:
        for rep in range(reps):
            g, derive = bench_graph(n, rep, seed, degree)
            name = f"gnp-deg{degree:g}-n{n}-r{rep}"
            runs = [("baseline-pairs", "", "")]
            if suite in ("global", "all"):
                runs.append(("global-v2", scale_global, str(DEFAULT_EPS)))
                runs.append(("global-v1", scale_global, str(DEFAULT_EPS)))
            if suite in ("st", "all"):
                runs.append(("st", scale_st, ""))
            for algo, scale, eps_text in runs:
                rng = make_rng(seed, "bench", algo, n, rep)
                terminals = (0, g.n - 1) if algo == "st" else None
                if algo == "baseline-pairs":
                    run = pair_learn
                elif algo == "st":
                    run = lambda o: st_min_cut(o, *terminals, rng, tuning=Tuning(scale=scale))
                else:
                    solver = global_min_cut_v1 if algo == "global-v1" else global_min_cut_v2
                    run = lambda o: solver(o, DEFAULT_EPS, rng, tuning=Tuning(scale=scale))
                answer, cols = measure(g, run)
                if algo != "baseline-pairs":
                    cols.update(check_cut(g, answer, terminals))
                rows.append(csv_row(name, g, algo, derive, epsilon=eps_text, scale=scale, **cols))
                per_algo.setdefault(algo, {}).setdefault(n, []).append(cols["distinct_queries"])
    exponents = {}
    for algo, by_n in per_algo.items():
        ns = sorted(by_n)
        means = [sum(by_n[n]) / len(by_n[n]) for n in ns]
        exponents[algo] = fitted_exponent(ns, means)
    return {"rows": rows, "exponents": exponents}


__all__ = [
    "BENCH_DEGREE",
    "BENCH_SCALE_GLOBAL",
    "BENCH_SCALE_ST",
    "BENCH_SIZES",
    "CSV_COLUMNS",
    "bench_graph",
    "bench_run",
    "check_cut",
    "csv_row",
    "fitted_exponent",
    "measure",
    "pair_learn",
]
