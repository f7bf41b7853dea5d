"""Solve one instance of a run in a process of its own.

Usage: python3 perfbench/solve_instance.py WORKLOAD SEED INDEX TRACE

Times its own start-up (importing the package) and the instance's
generation with cache warm-up, runs the instance's schedule once untraced,
reads the process's peak resident memory, and with TRACE=1 runs the
schedule again with the span wrappers installed and checks the traced
solves against the untraced ones. Then computes the references and checks
every answer, all outside the timed regions, and prints one JSON object:
the set-up times, the peak memory, the draw count and a record per solve. run.py starts one of these per instance, one at a time,
so no instance inherits another's heap or caches.
"""

import time

T_START = time.perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402  (imports cutquery and numpy)
from spans import Tracer
from workloads import PIPELINES, WORKLOADS, cq

HONESTY_KEYS = ("learned", "bailed", "skipped_learning", "h_edges", "rounds", "degraded")


def schedule(w: workloads.Workload) -> list[tuple[str, int]]:
    """(pipeline, stream) in run order: PIPELINES order, global_v1 once per
    stream."""
    return [
        (p, stream)
        for p in PIPELINES
        for stream in range(w.v1_repeats if p == "global_v1" else 1)
    ]


def run_pass(w, seed: int, index: int, inst, tracer: Tracer | None = None) -> list[dict]:
    """Solve the schedule once, each solve on a fresh oracle."""
    out = []
    for pipeline, stream in schedule(w):
        oracle = cq.CutOracle(inst.graph)
        rng = cq.make_rng(seed, w.name, index, pipeline, stream)
        info: dict = {}
        problem = None
        gc.collect()
        if tracer is not None:
            tracer.begin(oracle.ledger)
        t0 = time.perf_counter()
        try:
            cut = workloads.solve(pipeline, oracle, inst, rng, info)
        except Exception:  # a failed solve is counted, never ends the run
            problem = "raised " + traceback.format_exc(limit=3)
            cut = None
        seconds = time.perf_counter() - t0
        distinct, total = oracle.ledger.snapshot()
        out.append({
            "pipeline": pipeline,
            "stream": stream,
            "seconds": seconds,
            "distinct": distinct,
            "total": total,
            "cut": cut,
            "info": info,
            "problem": problem,
            "exact": False,
            "trace": tracer.end() if tracer is not None else None,
        })
    return out


def check_traced(plain: list[dict], traced: list[dict]) -> None:
    """Tracing must not change a solve: same counts, same answer, and the
    span tree must account for every fresh query exactly once."""
    for a, b in zip(plain, traced):
        if b["problem"] is not None:
            continue
        same = ("distinct", "total", "cut")
        if any(a[k] != b[k] for k in same):
            b["problem"] = "traced solve differs: " + ", ".join(
                f"{k} {a[k]} vs {b[k]}" for k in same if a[k] != b[k]
            )
        elif b["trace"]["top_fresh"] != b["distinct"]:
            b["problem"] = (
                f"top-level spans hold {b['trace']['top_fresh']} "
                f"of {b['distinct']} fresh queries"
            )
        elif b["trace"]["nesting_violations"] or b["trace"]["unclosed"]:
            b["problem"] = "a child span holds more fresh queries than its parent"


def main() -> int:
    name, seed, index, trace = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4] == "1"
    w = WORKLOADS[name]
    import_s = time.perf_counter() - T_START
    t0 = time.perf_counter()
    inst = workloads.build_instance(w, seed, index)
    build_s = time.perf_counter() - t0
    plain = run_pass(w, seed, index, inst)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    traced = []
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(w, seed, index, inst, tracer)
        finally:
            tracer.uninstall()
        check_traced(plain, traced)
    ref = workloads.reference(inst)
    for rec in plain:
        if rec["problem"] is None:
            rec["problem"], rec["exact"] = workloads.check(
                rec["pipeline"], inst, ref, rec["cut"], rec["info"]
            )
    for rec in plain + traced:
        rec["cut"] = None if rec["cut"] is None else str(rec["cut"].value)
        rec["info"] = {k: rec["info"][k] for k in HONESTY_KEYS if k in rec["info"]}
    print(json.dumps({
        "import_s": import_s,
        "build_s": build_s,
        "peak_rss_mb": peak_mb,
        "edges": inst.graph.m,
        "draws": inst.draws,
        "plain": plain,
        "traced": traced,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
