"""cutquery benchmark: four pipelines on three graph families.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N --seconds S --trace 0|1   # every workload

--seconds fixes how many instances the run solves (see
workloads.Workload.instance_s), so query counts and exact rates repeat
exactly for a seed. Each instance is generated and solved in a process of
its own (solve_instance.py), one at a time, each single-threaded. With
--trace 0 the last stdout line is a JSON object with the end-to-end
metrics; with --trace 1 every instance is solved once untraced and once
traced, the two are checked solve by solve, and the per-layer metrics are
reported instead. See README.md for the definitions.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from spans import LAYER_STATS, PER_LAYER, SPARSIFIED, STAT_INDEX
from workloads import PIPELINES, WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
EXACT_PIPELINES = ("global_v2", "global_v1", "st")

# name -> unit; every end-to-end metric an untraced run prints. Wall time
# per solve is printed too but reported as a per-layer metric: load from
# other tenants of a shared machine moved whole runs by 30% and more, so its
# spread across seeds exceeded the largest bound a gated metric may carry.
END_TO_END: dict[str, str] = {"setup_s": "s", "peak_rss_mb": "MB"}
END_TO_END.update({f"{p}.queries": "count" for p in PIPELINES})
END_TO_END.update({f"{p}.exact_rate": "ratio" for p in EXACT_PIPELINES})


def check_manifest() -> None:
    """Refuse to run when BENCHMARK.json names other metrics than this code."""
    path = HERE.parent / "BENCHMARK.json"
    if not path.is_file():
        return
    manifest = json.loads(path.read_text())
    listed = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    layered = {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}
    if listed != END_TO_END or layered != PER_LAYER:
        raise SystemExit("perfbench: BENCHMARK.json and the metric catalogue disagree")


def solve_in_child(name: str, seed: int, index: int, trace: bool) -> dict:
    """Generate and solve one instance in a fresh interpreter; wait for it."""
    cmd = [sys.executable, str(HERE / "solve_instance.py"), name, str(seed), str(index),
           str(int(trace))]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"perfbench: instance {index} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def of(solves: list[dict], pipeline: str) -> list[dict]:
    return [s for s in solves if s["pipeline"] == pipeline]


def share(flags: list[bool]) -> float:
    return sum(flags) / len(flags) if flags else 0.0


def solve_times(runs: list[dict]) -> dict[str, tuple[float, int]]:
    """Per pipeline: median wall seconds of its untraced solves, and how many."""
    out = {}
    for p in PIPELINES:
        ok = [s["seconds"] for r in runs for s in of(r["plain"], p) if s["problem"] is None]
        out[p] = (statistics.median(ok) if ok else 0.0, len(ok))
    return out


def end_to_end(runs: list[dict]) -> dict[str, float]:
    solves = [s for r in runs for s in r["plain"]]
    values = {
        # one package import, measured in every child, plus every instance
        "setup_s": statistics.median(r["import_s"] for r in runs)
        + sum(r["build_s"] for r in runs),
        # a mean: one path (exhaustive enumeration near 18 super-vertices)
        # adds ~15 MB to some instances' peak, so a median would flip
        "peak_rss_mb": statistics.fmean(r["peak_rss_mb"] for r in runs),
    }
    for p in PIPELINES:
        mine = of(solves, p)
        values[f"{p}.queries"] = statistics.fmean(s["distinct"] for s in mine)
        if p in EXACT_PIPELINES:
            values[f"{p}.exact_rate"] = share([s["exact"] for s in mine])
    return values


def honesty(solves: list[dict]) -> dict[str, float]:
    """Rates read from the pipelines' own `info=` dicts."""
    v2, v1, st = of(solves, "global_v2"), of(solves, "global_v1"), of(solves, "st")
    rounds = sum(s["info"].get("rounds", 0) for s in v1)
    bailed = sum(s["info"].get("bailed", 0) for s in v1)
    return {
        "global_v2.endgame_rate": share([s["info"].get("learned", 0) > 0 for s in v2]),
        "global_v2.bail_rate": share([s["info"].get("bailed", 0) > 0 for s in v2]),
        "global_v1.bail_rate": bailed / rounds if rounds else 0.0,
        "st.degraded_rate": share([bool(s["info"].get("degraded")) for s in st]),
    }


def per_layer(runs: list[dict]) -> dict[str, float]:
    traced = [s for r in runs for s in r["traced"]]
    values = {f"{p}.solve_s": median for p, (median, _) in solve_times(runs).items()}
    for span, stats, pipes in LAYER_STATS:
        for p in pipes:
            mine = of(traced, p)
            for stat in stats:
                total = sum(s["trace"]["spans"][span][STAT_INDEX[stat]] for s in mine)
                values[f"{p}.{span}.{stat}"] = total / len(mine) if mine else 0.0
    for p in PIPELINES:
        mine = of(traced, p)
        calls = sum(s["total"] for s in mine)
        values[f"{p}.oracle.fresh_ratio"] = (
            sum(s["distinct"] for s in mine) / calls if calls else 0.0
        )
    for p in SPARSIFIED:
        ratios = [
            h / r["edges"]
            for r in runs
            for s in of(r["traced"], p)
            for h in s["trace"]["h_edges"]
        ]
        values[f"{p}.strength.h_keep_ratio"] = statistics.fmean(ratios) if ratios else 0.0
    values.update(honesty(traced))
    plain_s = sum(s["seconds"] for r in runs for s in r["plain"])
    traced_s = sum(s["seconds"] for s in traced)
    values["trace.overhead"] = traced_s / plain_s - 1 if plain_s else 0.0
    return values


def report(w, seed: int, runs: list[dict], attempted, metrics, units, samples) -> None:
    """Print every metric, the honesty flags and the failures."""
    plain = [s for r in runs for s in r["plain"]]
    draws = sum(r["draws"] for r in runs)
    print(f"workload {w.name}  seed {seed}  instances {len(runs)} (from {draws} draws)"
          f"  order {','.join(PIPELINES)}  global_v1 streams {w.v1_repeats}")
    for key, value in metrics.items():
        extra = f"  n={samples[key]}" if key in samples else ""
        print(f"  {key:58s} {value:14.6g} {units[key]}{extra}")
    if "learn_solve.solve_s" not in metrics:
        for p, (median, count) in solve_times(runs).items():
            print(f"  wall {p + '.solve_s':53s} {median:14.6g} s  n={count}")
    for key, value in honesty(plain).items():
        print(f"  honesty {key:50s} {value:.4f}")
    h_keep = [
        s["info"].get("h_edges", 0) / r["edges"] for r in runs for s in of(r["plain"], "global_v2")
    ]
    skipped = sum(s["info"].get("skipped_learning", 0) for s in of(plain, "global_v2"))
    print(f"  honesty global_v2 h_edges / m {statistics.fmean(h_keep):.4f},"
          f" skipped_learning {skipped} of {len(h_keep)}")
    for i, r in enumerate(runs):
        for s in r["plain"] + r["traced"]:
            if s["problem"] is not None:
                print(f"  FAILED {s['pipeline']} instance {i} stream {s['stream']}"
                      f"{' traced' if s['trace'] else ''}: {s['problem']}", file=sys.stderr)
    failed = sum(s["problem"] is not None for s in attempted)
    print(f"  failed {failed} / attempted {len(attempted)}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    w = WORKLOADS[name]
    count = workloads.instance_count(w, seconds)
    runs = [solve_in_child(name, seed, index, trace) for index in range(count)]
    attempted = [s for r in runs for s in r["plain"] + r["traced"]]
    if trace:
        metrics = per_layer(runs)
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        samples = {f"{p}.solve_s": n for p, (_, n) in solve_times(runs).items()}
    else:
        metrics = end_to_end(runs)
        units = END_TO_END
        samples = {"setup_s": len(runs), "peak_rss_mb": len(runs)}
    report(w, seed, runs, attempted, metrics, units, samples)
    failed = sum(s["problem"] is not None for s in attempted)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload; omit to run every workload in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    check_manifest()
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
