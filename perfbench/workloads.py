"""Workload instances, the four pipelines, and the answer checks.

Importing this module puts the checkout's own `src/` first on the import
path and caps BLAS/OpenMP at one thread before numpy loads. It refuses to
run when the sources are missing, so the benchmark never measures some
other installed copy of the package.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "cutquery" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no cutquery sources under {SRC}")
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(SRC))

import cutquery as cq  # noqa: E402

if Path(cq.__file__).resolve().parent != (SRC / "cutquery").resolve():
    raise SystemExit(f"perfbench: imported cutquery from {cq.__file__}, not {SRC}")

EPS_GLOBAL = Fraction(1, 4)
BENCH_SCALE_GLOBAL = 2e-4
BENCH_SCALE_ST = 1e-4

# fixed run order on every instance; each solve gets its own fresh oracle
PIPELINES = ("global_v2", "global_v1", "st", "learn_solve")


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "gnp" or "planted"
    n: int
    density: float  # expected degree (gnp) or inside_p (planted)
    min_degree: int  # instances are redrawn until every degree reaches this
    instance_s: float  # wall seconds of one instance's process, measured
    crossing: int = 0  # planted crossing edges k
    v1_repeats: int = 1  # global_v1 solves per instance, each on its own stream


# instance_s is the wall time of one instance's child process (start-up,
# solves, references) measured on a 2-core x86-64 container running Python
# 3.11. --seconds divided by it fixes how many instances a run solves, so
# counts repeat exactly for a seed while the run lasts about --seconds there.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gnp-sparse-256", "gnp", 256, 8.0, 1, 3.3),
        # global_v1 misses here on about one solve in five, decided by its
        # random stream; four streams per instance steady its exact rate
        Workload("planted-sparse-256", "planted", 256, 0.1, 4, 5.3, crossing=3, v1_repeats=4),
        Workload("planted-dense-256", "planted", 256, 0.5, 4, 4.0, crossing=3),
    )
}


@dataclass(frozen=True)
class Instance:
    graph: cq.SimpleGraph
    s: int
    t: int
    draws: int  # generator draws it took to meet the degree floor


def instance_count(w: Workload, seconds: float) -> int:
    return max(1, round(seconds / w.instance_s))


def _draw(w: Workload, seed: int, index: int, attempt: int) -> Instance:
    if w.family == "gnp":
        params = {"n": w.n, "p": w.density / (w.n - 1)}
        g = cq.generate("gnp", params, cq.derive_seed(seed, w.name, index, attempt))
        return Instance(g, 0, w.n - 1, attempt + 1)
    rng = cq.make_rng(seed, w.name, index, attempt)
    g, side = cq.planted_cut_sides(w.n, w.crossing, w.density, rng)
    other = frozenset(range(w.n)) - side
    return Instance(g, min(side), min(other), attempt + 1)


def build_instance(w: Workload, seed: int, index: int) -> Instance:
    """Instance `index` of a run, a pure function of (workload, seed, index).

    The graph's adjacency cache is warmed here, so no solve pays for it.
    """
    attempt = 0
    while True:
        inst = _draw(w, seed, index, attempt)
        if min(inst.graph.degrees()) >= w.min_degree:
            break
        attempt += 1
    inst.graph.adjacency_masks()
    return inst


@dataclass(frozen=True)
class Reference:
    global_value: int
    st_value: int


def reference(inst: Instance) -> Reference:
    g = inst.graph
    return Reference(
        cq.deterministic_min_cut(g).value,
        cq.st_min_cut_known(g.to_weighted(), inst.s, inst.t).value,
    )


def solve(pipeline: str, oracle, inst: Instance, rng, info: dict):
    """Run one pipeline through the public API and return its Cut.

    Library functions are looked up on the package at call time, so a
    tracer that swaps them in the package namespace sees these calls too.
    """
    if pipeline == "global_v2":
        tuning = cq.Tuning(scale=BENCH_SCALE_GLOBAL)
        return cq.global_min_cut_v2(oracle, EPS_GLOBAL, rng, tuning, info=info)
    if pipeline == "global_v1":
        tuning = cq.Tuning(scale=BENCH_SCALE_GLOBAL)
        return cq.global_min_cut_v1(oracle, EPS_GLOBAL, rng, tuning, info=info)
    if pipeline == "st":
        tuning = cq.Tuning(scale=BENCH_SCALE_ST)
        return cq.st_min_cut(oracle, inst.s, inst.t, rng, tuning=tuning, info=info)
    if pipeline == "learn_solve":
        learned = cq.learn_graph(oracle)
        info["learned_graph"] = learned
        return cq.deterministic_min_cut(learned)
    raise ValueError(f"unknown pipeline {pipeline!r}")


def check(pipeline: str, inst: Instance, ref: Reference, cut, info: dict):
    """(problem, exact) for one answer; problem is None when it is valid.

    A valid answer names a proper side whose cut in the hidden graph has the
    reported value (for s-t, a side holding s and not t). Exact means the
    value also equals the reference minimum. learn_solve must return the
    hidden graph itself.
    """
    g = inst.graph
    side = cut.side_mask()
    full = (1 << g.n) - 1
    if side == 0 or side == full:
        return "side is empty or the whole vertex set", False
    actual = g.cut_value_mask(side)
    if actual != cut.value:
        return f"reported value {cut.value} but the side cuts {actual}", False
    if pipeline == "st":
        if not (side >> inst.s) & 1 or (side >> inst.t) & 1:
            return "s-t side does not hold s without t", False
        return None, cut.value == ref.st_value
    if pipeline == "learn_solve" and info["learned_graph"].edges != g.edges:
        return "learned graph differs from the hidden graph", False
    return None, cut.value == ref.global_value
