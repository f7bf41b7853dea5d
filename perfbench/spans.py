"""Per-layer spans recorded from outside the library.

The library imports functions by name (`from .reference import
deterministic_min_cut` in several modules), so a wrapper only sees a call if
it replaces the function in the namespace the caller looks it up in. The
tracer therefore swaps each traced function in every loaded `cutquery`
module that holds it, and patches the two hot methods on their classes.
Only `CutOracle.query_mask` is wrapped on the oracle side: contracted views
forward to it, so each answered call is one span.

A span records calls, inclusive seconds, self seconds (its duration minus
the time its child spans cover) and `fresh`, the rise in the solve's
`ledger.distinct_queries` across the call. Inclusive seconds and fresh are
counted for the outermost active call of a function only, so recursion is
not counted twice. Wrappers never touch the random streams or the oracle.
"""

from __future__ import annotations

import functools
import sys
import time

import workloads

ALL = workloads.PIPELINES
SAMPLED = ("global_v2", "global_v1", "st")
SPARSIFIED = ("global_v2", "st")
GLOBAL = ("global_v2", "global_v1")

# (span, stats reported, pipelines that reach it); the README maps each to
# the end-to-end metric it should move
LAYER_STATS = (
    ("oracle.CutOracle.query_mask", ("calls", "self_s"), ALL),
    ("graph.SimpleGraph.cut_value_mask", ("calls", "s"), ALL),
    ("reference.deterministic_min_cut", ("calls", "s"), ALL),
    ("contraction.sample_interface_pair", ("calls", "s"), SAMPLED),
    ("contraction.uniform_subsample", ("s", "fresh"), SAMPLED),
    ("contraction.karger_until", ("s", "fresh"), ("global_v1",)),
    ("contraction.learn_pair_counts", ("fresh",), SAMPLED),
    ("strength.approximate_strengths", ("s", "self_s", "fresh"), SPARSIFIED),
    ("strength.strength_decompose_known", ("calls", "s"), SPARSIFIED),
    ("global_mincut.enumerate_near_min_cuts", ("calls", "s"), GLOBAL),
    ("global_mincut.contract_safe", ("s", "fresh"), GLOBAL),
    ("discovery.learn_graph", ("s", "fresh"), ("learn_solve",)),
    ("discovery.sample_intergroup_edges", ("calls", "s", "fresh"), SPARSIFIED),
    ("flow.max_flow", ("s",), ("st",)),
    ("flow.strip_flow", ("s",), ("st",)),
)
STAT_INDEX = {"calls": 0, "s": 1, "self_s": 2, "fresh": 3}
STAT_UNIT = {"calls": "count", "s": "s", "self_s": "s", "fresh": "count"}

# name -> (unit, better); every per-layer metric a traced run prints. The
# wall time per solve comes from the run's untraced pass.
PER_LAYER: dict[str, tuple[str, str]] = {f"{p}.solve_s": ("s", "lower") for p in ALL}
for _span, _stats, _pipes in LAYER_STATS:
    for _p in _pipes:
        for _stat in _stats:
            PER_LAYER[f"{_p}.{_span}.{_stat}"] = (STAT_UNIT[_stat], "lower")
for _p in ALL:
    PER_LAYER[f"{_p}.oracle.fresh_ratio"] = ("ratio", "higher")
for _p in SPARSIFIED:
    PER_LAYER[f"{_p}.strength.h_keep_ratio"] = ("ratio", "lower")
PER_LAYER["global_v2.endgame_rate"] = ("ratio", "higher")
PER_LAYER["global_v2.bail_rate"] = ("ratio", "lower")
PER_LAYER["global_v1.bail_rate"] = ("ratio", "lower")
PER_LAYER["st.degraded_rate"] = ("ratio", "lower")
PER_LAYER["trace.overhead"] = ("ratio", "lower")


class Tracer:
    """Span accounting for one solve at a time.

    `begin(ledger)` starts a solve, `end()` returns its per-span totals
    `{span: [calls, s, self_s, fresh]}` plus the consistency figures, and
    resets the counters for the next solve.
    """

    def __init__(self) -> None:
        self.ledger = None
        self._records: dict[str, list] = {}
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []
        self.top_fresh = 0
        self.nesting_violations = 0
        self.h_edges: list[int] = []

    def _wrap(self, span: str, fn, after=None):
        rec = self._records.setdefault(span, [0, 0.0, 0.0, 0])
        active = [0]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            ledger = tracer.ledger
            frame = [0.0, 0]  # seconds and fresh queries of child spans
            stack.append(frame)
            active[0] += 1
            f0 = ledger.distinct_queries
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                fresh = ledger.distinct_queries - f0
                active[0] -= 1
                stack.pop()
                rec[0] += 1
                rec[2] += dt - frame[0]
                if active[0] == 0:
                    rec[1] += dt
                    rec[3] += fresh
                if frame[1] > fresh:
                    tracer.nesting_violations += 1
                if stack:
                    stack[-1][0] += dt
                    stack[-1][1] += fresh
                else:
                    tracer.top_fresh += fresh
            if after is not None and active[0] == 0:
                after(result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "cutquery" or name.startswith("cutquery.")]
        for span, _, _ in LAYER_STATS:
            module_name, *owner, func = span.split(".")
            home = sys.modules[f"cutquery.{module_name}"]
            if owner:
                cls = getattr(home, owner[0])
                orig = vars(cls)[func]
                self._undo.append((cls, func, orig))
                setattr(cls, func, self._wrap(span, orig))
                continue
            orig = getattr(home, func)
            after = None
            if span == "strength.approximate_strengths":
                after = lambda result: self.h_edges.append(result[1].m)  # noqa: E731
            wrapped = self._wrap(span, orig, after)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def begin(self, ledger) -> None:
        self.ledger = ledger
        self.top_fresh = 0
        self.nesting_violations = 0
        self.h_edges = []

    def end(self) -> dict:
        spans = {span: list(rec) for span, rec in self._records.items()}
        for rec in self._records.values():
            rec[:] = [0, 0.0, 0.0, 0]
        return {
            "spans": spans,
            "top_fresh": self.top_fresh,
            "nesting_violations": self.nesting_violations,
            "h_edges": list(self.h_edges),
            "unclosed": len(self._stack),
        }
