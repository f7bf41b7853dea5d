"""The stress set at n = 256: instances where a pipeline's answer or its
cost is at risk, unlike the bench's, where every solve is exact, proved
and cheaper than learning the graph.

- a ring of 8 gnp(32, 0.6) clusters, 4 edges between neighbors: C(8, 2)
  minimum cuts of 8, and minimum degree at most 2 ln 256, so v1 learns
  the graph;
- `planted_cut_sides(256, k, 0.5)` for k = 30 and 40, just below the
  minimum degree (45-49), where a contraction must avoid nearly delta
  crossing edges;
- gnp(256, 16/255) with delta 9 and delta 7.
"""

from __future__ import annotations

import math
import random

from cutquery import (
    DEFAULT_EPS,
    CutOracle,
    SimpleGraph,
    Tuning,
    learn_graph,
    make_rng,
    st_min_cut,
)
from cutquery.discovery import learn_intergroup_edges
from cutquery.global_mincut import global_min_cut_v1, global_min_cut_v2
from cutquery.graph import gnp, planted_cut_sides
from cutquery.params import LEARN_DEGREE_COEFF, learn_price
from cutquery.reference import deterministic_min_cut, st_min_cut_known
from cutquery.scaling import BENCH_SCALE_GLOBAL, BENCH_SCALE_ST

from conftest import ring_of_clusters


def stress_set() -> list[tuple[str, SimpleGraph, int, int]]:
    """(name, graph, s, t): s and t sit in opposite clusters of the ring,
    on opposite sides of each planted cut, and at 0 and 255 in gnp."""
    planted = random.Random(7)
    cases = [("ring", ring_of_clusters(8, 32, 0.6, 4, random.Random(11)), 0, 128)]
    for k in (30, 40):
        g, side = planted_cut_sides(256, k, 0.5, planted)
        cases.append((f"planted-{k}", g, min(side), min(set(range(256)) - side)))
    for seed in (256161, 256160):
        cases.append((f"gnp-{seed}", gnp(256, 16 / 255, random.Random(seed)), 0, 255))
    return cases


def test_stress_set_answers_and_costs():
    # one stream per run, at bench tunings and at scale 1. Every answer is
    # exact and proved. v1 learns the ring and the delta-9 draw edge by
    # edge, their minimum degree at most 2 ln 256, at what learn_graph pays
    # (4,450 and 9,095; counting every pair cost 32,896, 7.39x and 3.62x).
    # On the planted cuts its flows from a dominating set prove the answer
    # at 0.26 and 0.28 of learn_graph
    cases = stress_set()
    ring = cases[0][1]
    assert ring.m == 2430 and LEARN_DEGREE_COEFF * math.log(256) >= min(ring.degrees())
    assert [min(g.degrees()) for _, g, _, _ in cases[3:]] == [9, 7]
    wrong, unproved = [], []
    for name, g, s, t in cases:
        global_ref = deterministic_min_cut(g).value
        st_ref = st_min_cut_known(g.to_weighted(), s, t).value
        learner = CutOracle(g)
        learn_graph(learner)
        learned = learner.ledger.distinct_queries
        for label, global_scale, st_scale in (
            ("bench", BENCH_SCALE_GLOBAL, BENCH_SCALE_ST),
            ("scale-1", 1.0, 1.0),
        ):
            for algo in ("v1", "v2", "st"):
                oracle, info = CutOracle(g), {}
                rng = make_rng(0, "stress", name, algo, label)
                if algo == "st":
                    cut = st_min_cut(oracle, s, t, rng, tuning=Tuning(st_scale), info=info)
                    exact = cut.value == st_ref and s in cut.side and t not in cut.side
                else:
                    solver = global_min_cut_v1 if algo == "v1" else global_min_cut_v2
                    cut = solver(oracle, DEFAULT_EPS, rng, tuning=Tuning(global_scale), info=info)
                    exact = cut.value == global_ref
                exact = exact and g.cut_value_mask(cut.side_mask()) == cut.value
                run = (name, algo, label)
                assert exact or not info["certified"], run
                if not exact:
                    wrong.append(run)
                if not info["certified"]:
                    unproved.append(run)
                if algo == "v1" and name in ("ring", "gnp-256161"):
                    assert oracle.ledger.distinct_queries <= 1.05 * learned, run
                if algo == "v1" and name.startswith("planted"):
                    assert oracle.ledger.distinct_queries <= 0.3 * learned, run
    assert wrong == []
    assert unproved == []


def test_learn_price_overprices_learning_a_group_interface():
    # the one price contraction gives learning rests on this: learning the
    # edges between random groups, on an oracle that has the degree pass,
    # costs less than learn_price(n, e) for the e edges found. Measured:
    # 0.32-0.34 of it on the ring and 0.63-0.78 on the rest
    graphs = [g for _, g, _, _ in stress_set()] + [gnp(256, 0.25, random.Random(3))]
    for g in graphs:
        for k in (32, 64, 128):
            order = random.Random(k).sample(range(g.n), g.n)
            masks = [sum(1 << v for v in order[i::k]) for i in range(k)]
            oracle = CutOracle(g)
            for v in range(g.n):
                oracle.vertex_degree(v)
            before = oracle.ledger.distinct_queries
            edges = learn_intergroup_edges(oracle, masks)
            spent = oracle.ledger.distinct_queries - before
            assert spent <= learn_price(g.n, len(edges)), (g.m, k)
