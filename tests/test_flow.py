import math
import random
from fractions import Fraction

import pytest

from cutquery import (
    WeightedGraph,
    flow_cover_weight,
    make_rng,
    max_flow,
    st_min_cut_known,
    strip_flow,
)
from cutquery.flow import _cancel_circulations
from cutquery.graph import bits_of

from conftest import (
    brute_minimal_st_side,
    brute_st_cut_value,
    layered_dag,
    random_weighted_graph,
)


def path_graph(n: int) -> WeightedGraph:
    return WeightedGraph.from_edges(n, [(i, i + 1, 1) for i in range(n - 1)])


def test_unit_path_flow():
    g = path_graph(3)
    flow = max_flow(g, 0, 2)
    assert flow.value == 1


def test_complete_four_flow():
    k4 = WeightedGraph.from_edges(
        4, [(u, v, 1) for u in range(4) for v in range(u + 1, 4)]
    )
    flow = max_flow(k4, 0, 3)
    assert flow.value == 3


def test_same_terminals_rejected():
    with pytest.raises(ValueError):
        max_flow(path_graph(3), 1, 1)


def test_flow_matches_brute_force_cut():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(2, 12)
        g = random_weighted_graph(n, rng)
        s, t = rng.sample(range(n), 2)
        flow = max_flow(g, s, t)
        assert flow.value == brute_st_cut_value(g, s, t)


def test_flow_assignment_invariants():
    rng = random.Random(33)
    for _ in range(25):
        n = rng.randint(3, 10)
        g = random_weighted_graph(n, rng)
        s, t = rng.sample(range(n), 2)
        flow = max_flow(g, s, t)
        net = [0] * n
        for (u, v), f in flow.flows.items():
            assert abs(f) <= g.weights[(u, v)]
            net[u] -= f
            net[v] += f
        for v in range(n):
            if v == s:
                assert net[v] == -flow.value
            elif v == t:
                assert net[v] == flow.value
            else:
                assert net[v] == 0
        # the witness side is a genuine minimum cut
        assert (flow.source_side_mask >> s) & 1
        assert not (flow.source_side_mask >> t) & 1
        assert g.cut_value_mask(flow.source_side_mask) == flow.value


def test_witness_side_is_the_minimal_minimum_side():
    # the side is what s reaches in the final residual network: the
    # intersection of every minimum s-t side that holds s, which is s's
    # component where t lies outside it; st_min_cut_known reports the same
    rng = random.Random(77)
    apart = 0
    for _ in range(80):
        n = rng.randint(2, 10)
        g = random_weighted_graph(n, rng, p=rng.choice((0.2, 0.4, 0.7)))
        s, t = rng.sample(range(n), 2)
        want = brute_minimal_st_side(g, s, t)
        flow = max_flow(g, s, t)
        assert (flow.value, flow.source_side_mask) == want
        cut = st_min_cut_known(g, s, t)
        assert (cut.value, cut.side_mask()) == want
        apart += want[0] == 0
    assert apart >= 10


def test_flow_support_is_acyclic():
    rng = random.Random(55)
    for _ in range(25):
        n = rng.randint(3, 10)
        g = random_weighted_graph(n, rng, p=0.7)
        s, t = rng.sample(range(n), 2)
        flow = max_flow(g, s, t)
        # direct each support edge along its flow, then look for a cycle
        out = {v: [] for v in range(n)}
        indeg = [0] * n
        for (u, v), f in flow.flows.items():
            if f == 0:
                continue
            a, b = (u, v) if f > 0 else (v, u)
            out[a].append(b)
            indeg[b] += 1
        order = [v for v in range(n) if indeg[v] == 0]
        seen = 0
        while order:
            v = order.pop()
            seen += 1
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    order.append(w)
        touched = {v for e in flow.flows for v in e}
        assert seen >= len(touched)


def support_is_acyclic(flows: dict[tuple[int, int], int], n: int) -> bool:
    """Direct each support edge along its flow (positive: from the lower
    id), then peel sources until nothing or a cycle is left."""
    out = {v: [] for v in range(n)}
    indeg = [0] * n
    for (u, v), f in flows.items():
        if f == 0:
            continue
        a, b = (u, v) if f > 0 else (v, u)
        out[a].append(b)
        indeg[b] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while order:
        v = order.pop()
        seen += 1
        for w in out[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    return seen == n


def net_balances(flows: dict[tuple[int, int], int], n: int) -> list[int]:
    net = [0] * n
    for (u, v), f in flows.items():
        net[u] -= f
        net[v] += f
    return net


def test_cancel_circulations_cancels_directed_cycles():
    # max_flow's raw flows seldom hold a directed cycle, so feed the cancel
    # some: an s-t path flow with random directed cycles laid over it, each
    # edge's capacity its flow. Every vertex keeps its net balance, so the
    # value stays; every edge keeps its direction and moves toward zero, so
    # it stays within capacity; and the support comes back acyclic
    rng = random.Random(61)
    cyclic = 0
    for _ in range(60):
        n = rng.randint(4, 12)
        flows: dict[tuple[int, int], int] = {}

        def push(a: int, b: int, f: int) -> None:
            key = (a, b) if a < b else (b, a)
            flows[key] = flows.get(key, 0) + (f if a < b else -f)

        s, t = rng.sample(range(n), 2)
        middle = rng.sample(sorted(set(range(n)) - {s, t}), rng.randint(0, n - 2))
        route = [s] + middle + [t]
        value = rng.randint(1, 3)
        for a, b in zip(route, route[1:]):
            push(a, b, value)
        for _ in range(rng.randint(1, 3)):
            loop = rng.sample(range(n), rng.randint(3, n))
            f = rng.randint(1, 3)
            for a, b in zip(loop, loop[1:] + loop[:1]):
                push(a, b, f)
        flows = {e: f for e, f in flows.items() if f}
        cyclic += not support_is_acyclic(flows, n)
        out = _cancel_circulations(flows)
        assert net_balances(out, n) == net_balances(flows, n)
        assert net_balances(out, n)[t] == value
        for e, f in out.items():
            assert f * flows[e] > 0 and abs(f) <= abs(flows[e]), (e, f, flows[e])
        assert support_is_acyclic(out, n)
    assert cyclic >= 50


def test_cover_weight_of_path_and_zero_flow():
    g = path_graph(6)
    flow = max_flow(g, 0, 5)
    assert flow_cover_weight(flow) == 5  # every path edge carries the unit
    assert 5 <= 6 * math.sqrt(1 * 5)
    two = WeightedGraph.from_edges(3, [(0, 1, 1)])
    zero = max_flow(two, 0, 2)
    assert zero.value == 0
    assert flow_cover_weight(zero) == 0


def test_cover_weight_bound_on_layered_dags():
    rng = random.Random(99)
    worst = 0.0
    for _ in range(30):
        width = rng.randint(2, 6)
        depth = rng.randint(2, (60 - 2) // width)
        g = layered_dag(width, depth, rng)
        assert g.n <= 60
        flow = max_flow(g, 0, g.n - 1)
        if flow.value == 0:
            assert flow_cover_weight(flow) == 0
            continue
        bound = 4 * g.n * math.sqrt(float(flow.value * g.total_weight()))
        cover = float(flow_cover_weight(flow))
        assert cover <= bound
        worst = max(worst, cover / (g.n * math.sqrt(float(flow.value * g.total_weight()))))
    assert worst <= 4.0


def test_strip_flow_removes_saturated_edges():
    g = path_graph(4)
    flow = max_flow(g, 0, 3)
    residue = strip_flow(g, flow)
    assert residue.m == 0  # unit path fully saturated
    k4 = WeightedGraph.from_edges(
        4, [(u, v, 2) for u in range(4) for v in range(u + 1, 4)]
    )
    flow = max_flow(k4, 0, 3)
    residue = strip_flow(k4, flow)
    # residual weight = original minus |flow| on every edge
    for e, w in k4.weights.items():
        left = residue.weights.get(e, 0)
        assert left == w - abs(flow.flows.get(e, 0))


def test_strip_flow_disconnects_terminals():
    # max flow saturates every minimum-cut edge, so the residue has none
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(3, 10)
        g = random_weighted_graph(n, rng)
        s, t = rng.sample(range(n), 2)
        flow = max_flow(g, s, t)
        residue = strip_flow(g, flow)
        assert max_flow(residue, s, t).value == 0


def test_connectivity_between():
    g = path_graph(4)
    assert max_flow(g, 0, 3).value == 1
    two = WeightedGraph.from_edges(4, [(0, 1, 3), (2, 3, 1)])
    assert max_flow(two, 0, 3).value == 0
