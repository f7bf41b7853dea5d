import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutquery import CutOracle, SimpleGraph, edges_between, exact_cut_value

from conftest import random_simple_graph


def triangle() -> SimpleGraph:
    return SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])


def path(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_triangle_single_vertex_query():
    oracle = CutOracle(triangle())
    assert oracle.query([0]) == 2


def test_empty_and_full_sets_are_free():
    oracle = CutOracle(triangle())
    assert oracle.query([]) == 0
    assert oracle.query([0, 1, 2]) == 0
    assert oracle.ledger.distinct_queries == 0
    assert oracle.ledger.total_calls == 0


def test_repeat_and_complement_share_one_distinct_query():
    oracle = CutOracle(triangle())
    oracle.query([0])
    oracle.query([0])
    oracle.query([1, 2])  # complement of {0}
    assert oracle.ledger.distinct_queries == 1
    assert oracle.ledger.total_calls == 3


def test_ledger_distinct_never_exceeds_total():
    rng = random.Random(1)
    g = random_simple_graph(8, rng)
    oracle = CutOracle(g)
    for _ in range(200):
        oracle.query_mask(rng.randint(0, (1 << 8) - 1))
    assert oracle.ledger.distinct_queries <= oracle.ledger.total_calls
    assert oracle.ledger.distinct_queries <= 1 << 8


def test_query_outside_vertex_set_rejected():
    oracle = CutOracle(triangle())
    with pytest.raises(ValueError):
        oracle.query_mask(1 << 3)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_every_answer_matches_direct_evaluation(data):
    n = data.draw(st.integers(2, 10))
    g = random_simple_graph(n, random.Random(data.draw(st.integers(0, 10**6))))
    oracle = CutOracle(g)
    mask = data.draw(st.integers(0, (1 << n) - 1))
    assert oracle.query_mask(mask) == exact_cut_value(g, mask)


def test_edges_between_on_path():
    oracle = CutOracle(path(3))
    assert edges_between(oracle, 1, [0, 2]) == 2


def test_edges_between_costs_three_distinct_queries():
    # c({v}), c(T), c({v} | T): the inclusion-exclusion edge counter
    oracle = CutOracle(path(4))
    before = oracle.ledger.distinct_queries
    edges_between(oracle, 0, [1])
    assert oracle.ledger.distinct_queries - before == 3
