import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutquery import Cut, CutOracle, SimpleGraph, edges_between, exact_cut_value
from cutquery.graph import bits_of

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


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_cheapest_is_the_first_side_of_the_least_proper_answer(data):
    # a brute replay: over the proper sets queried so far, the least value
    # and the first queried set that reached it; the empty and full sets
    # and memo hits (repeats and complements) leave it as it was, and
    # reading it spends no query
    n = data.draw(st.integers(2, 8))
    g = random_simple_graph(n, random.Random(data.draw(st.integers(0, 10**6))))
    full = (1 << n) - 1
    oracle = CutOracle(g)
    asked: list[int] = []
    for _ in range(data.draw(st.integers(0, 24))):
        kind = data.draw(st.sampled_from(["any", "empty", "full", "repeat", "complement"]))
        if kind == "any" or not asked and kind in ("repeat", "complement"):
            mask = data.draw(st.integers(0, full))
        elif kind in ("repeat", "complement"):
            mask = data.draw(st.sampled_from(asked))
            mask = mask if kind == "repeat" else full & ~mask
        else:
            mask = 0 if kind == "empty" else full
        before = oracle.cheapest
        fresh = oracle.ledger.distinct_queries
        oracle.query_mask(mask)
        if oracle.ledger.distinct_queries == fresh:
            assert oracle.cheapest is before
        asked.append(mask)
        proper = [m for m in asked if 0 < m < full]
        spent = oracle.ledger.snapshot()
        if not proper:
            assert oracle.cheapest is None
        else:
            least = min(exact_cut_value(g, m) for m in proper)
            first = next(m for m in proper if exact_cut_value(g, m) == least)
            assert oracle.cheapest == Cut(frozenset(bits_of(first)), least)
        assert oracle.ledger.snapshot() == spent


def test_edges_between_on_path():
    oracle = CutOracle(path(3))
    assert edges_between(oracle, 1, [0, 2]) == 2


def test_edges_between_costs_three_distinct_queries():
    # c({v}), c(T), c({v} | T): the inclusion-exclusion edge counter
    oracle = CutOracle(path(4))
    before = oracle.ledger.distinct_queries
    edges_between(oracle, 0, [1])
    assert oracle.ledger.distinct_queries - before == 3
