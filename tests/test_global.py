import math
import random
from fractions import Fraction

import pytest

from cutquery import (
    CutOracle,
    SimpleGraph,
    barbell,
    contract_safe,
    cover_edge_count,
    cycle,
    deterministic_min_cut,
    enumerate_near_min_cuts,
    global_min_cut_v1,
    global_min_cut_v2,
    gnp,
    make_rng,
    planted_cut,
)
from cutquery.contraction import singleton_state

from conftest import brute_cuts_at_most, brute_min_cut_value, random_simple_graph


def complete(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def canonical_masks(cuts, n):
    full = (1 << n) - 1
    out = set()
    for cut in cuts:
        mask = cut.side_mask()
        out.add(mask if mask & 1 else full & ~mask)
    return out


def test_enumerate_cycle_pairs():
    g = cycle(6)
    cuts = enumerate_near_min_cuts(g, 2, make_rng(0))
    assert len(cuts) == 15  # choose 2 of the 6 boundary edges
    assert all(cut.value == 2 for cut in cuts)
    assert canonical_masks(cuts, 6) == brute_cuts_at_most(g, 2)


def test_enumerate_complete_graph_singletons():
    g = complete(5)
    cuts = enumerate_near_min_cuts(g, 4, make_rng(0))
    assert sorted(cut.sorted_side() for cut in cuts) == [(v,) for v in range(5)]


def test_enumerate_matches_brute_force():
    g = gnp(12, 0.5, make_rng(11))
    base = brute_min_cut_value(g)
    threshold = Fraction(12, 10) * base
    cuts = enumerate_near_min_cuts(g, threshold, make_rng(1))
    assert canonical_masks(cuts, 12) == brute_cuts_at_most(g, threshold)


def test_enumerate_below_min_cut_is_empty():
    g = cycle(6)
    assert enumerate_near_min_cuts(g, 1, make_rng(0)) == []


def test_enumerate_randomized_matches_exhaustive_midsize():
    # above the exhaustive size limit the contraction sampler must still
    # find everything (with overwhelming probability)
    rng = random.Random(14)
    for trial in range(6):
        g = random_simple_graph(20, rng, p=0.4)
        base = brute_min_cut_value(g)
        threshold = base + 1
        cuts = enumerate_near_min_cuts(g, threshold, make_rng(trial, "mid"))
        assert cuts is not None
        assert canonical_masks(cuts, 20) == brute_cuts_at_most(g, threshold)


def test_enumerate_respects_cut_cap():
    g = complete(12)  # many near-min cuts once threshold reaches 2(n-2)
    got = enumerate_near_min_cuts(g, 2 * 10, make_rng(0), max_cuts=3)
    assert got is None


def singletons_of(g: SimpleGraph):
    oracle = CutOracle(g)
    return oracle, singleton_state(oracle)


def test_contract_safe_no_cuts_collapses_everything():
    g = cycle(6)
    oracle, ident = singletons_of(g)
    state = contract_safe(oracle, ident, [])
    assert state.group_count() == 1
    assert ident.group_count() == 6  # the state passed in is left untouched


def test_contract_safe_single_cut_two_groups():
    g = cycle(6)
    oracle, ident = singletons_of(g)
    (cut,) = [c for c in enumerate_near_min_cuts(g, 2, make_rng(0)) if c.sorted_side() == (0, 1, 2)]
    state = contract_safe(oracle, ident, [cut])
    assert sorted(state.groups(), key=min) == [frozenset({0, 1, 2}), frozenset({3, 4, 5})]
    # refreshed super degrees must agree with the oracle
    for root in state.roots:
        assert state.degree(root) == oracle.query_mask(state.group_mask(root))


def test_contract_safe_all_cuts_leaves_singletons():
    g = cycle(6)
    oracle, ident = singletons_of(g)
    cuts = enumerate_near_min_cuts(g, 2, make_rng(0))
    state = contract_safe(oracle, ident, cuts)
    assert state.group_count() == 6


def run_v1(g, seed, **kw):
    oracle = CutOracle(g)
    info: dict = {}
    cut = global_min_cut_v1(oracle, rng=make_rng(seed, "v1"), info=info, **kw)
    return oracle, info, cut


def run_v2(g, seed, **kw):
    oracle = CutOracle(g)
    info: dict = {}
    cut = global_min_cut_v2(oracle, rng=make_rng(seed, "v2"), info=info, **kw)
    return oracle, info, cut


def test_v1_on_barbell_and_star():
    _, _, cut = run_v1(barbell(5), 1)
    assert cut.value == 1
    assert cut.side in (frozenset(range(5)), frozenset(range(5, 10)))
    star = SimpleGraph.from_edges(7, [(0, i) for i in range(1, 7)])
    _, _, cut = run_v1(star, 2)
    assert cut.value == 1


def test_v2_on_cycle_planted_and_complete():
    _, _, cut = run_v2(cycle(8), 3)
    assert cut.value == 2
    g = planted_cut(30, 2, 0.6, make_rng(7, "inst"))
    _, _, cut = run_v2(g, 4)
    assert cut.value == 2
    _, _, cut = run_v2(complete(6), 5)
    assert cut.value == 5
    assert len(cut.side) in (1, 5)


def test_pipelines_reject_bad_epsilon_and_missing_rng():
    g = cycle(5)
    for algo in (global_min_cut_v1, global_min_cut_v2):
        with pytest.raises(ValueError):
            algo(CutOracle(g), epsilon=Fraction(1, 2), rng=make_rng(0))
        with pytest.raises(ValueError):
            algo(CutOracle(g), epsilon=Fraction(0), rng=make_rng(0))
        with pytest.raises(ValueError):
            algo(CutOracle(g), rng=None)


def test_pipelines_are_exact_on_random_instances():
    rng = random.Random(20)
    for trial in range(12):
        n = rng.randint(8, 16)
        g = random_simple_graph(n, rng)
        want = brute_min_cut_value(g)
        _, _, cut = run_v1(g, (trial, "a"))
        assert cut.value == want
        _, _, cut = run_v2(g, (trial, "b"))
        assert cut.value == want


def test_pipeline_cut_sides_are_consistent():
    rng = random.Random(30)
    for trial in range(6):
        g = random_simple_graph(12, rng, p=0.4)
        oracle = CutOracle(g)
        cut = global_min_cut_v2(oracle, rng=make_rng(trial, "side"))
        assert g.cut_value_mask(cut.side_mask()) == cut.value


def test_query_budgets_recorded_and_bounded():
    # distinct <= c5 * n * log^4 n (v1) and c5 * n * log^3 n / eps^2 (v2)
    c5 = 6.0
    eps = Fraction(1, 4)
    for n, seed in ((12, 0), (20, 1), (32, 2), (40, 3)):
        g = gnp(n, 0.4, make_rng(seed, "qb"))
        o1, _, _ = run_v1(g, seed)
        o2, _, _ = run_v2(g, seed)
        l4 = math.log(max(2, n)) ** 4
        l3 = math.log(max(2, n)) ** 3
        assert o1.ledger.distinct_queries <= c5 * n * l4
        assert o2.ledger.distinct_queries <= c5 * n * l3 / float(eps) ** 2


def test_cover_count_on_cycle_and_complete():
    assert cover_edge_count(cycle(8), Fraction(1, 100)) == 8
    assert cover_edge_count(complete(6), Fraction(1, 100)) == 0


def test_cover_count_bounded_linearly():
    rng = random.Random(40)
    worst = 0.0
    for trial in range(10):
        n = rng.randint(8, 14)
        g = random_simple_graph(n, rng, p=0.5)
        count = cover_edge_count(g, Fraction(1, 4))
        worst = max(worst, count / n)
        assert count <= 20 * n
    assert worst <= 20


def test_cover_count_rejects_large_graphs():
    with pytest.raises(ValueError):
        cover_edge_count(cycle(20), Fraction(1, 10))
