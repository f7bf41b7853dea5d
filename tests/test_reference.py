import random
from fractions import Fraction

import pytest

from cutquery import (
    CutOracle,
    SimpleGraph,
    WeightedGraph,
    barbell,
    brute_force_min_cut,
    brute_force_st_min_cut,
    cycle,
    definitional_strengths,
    deterministic_min_cut,
    exact_cut_value,
    exact_strengths,
    gnp,
    planted_cut,
    st_min_cut_known,
)

from conftest import (
    all_simple_graphs,
    brute_min_cut_value,
    brute_st_cut_value,
    definitional_strength_brute,
    random_simple_graph,
    random_weighted_graph,
)


def complete(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_brute_force_cycle():
    assert brute_force_min_cut(cycle(5)).value == 2


def test_brute_force_st_on_complete():
    cut = brute_force_st_min_cut(complete(4), 0, 3)
    assert cut.value == 3
    assert 0 in cut.side and 3 not in cut.side


def test_brute_force_respects_size_limit():
    with pytest.raises(ValueError):
        brute_force_min_cut(cycle(25))


def test_brute_force_agrees_with_deterministic():
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randint(2, 16)
        g = random_simple_graph(n, rng)
        assert brute_force_min_cut(g).value == deterministic_min_cut(g).value


def _family(kind: str, n: int, rng: random.Random) -> SimpleGraph:
    if kind == "gnp":
        return gnp(n, 6 / n, rng)
    if kind == "planted":
        return planted_cut(n, 3, 12 / n, rng)
    if kind == "cycle":
        return cycle(n)  # n(n-1)/2 tied minimum cuts
    return barbell(n // 2)


@pytest.mark.parametrize("weights", ["unit", "fraction"])
@pytest.mark.parametrize("n", [30, 64, 256])
@pytest.mark.parametrize("kind", ["gnp", "planted", "cycle", "barbell"])
def test_deterministic_matches_max_flow(kind, n, weights):
    # beyond brute-force size: the global min cut is the least s-t cut from
    # vertex 0, and the max-flow code shares nothing with the solver
    rng = random.Random(f"{kind}-{n}-{weights}")
    g = _family(kind, n, rng).to_weighted()
    if weights == "fraction":
        # rational weights are rejected; times their common denominator they
        # become the heavy multiplicities (5 to 90) this case solves
        rational = {e: Fraction(rng.randint(1, 6), rng.choice((2, 3, 5))) for e in g.weights}
        with pytest.raises(ValueError):
            WeightedGraph(n, rational)
        g = WeightedGraph(n, {e: int(w * 30) for e, w in rational.items()})
    cut = deterministic_min_cut(g)
    side = cut.side_mask()
    assert 0 < side < (1 << n) - 1
    assert g.cut_value_mask(side) == cut.value
    flows = min(st_min_cut_known(g, 0, t).value for t in range(1, n))
    assert cut.value == flows


def test_deterministic_matches_brute_force_on_clustered_graphs():
    # dense weighted clusters with sparse links put the minimum cut between
    # clusters rather than at a vertex, so the contraction rule is what
    # finds it; a rule that merges across a cut below the best one misses
    rng = random.Random(9)
    for _ in range(2000):
        n = rng.randint(6, 14)
        parts = rng.randint(2, 4)
        label = [rng.randrange(parts) for _ in range(n)]
        g = WeightedGraph.from_edges(
            n,
            [
                (u, v, rng.randint(1, 4))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < (0.8 if label[u] == label[v] else 0.12)
            ],
        )
        assert deterministic_min_cut(g).value == brute_force_min_cut(g).value


def test_deterministic_barbell_and_disconnected():
    assert deterministic_min_cut(barbell(5)).value == 1
    two = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
    assert deterministic_min_cut(two).value == 0


def test_deterministic_cut_side_value_matches():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(2, 12)
        g = random_weighted_graph(n, rng)
        cut = deterministic_min_cut(g)
        assert exact_cut_value(g, cut.side) == cut.value
        assert cut.value == brute_min_cut_value(g)


def test_deterministic_on_weighted_fractions():
    # Fraction weights are rejected; doubled, they are the multigraph below
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(
            4, [(0, 1, Fraction(1, 2)), (1, 2, Fraction(3, 2)), (2, 3, 1), (0, 3, 1)]
        )
    g = WeightedGraph.from_edges(4, [(0, 1, 1), (1, 2, 3), (2, 3, 2), (0, 3, 2)])
    cut = deterministic_min_cut(g)
    assert cut.value == 3  # {0} and {0, 3} tie: 1 + 2
    assert g.cut_value_mask(cut.side_mask()) == 3


def test_st_known_path_and_side_convention():
    g = WeightedGraph.from_edges(5, [(i, i + 1, 1) for i in range(4)])
    cut = st_min_cut_known(g, 0, 4)
    assert cut.value == 1
    assert 0 in cut.side and 4 not in cut.side


@pytest.mark.parametrize("s, t", [(0, 6), (6, 0), (0, -1)])
def test_st_known_rejects_terminals_outside_the_range(s, t):
    with pytest.raises(ValueError, match="outside the vertex range"):
        st_min_cut_known(cycle(6).to_weighted(), s, t)


def test_st_known_matches_brute():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(2, 10)
        g = random_weighted_graph(n, rng)
        s, t = rng.sample(range(n), 2)
        cut = st_min_cut_known(g, s, t)
        assert cut.value == brute_st_cut_value(g, s, t)
        assert exact_cut_value(g, cut.side) == cut.value


def test_strengths_on_clique_with_pendant():
    g = SimpleGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    ks = exact_strengths(g)
    for e in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        assert ks[e] == 3
    assert ks[(3, 4)] == 1


def test_strengths_on_tree():
    g = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    assert set(exact_strengths(g).values()) == {1}


def test_strengths_match_definition_exhaustive_small():
    for n in (2, 3, 4):
        for g in all_simple_graphs(n):
            if g.m == 0:
                continue
            ks = exact_strengths(g)
            for u, v in g.edges:
                assert ks[(u, v)] == definitional_strength_brute(g, u, v)


def test_strengths_match_definition_random():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(4, 8)
        g = random_simple_graph(n, rng)
        if g.m == 0:
            continue
        ks = exact_strengths(g)
        defn = definitional_strengths(g)
        assert ks == defn
        for u, v in rng.sample(sorted(g.edges), min(3, g.m)):
            assert ks[(u, v)] == definitional_strength_brute(g, u, v)


def test_strengths_match_definition_n10():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(4, 10)
        g = random_simple_graph(n, rng)
        if g.m == 0:
            continue
        assert exact_strengths(g) == definitional_strengths(g)


def test_dense_subgraph_exists_when_weight_forces_it():
    # a graph with total weight >= d(n-1) must contain a d-connected part,
    # visible as some edge of strength >= d
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randint(3, 12)
        g = random_simple_graph(n, rng)
        if g.m == 0:
            continue
        d = g.m // (n - 1)
        if d < 1:
            continue
        assert max(exact_strengths(g).values()) >= d


def test_reference_solvers_never_query_an_oracle():
    g = random_simple_graph(10, random.Random(4))
    oracle = CutOracle(g)
    deterministic_min_cut(g)
    brute_force_min_cut(g)
    exact_strengths(g)
    assert oracle.ledger.total_calls == 0
