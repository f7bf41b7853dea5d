import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutquery import (
    Cut,
    SimpleGraph,
    WeightedGraph,
    barbell,
    better_cut,
    clique_plus_path,
    cycle,
    exact_cut_value,
    generate,
    gnp,
    planted_cut_sides,
    read_edge_list,
    write_edge_list,
)
from cutquery.graph import ContractionState, bits_of, canonical_side_mask, mask_of

from conftest import random_simple_graph


def test_simple_graph_rejects_self_loops_and_range():
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph.from_edges(3, [(0, 3)])


def test_graphs_reject_negative_vertex_count():
    with pytest.raises(ValueError, match="negative vertex count"):
        SimpleGraph.from_edges(-1, [])
    with pytest.raises(ValueError, match="negative vertex count"):
        WeightedGraph(-1, {})
    assert SimpleGraph.from_edges(0, []).n == 0
    assert WeightedGraph(0).n == 0


def test_simple_graph_merges_duplicate_edges():
    g = SimpleGraph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_weighted_graph_merges_parallel_and_rejects_nonpositive():
    g = WeightedGraph.from_edges(3, [(0, 1, 2), (1, 0, 3)])
    assert g.weights == {(0, 1): 5}
    with pytest.raises(ValueError):
        WeightedGraph(3, {(0, 1): 0})
    # weights are int multiplicities: no Fraction, float or bool
    for bad in (Fraction(1, 2), Fraction(2), 1.0, 2.5, True):
        with pytest.raises(ValueError):
            WeightedGraph(3, {(0, 1): bad})
        with pytest.raises(ValueError):
            WeightedGraph.from_edges(3, [(0, 1, bad)])


def test_triangle_cut_values():
    g = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert g.cut_value_mask(0b001) == 2
    assert g.cut_value_mask(0b011) == 2
    assert exact_cut_value(g, [0]) == 2


def test_degree_sum_is_twice_edge_count():
    rng = random.Random(5)
    for _ in range(20):
        g = random_simple_graph(rng.randint(2, 12), rng)
        assert sum(g.degrees()) == 2 * g.m


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cut_value_complement_symmetry(data):
    n = data.draw(st.integers(2, 10))
    g = random_simple_graph(n, random.Random(data.draw(st.integers(0, 10**6))))
    mask = data.draw(st.integers(1, (1 << n) - 2))
    full = (1 << n) - 1
    assert g.cut_value_mask(mask) == g.cut_value_mask(full & ~mask)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cut_function_is_submodular(data):
    # c(A) + c(B) >= c(A|B) + c(A&B) for every pair of vertex sets
    n = data.draw(st.integers(2, 9))
    g = random_simple_graph(n, random.Random(data.draw(st.integers(0, 10**6))))
    full = (1 << n) - 1
    a = data.draw(st.integers(0, full))
    b = data.draw(st.integers(0, full))
    c = g.cut_value_mask
    assert c(a) + c(b) >= c(a | b) + c(a & b)


def test_mask_helpers_roundtrip():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(bits_of(0b100101)) == [0, 2, 5]
    assert canonical_side_mask(0b0110, 0b1111) == 0b1001  # flips to hold vertex 0


def test_generators_shapes():
    b = barbell(5)
    assert b.n == 10 and b.m == 21  # 2*C(5,2) + bridge
    c = cycle(6)
    assert c.n == 6 and c.m == 6
    k = clique_plus_path(4, 3)
    assert k.m == 6 + 3
    g = gnp(30, 0.2, random.Random(9))
    assert g.n == 30 and 0 < g.m < 435


def test_planted_cut_crossing_count_is_exact():
    for seed in range(8):
        g, side = planted_cut_sides(20, 3, 0.6, random.Random(seed))
        crossing = sum(1 for u, v in g.edges if (u in side) != (v in side))
        assert crossing == 3
        assert len(side) == 10


def test_planted_cut_rejects_an_inside_p_outside_the_unit_interval():
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            planted_cut_sides(20, 3, p, random.Random(0))
    for p in (0.0, 1.0):
        planted_cut_sides(20, 3, p, random.Random(0))


def test_generate_dispatch_and_unknown_kind():
    g = generate("barbell", {"clique": 5}, seed=0)
    assert g.m == 21
    g = generate("planted_cut", {"n": 12, "k": 2}, seed=3)
    assert g.n == 12
    with pytest.raises(ValueError):
        generate("mystery", {}, seed=0)


def test_edge_list_roundtrip(tmp_path):
    g = gnp(17, 0.4, random.Random(3))
    path = tmp_path / "g.el"
    write_edge_list(g, path)
    text = path.read_text()
    first = text.splitlines()[0].split()
    assert first == [str(g.n), str(g.m)]
    assert read_edge_list(path) == g


def test_edge_list_rows_sorted(tmp_path):
    g = SimpleGraph.from_edges(4, [(2, 3), (0, 1), (1, 3)])
    path = tmp_path / "g.el"
    write_edge_list(g, path)
    rows = path.read_text().splitlines()[1:]
    assert rows == sorted(rows, key=lambda r: tuple(map(int, r.split())))


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 1\n0 1 5\n", ":2: expected two integers, found '0 1 5'"),
        ("3 1\n0 1 5 1\n", ":2: expected two integers, found '0 1 5 1'"),
        ("3 2\n0 1\n\n1 x\n", ":4: expected two integers, found '1 x'"),
        ("3\n0 1\n", ":1: expected two integers, found '3'"),
        ("3 -1\n", ":1: negative edge count -1"),
        ("3 2\n0 1\n", ": expected 2 edges, found 1"),
        ("\n\n", ": missing header"),
    ],
)
def test_edge_list_names_the_first_bad_line(tmp_path, text, message):
    path = tmp_path / "bad.el"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_edge_list(str(path))
    assert str(err.value) == f"{path}{message}"


def test_cut_ordering_and_ties():
    a = Cut(frozenset([0]), 3)
    b = Cut(frozenset([1, 2]), 2)
    assert better_cut(a, b) is b
    assert better_cut(None, a) is a
    # equal values: keep the incumbent
    c = Cut(frozenset([2]), 2)
    assert better_cut(b, c) is b


def test_contraction_state_bookkeeping():
    g = SimpleGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])  # C4
    state = ContractionState(4, [g.cut_value_mask(1 << v) for v in range(4)])
    assert state.group_count() == 4
    assert state.interface_edge_count() == 4
    root = state.contract(0, 1)
    state.set_degree(root, g.cut_value_mask(state.group_mask(root)))
    assert state.group_count() == 3
    assert state.interface_edge_count() == 3  # the 0-1 edge became internal
    groups = state.groups()
    assert frozenset([0, 1]) in groups
    # groups partition the vertex set
    assert sorted(v for grp in groups for v in grp) == [0, 1, 2, 3]


def test_contraction_state_copy_owns_its_partition():
    state = ContractionState(4, [1] * 4)
    dup = state.copy()
    root = dup.contract(3, 1)
    assert root == 1 and dup.find(3) == 1
    assert state.find(3) == 3 and state.group_count() == 4
    with pytest.raises(ValueError):
        dup.contract(1, 3)


def test_contraction_state_merge_group_set():
    state = ContractionState(5, [1] * 5)
    root = state.merge_group_set([0, 2, 4])
    assert state.group_mask(root) == 0b10101
    assert state.group_count() == 3
