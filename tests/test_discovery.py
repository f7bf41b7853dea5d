import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutquery import (
    CutOracle,
    SimpleGraph,
    find_neighbor,
    global_min_cut_v2,
    learn_graph,
    make_rng,
    planted_cut_sides,
    st_min_cut,
)
from cutquery import discovery, global_mincut, st_mincut
from cutquery.discovery import (
    descend,
    finish,
    first_edge,
    flow_cut,
    front,
    learn_intergroup_edges,
    sample_intergroup_edges,
    singleton_state,
    spanning_forest,
    trie_split,
)
from cutquery.graph import (
    ContractionState,
    Cut,
    UnionFind,
    better_cut,
    bits_of,
    cycle,
    gnp,
    mask_of,
    normalize_edge,
    planted_cut,
)
from cutquery.params import ceil_log2
from cutquery.reference import deterministic_min_cut, st_min_cut_known
from cutquery.rng import weighted_index

from conftest import (
    HalfKeep,
    all_simple_graphs,
    planted_st_cases,
    random_simple_graph,
    ring_of_clusters,
)


def path(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star(leaves: int) -> SimpleGraph:
    return SimpleGraph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def singletons(scope: int) -> list[int]:
    """The scope's vertices as one-vertex groups, in ascending order."""
    return [1 << v for v in bits_of(scope)]


def sample_k(oracle, scope, k, rng):
    """k distinct uniform edges inside the scope: the sampler over singletons."""
    return sample_intergroup_edges(oracle, singletons(scope), k, rng)


def neighbor_checked(oracle, v, candidates, exclude=0):
    """find_neighbor plus the per-invocation distinct-query bound."""
    cand_mask = candidates if isinstance(candidates, int) else mask_of(candidates)
    excl_mask = exclude if isinstance(exclude, int) else mask_of(exclude)
    live = bin(cand_mask & ~excl_mask & ~(1 << v)).count("1")
    before = oracle.ledger.distinct_queries
    got = find_neighbor(oracle, v, candidates, exclude)
    spent = oracle.ledger.distinct_queries - before
    budget = 3 * ceil_log2(max(2, live)) + 3 if live else 3
    assert spent <= budget, f"{spent} distinct queries, budget {budget}"
    return got


def test_path_neighbor_excluding_one_side():
    oracle = CutOracle(path(5))
    got = neighbor_checked(oracle, 2, [0, 1, 3, 4], exclude=[1])
    assert got == 3


def test_path_neighbor_is_deterministic():
    runs = {
        neighbor_checked(CutOracle(path(5)), 2, [0, 1, 3, 4]) for _ in range(5)
    }
    assert len(runs) == 1  # halving probes the lower half first, every time


def test_star_center_and_leaf():
    oracle = CutOracle(star(4))
    got = neighbor_checked(oracle, 0, [1, 2, 3, 4])
    assert got in {1, 2, 3, 4}
    assert neighbor_checked(oracle, 1, [0, 2, 3, 4]) == 0
    assert neighbor_checked(oracle, 1, [2, 3, 4]) is None


def test_isolated_vertex_has_no_neighbor():
    g = SimpleGraph.from_edges(3, [(0, 1)])
    oracle = CutOracle(g)
    assert neighbor_checked(oracle, 2, [0, 1]) is None


def test_exclude_must_be_subset_of_candidates():
    oracle = CutOracle(path(3))
    with pytest.raises(ValueError):
        find_neighbor(oracle, 0, [1], exclude=[2])


def test_neighbor_found_whenever_one_exists_small_exhaustive():
    # every graph on up to 5 vertices, every start, full candidate set
    for n in (2, 3, 4, 5):
        for g in all_simple_graphs(n):
            oracle = CutOracle(g)
            adj = g.adjacency_masks()
            for v in range(n):
                others = [u for u in range(n) if u != v]
                got = neighbor_checked(oracle, v, others)
                if adj[v]:
                    assert got is not None and (adj[v] >> got) & 1
                else:
                    assert got is None


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_neighbor_found_whenever_one_exists_random(data):
    n = data.draw(st.integers(6, 7))
    g = random_simple_graph(n, random.Random(data.draw(st.integers(0, 10**6))))
    v = data.draw(st.integers(0, n - 1))
    exclude_pool = [u for u in range(n) if u != v]
    exclude = data.draw(st.sets(st.sampled_from(exclude_pool), max_size=n - 2))
    oracle = CutOracle(g)
    got = neighbor_checked(oracle, v, exclude_pool, exclude=sorted(exclude))
    adj = g.adjacency_masks()[v]
    live = adj & ~mask_of(exclude)
    if live:
        assert got is not None and (live >> got) & 1
    else:
        assert got is None


def learn_checked(g: SimpleGraph, abort_above=None):
    oracle = CutOracle(g)
    before = oracle.ledger.distinct_queries
    learned = learn_graph(oracle, abort_above=abort_above)
    spent = oracle.ledger.distinct_queries - before
    if learned is not None:
        budget = 4 * (g.n + g.m * ceil_log2(max(2, g.n)))
        assert spent <= budget, f"{spent} distinct queries, budget {budget}"
    return learned


def test_learn_cycle_exactly():
    g = SimpleGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    assert learn_checked(g) == g


def test_learn_aborts_on_dense_graph():
    k10 = SimpleGraph.from_edges(10, [(u, v) for u in range(10) for v in range(u + 1, 10)])
    assert learn_checked(k10, abort_above=5) is None


def test_learner_rejects_a_negative_abort_bound():
    g = path(5)
    for call in (
        lambda o: learn_graph(o, abort_above=-1),
        lambda o: learn_intergroup_edges(o, [0b11, 0b11100], abort_above=-3),
    ):
        oracle = CutOracle(g)
        with pytest.raises(ValueError, match="abort_above"):
            call(oracle)
        assert oracle.ledger.distinct_queries == 0
    # zero is a bound, not an error: any edge at all aborts
    assert learn_graph(CutOracle(g), abort_above=0) is None
    assert learn_graph(CutOracle(SimpleGraph.from_edges(3, [])), abort_above=0).m == 0


def test_learn_random_graph_within_budget():
    g = gnp(30, 0.2, random.Random(9))
    assert learn_checked(g) == g


def test_learn_many_random_graphs():
    rng = random.Random(77)
    for _ in range(15):
        g = random_simple_graph(rng.randint(2, 12), rng)
        assert learn_checked(g) == g


def test_uniform_edge_on_triangle():
    g = SimpleGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    oracle = CutOracle(g)
    rng = make_rng(123, "tri")
    counts = Counter(sample_k(oracle, (1 << 3) - 1, 1, rng)[0] for _ in range(3000))
    assert set(counts) == set(g.edges)
    for e in g.edges:
        assert abs(counts[e] / 3000 - 1 / 3) <= 0.05


def test_uniform_edge_on_barbell_bridge_rate():
    from cutquery import barbell

    g = barbell(4)  # 13 edges, one bridge
    oracle = CutOracle(g)
    rng = make_rng(7, "barbell")
    bridge = (3, 4)
    hits = sum(sample_k(oracle, (1 << g.n) - 1, 1, rng) == [bridge] for _ in range(5000))
    assert abs(hits / 5000 - 1 / 13) <= 0.02


def test_sample_k_complete_graph_all_edges():
    k4 = complete(4)
    oracle = CutOracle(k4)
    got = sample_k(oracle, (1 << 4) - 1, 6, make_rng(1))
    assert sorted(got) == sorted(k4.edges)


def test_sample_k_zero():
    oracle = CutOracle(path(4))
    assert sample_k(oracle, (1 << 4) - 1, 0, make_rng(1)) == []
    assert oracle.ledger.snapshot() == (0, 0)


def test_sample_intergroup_edges_rejects_negative_k_before_any_query():
    g = gnp(20, 0.3, make_rng(5, "negative"))
    oracle = CutOracle(g)
    rng = make_rng(5, "negative", "draw")
    state = rng.getstate()
    with pytest.raises(ValueError, match="negative"):
        sample_k(oracle, (1 << g.n) - 1, -1, rng)
    assert oracle.ledger.snapshot() == (0, 0)
    assert rng.getstate() == state


@pytest.mark.parametrize("seed, k", [(5, 3), (0, 3), (5, 100)])
def test_sample_intergroup_edges_rejects_overlapping_groups_before_any_query(seed, k):
    # groups 0-19 and 10-29 share 10-19. Before, the rejection path (2 k <
    # w) drew (4, 10), whose ends both lie in the first group, on graph
    # seed 5, and raised "odd inter-group degree total" on seed 0; only
    # the learning path (2 k >= w) refused the family, after three queries
    g = gnp(40, 0.3, make_rng(seed, "ov"))
    masks = [mask_of(range(20)), mask_of(range(10, 30)), mask_of(range(30, 40))]
    oracle = CutOracle(g)
    rng = make_rng(1)
    state = rng.getstate()
    with pytest.raises(ValueError, match="group masks overlap"):
        sample_intergroup_edges(oracle, masks, k, rng)
    assert oracle.ledger.snapshot() == (0, 0)
    assert rng.getstate() == state


def test_sample_k_requires_enough_edges():
    oracle = CutOracle(path(3))
    with pytest.raises(ValueError):
        sample_k(oracle, (1 << 3) - 1, 5, make_rng(1))


def test_sample_k_marginal_inclusion_rate():
    # drawing 3 of K5's 10 edges: each edge should appear with rate 3/10
    k5 = complete(5)
    oracle = CutOracle(k5)
    rng = make_rng(42, "k5")
    counts = Counter()
    trials = 2000
    for _ in range(trials):
        for e in sample_k(oracle, (1 << 5) - 1, 3, rng):
            counts[e] += 1
    for e in k5.edges:
        assert abs(counts[e] / trials - 0.3) <= 0.03


def test_sample_k_respects_scope():
    # scope covering only the first 3 vertices of a path: one eligible edge
    oracle = CutOracle(path(6))
    got = sample_k(oracle, 0b000111, 2, make_rng(3))
    assert sorted(got) == [(0, 1), (1, 2)]
    for u, v in got:
        assert u < 3 and v < 3


def split_mask(mask):
    """Reference rank split: (low ids, high ids), the low half no smaller."""
    k = mask.bit_count()
    if k < 2:
        raise ValueError("nothing to split")
    low = 0
    m = mask
    for _ in range((k + 1) // 2):
        bit = m & -m
        low |= bit
        m ^= bit
    return low, m


def reference_descend_to_neighbor(oracle, anchor, candidates, rng=None, total=None):
    """Reference single-vertex descent over `candidates`, split by rank;
    returns the vertex and its edge count to the anchor."""
    if anchor & candidates:
        raise ValueError("anchor and candidates overlap")
    if total is None:
        total = oracle.count_between_masks(anchor, candidates)
    if total <= 0:
        raise ValueError("no edge between anchor and candidates")
    while candidates.bit_count() > 1:
        low, high = split_mask(candidates)
        c_low = oracle.count_between_masks(anchor, low)
        if (rng.randrange(total) < c_low) if rng is not None else (c_low > 0):
            candidates, total = low, c_low
        else:
            candidates, total = high, total - c_low
    return candidates.bit_length() - 1, total


def test_descend_matches_rank_split_reference():
    # every draw goes through a fresh oracle pair, so the snapshots compare
    # whole descents
    for g in _equivalence_graphs():
        rng = random.Random(g.n)
        full = (1 << g.n) - 1
        for trial in range(40):
            anchor = mask_of(v for v in range(g.n) if rng.random() < 0.2) or 1
            cand = full & ~anchor & rng.getrandbits(g.n)
            total = CutOracle(g).count_between_masks(anchor, cand)
            if total == 0:
                continue
            for seeded in (False, True):
                want_oracle, got_oracle = CutOracle(g), CutOracle(g)
                want_rng = make_rng(51, g.n, trial) if seeded else None
                got_rng = make_rng(51, g.n, trial) if seeded else None
                want = reference_descend_to_neighbor(
                    want_oracle, anchor, cand, rng=want_rng, total=total
                )
                assert descend(got_oracle, anchor, cand, total, got_rng) == want, (g.n, trial)
                assert got_oracle.ledger.snapshot() == want_oracle.ledger.snapshot()
                if seeded:
                    assert got_rng.getstate() == want_rng.getstate()
    with pytest.raises(ValueError):
        descend(CutOracle(cycle(6)), 1, 0b110, 0)


def test_descend_rejects_a_walk_with_nothing_to_find():
    # no candidate, or no edge to find: refused before any query, where a
    # walk would otherwise name a vertex that is not there
    for candidates, total in ((0, 2), (0b110, 0), (0b110, -1), (0, 0)):
        oracle = CutOracle(cycle(6))
        for rng in (None, make_rng(54)):
            with pytest.raises(ValueError):
                descend(oracle, 1, candidates, total, rng)
        assert oracle.ledger.snapshot() == (0, 0)


def reference_learn_graph(oracle, abort_above=None):
    """Reference: the whole-graph learner with its own candidate masks, each
    vertex against every higher id."""
    n = oracle.n
    full = (1 << n) - 1
    cand = {}
    for v in range(n):
        above = full & ~((2 << v) - 1)
        if above:
            cand[v] = above
    edges = []
    for v in sorted(cand):
        limit = None if abort_above is None else abort_above - len(edges) + 1
        for u, _ in discovery._trie_walk(oracle, 1 << v, cand[v], limit=limit):
            edges.append((v, u))
        if abort_above is not None and len(edges) > abort_above:
            return None
    return SimpleGraph.from_edges(n, edges)


def reference_sample_k_distinct_edges(oracle, scope, k, rng):
    """Reference: the induced-scope sampler with its own degree counts,
    induced learner and single-edge draw (endpoint by degree, partner by
    randomized descent)."""
    if k < 0:
        raise ValueError("negative sample size")
    if k == 0:
        return []
    degrees = {
        u: oracle.count_between_masks(1 << u, scope & ~(1 << u)) for u in bits_of(scope)
    }
    m_inside = sum(degrees.values()) // 2
    if k > m_inside:
        raise ValueError(f"scope holds {m_inside} edges; cannot pick {k} distinct")
    if 2 * k >= m_inside:
        edges = []
        above = scope
        for v in bits_of(scope):
            above &= ~(1 << v)
            for u, _ in discovery._trie_walk(oracle, 1 << v, above):
                edges.append((v, u))
        rng.shuffle(edges)
        return edges[:k]
    verts = sorted(degrees)
    weights = [degrees[u] for u in verts]
    total = sum(weights)
    budget = 50 * k * max(1, (max(2, oracle.n) - 1).bit_length())
    seen = set()
    out = []
    for _ in range(budget):
        u = verts[weighted_index(rng, weights, total)]
        v, _ = reference_descend_to_neighbor(
            oracle, 1 << u, scope & ~(1 << u), rng=rng, total=degrees[u]
        )
        e = normalize_edge(u, v)
        if e not in seen:
            seen.add(e)
            out.append(e)
            if len(out) == k:
                return out
    raise RuntimeError("rejection budget exhausted before k distinct edges")


def _equivalence_graphs():
    return [
        gnp(64, 0.1, make_rng(41, "equiv")),
        gnp(120, 6 / 119, make_rng(42, "equiv")),
        planted_cut(80, 3, 0.2, make_rng(43, "equiv")),
        cycle(30),
        complete(12),
    ]


def test_learn_graph_matches_per_vertex_candidate_reference():
    for g in _equivalence_graphs():
        for abort_above in (None, 5, g.m // 2, g.m):
            want_oracle, got_oracle = CutOracle(g), CutOracle(g)
            want = reference_learn_graph(want_oracle, abort_above)
            got = learn_graph(got_oracle, abort_above=abort_above)
            assert got == want, (g.n, abort_above)
            assert (got is None) == (abort_above is not None and abort_above < g.m)
            assert got_oracle.ledger.snapshot() == want_oracle.ledger.snapshot()


def test_singleton_sampler_matches_scope_sampler_reference():
    for g in _equivalence_graphs():
        rng = random.Random(g.n)
        scopes = [(1 << g.n) - 1]
        scopes += [mask_of(v for v in range(g.n) if rng.random() < 0.6) for _ in range(2)]
        for scope in scopes:
            m_inside = sum(1 for u, v in g.edges if (scope >> u) & 1 and (scope >> v) & 1)
            ks = range(1, m_inside + 1)
            if m_inside > 60:  # every k costs a fresh run; keep both regimes' edges
                half = m_inside // 2
                ks = sorted({1, 2, 3, half // 2, half - 1, half, half + 1, m_inside})
            for k in ks:
                want_oracle, got_oracle = CutOracle(g), CutOracle(g)
                want_rng, got_rng = make_rng(44, g.n, scope, k), make_rng(44, g.n, scope, k)
                want = reference_sample_k_distinct_edges(want_oracle, scope, k, want_rng)
                got = sample_k(got_oracle, scope, k, got_rng)
                assert got == want, (g.n, scope, k)
                assert got_oracle.ledger.snapshot() == want_oracle.ledger.snapshot()
                assert got_rng.getstate() == want_rng.getstate()
            with pytest.raises(ValueError):
                sample_k(CutOracle(g), scope, m_inside + 1, make_rng(44))


def rank_split_walk(oracle, anchor, candidates, count=None, known=None, limit=None):
    """Reference learner: the same walk as `discovery._trie_walk` with no
    record, but splitting candidates by rank, so each anchor's blocks are
    its own."""
    assert known is None
    found = []

    def walk(mask, count):
        if mask == 0:
            return
        if count is None:
            count = oracle.count_between_masks(anchor, mask)
        if count == 0:
            return
        if mask.bit_count() == 1:
            found.append((mask.bit_length() - 1, count))
            return
        low, high = split_mask(mask)
        c_low = oracle.count_between_masks(anchor, low)
        walk(low, c_low)
        if len(found) != limit:
            walk(high, count - c_low)

    walk(candidates, count)
    return found


def test_trie_split_cuts_at_an_aligned_boundary():
    assert trie_split(0b1111) == (0b0011, 0b1100)
    assert trie_split(0b10000001) == (0b1, 0b10000000)
    assert trie_split(0b1011000) == (0b0001000, 0b1010000)
    rng = random.Random(3)
    for _ in range(300):
        mask = rng.getrandbits(rng.randint(2, 40)) | (1 << rng.randrange(40))
        if mask.bit_count() < 2:
            continue
        low, high = trie_split(mask)
        assert low and high and low | high == mask and low & high == 0
        lo, hi = (mask & -mask).bit_length() - 1, mask.bit_length() - 1
        # the cut sits at the multiple of the largest power of two in (lo, hi]
        size = max(s for s in (1 << j for j in range(7)) if hi // s > lo // s)
        boundary = hi // size * size
        assert low == mask & ((1 << boundary) - 1)


def _scattered_masks(n, k, rng):
    ids = list(range(n))
    rng.shuffle(ids)
    masks = [0] * k
    for i, v in enumerate(ids):
        masks[i % k] |= 1 << v
    return masks


def test_trie_learner_matches_rank_split_reference(monkeypatch):
    graphs = [
        gnp(64, 0.1, make_rng(21, "trie")),
        gnp(150, 6 / 149, make_rng(22, "trie")),
        planted_cut(96, 3, 0.1, make_rng(23, "trie")),
        planted_cut(60, 3, 0.5, make_rng(24, "trie")),
        cycle(50),
        star(40),
        SimpleGraph.from_edges(24, [(u, v) for u in range(24) for v in range(u + 1, 24)]),
    ]
    trie_learner = discovery._trie_walk
    spent = {}  # learner -> [rank-split total, trie total]
    for g in graphs:
        rng = random.Random(g.n)
        scope = mask_of(v for v in range(g.n) if rng.random() < 0.7)
        masks = _scattered_masks(g.n, 5, rng)
        runs = [
            ("learn_graph", lambda: CutOracle(g), lambda o: list(learn_graph(o).edges)),
            (
                "singletons of a scope",
                lambda: CutOracle(g),
                lambda o: learn_intergroup_edges(o, singletons(scope)),
            ),
            (
                "learn_intergroup_edges",
                lambda: CutOracle(g),
                lambda o: learn_intergroup_edges(o, masks),
            ),
        ]
        for name, make_oracle, learn in runs:
            totals = spent.setdefault(name, [0, 0])
            monkeypatch.setattr(discovery, "_trie_walk", rank_split_walk)
            oracle = make_oracle()
            want = learn(oracle)
            totals[0] += oracle.ledger.distinct_queries
            monkeypatch.setattr(discovery, "_trie_walk", trie_learner)
            oracle = make_oracle()
            assert learn(oracle) == want, (name, g.n)
            totals[1] += oracle.ledger.distinct_queries
    # a single walk can cost a query or two more when its trie is lopsided
    # (star(40) under scattered groups: 158 against 157); shared blocks win
    # back far more than that over each learner's cases
    for name, (rank_total, trie_total) in spent.items():
        assert trie_total < rank_total, (name, rank_total, trie_total)


def test_sample_intergroup_edges_reads_known_edges_on_the_same_stream():
    # a piece whose edges are known is drawn by shuffling them and keeping
    # the first k: the sampler's own draw, query for query, when 2 k >= w
    g = gnp(60, 0.15, make_rng(31, "known"))
    masks = _scattered_masks(g.n, 6, random.Random(31))
    known = learn_intergroup_edges(CutOracle(g), masks)
    w = len(known)
    for k in ((w + 1) // 2, 3 * w // 4, w):
        rng = make_rng(32, "known", k)
        want = sample_intergroup_edges(CutOracle(g), masks, k, rng)
        want_state = rng.getstate()
        rng = make_rng(32, "known", k)
        edges = list(known)
        rng.shuffle(edges)
        assert edges[:k] == want
        assert rng.getstate() == want_state


def known_subset(g: SimpleGraph, rng: random.Random, share: float):
    """A random share of g's edges as K, and G - K as a graph of its own."""
    known_edges = {e for e in sorted(g.edges) if rng.random() < share}
    known = [0] * g.n
    for u, v in known_edges:
        known[u] |= 1 << v
        known[v] |= 1 << u
    return known, SimpleGraph(g.n, g.edges - known_edges)


def component_sets(n: int, edges) -> set[frozenset[int]]:
    uf = UnionFind(n)
    for u, v in edges:
        uf.union(u, v)
    comps: dict[int, set[int]] = {}
    for v in range(n):
        comps.setdefault(uf.find(v), set()).add(v)
    return {frozenset(c) for c in comps.values()}


def test_descend_and_find_neighbor_with_known_edges_walk_g_minus_k():
    # counts that leave K out must walk exactly as over an oracle on G - K:
    # same part, same count, same queried sets, same draws
    for g in _equivalence_graphs():
        rng = random.Random(g.n + 7)
        full = (1 << g.n) - 1
        for trial in range(30):
            known, rest_g = known_subset(g, rng, rng.choice((0.0, 0.3, 0.7)))
            anchor = mask_of(v for v in range(g.n) if rng.random() < 0.2) or 1
            cand = full & ~anchor & rng.getrandbits(g.n)
            total = CutOracle(rest_g).count_between_masks(anchor, cand)
            if total == 0:
                continue
            for seeded in (False, True):
                on_g, on_rest = CutOracle(g), CutOracle(rest_g)
                g_rng = make_rng(53, g.n, trial) if seeded else None
                rest_rng = make_rng(53, g.n, trial) if seeded else None
                got = descend(on_g, anchor, cand, total, g_rng, known=known)
                assert got == descend(on_rest, anchor, cand, total, rest_rng)
                assert on_g.ledger.snapshot() == on_rest.ledger.snapshot()
                if seeded:
                    assert g_rng.getstate() == rest_rng.getstate()
            v = rng.randrange(g.n)
            want = find_neighbor(CutOracle(rest_g), v, full)
            assert want is None or (rest_g.adjacency_masks()[v] >> want) & 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_first_edge_is_descend_over_ascending_singletons(data):
    # the galloping walk lands where the positional one does, vertex and
    # count, whatever n / total makes its first block: over G or G - K,
    # from one vertex or from a set
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(2, 80))
    g = random_simple_graph(n, rng, p=data.draw(st.sampled_from((0.03, 0.1, 0.3, 0.7))))
    known, rest_g = known_subset(g, rng, data.draw(st.sampled_from((0.0, 0.3, 0.7))))
    if data.draw(st.booleans()):
        anchor = 1 << rng.randrange(n)
    else:
        anchor = mask_of(v for v in range(n) if rng.random() < 0.3) or 1
    cand = ((1 << n) - 1) & ~anchor & rng.getrandbits(n)
    use_known = data.draw(st.booleans())
    total = CutOracle(rest_g if use_known else g).count_between_masks(anchor, cand)
    if total == 0:
        return
    k = known if use_known else None
    want = descend(CutOracle(g), anchor, cand, total, known=k)
    assert first_edge(CutOracle(g), anchor, cand, total, k) == want


def test_first_edge_rejects_a_walk_with_nothing_to_find():
    oracle = CutOracle(cycle(6))
    with pytest.raises(ValueError):
        first_edge(oracle, 1, 0b110, 0)
    with pytest.raises(ValueError):
        first_edge(oracle, 1, 0, 2)


def test_first_edge_stays_within_its_bound_when_every_neighbor_is_high():
    # the anchor's neighbors all sit in the upper half of the ids, so the
    # gallop counts every lower block and the split runs the full depth of
    # the upper one: L + max(0, L - log2 s - 1) counts, L = ceil(log2 n),
    # two fresh queries each besides the anchor's own, met exactly where
    # the neighbors fill the upper half
    for n in (64, 256):
        L, half = ceil_log2(n), n // 2
        g = SimpleGraph.from_edges(n, [(0, u) for u in range(half, n)])
        oracle = CutOracle(g)
        cand = ((1 << n) - 1) & ~1 & ~(1 << (half - 1))
        assert oracle.count_between_masks(1, cand) == half
        before = oracle.ledger.distinct_queries
        assert first_edge(oracle, 1, cand, half) == (half, 1)
        log2_s = ceil_log2(n // half)
        assert oracle.ledger.distinct_queries - before == 2 * (2 * L - log2_s - 1)
        rng = random.Random(n)
        for _ in range(60):
            v = rng.randrange(half)
            share = rng.choice((0.02, 0.3, 1.0))
            high = [u for u in range(half, n) if rng.random() < share] or [n - 1]
            g = SimpleGraph.from_edges(n, [(v, u) for u in high])
            dropped = rng.getrandbits(half) if rng.random() < 0.5 else 0
            cand = ((1 << n) - 1) & ~(1 << v) & ~dropped
            oracle = CutOracle(g)
            total = oracle.count_between_masks(1 << v, cand)
            before = oracle.ledger.distinct_queries
            assert first_edge(oracle, 1 << v, cand, total) == (min(high), 1)
            log2_s = (-(-n // total) - 1).bit_length()
            assert oracle.ledger.distinct_queries - before <= 2 * (L + max(0, L - log2_s - 1))


def test_spanning_forest_is_a_maximal_forest_of_g_minus_k():
    graphs = _equivalence_graphs() + [
        SimpleGraph.from_edges(9, [(0, 1), (1, 2), (3, 4), (6, 7), (7, 8), (6, 8)]),
        SimpleGraph(5, frozenset()),
    ]
    for g in graphs:
        rng = random.Random(g.n + 11)
        for share in (0.0, 0.4, 0.8):
            known, rest_g = known_subset(g, rng, share)
            oracle = CutOracle(g)
            forest = spanning_forest(oracle, known)
            # every answer is a cut of G: the oracle's cheapest is no more
            # than any proper component boundary the search queried
            cheapest = oracle.cheapest
            side = cheapest.side_mask()
            assert 0 < side < (1 << g.n) - 1 and g.cut_value_mask(side) == cheapest.value
            for comp in component_sets(g.n, rest_g.edges):
                if len(comp) < g.n:
                    assert cheapest.value <= g.cut_value_mask(mask_of(comp))
            assert forest == sorted(set(forest))
            assert set(forest) <= rest_g.edges  # in G, and none of K
            uf = UnionFind(g.n)
            assert all(uf.union(u, v) for u, v in forest)  # acyclic
            assert component_sets(g.n, forest) == component_sets(g.n, rest_g.edges)


def test_front_keeps_the_boundary_forests_saw_when_they_give_up():
    # a planted cut of 16 below the minimum degree, 23: m = 915 clears the
    # entry bar, and the planted side is a Borůvka component of the first
    # forest, so U falls to 16; 16 (n - 1) > m still, so forests give up
    # after that forest, and the front hands back the side they saw,
    # unproved
    g, side = planted_cut_sides(64, 16, 0.9, make_rng(0, "seen", 64, 16))
    assert (min(g.degrees()), g.m) == (23, 915)
    stats: dict = {}
    state, upper = front(CutOracle(g), stats)
    assert stats == {"forests": 1, "certified": False}
    assert state.group_count() == g.n
    assert upper.value == 16 == g.cut_value_mask(upper.side_mask())
    assert upper.side in (side, set(range(g.n)) - side)


def hub_and_circulant(n: int, u: int, m: int) -> SimpleGraph:
    """Vertex 0 joined to 1..u, then circulant edges over 1..n-1, offset 1
    first, until the graph holds exactly m edges."""
    edges = [(0, v) for v in range(1, u + 1)]
    offset = 1
    while len(edges) < m:
        for v in range(n - 1):
            if len(edges) == m:
                break
            edges.append(normalize_edge(1 + v, 1 + (v + offset) % (n - 1)))
        offset += 1
    return SimpleGraph.from_edges(n, edges)


def test_forests_first_enters_at_u_times_n_minus_1_up_to_log_n():
    # n = 32, L = ceil(log2 n) = 5, U = vertex 0's degree: U <= L prices
    # the bar at U (n - 1), 62 edges at U = 2 and 155 at U = L; U = 6 > L
    # at 2 (n - 1) L = 310; one edge fewer keeps forests out, before any
    # query
    n = 32
    for u, bar in ((2, 62), (5, 155), (6, 310)):
        assert bar == (u if u <= ceil_log2(n) else 2 * ceil_log2(n)) * (n - 1)
        for m in (bar, bar - 1):
            g = hub_and_circulant(n, u, m)
            assert (g.m, min(g.degrees())) == (m, u)
            oracle = CutOracle(g)
            state = discovery.singleton_state(oracle)
            before = oracle.ledger.distinct_queries
            stats = {"forests": 0}
            cut, proved = discovery.forests_first(oracle, state, Cut(frozenset([0]), u), stats)
            if m < bar:
                assert (cut.value, proved, stats["forests"]) == (u, False, 0)
                assert oracle.ledger.distinct_queries == before
            else:
                assert stats["forests"] >= 1
                assert g.cut_value_mask(cut.side_mask()) == cut.value <= u
                assert proved or u > ceil_log2(n)
                assert not proved or cut.value == deterministic_min_cut(g).value


def hanging_vertex_cases(count: int, seed: int) -> list[tuple[SimpleGraph, int, int]]:
    """Vertex n - 1 hangs off a dense gnp by 1 to ceil(log2 n) edges, and is
    one terminal."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        n = rng.randint(8, 40)
        core = gnp(n - 1, rng.uniform(0.3, 0.7), rng)
        hang = [(v, n - 1) for v in rng.sample(range(n - 1), rng.randint(1, ceil_log2(n)))]
        g = SimpleGraph.from_edges(n, list(core.edges) + hang)
        s, t = (n - 1, rng.randrange(n - 1)) if i % 2 else (rng.randrange(n - 1), n - 1)
        cases.append((g, s, t))
    return cases


def test_forests_first_proves_every_entry_with_u_at_most_log_n():
    # U <= ceil(log2 n): forests stop by forest U, having learned at most
    # U (n - 1) <= m / 2 edges, so they never give up, and the answer is
    # exact
    entries = 0
    for g, _, _ in hanging_vertex_cases(30, 23):
        n, degrees = g.n, g.degrees()
        low = degrees.index(min(degrees))
        upper = Cut(frozenset([low]), degrees[low])
        if not 0 < upper.value <= ceil_log2(n) or 2 * (n - 1) * upper.value > g.m:
            continue
        oracle = CutOracle(g)
        stats = {"forests": 0}
        cut, proved = discovery.forests_first(
            oracle, discovery.singleton_state(oracle), upper, stats
        )
        entries += 1
        assert proved and 1 <= stats["forests"] <= upper.value
        assert g.cut_value_mask(cut.side_mask()) == cut.value
        assert cut.value == deterministic_min_cut(g).value
    assert entries >= 10


def k16_blocks(blocks: int, bridges: list[tuple[int, int]]) -> SimpleGraph:
    """`blocks` K16s on vertices 0-15, 16-31, ..., plus the `bridges`."""
    edges = [
        (u, v)
        for b in range(0, 16 * blocks, 16)
        for u in range(b, b + 16)
        for v in range(u + 1, b + 16)
    ]
    return SimpleGraph.from_edges(16 * blocks, edges + bridges)


def test_finish_proves_or_replaces_u_only_where_forests_pay():
    # K16s A, B and C, A-B joined by six edges and B-C by two: n = 48,
    # m = 368, lambda = 2. U = A's boundary, 6, has 6 (n - 1) <= m, so
    # forests replace it with C's boundary, certified; U = A + C's, 8, has
    # 8 (n - 1) > m and comes back unproved. U stands as it is, at no
    # query, when the route proved it or its value is 0
    g = k16_blocks(3, [(i, 16 + i) for i in range(6)] + [(20, 32), (21, 33)])
    a, ab, c = frozenset(range(16)), frozenset(range(32)), frozenset(range(32, 48))
    stats = {"certified": False, "forests": 0}
    cut = finish(CutOracle(g), Cut(a, 6), degree_state(g), stats)
    assert (cut.value, stats["certified"]) == (2, True) and stats["forests"] >= 1
    assert cut.side in (ab, c)
    for upper, stats, proved in (
        (Cut(a | c, 8), {"certified": False}, False),
        (Cut(a | c, 8), {"certified": True}, True),
        (Cut(a, 0), {"certified": False}, True),
    ):
        h = k16_blocks(2, []) if upper.value == 0 else g
        oracle = CutOracle(h)
        assert finish(oracle, upper, degree_state(h), stats) == upper
        assert stats["certified"] == proved and oracle.ledger.distinct_queries == 0


def degree_state(g: SimpleGraph) -> ContractionState:
    """The front's singleton state for g, its degrees read off g at no query."""
    return ContractionState(g.n, g.degrees())


def test_finish_answers_from_a_record_that_holds_g():
    # U = A + C's boundary, 8, has 8 (n - 1) > m, so forests do not pay for
    # it; but once the record holds all of G, the first forest is empty and
    # the finish answers G's min cut, certified, with no query past the
    # degree pass. One edge short of G, U comes back unproved at no query
    g = k16_blocks(3, [(i, 16 + i) for i in range(6)] + [(20, 32), (21, 33)])
    ab, c = frozenset(range(32)), frozenset(range(32, 48))
    ac = frozenset(range(16)) | c
    for missing in (None, (20, 32)):
        oracle = CutOracle(g)
        state = singleton_state(oracle)
        for u, v in g.edges - {missing}:
            state.known[u] |= 1 << v
            state.known[v] |= 1 << u
        before = oracle.ledger.distinct_queries
        stats = {"certified": False, "forests": 0}
        cut = finish(oracle, Cut(ac, 8), state, stats)
        assert oracle.ledger.distinct_queries == before
        if missing is None:
            assert (cut.value, stats["certified"], stats["forests"]) == (2, True, 1)
            assert cut.side in (ab, c)
        else:
            assert (cut, stats["certified"], stats["forests"]) == (Cut(ac, 8), False, 0)


@pytest.mark.parametrize("name, index", [("v2", 249), ("st", 253)])
def test_finish_draws_no_random_bits(monkeypatch, without_forests, name, index):
    # under HalfKeep the route answers these cases wrong, and its end, v2's
    # finish or st's last flow_cut, corrects them; the stream ends where it
    # ends when that end hands the route's answer back untouched
    g, s, t = planted_st_cases(400, 11)[index]
    states, values = [], []
    for keep in (False, True):
        with monkeypatch.context() as patched:
            rng, info = make_rng(index, "half", name), {}
            if name == "v2":
                if keep:
                    patched.setattr(global_mincut, "finish", lambda oracle, best, *a, **k: best)
                cut = global_min_cut_v2(CutOracle(g), rng=rng, tuning=HalfKeep(), info=info)
            else:
                if keep:
                    patched.setattr(
                        st_mincut, "flow_cut", lambda o, s, t, up, b, k: (up, False)
                    )
                cut = st_min_cut(CutOracle(g), s, t, rng=rng, tuning=HalfKeep(), info=info)
            states.append(rng.getstate())
            values.append(cut.value)
    assert values[0] < values[1]
    assert states[0] == states[1]


def positional_spanning_forest(oracle: CutOracle, known: list[int]):
    """Reference: `spanning_forest` with both of its walks as `descend`,
    over the component's vertices and then over the rest's."""
    n = oracle.n
    full = (1 << n) - 1
    uf = UnionFind(n)
    masks = {v: 1 << v for v in range(n)}
    forest = []
    open_roots = list(range(n))
    while open_roots:
        still_open = []
        for r in open_roots:
            if uf.find(r) != r:
                continue
            comp = masks[r]
            rest = full & ~comp
            boundary = oracle.query_mask(comp)
            out = boundary - sum((known[v] & rest).bit_count() for v in bits_of(comp))
            if out == 0:
                continue
            u, c_u = descend(oracle, rest, comp, out, known=known)
            w, _ = descend(oracle, 1 << u, rest, c_u, known=known)
            forest.append(normalize_edge(u, w))
            rw = uf.find(w)
            uf.union(r, rw)
            keep = uf.find(r)
            masks[keep] = masks.pop(r) | masks.pop(rw)
            still_open.append(keep)
        open_roots = sorted(set(still_open))
    return sorted(forest)


def test_spanning_forests_match_the_positional_walk():
    # the same forests, forest after forest. On the dense planted graph
    # (degrees about 64) the galloping walks spend 1,289 distinct queries
    # on the first forest against the positional walks' 2,387
    g_dense, _ = planted_cut_sides(256, 3, 0.5, make_rng(1, "forest-pin"))
    cases = [(g, None) for g in _equivalence_graphs()] + [(g_dense, 2)]
    for g, stop in cases:
        got_oracle, want_oracle = CutOracle(g), CutOracle(g)
        known = [0] * g.n
        spent = []
        while stop is None or len(spent) < stop:
            got = spanning_forest(got_oracle, known)
            assert got == positional_spanning_forest(want_oracle, known), (g.n, len(spent))
            if not got:
                break
            spent.append((got_oracle.ledger.distinct_queries, want_oracle.ledger.distinct_queries))
            for u, v in got:
                known[u] |= 1 << v
                known[v] |= 1 << u
        if g is g_dense:
            assert spent[0][0] <= 0.6 * spent[0][1]


def test_spanning_forests_peel_every_edge_once():
    # F_i spans G - (F_1 + ... + F_{i-1}): the forests partition G's edges,
    # and each F_i has no more edges than F_{i-1}
    for g in _equivalence_graphs():
        oracle = CutOracle(g)
        known = [0] * g.n
        seen: set[tuple[int, int]] = set()
        sizes = []
        while True:
            forest = spanning_forest(oracle, known)
            if not forest:
                break
            assert not seen & set(forest)
            seen |= set(forest)
            sizes.append(len(forest))
            for u, v in forest:
                known[u] |= 1 << v
                known[v] |= 1 << u
        assert seen == set(g.edges)
        assert sizes == sorted(sizes, reverse=True)


def terminal_boundary(oracle: CutOracle, s: int, t: int) -> Cut:
    """The better of q({s}) and q(V - {t}), as st starts from it."""
    n = oracle.n
    return better_cut(
        Cut(frozenset([s]), oracle.query_mask(1 << s)),
        Cut(frozenset(range(n)) - {t}, oracle.query_mask(((1 << n) - 1) & ~(1 << t))),
    )


def flow_from_terminals(g: SimpleGraph, s: int, t: int, budget: int = 10**9):
    oracle = CutOracle(g)
    cut, proved = flow_cut(oracle, s, t, terminal_boundary(oracle, s, t), budget, [0] * g.n)
    return oracle, cut, proved


def exact_st_cut(g: SimpleGraph, s: int, t: int, cut: Cut) -> bool:
    return (
        s in cut.side
        and t not in cut.side
        and g.cut_value_mask(cut.side_mask()) == cut.value
        and cut.value == st_min_cut_known(g.to_weighted(), s, t).value
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_trie_walk_limit_keeps_the_first_k_and_spends_no_more(data):
    # with limit k the walk reports the unlimited walk's first k vertices,
    # over G or G - K, from one vertex or a set, and stops there; and the
    # learner limited through it returns None exactly past abort_above
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(2, 60))
    g = random_simple_graph(n, rng, p=data.draw(st.sampled_from((0.05, 0.2, 0.5))))
    known, rest_g = known_subset(g, rng, data.draw(st.sampled_from((0.0, 0.3, 0.7))))
    k_record = known if data.draw(st.booleans()) else None
    walked = g if k_record is None else rest_g
    if data.draw(st.booleans()):
        anchor = 1 << rng.randrange(n)
    else:
        anchor = mask_of(v for v in range(n) if rng.random() < 0.3) or 1
    cand = ((1 << n) - 1) & ~anchor & rng.getrandbits(n)
    unlimited = CutOracle(g)
    everything = discovery._trie_walk(unlimited, anchor, cand, known=k_record)
    limit = data.draw(st.integers(1, len(everything) + 2))
    limited = CutOracle(g)
    got = discovery._trie_walk(limited, anchor, cand, known=k_record, limit=limit)
    assert got == everything[:limit]
    assert limited.ledger.distinct_queries <= unlimited.ledger.distinct_queries

    masks = [m for m in _scattered_masks(n, data.draw(st.integers(1, 5)), rng) if m]
    owner = {v: i for i, m in enumerate(masks) for v in bits_of(m)}
    between = sum(1 for u, v in walked.edges if owner[u] != owner[v])
    abort_above = data.draw(st.integers(0, between + 2))
    edges = learn_intergroup_edges(CutOracle(g), masks, abort_above, known=k_record)
    assert (edges is None) == (between > abort_above)
    if edges is not None:
        assert edges == learn_intergroup_edges(CutOracle(g), masks, known=k_record)


def test_trie_walk_with_known_edges_walks_g_minus_k():
    # a walk from a set whose counts leave K out finds, with the same
    # counts, the same queried sets and the same calls, what the walk over
    # an oracle on G - K finds
    for g in _equivalence_graphs():
        rng = random.Random(g.n + 13)
        full = (1 << g.n) - 1
        for _ in range(20):
            known, rest_g = known_subset(g, rng, rng.choice((0.0, 0.3, 0.7)))
            anchor = mask_of(v for v in range(g.n) if rng.random() < 0.3) or 1
            cand = full & ~anchor & rng.getrandbits(g.n)
            on_g, on_rest = CutOracle(g), CutOracle(rest_g)
            got = discovery._trie_walk(on_g, anchor, cand, known=known)
            assert got == discovery._trie_walk(on_rest, anchor, cand)
            assert on_g.ledger.snapshot() == on_rest.ledger.snapshot()
            adjacency = rest_g.adjacency_masks()
            assert got == [
                (v, (adjacency[v] & anchor).bit_count())
                for v in bits_of(cand)
                if adjacency[v] & anchor
            ]


def test_flow_cut_answers_the_min_st_cut():
    # every graph on five vertices with two terminal pairs, then the
    # hanging-vertex graphs whose s-t cuts forests proved before flow did,
    # and random graphs up to 40 vertices: the answer is a min s-t cut,
    # certified, with s on its side
    for g in all_simple_graphs(5):
        for s, t in ((0, 4), (2, 1)):
            _, cut, proved = flow_from_terminals(g, s, t)
            assert proved and exact_st_cut(g, s, t, cut)
    rng = random.Random(29)
    cases = hanging_vertex_cases(30, 23)
    for _ in range(40):
        n = rng.randint(6, 40)
        g = random_simple_graph(n, rng, p=rng.uniform(0.05, 0.6))
        cases.append((g, *rng.sample(range(n), 2)))
    for g, s, t in cases:
        _, cut, proved = flow_from_terminals(g, s, t)
        assert proved and exact_st_cut(g, s, t, cut), (g.n, s, t)


def test_flow_cut_keeps_an_upper_it_proves_and_rejects_a_wrong_one():
    # K16s A, B and C, A-B joined by six edges and B-C by two: from A's
    # boundary, 6, the flow proves A + B's, 2; from a min cut it stops at
    # that cut. `upper` may be any cut of G: one that does not separate s
    # from t comes back proved where lambda(s, t) is at least its value,
    # and where lambda(s, t) is lower the flow's s-t cut replaces it
    g = k16_blocks(3, [(i, 16 + i) for i in range(6)] + [(20, 32), (21, 33)])
    a, ab, c = frozenset(range(16)), frozenset(range(32)), frozenset(range(32, 48))
    assert flow_cut(CutOracle(g), 5, 40, Cut(a, 6), 10**9, [0] * g.n) == (Cut(ab, 2), True)
    assert flow_cut(CutOracle(g), 5, 40, Cut(ab, 2), 10**9, [0] * g.n) == (Cut(ab, 2), True)
    for upper in (Cut(ab, 2), Cut(c, 2)):  # s = 5 and t = 10 both in A
        assert flow_cut(CutOracle(g), 5, 10, upper, 10**9, [0] * g.n) == (upper, True)
    assert flow_cut(CutOracle(g), 40, 5, Cut(a, 6), 10**9, [0] * g.n) == (Cut(c, 2), True)
    vertex = Cut(frozenset({1}), 16)
    assert flow_cut(CutOracle(g), 5, 40, vertex, 10**9, [0] * g.n) == (Cut(ab, 2), True)
    with pytest.raises(ValueError, match="differ"):
        flow_cut(CutOracle(g), 5, 5, Cut(a, 6), 10**9, [0] * g.n)


def test_flow_cut_from_a_record_starts_where_the_record_leaves_off():
    # on gnp(40, 0.2), s = 0 and t = 39, whose min s-t cut is t's degree,
    # 7: from a record that holds G every augmenting path closes on a
    # recorded edge, so the flow certifies with no query past the terminal
    # boundaries, where from an empty record it pays 174. From a record
    # that holds part of G, on random graphs, it still answers the exact
    # min s-t cut, certified, and never pays more than from an empty one
    g = gnp(40, 0.2, random.Random(3))
    oracle = CutOracle(g)
    upper = terminal_boundary(oracle, 0, 39)
    before = oracle.ledger.distinct_queries
    record = list(g.adjacency_masks())
    cut, proved = flow_cut(oracle, 0, 39, upper, 10**9, record)
    assert proved and exact_st_cut(g, 0, 39, cut) and cut.value == 7
    assert oracle.ledger.distinct_queries == before
    assert record == g.adjacency_masks()
    empty, _, _ = flow_from_terminals(g, 0, 39)
    assert empty.ledger.distinct_queries - before >= 150
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(6, 40)
        g = random_simple_graph(n, rng, p=rng.uniform(0.1, 0.6))
        s, t = rng.sample(range(n), 2)
        known, _ = known_subset(g, rng, rng.choice((0.3, 0.7, 1.0)))
        oracle = CutOracle(g)
        cut, proved = flow_cut(oracle, s, t, terminal_boundary(oracle, s, t), 10**9, known)
        assert proved and exact_st_cut(g, s, t, cut), (n, s, t)
        assert all(known[v] & ~g.adjacency_masks()[v] == 0 for v in range(n))
        empty, _, _ = flow_from_terminals(g, s, t)
        assert oracle.ledger.distinct_queries <= empty.ledger.distinct_queries


def check_kept_side(side, g: SimpleGraph, known: list[int], other=None) -> None:
    """One kept `flow_cut` side against the hidden graph g. Its vertices
    are its root and those `via` names, each joined through a residual edge
    of g from a vertex that joined before it, so the root reaches them all
    by residual edges inside the side; each found record counts, less g's
    unknown edges between its vertex and its pending vertices, g's unknown
    edges between its vertex and its support, and at least one. The record
    holds only edges of g. Given the `other` side, the two are disjoint and
    no known residual edge leaves the side outside the other."""
    adj = g.adjacency_masks()
    assert all(known[v] & ~adj[v] == 0 for v in range(g.n))
    residual = [adj[u] & ~side.blocked[u] for u in range(g.n)]
    order = [side.root, *side.via]
    assert mask_of(order) == side.mask and len(order) == side.mask.bit_count()
    earlier = 0
    for v in order:
        how = side.via.get(v)
        if isinstance(how, int):
            assert (earlier >> how) & 1 and (residual[how] >> v) & 1
        elif how is not None:
            support, c, pending = how
            unknown = adj[v] & ~known[v]
            assert support & ~earlier == 0 and support & pending == 0
            assert c - (unknown & pending).bit_count() == (unknown & support).bit_count() > 0
        earlier |= 1 << v
    reached = frontier = 1 << side.root
    while frontier:
        step = 0
        for u in bits_of(frontier):
            step |= residual[u] & side.mask & ~reached
        reached |= step
        frontier = step
    assert reached == side.mask
    if other is not None:
        assert side.mask & other.mask == 0
        for u in bits_of(side.mask):
            assert known[u] & ~side.blocked[u] & ~side.mask & ~other.mask == 0


def flow_with_checked_sides(g: SimpleGraph, s: int, t: int, known: list[int]):
    """`flow_cut` from the terminal boundaries and the record `known`, with
    `check_kept_side` run on each side after its repair and on both sides,
    each against the other, before every grow and trace; a proved flow
    has repaired both sides once per path. Returns the cut, whether it is
    proved, and how many times a trace settled a record's pending
    vertices."""
    sides, repairs, traced = [], [], []
    settled = [0]
    real = {
        name: getattr(discovery._Side, name)
        for name in ("__init__", "repair", "grow", "trace", "settle")
    }

    def init(self, *args):
        real["__init__"](self, *args)
        sides.append(self)

    def repair(self, oracle, record):
        real["repair"](self, oracle, record)
        check_kept_side(self, g, record)
        repairs.append(self)

    def searching(name):
        def run(self, oracle, record, *args):
            a, b = sides
            check_kept_side(a, g, record, b)
            check_kept_side(b, g, record, a)
            traced.append(name == "trace")
            try:
                return real[name](self, oracle, record, *args)
            finally:
                traced.pop()

        return run

    def settle(self, *args):
        settled[0] += any(traced)
        real["settle"](self, *args)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(discovery._Side, "__init__", init)
        patched.setattr(discovery._Side, "repair", repair)
        patched.setattr(discovery._Side, "grow", searching("grow"))
        patched.setattr(discovery._Side, "trace", searching("trace"))
        patched.setattr(discovery._Side, "settle", settle)
        oracle = CutOracle(g)
        cut, proved = flow_cut(oracle, s, t, terminal_boundary(oracle, s, t), 10**9, known)
    assert len(sides) == 2 and (not proved or repairs == sides * cut.value)
    return cut, proved, settled[0]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_flow_cut_keeps_its_sides_whole_through_every_repair(data):
    # gnp and planted graphs on 4 to 40 vertices, random terminals or, on
    # planted graphs, one on each side, and a random part of G as the
    # starting record: after each repair the side holds check_kept_side's
    # invariants, and whenever a search grows a side or traces a path both
    # sides hold them and are closed under the known residual edges
    # outside each other. Both sides are repaired once per path, and the
    # answer is the exact min s-t cut, certified
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(4, 40))
    s, t = rng.sample(range(n), 2)
    if data.draw(st.booleans()):
        g = gnp(n, data.draw(st.sampled_from((0.1, 0.25, 0.5))), rng)
    else:
        k = data.draw(st.integers(1, min(6, (n // 2) * (n - n // 2))))
        g, side = planted_cut_sides(n, k, data.draw(st.sampled_from((0.3, 0.6))), rng)
        if data.draw(st.booleans()):
            s, t = min(side), min(set(range(n)) - side)
    known, _ = known_subset(g, rng, data.draw(st.sampled_from((0.0, 0.3, 0.7, 1.0))))
    cut, proved, _ = flow_with_checked_sides(g, s, t, known)
    assert proved and exact_st_cut(g, s, t, cut)


def test_flow_cut_keeps_its_sides_whole_on_planted_graphs():
    # planted cuts of 3 between sides of density 0.3 on 64 vertices, a
    # terminal on each side: paths drop support vertices of records that
    # keep other edges into their support, so traces settle pending
    # vertices, which the small graphs above seldom reach. The sides hold
    # their invariants throughout and every answer is exact and certified
    settled = 0
    for seed in range(4):
        g, side = planted_cut_sides(64, 3, 0.3, random.Random(seed))
        s, t = min(side), min(set(range(64)) - side)
        cut, proved, in_trace = flow_with_checked_sides(g, s, t, [0] * g.n)
        assert proved and exact_st_cut(g, s, t, cut) and cut.value <= 3
        settled += in_trace
    assert settled > 0


def test_flow_cut_gives_up_after_its_budget():
    # a zero budget answers the upper it was given at no query; a small one
    # stops short of the flow, uncertified, with a valid s-t cut that is at
    # least the minimum; a budget that runs out never certifies
    g, side = planted_cut_sides(64, 2, 0.5, make_rng(0, "budget"))
    s, t = min(side), min(set(range(64)) - side)
    oracle = CutOracle(g)
    upper = terminal_boundary(oracle, s, t)
    before = oracle.ledger.snapshot()
    assert flow_cut(oracle, s, t, upper, 0, [0] * g.n) == (upper, False)
    assert oracle.ledger.snapshot() == before
    full, cut, proved = flow_from_terminals(g, s, t)
    assert proved and cut.value == 2
    spent = full.ledger.distinct_queries
    for budget in (5, spent // 4, spent // 2):
        oracle, cut, proved = flow_from_terminals(g, s, t, budget)
        assert not proved and s in cut.side and t not in cut.side
        assert g.cut_value_mask(cut.side_mask()) == cut.value >= 2
        assert budget <= oracle.ledger.distinct_queries < spent


def test_flow_cut_beats_learn_graph_on_the_stress_set():
    # n = 256: a ring of 8 clusters of 32 with terminals in opposite
    # clusters (lambda_st 8), planted cuts of 30 and 40 in dense sides
    # with a terminal on each side, and gnp of degree 16 and of p = 1/4
    # with terminals 0 and 255. Measured against learn_graph: 2,223 of
    # 4,450 (0.50); 2,213 of 20,574 (0.108); 2,680 of 20,857 (0.128);
    # 1,062 of 9,204 (0.115); 1,528 of 20,742 (0.074). Kept sides pay for a
    # planted side's walks once rather than once per path, so the planted
    # bars sit at 0.15, about 17% above the dearer of the two, and the
    # ring's at 0.6, 20% above it
    planted = random.Random(7)
    cases = [("ring", ring_of_clusters(8, 32, 0.6, 4, random.Random(11)), 0, 128, 0.6)]
    for k in (30, 40):
        g, side = planted_cut_sides(256, k, 0.5, planted)
        cases.append((f"planted-{k}", g, min(side), min(set(range(256)) - side), 0.15))
    cases.append(("gnp-16", gnp(256, 16 / 255, random.Random(3)), 0, 255, 0.2))
    cases.append(("gnp-1/4", gnp(256, 0.25, random.Random(3)), 0, 255, 0.1))
    for name, g, s, t, bar in cases:
        oracle, cut, proved = flow_from_terminals(g, s, t)
        assert proved and exact_st_cut(g, s, t, cut), name
        learner = CutOracle(g)
        learn_graph(learner)
        assert oracle.ledger.distinct_queries < bar * learner.ledger.distinct_queries, name


def grid(side: int) -> SimpleGraph:
    rows = [(r * side + c, r * side + c + 1) for r in range(side) for c in range(side - 1)]
    cols = [(r * side + c, (r + 1) * side + c) for r in range(side - 1) for c in range(side)]
    return SimpleGraph.from_edges(side * side, rows + cols)


def test_flow_cut_against_learn_graph_on_long_sparse_graphs():
    # on graphs of large diameter the sides grow by thin layers, one trie
    # walk each, and trie blocks aligned with the ids let learn_graph learn
    # them cheaply. cycle(256) between antipodes spends 2,331 against
    # learn_graph's 1,525 (1.53x), a loss still; the 16 x 16 grid between
    # opposite corners 2,222 against 2,583 (0.86x). Both are exact and
    # certified. The ratios are pinned from above so that a change shows
    for g, s, t, ratio in ((cycle(256), 0, 128, 1.53), (grid(16), 0, 255, 0.87)):
        oracle, cut, proved = flow_from_terminals(g, s, t)
        assert proved and exact_st_cut(g, s, t, cut) and cut.value == 2
        learner = CutOracle(g)
        learn_graph(learner)
        assert oracle.ledger.distinct_queries <= ratio * learner.ledger.distinct_queries
