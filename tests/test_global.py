import math
import random
from fractions import Fraction

import pytest

from cutquery import (
    CutOracle,
    SimpleGraph,
    Tuning,
    approximate_strengths,
    barbell,
    contract_safe,
    cover_edge_count,
    cycle,
    deterministic_min_cut,
    enumerate_near_min_cuts,
    global_min_cut_v1,
    global_min_cut_v2,
    gnp,
    learn_graph,
    make_rng,
    planted_cut,
)
from cutquery import global_mincut
from cutquery.contraction import singleton_state
from cutquery.params import DEFAULT_EPS, STAR_CENTER_COEFF, STAR_RUNS, ceil_log2

from conftest import (
    HalfKeep,
    brute_cuts_at_most,
    brute_min_cut_value,
    count_calls,
    is_connected,
    patch_forests_off,
    patch_ladder,
    planted_st_cases,
    random_simple_graph,
    route_answers,
)


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
    # n = 17 is swept whole, above the TRIAL_SUPERS a contraction keeps; a
    # cycle with a few chords has 22 cuts within the band, sides up to 7
    chorded = SimpleGraph(17, cycle(17).edges | gnp(17, 0.05, make_rng(17)).edges)
    for g in (gnp(12, 0.5, make_rng(11)), chorded):
        base = brute_min_cut_value(g)
        threshold = Fraction(12, 10) * base
        cuts = enumerate_near_min_cuts(g, threshold, make_rng(1))
        assert canonical_masks(cuts, g.n) == brute_cuts_at_most(g, threshold)


def test_enumerate_sweeps_up_to_the_limit_without_drawing():
    limit = global_mincut.EXHAUSTIVE_ENUM_LIMIT
    for n in (2, 12, limit, limit + 1):
        g = gnp(n, 0.4, make_rng(n, "sweep"))
        rng = make_rng(0)
        before = rng.getstate()
        enumerate_near_min_cuts(g, deterministic_min_cut(g).value + 2, rng)
        assert (rng.getstate() == before) == (n <= limit)


def test_enumerate_finds_zero_cuts_above_the_limit():
    # the zero cuts are the unions of whole components, comps[0] alone too
    def cliques(count: int, size: int) -> SimpleGraph:
        edges = [
            (c * size + u, c * size + v)
            for c in range(count)
            for u in range(size)
            for v in range(u + 1, size)
        ]
        return SimpleGraph.from_edges(count * size, edges)

    for count, size in ((2, 5), (2, 10), (3, 7)):
        g = cliques(count, size)
        cuts = enumerate_near_min_cuts(g, Fraction(1, 2), make_rng(0))
        sides = {tuple(range(c * size, (c + 1) * size)) for c in range(count)}
        if count == 2:
            sides = {tuple(range(size))}
        assert {cut.sorted_side() for cut in cuts} == sides
        assert [cut.value for cut in cuts] == [0] * len(sides)


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


def record_stars(monkeypatch) -> list[list[int]]:
    """Member lists of every group v1 merges, in merge order."""
    stars: list[list[int]] = []
    real = global_mincut.merge_and_refresh

    def spy(oracle, state, members):
        stars.append(sorted(members))
        return real(oracle, state, members)

    monkeypatch.setattr(global_mincut, "merge_and_refresh", spy)
    return stars


def test_v1_is_exact_on_criterion_families(monkeypatch):
    stars = record_stars(monkeypatch)
    rng = random.Random(50)
    graphs = [gnp(rng.randint(10, 40), rng.uniform(0.2, 0.7), rng) for _ in range(8)]
    graphs += [barbell(rng.randint(4, 12)) for _ in range(3)]
    graphs += [cycle(rng.randint(5, 40)) for _ in range(3)]
    graphs += [
        planted_cut(rng.randint(12, 40), rng.randint(1, 3), rng.uniform(0.5, 0.8), rng)
        for _ in range(4)
    ]
    for i, g in enumerate(graphs):
        _, _, cut = run_v1(g, (i, "families"))
        assert cut.value == deterministic_min_cut(g).value
        assert g.cut_value_mask(cut.side_mask()) == cut.value
    assert stars  # some instance had fewer centers than vertices


@pytest.mark.parametrize("n", [64, 128])
def test_v1_contracts_dense_planted_graphs_exactly(monkeypatch, without_forests, n):
    # forests first would answer at n = 128 before any star run; the
    # fixture keeps them off, so star runs are what this measures
    stars = record_stars(monkeypatch)
    contracted = 0
    for rep in range(3):
        g = planted_cut(n, 3, 0.5, make_rng(n, rep, "dense"))
        stars.clear()
        _, info, cut = run_v1(g, (n, rep))
        assert cut.value == deterministic_min_cut(g).value
        assert g.cut_value_mask(cut.side_mask()) == cut.value
        if min(g.degrees()) > STAR_CENTER_COEFF * math.log(n):
            # centers are fewer than n: the one star run merged some vertex,
            # its cut of 3 made forests pay, and they certified the answer
            assert info["rounds"] == 1
            assert sum(len(s) - 1 for s in stars) >= 1
            assert info["forests"] >= 1 and info["certified"]
            contracted += 1
    assert contracted >= 2


class CenterScript(random.Random):
    """Makes `centers` the centers of every run: `random` is consulted once
    per vertex, in id order, by the center draw alone; the descent draws
    through `getrandbits`."""

    def __init__(self, n: int, centers: set[int], seed: int):
        super().__init__(seed)
        self.n = n
        self.centers = centers
        self.calls = 0

    def random(self) -> float:
        self.calls += 1
        return 0.0 if (self.calls - 1) % self.n in self.centers else 1.0 - 1e-12

    def getrandbits(self, k: int) -> int:
        return super().getrandbits(k)


def test_v1_with_one_center_leaves_its_non_neighbors_singletons(monkeypatch):
    stars = record_stars(monkeypatch)
    g = barbell(12)  # n = 24, min degree 11: each center is kept w.p. 0.58
    oracle = CutOracle(g)
    info: dict = {}
    rng = CenterScript(g.n, {0}, 0)
    cut = global_min_cut_v1(oracle, rng=rng, info=info)
    assert rng.calls == g.n * info["rounds"]
    # vertex 0 draws its own clique; the far clique has no center neighbor
    assert stars == [list(range(12))] * info["rounds"]
    assert cut.value == 1
    assert cut.side in (frozenset(range(12)), frozenset(range(12, 24)))


def test_v1_with_one_center_adjacent_to_all_learns_nothing(monkeypatch):
    stars = record_stars(monkeypatch)
    g = complete(24)
    oracle = CutOracle(g)
    info: dict = {}
    cut = global_min_cut_v1(oracle, rng=CenterScript(g.n, {0}, 1), info=info)
    assert stars == [list(range(24))] * info["rounds"]
    assert info["learned"] == 0
    assert cut.value == 23 and len(cut.side) == 1


def test_v1_draws_a_uniform_center_neighbor(monkeypatch):
    stars = record_stars(monkeypatch)
    g = complete(24)
    info: dict = {}
    cut = global_min_cut_v1(CutOracle(g), rng=CenterScript(g.n, {0, 1}, 2), info=info)
    assert cut.value == 23
    assert len(stars) == 2 * info["rounds"]
    # 22 non-centers per run, each joining center 0 with probability 1/2
    to_first = sum(len(s) - 1 for s in stars if s[0] == 0)
    assert 0.35 < to_first / (22 * info["rounds"]) < 0.65


def test_v1_early_returns_spend_only_the_degree_pass():
    oracle, info, cut = run_v1(SimpleGraph.from_edges(2, [(0, 1)]), 0)
    assert (cut.value, info["rounds"], oracle.ledger.distinct_queries) == (1, 0, 1)
    isolated = SimpleGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])  # 5 alone
    oracle, info, cut = run_v1(isolated, 0)
    assert (cut.value, info["rounds"], oracle.ledger.distinct_queries) == (0, 0, 6)


def learn_graph_queries(g: SimpleGraph) -> int:
    oracle = CutOracle(g)
    learn_graph(oracle)
    return oracle.ledger.distinct_queries


def circulant(n: int, offsets: tuple[int, ...]) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(v, (v + a) % n) for v in range(n) for a in offsets])


def test_v1_with_every_vertex_a_center_spends_what_learn_graph_does():
    # min degree at most 2 ln 256 makes every vertex a center: nothing
    # contracts, the one run learns the graph over singletons, and its
    # degree queries are all queries learn_graph makes too. On a 4-regular
    # graph 4 (n - 1) > m = 2n, so no forest runs first
    for seed in range(3):
        g = circulant(256, (1, random.Random(seed).randrange(2, 128)))
        oracle, info, cut = run_v1(g, seed)
        assert (info["rounds"], info["forests"]) == (1, 0) and info["certified"]
        assert oracle.ledger.distinct_queries == learn_graph_queries(g)
        assert cut.value == deterministic_min_cut(g).value


def sparse_gnp(seed) -> SimpleGraph:
    attempt = 0
    while True:
        g = gnp(256, 8 / 255, make_rng(seed, "sparse", attempt))
        if min(g.degrees()) > 0:
            return g
        attempt += 1


def test_v1_certifies_sparse_gnp_with_forests_below_learn_graph():
    # min degree d: d (n - 1) <= m, so forests run before any star run and
    # stop by the d-th. A forest edge costs about log2 n queries against
    # learn_graph's 6 per edge, so at d = 3 (seed 1) three forests cost
    # 1.06 of learn_graph; at d = 1 and 2 they cost 0.48 and 0.76
    spent = learned = 0
    for seed in range(3):
        g = sparse_gnp(seed)
        oracle, info, cut = run_v1(g, seed)
        assert info["rounds"] == 0 and info["certified"]
        assert 1 <= info["forests"] <= min(g.degrees())
        assert cut.value == deterministic_min_cut(g).value
        assert g.cut_value_mask(cut.side_mask()) == cut.value
        baseline = learn_graph_queries(g)
        assert oracle.ledger.distinct_queries <= 1.1 * baseline
        spent += oracle.ledger.distinct_queries
        learned += baseline
    assert spent <= 0.8 * learned


def test_v1_forests_stop_at_a_cut_their_search_queried():
    # planted cut of 3 below min degree 4-5: forests start at U = min
    # degree; when a Borůvka component of the first forest is one side of
    # the planted cut, U falls to 3 and the third forest certifies it,
    # one forest short of the lambda + 1 = 4 the stop rule needs otherwise
    stops = []
    for i in range(4):
        g = planted_cut(256, 3, 0.1, make_rng(i, "sparse-planted", 0))
        assert min(g.degrees()) >= 4
        oracle, info, cut = run_v1(g, i, tuning=Tuning(scale=2e-4))
        assert info["rounds"] == 0 and info["certified"] and cut.value == 3
        assert deterministic_min_cut(g).value == 3
        assert oracle.ledger.distinct_queries < learn_graph_queries(g)
        stops.append(info["forests"])
    assert stops == [3, 3, 3, 4]


def test_v1_certified_answers_are_exact():
    # criterion-01-style families plus sparse and disconnected graphs; the
    # forest rule fires before any star run on some and after one on others
    rng = random.Random(60)
    graphs = [gnp(rng.randint(10, 40), rng.uniform(0.2, 0.7), rng) for _ in range(12)]
    graphs += [gnp(rng.randint(20, 60), 4 / 30, rng) for _ in range(12)]
    graphs += [barbell(rng.randint(4, 12)) for _ in range(4)]
    graphs += [cycle(rng.randint(5, 40)) for _ in range(4)]
    graphs += [
        planted_cut(rng.randint(12, 40), rng.randint(1, 3), rng.uniform(0.5, 0.8), rng)
        for _ in range(12)
    ]
    certified = before_stars = after_stars = 0
    for i, g in enumerate(graphs):
        _, info, cut = run_v1(g, (i, "certified"))
        assert g.cut_value_mask(cut.side_mask()) == cut.value
        if info["certified"]:
            assert cut.value == deterministic_min_cut(g).value
            certified += 1
        if info["forests"]:
            before_stars += info["rounds"] == 0
            after_stars += info["rounds"] > 0
    assert certified >= 40 and before_stars >= 5 and after_stars >= 5


def disjoint_union(a: SimpleGraph, b: SimpleGraph) -> SimpleGraph:
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return SimpleGraph.from_edges(a.n + b.n, edges)


def test_v1_disconnected_graphs_cut_zero_certified():
    # two K5s (delta = 4, lambda = 0): 4 (n - 1) > m, so a star run, which
    # contracts nothing and learns G; two sparse halves with delta = 1:
    # forests first, and the first one already has two components
    g = disjoint_union(complete(5), complete(5))
    _, info, cut = run_v1(g, 0)
    assert (cut.value, info["certified"], info["forests"]) == (0, True, 0)
    assert cut.side in (frozenset(range(5)), frozenset(range(5, 10)))
    halves = [gnp(30, 0.2, make_rng(s, "half")) for s in range(8)]
    halves = [h for h in halves if min(h.degrees()) == 1 and is_connected(h)]
    g = disjoint_union(halves[0], halves[1])
    _, info, cut = run_v1(g, 1)
    assert (cut.value, info["certified"], info["forests"], info["rounds"]) == (0, True, 1, 0)
    assert cut.side in (frozenset(range(30)), frozenset(range(30, 60)))


def test_v2_disconnected_graphs_cut_zero_certified(without_forests):
    # two K5s and two sparse halves, with the front's forests off: the
    # ladder queries a zero boundary, which proves itself, on both H paths
    halves = [gnp(30, 0.2, make_rng(s, "half")) for s in range(8)]
    halves = [h for h in halves if min(h.degrees()) == 1 and is_connected(h)]
    graphs = [disjoint_union(complete(5), complete(5)), disjoint_union(halves[0], halves[1])]
    for g in graphs:
        for tuning in (Tuning(), HalfKeep()):
            _, info, cut = run_v2(g, g.n, tuning=tuning)
            assert (cut.value, info["certified"], info["forests"]) == (0, True, 0)
            assert cut.side in (frozenset(range(g.n // 2)), frozenset(range(g.n // 2, g.n)))


def test_v2_front_forest_finds_the_zero_boundary_of_disconnected_halves():
    # two sparse halves with delta = 1: 2 (n - 1) min(1, ceil(log2 n)) <= m,
    # so the front's forests enter, and the first forest's search queries
    # a half as a component boundary of 0, which proves itself
    halves = [gnp(30, 0.2, make_rng(s, "half")) for s in range(8)]
    halves = [h for h in halves if min(h.degrees()) == 1 and is_connected(h)]
    g = disjoint_union(halves[0], halves[1])
    _, info, cut = run_v2(g, g.n)
    assert (cut.value, info["certified"], info["forests"]) == (0, True, 1)
    assert info["h_edges"] == 0
    assert cut.side in (frozenset(range(30)), frozenset(range(30, 60)))


def test_v1_pays_one_forest_then_star_runs_on_dense_gnp():
    # lambda = delta = 44 on this gnp(256, 0.25): m = 8,145 clears the entry
    # bar, so one forest runs first; no boundary it queries comes near
    # delta, and delta (n - 1) > m, so it gives up. Star contraction then
    # answers on the stream it sees without forests, and no forest runs
    # after it
    g = gnp(256, 0.25, make_rng(0, "dense-gnp"))
    _, info, cut = run_v1(g, 0, tuning=Tuning(scale=2e-4))
    assert info["forests"] == 1 and info["rounds"] == STAR_RUNS
    assert cut.value == deterministic_min_cut(g).value


def test_v1_spends_under_a_third_of_learn_graph_on_dense_planted():
    # at the benchmark's scale: forests run first, one Borůvka component is
    # the planted side, and the third forest certifies its cut of 3 before
    # any star run (0.17-0.18 of learn_graph's queries here, where one star
    # run and then three forests spent 0.32-0.34)
    for i in range(3):
        g = planted_cut(256, 3, 0.5, make_rng(i, "dense-256"))
        oracle, info, cut = run_v1(g, i, tuning=Tuning(scale=2e-4))
        assert cut.value == deterministic_min_cut(g).value
        assert info["rounds"] == 0 and info["certified"]
        assert oracle.ledger.distinct_queries <= 0.3 * learn_graph_queries(g)


def test_v1_and_v2_share_one_front_on_dense_planted():
    # where the front's forests certify, v1 and v2 have run the same
    # degree pass and the same forests, and nothing else
    for i in range(3):
        g = planted_cut(256, 3, 0.5, make_rng(i, "one-front"))
        o1, i1, c1 = run_v1(g, i, tuning=Tuning(scale=2e-4))
        o2, i2, c2 = run_v2(g, i, tuning=Tuning(scale=2e-4))
        assert i1["certified"] and i2["certified"] and i1["rounds"] == i2["h_edges"] == 0
        assert c1 == c2 and c1.value == deterministic_min_cut(g).value
        assert i1["forests"] == i2["forests"] >= 1
        assert o1.ledger.distinct_queries == o2.ledger.distinct_queries


def test_v2_on_cycle_planted_and_complete():
    _, _, cut = run_v2(cycle(8), 3)
    assert cut.value == 2
    g = planted_cut(30, 2, 0.6, make_rng(7, "inst"))
    _, _, cut = run_v2(g, 4)
    assert cut.value == 2
    _, _, cut = run_v2(complete(6), 5)
    assert cut.value == 5
    assert len(cut.side) in (1, 5)


def test_v2_h_is_g_answers_from_h_without_another_query(monkeypatch, without_forests):
    skipped = [
        count_calls(monkeypatch, global_mincut, name)
        for name in ("enumerate_near_min_cuts", "contract_safe", "learn_contracted")
    ]
    rng = random.Random(12)
    for trial in range(13):
        g = random_simple_graph(rng.randint(6, 30), rng, p=0.4)
        if trial >= 10:
            # an isolated vertex: the degree pass answers before H is built
            g = SimpleGraph.from_edges(g.n + 1, g.edges)
        oracle, info, cut = run_v2(g, (trial, "h=g"))
        assert info["certified"] and info["learned"] == 0
        assert cut.value == deterministic_min_cut(g).value
        assert g.cut_value_mask(cut.side_mask()) == cut.value
        if min(g.degrees()) == 0:
            assert trial >= 10
            assert (cut.value, info["h_edges"]) == (0, 0)
            assert oracle.ledger.distinct_queries == g.n
            continue
        assert info["h_edges"] == g.m
        # the ladder alone, on the same stream, spends every query v2 did
        ladder = CutOracle(g)
        approximate_strengths(ladder, DEFAULT_EPS, make_rng((trial, "h=g"), "v2"))
        assert oracle.ledger.distinct_queries == ladder.ledger.distinct_queries
    assert [c[0] for c in skipped] == [0, 0, 0]


def test_v2_forced_sampling_runs_the_enumeration_endgame(monkeypatch, without_forests):
    # HalfKeep never lets H be G, so every run takes the sampled path, which
    # the H = G check leaves untouched: the route's own hit and learning
    # counts are pinned, read where it hands its answer U to the finish. The
    # finish proves U, or corrects it, exactly where U (n - 1) <= m
    ladders = patch_ladder(monkeypatch)
    enumerated = count_calls(monkeypatch, global_mincut, "enumerate_near_min_cuts")
    merged = count_calls(monkeypatch, global_mincut, "contract_safe")
    routed = route_answers(monkeypatch, global_mincut)
    cases = planted_st_cases(60, 7)
    single = learned = bailed = certified = corrected = 0
    for i, (g, _, _) in enumerate(cases):
        ref = deterministic_min_cut(g).value
        info: dict = {}
        cut = global_min_cut_v2(
            CutOracle(g), rng=make_rng(i, "half", "v2"), tuning=HalfKeep(), info=info
        )
        assert len(routed) == i + 1
        route = routed[-1]
        assert info["certified"] == (route.value == 0 or route.value * (g.n - 1) <= g.m)
        for answer in (route, cut):
            assert g.cut_value_mask(answer.side_mask()) == answer.value >= ref
        assert cut == route or (info["certified"] and cut.value == ref)
        single += route.value == ref
        learned += info["learned"]
        bailed += info["bailed"]
        certified += info["certified"]
        corrected += cut.value < route.value
    assert [ladder.h_is_g for ladder in ladders] == [False] * len(cases)
    # case 19 is disconnected: the ladder sees a zero boundary and v2 stops
    # before enumerating; every bail skips the merge
    assert enumerated[0] == len(cases) - 1
    assert merged[0] == enumerated[0] - bailed
    assert (single, learned, bailed, certified, corrected) == (58, 53, 0, 54, 0)


def test_v2_flags_the_merge_that_leaves_one_group(monkeypatch, without_forests):
    # H's near-minimum band can hold no minimum cut of G; contract_safe
    # then merges every group and v2's route falls back to the cheapest
    # boundary it saw, which merged_all reports. A wrong route answer with
    # none of the three flags comes from the learning endgame, after a merge
    # that left groups but crossed every minimum cut. A vertex of degree 0
    # is the certified answer of the degree pass, which skips the finish.
    # The finish proves or corrects every route answer U with
    # U (n - 1) <= m: it corrects 249 and 324, while 216 and 333 keep
    # U (n - 1) > m (51 > 41 and 54 > 46) and stay wrong and uncertified;
    # no certified answer is wrong
    routed = route_answers(monkeypatch, global_mincut)
    front, missed_flagged, missed_learned, corrected = set(), set(), set(), set()
    for i, (g, _, _) in enumerate(planted_st_cases(400, 11)):
        info: dict = {}
        cut = global_min_cut_v2(
            CutOracle(g), rng=make_rng(i, "half", "v2"), tuning=HalfKeep(), info=info
        )
        ref = deterministic_min_cut(g).value
        if info["certified"]:
            assert cut.value == ref
        if not routed:
            assert info["certified"] and cut.value == 0 == min(g.degrees())
            front.add(i)
            continue
        route = routed.pop()
        if route.value > ref:
            if info["bailed"] or info["skipped_learning"] or info["merged_all"]:
                missed_flagged.add(i)
            else:
                assert info["learned"] == 1
                missed_learned.add(i)
        if cut.value < route.value:
            corrected.add(i)
    assert front == {9, 271, 382}
    assert missed_flagged == {111, 249, 259, 287, 324, 360}
    assert missed_learned == {216, 333}
    assert corrected == {249, 324}


def forestless_v2(monkeypatch, g, seed, **kw):
    """`run_v2` on the same stream with v2's forests switched off."""
    with monkeypatch.context() as patched:
        patch_forests_off(patched)
        return run_v2(g, seed, **kw)


@pytest.mark.parametrize("n", [128, 256])
def test_v2_forests_certify_planted_dense_graphs(monkeypatch, n):
    # a planted cut of k below degrees of n/4: one Borůvka component is the
    # planted side, so U falls to k and forest k certifies it before any
    # H is built, at a fraction of what learning the graph costs (measured
    # 0.11-0.19 at n = 256)
    ladder = count_calls(monkeypatch, global_mincut, "approximate_strengths")
    for k in (1, 2, 3):
        for rep in range(2):
            g = planted_cut(n, k, 0.5, make_rng(rep, "v2-pd", n, k))
            oracle, info, cut = run_v2(g, (rep, "pd"))
            assert cut.value == deterministic_min_cut(g).value == k
            assert g.cut_value_mask(cut.side_mask()) == cut.value
            assert info["certified"] and 1 <= info["forests"] <= k + 1
            assert info["h_edges"] == 0
            if n == 256:
                learner = CutOracle(g)
                learn_graph(learner)
                assert oracle.ledger.distinct_queries < 0.25 * learner.ledger.distinct_queries
    assert ladder[0] == 0


def test_v2_forests_give_up_on_dense_gnp_where_the_cut_is_a_degree(monkeypatch):
    # gnp(256, 1/4): the min cut is the minimum degree, about 45, and no
    # boundary the first forest queries comes near it, so U (n - 1) > m and
    # forests give up after one forest; the sparsifier then runs on the
    # same stream, to the same answer, and the forest costs under 12% more
    # (measured 9.5%)
    for rep in range(2):
        g = gnp(256, 0.25, make_rng(rep, "dense-gnp"))
        oracle, info, cut = run_v2(g, (rep, "give-up"))
        plain, plain_info, plain_cut = forestless_v2(monkeypatch, g, (rep, "give-up"))
        assert info["forests"] == 1 and plain_info["forests"] == 0
        assert cut == plain_cut and cut.value == deterministic_min_cut(g).value
        assert info["h_edges"] == plain_info["h_edges"] > 0
        spent, plain_spent = oracle.ledger.distinct_queries, plain.ledger.distinct_queries
        assert plain_spent < spent <= 1.12 * plain_spent


def test_v2_forests_enter_sparse_gnp_where_the_min_degree_pays(monkeypatch):
    # gnp(256, 8/255), m about 4n: forests enter where
    # 2 (n - 1) min(delta, ceil(log2 n)) <= m. There they stop by forest
    # delta and certify before any H is built, on the very forests v1 runs,
    # below learn_graph; elsewhere v2 spends and answers exactly what the
    # sparsifier alone does on the same stream
    graphs = [sparse_gnp(seed) for seed in range(3)]
    graphs += [gnp(256, 8 / 255, make_rng(rep, "sparse-gnp")) for rep in range(2)]
    entered = []
    for i, g in enumerate(graphs):
        assert min(g.degrees()) > 0
        oracle, info, cut = run_v2(g, (i, "sparse"))
        if 2 * (g.n - 1) * min(min(g.degrees()), ceil_log2(g.n)) <= g.m:
            entered.append(i)
            assert info["certified"] and info["h_edges"] == 0
            assert 1 <= info["forests"] <= min(g.degrees())
            assert cut.value == deterministic_min_cut(g).value
            assert g.cut_value_mask(cut.side_mask()) == cut.value
            v1, v1_info, v1_cut = run_v1(g, (i, "sparse"))
            assert v1_info["rounds"] == 0 and v1_info["forests"] == info["forests"]
            assert v1_cut == cut
            assert oracle.ledger.distinct_queries == v1.ledger.distinct_queries
            assert oracle.ledger.distinct_queries < learn_graph_queries(g)
        else:
            plain, plain_info, plain_cut = forestless_v2(monkeypatch, g, (i, "sparse"))
            assert info["forests"] == 0 and cut == plain_cut and info == plain_info
            assert oracle.ledger.snapshot() == plain.ledger.snapshot()
    assert 0 < len(entered) < len(graphs)


def test_v2_certified_answers_are_exact(monkeypatch):
    # forests certify where a cheap boundary shows up and give up on dense
    # gnp, whose min cut is a degree; every certified answer, from forests
    # or from H = G, is exact
    ladder = count_calls(monkeypatch, global_mincut, "approximate_strengths")
    rng = random.Random(19)
    graphs = [gnp(rng.randint(32, 40), rng.uniform(0.6, 0.8), rng) for _ in range(8)]
    graphs += [planted_cut(128, rep % 3 + 1, 0.5, make_rng(rep, "v2-cert")) for rep in range(6)]
    routes = {"forests": 0, "gave up": 0, "no forest": 0}
    for i, g in enumerate(graphs):
        before = ladder[0]
        _, info, cut = run_v2(g, (i, "cert"))
        assert info["certified"]
        assert cut.value == deterministic_min_cut(g).value, (i, info)
        assert g.cut_value_mask(cut.side_mask()) == cut.value
        if info["forests"] == 0:
            routes["no forest"] += 1
        else:
            routes["gave up" if ladder[0] > before else "forests"] += 1
    assert routes["forests"] >= 4 and routes["gave up"] >= 4, routes


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
