import math
import random
from fractions import Fraction

import pytest

from cutquery import (
    CutOracle,
    SimpleGraph,
    Tuning,
    WeightedGraph,
    approximate_strengths,
    generate,
    gnp,
    learn_graph,
    make_rng,
    planted_cut_sides,
    st_min_cut,
    st_min_cut_known,
)
from cutquery import st_mincut as st_module
from cutquery.params import ceil_log2, st_epsilon
from cutquery.scaling import BENCH_DEGREE, BENCH_SCALE_ST

from conftest import (
    HalfKeep,
    brute_st_cut_value,
    count_calls,
    patch_ladder,
    patch_forests_off,
    planted_st_cases,
    random_simple_graph,
    route_answers,
)


def path(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def run(g: SimpleGraph, s: int, t: int, seed, **kw):
    oracle = CutOracle(g)
    info: dict = {}
    cut = st_min_cut(oracle, s, t, rng=make_rng(seed, "st"), info=info, **kw)
    return oracle, info, cut


def test_path_endpoints():
    _, _, cut = run(path(6), 0, 5, 1)
    assert cut.value == 1
    assert 0 in cut.side and 5 not in cut.side


def test_complete_graph():
    _, info, cut = run(complete(8), 0, 7, 2)
    assert cut.value == 7
    assert not info["degraded"]


def test_terminal_validation():
    g = path(4)
    oracle = CutOracle(g)
    with pytest.raises(ValueError):
        st_min_cut(oracle, 1, 1, rng=make_rng(0))
    with pytest.raises(ValueError):
        st_min_cut(oracle, 0, 9, rng=make_rng(0))
    with pytest.raises(ValueError):
        st_min_cut(oracle, 0, 1, rng=None)
    with pytest.raises(ValueError):
        st_min_cut(oracle, 0, 1, rng=make_rng(0), epsilon=Fraction(1, 2))


def test_default_epsilon_shrinks_with_n():
    assert st_epsilon(27) == Fraction(3, 10)
    assert st_epsilon(1000) == Fraction(1, 10)
    assert 0 < st_epsilon(64) < Fraction(1, 3)


def test_matches_reference_on_random_instances():
    rng = random.Random(10)
    for trial in range(25):
        n = rng.randint(4, 16)
        g = random_simple_graph(n, rng)
        s, t = rng.sample(range(n), 2)
        _, info, cut = run(g, s, t, trial)
        assert cut.value == brute_st_cut_value(g, s, t)
        assert s in cut.side and t not in cut.side
        assert g.cut_value_mask(cut.side_mask()) == cut.value


def test_planted_bottleneck_instances():
    for trial in range(8):
        g, side = planted_cut_sides(24, 3, 0.7, make_rng(trial, "inst"))
        s = min(side)
        t = min(set(range(24)) - side)
        _, _, cut = run(g, s, t, trial)
        assert cut.value == 3  # the planted bisection is the bottleneck


def record_groups_and_flow(monkeypatch) -> tuple[list[list[int]], list[int]]:
    """Wrap st's flow and its contracted finish where st looks them up; the
    lists returned collect, solve by solve, the flow's source side and the
    group masks `learn_contracted` receives."""
    groups: list[list[int]] = []
    sides: list[int] = []
    real_flow, real_learn = st_module.max_flow, st_module.learn_contracted

    def flow(*args, **kwargs):
        out = real_flow(*args, **kwargs)
        sides.append(out.source_side_mask)
        return out

    def learn(oracle, state, *args, **kwargs):
        groups.append([state.group_mask(r) for r in state.roots])
        return real_learn(oracle, state, *args, **kwargs)

    monkeypatch.setattr(st_module, "max_flow", flow)
    monkeypatch.setattr(st_module, "learn_contracted", learn)
    return groups, sides


def test_groups_never_straddle_the_flow_cut(monkeypatch, h_never_g):
    # at scale 1 H is G on these graphs, so h_never_g keeps the decomposition
    # running. Contraction safety: the max-flow witness cut of the sparsifier
    # loses all its crossing edges in the residue, so no contracted group may
    # contain vertices from both of its sides
    groups, sides = record_groups_and_flow(monkeypatch)
    rng = random.Random(3)
    for trial in range(12):
        n = rng.randint(6, 30)
        g = random_simple_graph(n, rng, p=0.4)
        s, t = rng.sample(range(n), 2)
        _, info, cut = run(g, s, t, (trial, "safety"))
        assert len(groups) == len(sides) == trial + 1
        if info["degraded"]:
            continue
        ref = sides[-1]
        for mask in groups[-1]:
            assert mask & ref == 0 or mask & ~ref == 0, (
                f"group {mask:b} straddles the reference cut {ref:b}"
            )
        wg = WeightedGraph.from_edges(n, [(u, v, 1) for u, v in g.edges])
        assert cut.value == st_min_cut_known(wg, s, t).value


def test_terminals_end_in_distinct_groups(monkeypatch, h_never_g):
    # h_never_g: the groups only exist on the decomposition path
    groups, _ = record_groups_and_flow(monkeypatch)
    rng = random.Random(5)
    for trial in range(10):
        g = random_simple_graph(12, rng, p=0.5)
        s, t = rng.sample(range(12), 2)
        run(g, s, t, (trial, "sep"))
        assert len(groups) == trial + 1
        holding = [
            m for m in groups[-1] if (m >> s) & 1 or (m >> t) & 1
        ]
        assert len(holding) == 2


def test_query_budget_recorded_and_bounded():
    # distinct <= c6 * n^{5/3} * log^3 n, pinned generously
    c6 = 3.0
    for n, seed in ((12, 0), (20, 1), (32, 2), (48, 3)):
        g = gnp(n, 0.4, make_rng(seed, "stqb"))
        s, t = 0, n - 1
        oracle, _, _ = run(g, s, t, seed)
        budget = c6 * n ** (5 / 3) * math.log(max(2, n)) ** 3
        assert oracle.ledger.distinct_queries <= budget


def test_degraded_path_still_returns_a_valid_cut(h_never_g):
    # forcing a tiny learn cap trips the fallback, which must stay a real cut;
    # h_never_g keeps the run off the H = G answer, which learns nothing
    from cutquery.params import Tuning

    class Tight(Tuning):
        def st_learn_cap(self, n: int) -> int:
            return 0

    g = gnp(12, 0.5, make_rng(4, "deg"))
    oracle = CutOracle(g)
    info: dict = {}
    cut = st_min_cut(oracle, 0, 11, rng=make_rng(4), tuning=Tight(), info=info)
    assert info["degraded"]
    assert 0 in cut.side and 11 not in cut.side
    assert g.cut_value_mask(cut.side_mask()) == cut.value
    # the fallback is one of the two terminal boundaries, so it is at least
    # the true optimum
    assert cut.value >= brute_st_cut_value(g, 0, 11)


def test_h_is_g_answers_from_h_without_another_query(monkeypatch):
    skipped = [
        count_calls(monkeypatch, st_module, name)
        for name in ("max_flow", "strip_flow", "strength_decompose_known", "learn_contracted")
    ]
    rng = random.Random(11)
    for trial in range(10):
        n = rng.randint(6, 30)
        g = random_simple_graph(n, rng, p=0.4)
        s, t = rng.sample(range(n), 2)
        oracle, info, cut = run(g, s, t, (trial, "h=g"))
        assert info == {"degraded": False, "certified": True, "forests": 0}
        assert s in cut.side and t not in cut.side
        wg = WeightedGraph.from_edges(n, [(u, v, 1) for u, v in g.edges])
        assert cut.value == st_min_cut_known(wg, s, t).value
        assert g.cut_value_mask(cut.side_mask()) == cut.value
        # the ladder alone, on the same stream, spends every query st did
        ladder = CutOracle(g)
        approximate_strengths(ladder, st_epsilon(n), make_rng((trial, "h=g"), "st"))
        assert oracle.ledger.distinct_queries == ladder.ledger.distinct_queries
    assert [c[0] for c in skipped] == [0, 0, 0, 0]


@pytest.mark.parametrize("n, rep", [(64, 0), (128, 1)])
def test_h_is_g_costs_learn_graph_plus_a_few_queries(n, rep):
    # criterion 4's instances and streams (bench_run, seed 0), where the
    # decomposition path spent 2,709 and 9,970 queries
    g = generate("gnp", {"n": n, "p": min(1.0, BENCH_DEGREE / n)}, n * 101 + rep)
    oracle = CutOracle(g)
    info: dict = {}
    rng = make_rng(0, "bench", "st", n, rep)
    cut = st_min_cut(oracle, 0, n - 1, rng, tuning=Tuning(scale=BENCH_SCALE_ST), info=info)
    assert info["certified"]
    wg = WeightedGraph.from_edges(n, [(u, v, 1) for u, v in g.edges])
    assert cut.value == st_min_cut_known(wg, 0, n - 1).value
    learner = CutOracle(g)
    learn_graph(learner)
    assert oracle.ledger.distinct_queries <= learner.ledger.distinct_queries + 8


def test_forced_sampling_runs_the_decomposition(monkeypatch, without_forests):
    # HalfKeep never lets H be G, so every run takes the sampled path, which
    # the H = G check leaves untouched: the route's own hit counts are
    # pinned, read where it hands its answer U to the finish. Forests do not
    # enter first on these half-dense graphs; the fixture keeps it that way.
    # The finish proves U, or corrects it, exactly where U (n - 1) <= m
    ladders = patch_ladder(monkeypatch)
    decomposed = count_calls(monkeypatch, st_module, "strength_decompose_known")
    groups, _ = record_groups_and_flow(monkeypatch)
    routed = route_answers(monkeypatch, st_module)
    cases = planted_st_cases(60, 7)
    single = best3 = solves = certified = corrected = 0
    for i, (g, s, t) in enumerate(cases):
        wg = WeightedGraph.from_edges(g.n, [(u, v, 1) for u, v in g.edges])
        ref = st_min_cut_known(wg, s, t).value
        values = []
        for rep in range(3):
            info: dict = {}
            rng = make_rng(i, "half", "st", rep)
            cut = st_min_cut(CutOracle(g), s, t, rng=rng, tuning=HalfKeep(), info=info)
            solves += 1
            assert len(routed) == len(groups) == solves
            route = routed[-1]
            assert info["certified"] == (route.value == 0 or route.value * (g.n - 1) <= g.m)
            for answer in (route, cut):
                assert s in answer.side and t not in answer.side
                assert g.cut_value_mask(answer.side_mask()) == answer.value >= ref
            assert cut == route or (info["certified"] and cut.value == ref)
            certified += info["certified"]
            corrected += cut.value < route.value
            values.append(route.value)
            if min(values) == ref:
                break
        single += values[0] == ref
        best3 += min(values) == ref
    assert [ladder.h_is_g for ladder in ladders] == [False] * solves
    assert decomposed[0] == solves
    assert (single, best3, certified, corrected) == (55, 60, 53, 0)


def test_sampled_answers_never_exceed_the_better_terminal_boundary(monkeypatch, without_forests):
    # under HalfKeep the route's contracted answer can miss the min s-t cut
    # (26 of these 400 do), but the better terminal boundary from the
    # degree pass still bounds it: instance 64 once answered 10 where s has
    # degree 4. The finish then proves or corrects every route answer U with
    # U (n - 1) <= m: it corrects four, and the 22 it leaves wrong are the
    # uncertified ones; no certified answer is wrong
    routed = route_answers(monkeypatch, st_module)
    missed, corrected = set(), set()
    for i, (g, s, t) in enumerate(planted_st_cases(400, 11)):
        info: dict = {}
        cut = st_min_cut(
            CutOracle(g), s, t, rng=make_rng(i, "half", "st"), tuning=HalfKeep(), info=info
        )
        degrees = g.degrees()
        ref = st_min_cut_known(g.to_weighted(), s, t).value
        route = routed.pop() if routed else cut  # a front answer skips the finish
        for answer in (route, cut):
            assert s in answer.side and t not in answer.side
            value = g.cut_value_mask(answer.side_mask())
            assert value == answer.value <= min(degrees[s], degrees[t]), i
        if info["certified"]:
            assert cut.value == ref, i
        if route.value > ref:
            missed.add(i)
        if cut.value < route.value:
            corrected.add(i)
    assert len(missed) == 26
    assert corrected == {253, 262, 285, 390}


def two_k5s_and(extra: int) -> SimpleGraph:
    """Two disjoint K5s on vertices 0-9, plus `extra` isolated vertices."""
    edges = [(u, v) for b in (0, 5) for u in range(b, b + 5) for v in range(u + 1, b + 5)]
    return SimpleGraph.from_edges(10 + extra, edges)


def forestless(monkeypatch, g: SimpleGraph, s: int, t: int, seed):
    """`run` on the same stream with st's forests switched off."""
    with monkeypatch.context() as patched:
        patch_forests_off(patched)
        return run(g, s, t, seed)


def exact_st(g: SimpleGraph, s: int, t: int, cut) -> bool:
    """The cut is a minimum s-t cut of g, with s on its side."""
    return (
        s in cut.side
        and t not in cut.side
        and g.cut_value_mask(cut.side_mask()) == cut.value
        and cut.value == st_min_cut_known(g.to_weighted(), s, t).value
    )


def test_terminal_of_degree_zero_is_answered_by_the_degree_pass():
    g = two_k5s_and(1)  # vertex 10 is isolated
    for s, t in ((10, 0), (0, 10)):
        oracle, info, cut = run(g, s, t, (s, t, "deg0"))
        assert (cut.value, info["certified"], info["forests"]) == (0, True, 0)
        assert cut.side == ({10} if s == 10 else set(range(10)))
        assert oracle.ledger.distinct_queries == g.n


def test_disconnected_terminals_cut_zero():
    # two K5s: every degree is 4, so the ladder runs and H = G answers;
    # under HalfKeep the learned contracted answer, 0, proves itself
    for tuning in (Tuning(), HalfKeep()):
        _, info, cut = run(two_k5s_and(0), 0, 9, "k5s", tuning=tuning)
        assert (cut.value, cut.side, info["certified"]) == (0, set(range(5)), True)
    # two dense halves: the first forest's components are the halves, so
    # the boundary of s's half, 0, proves itself after one forest
    rng = make_rng(3, "halves")
    left, right = gnp(64, 0.5, rng), gnp(64, 0.5, rng)
    g = SimpleGraph.from_edges(
        128, sorted(left.edges) + [(u + 64, v + 64) for u, v in right.edges]
    )
    _, info, cut = run(g, 5, 70, "halves")
    assert (cut.value, cut.side, info["certified"]) == (0, set(range(64)), True)
    assert info["forests"] == 1


@pytest.mark.parametrize("n", [128, 256])
def test_forests_certify_planted_dense_graphs(n):
    # a planted cut of k below degrees of n/4: one Borůvka component is the
    # planted side, so U falls to k and forest k certifies it, at a fraction
    # of what learning the graph costs
    for k in (1, 2, 3):
        for rep in range(2):
            g, side = planted_cut_sides(n, k, 0.5, make_rng(rep, "pd", n, k))
            s, t = min(side), min(set(range(n)) - side)
            oracle, info, cut = run(g, s, t, (rep, "pd"))
            assert exact_st(g, s, t, cut) and cut.value == k
            assert info["certified"] and not info["degraded"]
            assert 1 <= info["forests"] <= k + 1
            if n == 256:
                learner = CutOracle(g)
                learn_graph(learner)
                assert oracle.ledger.distinct_queries < 0.25 * learner.ledger.distinct_queries


def test_forests_give_up_on_dense_gnp_where_the_cut_is_a_degree(monkeypatch):
    # gnp(256, 1/4): no s-t boundary the first forest queries comes near the
    # degrees, so U (n - 1) > m and forests give up after one forest; the
    # sparsifier then runs on the same stream, to the same answer, and the
    # forest costs under 12% more (measured 9.5%)
    for rep in range(2):
        g = gnp(256, 0.25, make_rng(rep, "dense-gnp"))
        oracle, info, cut = run(g, 0, 255, (rep, "give-up"))
        plain, plain_info, plain_cut = forestless(monkeypatch, g, 0, 255, (rep, "give-up"))
        assert info["forests"] == 1 and plain_info["forests"] == 0
        assert exact_st(g, 0, 255, cut) and cut == plain_cut
        spent, plain_spent = oracle.ledger.distinct_queries, plain.ledger.distinct_queries
        assert plain_spent < spent <= 1.12 * plain_spent


def test_forests_enter_sparse_gnp_where_the_terminal_degree_pays(monkeypatch):
    # gnp(256, 8/255), m about 4n, with U the smaller terminal degree:
    # forests enter where 2 (n - 1) min(U, ceil(log2 n)) <= m. There they
    # stop by forest U and certify an exact cut below learn_graph;
    # elsewhere st spends and answers exactly what the sparsifier alone
    # does on the same stream. Terminals 0 and 255 have degrees 5-8, so
    # forests skip them; a minimum-degree terminal lets them in on rep 0
    entered = skipped = 0
    for rep in range(2):
        g = gnp(256, 8 / 255, make_rng(rep, "sparse-gnp"))
        degrees = g.degrees()
        low = degrees.index(min(degrees))
        for s, t in ((0, 255), (low, 255 if low != 255 else 0)):
            u = min(degrees[s], degrees[t])
            oracle, info, cut = run(g, s, t, (rep, s, t, "sparse"))
            if 2 * (g.n - 1) * min(u, ceil_log2(g.n)) <= g.m:
                entered += 1
                assert info["certified"] and 1 <= info["forests"] <= u
                assert exact_st(g, s, t, cut)
                learner = CutOracle(g)
                learn_graph(learner)
                assert oracle.ledger.distinct_queries < learner.ledger.distinct_queries
            else:
                skipped += 1
                plain, _, plain_cut = forestless(monkeypatch, g, s, t, (rep, s, t, "sparse"))
                assert info["forests"] == 0 and cut == plain_cut
                assert oracle.ledger.snapshot() == plain.ledger.snapshot()
    assert (entered, skipped) == (1, 3)


def test_certified_st_answers_are_exact(monkeypatch):
    # forests certify where a cheap s-t boundary shows up, and give up where
    # s and t share a dense side, whose cheaper planted cut does not
    # separate them; every certified answer, from either route, is exact
    ladder = count_calls(monkeypatch, st_module, "approximate_strengths")
    cases = []
    rng = random.Random(17)
    for _ in range(12):
        n = rng.randint(30, 40)
        g = gnp(n, rng.uniform(0.6, 0.8), random.Random(rng.randrange(2**32)))
        s, t = rng.sample(range(n), 2)
        cases.append((g, s, t))
    for rep in range(6):
        g, side = planted_cut_sides(128, rep % 3 + 1, 0.5, make_rng(rep, "cert"))
        ordered = sorted(side)
        other = sorted(set(range(128)) - side)
        cases += [(g, ordered[0], other[0]), (g, ordered[0], ordered[-1])]
    routes = {"forests": 0, "gave up": 0, "no forest": 0}
    for i, (g, s, t) in enumerate(cases):
        before = ladder[0]
        _, info, cut = run(g, s, t, (i, "cert"))
        assert info["certified"]
        assert exact_st(g, s, t, cut), (i, info)
        if info["forests"] == 0:
            routes["no forest"] += 1
        else:
            routes["gave up" if ladder[0] > before else "forests"] += 1
    assert routes["forests"] >= 6 and routes["gave up"] >= 6, routes
