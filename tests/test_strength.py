import math
import random
from fractions import Fraction

import pytest

from cutquery import (
    ContractionState,
    CutOracle,
    SimpleGraph,
    WeightedGraph,
    approximate_strengths,
    barbell,
    brute_force_min_cut,
    cycle,
    deterministic_min_cut,
    exact_strengths,
    gnp,
    make_rng,
    strength_decompose_known,
)
from cutquery import strength
from cutquery.discovery import learn_graph
from cutquery.graph import planted_cut
from cutquery.params import DEFAULT_TUNING, Tuning, ceil_log2
from cutquery.strength import StrengthMap

from conftest import brute_min_cut_value, random_weighted_graph


def complete(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def two_triangles_bridged() -> WeightedGraph:
    edges = [(0, 1, 1), (1, 2, 1), (0, 2, 1), (3, 4, 1), (4, 5, 1), (3, 5, 1), (2, 3, 1)]
    return WeightedGraph.from_edges(6, edges)


def test_decompose_splits_at_the_bridge():
    pieces = strength_decompose_known(two_triangles_bridged(), 1)
    assert sorted(pieces) == [0b000111, 0b111000]


def test_decompose_keeps_k5_whole():
    k5 = WeightedGraph.from_edges(5, [(u, v, 1) for u in range(5) for v in range(u + 1, 5)])
    assert strength_decompose_known(k5, 3) == [0b11111]


def test_decompose_strict_mode_boundary():
    # threshold exactly at the min cut: <= splits, < keeps
    c4 = WeightedGraph.from_edges(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    assert len(strength_decompose_known(c4, 2)) > 1
    assert strength_decompose_known(c4, 2, strict=True) == [0b1111]


def strong_components(g: WeightedGraph, threshold, strict: bool = False) -> list[int]:
    """Vertex masks of the components that g's edges of exact strength above
    `threshold` (at least it when strict) span, singletons included: the
    pieces the decomposition must return."""
    strengths = exact_strengths(g)
    strong = [
        (u, v, w)
        for (u, v), w in g.weights.items()
        if (strengths[(u, v)] >= threshold if strict else strengths[(u, v)] > threshold)
    ]
    return sorted(WeightedGraph.from_edges(g.n, strong).component_masks())


def test_decompose_certifies_pieces_and_removals():
    rng = make_rng(4)
    g = gnp(14, 0.5, rng)
    wg = WeightedGraph.from_edges(14, [(u, v, 1) for u, v in g.edges])
    for threshold in (1, 2, Fraction(5, 2), 4):
        pieces = strength_decompose_known(wg, threshold)
        # the cuts split along were cheap: each piece is a component of the
        # edges stronger than the threshold
        assert sorted(pieces) == strong_components(wg, threshold)
        # every surviving multi-vertex piece is strictly above the threshold
        for mask in pieces:
            if mask.bit_count() < 2:
                continue
            sub = wg.subgraph(mask)
            verts = [v for v in range(14) if (mask >> v) & 1]
            relabel = {v: i for i, v in enumerate(verts)}
            small = WeightedGraph(
                len(verts),
                {(relabel[u], relabel[v]): w for (u, v), w in sub.weights.items()},
            )
            assert deterministic_min_cut(small).value > threshold
        # pieces partition the vertex set
        union = 0
        for mask in pieces:
            assert union & mask == 0
            union |= mask
        assert union == (1 << 14) - 1


def test_decompose_pieces_are_maximal():
    # no vertex set meeting two final pieces is connected above the
    # threshold, so the decomposition never over-splits; the final pieces
    # are then unique whichever qualifying cut the solver hands back
    rng = random.Random(43)
    for _ in range(8):
        n = rng.randint(6, 12)
        g = random_weighted_graph(n, rng, max_w=3, p=rng.uniform(0.3, 0.8))
        for threshold, strict in ((2, False), (3, True), (Fraction(9, 2), False)):
            pieces = strength_decompose_known(g, threshold, strict=strict)
            owner = {v: i for i, mask in enumerate(pieces) for v in range(n) if (mask >> v) & 1}

            def above(value):
                return value >= threshold if strict else value > threshold

            for mask in range(1, 1 << n):
                verts = [v for v in range(n) if (mask >> v) & 1]
                if len({owner[v] for v in verts}) < 2:
                    continue
                pos = {v: i for i, v in enumerate(verts)}
                sub = WeightedGraph(
                    len(verts),
                    {(pos[u], pos[v]): w for (u, v), w in g.weights.items() if u in pos and v in pos},
                )
                if not all(above(d) for d in sub.degree_weights()):
                    continue  # a single vertex already cuts off cheaply
                assert not above(brute_force_min_cut(sub).value)


def test_decompose_shortcut_paths_match_reference_semantics():
    # large sparse graphs exercise the peel cascade and the min-cut split
    rng = random.Random(31)
    g = gnp(120, 4 / 120, rng)
    wg = WeightedGraph.from_edges(120, [(u, v, 1) for u, v in g.edges])
    for threshold, strict in ((1, False), (2, False), (1, True), (3, True)):
        pieces = strength_decompose_known(wg, threshold, strict=strict)
        below = (lambda v: v < threshold) if strict else (lambda v: v <= threshold)
        assert sorted(pieces) == strong_components(wg, threshold, strict)
        for mask in pieces:
            if mask.bit_count() < 2:
                continue
            verts = [v for v in range(120) if (mask >> v) & 1]
            relabel = {v: i for i, v in enumerate(verts)}
            sub = wg.subgraph(mask)
            small = WeightedGraph(
                len(verts),
                {(relabel[u], relabel[v]): w for (u, v), w in sub.weights.items()},
            )
            assert not below(deterministic_min_cut(small).value)


def test_strength_map_assigns_each_edge_once():
    smap = StrengthMap()
    smap.assign(0b0111, Fraction(3))
    smap.assign(0b1011, Fraction(5))  # later records only cover leftovers
    assert smap.resolve(0, 1) == Fraction(3)
    assert smap.resolve(0, 2) == Fraction(3)
    assert smap.resolve(0, 3) == Fraction(5)
    with pytest.raises(ValueError):
        smap.assign(0b0001, Fraction(1))  # a single vertex covers no edge
    assert smap.resolve(2, 3) is None  # no record covers this pair


def approx_with_checks(g: SimpleGraph, seed, epsilon=Fraction(1, 4)):
    """approximate_strengths plus the per-level edge-count bound. The ladder
    subsamples once per level, in order, so its i-th `uniform_subsample`
    call sees level kappa = n / 2^i."""
    oracle = CutOracle(g)
    edges_before = []
    real = strength.uniform_subsample

    def subsample(oracle, state, *args, **kwargs):
        edges_before.append(state.interface_edge_count())
        return real(oracle, state, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(strength, "uniform_subsample", subsample)
        ladder = approximate_strengths(oracle, epsilon, make_rng(seed, "strength"))
    n = g.n
    for i, edges in enumerate(edges_before):
        # a piece surviving at connectivity kappa keeps at most ~n*kappa edges
        assert edges <= 8 * n * float(Fraction(n, 1 << i)) + n
    return oracle, ladder.strengths, ladder.h


def test_strengths_on_disjoint_cliques():
    g = SimpleGraph.from_edges(
        8,
        [(u, v) for u in range(4) for v in range(u + 1, 4)]
        + [(u, v) for u in range(4, 8) for v in range(u + 1, 8)],
    )
    _, smap, _ = approx_with_checks(g, 1)
    for u, v in g.edges:
        got = smap.resolve(u, v)
        assert Fraction(3, 4) <= got <= 3


def test_strength_of_a_single_edge():
    g = SimpleGraph.from_edges(2, [(0, 1)])
    _, smap, _ = approx_with_checks(g, 2)
    assert Fraction(1, 4) <= smap.resolve(0, 1) <= 1


def test_sandwich_holds_with_high_rate():
    g = gnp(14, 0.5, make_rng(8))
    truth = exact_strengths(g)
    good = 0
    for trial in range(100):
        _, smap, _ = approx_with_checks(g, (8, trial))
        ok = all(
            Fraction(truth[(u, v)], 4) <= smap.resolve(u, v) <= truth[(u, v)]
            for u, v in g.edges
        )
        good += ok
    assert good >= 95


def test_every_edge_resolves_exactly_once():
    rng = random.Random(6)
    for trial in range(10):
        g = gnp(rng.randint(6, 14), rng.uniform(0.2, 0.7), rng)
        oracle = CutOracle(g)
        smap = approximate_strengths(oracle, Fraction(1, 4), make_rng(60 + trial)).strengths
        for u, v in g.edges:
            assert smap.resolve(u, v) > 0
        # records never overlap pairwise on covered edges: the first covering
        # record is unique because later records only cover contracted supers
        masks = [rec[0] for rec in smap.records]
        for i, a in enumerate(masks):
            for b in masks[i + 1 :]:
                inter = a & b
                assert inter == 0 or inter.bit_count() <= a.bit_count()


def test_query_accounting_stays_near_linear():
    # distinct queries <= c4 * n * ln^3(n) / eps^2 with a generous pinned c4
    eps = Fraction(1, 4)
    for n, seed in ((12, 0), (20, 1), (28, 2), (36, 3)):
        g = gnp(n, 0.4, make_rng(seed, "qa"))
        oracle = CutOracle(g)
        approximate_strengths(oracle, eps, make_rng(seed, "qa-run"))
        budget = 40 * n * math.log(max(2, n)) ** 3 / float(eps) ** 2
        assert oracle.ledger.distinct_queries <= budget


def test_sparsifier_identity_when_probabilities_clamp():
    g = cycle(8)
    oracle = CutOracle(g)
    h = approximate_strengths(oracle, Fraction(1, 4), make_rng(3)).h
    assert h.n == 8
    assert h.weights == {e: 1 for e in g.edges}


def test_sparsifier_weights_are_h_prob_denominators():
    # H's weight is 1/p_h, an int; a p_h that is not a unit fraction has no
    # int weight, so the ladder refuses it (a raise, kept under python -O)
    class Quarter(Tuning):
        def h_prob(self, q, eps):
            return Fraction(1, 4)

    class TwoThirds(Tuning):
        def h_prob(self, q, eps):
            return Fraction(2, 3)

    g = gnp(14, 0.5, make_rng(2))
    h = approximate_strengths(CutOracle(g), Fraction(1, 4), make_rng(2), Quarter()).h
    assert h.m and all(type(w) is int and w == 4 for w in h.weights.values())
    with pytest.raises(ValueError, match="unit fraction"):
        approximate_strengths(CutOracle(g), Fraction(1, 4), make_rng(2), TwoThirds())


def test_sparsifier_keeps_the_bridge():
    g = barbell(5)
    for trial in range(10):
        oracle = CutOracle(g)
        h = approximate_strengths(oracle, Fraction(1, 4), make_rng(trial, "bb")).h
        assert h.weights.get((4, 5)) == 1  # strength-1 bridge is never dropped


def test_sparsifier_band_on_random_graph():
    g = gnp(14, 0.4, make_rng(6))
    wg = WeightedGraph.from_edges(14, [(u, v, 1) for u, v in g.edges])
    eps = Fraction(3, 10)
    good = 0
    for trial in range(100):
        oracle = CutOracle(g)
        h = approximate_strengths(oracle, eps, make_rng(trial, "band")).h
        ok = True
        for mask in range(1, 1 << 13):
            side = (mask << 1) | 1
            exact = wg.cut_value_mask(side)
            got = h.cut_value_mask(side)
            if not (1 - eps) * exact <= got <= (1 + eps) * exact:
                ok = False
                break
        good += ok
    assert good >= 95


def test_sparsifier_edge_budget():
    c = 60  # edges <= c * n ln n / eps^2, pinned generously
    eps = Fraction(3, 10)
    for n, seed in ((10, 0), (14, 1)):
        g = gnp(n, 0.5, make_rng(seed, "budget"))
        oracle = CutOracle(g)
        h = approximate_strengths(oracle, eps, make_rng(seed, "budget-run")).h
        assert h.m <= c * n * math.log(n) / float(eps) ** 2


def test_strength_certificate_supports_weight_lower_bound():
    # if total weight reaches d(n-1), some edge certifies strength >= d/4
    # through the approximate map (sandwich factor 4)
    rng = random.Random(9)
    for trial in range(10):
        n = rng.randint(6, 12)
        g = gnp(n, rng.uniform(0.5, 0.9), rng)
        if g.m == 0:
            continue
        d = g.m // (n - 1)
        if d < 1:
            continue
        oracle = CutOracle(g)
        smap = approximate_strengths(oracle, Fraction(1, 4), make_rng(trial, "lb")).strengths
        best = max(smap.resolve(u, v) for u, v in g.edges)
        assert best >= Fraction(d, 4)


def _ladder_run(g: SimpleGraph, seed):
    oracle = CutOracle(g)
    rng = make_rng(seed, "ladder")
    ladder = approximate_strengths(oracle, Fraction(1, 4), rng, Tuning(scale=2e-4))
    spent = oracle.ledger.distinct_queries
    return ladder.h.weights, ladder.strengths.records, rng.getstate(), spent


@pytest.mark.parametrize(
    "g",
    [
        planted_cut(128, 3, 0.1, make_rng(11, "reuse-planted")),
        gnp(128, 6 / 127, make_rng(11, "reuse-gnp")),
    ],
    ids=["planted", "gnp"],
)
def test_learned_interface_reuse_keeps_streams_and_saves_queries(g, monkeypatch):
    weights, records, state, spent = _ladder_run(g, 1)
    # forget every learned interface: each read of the oracle's record finds
    # it empty, so each level and piece learns afresh
    monkeypatch.setattr(
        CutOracle,
        "known",
        property(lambda self: [0] * self.n, lambda self, value: None),
        raising=False,
    )
    weights_off, records_off, state_off, spent_off = _ladder_run(g, 1)
    assert weights == weights_off
    assert list(weights) == list(weights_off)
    assert records == records_off
    assert state == state_off
    assert spent < spent_off


def test_learned_family_edges_must_add_up():
    from cutquery.strength import _learned_family_edges

    # path 0-1-2-3 with groups {0}, {1, 2}, {3}: the interface is 0-1 and
    # 2-3. The record answers only where it holds every inner edge of the
    # piece, and one that holds more than the piece has is refused
    state = ContractionState(4, [1, 2, 2, 1])
    record = [0b0010, 0b0101, 0b1010, 0b0100]
    state.contract(1, 2)
    assert _learned_family_edges(record, state, 0b0111, 1) == [(0, 1)]
    assert _learned_family_edges(record, state, 0b1111, 2) == [(0, 1), (2, 3)]
    with pytest.raises(RuntimeError, match="the record 2"):
        _learned_family_edges(record, state, 0b1111, 1)
    record = [0b0010, 0b0101, 0b0010, 0]  # lost 2-3
    assert _learned_family_edges(record, state, 0b1111, 2) is None
    record = [0, 0b0100, 0b0010, 0]  # only 1-2, inside one group
    assert _learned_family_edges(record, state, 0b1111, 2) is None


def _level_trace(monkeypatch):
    """Record, per `uniform_subsample` call of the ladder, its `learn`
    argument, its interface draws and whether it left a learned interface;
    count every edge-by-edge interface learn."""
    import cutquery.contraction as contraction
    import cutquery.discovery as discovery

    levels: list[dict] = []
    learns = []

    def counting_learn(real):
        def wrapped(*args, **kwargs):
            learns.append(len(levels))
            return real(*args, **kwargs)

        return wrapped

    for module in (contraction, discovery):
        real_learn = module.learn_intergroup_edges
        monkeypatch.setattr(module, "learn_intergroup_edges", counting_learn(real_learn))
    real_draw = contraction.sample_intergroup_edges
    real_subsample = strength.uniform_subsample

    def draw(*args, **kwargs):
        levels[-1]["draws"] += 1
        return real_draw(*args, **kwargs)

    def subsample(oracle, state, p, rng, cap=None, learn=False):
        known = any(oracle.known)
        levels.append({"learn": learn, "draws": 0, "known_before": known})
        out = real_subsample(oracle, state, p, rng, cap=cap, learn=learn)
        levels[-1]["known_after"] = any(oracle.known)
        return out

    monkeypatch.setattr(contraction, "sample_intergroup_edges", draw)
    monkeypatch.setattr(strength, "uniform_subsample", subsample)
    return levels, learns


@pytest.mark.parametrize(
    "g",
    [
        planted_cut(128, 3, 0.1, make_rng(11, "reuse-planted")),
        gnp(128, 6 / 127, make_rng(11, "reuse-gnp")),
    ],
    ids=["planted", "gnp"],
)
def test_ladder_learns_interface_from_the_first_level_whose_h_prob_is_one(g, monkeypatch):
    import cutquery.contraction as contraction

    eps, tuning = Fraction(1, 4), Tuning(scale=2e-4)
    assert tuning.h_prob(tuning.strength_prob(g.n, Fraction(g.n)), eps) == 1

    def no_draws(*args, **kwargs):
        raise AssertionError("drew an interface edge at a level whose p_h is 1")

    monkeypatch.setattr(contraction, "sample_intergroup_edges", no_draws)
    levels, learns = _level_trace(monkeypatch)
    oracle = CutOracle(g)
    ladder = approximate_strengths(oracle, eps, make_rng(1, "first-level"), tuning)
    assert learns == [1]  # once, inside the first level's subsample
    assert all(rec["learn"] for rec in levels)
    assert ladder.h.weights == {e: 1 for e in g.edges}
    baseline = CutOracle(g)
    learn_graph(baseline)
    pieces = len(ladder.strengths.records)  # one certificate per contracted piece
    assert oracle.ledger.distinct_queries <= baseline.ledger.distinct_queries + pieces


def test_ladder_draws_until_h_prob_reaches_one(monkeypatch):
    g = planted_cut(128, 3, 0.1, make_rng(11, "reuse-planted"))
    eps, tuning = Fraction(9, 10), Tuning(scale=2e-4)
    probs = [
        tuning.h_prob(tuning.strength_prob(g.n, Fraction(g.n, 1 << j)), eps)
        for j in range(4)
    ]
    assert probs == [Fraction(1, 13), Fraction(1, 6), Fraction(1, 3), 1]
    levels, learns = _level_trace(monkeypatch)
    approximate_strengths(CutOracle(g), eps, make_rng(1, "late-level"), tuning)
    for rec in levels[:3]:
        assert not rec["learn"] and rec["draws"] > 0 and not rec["known_after"]
    first = levels[3]
    assert first["learn"] and not first["known_before"] and first["known_after"]
    assert first["draws"] == 0
    assert learns[0] == 4  # the first edge-by-edge learn is level 3's
    assert all(rec["learn"] for rec in levels[3:])
