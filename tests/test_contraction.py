import math
import random
from fractions import Fraction

import pytest

from cutquery import (
    CutOracle,
    SimpleGraph,
    WeightedGraph,
    cycle,
    karger_until,
    make_rng,
    planted_cut_sides,
    uniform_subsample,
)
from cutquery.contraction import (
    KARGER_QUERY_FACTOR,
    learn_contracted,
    learn_pair_counts,
    merge_and_refresh,
    sample_interface_pair,
    singleton_state,
)

from cutquery.graph import gnp
from cutquery.rng import binomial_count

from conftest import random_simple_graph


def complete(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class OdometerRng:
    """A stand-in rng that replays a script of `randrange` answers and
    answers 0 past its end, noting each call's (answer, range), so a caller
    can step through every answer each call can give."""

    def __init__(self, script: list[int]):
        self.script = script
        self.calls: list[tuple[int, int]] = []

    def randrange(self, t: int) -> int:
        i = len(self.calls)
        answer = self.script[i] if i < len(self.script) else 0
        self.calls.append((answer, t))
        return answer


def exact_law(run) -> dict:
    """Every outcome of `run(rng)` with its exact probability: each branch
    of the calls' answers weighs the product of 1/t over its calls' ranges."""
    law: dict = {}
    script: list[int] = []
    while True:
        rng = OdometerRng(script)
        outcome = run(rng)
        weight = Fraction(1)
        for _, t in rng.calls:
            weight /= t
        law[outcome] = law.get(outcome, 0) + weight
        calls = rng.calls
        while calls and calls[-1][0] == calls[-1][1] - 1:
            calls.pop()
        if not calls:
            return law
        script = [answer for answer, _ in calls[:-1]] + [calls[-1][0] + 1]


def test_sample_interface_pair_draws_each_interface_edge_at_one_over_e():
    # the whole law, by stepping through every answer of every randrange
    # call: each group pair comes up at its edge count over E
    for seed in range(6):
        g = gnp(9, 0.5, random.Random(seed))
        oracle = CutOracle(g)
        state = singleton_state(oracle)
        merge_and_refresh(oracle, state, [0, 3])
        merge_and_refresh(oracle, state, [2, 5, 7])
        e = state.interface_edge_count()
        assert e > 0
        pairs: dict = {}
        for u, v in g.edges:
            a, b = sorted((state.find(u), state.find(v)))
            if a != b:
                pairs[(a, b)] = pairs.get((a, b), 0) + 1
        assert sum(pairs.values()) == e
        law = exact_law(lambda rng: sample_interface_pair(oracle, state, rng))
        assert law == {pair: Fraction(c, e) for pair, c in pairs.items()}, seed


def test_target_at_least_m_is_identity():
    g = cycle(8)
    oracle = CutOracle(g)
    state = karger_until(oracle, g.m, make_rng(0))
    assert state.group_count() == 8
    assert state.interface_edge_count() == 8


def test_cycle_contracts_to_two_groups_with_cut_two():
    for seed in range(10):
        oracle = CutOracle(cycle(4))
        state = karger_until(oracle, 0, make_rng(seed))
        assert state.group_count() == 2
        assert state.interface_edge_count() == 2  # contiguous arcs only


def test_interface_count_monotone_and_integral():
    g = random_simple_graph(12, random.Random(3), p=0.5)
    oracle = CutOracle(g)
    state = singleton_state(oracle)
    last = state.interface_edge_count()
    rng = make_rng(4)
    while state.group_count() > 2:
        state = karger_until(oracle, last - 1, rng, state=state)
        now = state.interface_edge_count()
        assert isinstance(now, int) and 0 <= now <= last
        last = now


def test_karger_query_budget():
    # c2 * merges * log2(n) + n distinct queries, checked from the ledger
    rng = random.Random(11)
    for _ in range(10):
        g = random_simple_graph(rng.randint(6, 24), rng)
        oracle = CutOracle(g)
        before = oracle.ledger.distinct_queries
        state = karger_until(oracle, 0, make_rng(rng.random()))
        spent = oracle.ledger.distinct_queries - before
        merges = g.n - state.group_count()
        budget = KARGER_QUERY_FACTOR * max(1, merges) * math.log2(max(2, g.n)) + g.n
        assert spent <= budget


class _OvercountingOracle(CutOracle):
    """Books a hundred distinct queries for every fresh one."""

    def query_mask(self, mask: int) -> int:
        before = self.ledger.distinct_queries
        value = super().query_mask(mask)
        if self.ledger.distinct_queries > before:
            self.ledger.distinct_queries += 99
        return value


def test_karger_overspend_raises():
    oracle = _OvercountingOracle(cycle(8))
    state = singleton_state(oracle)
    with pytest.raises(RuntimeError, match="overspent"):
        karger_until(oracle, 0, make_rng(0), state=state)


def test_contraction_soundness_against_planted_cut():
    # whenever the contracted multigraph still has min cut k, no planted
    # crossing edge was contracted: every group sits inside one side
    g, side = planted_cut_sides(40, 2, 0.6, random.Random(5))
    oracle = CutOracle(g)
    successes = 0
    for t in range(40):
        state = karger_until(oracle, 2 * 40, make_rng(1000 + t))
        counts = learn_pair_counts(oracle, state)
        mg = WeightedGraph(state.group_count(), counts)
        from cutquery import deterministic_min_cut

        if deterministic_min_cut(mg).value == 2:
            successes += 1
            assert all(grp <= side or not (grp & side) for grp in state.groups())
    assert successes > 0


def test_subsample_full_probability_is_identity():
    g = random_simple_graph(10, random.Random(2), p=0.6)
    oracle = CutOracle(g)
    state = singleton_state(oracle)
    got = uniform_subsample(oracle, state, Fraction(1), make_rng(0))
    roots = sorted(state.roots)
    expect = {}
    for u, v in g.edges:
        key = (roots.index(u), roots.index(v))
        expect[key] = 1
    assert got.weights == expect


def test_subsample_mean_on_complete_graph():
    g = complete(20)  # 190 edges
    oracle = CutOracle(g)
    state = singleton_state(oracle)
    p = Fraction(1, 10)
    rng = make_rng(8, "k20")
    total = 0
    trials = 500
    for _ in range(trials):
        total += uniform_subsample(oracle, state, p, rng).total_weight()
    mean = total / trials
    assert abs(mean - float(p) * 190) <= 0.05 * 190


def test_subsample_cycle_concentration():
    # band width follows from inverting the sampling-rate relation
    # p = 40 ln n / (eps^2 c) at p=0.9, c=2, n=30; at this size the band is
    # loose, so the check is near-vacuous but pins the formula's shape
    n, p = 30, Fraction(9, 10)
    g = cycle(n)
    oracle = CutOracle(g)
    state = singleton_state(oracle)
    eps = math.sqrt(40 * math.log(n) / (float(p) * 2))
    rng = make_rng(9, "c30")
    good = 0
    for _ in range(100):
        h = uniform_subsample(oracle, state, p, rng)
        ok = True
        for a in range(n):
            for ln in range(1, n // 2 + 1):
                side = 0
                for i in range(ln):
                    side |= 1 << ((a + i) % n)
                val = h.cut_value_mask(side) if side & 1 else h.cut_value_mask(((1 << n) - 1) ^ side)
                exact = 2  # every contiguous arc of a cycle cuts two edges
                if not (1 - eps) * float(p) * exact <= val <= (1 + eps) * float(p) * exact:
                    ok = False
        good += ok
    assert good >= 95


def test_subsample_returns_empty_before_a_query():
    # p <= 0, or no interface edges: an empty k-vertex graph before any
    # query or draw. A Binomial draw that keeps no edge: one after the
    # draw, still before any query
    g = cycle(6)
    oracle = CutOracle(g)
    state = singleton_state(oracle)
    whole = singleton_state(oracle)
    whole.set_degree(whole.merge_group_set(range(6)), 0)
    spent = oracle.ledger.snapshot()
    cases = [
        (state, Fraction(0), False),
        (whole, Fraction(1, 2), False),  # one group: no interface edge
        (state, Fraction(1, 10**6), True),  # the draw keeps none of 6 edges
    ]
    for grouped, p, draws in cases:
        rng = make_rng(3, "empty")
        before = rng.getstate()
        if draws:
            probe = random.Random()
            probe.setstate(before)
            assert binomial_count(probe, 6, p) == 0
        h = uniform_subsample(oracle, grouped, p, rng)
        assert (h.n, h.weights) == (grouped.group_count(), {})
        assert (rng.getstate() != before) == draws
        assert oracle.ledger.snapshot() == spent


def test_subsample_respects_contracted_structure():
    g = cycle(6)
    oracle = CutOracle(g)
    state = singleton_state(oracle)
    root = state.merge_group_set([0, 1])
    state.set_degree(root, oracle.query_mask(state.group_mask(root)))
    h = uniform_subsample(oracle, state, Fraction(1), make_rng(1))
    assert h.n == 5
    assert h.total_weight() == 5  # the 0-1 edge is internal now


def test_learn_contracted_learns_the_interface_up_to_cap():
    for seed, g in enumerate([random_simple_graph(24, random.Random(5), p=0.3), complete(12)]):
        oracle = CutOracle(g)
        state = singleton_state(oracle)
        rng = random.Random(seed)
        for _ in range(g.n // 3):
            members = rng.sample(range(g.n), 3)
            before = oracle.ledger.distinct_queries
            root = merge_and_refresh(oracle, state, members)
            assert oracle.ledger.distinct_queries - before <= 1
            assert state.degree(root) == g.cut_value_mask(state.group_mask(root))
        e = state.interface_edge_count()
        snap = oracle.ledger.snapshot()
        assert learn_contracted(oracle, state, e - 1) is None
        assert oracle.ledger.snapshot() == snap  # refused before any query
        masks = [state.group_mask(r) for r in state.roots]
        owner = {v: i for i, m in enumerate(masks) for v in range(g.n) if (m >> v) & 1}
        want = {}
        for u, v in g.edges:
            a, b = sorted((owner[u], owner[v]))
            if a != b:
                want[(a, b)] = want.get((a, b), 0) + 1
        assert learn_pair_counts(oracle, state) == want
        assert sum(want.values()) == e


def test_learn_contracted_solves_the_group_multigraph_exactly():
    # the global and the s-t finish against a sweep over every side made of
    # whole groups; s and t sit in merged groups whose roots are neither
    for seed in range(8):
        rng = random.Random(seed)
        g = random_simple_graph(14, rng, p=(0.12, 0.3, 0.6)[seed % 3])
        oracle = CutOracle(g)
        state = singleton_state(oracle)
        order = rng.sample(range(g.n), g.n)
        for members in (order[0:3], order[3:6], order[6:8]):
            merge_and_refresh(oracle, state, members)
        s, t = max(order[0:3]), max(order[3:6])
        assert s not in state.roots and t not in state.roots
        masks = [state.group_mask(r) for r in state.roots]
        sides = [
            sum(m for i, m in enumerate(masks) if (pick >> i) & 1)
            for pick in range(1, (1 << len(masks)) - 1)
        ]
        e = state.interface_edge_count()
        for terminals in (None, (s, t), (t, s)):
            cut = learn_contracted(oracle, state, e, terminals)
            side = cut.side_mask()
            assert side in sides and g.cut_value_mask(side) == cut.value
            if terminals is None:
                allowed = sides
            else:
                a, b = terminals
                assert a in cut.side and b not in cut.side
                allowed = [x for x in sides if (x >> a) & 1 and not (x >> b) & 1]
            assert cut.value == min(g.cut_value_mask(x) for x in allowed)


def test_learn_contracted_rejects_bad_terminals_before_any_query():
    # a terminal outside the vertex range, or both terminals in one group,
    # is an argument error: ValueError with no query spent, not an error
    # from deep inside the solve after the interface was paid for
    g = cycle(6)
    for merged, terminals in (
        ([], (0, 6)),
        ([], (6, 0)),
        ([], (0, -1)),
        ([1, 2, 3], (2, 3)),
        ([1, 2, 3], (1, 3)),
    ):
        oracle = CutOracle(g)
        state = singleton_state(oracle)
        if merged:
            merge_and_refresh(oracle, state, merged)
        snap = oracle.ledger.snapshot()
        with pytest.raises(ValueError):
            learn_contracted(oracle, state, g.m, terminals)
        assert oracle.ledger.snapshot() == snap, terminals


def test_binomial_count_matches_mean_and_variance():
    # both sizes on either side of n = 4096, both halves of p, float and
    # rational p alike; a rational p is rounded first, so its stream is the
    # float's
    draws_per_case = 2000
    for n, p in [(50, Fraction(3, 10)), (50, Fraction(7, 10)), (10_000, Fraction(1, 100)),
                 (10_000, Fraction(99, 100))]:
        for given in (p, float(p)):
            rng = random.Random(n)
            draws = [binomial_count(rng, n, given) for _ in range(draws_per_case)]
            assert all(0 <= d <= n for d in draws)
            mean = sum(draws) / draws_per_case
            var = sum((d - mean) ** 2 for d in draws) / (draws_per_case - 1)
            want_var = float(n * p * (1 - p))
            assert abs(mean - float(n * p)) <= 5 * math.sqrt(want_var / draws_per_case)
            assert abs(var - want_var) <= 5 * math.sqrt(2 / draws_per_case) * want_var
        a, b = random.Random(4), random.Random(4)
        assert [binomial_count(a, n, p) for _ in range(20)] == [
            binomial_count(b, n, float(p)) for _ in range(20)
        ]
    rng = random.Random(5)
    assert binomial_count(rng, 37, Fraction(1)) == 37
    assert binomial_count(rng, 37, 1) == 37
    assert binomial_count(rng, 37, 0) == 0
    assert binomial_count(rng, 0, Fraction(1, 2)) == 0
    # positive, but below the smallest float: keeps nothing, draws nothing
    state = rng.getstate()
    assert binomial_count(rng, 10**6, Fraction(1, 10**400)) == 0
    assert rng.getstate() == state
    with pytest.raises(ValueError):
        binomial_count(rng, -1, Fraction(1, 2))


def _linear_hypergeometric_split(weights, count, rng):
    """Reference split: one linear scan over the sorted pairs per slot."""
    from cutquery.rng import weighted_index

    remaining = dict(weights)
    pairs = sorted(remaining)
    taken = {}
    total = sum(remaining.values())
    if count > total:
        raise ValueError("asked for more slots than exist")
    for _ in range(count):
        counts = [remaining[p] for p in pairs]
        i = weighted_index(rng, counts, total)
        remaining[pairs[i]] -= 1
        taken[pairs[i]] = taken.get(pairs[i], 0) + 1
        total -= 1
    return taken


def test_hypergeometric_split_matches_linear_scan():
    # both splits draw a uniform subset of the slots: per-pair means agree
    # with the reference's within 5 sigma of their difference
    from cutquery.contraction import _hypergeometric_split

    gen = random.Random(12)
    cases = [({(0, 1): 5, (0, 2): 1, (1, 3): 9, (2, 3): 3, (4, 5): 7}, 10)]
    for _ in range(3):
        k = gen.randint(3, 8)
        every = [(a, b) for a in range(k) for b in range(a + 1, k)]
        pairs = gen.sample(every, gen.randint(2, min(12, len(every))))
        weights = {p: gen.randint(1, 9) for p in pairs}
        cases.append((weights, gen.randint(1, sum(weights.values()) - 1)))
    trials = 2000
    for case, (weights, count) in enumerate(cases):
        total = sum(weights.values())
        sums = []
        for split in (_hypergeometric_split, _linear_hypergeometric_split):
            rng = make_rng(case, "split", split.__name__)
            acc = dict.fromkeys(weights, 0)
            for _ in range(trials):
                got = split(weights, count, rng)
                assert sum(got.values()) == count
                for pair, w in got.items():
                    assert 0 < w <= weights[pair]
                    acc[pair] += w
            sums.append(acc)
        for pair, w in weights.items():
            share = w / total
            var = count * share * (1 - share) * (total - count) / (total - 1)
            diff = (sums[0][pair] - sums[1][pair]) / trials
            assert abs(diff) <= 5 * math.sqrt(2 * var / trials), (case, pair)
    for split in (_hypergeometric_split, _linear_hypergeometric_split):
        weights = {(2, 3): 4, (0, 1): 1}
        assert split(weights, 0, random.Random(0)) == {}
        assert split(weights, 5, random.Random(0)) == weights
        with pytest.raises(ValueError):
            split({(0, 1): 2, (1, 2): 1}, 4, random.Random(0))


def _twenty_merged_groups():
    """gnp(60, 0.5) in 20 merged groups of one to five vertices: the
    oracle, the state, the true per-pair counts and their total."""
    g = random_simple_graph(60, random.Random(21), p=0.5)
    oracle = CutOracle(g)
    state = singleton_state(oracle)
    start = 0
    for size in [1, 2, 3, 4, 5] * 4:
        if size > 1:
            merge_and_refresh(oracle, state, range(start, start + size))
        start += size
    assert state.group_count() == 20
    roots = state.roots
    owner = {v: roots.index(state.find(v)) for v in range(g.n)}
    want: dict[tuple[int, int], int] = {}
    for u, v in g.edges:
        a, b = sorted((owner[u], owner[v]))
        if a != b:
            want[(a, b)] = want.get((a, b), 0) + 1
    e = state.interface_edge_count()
    assert sum(want.values()) == e
    return oracle, state, want, e


def _subsample_at_rate(oracle, state, want, e, p, streams, label):
    """Subsample `streams` times; each result must hold exactly the stream's
    binomial kept count, and every pair's total must sit at rate p."""
    sums: dict[tuple[int, int], int] = {}
    for t in range(streams):
        rng = make_rng(t, label)
        probe = random.Random()
        probe.setstate(rng.getstate())
        kept = binomial_count(probe, e, p)
        h = uniform_subsample(oracle, state, p, rng)
        assert h.n == 20 and h.total_weight() == kept
        assert set(h.weights) <= set(want)
        for pair, w in h.weights.items():
            sums[pair] = sums.get(pair, 0) + w
    q = float(p)
    for pair, w in want.items():
        mean = sums.get(pair, 0) / streams
        assert abs(mean - q * w) <= 5 * math.sqrt(q * w / streams), pair
    # pooled over the pairs: chi-square with ~len(want) degrees of freedom
    chi2 = sum(
        (sums.get(pair, 0) - streams * q * w) ** 2 / (streams * q * w)
        for pair, w in want.items()
    )
    assert chi2 <= len(want) + 5 * math.sqrt(2 * len(want))


def test_subsample_draws_merged_groups_at_rate_p(monkeypatch):
    # counting the 190 pairs of the 20 groups costs more queries than
    # drawing the ~10 kept edges, so the subsample draws them
    import cutquery.contraction as contraction

    oracle, state, want, e = _twenty_merged_groups()
    draws = []
    real_draw = contraction.sample_intergroup_edges

    def counting_draw(*args, **kwargs):
        draws.append(args[2])
        return real_draw(*args, **kwargs)

    monkeypatch.setattr(contraction, "sample_intergroup_edges", counting_draw)
    streams = 1000
    _subsample_at_rate(oracle, state, want, e, Fraction(10, e), streams, "merged-draw")
    assert len(draws) >= 0.9 * streams
    assert not any(oracle.known)


def test_subsample_splits_merged_groups_at_rate_p(monkeypatch):
    # at ~40 kept edges, drawing them costs more queries than counting the
    # 190 pairs, so the subsample counts the pairs and splits the kept total
    import cutquery.contraction as contraction

    oracle, state, want, e = _twenty_merged_groups()
    splits = []
    real_split = contraction._hypergeometric_split

    def counting_split(*args, **kwargs):
        splits.append(args[1])
        return real_split(*args, **kwargs)

    monkeypatch.setattr(contraction, "_hypergeometric_split", counting_split)
    streams = 1000
    p = Fraction(40, e)
    assert 2 * 40 < e
    _subsample_at_rate(oracle, state, want, e, p, streams, "merged-split")
    assert len(splits) == streams
    assert not any(oracle.known)
