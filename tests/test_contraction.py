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
    binomial_exact,
    learn_contracted,
    learn_pair_counts,
    merge_and_refresh,
    singleton_state,
)

from conftest import random_simple_graph


def complete(n: int) -> SimpleGraph:
    return SimpleGraph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


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
        mg, masks = learn_contracted(oracle, state, e)
        assert masks == [state.group_mask(r) for r in state.roots]
        owner = {v: i for i, m in enumerate(masks) for v in range(g.n) if (m >> v) & 1}
        want = {}
        for u, v in g.edges:
            a, b = sorted((owner[u], owner[v]))
            if a != b:
                want[(a, b)] = want.get((a, b), 0) + 1
        assert mg.n == len(masks) and mg.weights == want
        assert mg.total_weight() == e


def test_binomial_exact_matches_mean():
    rng = random.Random(3)
    p = Fraction(3, 10)
    draws = [binomial_exact(rng, 50, p) for _ in range(2000)]
    mean = sum(draws) / len(draws)
    assert abs(mean - 15) < 0.8
    assert all(0 <= d <= 50 for d in draws)


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
    from cutquery.contraction import _hypergeometric_split

    gen = random.Random(12)
    cases = [({(0, 1): 5}, 3), ({(0, 1): 5}, 5), ({(2, 3): 4, (0, 1): 1}, 0)]
    for _ in range(200):
        k = gen.randint(2, 40)
        every = [(a, b) for a in range(k) for b in range(a + 1, k)]
        pairs = gen.sample(every, gen.randint(1, min(60, len(every))))
        weights = {p: gen.randint(1, 9) for p in pairs}
        total = sum(weights.values())
        cases.append((weights, gen.choice([0, total, gen.randint(0, total)])))
    for trial, (weights, count) in enumerate(cases):
        ref_rng, rng = random.Random(trial), random.Random(trial)
        want = _linear_hypergeometric_split(weights, count, ref_rng)
        got = _hypergeometric_split(weights, count, rng)
        assert list(got.items()) == list(want.items())
        assert rng.getstate() == ref_rng.getstate()
    for split in (_hypergeometric_split, _linear_hypergeometric_split):
        with pytest.raises(ValueError):
            split({(0, 1): 2, (1, 2): 1}, 4, random.Random(0))


def test_subsample_draws_merged_groups_at_rate_p(monkeypatch):
    # 20 groups of one to five vertices: counting the 190 pairs costs more
    # queries than drawing the ~10 kept edges, so the subsample draws them
    import cutquery.contraction as contraction

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
    p = Fraction(10, e)

    draws = []
    real_draw = contraction.sample_intergroup_edges

    def counting_draw(*args, **kwargs):
        draws.append(args[2])
        return real_draw(*args, **kwargs)

    monkeypatch.setattr(contraction, "sample_intergroup_edges", counting_draw)
    streams = 1000
    sums: dict[tuple[int, int], int] = {}
    for t in range(streams):
        rng = make_rng(t, "merged-draw")
        probe = random.Random()
        probe.setstate(rng.getstate())
        kept = binomial_exact(probe, e, p)
        h = uniform_subsample(oracle, state, p, rng)
        assert h.n == 20 and h.total_weight() == kept
        assert set(h.weights) <= set(want)
        for pair, w in h.weights.items():
            sums[pair] = sums.get(pair, 0) + w
    assert len(draws) >= 0.9 * streams
    assert state.learned_edges is None
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
