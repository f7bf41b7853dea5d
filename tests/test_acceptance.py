"""End-to-end acceptance runs with pinned tolerances.

Each test below is one acceptance line: under ``pytest -v`` the pass/fail
verdict for a criterion is the verdict of its test. Criteria 1 and 2 have
a second test each, which holds the sampled path (taken when the
sparsifier is not the graph itself) to the same bars. Thresholds are fixed
numbers, not derived at runtime, so a regression anywhere in the stack
trips exactly the line whose guarantee it broke.

Two checks are structurally loose at desk sizes and say so inline: the
cut-counting bound of criterion 7 exceeds the total number of cuts a
seven-vertex graph even has, and the keep probability of criterion 6
clamps to one on unweighted instances this small, so a bundled variant
with parallel edges exercises the band for real. Both still evaluate
every promised inequality literally against honest enumeration.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np

from conftest import all_simple_graphs, is_connected, layered_dag, random_simple_graph
from cutquery import (
    CutOracle,
    SimpleGraph,
    WeightedGraph,
    approximate_strengths,
    cover_edge_count,
    definitional_strengths,
    derive_seed,
    deterministic_min_cut,
    edges_between,
    exact_strengths,
    find_neighbor,
    flow_cover_weight,
    generate,
    global_min_cut_v1,
    global_min_cut_v2,
    karger_until,
    learn_graph,
    make_rng,
    max_flow,
    planted_cut_sides,
    singleton_state,
    st_min_cut,
    st_min_cut_known,
    uniform_subsample,
)
from cutquery.params import ceil_log2
from cutquery.scaling import bench_run

SEED = 20260818


def _unit_weighted(g: SimpleGraph) -> WeightedGraph:
    return WeightedGraph.from_edges(g.n, [(u, v, 1) for u, v in g.edges])


def _all_cut_values(n: int, weighted_edges) -> np.ndarray:
    """Value of every bipartition, indexed by the side containing vertex 0."""
    masks = (np.arange(2 ** (n - 1) - 1, dtype=np.int64) << 1) | 1
    vals = np.zeros(len(masks), dtype=np.float64)
    for (u, v), w in weighted_edges:
        vals += (((masks >> u) ^ (masks >> v)) & 1) * float(w)
    return vals


# ---------------------------------------------------------------------------
# criterion 1: exact global min cut across mixed families


def _global_instances() -> list[tuple[str, SimpleGraph]]:
    rng = random.Random(SEED)
    out = []
    for _ in range(140):
        n = rng.randint(10, 40)
        p = rng.uniform(0.2, 0.7)
        out.append(("gnp", generate("gnp", {"n": n, "p": p}, rng.randrange(2**32))))
    for _ in range(20):
        out.append(("barbell", generate("barbell", {"clique": rng.randint(4, 12)}, 0)))
    for _ in range(20):
        out.append(("cycle", generate("cycle", {"n": rng.randint(5, 40)}, 0)))
    for _ in range(20):
        params = {"n": rng.randint(12, 40), "k": rng.randint(1, 3), "inside_p": rng.uniform(0.5, 0.8)}
        out.append(("planted", generate("planted_cut", params, rng.randrange(2**32))))
    return out


def _global_hits(runners: dict) -> tuple[dict, dict]:
    """Single-run and best-of-three exact hits per runner on criterion 1."""
    instances = _global_instances()
    assert len(instances) == 200
    single = {name: 0 for name in runners}
    best3 = {name: 0 for name in runners}
    for i, (_fam, g) in enumerate(instances):
        ref = deterministic_min_cut(g).value
        for name, run in runners.items():
            values = []
            for rep in range(3):
                cut = run(CutOracle(g), rng=make_rng(SEED, "c1", i, name, rep))
                assert cut.value >= ref
                values.append(cut.value)
                if min(values) == ref:
                    break  # later repetitions could only tie the best
            single[name] += values[0] == ref
            best3[name] += min(values) == ref
    return single, best3


def test_criterion_01_global_min_cut_exact_on_mixed_families():
    t0 = time.monotonic()
    single, best3 = _global_hits({"v1": global_min_cut_v1, "v2": global_min_cut_v2})
    elapsed = time.monotonic() - t0
    assert single["v1"] >= 198 and single["v2"] >= 198, f"single-run hits {single}"
    assert best3 == {"v1": 200, "v2": 200}, f"best-of-three hits {best3}"
    assert elapsed < 300.0, f"budget 300s, took {elapsed:.1f}s"


def test_criterion_01_v2_enumeration_endgame_on_mixed_families(h_never_g):
    """Criterion 1's bars for v2 with its spanning forests, its flows from
    a dominating set, its H = G answer and its finish switched off.

    At scale=1 the sparsifier is the graph on every instance, and forests
    or flows answer some of them, so the criterion itself gates those
    shortcuts; this run keeps the enumeration, `contract_safe` and learning
    endgame under the same bars and streams. The ladder leaves G in the
    solve's record of found edges, from which the finish would prove any
    answer, so the finish is off too and the route alone is judged.
    """
    t0 = time.monotonic()
    single, best3 = _global_hits({"v2": global_min_cut_v2})
    elapsed = time.monotonic() - t0
    assert single["v2"] >= 198, f"single-run hits {single}"
    assert best3 == {"v2": 200}, f"best-of-three hits {best3}"
    assert elapsed < 300.0, f"budget 300s, took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: exact s-t min cut across mixed families


def _st_hits() -> tuple[int, int]:
    """Single-run and best-of-three exact hits of st on criterion 2."""
    rng = random.Random(SEED + 1)
    cases: list[tuple[SimpleGraph, int, int]] = []
    for _ in range(160):
        n = rng.randint(10, 40)
        g = generate("gnp", {"n": n, "p": rng.uniform(0.2, 0.7)}, rng.randrange(2**32))
        s = rng.randrange(n)
        t = rng.randrange(n - 1)
        t += t >= s
        cases.append((g, s, t))
    for _ in range(40):
        n = rng.randint(12, 40)
        g, side = planted_cut_sides(
            n, rng.randint(1, 3), rng.uniform(0.5, 0.8), random.Random(rng.randrange(2**32))
        )
        cases.append((g, rng.choice(sorted(side)), rng.choice(sorted(set(range(n)) - side))))
    single = 0
    best3 = 0
    for i, (g, s, t) in enumerate(cases):
        ref = st_min_cut_known(_unit_weighted(g), s, t).value
        values = []
        for rep in range(3):
            cut = st_min_cut(CutOracle(g), s, t, rng=make_rng(SEED, "c2", i, rep))
            assert cut.value >= ref
            values.append(cut.value)
            if min(values) == ref:
                break
        single += values[0] == ref
        best3 += min(values) == ref
    return single, best3


def test_criterion_02_st_min_cut_exact_on_mixed_families():
    t0 = time.monotonic()
    single, best3 = _st_hits()
    elapsed = time.monotonic() - t0
    assert single >= 198, f"single-run hits {single}/200"
    assert best3 == 200, f"best-of-three hits {best3}/200"
    assert elapsed < 600.0, f"budget 600s, took {elapsed:.1f}s"


def test_criterion_02_st_decomposition_endgame_on_mixed_families(h_never_g):
    """Criterion 2's bars for st with both its `flow_cut` runs and its
    H = G answer switched off, so st answers with its route's own U and
    the flow strip, decomposition and learning endgame stay gated (at
    scale=1 the sparsifier is the graph on every instance, and flow answers
    every instance before the route runs)."""
    t0 = time.monotonic()
    single, best3 = _st_hits()
    elapsed = time.monotonic() - t0
    assert single >= 198, f"single-run hits {single}/200"
    assert best3 == 200, f"best-of-three hits {best3}/200"
    assert elapsed < 600.0, f"budget 600s, took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 3: per-primitive interrogation budgets


def test_criterion_03_primitive_query_budgets():
    rng = random.Random(SEED + 2)

    # membership probe: exactly three fresh answers whether or not the edge exists
    for _ in range(40):
        g = random_simple_graph(rng.randint(4, 20), rng)
        edge_set = set(g.edges)
        oracle = CutOracle(g)
        u = rng.randrange(g.n)
        v = rng.randrange(g.n - 1)
        v += v >= u
        before = oracle.ledger.distinct_queries
        cnt = edges_between(oracle, u, [v])
        assert cnt == int((min(u, v), max(u, v)) in edge_set)
        assert oracle.ledger.distinct_queries - before == 3

    # neighbor search: every invocation stays within 3*ceil(log2 n) + 3,
    # also at n = 256 where vertex 0's neighbors fill the upper half of the ids
    probes = [
        generate("cycle", {"n": 17}, 0),
        generate("barbell", {"clique": 7}, 0),
        SimpleGraph.from_edges(256, [(0, u) for u in range(128, 256)]),
    ]
    for _ in range(30):
        probes.append(random_simple_graph(rng.randint(4, 24), rng))
    for g in probes:
        oracle = CutOracle(g)
        budget = 3 * ceil_log2(g.n) + 3
        neighbors = {v: set() for v in range(g.n)}
        for u, v in g.edges:
            neighbors[u].add(v)
            neighbors[v].add(u)
        for v in range(g.n):
            candidates = [u for u in range(g.n) if u != v]
            before = oracle.ledger.distinct_queries
            got = find_neighbor(oracle, v, candidates)
            assert oracle.ledger.distinct_queries - before <= budget
            if neighbors[v]:
                assert got in neighbors[v]
            else:
                assert got is None

    # full recovery: at most 4*(n + m*ceil(log2 n)) distinct queries, graph exact
    cases = [generate("cycle", {"n": 19}, 0), generate("barbell", {"clique": 6}, 0)]
    for _ in range(12):
        cases.append(random_simple_graph(rng.randint(8, 26), rng))
    for g in cases:
        oracle = CutOracle(g)
        learned = learn_graph(oracle)
        assert learned is not None and set(learned.edges) == set(g.edges)
        assert oracle.ledger.distinct_queries <= 4 * (g.n + g.m * ceil_log2(g.n))


# ---------------------------------------------------------------------------
# criterion 4: distinct-query growth on the size ladder


def test_criterion_04_scaling_exponents_beat_quadratic_baseline():
    """Fitted log-log slopes over n in {64 .. 1024}, three runners per size.

    A finite-size proxy: the slopes certify the gap against the quadratic
    pair learner at desk scale rather than measuring asymptotic constants.
    The sub-quadratic runners use shrunk budget constants so their sampled
    regime is visible at these sizes; scripts/run_scaling.py prints the raw
    rows for any ladder.
    """
    result = bench_run(reps=2, seed=0)
    exps = result["exponents"]
    assert exps["baseline-pairs"] > 1.9, exps
    assert exps["global-v2"] <= 1.35, exps
    assert exps["st"] <= 1.95, exps
    assert max(exps["global-v2"], exps["st"]) < 2.0, exps
    print(f"fitted exponents: {exps}")


# ---------------------------------------------------------------------------
# criterion 5: planted cut survives randomized contraction often enough


def test_criterion_05_planted_cut_survival_rate():
    n, k = 40, 2
    g, side = planted_cut_sides(n, k, 0.6, make_rng(SEED, "c5", "instance"))
    oracle = CutOracle(g)
    survived = 0
    for trial in range(1000):
        state = karger_until(oracle, max(1, k) * n, make_rng(SEED, "c5", trial))
        survived += all(grp <= side or not (grp & side) for grp in state.groups())
    assert survived >= 200, f"planted cut survived {survived}/1000 contractions"


# ---------------------------------------------------------------------------
# criterion 6: uniform subsampling concentrates every cut


def test_criterion_06_subsampled_cut_concentration():
    eps = 0.25

    # unweighted desk instance: with c this small the keep probability
    # clamps to one, so the sampled graph is the original and the band is
    # exact; asserted anyway to pin the formula end to end
    g = generate("gnp", {"n": 14, "p": 0.5}, SEED)
    c = deterministic_min_cut(g).value
    p = min(40.0 * math.log(g.n) / (eps * eps * c), 1.0)
    assert p == 1.0
    oracle = CutOracle(g)
    h = uniform_subsample(oracle, singleton_state(oracle), Fraction(1), make_rng(SEED, "c6"))
    gv = _all_cut_values(g.n, [((u, v), 1) for u, v in g.edges])
    hv = _all_cut_values(g.n, list(h.weights.items()))
    assert np.array_equal(gv, hv)
    assert oracle.ledger.distinct_queries > 0

    # bundled variant with real randomness: a 14-cycle whose every edge is a
    # parallel bundle of 3000 unit edges. The minimum cut is 6000, the keep
    # probability lands near 0.28, and each sampled bundle is one binomial
    # draw, so every one of the 8191 bipartitions gets a live band check.
    n, w = 14, 3000
    bundles = [(i, (i + 1) % n) for i in range(n)]
    p = min(40.0 * math.log(n) / (eps * eps * 2 * w), 1.0)
    assert 0.25 < p < 0.30
    masks = (np.arange(2 ** (n - 1) - 1, dtype=np.int64) << 1) | 1
    cross = np.stack([((masks >> u) ^ (masks >> v)) & 1 for u, v in bundles], axis=1)
    exact = cross.sum(axis=1) * w
    nprng = np.random.default_rng(derive_seed(SEED, "c6", "bundles") % 2**63)
    good = 0
    for _ in range(100):
        sampled = cross @ nprng.binomial(w, p, size=n)
        lo = (1 - eps) * p * exact
        hi = (1 + eps) * p * exact
        good += bool(np.all((lo <= sampled) & (sampled <= hi)))
    assert good >= 95, f"{good}/100 trials kept every cut inside the band"


# ---------------------------------------------------------------------------
# criterion 7: counting near-minimum cuts


def _cut_count_sweep(n: int, graph_masks: np.ndarray) -> tuple[int, int]:
    """Check count(cuts of value <= v) <= (2n)^(2*max(1, v/c)) for all v.

    Graphs arrive as bit masks over the C(n,2) vertex pairs. Returns the
    number of connected graphs seen and the number of violated inequalities;
    disconnected graphs have no positive minimum cut and are skipped.
    """
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    sides = [(h << 1) | 1 for h in range(2 ** (n - 1) - 1)]
    cross = np.array(
        [
            sum(1 << i for i, (u, v) in enumerate(pairs) if ((s >> u) ^ (s >> v)) & 1)
            for s in sides
        ],
        dtype=np.int64,
    )
    connected = 0
    violations = 0
    chunk = 1 << 18
    for start in range(0, len(graph_masks), chunk):
        gs = graph_masks[start : start + chunk]
        vals = np.bitwise_count(gs[:, None] & cross[None, :]).astype(np.int64)
        keep = vals.min(axis=1) >= 1
        vals = vals[keep]
        connected += int(keep.sum())
        if not len(vals):
            continue
        c = vals.min(axis=1).astype(np.float64)
        for v in range(len(pairs) + 1):
            cnt = (vals <= v).sum(axis=1)
            bound = (2.0 * n) ** (2.0 * np.maximum(1.0, v / c))
            violations += int((cnt > bound).sum())
    return connected, violations


def test_criterion_07_near_minimum_cut_counting_bound():
    """Exhaustive for n <= 7 plus 500 random connected 8-vertex graphs.

    At these sizes the bound exceeds the total number of bipartitions, so
    zero violations is guaranteed a priori; the sweep still evaluates every
    inequality literally, and the labeled connected-graph census doubles as
    an independent check that the enumeration covers what it claims.
    """
    known_connected = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}
    for n in range(2, 8):
        total = 1 << (n * (n - 1) // 2)
        conn, bad = _cut_count_sweep(n, np.arange(total, dtype=np.int64))
        assert conn == known_connected[n], f"n={n} census {conn}"
        assert bad == 0, f"n={n} violations {bad}"

    n = 8
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    slot = {pair: i for i, pair in enumerate(pairs)}
    rng = random.Random(SEED + 7)
    picks = []
    while len(picks) < 500:
        g = random_simple_graph(n, rng)
        if is_connected(g):
            picks.append(sum(1 << slot[e] for e in g.edges))
    conn, bad = _cut_count_sweep(n, np.array(picks, dtype=np.int64))
    assert conn == 500 and bad == 0, (conn, bad)


# ---------------------------------------------------------------------------
# criterion 8: near-minimum cuts are covered by linearly many edges


def test_criterion_08_near_min_cut_cover_stays_linear():
    """The cover never needs more than 20n edges on anything we can enumerate.

    Instances this small cap the ratio at (n-1)/2 anyway, so the teeth here
    are the recorded constant (printed, typically far below the pin) and its
    flatness across n rather than the pin itself.
    """
    rng = random.Random(SEED + 8)
    eps = Fraction(1, 4)
    per_n = {}
    for n in range(6, 15):
        ratios = []
        for _ in range(6):
            gs = [
                generate("gnp", {"n": n, "p": rng.uniform(0.25, 0.7)}, rng.randrange(2**32)),
                generate("cycle", {"n": n}, 0),
                generate(
                    "planted_cut",
                    {"n": n, "k": rng.randint(1, 3), "inside_p": 0.7},
                    rng.randrange(2**32),
                ),
            ]
            ratios.extend(cover_edge_count(g, eps) / g.n for g in gs)
        per_n[n] = max(ratios)
    assert all(ratio <= 20.0 for ratio in per_n.values()), per_n
    print(f"cover size over n, worst {max(per_n.values()):.2f} of allowed 20: {per_n}")


# ---------------------------------------------------------------------------
# criterion 9: strength estimates sandwich the truth


def test_criterion_09_strength_sandwich_and_reference_agreement():
    rng = random.Random(SEED + 9)
    good = 0
    for trial in range(100):
        n = rng.randint(8, 14)
        g = random_simple_graph(n, rng)
        exact = exact_strengths(_unit_weighted(g))
        smap = approximate_strengths(
            CutOracle(g), Fraction(1, 4), make_rng(SEED, "c9", trial)
        ).strengths
        ok = True
        for u, v in g.edges:
            ke = exact[(u, v)]
            kp = smap.resolve(u, v)
            ok = ok and kp is not None and ke / 4 <= kp <= ke
        good += ok
    assert good >= 95, f"{good}/100 trials sandwiched every edge"

    # the frozen reference itself agrees with the definitional enumeration
    for n in range(2, 5):
        for g in all_simple_graphs(n):
            wg = _unit_weighted(g)
            assert exact_strengths(wg) == definitional_strengths(wg)
    for _ in range(300):
        wg = _unit_weighted(random_simple_graph(rng.randint(5, 8), rng))
        assert exact_strengths(wg) == definitional_strengths(wg)


# ---------------------------------------------------------------------------
# criterion 10: the sparsifier preserves every cut


def test_criterion_10_sparsifier_band_and_size():
    """Every bipartition within (1 +- 3/10), size within 5 n ln n / eps^2.

    At these sizes the strength-scaled keep probability rounds up to one,
    so the sparsifier weights reproduce the input exactly and the run pins
    the plumbing rather than stressing the tail bound; the size constant is
    recorded against its pin regardless.
    """
    rng = random.Random(SEED + 10)
    eps = Fraction(3, 10)
    good = 0
    worst_size = 0.0
    for trial in range(100):
        n = rng.randint(10, 14)
        g = random_simple_graph(n, rng)
        h = approximate_strengths(CutOracle(g), eps, make_rng(SEED, "c10", trial)).h
        gv = _all_cut_values(n, [((u, v), 1) for u, v in g.edges])
        hv = _all_cut_values(n, list(h.weights.items()))
        good += bool(np.all(((1 - float(eps)) * gv <= hv) & (hv <= (1 + float(eps)) * gv)))
        worst_size = max(worst_size, len(h.weights) * float(eps) ** 2 / (n * math.log(n)))
    assert good >= 95, f"{good}/100 trials kept every cut inside the band"
    assert worst_size <= 5.0, f"size constant {worst_size:.2f} exceeds 5"


# ---------------------------------------------------------------------------
# criterion 11: flow cover weight on layered networks


def test_criterion_11_flow_cover_weight_on_layered_networks():
    rng = random.Random(SEED + 11)
    worst = 0.0
    nonzero = 0
    for _ in range(50):
        width = rng.randint(2, 6)
        depth = rng.randint(2, (60 - 2) // width)
        g = layered_dag(width, depth, rng)
        assert g.n <= 60
        flow = max_flow(g, 0, g.n - 1)
        cover = flow_cover_weight(flow)
        if flow.value == 0:
            assert cover == 0
            continue
        nonzero += 1
        total = sum(g.weights.values())
        ratio = cover / (g.n * math.sqrt(flow.value * total))
        assert ratio <= 4.0, f"cover {cover} beats 4n sqrt(fW) on n={g.n}"
        worst = max(worst, ratio)
    assert nonzero >= 30
    print(f"cover-weight constant: worst observed {worst:.3f} of allowed 4.0")
