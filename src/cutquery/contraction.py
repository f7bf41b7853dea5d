"""Contraction dynamics and interface subsampling over the oracle.

All state lives in a `ContractionState`; group boundary degrees are kept
current, so the number of edges running between groups is always available
without queries. A merge refreshes the merged group's boundary with one
query in `merge_and_refresh`; only the strength ladder, which has queried
a piece's boundary before merging it, sets that degree itself. Sampling a
uniform inter-group edge costs about two fresh queries per descent level,
and the pair count of the sampled pair falls out of the last level for
free. Every pipeline ends in `learn_contracted`, which learns the small
multigraph left between the groups so it can be solved exactly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable

from .discovery import descend, learn_intergroup_edges
from .graph import ContractionState, WeightedGraph, bits_of
from .oracle import OracleBase
from .params import ceil_log2
from .rng import binomial_count, weighted_index

# Bernoulli-sum binomials stay exact up to this many trials; beyond it the
# float-parameter sampler takes over (correctness is never asserted there)
EXACT_BINOMIAL_LIMIT = 4096

# contraction runs must stay within this many queries per merge per log n
KARGER_QUERY_FACTOR = 6


def binomial_exact(rng: random.Random, n: int, p: Fraction) -> int:
    """Binomial(n, p) with a rational p, exact for moderate n."""
    if n < 0:
        raise ValueError("negative trial count")
    if p <= 0:
        return 0
    if p >= 1:
        return n
    if n <= EXACT_BINOMIAL_LIMIT:
        num, den = p.numerator, p.denominator
        return sum(1 for _ in range(n) if rng.randrange(den) < num)
    return binomial_count(rng, n, float(p))


def sample_interface_pair(
    oracle: OracleBase,
    state: ContractionState,
    rng: random.Random,
) -> tuple[tuple[int, int], int]:
    """Uniform random inter-group edge, reported as (root, root, pair count).

    First endpoint's group is drawn proportionally to boundary degree, then
    the partner group by weighted descent. Each of the E interface edges
    comes up with probability exactly 1/E.
    """
    roots = state.roots
    degs = [state.degree(r) for r in roots]
    total = sum(degs)
    if total == 0:
        raise ValueError("no interface edges to sample")
    gi = weighted_index(rng, degs, total)
    g = roots[gi]
    others = [r for r in roots if r != g]
    masks = [state.group_mask(r) for r in others]
    hi, pair_count = descend(oracle, state.group_mask(g), masks, degs[gi], rng)
    h = others[hi]
    return ((g, h) if g < h else (h, g)), pair_count


def singleton_state(oracle: OracleBase) -> ContractionState:
    """Fresh all-singletons state with every degree queried and recorded."""
    degrees = [oracle.vertex_degree(v) for v in range(oracle.n)]
    return ContractionState(oracle.n, degrees)


def merge_and_refresh(
    oracle: OracleBase, state: ContractionState, members: Iterable[int]
) -> int:
    """Merge the groups of `members` and refresh the merged group's degree
    with one query; returns its root."""
    root = state.merge_group_set(members)
    state.set_degree(root, oracle.query_mask(state.group_mask(root)))
    return root


def karger_until(
    oracle: OracleBase,
    target_edges: int,
    rng: random.Random,
    state: ContractionState | None = None,
) -> ContractionState:
    """Contract uniform random inter-group edges until at most
    `target_edges` edges cross between groups, or two groups remain.

    Starts from all singletons unless a state is passed (which is then
    mutated in place). Each merge costs one descent plus at most one fresh
    refresh query; the whole run must stay within a fixed query budget per
    merge, which is checked against the ledger.
    """
    if state is None:
        state = singleton_state(oracle)
    before = oracle.ledger.distinct_queries
    merges = 0
    while state.group_count() > 2:
        e = state.interface_edge_count()
        if e <= target_edges or e == 0:
            break
        pair, _ = sample_interface_pair(oracle, state, rng)
        merge_and_refresh(oracle, state, pair)
        merges += 1
    spent = oracle.ledger.distinct_queries - before
    log_n = ceil_log2(max(2, oracle.n))
    if spent > KARGER_QUERY_FACTOR * max(1, merges) * log_n + oracle.n:
        raise RuntimeError(
            f"contraction overspent: {spent} fresh queries for {merges} merges"
        )
    return state


def _learn_costs(n: int, k: int, edge_hint: int) -> tuple[int, int]:
    """Query costs of learning the interface of k groups: counting every
    pair, and learning its `edge_hint` edges one by one."""
    return k + k * (k - 1) // 2, 3 * k + edge_hint * (2 * ceil_log2(max(2, n)) + 2)


def _pairs_cheaper(n: int, k: int, edge_hint: int) -> bool:
    pairs, edges = _learn_costs(n, k, edge_hint)
    return pairs <= edges


def learn_pair_counts(
    oracle: OracleBase,
    masks: list[int],
    abort_above: int | None = None,
    edge_hint: int | None = None,
    known_edges: list[tuple[int, int]] | None = None,
) -> dict[tuple[int, int], int] | None:
    """Edge multiplicity between every pair of groups, keyed by index pair.

    Two strategies: count every pair directly (quadratic in the number of
    groups, flat in the edge count) or learn the individual edges by descent
    (log-linear in the edge count). `edge_hint`, when available, picks the
    cheaper one. `known_edges`, a list of edges holding every edge between
    the groups, replaces both at no query cost; the counts come out in the
    order the chosen strategy would report them. Zero pairs are dropped.
    Returns None once the total edge count exceeds `abort_above`.
    """
    k = len(masks)
    use_pairs = edge_hint is None or _pairs_cheaper(oracle.n, k, edge_hint)
    if use_pairs and known_edges is None:
        counts: dict[tuple[int, int], int] = {}
        found = 0
        for i in range(k):
            for j in range(i + 1, k):
                w = oracle.count_between_masks(masks[i], masks[j])
                if w:
                    counts[(i, j)] = w
                    found += w
                    if abort_above is not None and found > abort_above:
                        return None
        return counts
    edges = known_edges
    if edges is None:
        edges = learn_intergroup_edges(oracle, masks, abort_above=abort_above)
        if edges is None:
            return None
    owner = {v: i for i, m in enumerate(masks) for v in bits_of(m)}
    counts = {}
    for u, v in edges:
        a, b = owner[u], owner[v]
        if a != b:
            key = (a, b) if a < b else (b, a)
            counts[key] = counts.get(key, 0) + 1
    if abort_above is not None and sum(counts.values()) > abort_above:
        return None
    return dict(sorted(counts.items())) if use_pairs else counts


def learn_contracted(
    oracle: OracleBase, state: ContractionState, cap: int
) -> tuple[WeightedGraph, list[int]] | None:
    """The multigraph the state's groups span, with the group masks.

    Vertex i of the graph is the i-th live group, `masks[i]` its vertex
    set, and weights count the edges between two groups. Returns None,
    before any query, when more than `cap` edges run between groups.
    """
    e_total = state.interface_edge_count()
    if e_total > cap:
        return None
    masks = [state.group_mask(r) for r in state.roots]
    counts = learn_pair_counts(oracle, masks, abort_above=cap, edge_hint=e_total)
    if counts is None:
        return None
    return WeightedGraph(len(masks), counts), masks


def _interface_pair_counts(
    oracle: OracleBase, state: ContractionState, masks: list[int], learn: bool
) -> dict[tuple[int, int], int]:
    """`learn_pair_counts` over the state's live groups.

    Reads the state's learned interface when it has one. When it has none
    and `learn` is set or learning edge by edge is the cheaper strategy, the
    learned edges are kept on the state, so later calls on the coarser
    partition pay nothing.
    """
    e_total = state.interface_edge_count()
    edges = state.learned_edges
    if edges is None and (learn or not _pairs_cheaper(oracle.n, len(masks), e_total)):
        edges = learn_intergroup_edges(oracle, masks)
        state.learned_edges = edges
    counts = learn_pair_counts(oracle, masks, edge_hint=e_total, known_edges=edges)
    if counts is None or sum(counts.values()) != e_total:
        raise RuntimeError("learned pair counts disagree with the group degrees")
    return counts


def _draw_interface_slots(
    oracle: OracleBase,
    state: ContractionState,
    count: int,
    rng: random.Random,
) -> dict[tuple[int, int], int]:
    """`count` interface edges drawn uniformly without replacement.

    Uniform draws with rejection against per-pair tallies: a draw landing on
    pair P is kept with probability (w_P - taken_P) / w_P, which leaves a
    uniform choice among the not-yet-taken edge slots. Pair counts come out
    of the sampling descent at no extra cost.
    """
    taken: dict[tuple[int, int], int] = {}
    pair_counts: dict[tuple[int, int], int] = {}
    drawn = 0
    while drawn < count:
        pair, w = sample_interface_pair(oracle, state, rng)
        pair_counts.setdefault(pair, w)
        w = pair_counts[pair]
        t = taken.get(pair, 0)
        if rng.randrange(w) < w - t:
            taken[pair] = t + 1
            drawn += 1
    return taken


def _hypergeometric_split(
    weights: dict[tuple[int, int], int],
    count: int,
    rng: random.Random,
) -> dict[tuple[int, int], int]:
    """`count` slots without replacement from known pair counts, no queries.

    Each slot draws `rng.randrange(total)` over the remaining slots and takes
    the first pair, in sorted order, whose running count passes the draw; a
    Fenwick tree over the counts finds it in O(log P).
    """
    pairs = sorted(weights)
    size = len(pairs)
    tree = [0] * (size + 1)
    for i, pair in enumerate(pairs, 1):
        tree[i] += weights[pair]
        up = i + (i & -i)
        if up <= size:
            tree[up] += tree[i]
    total = sum(weights.values())
    if count > total:
        raise ValueError("asked for more slots than exist")
    top = 1 << (size.bit_length() - 1) if size else 0
    taken: dict[tuple[int, int], int] = {}
    for _ in range(count):
        x = rng.randrange(total)
        pos, step = 0, top
        while step:
            nxt = pos + step
            if nxt <= size and tree[nxt] <= x:
                pos = nxt
                x -= tree[nxt]
            step >>= 1
        pair = pairs[pos]
        taken[pair] = taken.get(pair, 0) + 1
        i = pos + 1
        while i <= size:
            tree[i] -= 1
            i += i & -i
        total -= 1
    return taken


def uniform_subsample(
    oracle: OracleBase,
    state: ContractionState,
    p: Fraction,
    rng: random.Random,
    cap: int | None = None,
    learn: bool = False,
) -> WeightedGraph:
    """Bernoulli(p) subsample of the contracted multigraph.

    Vertex i of the result stands for the i-th live root in ascending order;
    integer weights are kept-parallel-edge counts. With p = 1, or whenever
    counting every pair is no more expensive than drawing the lot, pair
    multiplicities are learned and thinned without replacement-by-rejection.
    `learn` forces that path at every p and learns the interface edge by
    edge onto `state.learned_edges` even where counting pairs is cheaper;
    a caller sets it when it will need every interface edge anyway.
    `cap` clips the kept-edge total on out-of-regime levels so one bad level
    cannot blow the query budget.
    """
    roots = list(state.roots)
    masks = [state.group_mask(r) for r in roots]
    index = {r: i for i, r in enumerate(roots)}
    k = len(roots)
    e_total = state.interface_edge_count()

    def to_graph(by_key: dict[tuple[int, int], int], rooted: bool) -> WeightedGraph:
        out: dict[tuple[int, int], int] = {}
        for (a, b), w in by_key.items():
            if w:
                key = (index[a], index[b]) if rooted else (a, b)
                out[key] = w
        return WeightedGraph(k, out)

    if e_total == 0 or p <= 0:
        return WeightedGraph(k, {})
    if p >= 1:
        counts = _interface_pair_counts(oracle, state, masks, learn)
        return to_graph(counts, rooted=False)

    kept = binomial_exact(rng, e_total, p)
    if cap is not None:
        kept = min(kept, cap)
    if kept == 0:
        return WeightedGraph(k, {})
    learn_cost = min(_learn_costs(oracle.n, k, e_total))
    draw_cost = kept * (2 * ceil_log2(max(2, k)) + 2)
    if learn or 2 * kept >= e_total or learn_cost <= draw_cost:
        counts = _interface_pair_counts(oracle, state, masks, learn)
        by_roots = {(roots[a], roots[b]): w for (a, b), w in counts.items()}
        return to_graph(_hypergeometric_split(by_roots, kept, rng), rooted=True)
    return to_graph(_draw_interface_slots(oracle, state, kept, rng), rooted=True)


__all__ = [
    "EXACT_BINOMIAL_LIMIT",
    "binomial_exact",
    "sample_interface_pair",
    "singleton_state",
    "merge_and_refresh",
    "karger_until",
    "learn_pair_counts",
    "learn_contracted",
    "uniform_subsample",
]
