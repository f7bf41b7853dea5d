"""Contraction dynamics and interface subsampling over the oracle.

All state lives in a `ContractionState`; group boundary degrees are kept
current, so the number of edges running between groups is always available
without queries. A merge refreshes the merged group's boundary with one
query in `merge_and_refresh`; only the strength ladder, which has queried
a piece's boundary before merging it, sets that degree itself.
`karger_until` contracts uniform random interface edges (Karger and Stein,
JACM 1996), each drawn by `sample_interface_pair`: a group by boundary
degree, then a partner vertex by weighted `discovery.descend` over every
vertex outside it.
`learn_pair_counts` counts the edges between every pair of groups: from
the state's record of found edges (`ContractionState.known`, which every
copy of a solve's state shares) where it holds them all, and otherwise by
pair queries or by learning the edges the record lacks into it, at
`params.learn_price`, whichever is cheaper. `uniform_subsample` thins
those counts, or draws its kept edges with
`discovery.sample_intergroup_edges` where that costs fewer queries.
v1's learn branch (over singletons, so it learns G) and the sampled routes
of v2 and st solve their groups with `learn_contracted`, which learns the
small multigraph left between the groups and solves it exactly: the
global min cut, or the min s-t cut when terminals are given.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

from .discovery import (
    descend,
    learn_intergroup_edges,
    sample_intergroup_edges,
    singleton_state,
)
from .graph import ContractionState, Cut, WeightedGraph, bits_of
from .oracle import CutOracle
from .params import ceil_log2, learn_price
from .reference import deterministic_min_cut, st_min_cut_known
from .rng import binomial_count, weighted_index

# contraction runs must stay within this many queries per merge per log n
KARGER_QUERY_FACTOR = 6


def sample_interface_pair(
    oracle: CutOracle,
    state: ContractionState,
    rng: random.Random,
) -> tuple[int, int]:
    """Roots of the two groups a uniform random inter-group edge joins, in
    ascending order.

    One group g is drawn proportionally to its boundary degree, then the
    partner vertex outside it by weighted `descend` from g over every other
    vertex, and the pair is g and the partner's group. An edge between
    groups g and h comes up from either end, so each of the E interface
    edges comes up with probability exactly 1/E.
    """
    roots = state.roots
    degs = [state.degree(r) for r in roots]
    total = sum(degs)
    if total == 0:
        raise ValueError("no interface edges to sample")
    gi = weighted_index(rng, degs, total)
    g = roots[gi]
    gmask = state.group_mask(g)
    w, _ = descend(oracle, gmask, ((1 << oracle.n) - 1) & ~gmask, degs[gi], rng)
    h = state.find(w)
    return (g, h) if g < h else (h, g)


def merge_and_refresh(
    oracle: CutOracle, state: ContractionState, members: Iterable[int]
) -> int:
    """Merge the groups of `members` and refresh the merged group's degree
    with one query; returns its root."""
    root = state.merge_group_set(members)
    state.set_degree(root, oracle.query_mask(state.group_mask(root)))
    return root


def karger_until(
    oracle: CutOracle,
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
        merge_and_refresh(oracle, state, sample_interface_pair(oracle, state, rng))
        merges += 1
    spent = oracle.ledger.distinct_queries - before
    log_n = ceil_log2(max(2, oracle.n))
    if spent > KARGER_QUERY_FACTOR * max(1, merges) * log_n + oracle.n:
        raise RuntimeError(
            f"contraction overspent: {spent} fresh queries for {merges} merges"
        )
    return state


def _record_edges(known: list[int]) -> list[tuple[int, int]]:
    """The edges of a found-edge record, as ascending vertex pairs."""
    return [(u, v) for u, mask in enumerate(known) for v in bits_of(mask & ~((2 << u) - 1))]


def _tally(edges: list[tuple[int, int]], masks: list[int]) -> dict[tuple[int, int], int]:
    """Edges counted per pair of groups, keyed by group index; edges inside
    one group are skipped."""
    owner = {v: i for i, m in enumerate(masks) for v in bits_of(m)}
    counts: dict[tuple[int, int], int] = {}
    for u, v in edges:
        a, b = owner[u], owner[v]
        if a != b:
            key = (a, b) if a < b else (b, a)
            counts[key] = counts.get(key, 0) + 1
    return counts


def learn_pair_counts(
    oracle: CutOracle, state: ContractionState, learn: bool = False
) -> dict[tuple[int, int], int]:
    """Edge count between every pair of live groups, keyed by index pair
    (group i is the i-th root in ascending order); zero pairs are dropped.

    Tallies the state's record of found edges, K, first, and spends no
    query where its edges between groups add up to the e interface edges.
    Otherwise it counts every pair directly, at k + k (k - 1) / 2 queries
    for k groups, unless learning the e interface edges one by one is
    priced lower: `params.learn_price(n, e)`, the price of learning a graph
    of e edges, which every group interface measured stayed under. A tie
    goes to the pairs; `learn` forces edge learning. Learning walks G - K
    between the groups and writes what it finds into K, so later calls on
    a coarser partition, and every other phase of the solve, pay nothing
    for those edges. Raises RuntimeError when the counts disagree with the
    group degrees.
    """
    masks = [state.group_mask(r) for r in state.roots]
    k = len(masks)
    e_total = state.interface_edge_count()
    known = state.known
    counts = _tally(_record_edges(known), masks)
    if sum(counts.values()) != e_total:
        if learn or k + k * (k - 1) // 2 > learn_price(oracle.n, e_total):
            for u, v in learn_intergroup_edges(oracle, masks, known=known):
                known[u] |= 1 << v
                known[v] |= 1 << u
            counts = _tally(_record_edges(known), masks)
        else:
            counts = {}
            for i in range(k):
                for j in range(i + 1, k):
                    w = oracle.count_between_masks(masks[i], masks[j])
                    if w:
                        counts[(i, j)] = w
    if sum(counts.values()) != e_total:
        raise RuntimeError("learned pair counts disagree with the group degrees")
    return counts


def learn_contracted(
    oracle: CutOracle,
    state: ContractionState,
    cap: int,
    terminals: tuple[int, int] | None = None,
) -> Cut | None:
    """Exact min cut of the multigraph the state's groups span, expanded to
    the groups' vertices: the global one, or, with `terminals` (s, t), the
    min s-t cut with its side holding s. Only cuts that keep every group
    whole are candidates, so the answer is G's own where some minimum cut
    of G does.

    The multigraph's vertex i is the i-th live group and its weights count
    the edges between two groups (`learn_pair_counts`). Returns None,
    before any query, when more than `cap` edges run between groups, and
    raises ValueError, before any query, for a terminal outside the vertex
    range or terminals in one group.
    """
    if terminals is not None:
        if not all(0 <= v < oracle.n for v in terminals):
            raise ValueError("source or sink outside the vertex range")
        s, t = (state.roots.index(state.find(v)) for v in terminals)
        if s == t:
            raise ValueError("source and sink lie in one group")
    if state.interface_edge_count() > cap:
        return None
    masks = [state.group_mask(r) for r in state.roots]
    mg = WeightedGraph(len(masks), learn_pair_counts(oracle, state))
    inner = deterministic_min_cut(mg) if terminals is None else st_min_cut_known(mg, s, t)
    side = 0
    for i in inner.side:
        side |= masks[i]
    return Cut(frozenset(bits_of(side)), inner.value)


def _hypergeometric_split(
    weights: dict[tuple[int, int], int],
    count: int,
    rng: random.Random,
) -> dict[tuple[int, int], int]:
    """`count` slots without replacement from known pair counts, no queries.

    The pairs, in sorted order, own consecutive runs of slots as long as
    their counts; `rng.sample` draws a uniform `count`-subset of the slots
    and each slot goes to the pair whose run holds it. Raises ValueError,
    from `rng.sample`, when `count` exceeds the slots.
    """
    pairs = sorted(weights)
    ends = list(accumulate(weights[pair] for pair in pairs))
    taken: dict[tuple[int, int], int] = {}
    for slot in rng.sample(range(sum(weights.values())), count):
        pair = pairs[bisect_right(ends, slot)]
        taken[pair] = taken.get(pair, 0) + 1
    return taken


def uniform_subsample(
    oracle: CutOracle,
    state: ContractionState,
    p: Fraction,
    rng: random.Random,
    cap: int | None = None,
    learn: bool = False,
) -> WeightedGraph:
    """Bernoulli(p) subsample of the contracted multigraph.

    Vertex i of the result stands for the i-th live root in ascending order;
    integer weights are kept-parallel-edge counts. With p = 1, or whenever
    learning the pair counts costs no more than drawing the kept edges, the
    counts are learned and thinned without replacement; otherwise the kept
    edges are drawn with `sample_intergroup_edges`. The counts cost the
    lower of `learn_pair_counts`' two prices. `learn` forces the first path
    and passes on to `learn_pair_counts`; a caller sets it when it will
    need every interface edge anyway. `cap` clips the kept-edge total on
    out-of-regime levels so one bad level cannot blow the query budget.
    """
    k = state.group_count()
    e_total = state.interface_edge_count()
    if e_total == 0 or p <= 0:
        return WeightedGraph(k, {})
    if p >= 1:
        return WeightedGraph(k, learn_pair_counts(oracle, state, learn))

    kept = binomial_count(rng, e_total, p)
    if cap is not None:
        kept = min(kept, cap)
    if kept == 0:
        return WeightedGraph(k, {})
    learn_cost = min(k + k * (k - 1) // 2, learn_price(oracle.n, e_total))
    draw_cost = kept * (2 * ceil_log2(max(2, k)) + 2)
    if learn or 2 * kept >= e_total or learn_cost <= draw_cost:
        counts = learn_pair_counts(oracle, state, learn)
        return WeightedGraph(k, _hypergeometric_split(counts, kept, rng))
    masks = [state.group_mask(r) for r in state.roots]
    drawn = sample_intergroup_edges(oracle, masks, kept, rng)
    return WeightedGraph(k, _tally(drawn, masks))


__all__ = [
    "sample_interface_pair",
    "merge_and_refresh",
    "karger_until",
    "learn_pair_counts",
    "learn_contracted",
    "uniform_subsample",
]
