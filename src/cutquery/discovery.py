"""Learning and sampling hidden edges through cut queries.

Two primitives serve every pipeline, both over a family of disjoint vertex
groups: `learn_intergroup_edges` learns every edge running between two
groups, and `sample_intergroup_edges` draws k distinct uniform ones. Over
singleton groups they learn or sample the induced subgraph; `learn_graph`
is the learner over all n singletons.

Finding one part that meets an anchor set uses binary descent, `descend`:
count the lower half of the parts against the anchor and recurse into
whichever half holds an edge. Only the lower half is ever counted; the
other count is inferred, so a descent over k parts spends at most
3 ceil(log2 k) distinct queries. Deterministic walks take the first part
with an edge; walks whose choices are weighted by edge counts pick a part
with probability proportional to its edges. The neighbor finder, the
forest search and the sampler descend over singleton parts, the
contraction sampler over groups.
Splitting by position makes every descent over k parts ceil(log2 k) levels
deep, whatever ids the parts hold. Given the edges already found, K, as an
adjacency mask per vertex, a descent leaves them out of every count at no
query cost and so walks G - K; `spanning_forest` builds a maximal spanning
forest of G - K from such walks, Borůvka-style. `forest_cut` stacks such
forests until their union proves a min cut: the global one, or the s-t one
when terminals are given, which also pick the known-graph solver.

v1, v2 and st each run front -> route -> finish, and reach forests only
through the two ends. `front` runs the degree pass, answers a zero degree
or n = 2, and tries forests where 2 (n - 1) min(U, ceil(log2 n)) <= m, m
the edge count (`forests_first`), keeping U, the cheapest cut seen. The
pipeline's own route lowers U. `finish` proves U, or replaces it with a
cheaper exact cut, by forests where U (n - 1) <= m, and otherwise leaves
it unproved. Forests draw no random bits, so a route sees one stream
whether they run or not.

The learner, `learn_vertex_edges`, walks every branch for many anchors, and
splits at id-aligned binary-trie boundaries, `trie_split`: the lower half
is the candidates inside an aligned block of ids. Counting an anchor
against a block queries the block on its own, and an aligned block is the
same vertex set for every anchor whose candidates cover it, so the memo
pays for it once rather than once per anchor. The trie has ceil(log2 n)
levels and reports neighbors in ascending order.
"""

from __future__ import annotations

import random
from typing import Iterable

from .graph import (
    ContractionState,
    Cut,
    SimpleGraph,
    UnionFind,
    WeightedGraph,
    better_cut,
    bits_of,
    mask_of,
    normalize_edge,
)
from .oracle import CutOracle
from .params import ceil_log2
from .reference import deterministic_min_cut, st_min_cut_known
from .rng import weighted_index


class _AbortLearning(Exception):
    """Internal: raised when a learning budget is exceeded."""


def trie_split(mask: int) -> tuple[int, int]:
    """Split candidates at the binary-trie node where their ids branch.

    The lower half is the candidates below the highest id boundary, aligned
    to a power of two, that separates the smallest id from the largest;
    both halves are non-empty.
    """
    if mask.bit_count() < 2:
        raise ValueError("nothing to split")
    lo = (mask & -mask).bit_length() - 1
    hi = mask.bit_length() - 1
    level = (lo ^ hi).bit_length() - 1
    low = mask & ((1 << ((hi >> level) << level)) - 1)
    return low, mask ^ low


def _known_between(known: list[int], a: int, b: int) -> int:
    """Known edges between the disjoint vertex sets a and b, counted from
    whichever side has fewer vertices; no query."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    return sum((known[v] & b).bit_count() for v in bits_of(a))


def descend(
    oracle: CutOracle,
    anchor: int,
    parts: list[int],
    total: int,
    rng: random.Random | None = None,
    known: list[int] | None = None,
) -> tuple[int, int]:
    """Index of one of the disjoint `parts` that meets the anchor set, and
    the edge count between that part and the anchor.

    Each level counts the lower ceil(k/2) of the k remaining parts against
    the anchor. With no rng the walk takes the lower half whenever it holds
    an edge, so it ends at the first part with one; with an rng each half
    is taken with probability proportional to its edge count, so a part is
    picked with probability proportional to its edges. `known`, an
    adjacency mask per vertex, names edges already found: each count
    leaves them out, at no query cost, so the walk runs over the graph
    without them. `total` must equal the edge count between the anchor and
    all the parts, known edges left out likewise.
    """
    if total <= 0:
        raise ValueError("no edge between the anchor and the parts")
    lo, hi = 0, len(parts)
    while hi - lo > 1:
        mid = (lo + hi + 1) // 2
        low = 0
        for part in parts[lo:mid]:
            low |= part
        c_low = oracle.count_between_masks(anchor, low)
        if known is not None:
            c_low -= _known_between(known, anchor, low)
        if (rng.randrange(total) < c_low) if rng is not None else (c_low > 0):
            hi, total = mid, c_low
        else:
            lo, total = mid, total - c_low
    return lo, total


def find_neighbor(
    oracle: CutOracle,
    v: int,
    candidates: Iterable[int] | int,
    exclude: Iterable[int] | int = 0,
) -> int | None:
    """Some neighbor of v among candidates minus exclude, or None.

    Costs at most 3 ceil(log2 |candidates|) + 3 distinct queries. `exclude`
    must be a subset of `candidates`.
    """
    cand = candidates if isinstance(candidates, int) else mask_of(candidates)
    excl = exclude if isinstance(exclude, int) else mask_of(exclude)
    if excl & ~cand:
        raise ValueError("exclude is not a subset of candidates")
    cand &= ~excl
    cand &= ~(1 << v)
    if cand == 0:
        return None
    total = oracle.count_between_masks(1 << v, cand)
    if total == 0:
        return None
    parts = [1 << u for u in bits_of(cand)]
    return parts[descend(oracle, 1 << v, parts, total)[0]].bit_length() - 1


def spanning_forest(
    oracle: CutOracle, known: list[int], terminals: tuple[int, int] | None = None
) -> tuple[list[tuple[int, int]], Cut | None]:
    """A maximal spanning forest of G - K, K the edges `known` names (an
    adjacency mask per vertex), as ascending vertex pairs, and the cheapest
    proper component boundary queried on the way, a cut of G (None only
    when n < 2). With `terminals` (s, t), only a boundary that separates s
    from t counts, reported by its side holding s (None when none was
    queried).

    Borůvka rounds over the forest's components: each component C with an
    edge of G - K leaving it, its count being C's boundary less K's edges
    across it, finds one by two deterministic walks, as
    `sample_intergroup_edges` draws one: `descend` over C's vertices
    against the rest, then `descend` from the vertex found over the rest,
    on the count the first walk inferred. It merges with the far end. A
    component with no such edge is a component of G - K and drops out.
    Each round at least halves the components still open, and no walk
    draws a random bit.
    """
    n = oracle.n
    full = (1 << n) - 1
    uf = UnionFind(n)
    masks = {v: 1 << v for v in range(n)}
    forest: list[tuple[int, int]] = []
    cheapest: Cut | None = None
    open_roots = list(range(n))
    while open_roots:
        still_open = []
        for r in open_roots:
            if uf.find(r) != r:
                continue  # merged into an earlier root this round
            comp = masks[r]
            rest = full & ~comp
            boundary = oracle.query_mask(comp)
            if rest and (cheapest is None or boundary < cheapest.value):
                side = comp if terminals is None or (comp >> terminals[0]) & 1 else rest
                if terminals is None or not (side >> terminals[1]) & 1:
                    cheapest = Cut(frozenset(bits_of(side)), boundary)
            out = boundary - _known_between(known, comp, rest)
            if out == 0:
                continue
            inside = [1 << x for x in bits_of(comp)]
            outside = [1 << x for x in bits_of(rest)]
            i, c_u = descend(oracle, rest, inside, out, known=known)
            j, _ = descend(oracle, inside[i], outside, c_u, known=known)
            u, w = inside[i].bit_length() - 1, outside[j].bit_length() - 1
            forest.append(normalize_edge(u, w))
            rw = uf.find(w)
            uf.union(r, rw)
            keep = uf.find(r)
            masks[keep] = masks.pop(r) | masks.pop(rw)
            still_open.append(keep)
        open_roots = sorted(set(still_open))
    return sorted(forest), cheapest


def forest_cut(
    oracle: CutOracle,
    upper: Cut,
    m: int,
    stats: dict,
    terminals: tuple[int, int] | None = None,
) -> tuple[Cut, bool]:
    """Exact min cut of G from edge-disjoint maximal spanning forests
    (Nagamochi and Ibaraki, Algorithmica 1992) and True, or, once they stop
    paying, the cheapest cut seen and False.

    The question is the global min cut, or, with `terminals` (s, t), the
    min s-t cut with its side holding s; each forest union is solved by the
    matching known-graph solver, `deterministic_min_cut` or
    `st_min_cut_known`. F_i is a maximal spanning forest of G - H_{i-1} and
    H_i = F_1 + ... + F_i, so cut_H_i(S) >= min(cut_G(S), i) for every side
    S. Once H_i's min cut c is below i, H_i's minimizing side cuts exactly
    c in G and nothing in G cuts less; once c reaches `upper`, a cut G has
    (separating the terminals, if given), `upper` is minimum. `upper` falls
    to any cheaper component boundary the forest search queries that
    qualifies. An empty forest means H_i is G. The loop ends by forest
    min(lambda + 1, upper.value), lambda the min cut value, and a forest
    has at most n - 1 edges, so while upper.value (n - 1) <= m, m the edge
    count of G, the forests learn at most m edges. After each forest the
    loop goes on only while that holds. stats["forests"] counts the forests
    built; no random bit is drawn.
    """
    n = oracle.n
    known = [0] * n
    weights: dict[tuple[int, int], int] = {}
    i = 0
    while True:
        forest, seen = spanning_forest(oracle, known, terminals)
        if seen is not None:
            upper = better_cut(upper, seen)
        i += 1
        stats["forests"] += 1
        for u, v in forest:
            known[u] |= 1 << v
            known[v] |= 1 << u
            weights[(u, v)] = 1
        h = WeightedGraph(n, dict(weights))
        cut = deterministic_min_cut(h) if terminals is None else st_min_cut_known(h, *terminals)
        if cut.value < i or not forest:
            return cut, True
        if cut.value >= upper.value:
            return upper, True
        if upper.value * (n - 1) > m:
            return upper, False


def forests_first(
    oracle: CutOracle,
    state: ContractionState,
    upper: Cut,
    stats: dict,
    terminals: tuple[int, int] | None = None,
) -> tuple[Cut, bool]:
    """`forest_cut` where forests are worth a try before anything else, or
    `upper` and False where they are not. They enter only where
    2 (n - 1) min(U, ceil(log2 n)) <= m, U = `upper.value` and m the edge
    count the degree pass's singleton `state` gives. Where U <= ceil(log2 n)
    they stop by forest U, having learned at most U (n - 1) <= m / 2 edges,
    so they never give up; a forest edge costs about twice a learned one,
    so they stay below learning G. Elsewhere one forest, about
    (n - 1) log2 n queries, is a gamble that a component boundary
    undercuts U.
    """
    n = oracle.n
    m = state.interface_edge_count()
    if 2 * (n - 1) * min(upper.value, ceil_log2(n)) > m:
        return upper, False
    return forest_cut(oracle, upper, m, stats, terminals)


def singleton_state(oracle: CutOracle) -> ContractionState:
    """Fresh all-singletons state with every degree queried and recorded."""
    degrees = [oracle.vertex_degree(v) for v in range(oracle.n)]
    return ContractionState(oracle.n, degrees)


def front(
    oracle: CutOracle, stats: dict, terminals: tuple[int, int] | None = None
) -> tuple[ContractionState, Cut]:
    """The start v1, v2 and st share: the degree pass, then forests first.

    Returns the singleton state and U, the cheapest cut known: the minimum
    degree's or, with `terminals` (s, t), the better terminal boundary,
    lowered by any cheaper one the forests saw. Forests run where
    2 (n - 1) min(U, ceil(log2 n)) <= m (`forests_first`), and prove any
    U <= ceil(log2 n) they run from.
    stats["certified"] reports U proved minimum: a zero value, n = 2 or a
    forest answer; stats["forests"] counts the forests built.
    """
    n = oracle.n
    stats.update(forests=0, certified=False)
    state = singleton_state(oracle)
    if terminals is None:
        upper = state.best_seen
    else:
        s, t = terminals
        upper = better_cut(
            Cut(frozenset([s]), state.degree(s)),
            Cut(frozenset(range(n)) - {t}, state.degree(t)),
        )
    if upper.value == 0 or n == 2:
        stats["certified"] = True
        return state, upper
    upper, stats["certified"] = forests_first(oracle, state, upper, stats, terminals)
    return state, upper


def finish(
    oracle: CutOracle,
    best: Cut,
    m: int,
    stats: dict,
    terminals: tuple[int, int] | None = None,
) -> Cut:
    """The end every route of v1, v2 and st shares, from U = `best`, the
    route's answer lowered by every cut it saw, and m, the front's edge
    count.

    U stands as it is when the route proved it (stats["certified"]) or its
    value is 0. Otherwise, where U (n - 1) <= m, `forest_cut` from U proves
    it or replaces it with a cheaper exact cut, within m learned edges;
    elsewhere U is handed back uncertified. No random bit is drawn.
    """
    if stats["certified"] or best.value == 0:
        stats["certified"] = True
    elif best.value * (oracle.n - 1) <= m:
        best, stats["certified"] = forest_cut(oracle, best, m, stats, terminals)
    return best


def learn_vertex_edges(
    oracle: CutOracle,
    v: int,
    candidates: int,
    stop_above: int | None = None,
) -> list[int]:
    """All neighbors of v inside `candidates`, in ascending order, by
    recursive splitting at binary-trie boundaries (`trie_split`).

    Empty halves cost one count and are skipped whole, so the total cost is
    about 2 log n queries per neighbor found plus one per pruned subtree,
    less where the block half of a count is one that another anchor whose
    candidates cover the same aligned block has already paid for. Raises
    _AbortLearning once more than `stop_above` neighbors turn up.
    """
    found: list[int] = []

    def walk(mask: int, count: int | None) -> None:
        if mask == 0:
            return
        if count is None:
            count = oracle.count_between_masks(1 << v, mask)
        if count == 0:
            return
        if mask.bit_count() == 1:
            found.append(mask.bit_length() - 1)
            if stop_above is not None and len(found) > stop_above:
                raise _AbortLearning
            return
        low, high = trie_split(mask)
        c_low = oracle.count_between_masks(1 << v, low)
        walk(low, c_low)
        walk(high, count - c_low)

    walk(candidates & ~(1 << v), None)
    return found


def learn_intergroup_edges(
    oracle: CutOracle,
    masks: list[int],
    abort_above: int | None = None,
) -> list[tuple[int, int]] | None:
    """Edges running between distinct groups, each reported once.

    Each vertex learns its neighbors among the higher ids of the other
    groups, so an edge is found from its lower endpoint only. Returns None
    once more than `abort_above` edges turn up; a negative `abort_above`
    is rejected.
    """
    if abort_above is not None and abort_above < 0:
        raise ValueError(f"abort_above must be at least 0, got {abort_above}")
    union = 0
    for m in masks:
        if union & m:
            raise ValueError("group masks overlap")
        union |= m
    owner = {v: m for m in masks for v in bits_of(m)}
    edges: list[tuple[int, int]] = []
    try:
        for v in sorted(owner):
            cand = union & ~owner[v] & ~((2 << v) - 1)
            if cand == 0:
                continue
            budget = None if abort_above is None else abort_above - len(edges)
            for u in learn_vertex_edges(oracle, v, cand, stop_above=budget):
                edges.append((v, u))
    except _AbortLearning:
        return None
    return edges


def learn_graph(
    oracle: CutOracle, abort_above: int | None = None
) -> SimpleGraph | None:
    """Reconstruct the hidden graph: `learn_intergroup_edges` over singletons.

    Spends at most 4 (n + m ceil(log2 n)) distinct queries. Returns None as
    soon as the found-edge count exceeds `abort_above`.
    """
    edges = learn_intergroup_edges(
        oracle, [1 << v for v in range(oracle.n)], abort_above
    )
    return None if edges is None else SimpleGraph.from_edges(oracle.n, edges)


def sample_intergroup_edges(
    oracle: CutOracle,
    masks: list[int],
    k: int,
    rng: random.Random,
) -> list[tuple[int, int]]:
    """k distinct uniform edges running between groups of the family.

    Each group's edge count to the other groups is queried first. Draws
    pick a group proportionally to that count, then one endpoint in the
    group by randomized descent, then its partner in the rest, so each
    inter-group edge arrives with probability 1/w; repeats are rejected,
    with budget 50 k log2 n draws. When k is within a factor two of w, all
    inter-group edges are learned and shuffled instead. Over singleton
    groups this draws k distinct uniform edges of the induced subgraph.
    Raises ValueError when k is negative or exceeds w.
    """
    if k < 0:
        raise ValueError("negative sample size")
    if k == 0:
        return []
    union = 0
    for m in masks:
        union |= m
    degrees = [oracle.count_between_masks(m, union & ~m) for m in masks]
    total_deg = sum(degrees)
    if total_deg % 2:
        raise RuntimeError("odd inter-group degree total")
    w = total_deg // 2
    if k > w:
        raise ValueError(f"family holds {w} inter-group edges; cannot pick {k}")
    if 2 * k >= w:
        edges = learn_intergroup_edges(oracle, masks)
        if edges is None:
            raise RuntimeError("learning without a budget gave up")
        rng.shuffle(edges)
        return edges[:k]
    budget = 50 * k * ceil_log2(max(2, oracle.n))
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    for _ in range(budget):
        gi = weighted_index(rng, degrees, total_deg)
        g = masks[gi]
        inside = [1 << x for x in bits_of(g)]
        outside = [1 << x for x in bits_of(union & ~g)]
        i, c_u = descend(oracle, union & ~g, inside, degrees[gi], rng)
        j, _ = descend(oracle, inside[i], outside, c_u, rng)
        e = normalize_edge(inside[i].bit_length() - 1, outside[j].bit_length() - 1)
        if e not in seen:
            seen.add(e)
            out.append(e)
            if len(out) == k:
                return out
    raise RuntimeError("rejection budget exhausted before k distinct edges")


__all__ = [
    "descend",
    "trie_split",
    "find_neighbor",
    "spanning_forest",
    "forest_cut",
    "forests_first",
    "singleton_state",
    "front",
    "finish",
    "learn_vertex_edges",
    "learn_graph",
    "learn_intergroup_edges",
    "sample_intergroup_edges",
]
