"""Learning and sampling hidden edges through cut queries.

Two primitives serve every pipeline, both over a family of disjoint vertex
groups: `learn_intergroup_edges` learns every edge running between two
groups, and `sample_intergroup_edges` draws k distinct uniform ones. Over
singleton groups they learn or sample the induced subgraph; `learn_graph`
is the learner over all n singletons.

Every walk is a binary search over a candidate vertex mask for vertices
with an edge to an anchor set, and returns each with its edge count to the
anchor. A level counts one half of the candidates left against the anchor
and infers the other half's count, so it costs one count, two distinct
queries besides the anchor's own.

There are two kinds of walk. The deterministic ones walk G - K, K the
oracle's record of edges found (`CutOracle.known`), leaving K out of every
count at no query cost: `_trie_walk` reports the neighbors in ascending
order, all of them or the first `limit`. The learner walks from each
vertex by it, `flow_cut` grows its sides by it and finds its path edges
with limit 1, and so does the neighbor finder. `first_edge` ends in it:
the count says about one edge lies in every n / count ids, so it first
gallops over aligned blocks that start at about that size and double,
skipping the trie's top levels where the anchor's edges are spread over
the ids. `descend`, the samplers' walk, walks G itself, K included, and
picks a vertex with probability proportional to its edges.

Every walk splits by one rule, at id-aligned binary-trie boundaries,
`trie_split`: the lower half is the candidates inside an aligned block of
ids, which is the same vertex set for every anchor whose candidates cover
it, so the memo pays for its count once rather than once per anchor, and
no walk is more than ceil(log2 n) levels deep.
`spanning_forest` builds a maximal spanning forest of G - K from
`first_edge` walks, Borůvka-style; `forest_cut` stacks such forests until
their union proves the global min cut. Where U = 1 it builds none: a
connectivity proof needs no edges, so `_layer_cut` grows a side from
vertex 0 a layer at a time, each layer by one trie walk from the whole
side, until it is V or cuts 0, for about 2.4 distinct queries per vertex
at n = 256 against a forest's 8 or so. Where the union's min cut c is 1
and U = 2, or 2 and below U, it queries the union's sides of c instead,
among which are G's: those below its bridges (`_bridge_sides`) or its
2-cut sides (`_two_cut_sides`), both read off one depth-first search
that labels each tree edge with the back edges covering it
(`_tree_edges`). A side G cuts at c answers; where none does, a U of
c + 1 is proved.

v1 and v2 each run front -> route -> finish, and reach forests only
through the two ends. `front` runs the degree pass, answers a zero degree
or n = 2, and tries forests (`forests_first`), keeping U, the cheapest cut
seen: where U = 1, whatever m is, since the layer search then settles it
with no forest and learns no edge, and where U <= ceil(log2 n) and
U (n - 1) <= m, m the edge count. From U = 2 one forest does; from U >= 3
two do wherever one of the second union's 2-cut sides cuts 2 in G, or U
is 3 once they are queried.
The pipeline's own route lowers U. `finish` proves U, or replaces it with
a cheaper exact cut, by forests where U (n - 1) <= m, and otherwise
leaves it unproved. Both enter forests only where they learn at most m
edges, so forests always prove their answer. Forests draw no random bits,
so a route sees one stream whether they run or not.

st proves its cut with `flow_cut`: unit augmenting paths in which every
edge not yet found counts as residual capacity, so it learns only the
edges its paths run on. It keeps an s side and a t side of the residual
graph from one path to the next, as Boykov and Kolmogorov keep their
search trees. A side grows a layer at a time, each layer by one trie walk
from the whole side; an edge between the sides is found by two walks
with limit 1, and each walk-found vertex on the path by one into its
support, the earlier side vertices the walk counted it against. After
each path but the one that brings the flow to U both sides are repaired
in the order their vertices joined: a vertex stays while the edge it
joined through is still residual or its count into its support is still
positive, else rejoins through a known residual edge from an earlier
vertex, else is dropped for a later walk to find again; once the budget
is spent no count is settled, and a vertex that would need one counts as
having none left.
The flow stops once it meets an s-t boundary it queried, which weak
duality proves minimum, or gives up past a distinct-query budget, which
st, v1 and v2 set at the price of learning G; it draws no random bits.

v1 and v2 prove their global cut with flows too (`dominating_flows`). In
a simple graph every side of a cut below the minimum degree holds a vertex
with no neighbor across it (Matula, FOCS 1987), so a dominating set D
meets both sides, and the min cut is the minimum degree or some
lambda(0, t), t in D. D is a maximal independent set drawn greedily in id
order, and one flow from vertex 0 to each t proves U or lowers it, all of
them on K.

A solve keeps one record of the edges it has found, K, on its oracle
(`CutOracle.known`), beside the memo. The forests, the flow and the
learner walk G - K and write what they find into it, so no phase pays
again for an edge another has found: the strength ladder and the
endgames read it too. `finish` does as well: once K holds all m edges it
is G, and the forests, or at U = 1 the layer search, answer from it at no
query.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterable, Iterator

from .graph import (
    ContractionState,
    Cut,
    SimpleGraph,
    WeightedGraph,
    better_cut,
    bits_of,
    mask_of,
    normalize_edge,
)
from .oracle import CutOracle
from .params import ceil_log2
from .reference import deterministic_min_cut
from .rng import weighted_index


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


def _known_between(record: list[int], a: int, b: int) -> int:
    """Edges of `record`, an adjacency mask per vertex, between the
    disjoint vertex sets a and b, counted from whichever side has fewer
    vertices; no query. A side of one vertex is read off that vertex's
    mask with no loop: every learner walk counts from one vertex, and the
    loop took about a tenth of `learn_graph`'s wall time."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    if a & (a - 1):
        return sum((record[v] & b).bit_count() for v in bits_of(a))
    return (record[a.bit_length() - 1] & b).bit_count() if a else 0


def _between(oracle: CutOracle, anchor: int, mask: int) -> int:
    """Edges of G - K between the disjoint vertex sets anchor and mask, K
    the oracle's record of edges found, left out at no query cost."""
    return oracle.count_between_masks(anchor, mask) - _known_between(oracle.known, anchor, mask)


def descend(
    oracle: CutOracle, anchor: int, candidates: int, total: int, rng: random.Random
) -> tuple[int, int]:
    """A vertex of `candidates` (disjoint from the anchor set) drawn with
    probability proportional to its edges of G to the anchor, and that
    edge count; K plays no part.

    Each level splits the remaining candidates at their binary-trie node
    (`trie_split`), counts the lower half against the anchor and takes each
    half with probability proportional to its count, one `randrange` per
    level, so the walk is at most ceil(log2 n) levels deep, one count each.
    `total` must equal the edge count between the anchor and all the
    candidates. Raises ValueError, before any query, where there is no
    candidate or `total` is not positive.
    """
    if total <= 0 or candidates == 0:
        raise ValueError("no edge between the anchor and the candidates")
    while candidates & (candidates - 1):
        low, high = trie_split(candidates)
        c_low = oracle.count_between_masks(anchor, low)
        if rng.randrange(total) < c_low:
            candidates, total = low, c_low
        else:
            candidates, total = high, total - c_low
    return candidates.bit_length() - 1, total


def first_edge(oracle: CutOracle, anchor: int, candidates: int, total: int) -> tuple[int, int]:
    """What `_trie_walk` with limit 1 finds: the lowest-id vertex of
    `candidates` (disjoint from the anchor set) with an edge of G - K to
    the anchor, and its count; `total` is the count over all candidates.

    About one edge lies in every n / `total` ids, so the walk skips the
    trie's top levels: with s the smallest power of two at least n / total,
    it gallops over the id-aligned blocks [0, s), [s, 2s), [2s, 4s), ...
    (each cut to the candidates), the trie nodes hanging off its leftmost
    path, counting each non-empty one until one holds an edge; the last
    non-empty block's count is inferred. It ends in `_trie_walk` with
    limit 1 over that block. Aligned blocks are the same vertex sets for
    many anchors, so the memo shares their queries. With L = ceil(log2 n), the
    walk makes at most L + max(0, L - log2 s - 1) counts, each at most two
    distinct queries besides the anchor's own; no random bit is drawn.
    Raises ValueError, before any query, where there is no candidate or
    `total` is not positive.
    """
    if total <= 0 or candidates == 0:
        raise ValueError("no edge between the anchor and the candidates")

    end = 1 << (-(-oracle.n // total) - 1).bit_length()  # s: 2^ceil(log2(n / total))
    seen = 0
    while True:
        block = candidates & ((1 << end) - 1) & ~seen
        seen |= block
        if block:
            if seen == candidates:
                break
            c = _between(oracle, anchor, block)
            if c > 0:
                total = c
                break
        end *= 2
    return _trie_walk(oracle, anchor, block, total, limit=1)[0]


def find_neighbor(
    oracle: CutOracle,
    v: int,
    candidates: Iterable[int] | int,
    exclude: Iterable[int] | int = 0,
) -> int | None:
    """Some neighbor of v among candidates minus exclude, or None: the
    lowest-id one K holds, at no query, and failing that the lowest-id one,
    by `_trie_walk` from v with limit 1 over the candidate mask.

    Costs at most 3 ceil(log2 n) + 3 distinct queries, criterion 03's
    bound: the trie over k candidates can run deeper than ceil(log2 k)
    levels where their ids sit unevenly, but never deeper than
    ceil(log2 n). `exclude` must be a subset of `candidates`.
    """
    cand = candidates if isinstance(candidates, int) else mask_of(candidates)
    excl = exclude if isinstance(exclude, int) else mask_of(exclude)
    if excl & ~cand:
        raise ValueError("exclude is not a subset of candidates")
    cand &= ~excl & ~(1 << v)
    held = oracle.known[v] & cand
    if held:
        return (held & -held).bit_length() - 1
    walk = _trie_walk(oracle, 1 << v, cand, limit=1)
    return walk[0][0] if walk else None


def spanning_forest(oracle: CutOracle) -> list[tuple[int, int]]:
    """A maximal spanning forest of G - K, K the oracle's record of edges
    found, as ascending vertex pairs; K is left as it is.

    Borůvka rounds over the forest's components, kept as the groups of a
    `ContractionState`: each component C with an edge of G - K leaving it,
    its count being C's queried boundary less K's edges across it, finds
    one by two `first_edge` walks:
    over C's vertices against the rest, which gives u, C's lowest vertex
    with such an edge, and its count, then from u over the rest, which
    gives u's lowest neighbor outside C in G - K. It merges with the far
    end. A component with no such edge is a component of G - K and drops
    out. Each round at least halves the components still open, and no walk
    draws a random bit.
    """
    n = oracle.n
    full = (1 << n) - 1
    state = ContractionState(n)
    forest: list[tuple[int, int]] = []
    open_roots = list(range(n))
    while open_roots:
        still_open = []
        for r in open_roots:
            if state.find(r) != r:
                continue  # merged into an earlier root this round
            comp = state.group_mask(r)
            rest = full & ~comp
            out = oracle.query_mask(comp) - _known_between(oracle.known, comp, rest)
            if out == 0:
                continue
            u, c_u = first_edge(oracle, rest, comp, out)
            w, _ = first_edge(oracle, 1 << u, rest, c_u)
            forest.append(normalize_edge(u, w))
            still_open.append(state.merge_group_set((r, w)))
        open_roots = sorted(set(still_open))
    return sorted(forest)


def _layer_cut(oracle: CutOracle, upper: Cut) -> Cut:
    """`upper`, a cut of value 1, where G is connected, else a cut of 0.
    Either answer is proved, and no edge is learned.

    A side S grows from vertex 0 a layer at a time, closed under K at no
    query before each query, so no known edge leaves it and q(S) counts
    only unknown ones. A q(S) of 0 is the answer. Otherwise one
    `_trie_walk` from the whole side adds every vertex with an edge into
    it. Once S is V, G is connected, so lambda >= 1. Where K holds a
    connected G, S is V at once and nothing is queried; at n = 256 the
    search costs about 2.4 distinct queries per vertex against the 8 or so
    of a spanning forest. No random bit is drawn.
    """
    full, known = (1 << oracle.n) - 1, oracle.known
    side, frontier = 0, 1
    while True:
        while frontier:
            side |= frontier
            reach = 0
            for v in bits_of(frontier):
                reach |= known[v]
            frontier = reach & ~side
        if side == full:
            return upper
        q = oracle.query_mask(side)
        if q == 0:
            return Cut(frozenset(bits_of(side)), 0)
        frontier = mask_of(v for v, _ in _trie_walk(oracle, side, full & ~side, q))


def _tree_edges(record: list[int]) -> list[tuple[int, int]]:
    """The tree edges of a depth-first search of K from vertex 0, `record`
    K as an adjacency mask per vertex, in the order the search leaves them,
    each as (below, cover): below holds the vertices under the edge, and
    cover has a bit for each back edge that joins one of them to a vertex
    above it. Raises ValueError where K is disconnected; no query.

    K is simple, so every edge off the tree joins a vertex to one of its
    ancestors, and each such back edge gets its own bit at both ends. An
    edge's cover is the XOR of those bits over the vertices below it, in
    which a back edge with both ends below cancels: the cycle-equivalence
    labels of Johnson, Pearson and Pingali (PLDI 1994), as exact bitmasks.
    """
    n = len(record)
    below, cover = [0] * n, [0] * n
    below[0] = bit = 1
    stack = [(0, record[0])]
    edges = []
    while stack:
        u, rest = stack[-1]
        if rest:
            v = (rest & -rest).bit_length() - 1
            stack[-1] = (u, rest & (rest - 1))
            if not below[v]:
                below[v] = 1 << v
                stack.append((v, record[v] & ~(1 << u)))
            elif not below[u] >> v & 1:  # not a descendant, so an ancestor
                cover[u] ^= bit
                cover[v] ^= bit
                bit <<= 1
            continue
        stack.pop()
        if stack:
            p = stack[-1][0]
            below[p] |= below[u]
            cover[p] ^= cover[u]
            edges.append((below[u], cover[u]))
    if below[0] != (1 << n) - 1:
        raise ValueError("K is disconnected")
    return edges


def _bridge_sides(record: list[int]) -> list[int]:
    """The vertices below each bridge of K, `record` K as an adjacency mask
    per vertex, in `_tree_edges`' search: every side S with cut_K(S) = 1,
    once each up to complement, none holding vertex 0. A bridge is the tree
    edge no back edge covers. Raises ValueError where K is disconnected; no
    query.
    """
    return [below for below, cover in _tree_edges(record) if not cover]


def _two_cut_sides(record: list[int]) -> Iterator[int]:
    """Every side S with cut_K(S) = 2 of a 2-edge-connected K, `record` K
    as an adjacency mask per vertex, once each up to complement, none holding
    vertex 0; no query, no random bit.

    Two edges of such a K cut it exactly where every cycle holds both or
    neither. In `_tree_edges`' search that is two tree edges of one cover,
    which lie on one path from the root, S the vertices below the upper
    but not below the lower, or a tree edge whose cover is one back edge,
    and that edge, S the vertices below the tree edge. A cover shared by k
    tree edges gives k (k - 1) / 2 sides, so a long cycle gives about n^2
    / 2; the sides are yielded one at a time, for a caller to stop.
    """
    chains: dict[int, list[int]] = {}
    for below, cover in _tree_edges(record):
        chains.setdefault(cover, []).append(below)
    for cover, chain in chains.items():  # each chain runs upwards
        if cover.bit_count() == 1:
            yield from chain
        for j, upper in enumerate(chain):
            for lower in chain[:j]:
                yield upper & ~lower


def forest_cut(oracle: CutOracle, upper: Cut, stats: dict) -> Cut:
    """Exact global min cut of G from edge-disjoint maximal spanning forests
    (Nagamochi and Ibaraki, Algorithmica 1992).

    The forests start from the oracle's record K of edges already found and
    are written into it.
    F_i is a maximal spanning forest of G - K - F_1 - ... - F_{i-1}, so it
    joins the two ends of every edge of G left uncovered, and H_i = K + F_1
    + ... + F_i has cut_H_i(S) >= min(cut_G(S), i) for every side S: an S
    that some uncovered edge crosses is crossed by each F_j, and one that
    none crosses cuts in H_i what it cuts in G. Once H_i's min cut c
    (`deterministic_min_cut`) is below i, H_i's minimizing side cuts
    exactly c in G and nothing in G cuts less; once c reaches `upper`, a
    cut G has, `upper` is minimum. After each forest `upper` falls to the
    oracle's cheapest answer (`CutOracle.cheapest`). An empty forest means
    H_i is G, so where K already holds G the first forest is empty and the
    answer costs no fresh query.

    Where upper.value is 1 no forest is built: `_layer_cut` proves G
    connected, and so `upper` minimum, or finds a side that cuts 0, by
    layers from vertex 0 closed under K, so where K holds a connected G it
    too costs no query.

    H_i is part of G, so every cut of G is at least c, and a side G cuts
    at c is one H_i cuts at c. So where c = 1 and upper.value = 2, or
    c = 2 and upper.value >= 3, one query per side H_i cuts at c decides:
    the sides below its bridges (`_bridge_sides`) or its 2-cut sides
    (`_two_cut_sides`). A side G cuts at c is the answer; where none is,
    every cut of G exceeds c, `upper` falls to the oracle's cheapest
    answer, and an `upper` of c + 1 is minimum. Otherwise the next forest
    follows. Most 2-cut sides are memo hits (127 to 150 per scan on
    planted cuts of 3 at n = 256, for at most one fresh query), but a long
    cycle of H_i has about n^2 / 2, so the scan is skipped where there are
    more than n - 1 of them, the most edges the next forest can learn.

    The loop ends by forest min(lambda + 1, upper.value), lambda the min
    cut value, by forest 1 where upper.value <= 2, and at a scan that
    finds a side of c or leaves `upper` at c + 1, so every answer is
    proved. A forest has at most n - 1 edges, so the forests learn at most
    upper.value (n - 1) edges; both callers enter only where that is at
    most m, the edge count of G, or where K is G. stats["forests"] counts
    the forests built, none where upper.value is 1; no random bit is
    drawn.
    """
    if upper.value == 1:
        return _layer_cut(oracle, upper)
    n, known = oracle.n, oracle.known
    i = 0
    while True:
        forest = spanning_forest(oracle)
        upper = better_cut(upper, oracle.cheapest)
        i += 1
        stats["forests"] += 1
        for u, v in forest:
            known[u] |= 1 << v
            known[v] |= 1 << u
        h = WeightedGraph(n, {normalize_edge(u, v): 1 for u in range(n) for v in bits_of(known[u])})
        cut = deterministic_min_cut(h)
        if cut.value < i or not forest:
            return cut
        if cut.value >= upper.value:
            return upper
        if (cut.value, upper.value) == (1, 2) or cut.value == 2:
            c = cut.value
            sides = _bridge_sides(known) if c == 1 else list(islice(_two_cut_sides(known), n))
            if len(sides) < n:
                for side in sides:
                    if oracle.query_mask(side) == c:
                        return Cut(frozenset(bits_of(side)), c)
                upper = better_cut(upper, oracle.cheapest)
                if upper.value == c + 1:
                    return upper


def forests_first(
    oracle: CutOracle, state: ContractionState, upper: Cut, stats: dict
) -> tuple[Cut, bool]:
    """`forest_cut` and True where forests are worth a try before anything
    else, or `upper` and False where they are not. With U = `upper.value`,
    L = ceil(log2 n) and m the edge count the degree pass's singleton
    `state` gives, they enter where U = 1, whatever m is, and where U <= L
    and U (n - 1) <= m, the finish's rule. They write their edges into the
    oracle's record, which every later phase of the solve reads.

    Where U = 1 the layer search proves it with no forest and learns no
    edge: G is connected, or a side cuts 0 (gnp(256, 8/255) with delta = 1:
    about 0.15 of `learn_graph`, degree pass included, where one forest
    cost 0.39; two paths of 64, relabelled, where m < n - 1: 715 distinct
    queries against `learn_graph`'s 1,092). Otherwise the forests stop by
    forest U, by forest 1 where U = 2, having learned at most
    U (n - 1) <= m edges, each at 0.9 to 1.6 times a learned edge's price
    (forests 1 to 3 on random and planted graphs at n = 256).
    Where lambda = U = 2 one forest and a query per bridge side of H_1
    prove it (gnp(256, 8/255) with delta = 2: about 0.4 of `learn_graph`).
    Where 2 <= lambda <= 3 and H_2 cuts a minimum side of G at 2, or
    lambda = U = 3, two forests and a query per 2-cut side of H_2 prove
    it: planted cuts of 3 below degrees of 4 to 6 at n = 256 cost 0.42 to
    0.49 of `learn_graph`, and gnp(256, 8/255) with lambda = delta = 3
    0.67 to 0.71. Where forest 1 or 2 crosses a planted cut twice
    (0.83 to 0.86 of `learn_graph`), or lambda = U >= 4, they run on to
    forest lambda + 1 or U: up to 1.31 times `learn_graph` on
    gnp(64, 12/63), lambda = 6, the worst of 38 sparse random and planted
    graphs.
    """
    n, u = oracle.n, upper.value
    if u > 1 and (u > ceil_log2(n) or u * (n - 1) > state.interface_edge_count()):
        return upper, False
    return forest_cut(oracle, upper, stats), True


def singleton_state(oracle: CutOracle) -> ContractionState:
    """Fresh all-singletons state with every degree queried and recorded."""
    degrees = [oracle.vertex_degree(v) for v in range(oracle.n)]
    return ContractionState(oracle.n, degrees)


def front(oracle: CutOracle, stats: dict) -> tuple[ContractionState, Cut]:
    """The start v1 and v2 share: the degree pass, then forests first.

    Returns the singleton state and U, the oracle's cheapest answer
    (`CutOracle.cheapest`): on a fresh oracle the first vertex of minimum
    degree, lowered by any cheaper cut the forests query. Forests run where
    U = 1, or U <= ceil(log2 n) and U (n - 1) <= m (`forests_first`), and
    prove U or a cheaper cut by forest U: with no forest, by a layer search
    from vertex 0, where U = 1; by forest 1 and a query per bridge side
    where U = 2; and by forest 2 and a query per 2-cut side where those
    find a cut of 2 or leave U at 3. stats["certified"] reports U proved
    minimum: a zero value, n = 2, or a layer search's or forest answer;
    stats["forests"] counts the forests built, and stats["rounds"], the
    flows `dominating_flows` runs later in the solve, starts at 0.
    """
    stats.update(forests=0, rounds=0, certified=False)
    state = singleton_state(oracle)
    upper = oracle.cheapest
    if upper.value == 0 or oracle.n == 2:
        stats["certified"] = True
        return state, upper
    upper, stats["certified"] = forests_first(oracle, state, upper, stats)
    return state, upper


def finish(oracle: CutOracle, best: Cut, state: ContractionState, stats: dict) -> Cut:
    """The end every route of v1 and v2 shares, from U = `best`, the
    route's answer lowered by every cut it saw, and the front's singleton
    `state`, which gives m, the edge count; K is the oracle's record.

    U stands as it is when the route proved it (stats["certified"]) or its
    value is 0. Otherwise, where U (n - 1) <= m or K holds all m edges,
    `forest_cut` from U and K proves it or replaces it with a cheaper exact
    cut, within m learned edges (none where K is G); elsewhere U is handed
    back uncertified. No random bit is drawn.
    """
    m = state.interface_edge_count()
    if stats["certified"] or best.value == 0:
        stats["certified"] = True
    elif best.value * (oracle.n - 1) <= m or sum(map(int.bit_count, oracle.known)) == 2 * m:
        best, stats["certified"] = forest_cut(oracle, best, stats), True
    return best


def _trie_walk(
    oracle: CutOracle,
    anchor: int,
    candidates: int,
    count: int | None = None,
    limit: int | None = None,
) -> list[tuple[int, int]]:
    """The vertices of `candidates` (disjoint from the anchor set) with an
    edge of G - K to the anchor, in ascending order, each with its edge
    count to the anchor: all of them, or the first `limit`. `count`, when
    given, is the count between the anchor and all candidates; K, the
    oracle's record of edges found, is left out of every count at no query
    cost.

    The walk splits at binary-trie boundaries (`trie_split`), lower half
    first, and infers each higher half's count. Empty halves cost one count
    and are skipped whole, so from one vertex the cost is about 2 log n
    queries per neighbor found plus one per pruned subtree, less where the
    block half of a count is one that another anchor whose candidates cover
    the same aligned block has already paid for. It stops, spending nothing
    more, once `limit` vertices have turned up.
    """
    if count is None and candidates:
        count = _between(oracle, anchor, candidates)
    found: list[tuple[int, int]] = []
    stack = [(candidates, count)]
    while stack and len(found) != limit:
        mask, count = stack.pop()
        while mask and count:  # down the low halves, each high half left on the stack
            if mask & (mask - 1) == 0:
                found.append((mask.bit_length() - 1, count))
                break
            low, high = trie_split(mask)
            c_low = _between(oracle, anchor, low)
            stack.append((high, count - c_low))
            mask, count = low, c_low
    return found


class _Side:
    """One end of `flow_cut`'s search for augmenting paths, kept from one
    path to the next: the vertices its root reaches in the residual graph
    (the s side), or that reach the root (the t side), kept apart from the
    other end and closed under the known residual edges outside it.

    `blocked[u]` masks the known edges at u that the side may not cross
    toward u's far end: for the s side the edges carrying a unit out of u,
    for the t side those carrying a unit into u. `via` records, in the
    order they joined, how each vertex other than the root joined: an int,
    its parent, where it joined through a known residual edge from that
    earlier vertex; or a record [support, c, pending] where a walk found it
    through c unknown edges into `support`, a set of earlier vertices.
    `pending` holds support vertices the side has dropped since, whose
    unknown edges to the vertex c still counts. Unknown edges carry no
    flow, so they are residual both ways. While the side is `clean`, every
    unknown edge leaving it leaves from its newest layer, `layer`: the walk
    that made the layer found every other one, and only a drop breaks that.
    The known edges are those of the oracle's record K.
    """

    def __init__(self, oracle: CutOracle, root: int, blocked: list[int], allowed: int):
        self.oracle = oracle
        self.root = root
        self.blocked = blocked
        self.mask = 1 << root
        self.via: dict[int, int | list[int]] = {}
        self.clean = True
        self.layer = self.mask | self.close(self.mask, allowed)

    def close(self, frontier: int, allowed: int) -> int:
        """Add every vertex of `allowed` that known residual edges reach from
        `frontier`, breadth first; returns the vertices added."""
        known = self.oracle.known
        added = 0
        while frontier:
            new = 0
            for u in bits_of(frontier):
                reach = known[u] & ~self.blocked[u] & allowed & ~self.mask & ~new
                for v in bits_of(reach):
                    self.via[v] = u
                new |= reach
            self.mask |= new
            added |= new
            frontier = new
        return added

    def grow(self, candidates: int, count: int) -> None:
        """Add the next layer: every candidate with an unknown edge to the
        side, `count` of them in all, then the candidates known edges reach
        from those. A found vertex's support is the newest layer while the
        side is clean and the whole side after a drop. From the root alone,
        the edges found are exact and become known."""
        walk = _trie_walk(self.oracle, self.mask, candidates, count)
        if not walk:
            raise RuntimeError("the side's unknown edges lead nowhere")
        known = self.oracle.known
        support = self.layer if self.clean else self.mask
        new = 0
        for v, c in walk:
            if self.mask == 1 << self.root:
                known[v] |= self.mask
                known[self.root] |= 1 << v
                self.via[v] = self.root
            else:
                self.via[v] = [support, c, 0]
            new |= 1 << v
        self.mask |= new
        self.layer = new | self.close(new, candidates)
        self.clean = True

    def learned(self, u: int, v: int) -> None:
        """The unknown edge uv has become known: the records of u and v
        that count it stop counting it."""
        for x, y in ((u, v), (v, u)):
            record = self.via.get(x)
            if isinstance(record, list) and ((record[0] | record[2]) >> y) & 1:
                record[1] -= 1
                record[2] &= ~(1 << y)

    def settle(self, v: int, record: list[int]) -> None:
        """Leave v's unknown edges to its pending vertices out of its count,
        by one count against them."""
        record[1] -= _between(self.oracle, record[2], 1 << v)
        record[2] = 0

    def repair(self, stop: int) -> None:
        """Keep, once a path is pushed, the vertices still joined to the
        root, deciding each in the order they joined. A parent-joined vertex
        stays while its parent stayed and the parent edge is residual. A
        found vertex moves its dropped support vertices to pending; it stays
        while its count exceeds them (a simple graph has at most one edge to
        each), or else while its count, settled, is positive. Once the
        ledger has reached `stop` distinct queries no settle is paid: the
        vertex counts as having none left. A vertex that fails rejoins
        through a known residual edge from a kept earlier vertex, at no
        query, or is dropped for a later walk to find again; a drop leaves
        the side unclean."""
        known = self.oracle.known
        kept, dropped = 1 << self.root, 0
        for v, how in list(self.via.items()):
            if isinstance(how, int):
                stays = (kept >> how) & 1 and not (self.blocked[how] >> v) & 1
            else:
                support, c, pending = how
                pending |= support & dropped
                how[0], how[2] = support & ~dropped, pending
                if pending and c <= pending.bit_count():
                    if self.oracle.ledger.distinct_queries < stop:
                        self.settle(v, how)
                    else:
                        how[1] = 0
                stays = how[1] > 0
            if not stays:
                reach = (u for u in bits_of(known[v] & kept) if not (self.blocked[u] >> v) & 1)
                parent = next(reach, None)
                if parent is None:
                    dropped |= 1 << v
                    del self.via[v]
                    continue
                self.via[v] = parent
            kept |= 1 << v
        if dropped:
            self.mask &= ~dropped
            self.layer &= ~dropped
            self.clean = False

    def trace(self, v: int) -> list[int]:
        """A residual path between v and the root, from v, as vertices. A
        found vertex settles any pending vertices, then finds an edge into
        its support by `_trie_walk` with limit 1; the edges found are left
        unrecorded."""
        path = [v]
        while v != self.root:
            how = self.via[v]
            if isinstance(how, int):
                v = how
            else:
                if how[2]:
                    self.settle(v, how)
                if how[1] < 1:
                    raise RuntimeError("a found vertex has no edge left into its support")
                v = _trie_walk(self.oracle, 1 << v, how[0], how[1], limit=1)[0][0]
            path.append(v)
        return path


def flow_cut(oracle: CutOracle, s: int, t: int, upper: Cut, budget: int) -> tuple[Cut, bool]:
    """A cut of value min(upper.value, lambda(s, t)) and True: `upper`
    itself, or an s-t boundary the flow queried at no more than it, with s
    on its side. Or, once `budget` distinct queries are spent, the cheapest
    of `upper` and the s-t cuts seen, and False. `upper` may be any cut of
    G, so an s-t cut with s on its side gives an s-t cut back. The flow
    starts from the oracle's record K of edges already found and writes
    every edge it learns into it. Raises ValueError where s = t.

    Unit augmenting paths (Ford and Fulkerson, 1956) over G, in which every
    edge not yet known counts as residual capacity, so only the edges the
    paths run on are ever learned. Two disjoint sides, A, what s reaches
    in the residual graph, and B, what reaches t, each closed under the
    known residual edges at no query cost, are built once and kept across
    the paths, as Boykov and Kolmogorov keep their search trees (IEEE
    TPAMI 26(9), 2004). While no residual edge runs from A into B, the side
    with fewer unknown edges leaving it, q(side) less the flow, grows by a
    layer (`_trie_walk` from the whole side). An unknown A-B edge is found
    by two walks with limit 1 over the whole sides and every walk-found
    vertex on the path by one into its support; all counts leave known
    edges out. Once a path is pushed, unless it brings the flow to
    `upper`, both sides are repaired (`_Side.repair`) and closed again, so
    the next search re-walks only the vertices they dropped; a repair pays
    no settle count once `budget` is spent. The flow is at most every s-t
    cut (weak duality), so it stops certified once it reaches `upper`,
    which falls to every cheaper q(A) and q(V - B) the search queries; a
    side that no residual edge leaves cuts exactly the flow. Reaching
    `upper` proves lambda(s, t) >= its value whether or not `upper`
    separates s from t. No random bit is drawn.
    """
    n, known = oracle.n, oracle.known
    if s == t:
        raise ValueError("s and t must differ")
    full = (1 << n) - 1
    stop = oracle.ledger.distinct_queries + budget
    out = [0] * n  # out[u] has v where a unit of flow runs from u to v
    into = [0] * n  # into[v] has u for the same unit
    flow = 0
    a = _Side(oracle, s, out, full & ~(1 << t))
    b = _Side(oracle, t, into, full & ~a.mask)
    while flow < upper.value:
        while True:
            if oracle.ledger.distinct_queries >= stop:
                return upper, False
            # a known edge with room from A into B closes a path at no query
            bridge = next((u for u in bits_of(a.mask) if known[u] & ~out[u] & b.mask), None)
            if bridge is not None:
                u, w = bridge, (known[bridge] & ~out[bridge] & b.mask).bit_length() - 1
                break
            qa, qb = oracle.query_mask(a.mask), oracle.query_mask(b.mask)
            if min(qa, qb) < flow:
                raise RuntimeError("a residual side cuts less than the flow")
            if qa <= upper.value:
                upper = better_cut(upper, Cut(frozenset(bits_of(a.mask)), qa))
            if qb <= upper.value:
                upper = better_cut(upper, Cut(frozenset(bits_of(full & ~b.mask)), qb))
            if flow == upper.value:
                return upper, True
            cross = _between(oracle, a.mask, b.mask)
            if cross > 0:
                u, c = _trie_walk(oracle, b.mask, a.mask, cross, limit=1)[0]
                w = _trie_walk(oracle, 1 << u, b.mask, c, limit=1)[0][0]
                break
            side, q = (a, qa) if qa <= qb else (b, qb)
            side.grow(full & ~a.mask & ~b.mask, q - flow)
        path = a.trace(u)[::-1] + b.trace(w)
        for u, v in zip(path, path[1:]):
            if not (known[u] >> v) & 1:
                a.learned(u, v)
                b.learned(u, v)
            known[u] |= 1 << v
            known[v] |= 1 << u
            if (into[u] >> v) & 1:  # a unit runs v -> u: cancel it
                into[u] &= ~(1 << v)
                out[v] &= ~(1 << u)
            elif (out[u] >> v) & 1:
                raise RuntimeError("an augmenting path reuses a saturated edge")
            else:
                out[u] |= 1 << v
                into[v] |= 1 << u
        flow += 1
        if flow == upper.value:
            break
        a.repair(stop)
        b.repair(stop)
        a.layer |= a.close(a.mask, full & ~b.mask)
        b.layer |= b.close(b.mask, full & ~a.mask)
    return upper, True


def dominating_flows(oracle: CutOracle, upper: Cut, budget: int, stats: dict) -> tuple[Cut, bool]:
    """The global min cut of a simple G and True, or, once `budget`
    distinct queries are spent, the cheapest cut seen and False; `upper`
    is a cut of G no dearer than its minimum degree, as after the degree
    pass.

    D is built in id order: v joins it where it has no edge into D so far,
    by one count, at most two fresh queries. So D is a maximal independent
    set, which dominates, and holds vertex 0. A cut below the minimum
    degree has a vertex on each side with no neighbor across it (Matula,
    FOCS 1987), and D holds it or a neighbor, so D meets both sides. Then
    for each t in D but 0, ascending, `flow_cut` from 0 to t, starting
    from U, the oracle's cheapest answer folded into `upper`, proves
    lambda(0, t) >= U or lowers U to it. Once every flow has run, U is the
    minimum degree or some lambda(0, t), and no cut is cheaper.
    stats["rounds"] counts the flows; no random bit is drawn.
    """
    stop = oracle.ledger.distinct_queries + budget
    dominating = 0
    for v in range(oracle.n):
        if oracle.count_between_masks(1 << v, dominating) == 0:
            dominating |= 1 << v
    for t in bits_of(dominating & ~1):
        stats["rounds"] += 1
        upper = better_cut(upper, oracle.cheapest)
        upper, proved = flow_cut(oracle, 0, t, upper, stop - oracle.ledger.distinct_queries)
        if not proved:
            return upper, False
    return better_cut(upper, oracle.cheapest), True


def _disjoint_union(masks: list[int]) -> int:
    """The union of the group masks; raises ValueError where two overlap."""
    union = 0
    for m in masks:
        if union & m:
            raise ValueError("group masks overlap")
        union |= m
    return union


def learn_intergroup_edges(
    oracle: CutOracle,
    masks: list[int],
    abort_above: int | None = None,
) -> list[tuple[int, int]] | None:
    """Every edge running between distinct groups, each reported once, in
    ascending order: those of G - K learned into the oracle's record K,
    and K's own at no query.

    Each vertex learns its neighbors among the higher ids of the other
    groups by a `_trie_walk` from itself, so an edge is found from its
    lower endpoint only; the list is then read off K. Returns None once
    more than `abort_above` edges of G - K turn up, keeping in K those
    found: each walk's `limit` stops it at the edge that takes the total
    past `abort_above`, so no query is spent after that one. A negative
    `abort_above` is rejected.
    """
    if abort_above is not None and abort_above < 0:
        raise ValueError(f"abort_above must be at least 0, got {abort_above}")
    union = _disjoint_union(masks)
    higher = {v: union & ~m & ~((2 << v) - 1) for m in masks for v in bits_of(m)}
    known, found = oracle.known, 0
    for v in sorted(higher):
        limit = None if abort_above is None else abort_above - found + 1
        for u, _ in _trie_walk(oracle, 1 << v, higher[v], limit=limit):
            known[u] |= 1 << v
            known[v] |= 1 << u
            found += 1
        if abort_above is not None and found > abort_above:
            return None
    return [(v, u) for v in sorted(higher) for u in bits_of(known[v] & higher[v])]


def learn_graph(
    oracle: CutOracle, abort_above: int | None = None
) -> SimpleGraph | None:
    """Reconstruct the hidden graph: `learn_intergroup_edges` over
    singletons, so K then holds G.

    Spends at most 4 (n + m ceil(log2 n)) distinct queries. Returns None as
    soon as the count of edges found outside K exceeds `abort_above`.
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
    Raises ValueError, before any query, when k is negative or the groups
    overlap, and when k exceeds w.
    """
    if k < 0:
        raise ValueError("negative sample size")
    union = _disjoint_union(masks)
    if k == 0:
        return []
    degrees = [oracle.count_between_masks(m, union & ~m) for m in masks]
    total_deg = sum(degrees)
    if total_deg % 2:
        raise RuntimeError("odd inter-group degree total")
    w = total_deg // 2
    if k > w:
        raise ValueError(f"family holds {w} inter-group edges; cannot pick {k}")
    if 2 * k >= w:
        edges = learn_intergroup_edges(oracle, masks)
        rng.shuffle(edges)
        return edges[:k]
    budget = 50 * k * ceil_log2(max(2, oracle.n))
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    for _ in range(budget):
        gi = weighted_index(rng, degrees, total_deg)
        g = masks[gi]
        u, c_u = descend(oracle, union & ~g, g, degrees[gi], rng)
        e = normalize_edge(u, descend(oracle, 1 << u, union & ~g, c_u, rng)[0])
        if e not in seen:
            seen.add(e)
            out.append(e)
            if len(out) == k:
                return out
    raise RuntimeError("rejection budget exhausted before k distinct edges")


__all__ = [
    "descend",
    "first_edge",
    "trie_split",
    "find_neighbor",
    "spanning_forest",
    "forest_cut",
    "forests_first",
    "singleton_state",
    "front",
    "finish",
    "flow_cut",
    "dominating_flows",
    "learn_graph",
    "learn_intergroup_edges",
    "sample_intergroup_edges",
]
