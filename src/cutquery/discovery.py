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
queries besides the anchor's own. Given the edges already found, K, as an
adjacency mask per vertex, a walk leaves them out of every count at no
query cost and so walks G - K.

`descend` finds one vertex and splits by rank, the lower ceil(k/2) of the
k candidates left, so it is ceil(log2 k) levels deep whatever ids they
hold. With no rng it ends at the lowest-id neighbor; with an rng it picks
a vertex with probability proportional to its edges. The neighbor finder,
both samplers and `flow_cut`'s path edges descend.

`_trie_walk` splits at id-aligned binary-trie boundaries, `trie_split`:
the lower half is the candidates inside an aligned block of ids, which is
the same vertex set for every anchor whose candidates cover it, so the
memo pays for its count once rather than once per anchor. It reports the
neighbors in ascending order, all of them or the first `limit`, within
ceil(log2 n) levels. The learner walks from each vertex and `flow_cut`
grows its sides by it. `first_edge` ends in it with limit 1: the count
says about one edge lies in every n / count ids, so it first gallops over
aligned blocks that start at about that size and double, skipping the
trie's top levels where the anchor's edges are spread over the ids.
`spanning_forest` builds a maximal spanning forest of G - K from
`first_edge` walks, Borůvka-style; `forest_cut` stacks such forests until
their union proves the global min cut.

v1 and v2 each run front -> route -> finish, and reach forests only
through the two ends. `front` runs the degree pass, answers a zero degree
or n = 2, and tries forests (`forests_first`), keeping U, the cheapest cut
seen: where U (n - 1) <= m, m the edge count, if U <= ceil(log2 n), and
where 2 (n - 1) ceil(log2 n) <= m if U is larger. The pipeline's own
route lowers U. `finish` proves U, or replaces it with a cheaper exact
cut, by forests where U (n - 1) <= m, and otherwise leaves it unproved.
Forests draw no random bits, so a route sees one stream whether they run
or not.

st proves its cut with `flow_cut`: unit augmenting paths in which every
edge not yet found counts as residual capacity, so it learns only the
edges its paths run on. It keeps an s side and a t side of the residual
graph from one path to the next, as Boykov and Kolmogorov keep their
search trees. A side grows a layer at a time, each layer by one trie walk
from the whole side; an edge between the sides is found by two descents,
and each walk-found vertex on the path by a descent into its support, the
earlier side vertices the walk counted it against. After each path both
sides are repaired in the order their vertices joined: a vertex stays
while the edge it joined through is still residual or its count into its
support is still positive, else rejoins through a known residual edge
from an earlier vertex, else is dropped for a later walk to find again.
The flow stops once it meets an s-t boundary it queried, which weak
duality proves minimum, or gives up past a distinct-query budget, which
st and v1 set at the price of learning G; it draws no random bits.

v1 proves its global cut with flows too (`dominating_flows`). In a simple
graph every side of a cut below the minimum degree holds a vertex with no
neighbor across it (Matula, FOCS 1987), so a dominating set D meets both
sides, and the min cut is the minimum degree or some lambda(0, t), t in
D. D is a maximal independent set drawn greedily in id order, and one
flow from vertex 0 to each t proves U or lowers it, all of them on K.

A solve keeps one record of the edges it has found, K: the `known` masks
of its `ContractionState`, which copies share. The forests and the flow
walk G - K and write what they find into it, and so does the learner
when `contraction.learn_pair_counts` runs it, so no phase pays again for
an edge another has found. `finish` reads it too: once K holds all m
edges it is G, and the forests answer from it at no query.
"""

from __future__ import annotations

import random
from typing import Iterable

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


def _known_between(known: list[int], a: int, b: int) -> int:
    """Known edges between the disjoint vertex sets a and b, counted from
    whichever side has fewer vertices; no query."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    return sum((known[v] & b).bit_count() for v in bits_of(a))


def _between(oracle: CutOracle, anchor: int, mask: int, known: list[int] | None) -> int:
    """Edges between the disjoint vertex sets anchor and mask, the `known`
    ones (if any) left out at no query cost."""
    c = oracle.count_between_masks(anchor, mask)
    return c if known is None else c - _known_between(known, anchor, mask)


def descend(
    oracle: CutOracle,
    anchor: int,
    candidates: int,
    total: int,
    rng: random.Random | None = None,
    known: list[int] | None = None,
) -> tuple[int, int]:
    """One vertex of `candidates` (disjoint from the anchor set) with an
    edge to the anchor, and its edge count to the anchor.

    Each level counts the lower ceil(k/2) of the k remaining candidate ids
    against the anchor. With no rng the walk takes the lower half whenever
    it holds an edge, so it ends at the lowest-id candidate with one; with
    an rng each half is taken with probability proportional to its edge
    count, so a vertex is picked with probability proportional to its
    edges. `known`, an adjacency mask per vertex, names edges already
    found: each count leaves them out, at no query cost, so the walk runs
    over the graph without them. `total` must equal the edge count between
    the anchor and all the candidates, known edges left out likewise.
    Raises ValueError, before any query, where there is no candidate or
    `total` is not positive.
    """
    if total <= 0 or candidates == 0:
        raise ValueError("no edge between the anchor and the candidates")
    ids = list(bits_of(candidates))
    lo, hi = 0, len(ids)
    while hi - lo > 1:
        mid = (lo + hi + 1) // 2
        c_low = _between(oracle, anchor, mask_of(ids[lo:mid]), known)
        if (rng.randrange(total) < c_low) if rng is not None else (c_low > 0):
            hi, total = mid, c_low
        else:
            lo, total = mid, total - c_low
    return ids[lo], total


def first_edge(
    oracle: CutOracle,
    anchor: int,
    candidates: int,
    total: int,
    known: list[int] | None = None,
) -> tuple[int, int]:
    """What `descend` with no rng returns: the lowest-id vertex of
    `candidates` with an edge to the anchor, and its count. `total` and
    `known` are as for `descend`.

    About one edge lies in every n / `total` ids, so the walk skips the
    trie's top levels: with s the smallest power of two at least n / total,
    it gallops over the id-aligned blocks [0, s), [s, 2s), [2s, 4s), ...
    (each cut to the candidates), the trie nodes hanging off its leftmost
    path, counting each non-empty one until one holds an edge; the last
    non-empty block's count is inferred. It ends in `_trie_walk` over that
    block with limit 1. Aligned blocks are the same vertex sets for many
    anchors, so the memo shares their queries. With L = ceil(log2 n), the
    walk makes at most L + max(0, L - log2 s - 1) counts, each at most two
    distinct queries besides the anchor's own; no random bit is drawn.
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
            c = _between(oracle, anchor, block, known)
            if c > 0:
                total = c
                break
        end *= 2
    return _trie_walk(oracle, anchor, block, total, known, limit=1)[0]


def find_neighbor(
    oracle: CutOracle,
    v: int,
    candidates: Iterable[int] | int,
    exclude: Iterable[int] | int = 0,
) -> int | None:
    """Some neighbor of v among candidates minus exclude, or None: the
    lowest-id one, by `descend` from v over the candidate mask.

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
    return descend(oracle, 1 << v, cand, total)[0]


def spanning_forest(oracle: CutOracle, known: list[int]) -> list[tuple[int, int]]:
    """A maximal spanning forest of G - K, K the edges `known` names (an
    adjacency mask per vertex), as ascending vertex pairs.

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
            out = oracle.query_mask(comp) - _known_between(known, comp, rest)
            if out == 0:
                continue
            u, c_u = first_edge(oracle, rest, comp, out, known)
            w, _ = first_edge(oracle, 1 << u, rest, c_u, known)
            forest.append(normalize_edge(u, w))
            still_open.append(state.merge_group_set((r, w)))
        open_roots = sorted(set(still_open))
    return sorted(forest)


def forest_cut(
    oracle: CutOracle, upper: Cut, m: int, known: list[int], stats: dict
) -> tuple[Cut, bool]:
    """Exact global min cut of G from edge-disjoint maximal spanning forests
    (Nagamochi and Ibaraki, Algorithmica 1992) and True, or, once they stop
    paying, the cheapest cut seen and False.

    `known` is the solve's record K of edges already found, an adjacency
    mask per vertex; the forests start from it and are written into it.
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
    answer costs no fresh query. The loop ends by forest
    min(lambda + 1, upper.value), lambda the min cut value, and a forest has
    at most n - 1 edges, so while upper.value (n - 1) <= m, m the edge count
    of G, the forests learn at most m edges. After each forest the loop goes
    on only while that holds. stats["forests"] counts the forests built; no
    random bit is drawn.

    The give-up branch fires only where `forests_first` enters the loop
    from U = upper.value > ceil(log2 n): `upper` never rises in it, and
    both `forests_first` from a lower U and `finish` enter it only where
    upper.value (n - 1) <= m already holds or, for `finish`, where K is G
    and the first forest comes back empty, so from there the loop always
    ends certified.
    """
    n = oracle.n
    i = 0
    while True:
        forest = spanning_forest(oracle, known)
        upper = better_cut(upper, oracle.cheapest)
        i += 1
        stats["forests"] += 1
        for u, v in forest:
            known[u] |= 1 << v
            known[v] |= 1 << u
        h = WeightedGraph(n, {normalize_edge(u, v): 1 for u in range(n) for v in bits_of(known[u])})
        cut = deterministic_min_cut(h)
        if cut.value < i or not forest:
            return cut, True
        if cut.value >= upper.value:
            return upper, True
        if upper.value * (n - 1) > m:
            return upper, False


def forests_first(
    oracle: CutOracle, state: ContractionState, upper: Cut, stats: dict
) -> tuple[Cut, bool]:
    """`forest_cut` where forests are worth a try before anything else, or
    `upper` and False where they are not. With U = `upper.value`, L =
    ceil(log2 n) and m the edge count the degree pass's singleton `state`
    gives, they enter where U (n - 1) <= m if U <= L, and where
    2 (n - 1) L <= m if U > L. They write their edges into the state's
    record, which every later phase of the solve reads.

    Where U <= L this is the finish's rule: the forests stop by forest U,
    and since U never rises they never give up, having learned at most
    U (n - 1) <= m edges, each at 0.9 to 1.6 times a learned edge's price
    (forests 1 to 3 on random and planted graphs at n = 256). Where a
    boundary below U stops them early they cost well below learning G
    (planted cuts of 2 or 3 below degrees of 4 to 6 at n = 256: 0.45 to
    0.69 of `learn_graph`); where lambda = U all U forests run, at up to
    1.31 times `learn_graph` (gnp(64, 12/63), lambda = 6, the worst of 38
    sparse random and planted graphs). Where U > L one forest, n - 1 edges
    at 4 to 8 queries each at n = 256, is a gamble that a component
    boundary undercuts U.
    """
    n = oracle.n
    m = state.interface_edge_count()
    log_n = ceil_log2(n)
    if (upper.value if upper.value <= log_n else 2 * log_n) * (n - 1) > m:
        return upper, False
    return forest_cut(oracle, upper, m, state.known, stats)


def singleton_state(oracle: CutOracle) -> ContractionState:
    """Fresh all-singletons state with every degree queried and recorded."""
    degrees = [oracle.vertex_degree(v) for v in range(oracle.n)]
    return ContractionState(oracle.n, degrees)


def front(oracle: CutOracle, stats: dict) -> tuple[ContractionState, Cut]:
    """The start v1 and v2 share: the degree pass, then forests first.

    Returns the singleton state and U, the oracle's cheapest answer
    (`CutOracle.cheapest`): on a fresh oracle the first vertex of minimum
    degree, lowered by any cheaper cut the forests query. Forests run where
    U (n - 1) <= m if U <= ceil(log2 n), and where 2 (n - 1) ceil(log2 n)
    <= m if U is larger (`forests_first`), and prove any U <= ceil(log2 n)
    they run from. stats["certified"] reports U proved minimum: a zero
    value, n = 2 or a forest answer; stats["forests"] counts the forests
    built.
    """
    stats.update(forests=0, certified=False)
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
    `state`, which gives m, the edge count, and the solve's record K.

    U stands as it is when the route proved it (stats["certified"]) or its
    value is 0. Otherwise, where U (n - 1) <= m or K holds all m edges,
    `forest_cut` from U and K proves it or replaces it with a cheaper exact
    cut, within m learned edges (none where K is G); elsewhere U is handed
    back uncertified. No random bit is drawn.
    """
    m = state.interface_edge_count()
    if stats["certified"] or best.value == 0:
        stats["certified"] = True
    elif best.value * (oracle.n - 1) <= m or sum(map(int.bit_count, state.known)) == 2 * m:
        best, stats["certified"] = forest_cut(oracle, best, m, state.known, stats)
    return best


def _trie_walk(
    oracle: CutOracle,
    anchor: int,
    candidates: int,
    count: int | None = None,
    known: list[int] | None = None,
    limit: int | None = None,
) -> list[tuple[int, int]]:
    """The vertices of `candidates` (disjoint from the anchor set) with an
    edge to the anchor, in ascending order, each with its edge count to the
    anchor: all of them, or the first `limit`. `count`, when given, is the
    count between the anchor and all candidates; `known` edges are left out
    of every count, at no query cost.

    The walk splits at binary-trie boundaries (`trie_split`), lower half
    first, and infers each higher half's count. Empty halves cost one count
    and are skipped whole, so from one vertex the cost is about 2 log n
    queries per neighbor found plus one per pruned subtree, less where the
    block half of a count is one that another anchor whose candidates cover
    the same aligned block has already paid for. It stops, spending nothing
    more, once `limit` vertices have turned up.
    """
    if count is None and candidates:
        count = _between(oracle, anchor, candidates, known)
    found: list[tuple[int, int]] = []
    stack = [(candidates, count)]
    while stack and len(found) != limit:
        mask, count = stack.pop()
        while mask and count:  # down the low halves, each high half left on the stack
            if mask & (mask - 1) == 0:
                found.append((mask.bit_length() - 1, count))
                break
            low, high = trie_split(mask)
            c_low = _between(oracle, anchor, low, known)
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
    """

    def __init__(self, root: int, blocked: list[int], known: list[int], allowed: int):
        self.root = root
        self.blocked = blocked
        self.mask = 1 << root
        self.via: dict[int, int | list[int]] = {}
        self.clean = True
        self.layer = self.mask | self.close(known, self.mask, allowed)

    def close(self, known: list[int], frontier: int, allowed: int) -> int:
        """Add every vertex of `allowed` that known residual edges reach from
        `frontier`, breadth first; returns the vertices added."""
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

    def grow(self, oracle: CutOracle, known: list[int], candidates: int, count: int) -> None:
        """Add the next layer: every candidate with an unknown edge to the
        side, `count` of them in all, then the candidates known edges reach
        from those. A found vertex's support is the newest layer while the
        side is clean and the whole side after a drop. From the root alone,
        the edges found are exact and become known."""
        walk = _trie_walk(oracle, self.mask, candidates, count, known)
        if not walk:
            raise RuntimeError("the side's unknown edges lead nowhere")
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
        self.layer = new | self.close(known, new, candidates)
        self.clean = True

    def learned(self, u: int, v: int) -> None:
        """The unknown edge uv has become known: the records of u and v
        that count it stop counting it."""
        for x, y in ((u, v), (v, u)):
            record = self.via.get(x)
            if isinstance(record, list) and ((record[0] | record[2]) >> y) & 1:
                record[1] -= 1
                record[2] &= ~(1 << y)

    def settle(self, oracle: CutOracle, known: list[int], v: int, record: list[int]) -> None:
        """Leave v's unknown edges to its pending vertices out of its count,
        by one count against them."""
        record[1] -= _between(oracle, record[2], 1 << v, known)
        record[2] = 0

    def repair(self, oracle: CutOracle, known: list[int]) -> None:
        """Keep, once a path is pushed, the vertices still joined to the
        root, deciding each in the order they joined. A parent-joined vertex
        stays while its parent stayed and the parent edge is residual. A
        found vertex moves its dropped support vertices to pending; it stays
        while its count exceeds them (a simple graph has at most one edge to
        each), or else while its count, settled, is positive. A vertex
        that fails rejoins through a known residual edge from a kept earlier
        vertex, at no query, or is dropped for a later walk to find again;
        a drop leaves the side unclean."""
        kept, dropped = 1 << self.root, 0
        for v, how in list(self.via.items()):
            if isinstance(how, int):
                stays = (kept >> how) & 1 and not (self.blocked[how] >> v) & 1
            else:
                support, c, pending = how
                pending |= support & dropped
                how[0], how[2] = support & ~dropped, pending
                if pending and c <= pending.bit_count():
                    self.settle(oracle, known, v, how)
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

    def trace(self, oracle: CutOracle, known: list[int], v: int) -> list[int]:
        """A residual path between v and the root, from v, as vertices. A
        found vertex settles any pending vertices, then finds an edge into
        its support by `descend`; the edges found are left unrecorded."""
        path = [v]
        while v != self.root:
            how = self.via[v]
            if isinstance(how, int):
                v = how
            else:
                if how[2]:
                    self.settle(oracle, known, v, how)
                if how[1] < 1:
                    raise RuntimeError("a found vertex has no edge left into its support")
                v, _ = descend(oracle, 1 << v, how[0], how[1], known=known)
            path.append(v)
        return path


def flow_cut(
    oracle: CutOracle, s: int, t: int, upper: Cut, budget: int, known: list[int]
) -> tuple[Cut, bool]:
    """A cut of value min(upper.value, lambda(s, t)) and True: `upper`
    itself, or an s-t boundary the flow queried at no more than it, with s
    on its side. Or, once `budget` distinct queries are spent, the cheapest
    of `upper` and the s-t cuts seen, and False. `upper` may be any cut of
    G, so an s-t cut with s on its side gives an s-t cut back; `known` is
    the solve's record of edges already found, which the flow starts from
    and writes every edge it learns into. Raises ValueError where s = t.

    Unit augmenting paths (Ford and Fulkerson, 1956) over G, in which every
    edge not yet known counts as residual capacity, so only the edges the
    paths run on are ever learned. Two disjoint sides, A, what s reaches
    in the residual graph, and B, what reaches t, each closed under the
    known residual edges at no query cost, are built once and kept across
    the paths, as Boykov and Kolmogorov keep their search trees (IEEE
    TPAMI 26(9), 2004). While no residual edge runs from A into B, the side
    with fewer unknown edges leaving it, q(side) less the flow, grows by a
    layer (`_trie_walk` from the whole side). An unknown A-B edge is found
    by two `descend` walks over the whole sides and every walk-found vertex
    on the path by a descent into its support; all counts leave known edges
    out. Once a path is pushed, both sides are repaired (`_Side.repair`)
    and closed again, so the next search re-walks only the vertices they
    dropped. The flow is at most every s-t cut (weak duality), so it stops
    certified once it reaches `upper`, which falls to every cheaper q(A)
    and q(V - B) the search queries; a side that no residual edge leaves
    cuts exactly the flow. Reaching `upper` proves lambda(s, t) >= its
    value whether or not `upper` separates s from t. No random bit is
    drawn.
    """
    n = oracle.n
    if s == t:
        raise ValueError("s and t must differ")
    full = (1 << n) - 1
    start = oracle.ledger.distinct_queries
    out = [0] * n  # out[u] has v where a unit of flow runs from u to v
    into = [0] * n  # into[v] has u for the same unit
    flow = 0
    a = _Side(s, out, known, full & ~(1 << t))
    b = _Side(t, into, known, full & ~a.mask)
    while flow < upper.value:
        while True:
            if oracle.ledger.distinct_queries - start >= budget:
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
            cross = _between(oracle, a.mask, b.mask, known)
            if cross > 0:
                u, c = descend(oracle, b.mask, a.mask, cross, known=known)
                w, _ = descend(oracle, 1 << u, b.mask, c, known=known)
                break
            side, q = (a, qa) if qa <= qb else (b, qb)
            side.grow(oracle, known, full & ~a.mask & ~b.mask, q - flow)
        path = a.trace(oracle, known, u)[::-1] + b.trace(oracle, known, w)
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
        a.repair(oracle, known)
        b.repair(oracle, known)
        a.layer |= a.close(known, a.mask, full & ~b.mask)
        b.layer |= b.close(known, b.mask, full & ~a.mask)
    return upper, True


def dominating_flows(
    oracle: CutOracle, upper: Cut, budget: int, known: list[int], stats: dict
) -> tuple[Cut, bool]:
    """The global min cut of a simple G and True, or, once `budget`
    distinct queries are spent, the cheapest cut seen and False; `upper`
    is a cut of G no dearer than its minimum degree, as after the degree
    pass, and `known` the solve's record K.

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
        upper, proved = flow_cut(oracle, 0, t, upper, stop - oracle.ledger.distinct_queries, known)
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
    known: list[int] | None = None,
) -> list[tuple[int, int]] | None:
    """Edges running between distinct groups, each reported once, in
    ascending order; with a record `known` of edges already found, K, only
    those of G - K, at no query for K's own.

    Each vertex learns its neighbors among the higher ids of the other
    groups by a `_trie_walk` from itself, so an edge is found from its
    lower endpoint only. Returns None once more than `abort_above` edges
    turn up: each walk's `limit` stops it at the edge that takes the total
    past `abort_above`, so no query is spent after that one. A negative
    `abort_above` is rejected.
    """
    if abort_above is not None and abort_above < 0:
        raise ValueError(f"abort_above must be at least 0, got {abort_above}")
    union = _disjoint_union(masks)
    owner = {v: m for m in masks for v in bits_of(m)}
    edges: list[tuple[int, int]] = []
    for v in sorted(owner):
        cand = union & ~owner[v] & ~((2 << v) - 1)
        limit = None if abort_above is None else abort_above - len(edges) + 1
        edges += [(v, u) for u, _ in _trie_walk(oracle, 1 << v, cand, known=known, limit=limit)]
        if abort_above is not None and len(edges) > abort_above:
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
