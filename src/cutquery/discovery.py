"""Learning hidden edges through cut queries.

Single edges are tested with three queries. Finding one neighbor of a vertex
inside a candidate set uses binary descent: query the lower half of the
candidates against the vertex, recurse into whichever half holds an edge.
Only the lower half is ever queried; the other count is inferred, so a
descent over k candidates spends at most 3 ceil(log2 k) + 3 distinct
queries. The same descent, with random walk choices weighted by edge counts,
yields exactly uniform edge samples.

Two split rules serve the two kinds of walk. Single descents (the neighbor
finder and the samplers) split by rank, `split_mask`: the lower half holds
the smaller ids, so every descent over k candidates is ceil(log2 k) levels
deep and its random choices do not depend on where the ids sit. The
learner, `learn_vertex_edges`, walks every branch for many anchors, and
splits at id-aligned binary-trie boundaries, `trie_split`: the lower half
is the candidates inside an aligned block of ids. Counting an anchor
against a block queries the block on its own, and an aligned block is the
same vertex set for every anchor whose candidates cover it, so the memo
pays for it once rather than once per anchor. The trie has ceil(log2 n)
levels and both rules report neighbors in ascending order.
"""

from __future__ import annotations

import random
from typing import Iterable

from .graph import SimpleGraph, bits_of, mask_of, normalize_edge
from .oracle import OracleBase
from .rng import weighted_index


class _AbortLearning(Exception):
    """Internal: raised when a learning budget is exceeded."""


def split_mask(mask: int) -> tuple[int, int]:
    """Split candidates into (low ids, high ids), low half no smaller."""
    k = mask.bit_count()
    if k < 2:
        raise ValueError("nothing to split")
    take = (k + 1) // 2
    low = 0
    m = mask
    for _ in range(take):
        bit = m & -m
        low |= bit
        m ^= bit
    return low, m


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


def _descend_to_neighbor(
    oracle: OracleBase,
    anchor: int,
    candidates: int,
    rng: random.Random | None = None,
    total: int | None = None,
) -> tuple[int, int]:
    """One vertex of `candidates` adjacent to the anchor set.

    Deterministic mode walks into the lower half whenever it holds any edge.
    With an rng, each half is chosen with probability proportional to its
    edge count to the anchor, so the endpoint is picked uniformly among the
    anchor's neighbors in `candidates` weighted by multiplicity. Returns the
    vertex and the edge count between it and the anchor (free knowledge from
    the last level). `total`, when given, must equal the edge count between
    anchor and candidates and saves the opening count.
    """
    if anchor & candidates:
        raise ValueError("anchor and candidates overlap")
    if total is None:
        total = oracle.count_between_masks(anchor, candidates)
    if total <= 0:
        raise ValueError("no edge between anchor and candidates")
    while candidates.bit_count() > 1:
        low, high = split_mask(candidates)
        c_low = oracle.count_between_masks(anchor, low)
        if (rng.randrange(total) < c_low) if rng is not None else (c_low > 0):
            candidates, total = low, c_low
        else:
            candidates, total = high, total - c_low
    return candidates.bit_length() - 1, total


def find_neighbor(
    oracle: OracleBase,
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
    return _descend_to_neighbor(oracle, 1 << v, cand, total=total)[0]


def learn_vertex_edges(
    oracle: OracleBase,
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


def learn_graph(
    oracle: OracleBase,
    pairs_scope: Iterable[tuple[int, int]] | None = None,
    abort_above: int | None = None,
) -> SimpleGraph | None:
    """Reconstruct hidden edges by repeated neighbor descent.

    With no scope the whole graph is learned in at most
    4 (n + m ceil(log2 n)) distinct queries. Otherwise `pairs_scope` lists
    (mask, mask) pairs of disjoint vertex groups and only edges running
    between the two sides of some listed pair are learned. When
    `abort_above` is given, learning stops and returns None as soon as the
    found-edge count exceeds it; otherwise a SimpleGraph over the oracle's
    full vertex range is returned (edges outside the scope are absent).
    """
    n = oracle.n
    cand: dict[int, int] = {}
    if pairs_scope is None:
        full = (1 << n) - 1
        for v in range(n):
            above = full & ~((2 << v) - 1)
            if above:
                cand[v] = above
    else:
        for a, b in pairs_scope:
            if a & b:
                raise ValueError("scope pair masks overlap")
            for v in bits_of(a):
                cand[v] = cand.get(v, 0) | b
            for v in bits_of(b):
                cand[v] = cand.get(v, 0) | a
        for v in list(cand):
            cand[v] &= ~((2 << v) - 1)  # keep higher ids: each edge found once
            if cand[v] == 0:
                del cand[v]
    edges: list[tuple[int, int]] = []
    try:
        for v in sorted(cand):
            budget = None if abort_above is None else abort_above - len(edges)
            for u in learn_vertex_edges(oracle, v, cand[v], stop_above=budget):
                edges.append((v, u))
    except _AbortLearning:
        return None
    return SimpleGraph.from_edges(n, edges)


def learn_within(oracle: OracleBase, scope: int) -> list[tuple[int, int]]:
    """Every edge with both endpoints inside the scope mask, each once."""
    edges: list[tuple[int, int]] = []
    verts = list(bits_of(scope))
    above = scope
    for v in verts:
        above &= ~(1 << v)
        for u in learn_vertex_edges(oracle, v, above):
            edges.append((v, u))
    return edges


def learn_intergroup_edges(
    oracle: OracleBase,
    masks: list[int],
    abort_above: int | None = None,
) -> list[tuple[int, int]] | None:
    """Edges running between distinct groups, each reported once.

    Equivalent to learn_graph over every pair of groups, but the per-vertex
    candidate masks are built directly, which matters once there are
    hundreds of groups. Returns None when `abort_above` is exceeded.
    """
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


def sample_uniform_edge(
    oracle: OracleBase,
    degrees: dict[int, int],
    rng: random.Random,
) -> tuple[int, int]:
    """Uniform random edge inside the scope whose in-scope degrees are given.

    `degrees` maps vertex id to its number of edges toward other scope
    vertices; every caller here has them on hand already. One endpoint is
    drawn proportionally to degree, the other by randomized descent, which
    lands on each edge with probability exactly 1/m.
    """
    scope = mask_of(degrees)
    verts = sorted(degrees)
    weights = [degrees[u] for u in verts]
    total = sum(weights)
    if total == 0:
        raise ValueError("scope contains no edges")
    u = verts[weighted_index(rng, weights, total)]
    v, _ = _descend_to_neighbor(
        oracle, 1 << u, scope & ~(1 << u), rng=rng, total=degrees[u]
    )
    return normalize_edge(u, v)


def scope_degrees(oracle: OracleBase, scope: int) -> dict[int, int]:
    """In-scope degree of every scope vertex; about 2|scope| fresh queries."""
    return {
        u: oracle.count_between_masks(1 << u, scope & ~(1 << u)) for u in bits_of(scope)
    }


def sample_k_distinct_edges(
    oracle: OracleBase,
    scope: int,
    k: int,
    rng: random.Random,
) -> list[tuple[int, int]]:
    """k distinct uniformly-drawn edges within the induced scope.

    Rejection sampling against a seen-set, with budget 50 k log2 n; when k
    is within a factor two of the scope's edge count the whole induced
    subgraph is learned instead, which is cheaper than rejection there.
    Raises ValueError when fewer than k edges exist.
    """
    if k < 0:
        raise ValueError("negative sample size")
    if k == 0:
        return []
    degrees = scope_degrees(oracle, scope)
    m_inside = sum(degrees.values()) // 2
    if k > m_inside:
        raise ValueError(f"scope holds {m_inside} edges; cannot pick {k} distinct")
    if 2 * k >= m_inside:
        edges = learn_within(oracle, scope)
        rng.shuffle(edges)
        return edges[:k]
    budget = 50 * k * max(1, (max(2, oracle.n) - 1).bit_length())
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    for _ in range(budget):
        e = sample_uniform_edge(oracle, degrees, rng)
        if e not in seen:
            seen.add(e)
            out.append(e)
            if len(out) == k:
                return out
    raise RuntimeError("rejection budget exhausted before k distinct edges")


def sample_intergroup_edges(
    oracle: OracleBase,
    masks: list[int],
    k: int,
    rng: random.Random,
    inside_degrees: list[int] | None = None,
    known_edges: list[tuple[int, int]] | None = None,
) -> list[tuple[int, int]]:
    """k distinct uniform edges running between groups of the family.

    `inside_degrees[i]` is the edge count between masks[i] and the other
    groups; callers usually know it. Draws pick a group proportionally to
    that degree, then one endpoint in the group by randomized descent, then
    its partner in the rest, so each inter-group edge arrives with
    probability 1/w. Falls back to learning all inter-group edges when k is
    within a factor two of w. `known_edges`, every inter-group edge of the
    family in ascending order, stands in for that learning and for the
    degrees at no query cost; the random stream is the same either way.
    """
    union = 0
    for m in masks:
        union |= m
    if inside_degrees is None and known_edges is not None:
        owner = {v: i for i, m in enumerate(masks) for v in bits_of(m)}
        inside_degrees = [0] * len(masks)
        for u, v in known_edges:
            inside_degrees[owner[u]] += 1
            inside_degrees[owner[v]] += 1
    if inside_degrees is None:
        inside_degrees = [
            oracle.count_between_masks(m, union & ~m) for m in masks
        ]
    w = sum(inside_degrees)
    if w % 2:
        raise RuntimeError("odd inter-group degree total")
    w //= 2
    if k > w:
        raise ValueError(f"family holds {w} inter-group edges; cannot pick {k}")
    if k == 0:
        return []
    if 2 * k >= w:
        if known_edges is None:
            edges = learn_intergroup_edges(oracle, masks)
        else:
            edges = list(known_edges)
        if edges is None:
            raise RuntimeError("learning without a budget gave up")
        rng.shuffle(edges)
        return edges[:k]
    budget = 50 * k * max(1, (max(2, oracle.n) - 1).bit_length())
    seen: set[tuple[int, int]] = set()
    out: list[tuple[int, int]] = []
    total_deg = sum(inside_degrees)
    for _ in range(budget):
        gi = weighted_index(rng, inside_degrees, total_deg)
        g = masks[gi]
        rest = union & ~g
        u, c_u = _descend_to_neighbor(
            oracle, rest, g, rng=rng, total=inside_degrees[gi]
        )
        v, _ = _descend_to_neighbor(oracle, 1 << u, rest, rng=rng, total=c_u)
        e = normalize_edge(u, v)
        if e not in seen:
            seen.add(e)
            out.append(e)
            if len(out) == k:
                return out
    raise RuntimeError("rejection budget exhausted before k distinct edges")


__all__ = [
    "split_mask",
    "trie_split",
    "find_neighbor",
    "learn_vertex_edges",
    "learn_graph",
    "learn_within",
    "learn_intergroup_edges",
    "sample_uniform_edge",
    "scope_degrees",
    "sample_k_distinct_edges",
    "sample_intergroup_edges",
]
