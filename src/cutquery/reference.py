"""Exact cut computations on fully known graphs.

The pipelines end on graphs they have materialized (the sparsifier H, a
learned contracted multigraph, the pieces of a strength decomposition) and
solve them here: `deterministic_min_cut` for global cuts, by
Nagamochi-Ibaraki contraction, and `st_min_cut_known` for s-t cuts, by max
flow. Every known graph is an integer multigraph, so all of it runs in
exact integer arithmetic. The brute force sweeps over bipartitions and the
definitional strength sweep share no logic with those solvers, so tests can
cross-check everything against them.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

import numpy as np

from .flow import max_flow
from .graph import (
    Cut,
    SimpleGraph,
    UnionFind,
    Weight,
    WeightedGraph,
    bits_of,
)

BRUTE_FORCE_LIMIT = 24


def _as_weighted(g: SimpleGraph | WeightedGraph) -> WeightedGraph:
    return g.to_weighted() if isinstance(g, SimpleGraph) else g


# The sweep's int64 intermediates reach twice the total weight (x.deg before
# the quadratic term comes off), so totals stay below 2^61 to leave int64
# (2^63) a factor of two of headroom.
SWEEP_WEIGHT_LIMIT = 1 << 61


def _check_sweep_range(weights: dict[tuple[int, int], int]) -> None:
    if sum(weights.values()) >= SWEEP_WEIGHT_LIMIT:
        raise ValueError("weights too large for the exact integer sweep")


def _mask_cut_values(
    weights: dict[tuple[int, int], int], n: int, masks: np.ndarray
) -> np.ndarray:
    """Exact integer cut values for an array of side masks; callers keep the
    total weight under SWEEP_WEIGHT_LIMIT."""
    x = ((masks[:, None] >> np.arange(n, dtype=np.uint64)) & 1).astype(np.int64)
    w = np.zeros((n, n), dtype=np.int64)
    for (u, v), c in weights.items():
        w[u, v] = c
        w[v, u] = c
    deg = w.sum(axis=1)
    # cut(x) = x.deg - x W x^T
    quad = np.einsum("ij,ij->i", x @ w, x)
    return x @ deg - quad


SWEEP_CHUNK = 1 << 18


def _side_masks(n: int) -> Iterator[np.ndarray]:
    """Every side that holds vertex 0 and is not the whole vertex set, as
    ascending uint64 mask arrays of at most SWEEP_CHUNK entries."""
    top = 1 << (n - 1)
    for start in range(0, top, SWEEP_CHUNK):
        halves = np.arange(start, min(start + SWEEP_CHUNK, top), dtype=np.uint64)
        masks = (halves << np.uint64(1)) | np.uint64(1)
        if start + SWEEP_CHUNK >= top:
            masks = masks[:-1]  # the last half maps to the full vertex set
        if masks.size:
            yield masks


def _sweep_min(wg: WeightedGraph, chunks: Iterable[np.ndarray]) -> Cut:
    """The cheapest side among the mask chunks; ties go to the first."""
    if wg.n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"brute force capped at {BRUTE_FORCE_LIMIT} vertices")
    _check_sweep_range(wg.weights)
    best: tuple[int, int] | None = None
    for masks in chunks:
        vals = _mask_cut_values(wg.weights, wg.n, masks)
        i = int(np.argmin(vals))
        if best is None or vals[i] < best[0]:
            best = (int(vals[i]), int(masks[i]))
    if best is None:
        raise RuntimeError("the sweep saw no cut")
    return Cut(frozenset(bits_of(best[1])), best[0])


def brute_force_min_cut(g: SimpleGraph | WeightedGraph) -> Cut:
    """Global min cut by sweeping every bipartition; the reported side holds
    vertex 0 and ties resolve to the numerically smallest side mask."""
    wg = _as_weighted(g)
    if wg.n < 2:
        raise ValueError("cuts need at least two vertices")
    return _sweep_min(wg, _side_masks(wg.n))


def brute_force_st_min_cut(
    g: SimpleGraph | WeightedGraph, s: int, t: int
) -> Cut:
    """Min s-t cut by sweeping every side containing s but not t."""
    wg = _as_weighted(g)
    if s == t or not (0 <= s < wg.n and 0 <= t < wg.n):
        raise ValueError("bad terminals")
    free = [v for v in range(wg.n) if v != s and v != t]

    def chunks() -> Iterator[np.ndarray]:
        top = 1 << len(free)
        for start in range(0, top, SWEEP_CHUNK):
            combos = np.arange(start, min(start + SWEEP_CHUNK, top), dtype=np.uint64)
            masks = np.full(combos.shape, 1 << s, dtype=np.uint64)
            for i, v in enumerate(free):
                masks |= ((combos >> np.uint64(i)) & np.uint64(1)) << np.uint64(v)
            yield masks

    return _sweep_min(wg, chunks())


def connected_min_cut(g: WeightedGraph) -> Cut:
    """Exact global min cut of a graph the caller knows to be connected and
    to have at least two vertices; skips `deterministic_min_cut`'s component
    pass.

    Nagamochi-Ibaraki contraction (SIDMA 1992) in the form of Henzinger,
    Noe, Schulz and Strash, "Practical Minimum Cut Algorithms" (ACM JEA
    2018). The best cut starts at the minimum degree. Each round runs one
    maximum-adjacency scan over the super-vertices, offers every proper
    prefix of the scan order as a cut, and unions x with y whenever scanning
    x raises r(y), y's weight into the scanned prefix, to the best value or
    beyond: then lambda(x, y) >= r(y) >= best, so no strictly smaller cut
    separates them. The last vertex scanned ends with r equal to its degree,
    which is at least the best value, so every round contracts an edge.
    """
    adj: list[dict[int, int]] = [{} for _ in range(g.n)]
    for (u, v), w in g.weights.items():
        adj[u][v] = w
        adj[v][u] = w
    members = [1 << v for v in range(g.n)]
    deg = [sum(row.values()) for row in adj]
    best = min(deg)
    best_mask = members[deg.index(best)]
    while len(adj) > 2:
        k = len(adj)
        uf = UnionFind(k)
        r = [0] * k
        scanned = [False] * k
        heap = [(0, 0)]
        cut = 0
        prefix = 0
        unscanned = k
        while heap:
            _, x = heapq.heappop(heap)
            if scanned[x]:
                continue  # a stale entry; x's current r popped earlier
            scanned[x] = True
            unscanned -= 1
            cut += deg[x] - 2 * r[x]
            prefix |= members[x]
            if unscanned and cut < best:
                best, best_mask = cut, prefix
            for y, w in adj[x].items():
                if not scanned[y]:
                    r[y] += w
                    heapq.heappush(heap, (-r[y], y))
                    if r[y] >= best:
                        uf.union(x, y)
        roots: dict[int, int] = {}
        label = [roots.setdefault(uf.find(v), len(roots)) for v in range(k)]
        merged: list[dict[int, int]] = [{} for _ in roots]
        merged_members = [0] * len(roots)
        for v in range(k):
            a = label[v]
            merged_members[a] |= members[v]
            row = merged[a]
            for y, w in adj[v].items():
                b = label[y]
                if a != b:
                    row[b] = row.get(b, 0) + w
        adj, members = merged, merged_members
        if len(adj) < 2:
            break
        deg = [sum(row.values()) for row in adj]
        low = min(deg)
        if low < best:
            best, best_mask = low, members[deg.index(low)]
    return Cut(frozenset(bits_of(best_mask)), best)


def deterministic_min_cut(g: SimpleGraph | WeightedGraph) -> Cut:
    """Exact global min cut. Disconnected graphs report a zero cut whose
    side is the component holding the smallest vertex id."""
    wg = _as_weighted(g)
    if wg.n < 2:
        raise ValueError("cuts need at least two vertices")
    comps = wg.component_masks()
    if len(comps) > 1:
        side = min(comps, key=lambda m: m & -m)
        return Cut(frozenset(bits_of(side)), 0)
    return connected_min_cut(wg)


def st_min_cut_known(g: WeightedGraph, s: int, t: int) -> Cut:
    """Exact min s-t cut of a known graph via max flow; side holds s."""
    comps = g.component_masks()
    side = next(c for c in comps if (c >> s) & 1)
    if not (side >> t) & 1:
        return Cut(frozenset(bits_of(side)), 0)
    result = max_flow(g, s, t)
    return Cut(frozenset(bits_of(result.source_side_mask)), result.value)


# ---------------------------------------------------------------------------
# strengths
#
# The strength of an edge is the largest edge connectivity among vertex
# induced subgraphs containing it. Two computations are kept: a recursion
# on minimum cuts, and a definitional sweep over all subsets for tiny n.


def exact_strengths(g: SimpleGraph | WeightedGraph) -> dict[tuple[int, int], Weight]:
    """Strength of every edge via the min cut recursion.

    An edge's strength is the largest min cut among the nested pieces that
    contain it: any subgraph holding the edge either straddles some piece's
    minimum cut (and then its connectivity is at most that cut's value) or
    descends intact into the next piece. So the recursion carries the best
    ancestor cut value as a floor and assigns crossing edges
    max(floor, piece min cut).
    """
    wg = _as_weighted(g)
    out: dict[tuple[int, int], Weight] = {}

    def solve(vmask: int, floor: Weight) -> None:
        if vmask.bit_count() < 2:
            return
        sub = wg.subgraph(vmask)
        if not sub.weights:
            return
        comps = sub.component_masks(vmask)
        if len(comps) > 1:
            for comp in comps:
                solve(comp, floor)
            return
        relabel = {v: i for i, v in enumerate(bits_of(vmask))}
        small = WeightedGraph(
            len(relabel),
            {(relabel[u], relabel[v]): w for (u, v), w in sub.weights.items()},
        )
        cut = deterministic_min_cut(small)
        level = max(floor, cut.value)
        back = {i: v for v, i in relabel.items()}
        side = 0
        for i in cut.side:
            side |= 1 << back[i]
        for (u, v), _w in sub.weights.items():
            if ((side >> u) ^ (side >> v)) & 1:
                out[(u, v)] = level
        solve(side, level)
        solve(vmask & ~side, level)

    solve((1 << wg.n) - 1, 0)
    return out


def definitional_strengths(
    g: SimpleGraph | WeightedGraph,
) -> dict[tuple[int, int], Weight]:
    """Strengths straight from the definition; exponential, for tiny n."""
    wg = _as_weighted(g)
    n = wg.n
    if n > 12:
        raise ValueError("definitional sweep capped at 12 vertices")
    connectivity: dict[int, Weight] = {}
    for mask in range(1, 1 << n):
        if mask.bit_count() < 2:
            continue
        sub = wg.subgraph(mask)
        comps = sub.component_masks(mask)
        if len(comps) > 1:
            connectivity[mask] = 0
            continue
        relabel = {v: i for i, v in enumerate(bits_of(mask))}
        small = WeightedGraph(
            len(relabel),
            {(relabel[u], relabel[v]): w for (u, v), w in sub.weights.items()},
        )
        connectivity[mask] = deterministic_min_cut(small).value
    out: dict[tuple[int, int], Weight] = {}
    for (u, v) in wg.weights:
        pair = (1 << u) | (1 << v)
        best: Weight = 0
        for mask, kappa in connectivity.items():
            if mask & pair == pair and kappa > best:
                best = kappa
        out[(u, v)] = best
    return out
