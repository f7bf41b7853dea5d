"""Edge-strength estimation and cut sparsification through the oracle.

The estimator walks a geometric ladder of connectivity levels from n down
to 1. At each level it subsamples the surviving contracted multigraph,
splits off the pieces that are well-connected at that level, certifies
every edge inside such a piece at half the level, tosses a sampled subset
of those edges into the sparsifier with the matching inverse probability
weight, and contracts the piece. Groups certified once never pay again.

The interface is learned edge by edge at most once per ladder, at the
first level whose sparsifier probability p_h is 1 (or earlier, where the
subsample finds learning cheaper than drawing), into the solve's record
of found edges, K (`CutOracle.known`), so edges an earlier phase of the
solve found are not learned again.
That level learns no edge H would not learn anyway: p_h never falls as q
rises down the ladder, and the last level (q = 1, bar below 1) certifies
every edge still in the interface, so from that level on every interface
edge enters H whole. Merges only coarsen the partition, so every later
level's pair counts and every piece's H draw read their edges from that
record without a query. A piece whose edges K holds, all of them, draws
H by shuffling them, ascending, and keeping the first ones: the draw
`sample_intergroup_edges` makes when it learns the piece whole.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .contraction import uniform_subsample
from .discovery import sample_intergroup_edges, singleton_state
from .graph import ContractionState, Weight, WeightedGraph, bits_of
from .oracle import CutOracle
from .params import (
    DECOMPOSE_FRAC,
    DEFAULT_TUNING,
    EDGE_REGIME_FACTOR,
    Tuning,
    ceil_log2,
)
from .reference import connected_min_cut
from .rng import binomial_count


@dataclass
class StrengthMap:
    """Strength certificates as (vertex mask, value) records in issue order.

    An edge's certificate is the first record whose mask contains both
    endpoints; the estimation loop only ever certifies a pair once, so the
    first match is the only one that was ever issued for that edge.
    """

    records: list[tuple[int, Fraction]] = field(default_factory=list)

    def assign(self, mask: int, value: Fraction) -> None:
        if mask.bit_count() < 2:
            raise ValueError("a certificate needs at least two vertices")
        self.records.append((mask, value))

    def resolve(self, u: int, v: int) -> Fraction | None:
        pair = (1 << u) | (1 << v)
        for mask, value in self.records:
            if pair & ~mask == 0:
                return value
        return None


def _induced_compact(
    edges: list[tuple[tuple[int, int], Weight]],
    out_edges: list[list[tuple[int, int]]],
    mask: int,
) -> tuple[WeightedGraph, list[int]]:
    """Induced subgraph on `mask`, relabeled to 0..k-1; returns the labels.

    `edges` is the source graph's weight items and `out_edges[u]` lists
    (position, v) for each of them keyed (u, v), so the cost is the piece's
    own edges and the subgraph keeps the source's edge order.
    """
    verts = list(bits_of(mask))
    pos = {v: i for i, v in enumerate(verts)}
    kept: dict[tuple[int, int], Weight] = {}
    for at in sorted(at for u in verts for at, v in out_edges[u] if v in pos):
        (u, v), w = edges[at]
        kept[(pos[u], pos[v])] = w
    return WeightedGraph(len(verts), kept), verts


def strength_decompose_known(
    g: WeightedGraph, threshold: Weight, strict: bool = False
) -> list[int]:
    """Split a known graph along cheap cuts until none remain.

    Recursively removes any cut of value <= threshold (< threshold when
    strict) and returns the final piece masks; every surviving multi-vertex
    piece has min cut above the threshold. Pieces are reported as masks over
    g's vertex ids, sorted by smallest member.

    The final pieces are the maximal vertex sets whose induced connectivity
    clears the threshold, so they do not depend on which qualifying cut is
    taken first. Cheap structure goes first: components split apart, and
    vertices whose boundary already qualifies peel off in one cascade, many
    singleton splits in one pass. A core that survives both is split along
    its exact minimum cut when that cut qualifies.
    """

    def below(value: Weight) -> bool:
        return value < threshold if strict else value <= threshold

    edges = list(g.weights.items())
    out_edges: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for at, ((u, v), _) in enumerate(edges):
        out_edges[u].append((at, v))
    final: list[int] = []
    stack = g.component_masks()
    while stack:
        mask = stack.pop()
        if mask.bit_count() == 1:
            final.append(mask)
            continue
        sub, verts = _induced_compact(edges, out_edges, mask)
        k = len(verts)
        pieces = sub.component_masks()
        if len(pieces) > 1:
            for p in pieces:
                expanded = 0
                for i in bits_of(p):
                    expanded |= 1 << verts[i]
                stack.append(expanded)
            continue
        neigh: list[list[tuple[int, Weight]]] = [[] for _ in range(k)]
        deg: list[Weight] = [0] * k
        for (u, v), w in sub.weights.items():
            neigh[u].append((v, w))
            neigh[v].append((u, w))
            deg[u] += w
            deg[v] += w
        alive = [True] * k
        pending = deque(i for i in range(k) if below(deg[i]))
        peeled = 0
        while pending:
            i = pending.popleft()
            if not alive[i] or not below(deg[i]):
                continue
            alive[i] = False
            peeled += 1
            final.append(1 << verts[i])
            for j, w in neigh[i]:
                if alive[j]:
                    was_ok = not below(deg[j])
                    deg[j] -= w
                    if was_ok and below(deg[j]):
                        pending.append(j)
        if peeled:
            remain = 0
            for i in range(k):
                if alive[i]:
                    remain |= 1 << verts[i]
            if remain:
                stack.append(remain)  # may have disconnected; re-split above
            continue
        cut = connected_min_cut(sub)  # sub is one component, found above
        if not below(cut.value):
            final.append(mask)
            continue
        side = 0
        for i in cut.side:
            side |= 1 << verts[i]
        # recursing on the two sides drops the cut edges implicitly: an edge
        # across the split never lands inside a descendant's induced subgraph
        stack.append(side)
        stack.append(mask & ~side)
    final.sort(key=lambda m: m & -m)
    return final


def _learned_family_edges(
    record: list[int], state: ContractionState, expansion: int, w_i: int
) -> list[tuple[int, int]] | None:
    """The edges of `record`, an adjacency mask per vertex, between the
    state's groups inside `expansion`, ascending, where it holds all w_i of
    them, or None where it holds fewer; raises RuntimeError where it holds
    more."""
    find = state.find
    edges = [
        (u, v)
        for u in bits_of(expansion)
        for v in bits_of(record[u] & expansion & ~((2 << u) - 1))
        if find(u) != find(v)
    ]
    if len(edges) > w_i:
        raise RuntimeError(f"piece holds {w_i} inner edges, the record {len(edges)}")
    return edges if len(edges) == w_i else None


class Sparsifier(NamedTuple):
    """One run of the strength ladder: the certificate map, the sparsifier H
    over the original vertex ids and `h_is_g`, true when H holds every edge
    of G at weight 1, so that H's cuts are G's own."""

    strengths: StrengthMap
    h: WeightedGraph  # index 1: the benchmark's tracer reads H as result[1]
    h_is_g: bool


def approximate_strengths(
    oracle: CutOracle,
    epsilon: Fraction | float,
    rng: random.Random,
    tuning: Tuning = DEFAULT_TUNING,
) -> Sparsifier:
    """Certify every edge's strength within a sandwich factor and build the
    matching importance-sampled sparsifier.

    Walks connectivity levels kappa = n, n/2, n/4, ... 1. Per level: sample
    the surviving contracted multigraph, peel off the pieces whose sampled
    min cut clears the level's bar, certify all edges inside a peeled piece
    at kappa/2, sample Binomial(w_i, p') of them into H at weight 1/p' (an
    int: `Tuning.h_prob` gives unit fractions, and anything else raises
    ValueError), and contract the piece behind one boundary query. Returns
    the run's `Sparsifier` record.
    """
    n = oracle.n
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must sit strictly between 0 and 1")
    state = singleton_state(oracle)
    m = sum(state.degree(v) for v in range(n)) // 2
    smap = StrengthMap()
    h_acc: dict[tuple[int, int], Weight] = {}
    for j in range(ceil_log2(max(2, n)) + 1):
        if state.group_count() <= 1:
            break
        kappa = Fraction(n, 1 << j)
        q = tuning.strength_prob(n, kappa)
        p_h = Fraction(tuning.h_prob(q, eps))
        if p_h.numerator != 1:
            raise ValueError(f"h_prob gave {p_h}, not a unit fraction")
        if state.interface_edge_count() == 0:
            continue
        cap = max(64, math.ceil(EDGE_REGIME_FACTOR * float(q * kappa) * n))
        sampled = uniform_subsample(oracle, state, q, rng, cap=cap, learn=p_h >= 1)
        roots = list(state.roots)
        masks = [state.group_mask(r) for r in roots]
        bar = q * DECOMPOSE_FRAC * kappa
        for cmask in strength_decompose_known(sampled, bar):
            if cmask.bit_count() < 2:
                continue
            family = [masks[i] for i in bits_of(cmask)]
            expansion = 0
            for fm in family:
                expansion |= fm
            boundary = oracle.query_mask(expansion)
            inside2 = sum(state.degree(roots[i]) for i in bits_of(cmask)) - boundary
            if inside2 <= 0 or inside2 % 2:
                raise RuntimeError("piece lost its inner edges")
            w_i = inside2 // 2
            smap.assign(expansion, kappa / 2)
            take = binomial_count(rng, w_i, p_h)
            if take:
                drawn = _learned_family_edges(oracle.known, state, expansion, w_i)
                if drawn is None:
                    drawn = sample_intergroup_edges(oracle, family, take, rng)
                else:
                    rng.shuffle(drawn)
                    drawn = drawn[:take]
                for u, v in drawn:
                    key = (u, v) if u < v else (v, u)
                    if key in h_acc:
                        raise RuntimeError("edge certified twice")
                    h_acc[key] = p_h.denominator
            root = state.merge_group_set(bits_of(expansion))
            state.set_degree(root, boundary)
    h = WeightedGraph(n, h_acc)
    # H holds only edges of G, none twice, so m unit-weight edges are G
    h_is_g = h.m == m and all(w == 1 for w in h_acc.values())
    return Sparsifier(smap, h, h_is_g)


__all__ = [
    "StrengthMap",
    "Sparsifier",
    "strength_decompose_known",
    "approximate_strengths",
]
