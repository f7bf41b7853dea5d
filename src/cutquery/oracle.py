"""Cut-value oracle with query accounting.

The oracle answers "how many hidden edges leave this vertex set" and keeps
two counters: `total_calls` counts every answered call, `distinct_queries`
counts memo misses only. Distinct queries are the cost that matters; repeats
hit the memo. The memo key is the canonical side bitmask (the side holding
vertex 0), so a set and its complement share one entry. The empty and full
sets answer 0 without touching either counter.

Every answer is the value of a cut of G, so `cheapest`, the cheapest proper
cut among the fresh answers (the side as first queried; None before any),
is an upper bound U on the min cut that every phase of a solve pays into.
Reading it costs nothing.

`known` is the solve's one record of the edges of G found so far, K, as an
adjacency mask per vertex, kept beside the memo for the same reason: an
edge one phase proves is never paid for again. Every phase that learns an
edge writes it there, and every deterministic walk leaves K out of its
counts (`discovery`). The oracle itself never reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Cut, SimpleGraph, bits_of, mask_of


@dataclass
class QueryLedger:
    """Running account of oracle usage."""

    distinct_queries: int = 0
    total_calls: int = 0

    def record(self, fresh: bool) -> None:
        self.total_calls += 1
        if fresh:
            self.distinct_queries += 1

    def snapshot(self) -> tuple[int, int]:
        return (self.distinct_queries, self.total_calls)


class CutOracle:
    """Oracle over a hidden `SimpleGraph`."""

    def __init__(self, graph: SimpleGraph):
        self._graph = graph
        self.n = graph.n
        self.ledger = QueryLedger()
        self._memo: dict[int, int] = {}
        # the cheapest proper cut among the fresh answers, side as queried
        self.cheapest: Cut | None = None
        # K, the edges of G found so far, an adjacency mask per vertex
        self.known: list[int] = [0] * self.n

    def query_mask(self, mask: int) -> int:
        full = (1 << self.n) - 1
        if mask & ~full:
            raise ValueError("query outside the oracle's vertex set")
        if mask == 0 or mask == full:
            return 0
        key = mask if mask & 1 else full & ~mask
        hit = key in self._memo
        if hit:
            value = self._memo[key]
        else:
            value = self._graph.cut_value_mask(key)
            self._memo[key] = value
            if self.cheapest is None or value < self.cheapest.value:
                self.cheapest = Cut(frozenset(bits_of(mask)), value)
        self.ledger.record(fresh=not hit)
        return value

    def query(self, vertices: Iterable[int]) -> int:
        return self.query_mask(mask_of(vertices))

    def count_between_masks(self, a: int, b: int) -> int:
        """Edges with one endpoint in a and the other in b (disjoint sets)."""
        if a & b:
            raise ValueError("sets overlap")
        if a == 0 or b == 0:
            return 0
        both = self.query_mask(a) + self.query_mask(b) - self.query_mask(a | b)
        if both % 2:
            raise RuntimeError("cut arithmetic produced an odd edge total")
        return both // 2

    def vertex_degree(self, v: int) -> int:
        return self.query_mask(1 << v)


def edges_between(oracle: CutOracle, v: int, targets: Iterable[int] | int) -> int:
    """Edges joining vertex v to the target set: (c({v})+c(T)-c(T+v))/2."""
    t_mask = targets if isinstance(targets, int) else mask_of(targets)
    if (t_mask >> v) & 1:
        raise ValueError("v lies inside the target set")
    return oracle.count_between_masks(1 << v, t_mask)


__all__ = [
    "QueryLedger",
    "CutOracle",
    "edges_between",
]
