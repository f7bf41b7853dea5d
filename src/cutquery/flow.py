"""Exact maximum flow on undirected weighted graphs.

Dinic's algorithm over paired arcs. Capacities are the integer
multiplicities of a `WeightedGraph`, so flow values and residuals are exact.
The run ends on the level search that misses t, and what that search
reaches from s in the residual network is the witness cut's side: the
minimal minimum s side, the intersection of every minimum s-t side that
holds s. Where t lies outside s's component the first search misses it, so
the flow is 0 and the side is s's component. Blocking flows on an
undirected graph can leave flow running in circles, so a cancellation pass
removes directed cycles from the support before the assignment is
reported; the support of the returned flow is acyclic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

from .graph import Weight, WeightedGraph


@dataclass
class FlowAssignment:
    """A maximum s-t flow with per-edge routing and a witness min cut.

    `flows` holds the signed net flow of every edge that carries any, keyed
    (u, v) with u < v; positive means the flow runs u toward v. Its support
    is free of directed cycles. `capacities` repeats the graph weight of
    exactly those support edges, so |flows[e]| <= capacities[e] always.
    """

    value: Weight
    flows: dict[tuple[int, int], Weight]
    capacities: dict[tuple[int, int], Weight]
    # what the source reaches in the final residual network: the minimal
    # minimum s side
    source_side_mask: int


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[Weight] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add_undirected(self, u: int, v: int, w: Weight) -> int:
        """Returns the arc index of the u->v direction; v->u is index + 1."""
        i = len(self.to)
        self.to.extend((v, u))
        self.cap.extend((w, w))
        self.head[u].append(i)
        self.head[v].append(i + 1)
        return i

    def _levels(self, s: int) -> list[int]:
        """BFS depth from s over arcs with residual capacity; -1 where s does
        not reach."""
        level = [-1] * self.n
        level[s] = 0
        dq = deque([s])
        while dq:
            x = dq.popleft()
            for i in self.head[x]:
                y = self.to[i]
                if level[y] < 0 and self.cap[i] > 0:
                    level[y] = level[x] + 1
                    dq.append(y)
        return level

    def _augment(self, s: int, t: int, level: list[int], it: list[int]) -> Weight:
        """One blocking-flow DFS step; returns the pushed amount (0 if none)."""
        stack = [s]
        path: list[int] = []
        while stack:
            x = stack[-1]
            if x == t:
                bottleneck = min(self.cap[i] for i in path)
                for i in path:
                    self.cap[i] -= bottleneck
                    self.cap[i ^ 1] += bottleneck
                return bottleneck
            advanced = False
            while it[x] < len(self.head[x]):
                i = self.head[x][it[x]]
                y = self.to[i]
                if self.cap[i] > 0 and level[y] == level[x] + 1:
                    stack.append(y)
                    path.append(i)
                    advanced = True
                    break
                it[x] += 1
            if not advanced:
                level[x] = -1
                stack.pop()
                if path:
                    path.pop()
        return 0

    def run(self, s: int, t: int) -> tuple[Weight, int]:
        """The max flow value and the s side of a minimum cut: what the last
        level search, the one that misses t, reaches from s."""
        total: Weight = 0
        while True:
            level = self._levels(s)
            if level[t] < 0:
                return total, sum(1 << v for v, d in enumerate(level) if d >= 0)
            it = [0] * self.n
            while True:
                pushed = self._augment(s, t, level, it)
                if pushed == 0:
                    break
                total += pushed


def _find_cycle(adj: dict[int, dict[int, Weight]]) -> list[int] | None:
    """Some directed cycle in the arc map, as a vertex list, else None."""
    color: dict[int, int] = {}
    for start in adj:
        if color.get(start, 0):
            continue
        stack: list[tuple[int, Iterator[int]]] = [(start, iter(adj[start]))]
        color[start] = 1
        path = [start]
        while stack:
            node, arcs = stack[-1]
            nxt = next(arcs, None)
            if nxt is None:
                color[node] = 2
                stack.pop()
                path.pop()
                continue
            if nxt not in adj:
                continue  # dead end: no outgoing arcs
            c = color.get(nxt, 0)
            if c == 1:
                return path[path.index(nxt) :]
            if c == 0:
                color[nxt] = 1
                stack.append((nxt, iter(adj[nxt])))
                path.append(nxt)
    return None


def _cancel_circulations(
    flows: dict[tuple[int, int], Weight]
) -> dict[tuple[int, int], Weight]:
    """Subtract directed cycles until the flow support is acyclic.

    Cancelling a circulation changes no vertex's net balance and only moves
    arc flows toward zero, so feasibility and value are untouched.
    """
    adj: dict[int, dict[int, Weight]] = {}
    for (u, v), f in flows.items():
        if f > 0:
            adj.setdefault(u, {})[v] = f
        elif f < 0:
            adj.setdefault(v, {})[u] = -f
    while True:
        cycle = _find_cycle(adj)
        if cycle is None:
            break
        arcs = list(zip(cycle, cycle[1:] + cycle[:1]))
        delta = min(adj[a][b] for a, b in arcs)
        for a, b in arcs:
            left = adj[a][b] - delta
            if left:
                adj[a][b] = left
            else:
                del adj[a][b]
                if not adj[a]:
                    del adj[a]
    out: dict[tuple[int, int], Weight] = {}
    for a, nbrs in adj.items():
        for b, f in nbrs.items():
            if a < b:
                out[(a, b)] = out.get((a, b), 0) + f
            else:
                out[(b, a)] = out.get((b, a), 0) - f
    return {e: f for e, f in out.items() if f != 0}


def max_flow(g: WeightedGraph, s: int, t: int) -> FlowAssignment:
    """Exact max s-t flow with acyclic support and a witness min cut side."""
    if s == t:
        raise ValueError("source equals sink")
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError("source or sink outside the vertex range")
    net = _Dinic(g.n)
    arc_of: dict[tuple[int, int], int] = {}
    for (u, v), w in sorted(g.weights.items()):
        arc_of[(u, v)] = net.add_undirected(u, v, w)
    value, side = net.run(s, t)
    raw: dict[tuple[int, int], Weight] = {}
    for (u, v), i in arc_of.items():
        # residuals started equal; pushing f forward moves them 2f apart
        f = (net.cap[i ^ 1] - net.cap[i]) // 2
        if f != 0:
            raw[(u, v)] = f
    flows = _cancel_circulations(raw)
    capacities = {e: g.weights[e] for e in flows}
    for e, f in flows.items():
        if abs(f) > capacities[e]:
            raise RuntimeError(f"flow exceeds capacity on {e}")
    return FlowAssignment(value, flows, capacities, side)


def flow_cover_weight(result: FlowAssignment) -> Weight:
    """Total graph weight of the edges that carry any flow."""
    return sum(result.capacities.values(), 0)


def strip_flow(g: WeightedGraph, result: FlowAssignment) -> WeightedGraph:
    """Remove |net flow| from every edge weight, dropping saturated edges."""
    kept: dict[tuple[int, int], Weight] = {}
    for e, w in g.weights.items():
        residual = w - abs(result.flows.get(e, 0))
        if residual > 0:
            kept[e] = residual
    return WeightedGraph(g.n, kept)


__all__ = [
    "FlowAssignment",
    "max_flow",
    "flow_cover_weight",
    "strip_flow",
]
