"""Graph value types, generators, and edge-list serialization.

Vertices are dense integer ids 0..n-1. `SimpleGraph` is the hidden ground
truth an oracle answers for. The oracle counts unweighted edges, so
everything the algorithms materialize (contracted pair counts, subsamples,
flow residues, the sparsifier H with its integer weights 1/p_h) is an
integer multigraph: a `WeightedGraph` with positive int multiplicities.
Vertex sets are passed around as python ints used as bitmasks, which keeps
set algebra and canonical hashing cheap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator

Weight = int


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits_of(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"self loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SimpleGraph:
    """Immutable undirected simple graph."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"negative vertex count {self.n}")
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{self.n - 1}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        return cls(n, frozenset(normalize_edge(u, v) for u, v in edges))

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency_masks(self) -> list[int]:
        cached = getattr(self, "_adj", None)
        if cached is None:
            adj = [0] * self.n
            for u, v in self.edges:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            object.__setattr__(self, "_adj", adj)
            cached = adj
        return cached

    def degrees(self) -> list[int]:
        return [a.bit_count() for a in self.adjacency_masks()]

    def cut_value_mask(self, mask: int) -> int:
        full = (1 << self.n) - 1
        if mask & ~full:
            raise ValueError("vertex set outside graph range")
        # evaluate from the smaller side; the cut is symmetric
        if mask.bit_count() > self.n // 2:
            mask = full & ~mask
        adj = self.adjacency_masks()
        outside = full & ~mask
        return sum((adj[v] & outside).bit_count() for v in bits_of(mask))

    def to_weighted(self) -> "WeightedGraph":
        return WeightedGraph(self.n, {e: 1 for e in self.edges})


@dataclass
class WeightedGraph:
    """Undirected multigraph: each edge weight is a positive int multiplicity.

    Parallel contributions are merged additively at construction time.
    Instances are treated as immutable once built.
    """

    n: int
    weights: dict[tuple[int, int], Weight] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"negative vertex count {self.n}")
        for (u, v), w in self.weights.items():
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{self.n - 1}")
            if type(w) is not int or w <= 0:
                raise ValueError(f"weight {w!r} on edge ({u}, {v}) is not a positive int")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, Weight]]) -> "WeightedGraph":
        acc: dict[tuple[int, int], Weight] = {}
        for u, v, w in edges:
            e = normalize_edge(u, v)
            acc[e] = acc[e] + w if e in acc else w
        return cls(n, acc)

    @property
    def m(self) -> int:
        return len(self.weights)

    def total_weight(self) -> Weight:
        return sum(self.weights.values())

    def degree_weights(self) -> list[Weight]:
        deg: list[Weight] = [0] * self.n
        for (u, v), w in self.weights.items():
            deg[u] += w
            deg[v] += w
        return deg

    def cut_value_mask(self, mask: int) -> Weight:
        full = (1 << self.n) - 1
        if mask & ~full:
            raise ValueError("vertex set outside graph range")
        total: Weight = 0
        for (u, v), w in self.weights.items():
            if ((mask >> u) ^ (mask >> v)) & 1:
                total += w
        return total

    def component_masks(self, within: int | None = None) -> list[int]:
        """Connected components as masks, restricted to `within` if given."""
        scope = within if within is not None else (1 << self.n) - 1
        adj: dict[int, int] = {v: 0 for v in bits_of(scope)}
        for (u, v) in self.weights:
            if (scope >> u) & 1 and (scope >> v) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        seen = 0
        comps = []
        for v in bits_of(scope):
            if (seen >> v) & 1:
                continue
            frontier = 1 << v
            comp = 0
            while frontier:
                comp |= frontier
                nxt = 0
                for x in bits_of(frontier):
                    nxt |= adj[x]
                frontier = nxt & ~comp
            seen |= comp
            comps.append(comp)
        return comps

    def subgraph(self, mask: int) -> "WeightedGraph":
        """Edges with both endpoints inside `mask`; the id space is kept."""
        keep = {
            (u, v): w
            for (u, v), w in self.weights.items()
            if (mask >> u) & 1 and (mask >> v) & 1
        }
        return WeightedGraph(self.n, keep)


def exact_cut_value(g: SimpleGraph | WeightedGraph, side: Iterable[int] | int) -> Weight:
    """Total weight of edges with exactly one endpoint in `side`.

    `side` may be a vertex iterable or a bitmask. Works on the full set and
    the empty set (both cut nothing).
    """
    mask = side if isinstance(side, int) else mask_of(side)
    return g.cut_value_mask(mask)


@dataclass(frozen=True)
class Cut:
    """One side of a bipartition together with its cut value."""

    side: frozenset[int]
    value: Weight

    def side_mask(self) -> int:
        return mask_of(self.side)

    def sorted_side(self) -> tuple[int, ...]:
        return tuple(sorted(self.side))


def canonical_side_mask(mask: int, universe: int) -> int:
    """The one of the two sides that contains the smallest vertex of `universe`."""
    low = universe & -universe
    return mask if mask & low else universe & ~mask


def better_cut(a: Cut | None, b: Cut) -> Cut:
    """Smaller value wins; ties go to the lexicographically smaller side."""
    if a is None or b.value < a.value:
        return b
    if b.value == a.value and b.sorted_side() < a.sorted_side():
        return b
    return a


class UnionFind:
    """Disjoint sets over 0..n-1; a union keeps the smaller root."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.groups = n

    def copy(self) -> "UnionFind":
        dup = UnionFind(0)
        dup.parent = list(self.parent)
        dup.groups = self.groups
        return dup

    def find(self, v: int) -> int:
        parent = self.parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        self.groups -= 1
        return True


class ContractionState:
    """Mutable partition of 0..n-1 into super-vertex groups.

    Tracks a member bitmask and a boundary degree per group. A group's degree
    is `None` while stale (just merged); refreshing it is the contraction
    module's job and costs exactly one oracle query. Single-owner: not
    thread-safe, copy before forking work.
    """

    def __init__(self, n: int, degrees: list[int] | None = None):
        self.n = n
        self._uf = UnionFind(n)
        self._mask: dict[int, int] = {v: 1 << v for v in range(n)}
        self._degree: dict[int, int | None] = {
            v: (degrees[v] if degrees is not None else None) for v in range(n)
        }
        self.roots: list[int] = list(range(n))

    def copy(self) -> "ContractionState":
        dup = ContractionState.__new__(ContractionState)
        dup.n = self.n
        dup._uf = self._uf.copy()
        dup._mask = dict(self._mask)
        dup._degree = dict(self._degree)
        dup.roots = list(self.roots)
        return dup

    def find(self, v: int) -> int:
        return self._uf.find(v)

    def group_mask(self, root: int) -> int:
        return self._mask[root]

    def groups(self) -> list[frozenset[int]]:
        return [frozenset(bits_of(self._mask[r])) for r in self.roots]

    def group_count(self) -> int:
        return len(self.roots)

    def degree(self, root: int) -> int:
        d = self._degree[root]
        if d is None:
            raise ValueError(f"group {root} has a stale degree; refresh it first")
        return d

    def set_degree(self, root: int, value: int) -> None:
        if value < 0:
            raise ValueError("negative boundary degree")
        self._degree[root] = value

    def contract(self, u: int, v: int) -> int:
        """Merge the groups of u and v; returns the surviving root.

        The merged group's degree is left stale and must be refreshed by
        exactly one oracle query before it is read again.
        """
        keep, drop = sorted((self.find(u), self.find(v)))
        if not self._uf.union(keep, drop):
            raise ValueError(f"vertices {u} and {v} are already in one group")
        self._mask[keep] |= self._mask[drop]
        del self._mask[drop]
        del self._degree[drop]
        self._degree[keep] = None
        self.roots.remove(drop)
        return keep

    def merge_group_set(self, members: Iterable[int]) -> int:
        """Contract every listed vertex into one group; degree left stale."""
        roots = sorted({self.find(v) for v in members})
        keep = roots[0]
        for other in roots[1:]:
            keep = self.contract(keep, other)
        return keep

    def interface_edge_count(self) -> int:
        """Number of edges running between distinct groups (each once)."""
        total = 0
        for r in self.roots:
            total += self.degree(r)
        if total % 2:
            raise RuntimeError("odd boundary degree sum; some degree is wrong")
        return total // 2


# ---------------------------------------------------------------------------
# generators


def gnp(n: int, p: float, rng: random.Random) -> SimpleGraph:
    """Erdos-Renyi G(n, p)."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must lie in [0, 1]")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return SimpleGraph.from_edges(n, edges)


def barbell(clique: int) -> SimpleGraph:
    """Two cliques of size `clique` joined by a single bridge edge."""
    if clique < 2:
        raise ValueError("cliques need at least two vertices")
    k = clique
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges += [(k + u, k + v) for u in range(k) for v in range(u + 1, k)]
    edges.append((k - 1, k))
    return SimpleGraph.from_edges(2 * k, edges)


def cycle(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("a cycle needs at least three vertices")
    return SimpleGraph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def planted_cut_sides(
    n: int, k: int, inside_p: float, rng: random.Random
) -> tuple[SimpleGraph, frozenset[int]]:
    """Random bisection with exactly k crossing edges, plus the planted side.

    Each side is an Erdos-Renyi graph with density inside_p; the k crossing
    edges are a uniform sample of the possible bridges. Survival experiments
    need the side, so it is returned alongside the graph.
    """
    if n < 4:
        raise ValueError("planted instances need at least four vertices")
    if not 0.0 <= inside_p <= 1.0:
        raise ValueError(f"inside edge probability must lie in [0, 1], got {inside_p}")
    h = n // 2
    if k < 0 or k > h * (n - h):
        raise ValueError(f"crossing count {k} impossible for bisection {h}/{n - h}")
    ids = list(range(n))
    rng.shuffle(ids)
    side, other = ids[:h], ids[h:]
    edges = [
        (u, v) for i, u in enumerate(side) for v in side[i + 1 :] if rng.random() < inside_p
    ]
    edges += [
        (u, v) for i, u in enumerate(other) for v in other[i + 1 :] if rng.random() < inside_p
    ]
    cross = [(u, v) for u in side for v in other]
    edges += rng.sample(cross, k)
    return SimpleGraph.from_edges(n, edges), frozenset(side)


def planted_cut(n: int, k: int, inside_p: float, rng: random.Random) -> SimpleGraph:
    g, _ = planted_cut_sides(n, k, inside_p, rng)
    return g


def clique_plus_path(clique: int, path: int) -> SimpleGraph:
    """A clique with a path of `path` extra vertices hanging off vertex 0."""
    if clique < 2:
        raise ValueError("clique needs at least two vertices")
    if path < 1:
        raise ValueError("path needs at least one vertex")
    k = clique
    edges = [(u, v) for u in range(k) for v in range(u + 1, k)]
    prev = 0
    for i in range(path):
        edges.append((prev, k + i))
        prev = k + i
    return SimpleGraph.from_edges(k + path, edges)


GENERATOR_KINDS = ("gnp", "barbell", "cycle", "planted_cut", "clique_plus_path")


def generate(kind: str, params: dict, seed: int) -> SimpleGraph:
    """Dispatch to a named generator; raises ValueError on bad parameters."""
    rng = random.Random(seed)

    def need(key: str):
        if key not in params:
            raise ValueError(f"generator {kind!r} needs parameter {key!r}")
        return params[key]

    if kind == "gnp":
        return gnp(int(need("n")), float(need("p")), rng)
    if kind == "barbell":
        return barbell(int(need("clique")))
    if kind == "cycle":
        return cycle(int(need("n")))
    if kind == "planted_cut":
        return planted_cut(
            int(need("n")), int(need("k")), float(params.get("inside_p", 0.6)), rng
        )
    if kind == "clique_plus_path":
        return clique_plus_path(int(need("clique")), int(params.get("path", 3)))
    raise ValueError(f"unknown generator kind {kind!r}; choose from {GENERATOR_KINDS}")


# ---------------------------------------------------------------------------
# serialization
#
# Plain edge list: a header line "n m" then m lines "u v" with 0-based ids,
# u < v, rows sorted ascending, LF newlines. Blank lines are skipped. The
# weighted variant appends "w 1" to each row: the weight over denominator 1.


def write_edge_list(g: SimpleGraph, path: str) -> None:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in sorted(g.edges)]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _int_pair(path: str, lineno: int, line: str) -> tuple[int, int]:
    fields = line.split()
    if len(fields) == 2:
        try:
            return int(fields[0]), int(fields[1])
        except ValueError:
            pass
    raise ValueError(f"{path}:{lineno}: expected two integers, found {line.strip()!r}")


def read_edge_list(path: str) -> SimpleGraph:
    with open(path) as fh:
        rows = [(i, line) for i, line in enumerate(fh, 1) if line.strip()]
    if not rows:
        raise ValueError(f"{path}: missing header")
    n, m = _int_pair(path, *rows[0])
    if m < 0:
        raise ValueError(f"{path}:{rows[0][0]}: negative edge count {m}")
    edges = [_int_pair(path, *row) for row in rows[1:]]
    if len(edges) != m:
        raise ValueError(f"{path}: expected {m} edges, found {len(edges)}")
    g = SimpleGraph.from_edges(n, edges)
    if g.m != m:
        raise ValueError(f"{path}: duplicate edges in input")
    return g


def write_weighted_edge_list(g: WeightedGraph, path: str) -> None:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v} {w} 1" for (u, v), w in sorted(g.weights.items())]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
