"""Shared helpers for the test suite.

Everything here is deliberately dumb and independent of the library's own
solvers: brute-force counting over explicit bitmask sweeps, so the fast
implementations are checked against code with no shared failure modes.
"""

from __future__ import annotations

import itertools
import random
import weakref
from fractions import Fraction

import pytest

from cutquery import (
    CutOracle,
    SimpleGraph,
    Tuning,
    WeightedGraph,
    exact_cut_value,
    planted_cut_sides,
)
from cutquery import discovery, global_mincut
from cutquery import st_mincut as st_module
from cutquery import strength
from cutquery.graph import gnp, normalize_edge


def patch_ladder(monkeypatch, edit=lambda ladder: ladder) -> list:
    """Wrap the strength ladder wherever v2 and st look it up. v2 or st reads
    each run's `Sparsifier` record as `edit` returns it; the returned list
    collects, run by run, the record the ladder itself returned."""
    real = strength.approximate_strengths
    records = []

    def wrapped(*args, **kwargs):
        records.append(real(*args, **kwargs))
        return edit(records[-1])

    monkeypatch.setattr(global_mincut, "approximate_strengths", wrapped)
    monkeypatch.setattr(st_module, "approximate_strengths", wrapped)
    return records


def count_calls(monkeypatch, module, name: str) -> list[int]:
    """Count the calls of `module.name` made through that module's
    namespace; the count sits in the returned list's only slot."""
    calls = [0]
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def patch_st_flow(patcher, answer) -> None:
    """Wrap `flow_cut` in st's namespace. st calls it first from the better
    terminal boundary and, where that gives up, once more after its route,
    from the route's answer U. `answer(later, run, upper)` answers each
    call in its place: `later` is False on an oracle's first call and True
    on every later one, and `run(upper)` runs the wrapped `flow_cut` from
    any upper. `patcher` is a monkeypatch or one of its contexts."""
    wrapped = st_module.flow_cut
    seen = weakref.WeakSet()

    def flow(oracle, s, t, upper, budget, known):
        later = oracle in seen
        seen.add(oracle)
        return answer(later, lambda cut: wrapped(oracle, s, t, cut, budget, known), upper)

    patcher.setattr(st_module, "flow_cut", flow)


def route_answers(monkeypatch, module) -> list:
    """Wrap the call every route of v1, v2 and st ends in, in that module's
    namespace; the returned list collects, call by call, the route's own
    answer U as it reaches that call. v1 and v2 end in `finish`, st in its
    second `flow_cut` on the solve's oracle, from U. A front answer, or st's
    first flow answer, never reaches it."""
    answers = []
    if module is st_module:

        def record(later, run, upper):
            if later:
                answers.append(upper)
            return run(upper)

        patch_st_flow(monkeypatch, record)
        return answers
    real = module.finish

    def wrapped(oracle, best, *args, **kwargs):
        answers.append(best)
        return real(oracle, best, *args, **kwargs)

    monkeypatch.setattr(module, "finish", wrapped)
    return answers


def patch_forests_off(patcher, last_flow: bool = True) -> None:
    """Keep v1, v2 and st off what they try before their routes, so that
    every route runs: the spanning forests of the shared front of v1 and
    v2 give up before their first query (`discovery.forests_first`), and so
    does st's first `flow_cut`, from the terminal boundary. The forests of
    v1's and v2's shared finish, `discovery.finish`, are left alone, and so
    is st's second `flow_cut`, after its route, unless `last_flow` is False:
    then it too gives up at once, and st answers with its route's own U.
    Neither draws random bits, so the sparsifier pipeline then runs on the
    stream it sees wherever forests or flow do not answer.
    `patcher` is a monkeypatch or one of its contexts."""
    patcher.setattr(
        discovery, "forests_first", lambda oracle, state, upper, *args, **kwargs: (upper, False)
    )
    patch_st_flow(
        patcher, lambda later, run, upper: run(upper) if later and last_flow else (upper, False)
    )


@pytest.fixture
def without_forests(monkeypatch):
    """Keep v1, v2 and st off the forests or flow they try first
    (`patch_forests_off`); the finish and st's last flow still run."""
    patch_forests_off(monkeypatch)


@pytest.fixture
def h_never_g(monkeypatch):
    """Keep v2 and st off their H-is-G shortcut and off the forests or flow
    they try first, and st off its last flow too, so that st answers with
    its route's own U and every route miss counts.

    The ladder builds H on the same random stream as ever, and only its
    `h_is_g` report is forced to False, so the sampled path runs on exactly
    the inputs and streams it would see if H differed from G.
    """
    patch_forests_off(monkeypatch, last_flow=False)
    patch_ladder(monkeypatch, lambda ladder: ladder._replace(h_is_g=False))


class HalfKeep(Tuning):
    """Caps the sparsifier's keep probability at 1/2: every edge H keeps
    weighs at least 2, so H is never G and the sampled path always runs."""

    def h_prob(self, q: Fraction, eps: Fraction) -> Fraction:
        return min(super().h_prob(q, eps), Fraction(1, 2))


def planted_st_cases(count: int, seed: int) -> list[tuple[SimpleGraph, int, int]]:
    """Criterion-01-style planted graphs (12-40 vertices, 1-3 crossing
    edges), each with one terminal on either side of the planted cut."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(12, 40)
        g, side = planted_cut_sides(
            n, rng.randint(1, 3), rng.uniform(0.5, 0.8), random.Random(rng.randrange(2**32))
        )
        s = rng.choice(sorted(side))
        t = rng.choice(sorted(set(range(n)) - side))
        cases.append((g, s, t))
    return cases


def ring_of_clusters(k: int, c: int, p: float, b: int, rng: random.Random) -> SimpleGraph:
    """k gnp(c, p) clusters, cluster i on ids c i to c i + c - 1, in a ring:
    random edges join clusters i and i + 1 (mod k) until b join them."""
    edges = set()
    for i in range(k):
        edges |= {(u + c * i, v + c * i) for u, v in gnp(c, p, rng).edges}
    for i in range(k):
        joined = 0
        while joined < b:
            e = normalize_edge(c * i + rng.randrange(c), c * ((i + 1) % k) + rng.randrange(c))
            if e not in edges:
                edges.add(e)
                joined += 1
    return SimpleGraph.from_edges(k * c, edges)


def make_oracle(g: SimpleGraph) -> CutOracle:
    return CutOracle(g)


def distinct_spent(oracle: CutOracle, before: tuple[int, int]) -> int:
    """Distinct queries consumed since `before` (a ledger snapshot)."""
    return oracle.ledger.distinct_queries - before[0]


def brute_min_cut_value(g: SimpleGraph | WeightedGraph):
    """Minimum over all proper sides, by direct sweep. Independent oracle."""
    best = None
    for mask in range(1, 1 << (g.n - 1)):
        v = exact_cut_value(g, mask)
        if best is None or v < best:
            best = v
    return best


def brute_cuts_at_most(g: SimpleGraph | WeightedGraph, threshold) -> set[int]:
    """Canonical masks (vertex 0 side) of all proper cuts with value <= t."""
    out = set()
    # sides containing vertex 0, excluding the full set
    for mask in range((1 << (g.n - 1)) - 1):
        side = (mask << 1) | 1
        if exact_cut_value(g, side) <= threshold:
            out.add(side)
    return out


def brute_st_cut_value(g: SimpleGraph | WeightedGraph, s: int, t: int):
    best = None
    for mask in range(1 << g.n):
        if (mask >> s) & 1 and not (mask >> t) & 1:
            v = exact_cut_value(g, mask)
            if best is None or v < best:
                best = v
    return best


def brute_minimal_st_side(g: WeightedGraph, s: int, t: int) -> tuple[int, int]:
    """The min s-t cut value and the intersection of every minimum side that
    holds s but not t, by a sweep over every such side; cut values are
    summed straight off the weight map."""
    best, meet = None, 0
    for mask in range(1 << g.n):
        if not (mask >> s) & 1 or (mask >> t) & 1:
            continue
        value = sum(w for (u, v), w in g.weights.items() if ((mask >> u) ^ (mask >> v)) & 1)
        if best is None or value < best:
            best, meet = value, mask
        elif value == best:
            meet &= mask
    return best, meet


def brute_cover_count(g: WeightedGraph, epsilon: Fraction) -> int:
    """Edges crossing some cut with both sides of size two or more and value
    at most c + epsilon d, c the min cut and d the minimum degree, by a sweep
    over every side that holds vertex 0; cut values and degrees are summed
    straight off the weight map."""
    weights, n = g.weights, g.n

    def crossing(mask: int) -> list[tuple[int, int]]:
        return [(u, v) for u, v in weights if ((mask >> u) ^ (mask >> v)) & 1]

    values = {}
    for half in range((1 << (n - 1)) - 1):
        side = (half << 1) | 1
        values[side] = sum(weights[e] for e in crossing(side))
    degree = [sum(w for e, w in weights.items() if v in e) for v in range(n)]
    bound = min(values.values()) + epsilon * min(degree)
    covered = set()
    for side, value in values.items():
        if 2 <= side.bit_count() <= n - 2 and value <= bound:
            covered.update(crossing(side))
    return len(covered)


def all_simple_graphs(n: int):
    """Every labeled simple graph on n vertices (2^C(n,2) of them)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield SimpleGraph.from_edges(
            n, [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        )


def random_simple_graph(n: int, rng: random.Random, p: float | None = None) -> SimpleGraph:
    q = rng.uniform(0.2, 0.8) if p is None else p
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < q
    ]
    return SimpleGraph.from_edges(n, edges)


def random_weighted_graph(
    n: int, rng: random.Random, max_w: int = 5, p: float = 0.5
) -> WeightedGraph:
    edges = [
        (u, v, rng.randint(1, max_w))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return WeightedGraph.from_edges(n, edges)


def is_connected(g: SimpleGraph | WeightedGraph) -> bool:
    if g.n <= 1:
        return True
    adj = {v: set() for v in range(g.n)}
    edge_iter = g.edges if isinstance(g, SimpleGraph) else g.weights
    for u, v in edge_iter:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def definitional_strength_brute(g: SimpleGraph, u: int, v: int) -> int:
    """Max over vertex subsets containing u,v of the induced min cut.

    Exponential sweep straight off the definition; usable to n ~ 10.
    """
    best = 0
    member = (1 << u) | (1 << v)
    for mask in range(1 << g.n):
        if mask & member != member:
            continue
        verts = [i for i in range(g.n) if (mask >> i) & 1]
        if len(verts) < 2:
            continue
        pos = {w: i for i, w in enumerate(verts)}
        sub = SimpleGraph.from_edges(
            len(verts),
            [(pos[a], pos[b]) for a, b in g.edges if a in pos and b in pos],
        )
        if sub.m == 0:
            continue
        val = brute_min_cut_value(sub)
        if val > best:
            best = val
    return best


FRAC_THIRD = Fraction(1, 3)

def layered_dag(width: int, depth: int, rng: random.Random) -> WeightedGraph:
    """Unit-capacity layered graph: source, `depth` layers, sink."""
    n = 2 + width * depth
    s, t = 0, n - 1
    layer = lambda i: range(1 + i * width, 1 + (i + 1) * width)
    edges = []
    for v in layer(0):
        if rng.random() < 0.8:
            edges.append((s, v, 1))
    for i in range(depth - 1):
        for u in layer(i):
            for v in layer(i + 1):
                if rng.random() < 0.5:
                    edges.append((u, v, 1))
    for u in layer(depth - 1):
        if rng.random() < 0.8:
            edges.append((u, t, 1))
    return WeightedGraph.from_edges(n, edges)
