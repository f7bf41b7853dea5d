"""Exact global minimum cut in near-linear query count.

Both pipelines run front -> route -> finish (see `discovery`): the shared
front answers a zero degree, n = 2, a layer search's answer at U = 1 or a
forest answer, and otherwise hands U, the cheapest cut seen, to the
route, which ends in `discovery.finish`.
v1's route draws no random bit and proves its answer, unless it spends
past the price of learning G. Where U (n - 1) <= m, m the edge count, it
leaves U to the finish's forests. Where the minimum degree is at most
LEARN_DEGREE_COEFF ln n it learns G over singletons and solves it
(`contraction.learn_contracted`); elsewhere unit flows from vertex 0 to
every other vertex of a dominating set prove U or lower it
(`discovery.dominating_flows`, after Matula, FOCS 1987). v2's route runs
those same flows, under the same rule, and goes straight to the finish
where they prove U. Where they give up, or the rule does not hold, it
builds one strength sparsifier H. When H holds every edge of G at weight
1, H's exact min cut is the answer. Otherwise it enumerates H's
near-minimum cuts and merges whatever those cuts never separate
(`contract_safe`); the merged groups are solved by `learn_contracted`
too: learn the small multigraph left between groups and solve it exactly.
Both fold the oracle's cheapest answer (`CutOracle.cheapest`) into U after
each phase.

Only the enumeration's sweeps use numpy, and they import it when they run,
so a solve that never enumerates never loads it.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable

from .contraction import learn_contracted, merge_and_refresh
from .discovery import dominating_flows, finish, front
from .graph import (
    ContractionState,
    Cut,
    SimpleGraph,
    UnionFind,
    WeightedGraph,
    better_cut,
    bits_of,
    canonical_side_mask,
)
from .oracle import CutOracle
from .params import (
    DEFAULT_EPS,
    DEFAULT_TUNING,
    LEARN_DEGREE_COEFF,
    NEAR_MIN_SLACK,
    Tuning,
    learn_price,
)
from .reference import (
    _as_weighted,
    _check_sweep_range,
    _mask_cut_values,
    _side_masks,
    deterministic_min_cut,
)
from .strength import approximate_strengths

# sweep every bipartition up to this order; randomized contraction beyond
EXHAUSTIVE_ENUM_LIMIT = 18
# randomized enumeration: contract to this many super-vertices per trial
TRIAL_SUPERS = 14
# stop after this many consecutive trials that add nothing new
TRIAL_STALL_LIMIT = 48
TRIAL_HARD_CAP = 1500


def _enumerate(
    wg: WeightedGraph,
    threshold: Fraction | float,
    rng: random.Random,
    max_cuts: int | None,
    base_cut: Cut | None,
) -> list[Cut] | None:
    """Repeated weighted contraction to a handful of super-vertices, then an
    exhaustive sweep over the super bipartitions. A cut survives a trial iff
    no crossing edge was contracted, so cheap cuts keep turning up; trials
    stop once nothing new has appeared for a while. Up to
    EXHAUSTIVE_ENUM_LIMIT vertices the one trial contracts nothing, so its
    sweep covers every bipartition and draws nothing from `rng`.
    """
    import numpy as np

    n = wg.n
    full = (1 << n) - 1
    bound = math.floor(threshold)
    if bound < 0:
        return []
    # keyed by the side holding vertex 0; each cut reports its smaller side,
    # ties to vertex 0's
    found: dict[int, Cut] = {}

    def add(mask: int, value: int) -> bool:
        key = canonical_side_mask(mask, full)
        if key in found:
            return False
        side = full & ~key if 2 * key.bit_count() > n else key
        found[key] = Cut(frozenset(bits_of(side)), value)
        return True

    # singleton cuts are free knowledge once degrees are known
    for v, d in enumerate(wg.degree_weights()):
        if d <= bound:
            add(1 << v, d)
            if max_cuts is not None and len(found) > max_cuts:
                return None

    comps = wg.component_masks()
    if len(comps) > 1:
        # zero cuts: comps[0] with every proper subset of the others
        k = len(comps)
        if k > 20:
            if max_cuts is None:
                raise ValueError(f"{k} components: too many zero cuts to list uncapped")
            return None
        for pick in range((1 << (k - 1)) - 1):
            side = comps[0]
            for i in range(1, k):
                if (pick >> (i - 1)) & 1:
                    side |= comps[i]
            add(side, 0)
            if max_cuts is not None and len(found) > max_cuts:
                return None
        if bound == 0:
            return list(found.values())

    base = base_cut if base_cut is not None else deterministic_min_cut(wg)
    if base.value > threshold:
        return []
    add(base.side_mask(), base.value)

    pairs = sorted(wg.weights)
    m = len(pairs)
    if m == 0:
        return list(found.values())
    us = np.fromiter((u for u, _ in pairs), dtype=np.int64, count=m)
    vs = np.fromiter((v for _, v in pairs), dtype=np.int64, count=m)
    w_float = np.array([float(wg.weights[p]) for p in pairs], dtype=np.float64)
    w_int = np.array([wg.weights[p] for p in pairs], dtype=np.int64)
    exhaustive = n <= EXHAUSTIVE_ENUM_LIMIT

    stall = 0
    trials = 0
    while trials < TRIAL_HARD_CAP and stall < TRIAL_STALL_LIMIT:
        trials += 1
        uf = UnionFind(n)
        if not exhaustive:
            npr = np.random.default_rng(rng.getrandbits(64))
            keys = npr.exponential(size=m) / w_float
            for i in np.argsort(keys).tolist():
                if uf.groups <= TRIAL_SUPERS:
                    break
                uf.union(int(us[i]), int(vs[i]))
        label = [0] * n
        relabel: dict[int, int] = {}
        for v in range(n):
            r = uf.find(v)
            label[v] = relabel.setdefault(r, len(relabel))
        s = len(relabel)
        if s < 2 or s > EXHAUSTIVE_ENUM_LIMIT:
            stall += 1
            continue
        lab = np.array(label, dtype=np.int64)
        ea, eb = lab[us], lab[vs]
        lo, hi = np.minimum(ea, eb), np.maximum(ea, eb)
        cross = lo != hi
        mat = np.zeros(s * s, dtype=np.int64)
        np.add.at(mat, (lo[cross] * s + hi[cross]), w_int[cross])
        pair_w = {
            (int(i // s), int(i % s)): int(mat[i]) for i in np.nonzero(mat)[0]
        }
        smasks = [0] * s
        for v in range(n):
            smasks[label[v]] |= 1 << v
        new = False
        for sides in _side_masks(s):
            vals = _mask_cut_values(pair_w, s, sides)
            hit = vals <= bound
            for smask, val in zip(sides[hit].tolist(), vals[hit].tolist()):
                orig = 0
                for j in bits_of(smask):
                    orig |= smasks[j]
                new |= add(orig, val)
                if max_cuts is not None and len(found) > max_cuts:
                    return None
        if exhaustive:
            break
        stall = 0 if new else stall + 1
    return list(found.values())


def enumerate_near_min_cuts(
    g: SimpleGraph | WeightedGraph,
    threshold: Fraction | float,
    rng: random.Random,
    max_cuts: int | None = None,
    base_cut: Cut | None = None,
) -> list[Cut] | None:
    """Every cut of value at most `threshold`, singleton sides included.

    One enumerator: repeated random contraction with adaptive stopping,
    which finds each qualifying cut with high probability but carries no
    certificate of completeness. Up to EXHAUSTIVE_ENUM_LIMIT (18) vertices
    it contracts nothing and sweeps every bipartition once, so the list is
    complete and `rng` is left untouched. Returns None instead of a list
    once more than `max_cuts` distinct cuts have turned up, which callers
    treat as "too many to be useful"; with no `max_cuts`, a g of more than
    20 components, whose zero cuts alone number 2^20 - 1 or more, raises
    ValueError instead. `base_cut`, when supplied, must be a minimum cut of
    g; it spares one exact min cut computation.
    """
    wg = _as_weighted(g)
    if wg.n < 2:
        raise ValueError("cuts need at least two vertices")
    _check_sweep_range(wg.weights)
    cuts = _enumerate(wg, threshold, rng, max_cuts, base_cut)
    return None if cuts is None else sorted(cuts, key=lambda c: (c.value, c.sorted_side()))


def contract_safe(
    oracle: CutOracle, state: ContractionState, cuts: Iterable[Cut]
) -> ContractionState:
    """Coarsen the state's partition as far as the listed cuts allow.

    Two groups land in the same class iff no cut separates them (cut sides
    index the state's groups in ascending root order). Each multi-group
    class is merged through `merge_and_refresh`; with no cuts at all,
    everything merges into a single group. Returns a new state; the one
    passed in is left untouched.
    """
    state = state.copy()
    roots = list(state.roots)
    sig = {r: 0 for r in roots}
    for ci, cut in enumerate(cuts):
        for i in cut.side:
            sig[roots[i]] |= 1 << ci
    classes: dict[int, list[int]] = {}
    for r in roots:
        classes.setdefault(sig[r], []).append(r)
    for members in classes.values():
        if len(members) > 1:
            merge_and_refresh(oracle, state, members)
    return state


def _check_args(oracle: CutOracle, epsilon: Fraction | float, rng) -> Fraction:
    if rng is None:
        raise ValueError("an rng is required")
    eps = Fraction(epsilon)
    if not 0 < eps < Fraction(1, 3):
        raise ValueError("epsilon must sit strictly between 0 and 1/3")
    if oracle.n < 2:
        raise ValueError("cuts need at least two vertices")
    return eps


def _flow_budget(state: ContractionState, upper: Cut) -> int:
    """The one rule v1 and v2 share for flows from a dominating set past
    the front: their budget, `params.learn_price(n, m)` distinct queries,
    the price of learning G, where they take U = `upper` on, or 0 where
    they do not. They run where U (n - 1) > m, m the edge count the
    singleton `state` gives, so the finish's forests would learn more than
    m edges, and the minimum degree is above LEARN_DEGREE_COEFF ln n, at or
    below which v1 learns G instead."""
    n, m = state.n, state.interface_edge_count()
    low = min(map(state.degree, range(n))) <= LEARN_DEGREE_COEFF * math.log(n)
    return 0 if low or upper.value * (n - 1) <= m else learn_price(n, m)


def global_min_cut_v1(
    oracle: CutOracle,
    epsilon: Fraction | float = DEFAULT_EPS,
    rng: random.Random | None = None,
    tuning: Tuning = DEFAULT_TUNING,
    info: dict | None = None,
) -> Cut:
    """Exact global min cut, proved, and no random bit drawn: spanning
    forests where they are cheap, G learned where the minimum degree is
    low, and unit flows from a dominating set elsewhere.

    The shared front's forests are tried first where U <= ceil(log2 n) and
    U (n - 1) <= m, U the cheapest cut seen and m the edge count
    (`discovery.forests_first`). Where U = 1, whatever m is, a layer search
    from vertex 0 proves it with no forest, about 2.4 queries per vertex at
    n = 256.
    Forests stop by forest U, by forest 1 where U = 2, and by forest 2
    where the sides their union cuts at 2 find a cut of 2 or prove U = 3.
    Failing a front answer, the finish's forests take it where
    U (n - 1) <= m. Elsewhere, where the minimum
    degree d is at most LEARN_DEGREE_COEFF ln n, v1 learns G over
    singletons (`contraction.learn_contracted`) and solves it; past that,
    `discovery.dominating_flows` proves U or lowers it, within
    `params.learn_price(n, m)` distinct queries, the price of learning G.
    Both read and write the solve's record of found edges.
    `discovery.finish` ends the route; info["certified"] reports an answer
    proved minimum, info["forests"] counts the forests built and
    info["rounds"] the flows. `epsilon` is validated like v2's and
    otherwise unused, and so is `rng`; `tuning` is unused.
    """
    _check_args(oracle, epsilon, rng)
    n = oracle.n
    stats = {} if info is None else info
    base, best = front(oracle, stats)
    if stats["certified"]:
        return best
    m, budget = base.interface_edge_count(), _flow_budget(base, best)
    if budget:
        best, stats["certified"] = dominating_flows(oracle, best, budget, stats)
    elif best.value * (n - 1) > m:
        best, stats["certified"] = better_cut(best, learn_contracted(oracle, base, m)), True
    return finish(oracle, better_cut(best, oracle.cheapest), base, stats)


def global_min_cut_v2(
    oracle: CutOracle,
    epsilon: Fraction | float = DEFAULT_EPS,
    rng: random.Random | None = None,
    tuning: Tuning = DEFAULT_TUNING,
    info: dict | None = None,
) -> Cut:
    """Exact global min cut: the shared front, then v1's flows, then one
    strength sparsifier where the flows give up or do not run.

    The front (`discovery.front`) proves U = 1, and any U <= ceil(log2 n)
    with U (n - 1) <= m, U the minimum degree and m the edge count, without
    any H, as v1 does: by a layer search with no forest where U = 1, and by
    forests otherwise, two where their union's 2-cut sides find a cut of 2
    or prove U = 3. Past it, where v1 runs its flows
    (U (n - 1) > m and a minimum degree above LEARN_DEGREE_COEFF ln n),
    `discovery.dominating_flows` proves U or lowers it within
    `params.learn_price(n, m)` distinct queries, and a proved answer goes
    straight to the finish. In both places v2 spends and
    answers what v1 does and draws no random bit. Otherwise it builds H.
    When H is G (every ladder level kept its edges whole), H's min cut is
    the answer, proved. Otherwise enumerates the cuts of H within the
    near-minimum band, merges whatever they never separate, and learns the
    surviving inter-group edges when there are few enough; failing that,
    falls back to U, the oracle's cheapest answer. `discovery.finish` ends
    the route; info["certified"] reports an answer proved minimum,
    info["forests"] counts the forests and info["rounds"] the flows. Each
    fallback is counted in `info`: "bailed" (too many cuts in the band),
    "merged_all" (the band's cuts left one group) and "skipped_learning"
    (too many edges between groups). info["h_edges"] is H's edge count, 0
    when no H was built.
    """
    eps = _check_args(oracle, epsilon, rng)
    n = oracle.n
    stats = {} if info is None else info
    stats.update(h_edges=0, bailed=0, learned=0, skipped_learning=0, merged_all=0)
    # the ladder queries these same singletons, so the pass costs nothing extra
    singles, best = front(oracle, stats)
    if stats["certified"]:
        return best
    budget = _flow_budget(singles, best)
    if budget:
        best, stats["certified"] = dominating_flows(oracle, best, budget, stats)
        if stats["certified"]:
            return finish(oracle, best, singles, stats)
    _, h, h_is_g = approximate_strengths(oracle, eps, rng, tuning)
    stats["h_edges"] = h.m
    best = better_cut(best, oracle.cheapest)
    if best.value == 0:
        return finish(oracle, best, singles, stats)
    hcut = deterministic_min_cut(h)
    if h_is_g:
        stats["certified"] = True
        return finish(oracle, hcut, singles, stats)
    threshold = (1 + NEAR_MIN_SLACK * eps) * hcut.value
    cuts = enumerate_near_min_cuts(
        h, threshold, rng, max_cuts=max(4 * n, 64), base_cut=hcut
    )
    if cuts is None:
        stats["bailed"] += 1
    else:
        merged = contract_safe(
            oracle, singles, [c for c in cuts if 2 <= len(c.side) <= n - 2]
        )
        if merged.group_count() < 2:
            stats["merged_all"] += 1
        else:
            cut = learn_contracted(oracle, merged, tuning.learn_cap(n))
            if cut is None:
                stats["skipped_learning"] += 1
            else:
                stats["learned"] += 1
                best = better_cut(best, cut)
    return finish(oracle, better_cut(best, oracle.cheapest), singles, stats)


def cover_edge_count(g: SimpleGraph | WeightedGraph, epsilon: Fraction | float) -> int:
    """How many edges lie on some non-singleton cut of value <= c + eps*d,
    where c is the min cut value and d the minimum degree.

    A filter over `enumerate_near_min_cuts`: it keeps the listed cuts with
    both sides of size two or more. Up to 16 vertices, below
    EXHAUSTIVE_ENUM_LIMIT, the enumerator is one exhaustive sweep that
    draws nothing from its rng, so the count is exact; larger graphs are
    rejected. On a complete graph nothing qualifies and the count is zero.
    """
    wg = _as_weighted(g)
    n = wg.n
    if n < 2:
        raise ValueError("cuts need at least two vertices")
    if n > 16:
        raise ValueError("cover counting is exhaustive and capped at 16 vertices")
    if n < 4:
        return 0  # no bipartition has two vertices on both sides
    base = deterministic_min_cut(wg)
    threshold = base.value + Fraction(epsilon) * min(wg.degree_weights())
    cuts = enumerate_near_min_cuts(wg, threshold, random.Random(0), base_cut=base)
    sides = [cut.side for cut in cuts if 2 <= len(cut.side) <= n - 2]
    return sum(any(len(side.intersection(e)) == 1 for side in sides) for e in wg.weights)


__all__ = [
    "EXHAUSTIVE_ENUM_LIMIT",
    "enumerate_near_min_cuts",
    "contract_safe",
    "global_min_cut_v1",
    "global_min_cut_v2",
    "cover_edge_count",
]
