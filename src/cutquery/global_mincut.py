"""Exact global minimum cut in near-linear query count.

Both pipelines run front -> route -> finish (see `discovery`): the shared
front answers a zero degree, n = 2 or a forest answer, and otherwise hands
U, the cheapest cut seen, to the route, which ends in `discovery.finish`.
v1's route is star contraction (Apers, Efron, Gawrychowski, Lee,
Mukhopadhyay and Nanongkai, arXiv 2201.05674): random centers, every other
vertex contracted onto a uniform random center neighbor, until a run lowers
U to where the finish's forests pay. v2's builds one strength sparsifier H.
When H holds every edge of G at weight 1, H's exact min cut is the answer.
Otherwise it enumerates H's near-minimum cuts and merges whatever those
cuts never separate (`contract_safe`). v1's star runs and v2's merged
groups are solved by `contraction.learn_contracted`: learn the small
multigraph left between groups and solve it exactly. Both keep the cheapest
group boundary observed (`ContractionState.best_seen`).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable

import numpy as np

from .contraction import learn_contracted, merge_and_refresh
from .discovery import descend, finish, front
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
    NEAR_MIN_SLACK,
    STAR_CENTER_COEFF,
    STAR_RUNS,
    Tuning,
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
    treat as "too many to be useful". `base_cut`, when supplied, must be a
    minimum cut of g; it spares one exact min cut computation.
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


def global_min_cut_v1(
    oracle: CutOracle,
    epsilon: Fraction | float = DEFAULT_EPS,
    rng: random.Random | None = None,
    tuning: Tuning = DEFAULT_TUNING,
    info: dict | None = None,
) -> Cut:
    """Exact global min cut: spanning forests where they are cheap, star
    contraction where they are not.

    The shared front's forests are tried first where
    2 (n - 1) min(U, ceil(log2 n)) <= m, U the cheapest cut seen and m the
    edge count. Failing a front answer, while U (n - 1) > m, star runs go
    on: a run keeps every vertex as a center with probability
    min(1, STAR_CENTER_COEFF ln n / d), d the minimum degree, contracts
    every other vertex onto a uniform random center neighbor (none: it
    stays a singleton), learns the multigraph between the stars and solves
    it. A non-singleton min cut survives a run
    with constant probability; the degree pass sees every singleton one.
    Runs stop after max(STAR_RUNS, repetitions) runs, or after one that
    contracted nothing: it learned the graph itself and proves its answer.
    `discovery.finish` ends the route; info["certified"] reports an answer
    proved minimum and info["forests"] counts the forests built. `epsilon`
    is validated like v2's and otherwise unused.
    """
    _check_args(oracle, epsilon, rng)
    n = oracle.n
    stats = {} if info is None else info
    stats.update(rounds=0, learned=0)
    base, best = front(oracle, stats)
    if stats["certified"]:
        return best
    m = base.interface_edge_count()
    p = STAR_CENTER_COEFF * math.log(n) / base.best_seen.value
    runs = max(STAR_RUNS, tuning.repetitions(n))
    while best.value * (n - 1) > m and stats["rounds"] < runs and not stats["certified"]:
        centers = [v for v in range(n) if p >= 1 or rng.random() < p]
        parts = [1 << c for c in centers]
        center_mask = sum(parts)
        stars = {c: [c] for c in centers}
        for v in range(n):
            if (center_mask >> v) & 1:
                continue
            total = oracle.count_between_masks(1 << v, center_mask)
            if total:
                i, _ = descend(oracle, 1 << v, parts, total, rng)
                stars[centers[i]].append(v)
        state = base.copy()
        for members in stars.values():
            if len(members) > 1:
                merge_and_refresh(oracle, state, members)
        stats["rounds"] += 1
        best = better_cut(best, state.best_seen)
        if state.group_count() >= 2:
            cut = learn_contracted(oracle, state, state.interface_edge_count())
            stats["learned"] += 1
            best = better_cut(best, cut)
        stats["certified"] = state.group_count() == n
    return finish(oracle, best, m, stats)


def global_min_cut_v2(
    oracle: CutOracle,
    epsilon: Fraction | float = DEFAULT_EPS,
    rng: random.Random | None = None,
    tuning: Tuning = DEFAULT_TUNING,
    info: dict | None = None,
) -> Cut:
    """Exact global min cut through one strength sparsifier, after the
    shared front (`discovery.front`), whose forests prove a low minimum
    degree on sparse graphs without any H. Builds H. When H is G (every
    ladder level kept its edges whole), H's min cut is the answer, proved.
    Otherwise enumerates the cuts of H within the near-minimum band, merges
    whatever they never separate, and learns the surviving inter-group
    edges when there are few enough; failing that, falls back to U, the
    cheapest cut seen, lowered by the boundaries the sparsifier pass
    observed. `discovery.finish` ends the route; info["certified"] reports
    an answer proved minimum and info["forests"] counts the forests. Each
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
    m = singles.interface_edge_count()
    _, h, seen, h_is_g = approximate_strengths(oracle, eps, rng, tuning)
    stats["h_edges"] = h.m
    best = better_cut(best, seen)
    if best.value == 0:
        return finish(oracle, best, m, stats)
    hcut = deterministic_min_cut(h)
    if h_is_g:
        stats["certified"] = True
        return finish(oracle, hcut, m, stats)
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
        best = better_cut(best, merged.best_seen)
        if merged.group_count() < 2:
            stats["merged_all"] += 1
        else:
            cut = learn_contracted(oracle, merged, tuning.learn_cap(n))
            if cut is None:
                stats["skipped_learning"] += 1
            else:
                stats["learned"] += 1
                best = better_cut(best, cut)
    return finish(oracle, best, m, stats)


def cover_edge_count(g: SimpleGraph | WeightedGraph, epsilon: Fraction | float) -> int:
    """How many edges lie on some non-singleton cut of value <= c + eps*d,
    where c is the min cut value and d the minimum degree.

    Exhaustive: sweeps every bipartition with both sides of size two or
    more, so it is capped at 16 vertices. Singleton sides are excluded;
    on a complete graph nothing qualifies and the count is zero.
    """
    wg = _as_weighted(g)
    n = wg.n
    if n < 2:
        raise ValueError("cuts need at least two vertices")
    if n > 16:
        raise ValueError("cover counting is exhaustive and capped at 16 vertices")
    if n < 4:
        return 0  # no bipartition has two vertices on both sides
    _check_sweep_range(wg.weights)
    c_min = deterministic_min_cut(wg).value
    d_min = min(wg.degree_weights())
    bound = math.floor(c_min + Fraction(epsilon) * d_min)
    (masks,) = _side_masks(n)  # one chunk: n <= 16
    sizes = np.bitwise_count(masks)
    keep = (sizes >= 2) & (sizes <= n - 2)
    masks = masks[keep]
    vals = _mask_cut_values(wg.weights, n, masks)
    covered: set[tuple[int, int]] = set()
    for mask in masks[vals <= bound].tolist():
        for u, v in wg.weights:
            if ((mask >> u) ^ (mask >> v)) & 1:
                covered.add((u, v))
    return len(covered)


__all__ = [
    "EXHAUSTIVE_ENUM_LIMIT",
    "enumerate_near_min_cuts",
    "contract_safe",
    "global_min_cut_v1",
    "global_min_cut_v2",
    "cover_edge_count",
]
