"""Exact global minimum cut in near-linear query count.

Two pipelines share one endgame, `_endgame`: merge whatever the listed
near-minimum cuts never separate (`contract_safe`), learn the few edges
left between the merged groups (`contraction.learn_contracted`) and solve
that multigraph exactly. The first pipeline guesses the min cut value in
powers of two; per guess it contracts down to about c*n interface edges
and subsamples the survivor so near-minimum cuts stand out, then
enumerates those. The second replaces guessing and subsampling with one
strength sparsifier and enumerates near-minimum cuts there. Both track the
cheapest group boundary ever observed, so even rounds that bail out keep
their evidence.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable

import numpy as np

from .contraction import (
    karger_until,
    learn_contracted,
    merge_and_refresh,
    singleton_state,
    uniform_subsample,
)
from .graph import (
    ContractionState,
    Cut,
    SimpleGraph,
    Weight,
    WeightedGraph,
    better_cut,
    bits_of,
    canonical_side_mask,
)
from .oracle import OracleBase
from .params import DEFAULT_EPS, DEFAULT_TUNING, NEAR_MIN_SLACK, Tuning, ceil_log2
from .reference import (
    _UnionFind,
    _as_weighted,
    _check_sweep_range,
    _int_weights,
    _mask_cut_values,
    _value_of,
    deterministic_min_cut,
)
from .strength import build_sparsifier

# sweep every bipartition up to this order; randomized contraction beyond
EXHAUSTIVE_ENUM_LIMIT = 18
# randomized enumeration: contract to this many super-vertices per trial
TRIAL_SUPERS = 14
# stop after this many consecutive trials that add nothing new
TRIAL_STALL_LIMIT = 48
TRIAL_HARD_CAP = 1500


def _enumerate_exhaustive(
    wg: WeightedGraph,
    scaled: dict[tuple[int, int], int],
    denom: int,
    threshold: Fraction,
    max_cuts: int | None,
) -> list[Cut] | None:
    n = wg.n
    bound = math.floor(threshold * denom)
    if bound < 0:
        return []
    out: list[Cut] = []
    top = 1 << (n - 1)
    chunk = 1 << 18
    for start in range(0, top, chunk):
        stop = min(start + chunk, top)
        halves = np.arange(start, stop, dtype=np.uint64)
        masks = (halves << np.uint64(1)) | np.uint64(1)
        if stop == top:
            masks = masks[:-1]  # the last half maps to the full vertex set
            if masks.size == 0:
                continue
        vals = _mask_cut_values(scaled, n, masks)
        for mask, val in zip(masks[vals <= bound].tolist(), vals[vals <= bound].tolist()):
            out.append(Cut(frozenset(bits_of(int(mask))), _value_of(int(val), denom)))
            if max_cuts is not None and len(out) > max_cuts:
                return None
    out.sort(key=lambda c: (c.value, c.sorted_side()))
    return out


def _enumerate_randomized(
    wg: WeightedGraph,
    scaled: dict[tuple[int, int], int],
    denom: int,
    threshold: Fraction,
    rng: random.Random,
    max_cuts: int | None,
    base_cut: Cut | None,
) -> list[Cut] | None:
    """Repeated weighted contraction to a handful of super-vertices, then an
    exhaustive sweep over the super bipartitions. A cut survives a trial iff
    no crossing edge was contracted, so cheap cuts keep turning up; trials
    stop once nothing new has appeared for a while.
    """
    n = wg.n
    full = (1 << n) - 1
    bound = math.floor(threshold * denom)
    if bound < 0:
        return []
    found: dict[int, Cut] = {}

    def add(mask: int, scaled_val: int) -> bool:
        mask = canonical_side_mask(mask, full)
        if mask in found:
            return False
        found[mask] = Cut(frozenset(bits_of(mask)), _value_of(scaled_val, denom))
        return True

    # singleton cuts are free knowledge once degrees are known
    deg = [0] * n
    for (u, v), w in scaled.items():
        deg[u] += w
        deg[v] += w
    for v in range(n):
        if deg[v] <= bound:
            add(1 << v, deg[v])
            if max_cuts is not None and len(found) > max_cuts:
                return None

    comps = wg.component_masks()
    if len(comps) > 1:
        # zero cuts: every proper union of whole components
        k = len(comps)
        if k > 20:
            return None
        for pick in range(1, 1 << (k - 1)):
            side = comps[0]
            for i in range(1, k):
                if (pick >> (i - 1)) & 1:
                    side |= comps[i]
            if side != full:
                add(side, 0)
                if max_cuts is not None and len(found) > max_cuts:
                    return None
        if bound == 0:
            return sorted(found.values(), key=lambda c: (c.value, c.sorted_side()))

    base = base_cut if base_cut is not None else deterministic_min_cut(wg)
    if base.value > threshold:
        return []
    add(canonical_side_mask(base.side_mask(), full), math.floor(Fraction(base.value) * denom))

    pairs = sorted(scaled)
    m = len(pairs)
    if m == 0:
        return sorted(found.values(), key=lambda c: (c.value, c.sorted_side()))
    us = np.fromiter((u for u, _ in pairs), dtype=np.int64, count=m)
    vs = np.fromiter((v for _, v in pairs), dtype=np.int64, count=m)
    w_float = np.array([float(scaled[p]) for p in pairs], dtype=np.float64)
    w_int = np.array([scaled[p] for p in pairs], dtype=np.int64)
    target = min(TRIAL_SUPERS, n)

    stall = 0
    trials = 0
    while trials < TRIAL_HARD_CAP and stall < TRIAL_STALL_LIMIT:
        trials += 1
        npr = np.random.default_rng(rng.getrandbits(64))
        keys = npr.exponential(size=m) / w_float
        uf = _UnionFind(n)
        for i in np.argsort(keys).tolist():
            if uf.groups <= target:
                break
            uf.union(int(us[i]), int(vs[i]))
        label = [0] * n
        relabel: dict[int, int] = {}
        for v in range(n):
            r = uf.find(v)
            label[v] = relabel.setdefault(r, len(relabel))
        s = len(relabel)
        if s < 2 or s > 16:
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
        halves = np.arange(0, 1 << (s - 1), dtype=np.uint64)
        sides = (halves << np.uint64(1)) | np.uint64(1)
        sides = sides[:-1]
        vals = _mask_cut_values(pair_w, s, sides)
        new = False
        for smask, val in zip(sides[vals <= bound].tolist(), vals[vals <= bound].tolist()):
            orig = 0
            for j in bits_of(int(smask)):
                orig |= smasks[j]
            new |= add(orig, int(val))
            if max_cuts is not None and len(found) > max_cuts:
                return None
        stall = 0 if new else stall + 1
    return sorted(found.values(), key=lambda c: (c.value, c.sorted_side()))


def _prefer_small_side(cuts: list[Cut], n: int) -> list[Cut]:
    """Report each bipartition by its smaller side, ties to vertex 0's side."""
    full = (1 << n) - 1
    out = []
    for cut in cuts:
        mask = cut.side_mask()
        other = full & ~mask
        small = mask.bit_count()
        if small * 2 > n or (small * 2 == n and not mask & 1):
            mask = other
        out.append(Cut(frozenset(bits_of(mask)), cut.value))
    return sorted(out, key=lambda c: (c.value, c.sorted_side()))


def enumerate_near_min_cuts(
    g: SimpleGraph | WeightedGraph,
    threshold: Weight,
    rng: random.Random,
    max_cuts: int | None = None,
    base_cut: Cut | None = None,
) -> list[Cut] | None:
    """Every cut of value at most `threshold`, singleton sides included.

    Exhaustive (and deterministic) up to 18 vertices; beyond that, repeated
    random contraction with adaptive stopping, which finds each qualifying
    cut with high probability but carries no certificate of completeness.
    Returns None instead of a list once more than `max_cuts` distinct cuts
    have turned up, which callers treat as "too many to be useful".
    `base_cut`, when supplied, must be a minimum cut of g; it spares the
    randomized path one exact min cut computation.
    """
    wg = _as_weighted(g)
    if wg.n < 2:
        raise ValueError("cuts need at least two vertices")
    scaled, denom = _int_weights(wg)
    _check_sweep_range(scaled)
    thr = Fraction(threshold)
    if wg.n <= EXHAUSTIVE_ENUM_LIMIT:
        cuts = _enumerate_exhaustive(wg, scaled, denom, thr, max_cuts)
    else:
        cuts = _enumerate_randomized(wg, scaled, denom, thr, rng, max_cuts, base_cut)
    return None if cuts is None else _prefer_small_side(cuts, wg.n)


def contract_safe(
    oracle: OracleBase, state: ContractionState, cuts: Iterable[Cut]
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


def _cut_of(best_seen: tuple[int, int]) -> Cut:
    value, mask = best_seen
    return Cut(frozenset(bits_of(mask)), value)


def _fold_seen(best: Cut | None, state: ContractionState) -> Cut | None:
    if state.best_seen is not None:
        return better_cut(best, _cut_of(state.best_seen))
    return best


def _endgame(
    oracle: OracleBase,
    state: ContractionState,
    cuts: list[Cut],
    cap: int,
    best: Cut,
    stats: dict,
) -> Cut:
    """Merge whatever the non-singleton `cuts` (over the state's groups) do
    not separate, learn the edges left between the merged groups unless
    more than `cap` remain, and min-cut that multigraph exactly; returns the
    better of `best`, every boundary seen and the learned cut."""
    k = state.group_count()
    merged = contract_safe(oracle, state, [c for c in cuts if 2 <= len(c.side) <= k - 2])
    best = _fold_seen(best, merged)
    if merged.group_count() < 2:
        return best
    learned = learn_contracted(oracle, merged, cap)
    if learned is None:
        stats["skipped_learning"] += 1
        return best
    mg, masks = learned
    cut = deterministic_min_cut(mg)
    side = 0
    for i in cut.side:
        side |= masks[i]
    stats["learned"] += 1
    return better_cut(best, Cut(frozenset(bits_of(side)), cut.value))


def global_min_cut_v1(
    oracle: OracleBase,
    epsilon: Fraction | float = DEFAULT_EPS,
    rng: random.Random | None = None,
    tuning: Tuning = DEFAULT_TUNING,
    info: dict | None = None,
) -> Cut:
    """Exact global min cut by guessing its value in powers of two.

    Per guess c: contract to about c*n interface edges, keep each edge with
    probability ~log(n)/c, enumerate the near-minimum cuts of the survivor,
    merge everything those cuts do not separate, and learn the rest if few
    enough. Rounds whose guess is far off stay cheap: their enumeration
    bails out almost immediately. The cheapest boundary ever observed backs
    up every abandoned round.
    """
    if rng is None:
        raise ValueError("an rng is required")
    eps = Fraction(epsilon)
    if not 0 < eps < Fraction(1, 3):
        raise ValueError("epsilon must sit strictly between 0 and 1/3")
    n = oracle.n
    if n < 2:
        raise ValueError("cuts need at least two vertices")
    base = singleton_state(oracle)
    if base.best_seen is None:
        raise RuntimeError("the degree pass recorded no boundary")
    best = _cut_of(base.best_seen)
    stats = {"rounds": 0, "bailed": 0, "learned": 0, "skipped_learning": 0}
    d_min = best.value
    if n == 2 or d_min == 0:
        if info is not None:
            info.update(stats)
        return best
    reps = tuning.repetitions(n)
    cap = tuning.learn_cap(n)
    max_cuts = max(4 * n, 64)
    for j in range(min(d_min.bit_length(), ceil_log2(n)) + 1):
        c = 1 << j
        p = tuning.subsample_prob(n, c, eps)
        threshold = (1 + NEAR_MIN_SLACK * eps) * p * c
        target = tuning.contraction_target(n, c)
        for _ in range(reps):
            state = karger_until(oracle, target, rng, state=base.copy())
            best = _fold_seen(best, state)
            deterministic = state.group_count() == n and p >= 1
            g2 = uniform_subsample(oracle, state, p, rng)
            stats["rounds"] += 1
            cuts = enumerate_near_min_cuts(g2, threshold, rng, max_cuts=max_cuts)
            if cuts is None:
                stats["bailed"] += 1
            else:
                best = _endgame(oracle, state, cuts, cap, best, stats)
            if deterministic:
                # nothing random left in this guess's rounds; repeating the
                # rep only replays the identical subsample
                break
    if info is not None:
        info.update(stats)
    return best


def global_min_cut_v2(
    oracle: OracleBase,
    epsilon: Fraction | float = DEFAULT_EPS,
    rng: random.Random | None = None,
    tuning: Tuning = DEFAULT_TUNING,
    info: dict | None = None,
) -> Cut:
    """Exact global min cut through one strength sparsifier.

    Builds H, enumerates the cuts of H within the near-minimum band, merges
    whatever they never separate, and learns the surviving inter-group edges
    when there are few enough; otherwise falls back to the cheapest boundary
    the sparsifier pass observed.
    """
    if rng is None:
        raise ValueError("an rng is required")
    eps = Fraction(epsilon)
    if not 0 < eps < Fraction(1, 3):
        raise ValueError("epsilon must sit strictly between 0 and 1/3")
    n = oracle.n
    if n < 2:
        raise ValueError("cuts need at least two vertices")
    diag: dict = {}
    h = build_sparsifier(oracle, eps, rng, tuning, diag=diag)
    stats = {"h_edges": h.m, "bailed": 0, "learned": 0, "skipped_learning": 0}
    if diag["best_seen"] is None:
        raise RuntimeError("the sparsifier pass recorded no boundary")
    best = _cut_of(diag["best_seen"])
    if n == 2 or best.value == 0:
        if info is not None:
            info.update(stats)
        return best
    hcut = deterministic_min_cut(h)
    threshold = (1 + NEAR_MIN_SLACK * eps) * hcut.value
    cuts = enumerate_near_min_cuts(
        h, threshold, rng, max_cuts=max(4 * n, 64), base_cut=hcut
    )
    if cuts is None:
        stats["bailed"] += 1
        if info is not None:
            info.update(stats)
        return best
    ident = singleton_state(oracle)  # degrees all memoized: zero fresh cost
    best = _endgame(oracle, ident, cuts, tuning.learn_cap(n), best, stats)
    if info is not None:
        info.update(stats)
    return best


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
    scaled, denom = _int_weights(wg)
    _check_sweep_range(scaled)
    c_min = deterministic_min_cut(wg).value
    d_min = min(wg.degree_weights())
    bound = math.floor((Fraction(c_min) + Fraction(epsilon) * Fraction(d_min)) * denom)
    halves = np.arange(0, 1 << (n - 1), dtype=np.uint64)
    masks = ((halves << np.uint64(1)) | np.uint64(1))[:-1]
    sizes = np.bitwise_count(masks)
    keep = (sizes >= 2) & (sizes <= n - 2)
    masks = masks[keep]
    vals = _mask_cut_values(scaled, n, masks)
    covered: set[tuple[int, int]] = set()
    for mask in masks[vals <= bound].tolist():
        mask = int(mask)
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
