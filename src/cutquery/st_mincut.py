"""Exact minimum s-t cut with a sublinear number of cut queries.

The route: build a strength sparsifier H. Where every ladder level kept
its edges whole, H is G and its min s-t cut is the answer. Otherwise push
a max flow between the terminals in H, delete the flow, and decompose what
survives at a small strength threshold. Any edge of an exact min s-t cut
has low strength in the flow-stripped graph, so the decomposition's pieces
never straddle the cut; contracting each piece leaves a multigraph small
enough to learn edge by edge, and the exact answer comes from max flow on
that multigraph.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .contraction import learn_contracted, merge_and_refresh, singleton_state
from .flow import max_flow, strip_flow
from .graph import Cut, better_cut, bits_of
from .oracle import CutOracle
from .params import DEFAULT_TUNING, Tuning, st_epsilon
from .reference import st_min_cut_known
from .strength import approximate_strengths, strength_decompose_known


def st_min_cut(
    oracle: CutOracle,
    s: int,
    t: int,
    rng: random.Random | None = None,
    epsilon: Fraction | float | None = None,
    tuning: Tuning = DEFAULT_TUNING,
    info: dict | None = None,
) -> Cut:
    """Exact min s-t cut; the returned side contains s.

    When the sparsifier holds every edge of G at weight 1, its own min s-t
    cut is the answer, found without another query; info["certified"]
    reports it. epsilon defaults to min(n^{-1/3}, 3/10); anything at or
    past 1/3 breaks the argument that decomposition pieces avoid straddling
    the cut, so that range is rejected. When the contracted interface is
    unexpectedly large (or learning it would blow the budget) the result
    degrades to the better of the two terminal boundaries rather than
    overspending; info["degraded"] reports it.
    """
    if rng is None:
        raise ValueError("an rng is required")
    n = oracle.n
    if not (0 <= s < n and 0 <= t < n) or s == t:
        raise ValueError("need two distinct terminals in range")
    eps = st_epsilon(n) if epsilon is None else Fraction(epsilon)
    if not 0 < eps < Fraction(1, 3):
        raise ValueError("epsilon must sit strictly between 0 and 1/3")

    diag: dict = {}
    _, h = approximate_strengths(oracle, eps, rng, tuning, diag=diag)
    if diag["h_is_g"]:
        if info is not None:
            info.update(degraded=False, certified=True)
        return st_min_cut_known(h, s, t)
    flow = max_flow(h, s, t)
    if h.cut_value_mask(flow.source_side_mask) != flow.value:
        raise RuntimeError("max flow's source side does not cut at the flow value")
    residue = strip_flow(h, flow)
    f_up = min(n - 1, math.ceil((1 + eps) * Fraction(flow.value)))
    tau = 3 * eps * f_up
    pieces = strength_decompose_known(residue, tau, strict=True)

    # a piece holding both terminals would hide the cut inside one group;
    # dissolve it instead of trusting it
    groups: list[int] = []
    for mask in pieces:
        if (mask >> s) & 1 and (mask >> t) & 1:
            groups.extend(1 << v for v in bits_of(mask))
        else:
            groups.append(mask)

    state = singleton_state(oracle)  # degrees memoized by the sparsifier pass
    for mask in groups:
        if mask.bit_count() > 1:
            merge_and_refresh(oracle, state, bits_of(mask))

    stats = {
        "group_masks": [state.group_mask(r) for r in state.roots],
        "reference_side_mask": flow.source_side_mask,
        "degraded": False,
        "certified": False,
    }
    fallback = better_cut(
        Cut(frozenset([s]), oracle.query_mask(1 << s)),
        Cut(frozenset(range(n)) - {t}, oracle.query_mask(oracle.full_mask() ^ (1 << t))),
    )
    learned = learn_contracted(oracle, state, tuning.st_learn_cap(n))
    if learned is None:
        stats["degraded"] = True
        if info is not None:
            info.update(stats)
        return fallback
    mg, masks = learned
    s_idx = next(i for i, m in enumerate(masks) if (m >> s) & 1)
    t_idx = next(i for i, m in enumerate(masks) if (m >> t) & 1)
    inner = st_min_cut_known(mg, s_idx, t_idx)
    side = 0
    for i in inner.side:
        side |= masks[i]
    if info is not None:
        info.update(stats)
    return Cut(frozenset(bits_of(side)), inner.value)


__all__ = ["st_min_cut"]
