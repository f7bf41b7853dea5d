"""Exact minimum s-t cut with a sublinear number of cut queries.

Unit augmenting paths answer first (`discovery.flow_cut`, after Ford and
Fulkerson, 1956): every edge not yet found counts as residual capacity, so
the search learns only the edges its paths and its final cut touch, and
the flow, met by a queried s-t boundary, proves the cut by weak duality.
It starts from U, the better terminal boundary, after a degree pass, and
gives up past `Tuning.st_flow_budget(n, m)` distinct queries: the price
of learning G, and never more than `Tuning.st_learn_cap(n)`, which keeps
st within O~(n^{5/3}).

Where it gives up, the route is the paper's: build a strength sparsifier
H. Where every ladder level kept its edges whole, H is G and its min s-t
cut is the answer. Otherwise push a max flow between the terminals in H,
delete the flow, and decompose what survives at a small strength
threshold. Any edge of an exact min s-t cut has low strength in the
flow-stripped graph, so the decomposition's pieces never straddle the cut;
contracting each piece leaves a multigraph small enough to learn edge by
edge, and `contraction.learn_contracted`, given the terminals, answers its
exact min s-t cut by max flow. `flow_cut` then runs again from that
answer, to prove it or replace it with a cheaper exact cut, within the
same budget again.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .contraction import learn_contracted, merge_and_refresh
from .discovery import flow_cut, singleton_state
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

    The degree pass comes first: it gives U, the better terminal boundary,
    and m, which prices the flow's budget, `tuning.st_flow_budget(n, m)`
    distinct queries; the ladder queries the same singletons. Then
    `discovery.flow_cut` runs from U. Only where it gives up does the
    sparsifier route run. When H holds every edge of G at weight 1, its
    own min s-t cut is the answer, found without another query. Otherwise
    the route's answer is the better of U and the contracted multigraph's
    cut, and `flow_cut` runs again from it, within the same budget again,
    to prove it or replace it with a cheaper exact cut. Both flows, the
    ladder and the endgame read and write the oracle's record of found
    edges, so each starts from every edge the phases before it learned.
    info["certified"] reports an answer proved minimum. epsilon defaults
    to min(n^{-1/3}, 3/10); anything at or past 1/3 breaks the argument
    that decomposition pieces avoid straddling the cut, so that range is
    rejected. When the contracted interface is unexpectedly large (or
    learning it would blow the budget) the route's answer degrades to U
    rather than overspending; info["degraded"] reports it. Raises
    RuntimeError where an answer does not hold s on its side or holds t.
    """
    if rng is None:
        raise ValueError("an rng is required")
    n = oracle.n
    if not (0 <= s < n and 0 <= t < n) or s == t:
        raise ValueError("need two distinct terminals in range")
    eps = st_epsilon(n) if epsilon is None else Fraction(epsilon)
    if not 0 < eps < Fraction(1, 3):
        raise ValueError("epsilon must sit strictly between 0 and 1/3")

    stats = {} if info is None else info
    stats.update(degraded=False)
    # the ladder queries these same singletons, so the route pays nothing
    # more for the pass
    state = singleton_state(oracle)
    budget = tuning.st_flow_budget(n, state.interface_edge_count())
    terminal = better_cut(
        Cut(frozenset([s]), state.degree(s)), Cut(frozenset(range(n)) - {t}, state.degree(t))
    )
    best, stats["certified"] = flow_cut(oracle, s, t, terminal, budget)
    if stats["certified"]:
        return _st_side(best, s, t)

    _, h, h_is_g = approximate_strengths(oracle, eps, rng, tuning)
    if h_is_g:
        stats["certified"] = True
        return _st_side(st_min_cut_known(h, s, t), s, t)
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

    for mask in groups:
        if mask.bit_count() > 1:
            merge_and_refresh(oracle, state, bits_of(mask))

    cut = learn_contracted(oracle, state, tuning.st_learn_cap(n), (s, t))
    stats["degraded"] = cut is None
    best, stats["certified"] = flow_cut(oracle, s, t, better_cut(cut, best), budget)
    return _st_side(best, s, t)


def _st_side(cut: Cut, s: int, t: int) -> Cut:
    """`cut`, checked to hold s on its side and not t: `flow_cut` hands
    back any cut of G it is given, so the s-t answer is checked here."""
    if s not in cut.side or t in cut.side:
        raise RuntimeError("an s-t answer must hold s on its side and not t")
    return cut


__all__ = ["st_min_cut"]
