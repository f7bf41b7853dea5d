"""Exact minimum s-t cut with a sublinear number of cut queries.

Two routes, both exact. The first stacks edge-disjoint maximal spanning
forests (`discovery.forest_cut`, Nagamochi and Ibaraki, Algorithmica 1992;
Cheriyan, Kao and Thurimella, SIAM J. Comput. 1993): their union H_i keeps
every s-t cut up to i, so H_i's min s-t cut is G's once it falls below i,
and the cheapest queried boundary separating s from t is G's once H_i's
cut reaches it. They run from the front st shares with global v1 and v2
(`discovery.front`), only where 2 (n - 1) ceil(log2 n) <= m, m the edge
count: one forest costs about (n - 1) log2 n queries, a fraction of what
learning the m edges costs. They go on only while U (n - 1) <= m, U the
cheapest s-t boundary seen, starting at the smaller terminal degree: then
they stop within the m edges. They draw no random bits.

Where forests do not run or give up, the second route, the paper's, runs
from U on the same oracle and stream: build a strength sparsifier H. Where
every ladder level kept its edges whole, H is G and its min s-t cut is the
answer. Otherwise push a max flow between the terminals in H, delete the
flow, and decompose what survives at a small strength threshold. Any edge
of an exact min s-t cut has low strength in the flow-stripped graph, so
the decomposition's pieces never straddle the cut; contracting each piece
leaves a multigraph small enough to learn edge by edge, and
`contraction.learn_contracted`, given the terminals, answers its exact min
s-t cut by max flow.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .contraction import learn_contracted, merge_and_refresh
from .discovery import front
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

    The shared front (`discovery.front`) comes first, from U the better
    terminal boundary: a terminal of degree 0, n = 2 or a forest answer is
    returned as it is (see the module docstring); info["forests"] counts
    the forests. Failing those, the sparsifier runs on the same stream.
    When it holds every edge of G at weight 1, its own min s-t cut is the
    answer, found without another query. Otherwise the answer is the
    better of U and the contracted multigraph's cut, so it never exceeds
    either terminal's degree. info["certified"] reports an answer proved
    minimum: a front answer, H = G, or any answer of value 0. epsilon
    defaults to min(n^{-1/3}, 3/10); anything at or past 1/3 breaks the
    argument that decomposition pieces avoid straddling the cut, so that
    range is rejected. When the contracted interface is unexpectedly large
    (or learning it would blow the budget) the result degrades to U rather
    than overspending; info["degraded"] reports it.
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
    # the ladder queries these same singletons, so the pass costs nothing extra
    state, fallback = front(oracle, stats, (s, t))
    if stats["certified"]:
        return fallback

    diag: dict = {}
    _, h = approximate_strengths(oracle, eps, rng, tuning, diag=diag)
    if diag["h_is_g"]:
        stats["certified"] = True
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

    for mask in groups:
        if mask.bit_count() > 1:
            merge_and_refresh(oracle, state, bits_of(mask))

    stats.update(
        group_masks=[state.group_mask(r) for r in state.roots],
        reference_side_mask=flow.source_side_mask,
    )
    cut = learn_contracted(oracle, state, tuning.st_learn_cap(n), (s, t))
    if cut is None:
        stats["degraded"] = True
        return fallback
    cut = better_cut(fallback, cut)
    stats["certified"] = cut.value == 0
    return cut


__all__ = ["st_min_cut"]
