"""Exact minimum s-t cut with a sublinear number of cut queries.

front -> route -> finish, as for the global pipelines (see `discovery`),
with the terminals: U starts at the smaller terminal degree, and the union
H_i of i edge-disjoint spanning forests keeps every s-t cut up to i
(Nagamochi and Ibaraki, Algorithmica 1992; Cheriyan, Kao and Thurimella,
SIAM J. Comput. 1993), so forests prove the min s-t cut as they prove the
global one.

The route is the paper's: build a strength sparsifier H. Where every
ladder level kept its edges whole, H is G and its min s-t cut is the
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
from .discovery import finish, front
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
    terminal boundary; its forests run where 2 (n - 1) min(U, ceil(log2 n))
    <= m, m the edge count, and always answer when they run from
    U <= ceil(log2 n). Failing a front answer, the sparsifier runs on the
    same stream. When it holds every edge of G at weight 1, its own min s-t
    cut is the answer, found without another query. Otherwise the route's
    answer is the better of U and the contracted multigraph's cut, so it
    never exceeds either terminal's degree. `discovery.finish` ends the
    route; info["certified"] reports an answer proved minimum and
    info["forests"] counts the forests. epsilon defaults to
    min(n^{-1/3}, 3/10); anything at or past 1/3 breaks the argument that
    decomposition pieces avoid straddling the cut, so that range is
    rejected. When the contracted interface is unexpectedly large (or
    learning it would blow the budget) the route's answer degrades to U
    rather than overspending; info["degraded"] reports it.
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
    state, best = front(oracle, stats, (s, t))
    if stats["certified"]:
        return best
    m = state.interface_edge_count()  # before the merges below coarsen it

    diag: dict = {}
    _, h = approximate_strengths(oracle, eps, rng, tuning, diag=diag)
    if diag["h_is_g"]:
        stats["certified"] = True
        return finish(oracle, st_min_cut_known(h, s, t), m, stats, (s, t))
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
    return finish(oracle, better_cut(cut, best), m, stats, (s, t))


__all__ = ["st_min_cut"]
