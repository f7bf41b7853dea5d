"""Tuning constants shared by the randomized cut algorithms.

Every probability and budget that carries a log-n factor is derived here so
experiments can scale all of them together through one knob. Probabilities
are exact Fractions clamped to 1; comparisons against them stay rational.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

# multipliers of the strength-pass probability (times scale ln n) and of the
# sparsifier's q / eps^2
STRENGTH_COEFF = 4000.0
SPARSIFIER_BOOST = 2.0
# a sampled piece is split off when its min cut clears this share of q kappa
DECOMPOSE_FRAC = Fraction(4, 5)
# a strength level's sampled edge cap, in units of q kappa n
EDGE_REGIME_FACTOR = 8
# near-minimum cuts are enumerated up to (1 + slack eps) times the minimum
NEAR_MIN_SLACK = 3
# star contraction keeps each vertex as a center with probability
# min(1, coeff ln n / min degree), over max(STAR_RUNS, repetitions) runs.
# It runs only where the front's spanning forests did not answer, as they
# always do where U <= ceil(log2 n) and U (n - 1) <= m, U the minimum
# degree. v1 stops sooner after a run that contracted nothing, and hands
# over to spanning forests once the cheapest cut U seen meets
# U (n - 1) <= m. Both constants tuned on the benchmark's instances, not
# taken from the paper
STAR_CENTER_COEFF = 2.0
STAR_RUNS = 3


def ceil_log2(n: int) -> int:
    if n < 1:
        raise ValueError("need a positive argument")
    return max(1, (n - 1).bit_length())


@dataclass(frozen=True)
class Tuning:
    """Constants for sparsification, repetitions, and learning budgets.

    `scale` multiplies every log-derived control at once: sampling
    probabilities, repetition counts, and learning caps. scale=1.0 is the
    analysis-faithful setting; smaller values trade the success guarantee
    for observable query growth on desk-size inputs. It must be finite and
    positive.
    """

    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be finite and positive, got {self.scale}")

    def _scaled(self, x: float) -> Fraction:
        return Fraction(self.scale) * Fraction(x)

    def strength_prob(self, n: int, kappa: Fraction) -> Fraction:
        """Keep probability for the strength estimation pass at level kappa."""
        if kappa <= 0:
            raise ValueError("strength threshold must be positive")
        q = self._scaled(STRENGTH_COEFF * math.log(n)) / kappa
        return min(q, Fraction(1))

    def h_prob(self, q: Fraction, eps: Fraction) -> Fraction:
        """Sparsifier keep probability for an edge certified at level q.

        Rounded up to a unit fraction so kept edges carry integer weight;
        rounding up only oversamples, never hurts concentration.
        """
        p = Fraction(SPARSIFIER_BOOST) * q / (eps * eps)
        if p >= 1:
            return Fraction(1)
        return Fraction(1, math.floor(1 / p))

    def repetitions(self, n: int) -> int:
        """Independent repetitions of a randomized contraction."""
        return max(1, math.ceil(self.scale * ceil_log2(n)))

    def learn_cap(self, n: int) -> int:
        """Edge budget above which a learning phase is abandoned."""
        return n * max(1, math.ceil(self.scale * math.log(max(n, 2))))

    def st_learn_cap(self, n: int) -> int:
        """8 n^{5/3}, in two roles with two units. As an edge count, it caps
        the interface the s-t route learns between its groups: the
        flow-cover bound keeps that near n^{3/2} on unit graphs, so it binds
        only where the decomposition went badly wrong, and the route then
        degrades rather than blow the query budget. As a count of distinct
        queries, it is the ceiling of `st_flow_budget`: it binds where
        `learn_price(n, m)` exceeds it, never at n = 256, and from density
        0.995 at n = 512, 0.558 at n = 1024 and 0.364 at n = 2048.
        """
        return max(64, math.ceil(8.0 * float(n) ** (5.0 / 3.0)))

    def st_flow_budget(self, n: int, m: int) -> int:
        """Distinct-query budget of each `flow_cut` the s-t pipeline runs on
        n vertices and m edges: the price of learning the graph
        (`learn_price`), never above `st_learn_cap(n)`. A flow that would
        cost more than learning G gives up instead."""
        return min(self.st_learn_cap(n), learn_price(n, m))


def learn_price(n: int, m: int) -> int:
    """Distinct queries `discovery.learn_graph` is priced at on n vertices
    and m edges: one per vertex, and log2(n^2 / 2m) + 2 per edge, what a
    trie walk pays to find one of a vertex's edges among about n / 2
    candidates. It overprices every run measured: learn_graph spent
    0.50-0.79 of it on the cycle, the 16 x 16 grid, parallel paths, gnp of
    degree 8 and 16 and of p = 1/4, and planted cuts in sides of density
    0.1 and 0.5, all at n = 256, and on K128. Learning the e edges between
    random groups (`discovery.learn_intergroup_edges` after the degree
    pass) spent 0.32-0.78 of learn_price(n, e) on 18 partitions into 32,
    64 and 128 groups of six graphs at n = 256, so `contraction` prices
    learning a group interface at it too.
    """
    if m <= 0:
        return n
    return n + math.ceil(m * (math.log2(n * n / (2 * m)) + 2))


DEFAULT_TUNING = Tuning()

DEFAULT_EPS = Fraction(1, 4)


def st_epsilon(n: int) -> Fraction:
    """Accuracy parameter for the s-t pipeline, clamped away from 1/3.

    Uses 1 over the integer cube-root ceiling, which is within the target
    rate and keeps the rational arithmetic downstream small.
    """
    if n < 2:
        raise ValueError("need at least two vertices")
    root = round(n ** (1.0 / 3.0))
    while root**3 < n:
        root += 1
    while root > 1 and (root - 1) ** 3 >= n:
        root -= 1
    return min(Fraction(1, root), Fraction(3, 10))
