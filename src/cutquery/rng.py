"""Deterministic seed derivation and the package's two sampling helpers.

Every randomized routine in this package takes a `random.Random` built from a
root seed plus a label path, so identical inputs replay identical runs even
across processes (no reliance on salted `hash()`). `binomial_count` is the
package's only binomial: it takes a float or rational keep probability and
works in floats. `weighted_index` picks an index exactly in proportion to
integer weights.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# hashlib's blake2b is this same builtin; taking it directly spares loading
# OpenSSL, which importing hashlib does
from _blake2 import blake2b


def derive_seed(root: int, *labels: object) -> int:
    """Stable 64-bit seed derived from a root seed and a label path."""
    text = ":".join([str(root), *(str(x) for x in labels)])
    digest = blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def make_rng(root: int, *labels: object) -> random.Random:
    return random.Random(derive_seed(root, *labels))


def binomial_count(rng: random.Random, n: int, p: int | float | Fraction) -> int:
    """Binomial(n, p) sample in O(successes) expected time.

    p is rounded to a float first, so a rational p costs nothing extra and a
    positive p too small for a float keeps nothing. Uses geometric gap
    skipping, so it stays cheap when p is tiny and n is large (the regime
    the subsampling routines live in). Raises ValueError when n < 0.
    """
    if n < 0:
        raise ValueError("negative trial count")
    p = float(p)
    if n == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if p > 0.5:
        return n - binomial_count(rng, n, 1.0 - p)
    log_q = math.log1p(-p)
    count = 0
    pos = -1
    while True:
        u = rng.random()
        # smallest gap g >= 0 with (1-p)^(g+1) < u, i.e. a geometric skip
        gap = int(math.floor(math.log(u) / log_q)) if u > 0.0 else n + 1
        pos += gap + 1
        if pos >= n:
            return count
        count += 1


def weighted_index(rng: random.Random, weights: list[int], total: int | None = None) -> int:
    """Index i with probability weights[i]/sum, exact over integer weights."""
    if total is None:
        total = sum(weights)
    if total <= 0:
        raise ValueError("weighted_index needs a positive total weight")
    x = rng.randrange(total)
    acc = 0
    for i, w in enumerate(weights):
        acc += w
        if x < acc:
            return i
    raise RuntimeError("weights changed under us")
