import math
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutquery.params import (
    DEFAULT_TUNING,
    Tuning,
    ceil_log2,
    st_epsilon,
)


def test_ceil_log2():
    assert ceil_log2(2) == 1
    assert ceil_log2(3) == 2
    assert ceil_log2(8) == 3
    assert ceil_log2(9) == 4
    assert ceil_log2(1) == 1  # clamped floor for degenerate sizes


def test_probabilities_clamp_to_one():
    t = DEFAULT_TUNING
    assert t.strength_prob(20, Fraction(20)) == 1
    assert 0 < t.strength_prob(10**6, Fraction(10**9)) < 1


def test_scale_is_the_only_setting():
    assert [f.name for f in fields(Tuning)] == ["scale"]


@pytest.mark.parametrize("scale", [0, 0.0, -1, math.nan, math.inf, -math.inf])
def test_scale_must_be_finite_and_positive(scale):
    with pytest.raises(ValueError):
        Tuning(scale=scale)


def test_scale_knob_shrinks_probabilities():
    base = Tuning()
    tiny = Tuning(scale=1e-3)
    n, kappa = 2000, Fraction(10**6)
    assert tiny.strength_prob(n, kappa) < base.strength_prob(n, kappa) < 1
    assert tiny.learn_cap(n) <= base.learn_cap(n)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10**5), st.fractions(min_value="1/100", max_value="99/100"))
def test_h_prob_is_a_unit_fraction_and_conservative(q_n, eps):
    t = DEFAULT_TUNING
    q = Fraction(1, q_n)
    p = t.h_prob(q, eps)
    raw = min(Fraction(2) * q / (eps * eps), Fraction(1))
    assert p >= raw  # rounding only ever oversamples
    assert p == 1 or p.numerator == 1  # integer weights downstream


def test_h_prob_clamps():
    assert DEFAULT_TUNING.h_prob(Fraction(1), Fraction(1, 4)) == 1


def test_st_epsilon_values_and_domain():
    assert st_epsilon(27) == Fraction(3, 10)
    assert st_epsilon(64) == Fraction(1, 4)
    assert st_epsilon(65) == Fraction(1, 5)
    assert st_epsilon(1000) == Fraction(1, 10)
    for n in range(2, 2000, 37):
        eps = st_epsilon(n)
        assert 0 < eps < Fraction(1, 3)
        # within the target rate: eps <= n^{-1/3} never undershoots by more
        # than one integer step of the cube root (or the small-n clamp)
        assert eps >= min(Fraction(3, 10), Fraction(1, math.ceil(n ** (1 / 3)) + 1))
    with pytest.raises(ValueError):
        st_epsilon(1)


def test_budget_formulas_monotone_in_n():
    t = DEFAULT_TUNING
    for a, b in ((8, 16), (16, 64), (64, 256)):
        assert t.learn_cap(a) <= t.learn_cap(b)
        assert t.st_learn_cap(a) <= t.st_learn_cap(b)
