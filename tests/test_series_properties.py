"""Property test of ``series.expand`` against the Fraction long division.

Denominators are drawn as c * prod(1 - t^e_i) * L(t), so that the factors
1 - t^e are divided out by running sums and whatever the greedy factoring
leaves, L and any factor it misses, is long-divided.
"""

from fractions import Fraction

import pytest

from loopbv.series import RationalSeries, _pmul, expand, one_minus_t_power
from test_series import fraction_expand

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
example, given, settings = hypothesis.example, hypothesis.given, hypothesis.settings

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def series_and_degree(draw):
    """(num, c, exponents, L, n_terms); n_terms is 0, below the largest e, or
    anything up to 40."""
    num = tuple(draw(st.lists(st.integers(-4, 4), min_size=1, max_size=8)))
    c = draw(st.sampled_from((1, -1, 2, -2, 3)))
    exponents = tuple(draw(st.lists(st.integers(1, 7), max_size=4)))
    rest = draw(st.lists(st.integers(-3, 3), max_size=3))
    head = draw(st.sampled_from((1, -1, 2, 3)))
    low = (1,) if not rest and draw(st.booleans()) else (head, *rest)
    top = max(exponents, default=1)
    n_terms = draw(st.one_of(st.just(0), st.integers(0, top - 1), st.integers(0, 40)))
    return num, c, exponents, low, n_terms


@PROPERTY
@given(series_and_degree())
@example(((1, 2, 3), 1, (2, 3), (1,), 12))  # the greedy search meets e = 3 first
@example(((1,), 1, (3, 2), (1,), 1))  # n_terms below the largest e
@example(((5, -1), -2, (2, 3), (1, 1), 9))  # L = 1 + t completes a 1 - t^2
@example(((1,), 3, (1, 2, 3), (1,), 0))  # n_terms = 0
@example(((1, 1), 2, (), (1, -1, 1), 20))  # no cyclic factor at all
def test_expand_matches_fraction_long_division(drawn):
    num, c, exponents, low, n_terms = drawn
    den = _pmul((c,), low)
    for e in exponents:
        den = _pmul(den, one_minus_t_power(e))
    r = RationalSeries(num, den)
    got = expand(r, n_terms).coefficients
    want = fraction_expand(r, n_terms)
    assert got == tuple(want)
    assert [type(x) for x in got] == [int if w.denominator == 1 else Fraction for w in want]
