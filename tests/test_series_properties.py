"""Property tests of the running-sum divisions in ``series``.

``expand`` is checked against the Fraction long division, on denominators
drawn as c * prod(1 - t^e_i) * L(t), so that the factors 1 - t^e are divided
out by running sums and whatever the greedy factoring leaves, L and any
factor it misses, is long-divided.  ``_exact_quotient`` is checked against
sparse long division on products p * prod(1 - s t^e) and perturbations; it
divides by factors 1 - t^e only, so a factor 1 + t^e goes through it as
(1 - t^(2e)) / (1 - t^e).
The two loop shapes of one running sum, along residue classes and block by
block, are checked against the plain recurrence and against each other.
"""

import random
from fractions import Fraction
from math import isqrt, lcm

import pytest

from loopbv import series
from loopbv.series import (
    RationalSeries,
    _block_sums,
    _cyclic_factors,
    _divide_out,
    _exact_quotient,
    _padd,
    _pmul,
    _residue_sums,
    _trim,
    average_alternating,
    expand,
)
from test_series import (
    _pdivides,
    cyclic_den,
    dense_denominators,
    fraction_expand,
    one_minus_t_power,
    sparse_denominators,
)

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


def factor_product(factors):
    """prod(1 - s t^e) over the pairs (s, e)."""
    product = (1,)
    for s, e in factors:
        product = _pmul(product, (1,) + (0,) * (e - 1) + (-s,))
    return product


def signed_quotient(p, factors):
    """p / prod(1 - s t^e) over the pairs (s, e) by ``_exact_quotient``: each
    1 + t^e is (1 - t^(2e)) / (1 - t^e), so p is lifted by 1 - t^e and
    divided by 1 - t^(2e) instead; p divides exactly iff its lift does."""
    lift = factor_product([(1, e) for s, e in factors if s == -1])
    return _exact_quotient(_pmul(p, lift), [e if s == 1 else 2 * e for s, e in factors])


@st.composite
def quotient_cases(draw):
    """(p, factors, perturbation): up to four factors 1 - s t^e, s = +-1 and
    e in 1..12; p may be zero or of degree below that of the product."""
    p = tuple(draw(st.lists(st.integers(-4, 4), min_size=1, max_size=10)))
    factors = draw(st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(1, 12)), max_size=4))
    perturbation = tuple(draw(st.lists(st.integers(-2, 2), max_size=30)))
    return p, factors, perturbation


@PROPERTY
@given(quotient_cases())
@example(((3,), [(1, 1)], ()))  # 3 / (1 - t): degree 0 below 1, not exact
@example(((0,), [(1, 3), (-1, 2)], ()))  # zero divides into zero
@example(((1, 2), [(-1, 5)], (0, 0, 1)))  # a perturbation inside the top degrees
@example(((2, -1), [], (1,)))  # the empty product divides everything
def test_exact_quotient_matches_long_division(drawn):
    p, factors, perturbation = drawn
    den = factor_product(factors)
    product = _pmul(p, den)
    assert signed_quotient(product, factors) == _pdivides(product, den) == _trim(p)
    perturbed = _padd(product, perturbation)
    assert signed_quotient(perturbed, factors) == _pdivides(perturbed, den)
    if len(_trim(p)) < len(den):  # below the degree of the product only 0 divides
        assert signed_quotient(p, factors) == ((0,) if _trim(p) == (0,) else None)


def plain_recurrence(coeffs, e):
    """a_k = b_k + a_(k-e), one term at a time."""
    out = list(coeffs)
    for k in range(e, len(out)):
        out[k] += out[k - e]
    return out


@st.composite
def recurrence_cases(draw):
    """(coeffs, e): e anywhere from 1 to past the size, or at the boundary
    e^2 = size between the two shapes and one past it."""
    coeffs = draw(st.lists(st.integers(-5, 5), max_size=70))
    root = max(isqrt(len(coeffs)), 1)
    e = draw(st.one_of(st.integers(1, len(coeffs) + 3), st.sampled_from((root, root + 1))))
    return coeffs, e


@PROPERTY
@given(recurrence_cases())
@example(([1] * 16, 4))  # e^2 = size: still along residue classes
@example(([1] * 16, 5))  # e^2 > size: block by block, a short last block
@example(([2, -1, 3], 3))  # e = size: one full block, nothing to add
@example(([], 1))  # nothing to divide
def test_both_running_sum_shapes_follow_the_recurrence(drawn):
    coeffs, e = drawn
    want = plain_recurrence(coeffs, e)
    for shape in (_residue_sums, _block_sums, lambda c, e: _divide_out(c, [e])):
        got = list(coeffs)
        shape(got, e)
        assert got == want, shape


def seeded_results():
    """``_exact_quotient``, the factoring and ``average_alternating`` over the
    seeded sets of ``test_series``: its 600 series and its sparse and dense
    denominators."""
    results = []
    for den in [*sparse_denominators(random.Random(23)), *dense_denominators(random.Random(20261019))]:
        results.append(_cyclic_factors.__wrapped__(den))
        for e in range(1, len(den) + 2):
            results.append((_exact_quotient(den, [e]), signed_quotient(den, [(-1, e)])))
    rng = random.Random(20261018)
    for _ in range(600):
        num = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 8)))
        exponents = [rng.randint(1, 6) for _ in range(rng.randint(0, 3))]
        r = RationalSeries(num, cyclic_den(rng.choice((1, -1, 2, 3)), exponents))
        try:
            results.append(average_alternating(r))
        except series.NonQuasilinearError:
            results.append(None)
    return results


@pytest.mark.parametrize("shape", [_residue_sums, _block_sums], ids=["residue", "block"])
def test_either_shape_alone_gives_the_same_quotients_and_limits(shape, monkeypatch):
    """Forcing one shape for every factor changes no exact quotient, factoring
    or Cesàro limit of the seeded sets; the unforced run mixes both."""
    want = seeded_results()
    assert None in want and any(isinstance(x, Fraction) for x in want)

    def forced(coeffs, exponents):
        for e in exponents:
            shape(coeffs, e)

    monkeypatch.setattr(series, "_divide_out", forced)
    assert seeded_results() == want
