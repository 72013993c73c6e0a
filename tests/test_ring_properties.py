"""Property tests of the ring product on random sums of basis monomials."""

import pytest

from loopbv.ring import AlgebraConfig, add, element, multiply, power, window_basis

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

# the product depends on n only; the case just labels components
CONFIGS = [AlgebraConfig(n) for n in range(1, 5)]
POOLS = {cfg: window_basis(cfg, (None,), -cfg.dim, 6 * cfg.n) for cfg in CONFIGS}

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def elements(draw, count):
    """A configuration and ``count`` sums of up to six basis monomials."""
    cfg = draw(st.sampled_from(CONFIGS))
    monomials = st.lists(st.sampled_from(POOLS[cfg]), max_size=6)
    return (cfg, *(element(*draw(monomials)) for _ in range(count)))


@PROPERTY
@given(elements(2))
def test_multiply_commutative(drawn):
    cfg, a, b = drawn
    assert multiply(a, b, cfg) == multiply(b, a, cfg)


@PROPERTY
@given(elements(3))
def test_multiply_associative(drawn):
    cfg, a, b, c = drawn
    assert multiply(multiply(a, b, cfg), c, cfg) == multiply(a, multiply(b, c, cfg), cfg)


@PROPERTY
@given(elements(3))
def test_multiply_distributes_over_add(drawn):
    cfg, a, b, c = drawn
    assert multiply(a, add(b, c), cfg) == add(multiply(a, b, cfg), multiply(a, c, cfg))


@PROPERTY
@given(elements(1), st.integers(0, 5), st.integers(0, 5))
def test_power_law(drawn, j, k):
    cfg, u = drawn
    assert power(u, j + k, cfg) == multiply(power(u, j, cfg), power(u, k, cfg), cfg)
