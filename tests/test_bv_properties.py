"""Property tests of the BV structure on random sums of basis monomials."""

import pytest

from loopbv.bv import bracket, delta, delta_oracle
from loopbv.ring import (
    AlgebraConfig,
    BVCase,
    add,
    element,
    multiply,
    window_basis,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

CONFIGS = [AlgebraConfig(n, case) for n in range(1, 5) for case in BVCase]
# the non-contractible placements of w are graded algebras only for odd n
ADMISSIBLE = [cfg for cfg in CONFIGS if cfg.bv_case.w_is_contractible or cfg.n % 2]
POOLS = {cfg: window_basis(cfg, (None,), -cfg.dim, 6 * cfg.n) for cfg in CONFIGS}

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def elements(draw, configs, count):
    """A configuration and ``count`` sums of up to six basis monomials."""
    cfg = draw(st.sampled_from(configs))
    monomials = st.lists(st.sampled_from(POOLS[cfg]), max_size=6)
    return (cfg, *(element(*draw(monomials)) for _ in range(count)))


@PROPERTY
@given(elements(CONFIGS, 1))
def test_delta_equals_oracle(drawn):
    cfg, a = drawn
    assert delta(a, cfg) == delta_oracle(a, cfg)


@PROPERTY
@given(elements(CONFIGS, 1))
def test_delta_squared_zero(drawn):
    cfg, a = drawn
    assert delta(delta(a, cfg), cfg).is_zero()


@PROPERTY
@given(elements(CONFIGS, 3))
def test_bracket_bilinear_and_symmetric(drawn):
    cfg, a, b, c = drawn
    assert bracket(add(a, b), c, cfg) == add(bracket(a, c, cfg), bracket(b, c, cfg))
    assert bracket(c, add(a, b), cfg) == add(bracket(c, a, cfg), bracket(c, b, cfg))
    assert bracket(a, b, cfg) == bracket(b, a, cfg)


@PROPERTY
@given(elements(ADMISSIBLE, 2))
def test_bv_relation(drawn):
    cfg, a, b = drawn
    assert delta(multiply(a, b, cfg), cfg) == add(
        add(multiply(delta(a, cfg), b, cfg), multiply(a, delta(b, cfg), cfg)),
        bracket(a, b, cfg),
    )
