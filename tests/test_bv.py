import random
from types import MappingProxyType

import pytest

from loopbv import bv, spectral
from loopbv.bv import (
    axiom_failures,
    bracket,
    bracket_table,
    delta,
    delta_oracle,
    delta_table,
    generator_bracket,
)
from loopbv.ring import (
    GENERATOR_EXPONENTS,
    AlgebraConfig,
    BVCase,
    Component,
    InputError,
    Monomial,
    add,
    basis,
    component,
    element,
    generator,
    loop_degree,
    multiply,
    normalize,
    power,
    unit,
    window_basis,
    zero,
)

ALL_CASES = list(BVCase)

# With even n the rewrite v^2 = x^(2n) w has a nonzero right side, which is
# only component-consistent when w sits on the contractible side; the
# non-contractible placements form graded BV algebras exactly for odd n.
ADMISSIBLE = (
    [(1, case) for case in ALL_CASES]
    + [(2, BVCase.A_V), (2, BVCase.A_VXW)]
    + [(3, BVCase.B_W), (3, BVCase.B_WXVW)]
)


def window_monomials(cfg, lo, hi):
    return [m for q in range(lo, hi + 1) for m in basis(cfg, None, q)]


# ---------------------------------------------------------------- brackets


def test_generator_bracket_tables():
    n = 2
    x2n_vw = element(Monomial(2 * n, 1, 1))
    x2n_vw2 = element(Monomial(2 * n, 1, 2))
    v = generator("v")
    w = generator("w")
    expected = {
        BVCase.A_V: (v, zero()),
        BVCase.A_VXW: (add(v, x2n_vw), zero()),
        BVCase.B_W: (v, w),
        BVCase.B_WXVW: (v, add(w, x2n_vw2)),
    }
    for case, (xv, xw) in expected.items():
        cfg = AlgebraConfig(n, case)
        assert generator_bracket("x", "v", cfg) == xv
        assert generator_bracket("x", "w", cfg) == xw
        assert generator_bracket("v", "w", cfg).is_zero()
        for g in "xvw":
            assert generator_bracket(g, g, cfg).is_zero()
        # symmetric lookups
        assert generator_bracket("v", "x", cfg) == xv
        assert generator_bracket("w", "x", cfg) == xw


def test_generator_bracket_rejects_unknown_name():
    with pytest.raises(InputError):
        generator_bracket("x", "q", AlgebraConfig(1))


def test_bracket_table_object():
    cfg = AlgebraConfig(1, BVCase.B_W)
    table = bracket_table(cfg)
    assert type(table) is MappingProxyType
    assert table is bracket_table(cfg)
    # index pairs i < j (0, 1, 2 = x, v, w); only the nonzero brackets
    assert set(table) == {(0, 1), (0, 2)}
    assert table[(0, 1)] == generator("v")
    assert table[(0, 2)] == generator("w")
    assert set(bracket_table(AlgebraConfig(1, BVCase.A_V))) == {(0, 1)}


def test_the_shared_bracket_table_cannot_be_changed():
    """Every caller gets the cached table; writing to it would change Delta
    for the rest of the process, so the table refuses item assignment."""
    cfg = AlgebraConfig(1)
    xv = element(Monomial(1, 1, 0))
    assert delta(xv, cfg) == generator("v")
    table = bracket_table(cfg)
    with pytest.raises(TypeError):
        table[(0, 1)] = generator("w")
    with pytest.raises(TypeError):
        table[(1, 2)] = generator("w")
    with pytest.raises(TypeError):
        del table[(0, 1)]
    assert dict(bracket_table(cfg)) == {(0, 1): generator("v")}
    assert delta(xv, cfg) == generator("v")


@pytest.mark.parametrize("case", ALL_CASES)
def test_bracket_with_odd_w_power(case):
    cfg = AlgebraConfig(1, case)
    x = generator("x")
    for k in range(4):
        w_odd = power(generator("w"), 2 * k + 1, cfg)
        want = multiply(generator_bracket("x", "w", cfg), power(generator("w"), 2 * k, cfg), cfg)
        assert bracket(x, w_odd, cfg) == want


@pytest.mark.parametrize("n,case", ADMISSIBLE)
def test_bracket_kills_squares_and_unit(n, case):
    cfg = AlgebraConfig(n, case)
    x = generator("x")
    for m in window_monomials(cfg, -(2 * n + 1), 5 * n):
        square = multiply(element(m), element(m), cfg)
        assert bracket(x, square, cfg).is_zero()
        assert bracket(element(m), unit(), cfg).is_zero()
        assert bracket(unit(), element(m), cfg).is_zero()


# ---------------------------------------------------------------- delta


@pytest.mark.parametrize("n", [1, 2, 3])
def test_delta_odd_x_times_v_case_plain(n):
    cfg = AlgebraConfig(n, BVCase.A_V)
    for l in range(n + 1):
        for c in range(4):
            u = element(Monomial(2 * l + 1, 1, c))
            assert delta(u, cfg) == element(Monomial(2 * l, 1, c))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_delta_x_v_deformed_case(n):
    cfg = AlgebraConfig(n, BVCase.A_VXW)
    for c in range(4):
        u = element(Monomial(1, 1, c))
        want = element(Monomial(0, 1, c), Monomial(2 * n, 1, c + 1))
        assert delta(u, cfg) == want


@pytest.mark.parametrize("case", ALL_CASES)
def test_delta_of_x_squared_vanishes(case):
    cfg = AlgebraConfig(1, case)
    assert delta(power(generator("x"), 2, cfg), cfg).is_zero()


@pytest.mark.parametrize("case", ALL_CASES)
def test_delta_kills_generators_and_unit(case):
    cfg = AlgebraConfig(2, case)
    for name in "xvw":
        assert delta(generator(name), cfg).is_zero()
    assert delta(unit(), cfg).is_zero()
    assert delta_oracle(unit(), cfg).is_zero()


def test_delta_oracle_hand_example():
    cfg = AlgebraConfig(1, BVCase.B_W)
    xv = multiply(generator("x"), generator("v"), cfg)
    # expansion of the BV relation: Delta(x) v + x Delta(v) + {x, v} = v
    assert delta_oracle(xv, cfg) == generator("v")


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("case", ALL_CASES)
def test_delta_equals_oracle_sampled(n, case):
    cfg = AlgebraConfig(n, case)
    rng = random.Random(n * 100 + ALL_CASES.index(case))
    for _ in range(300):
        m = Monomial(rng.randrange(2 * n + 2), rng.randrange(2), rng.randrange(8))
        assert delta(element(m), cfg) == delta_oracle(element(m), cfg)


@pytest.mark.parametrize("case", ALL_CASES)
def test_delta_is_linear(case):
    cfg = AlgebraConfig(1, case)
    pool = window_monomials(cfg, -3, 8)
    rng = random.Random(5)
    for _ in range(100):
        u = element(rng.choice(pool))
        v = element(rng.choice(pool))
        assert delta(add(u, v), cfg) == add(delta(u, cfg), delta(v, cfg))


# n = 1..8 holds every n of the algebra and cli benchmark workloads;
# axiom_failures leaves Delta^2 = 0 to the argument in its docstring
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("case", ALL_CASES)
def test_delta_squared_zero_window(n, case):
    cfg = AlgebraConfig(n, case)
    for m in window_monomials(cfg, -(2 * n + 1), 12 * n):
        assert delta(delta(element(m), cfg), cfg).is_zero(), (n, case, m)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("case", ALL_CASES)
def test_delta_vanishes_on_contractible_component(n, case):
    cfg = AlgebraConfig(n, case)
    for q in range(-(2 * n + 1), 12 * n + 1):
        for m in basis(cfg, Component.E, q):
            assert delta(element(m), cfg).is_zero(), (n, case, m)


@pytest.mark.parametrize("case", ALL_CASES)
def test_delta_degree_and_component(case):
    cfg = AlgebraConfig(2, case)
    for m in window_monomials(cfg, -5, 16):
        image = delta(element(m), cfg)
        for t in image.terms:
            assert loop_degree(t, cfg) == loop_degree(m, cfg) + 1
            assert component(t, cfg) == component(m, cfg)


@pytest.mark.parametrize("case", ALL_CASES)
def test_even_powers_are_delta_closed(case):
    cfg = AlgebraConfig(1, case)
    pool = window_monomials(cfg, -3, 6)
    rng = random.Random(13)
    for k in range(4):
        for m in pool:
            y = element(m)
            y2k = power(y, 2 * k, cfg)
            assert delta(y2k, cfg).is_zero()
            other = element(rng.choice(pool))
            lhs = delta(multiply(other, y2k, cfg), cfg)
            rhs = multiply(delta(other, cfg), y2k, cfg)
            assert lhs == rhs
            odd_power = multiply(y2k, y, cfg)
            assert bracket(other, odd_power, cfg) == multiply(
                bracket(other, y, cfg), y2k, cfg
            )


@pytest.mark.parametrize("n,case", ADMISSIBLE)
def test_bv_relation_and_bracket_identities_sampled(n, case):
    cfg = AlgebraConfig(n, case)
    pool = window_monomials(cfg, -(2 * n + 1), 10 * n)
    rng = random.Random(17)
    for _ in range(400):
        a, b, c = (element(rng.choice(pool)) for _ in range(3))
        assert delta(multiply(a, b, cfg), cfg) == add(
            add(multiply(delta(a, cfg), b, cfg), multiply(a, delta(b, cfg), cfg)),
            bracket(a, b, cfg),
        )
        assert bracket(a, b, cfg) == bracket(b, a, cfg)
        assert bracket(a, bracket(b, c, cfg), cfg) == add(
            bracket(bracket(a, b, cfg), c, cfg),
            bracket(b, bracket(a, c, cfg), cfg),
        )
        assert bracket(a, multiply(b, c, cfg), cfg) == add(
            multiply(bracket(a, b, cfg), c, cfg),
            multiply(b, bracket(a, c, cfg), cfg),
        )


# ---------------------------------------------------------------- tables


def test_delta_table_plain_b_case_even_x_rows_vanish():
    cfg = AlgebraConfig(1, BVCase.B_W)
    table = delta_table(cfg, Component.G, -3, 6)
    for m, image in table.rows.items():
        if m.a % 2 == 0:
            assert image.is_zero()
        else:
            assert image == element(Monomial(m.a - 1, m.b, m.c))


def test_delta_table_contractible_all_zero():
    cfg = AlgebraConfig(2, BVCase.A_V)
    table = delta_table(cfg, Component.E, -5, 10)
    assert table.rows
    assert all(image.is_zero() for image in table.rows.values())


@pytest.mark.parametrize("n", [1, 2])
def test_delta_table_deformed_b_case_odd_odd_rows(n):
    cfg = AlgebraConfig(n, BVCase.B_WXVW)
    table = delta_table(cfg, Component.G, -(2 * n + 1), 8 * n)
    for m, image in table.rows.items():
        if m.a % 2 and m.c % 2:
            want = add(
                element(Monomial(m.a - 1, 0, m.c)),
                normalize(m.a - 1 + 2 * n, 1, m.c + 1, cfg),
            )
            assert image == want


def test_delta_table_window_validation():
    with pytest.raises(InputError):
        delta_table(AlgebraConfig(1), Component.G, 3, 1)


def test_axiom_failures_sample_count_validation():
    cfg = AlgebraConfig(1)
    with pytest.raises(InputError, match="samples must be nonnegative, got -5"):
        axiom_failures(cfg, -3, 12, samples=-5, seed=0)
    assert axiom_failures(cfg, -3, 12, samples=0, seed=0) == []


@pytest.mark.parametrize("seed", [None, 1.5, "7", [1], True])
def test_axiom_failures_seed_must_be_an_integer(seed):
    with pytest.raises(InputError, match="seed must be an integer"):
        axiom_failures(AlgebraConfig(1), -3, 12, samples=3, seed=seed)


OBSTRUCTION_MESSAGE = "BV relation fails at (x*v, v*w)"
OBSTRUCTION_RUNS = {
    # (window, samples, seeds); the window None is verify's [-(2n+1), 12n]
    "no_samples": (None, 0, [0]),
    "few_samples": (None, 5, range(20)),
    # excludes v*w, so no sample can draw the pair
    "narrow_window": ((-1, 0), 5, [0]),
}


@pytest.mark.parametrize("run", OBSTRUCTION_RUNS)
@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("case", [BVCase.B_W, BVCase.B_WXVW])
def test_axiom_failures_reports_the_even_n_obstruction_first(case, n, run):
    """The pair (x*v, v*w) is checked on every call, so the broken BV relation
    leads the list whatever the window, sample count and seed."""
    cfg = AlgebraConfig(n, case)
    window, samples, seeds = OBSTRUCTION_RUNS[run]
    lo, hi = window or (-cfg.dim, 12 * n)
    for seed in seeds:
        failures = axiom_failures(cfg, lo, hi, samples=samples, seed=seed)
        assert failures[:1] == [OBSTRUCTION_MESSAGE], seed


@pytest.mark.parametrize(
    "n,case", [(n, case) for n in range(1, 5) for case in ALL_CASES if case.w_is_contractible or n % 2]
)
def test_axiom_failures_pass_on_admissible_cells(n, case):
    """Where the BV axioms hold the witness pair adds nothing: no failure on
    either window for any sample count and seed."""
    cfg = AlgebraConfig(n, case)
    for lo, hi in ((-cfg.dim, 12 * n), (-1, 0)):
        for samples in (0, 5, 50):
            for seed in range(10):
                assert axiom_failures(cfg, lo, hi, samples=samples, seed=seed) == [], (lo, hi, samples, seed)


def test_axiom_failures_lists_no_basis_when_it_does_not_sample(monkeypatch):
    # test_ring's WINDOW_CALLS check that the window is still refused
    listed = []
    monkeypatch.setattr(bv, "window_basis", lambda *args: listed.append(args))
    assert axiom_failures(AlgebraConfig(1), -3, 10**9, samples=0, seed=0) == []
    assert listed == []


def test_axiom_failures_empty_window_cannot_be_sampled():
    cfg = AlgebraConfig(1)
    with pytest.raises(InputError, match=r"degree window \[-50, -10\]"):
        axiom_failures(cfg, -50, -10, samples=3, seed=0)
    assert axiom_failures(cfg, -50, -10, samples=0, seed=0) == []


def test_delta_table_rejects_a_non_component():
    with pytest.raises(InputError, match="unknown component 'e'"):
        delta_table(AlgebraConfig(1), "e", -3, 5)


def test_delta_table_rejects_a_non_component_below_the_bottom_degree():
    with pytest.raises(InputError, match="unknown component 'e'"):
        delta_table(AlgebraConfig(1), "e", -50, -10)


def test_delta_table_matches_pointwise_delta():
    cfg = AlgebraConfig(1, BVCase.A_VXW)
    table = delta_table(cfg, Component.G, -3, 5)
    for m, image in table.rows.items():
        assert image == delta(element(m), cfg)


def test_windows_reaching_below_the_bottom_degree():
    cfg = AlgebraConfig(1)
    basis.cache_clear()
    table = delta_table(cfg, Component.G, -10**6, 2)
    assert table.window == (-10**6, 2)
    assert table.rows == delta_table(cfg, Component.G, -3, 2).rows
    assert axiom_failures(cfg, -10**6, 2, samples=10, seed=0) == []
    # one entry per component and loop degree actually listed
    assert basis.cache_info().currsize <= 2 * (2 + 2 * cfg.n + 2)


# ------------------------------------------------- exhaustive references

REFERENCE_CELLS = [(n, case) for n in range(1, 5) for case in ALL_CASES]


def reference_window(cfg):
    return window_basis(cfg, (None,), -cfg.dim, 4 * cfg.n)


def test_reference_window_covers_the_period_window():
    """The exhaustive references below pin delta and the bracket on every
    basis monomial that the spectral period tables rank: fiber degrees
    -(2n+1) .. 2n and their targets one degree up."""
    for n, case in REFERENCE_CELLS:
        cfg = AlgebraConfig(n, case)
        degrees = spectral._period_degrees(cfg)
        period = window_basis(cfg, (None,), degrees[0], degrees[-1] + 1)
        assert set(period) <= set(reference_window(cfg)), (n, case)


def divide(m, g):
    d = GENERATOR_EXPONENTS[g]
    return Monomial(m.a - d.a, m.b - d.b, m.c - d.c)


def biderivation_bracket(m1, m2, cfg):
    """{m1, m2} from the definition: the sum over ordered generator pairs
    (g, h) of e_g(m1) e_h(m2) {g, h} (m1 / g) (m2 / h), mod 2."""
    result = zero()
    for g, eg in zip("xvw", (m1.a, m1.b, m1.c)):
        for h, eh in zip("xvw", (m2.a, m2.b, m2.c)):
            if eg * eh % 2:
                rest = multiply(element(divide(m1, g)), element(divide(m2, h)), cfg)
                result = add(result, multiply(generator_bracket(g, h, cfg), rest, cfg))
    return result


@pytest.mark.parametrize("n,case", REFERENCE_CELLS)
def test_delta_equals_oracle_on_reference_window(n, case):
    cfg = AlgebraConfig(n, case)
    for m in reference_window(cfg):
        assert delta(element(m), cfg) == delta_oracle(element(m), cfg), m


@pytest.mark.parametrize("n,case", REFERENCE_CELLS)
def test_bracket_equals_biderivation_definition_exhaustive(n, case):
    cfg = AlgebraConfig(n, case)
    window = reference_window(cfg)
    for m1 in window:
        for m2 in window:
            assert bracket(element(m1), element(m2), cfg) == biderivation_bracket(m1, m2, cfg), (m1, m2)


@pytest.mark.parametrize(
    "n,case", [(n, case) for n, case in REFERENCE_CELLS if case.w_is_contractible or n % 2]
)
def test_bracket_equals_oracle_bv_defect_exhaustive(n, case):
    """On admissible configurations {a, b} = Delta(ab) + Delta(a) b + a Delta(b),
    with every Delta taken from the oracle."""
    cfg = AlgebraConfig(n, case)
    window = reference_window(cfg)
    for m1 in window:
        a = element(m1)
        for m2 in window:
            b = element(m2)
            defect = add(
                delta_oracle(multiply(a, b, cfg), cfg),
                add(multiply(delta_oracle(a, cfg), b, cfg), multiply(a, delta_oracle(b, cfg), cfg)),
            )
            assert bracket(a, b, cfg) == defect, (m1, m2)


# ------------------------------------------------- inadmissible configurations


@pytest.mark.parametrize("case", [BVCase.B_W, BVCase.B_WXVW])
def test_noncontractible_w_placement_breaks_down_for_even_n(case):
    """For even n the square of v rewrites to a nonzero class whose component
    contradicts the non-contractible placement of w, so the product identities
    genuinely fail there; operator tables on basis classes stay well defined."""
    cfg = AlgebraConfig(2, case)
    v = generator("v")
    square = multiply(v, v, cfg)
    [term] = square.terms
    assert component(term, cfg) is Component.G  # a square should land in e
    a = multiply(generator("x"), v, cfg)
    b = multiply(v, generator("w"), cfg)
    lhs = delta(multiply(a, b, cfg), cfg)
    rhs = add(
        add(multiply(delta(a, cfg), b, cfg), multiply(a, delta(b, cfg), cfg)),
        bracket(a, b, cfg),
    )
    assert lhs != rhs
    # the operator itself is still square-zero on every basis class
    for m in window_monomials(cfg, -5, 24):
        assert delta(delta(element(m), cfg), cfg).is_zero()
