import itertools
import random
import re
from fractions import Fraction

import pytest

from loopbv.bv import axiom_failures, delta_table
from loopbv.resonance import GeodesicRecord, index_sequence, morse_truncation
from loopbv.ring import (
    GENERATOR_EXPONENTS,
    GENERATOR_NAMES,
    AlgebraConfig,
    BVCase,
    Component,
    InputError,
    Monomial,
    add,
    basis,
    check_count,
    check_int,
    component,
    dimension,
    element,
    generator,
    loop_degree,
    multiply,
    normal_monomial,
    normalize,
    power,
    render_element,
    render_monomial,
    top_degree,
    unit,
    window_basis,
    zero,
)
from loopbv.series import betti, expand, lg_series
from loopbv.spectral import d2_matrix, d2_rank

ALL_CASES = list(BVCase)


def window_monomials(cfg, lo, hi):
    return [m for q in range(lo, hi + 1) for m in basis(cfg, None, q)]


def test_config_validation():
    with pytest.raises(InputError):
        AlgebraConfig(0)
    with pytest.raises(InputError):
        AlgebraConfig(-2)
    with pytest.raises(InputError):
        AlgebraConfig(True)
    for case in ("A_v", None, 0):
        with pytest.raises(InputError, match="unknown BV case"):
            AlgebraConfig(1, case)
    assert AlgebraConfig(3).dim == 7


def test_check_int_and_check_count():
    check_int(-3, "slot")
    check_count(0, "degree")
    for value in (True, False, 1.0, "1", None):
        with pytest.raises(InputError) as err:
            check_int(value, "slot")
        assert str(err.value) == f"slot must be an integer, got {value!r}"
        with pytest.raises(InputError, match="degree must be an integer"):
            check_count(value, "degree")
    with pytest.raises(InputError) as err:
        check_count(-1, "degree")
    assert str(err.value) == "degree must be nonnegative, got -1"


RECORD = GeodesicRecord("c", 0, Fraction(1), 2, {(1, 0): 1})

# every public function that takes a count, with the name its refusal uses
COUNT_CALLS = {
    "expand": (lambda v: expand(lg_series(1), v), "expansion degree"),
    "betti": (lambda v: betti(lg_series(1), v), "Betti index"),
    "index_sequence": (lambda v: index_sequence(RECORD, 1, "rounded-linear", v), "count"),
    "morse_truncation": (lambda v: morse_truncation([RECORD], 1, v), "truncation degree"),
    "axiom_failures": (lambda v: axiom_failures(AlgebraConfig(1), 0, 2, v, 0), "samples"),
    "power": (lambda v: power(generator("x"), v, AlgebraConfig(1)), "exponent"),
}


@pytest.mark.parametrize("value", [True, 2.0, 1.5])
@pytest.mark.parametrize("call", sorted(COUNT_CALLS))
def test_counts_refuse_bools_and_floats(call, value):
    run, what = COUNT_CALLS[call]
    with pytest.raises(InputError) as err:
        run(value)
    assert str(err.value) == f"{what} must be an integer, got {value!r}"


@pytest.mark.parametrize("call", sorted(COUNT_CALLS))
def test_counts_refuse_negatives(call):
    run, what = COUNT_CALLS[call]
    with pytest.raises(InputError) as err:
        run(-1)
    assert str(err.value) == f"{what} must be nonnegative, got -1"


# every public function that takes a loop-degree window (lo, hi)
WINDOW_CALLS = {
    "window_basis": lambda lo, hi: window_basis(AlgebraConfig(1), (None,), lo, hi),
    "delta_table": lambda lo, hi: delta_table(AlgebraConfig(1), Component.G, lo, hi),
    "axiom_failures": lambda lo, hi: axiom_failures(AlgebraConfig(1), lo, hi, 2, 0),
    "axiom_failures unsampled": lambda lo, hi: axiom_failures(AlgebraConfig(1), lo, hi, 0, 0),
}


@pytest.mark.parametrize("value", [True, 2.0, 2.5])
@pytest.mark.parametrize("call", sorted(WINDOW_CALLS))
def test_degree_windows_refuse_bools_and_floats(call, value):
    run = WINDOW_CALLS[call]
    with pytest.raises(InputError) as err:
        run(value, 4)
    assert str(err.value) == f"lowest degree must be an integer, got {value!r}"
    with pytest.raises(InputError) as err:
        run(-3, value)
    assert str(err.value) == f"highest degree must be an integer, got {value!r}"
    run(-3, 4)


@pytest.mark.parametrize("call", sorted(WINDOW_CALLS))
def test_degree_windows_refuse_an_empty_window(call):
    with pytest.raises(InputError) as err:
        WINDOW_CALLS[call](4, -3)
    assert str(err.value) == "empty degree window [4, -3]"


# every public function that takes one loop degree, all through ring.basis
DEGREE_CALLS = {
    "basis": lambda q: basis(AlgebraConfig(1), Component.E, q),
    "dimension": lambda q: dimension(AlgebraConfig(1), Component.E, q),
    "d2_matrix": lambda q: d2_matrix(AlgebraConfig(1), Component.G, q),
    "d2_rank": lambda q: d2_rank(AlgebraConfig(1), Component.G, q),
}


@pytest.mark.parametrize("value", [1.0, True, "1", [1]])
@pytest.mark.parametrize("call", sorted(DEGREE_CALLS))
def test_degrees_refuse_non_integers_cold_and_warm(call, value):
    """The ``basis`` cache must not answer for 1.0 or True, which hash and
    compare like the cached degree 1, nor fail on [1], which does not hash."""
    run = DEGREE_CALLS[call]
    basis.cache_clear()
    for _ in ("cold", "warm"):
        with pytest.raises(InputError) as err:
            run(value)
        assert str(err.value) == f"degree must be an integer, got {value!r}"
        run(1)
        run(2)


@pytest.mark.parametrize(
    "comp, k",
    [(Component.E, 1.0), (Component.E, True), (Component.E, "1"), (Component.E, [1]),
     ([Component.E], 1), ("e", 1)],
    ids=["1.0", "True", "'1'", "[1]", "[Component.E]", "'e'"],
)
def test_a_refused_basis_call_leaves_the_cache_as_it_was(comp, k):
    """``basis`` checks its arguments before it reads the cache, so a refused
    call counts neither a hit nor a miss and stores nothing, cold or warm."""
    cfg = AlgebraConfig(1)
    basis.cache_clear()
    for _ in ("cold", "warm"):
        info = basis.cache_info()
        with pytest.raises(InputError):
            basis(cfg, comp, k)
        assert basis.cache_info() == info
        basis(cfg, Component.E, 1)
        basis(cfg, None, 2)


def test_normalize_v_square_even_n():
    cfg = AlgebraConfig(2)
    assert normalize(0, 2, 0, cfg) == element(Monomial(4, 0, 1))


def test_normalize_v_square_odd_n():
    assert normalize(0, 2, 0, AlgebraConfig(1)).is_zero()
    assert normalize(0, 3, 0, AlgebraConfig(3)).is_zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_normalize_x_annihilation(n):
    cfg = AlgebraConfig(n)
    assert normalize(2 * n + 2, 0, 0, cfg).is_zero()
    assert normalize(2 * n + 1, 0, 0, cfg) == element(Monomial(2 * n + 1, 0, 0))


def test_normalize_rejects_negative_exponents():
    with pytest.raises(InputError):
        normalize(-1, 0, 0, AlgebraConfig(1))


def reference_normal_form(a, b, c, n):
    """Rewrite v^2 -> (n+1) x^(2n) w one square at a time, then cut at
    x^(2n+2); None is zero."""
    while b >= 2:
        if (n + 1) % 2 == 0:
            return None
        a, b, c = a + 2 * n, b - 2, c + 1
    return None if a >= 2 * n + 2 else Monomial(a, b, c)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_normal_form_matches_reference_on_exponent_box(n):
    """The box holds v^2 and v^3 (zero for odd n, rewritten for even n) and
    the x exponents on both sides of the x^(2n+2) cut."""
    cfg = AlgebraConfig(n)
    for a, b, c in itertools.product(range(2 * n + 4), range(5), range(4)):
        want = reference_normal_form(a, b, c, n)
        assert normal_monomial(a, b, c, cfg) == want, (a, b, c)
        assert normalize(a, b, c, cfg) == (zero() if want is None else element(want))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_multiply_matches_reference_on_sums(n):
    cfg = AlgebraConfig(n)
    pool = window_monomials(cfg, -(2 * n + 1), 6 * n)
    for m1, m2 in itertools.product(pool, repeat=2):
        want = reference_normal_form(m1.a + m2.a, m1.b + m2.b, m1.c + m2.c, n)
        assert multiply(element(m1), element(m2), cfg) == (zero() if want is None else element(want))
    rng = random.Random(n)
    for _ in range(200):
        left, right = rng.sample(pool, 4), rng.sample(pool, 4)
        terms = [
            reference_normal_form(m1.a + m2.a, m1.b + m2.b, m1.c + m2.c, n)
            for m1 in left
            for m2 in right
        ]
        want = element(*(m for m in terms if m is not None))
        assert multiply(element(*left), element(*right), cfg) == want


@pytest.mark.parametrize("exponents", [(-1, 0, 0), (0, -2, 1), (3, 1, -1)])
def test_negative_exponents_keep_their_message(exponents):
    message = re.escape(f"exponents must be nonnegative, got {exponents}")
    for fn in (normal_monomial, normalize):
        with pytest.raises(InputError, match=message):
            fn(*exponents, AlgebraConfig(2))


@pytest.mark.parametrize("n", [1, 2])
def test_normalize_idempotent(n):
    cfg = AlgebraConfig(n)
    for a in range(4 * n + 4):
        for b in range(4):
            for c in range(7):
                once = normalize(a, b, c, cfg)
                for m in once.terms:
                    assert normalize(m.a, m.b, m.c, cfg) == element(m)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_multiply_top_x_power_vanishes(n):
    cfg = AlgebraConfig(n)
    assert multiply(power(generator("x"), 2 * n + 1, cfg), generator("x"), cfg).is_zero()


def test_multiply_unit_is_identity():
    cfg = AlgebraConfig(2)
    for m in window_monomials(cfg, -5, 10):
        assert multiply(unit(), element(m), cfg) == element(m)


def test_multiply_v_squared_reduces():
    cfg = AlgebraConfig(2)
    assert multiply(generator("v"), generator("v"), cfg) == element(Monomial(4, 0, 1))


def test_multiply_commutative_and_associative_small():
    cfg = AlgebraConfig(1)
    pool = [element(m) for m in window_monomials(cfg, -3, 8)]
    for u, v in itertools.product(pool, repeat=2):
        assert multiply(u, v, cfg) == multiply(v, u, cfg)
    for u, v, w in itertools.product(pool, repeat=3):
        assert multiply(multiply(u, v, cfg), w, cfg) == multiply(u, multiply(v, w, cfg), cfg)


@pytest.mark.parametrize("n", [2, 3])
def test_multiply_associative_sampled(n):
    cfg = AlgebraConfig(n)
    pool = [element(m) for m in window_monomials(cfg, -(2 * n + 1), 8 * n)]
    rng = random.Random(11 * n)
    for _ in range(2000):
        u, v, w = (rng.choice(pool) for _ in range(3))
        assert multiply(multiply(u, v, cfg), w, cfg) == multiply(u, multiply(v, w, cfg), cfg)
        assert multiply(u, v, cfg) == multiply(v, u, cfg)


def test_power_squares_and_multiplies(monkeypatch):
    from loopbv import ring

    calls = []

    def counting_multiply(u, v, cfg):
        calls.append(None)
        return multiply(u, v, cfg)

    monkeypatch.setattr(ring, "multiply", counting_multiply)
    cfg = AlgebraConfig(2)
    assert power(generator("w"), 1000, cfg) == element(Monomial(0, 0, 1000))
    assert len(calls) <= 2 * (1000).bit_length()
    assert power(generator("w"), 10**12, cfg) == element(Monomial(0, 0, 10**12))


@pytest.mark.parametrize("n", [1, 2])
def test_power_matches_repeated_multiplication(n):
    cfg = AlgebraConfig(n)
    x, v, w = (generator(g) for g in GENERATOR_NAMES)
    one_plus_w, x_plus_v = add(unit(), w), add(x, v)
    bases = [one_plus_w, x_plus_v, add(one_plus_w, x_plus_v), x, add(x, multiply(x, v, cfg)), v]
    for u in bases:
        want = unit()
        for k in range(40):
            assert power(u, k, cfg) == want
            want = multiply(want, u, cfg)


@pytest.mark.parametrize("case", ALL_CASES)
def test_degree_additivity_and_component_grading(case):
    cfg = AlgebraConfig(1, case)
    pool = window_monomials(cfg, -3, 8)
    for m1, m2 in itertools.product(pool, repeat=2):
        product = multiply(element(m1), element(m2), cfg)
        for t in product.terms:
            assert loop_degree(t, cfg) == loop_degree(m1, cfg) + loop_degree(m2, cfg)
            # composition of loops multiplies the Z2 labels: G is the odd one
            odd = (component(m1, cfg) is Component.G) != (component(m2, cfg) is Component.G)
            assert component(t, cfg) is (Component.G if odd else Component.E)


def test_add_char_two():
    v = generator("v")
    x = generator("x")
    assert add(v, v).is_zero()
    assert add(x, zero()) == x
    assert add(add(x, v), v) == x


def test_degrees():
    cfg = AlgebraConfig(1)
    x = Monomial(1, 0, 0)
    assert loop_degree(x, cfg) == -1
    assert top_degree(x, cfg) == 2
    assert loop_degree(Monomial(2, 0, 1), cfg) == 0  # x^(2n) w at n=1
    assert loop_degree(Monomial(0, 0, 0), cfg) == 0
    cfg3 = AlgebraConfig(3)
    assert loop_degree(Monomial(6, 0, 1), cfg3) == 0


@pytest.mark.parametrize("case", ALL_CASES)
def test_component_of_generators(case):
    cfg = AlgebraConfig(2, case)
    assert component(Monomial(0, 1, 0), cfg) is Component.G
    assert component(Monomial(1, 0, 0), cfg) is Component.E
    w_comp = component(Monomial(0, 0, 1), cfg)
    if case.w_is_contractible:
        assert w_comp is Component.E
    else:
        assert w_comp is Component.G


@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_degree_zero_pooled(n):
    cfg = AlgebraConfig(n)
    got = basis(cfg, None, 0)
    want = (
        Monomial(0, 0, 0),
        Monomial(0, 1, 0),
        Monomial(2 * n, 0, 1),
        Monomial(2 * n, 1, 1),
    )
    assert got == want
    assert dimension(cfg, None, 0) == 4


@pytest.mark.parametrize("n", [1, 2])
def test_basis_degree_minus_one_and_bottom(n):
    cfg = AlgebraConfig(n)
    got = basis(cfg, None, -1)
    want = (
        Monomial(1, 0, 0),
        Monomial(1, 1, 0),
        Monomial(2 * n + 1, 0, 1),
        Monomial(2 * n + 1, 1, 1),
    )
    assert got == want
    assert dimension(cfg, None, -(2 * n + 1)) == 2


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("case", [BVCase.A_V, BVCase.B_W])
def test_dimension_matches_bruteforce(n, case):
    cfg = AlgebraConfig(n, case)
    c_bound = (10 * n + 2 * n + 2) // (2 * n) + 2
    for k in range(-10 * n, 10 * n + 1):
        for comp in (None, Component.E, Component.G):
            count = 0
            for a in range(2 * n + 2):
                for b in (0, 1):
                    for c in range(c_bound):
                        m = Monomial(a, b, c)
                        if loop_degree(m, cfg) != k:
                            continue
                        if comp is not None and component(m, cfg) is not comp:
                            continue
                        count += 1
            assert dimension(cfg, comp, k) == count, (n, case, comp, k)


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("case", ALL_CASES)
def test_basis_equals_sorted_enumeration(n, case):
    cfg = AlgebraConfig(n, case)
    lo, hi = -(2 * n + 1), 12 * n
    found = {}
    for a, b, c in itertools.product(range(2 * n + 2), (0, 1), range(hi // (2 * n) + 3)):
        m = Monomial(a, b, c)
        if lo <= loop_degree(m, cfg) <= hi:
            for comp in (None, component(m, cfg)):
                found.setdefault((loop_degree(m, cfg), comp), []).append(m)
    for k in range(lo, hi + 1):
        for comp in (None, Component.E, Component.G):
            assert basis(cfg, comp, k) == tuple(sorted(found.get((k, comp), []))), (k, comp)


def test_basis_split_by_component_cases():
    cfg_a = AlgebraConfig(1, BVCase.A_V)
    assert basis(cfg_a, Component.E, 0) == (Monomial(0, 0, 0), Monomial(2, 0, 1))
    assert basis(cfg_a, Component.G, 0) == (Monomial(0, 1, 0), Monomial(2, 1, 1))
    cfg_b = AlgebraConfig(1, BVCase.B_W)
    assert basis(cfg_b, Component.E, 0) == (Monomial(0, 0, 0), Monomial(2, 1, 1))
    assert basis(cfg_b, Component.G, 0) == (Monomial(0, 1, 0), Monomial(2, 0, 1))


def test_enum_keys_hash_by_identity():
    """Members are singletons, so value-built ones hit the same cache entries,
    and they hash in C rather than through ``Enum.__hash__``."""
    assert Component.__hash__ is BVCase.__hash__ is object.__hash__
    cfg = AlgebraConfig(2, BVCase.B_W)
    for q in (-5, 0, 7):
        assert basis(cfg, Component("g"), q) is basis(cfg, Component.G, q)
    assert AlgebraConfig(1, BVCase("A_v")) == AlgebraConfig(1)
    assert hash(AlgebraConfig(1, BVCase("A_v"))) == hash(AlgebraConfig(1))


def test_basis_cache_stays_at_its_bound_over_a_long_ring_window(capsys):
    """``ring --n 1 --max-degree 20000`` lists 40,008 (degree, component)
    keys; the cache keeps at most its fixed bound of them."""
    from loopbv.cli import main

    bound = basis.cache_info().maxsize
    assert bound is not None
    assert main(["ring", "--n", "1", "--max-degree", "20000", "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) > bound
    assert basis.cache_info().currsize <= bound


@pytest.mark.parametrize("n", [1, 2, 3])
def test_window_basis_orders_by_degree_then_component(n):
    cfg = AlgebraConfig(n, BVCase.B_W)
    lo, hi = -(2 * n + 1), 6 * n
    comps = (Component.G, Component.E)
    assert window_basis(cfg, comps, lo, hi) == [
        m for q in range(lo, hi + 1) for comp in comps for m in basis(cfg, comp, q)
    ]
    assert window_basis(cfg, (None,), lo, hi) == [
        m for q in range(lo, hi + 1) for m in basis(cfg, None, q)
    ]
    for q in (lo, 0, hi):  # a window of one degree
        assert window_basis(cfg, (None,), q, q) == list(basis(cfg, None, q))
    with pytest.raises(InputError, match="empty degree window"):
        window_basis(cfg, (None,), hi, lo)


def test_window_basis_starts_at_the_bottom_degree():
    cfg = AlgebraConfig(1)
    basis.cache_clear()
    deep = window_basis(cfg, (None,), -10**6, 2)
    assert deep == window_basis(cfg, (None,), -3, 2)
    assert basis.cache_info().currsize == 2 + 3 + 1
    assert window_basis(cfg, (None,), -10**6, -4) == []


@pytest.mark.parametrize("comp", ["e", "g", "both", 0, [Component.E]])
def test_basis_rejects_a_non_component(comp):
    # [Component.E] does not hash: the key fails in the basis cache itself
    cfg = AlgebraConfig(1)
    for call in (basis, dimension):
        with pytest.raises(InputError, match="unknown component"):
            call(cfg, comp, 0)
    with pytest.raises(InputError, match="unknown component"):
        window_basis(cfg, (Component.E, comp), -3, 2)


@pytest.mark.parametrize("comp", ["e", ["e"], 0])
def test_window_basis_checks_components_before_degrees(comp):
    cfg = AlgebraConfig(1)
    for lo, hi in ((0, 1), (-50, -10)):
        with pytest.raises(InputError, match="unknown component"):
            window_basis(cfg, (comp,), lo, hi)


def test_monomial_is_its_exponent_triple():
    m = Monomial(1, 0, 1)
    assert m == (1, 0, 1)
    assert (m[0], m[1], m[2]) == (m.a, m.b, m.c) == (1, 0, 1)
    assert list(m) == [1, 0, 1]
    assert hash(m) == hash((1, 0, 1))
    assert repr(m) == "Monomial(a=1, b=0, c=1)"
    assert str(m) == "x*w"
    assert GENERATOR_NAMES == ("x", "v", "w")
    for i, name in enumerate(GENERATOR_NAMES):
        assert GENERATOR_EXPONENTS[name][i] == sum(GENERATOR_EXPONENTS[name]) == 1


def test_generator_name_validation():
    with pytest.raises(InputError):
        generator("y")


def test_render_monomial():
    assert render_monomial(Monomial(0, 0, 0)) == "1"
    assert render_monomial(Monomial(1, 0, 0)) == "x"
    assert render_monomial(Monomial(2, 1, 3)) == "x^2*v*w^3"
    assert render_monomial(Monomial(0, 1, 1)) == "v*w"


def test_render_element_ordering_and_zero():
    assert render_element(zero()) == "0"
    assert render_element(unit()) == "1"
    # sorted by (c, a, b): terms group by w power
    el = element(Monomial(2, 1, 1), Monomial(0, 1, 0), Monomial(1, 0, 0))
    assert render_element(el) == "v + x + x^2*v*w"
