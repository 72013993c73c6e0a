import random
from fractions import Fraction
from math import lcm

import pytest

from loopbv.ring import InputError
from loopbv.series import (
    NonQuasilinearError,
    RationalSeries,
    TruncatedSeries,
    _checked_form,
    _cyclic_factors,
    _padd,
    _pmul,
    _trim,
    average_alternating,
    betti,
    eq_exact,
    expand,
    le_series,
    lg_series,
    total_series,
)


def one_minus_t_power(e):
    """The dense polynomial 1 - t^e."""
    return (1,) + (0,) * (e - 1) + (-1,)


def test_expand_hand_checked_quotient():
    # (1 - t^4) / (1 - t^2)^2 expanded by long division by hand through t^6
    r = RationalSeries(one_minus_t_power(4), (1, 0, -2, 0, 1))
    assert expand(r, 6).coefficients == (1, 0, 2, 0, 2, 0, 2)


def test_expand_geometric_series():
    r = RationalSeries((1,), (1, -1))
    assert expand(r, 10).coefficients == (1,) * 11


def test_expand_rejects_zero_constant_term():
    with pytest.raises(InputError):
        RationalSeries((1,), (0, 1))


@pytest.mark.parametrize(
    "num, den",
    [((1,), ()), ((1.5,), (1,)), ((True,), (1,)), (("a",), (1,)), ((1,), (1, 0.0))],
    ids=["empty-denominator", "float", "bool", "string", "float-denominator"],
)
def test_rational_series_refuses_non_integer_polynomials(num, den):
    with pytest.raises(InputError):
        RationalSeries(num, den)


def test_empty_numerator_is_the_zero_series():
    assert RationalSeries(()).numerator == (0,)
    assert eq_exact(RationalSeries(()), RationalSeries((0,)))
    assert expand(RationalSeries((), (1, -1)), 3).coefficients == (0, 0, 0, 0)


def test_expand_window_validation():
    with pytest.raises(InputError):
        expand(lg_series(1), -1)
    with pytest.raises(InputError):
        expand(lg_series(1), 5).coefficient(6)


def test_expand_nonunit_constant_term_stays_exact():
    r = RationalSeries((1,), (2, -1))  # 1/(2 - t): coefficients 1/2^(k+1)
    coeffs = expand(r, 3).coefficients
    assert coeffs == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16))


def fraction_expand(r, n_terms):
    """Reference long division carried out entirely in Fraction."""
    coeffs = []
    for k in range(n_terms + 1):
        acc = Fraction(r.numerator[k]) if k < len(r.numerator) else Fraction(0)
        for j in range(1, min(k, len(r.denominator) - 1) + 1):
            acc -= r.denominator[j] * coeffs[k - j]
        coeffs.append(acc / r.denominator[0])
    return coeffs


@pytest.mark.parametrize(
    "r",
    [
        lg_series(1), le_series(1), total_series(1),
        lg_series(5), le_series(5), total_series(5),
        RationalSeries((1,), (2, -1)),  # 1/(2 - t): no integral coefficient
        RationalSeries((2, 1, 4), (2, 0, -2)),  # integral and halves alternate
        RationalSeries((1, 3), (2, -2)),  # a Fraction accumulator turns integral
        RationalSeries((1, 0, 5), (-1, 1, 0, 3)),  # den(0) = -1
    ],
    ids=["lg1", "le1", "total1", "lg5", "le5", "total5", "geom2", "mixed2", "back2", "neg1"],
)
def test_expand_values_and_types(r):
    """Integral coefficients come back as int, all others as Fraction."""
    got = expand(r, 90).coefficients
    want = fraction_expand(r, 90)
    assert got == tuple(want)
    assert [type(c) for c in got] == [int if w.denominator == 1 else Fraction for w in want]
    if r.denominator[0] == 1:
        assert all(type(c) is int for c in got)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expansion_convolves_back_to_numerator(n):
    for r in (lg_series(n), le_series(n), total_series(n)):
        limit = 80
        coeffs = expand(r, limit).coefficients
        den, num = r.denominator, r.numerator
        for k in range(limit - len(den)):
            conv = sum(den[j] * coeffs[k - j] for j in range(len(den)) if 0 <= k - j)
            want = num[k] if k < len(num) else 0
            assert conv == want


def test_lg_closed_form_polynomials():
    n = 3
    r = lg_series(n)
    assert r.numerator == one_minus_t_power(2 * n + 2)
    # denominator is (1 - t^(2n)) (1 - t^2)
    assert r.denominator == (1, 0, -1, 0, 0, 0, -1, 0, 1)


def schoolbook(*factors):
    """Dense product of polynomials, every pair of coefficients, trimmed."""
    out = (1,)
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        while len(prod) > 1 and prod[-1] == 0:
            prod.pop()
        out = tuple(prod)
    return out


def test_closed_forms_keep_their_unreduced_fields():
    """``loopbv series`` prints num/den as they are held, so the closed forms
    keep the unreduced products of their factors, whatever builds them."""
    assert total_series(1).numerator == (2, 1, -1, 0, -2, -1, 1)
    assert total_series(1).denominator == (1, 0, -3, 0, 3, 0, -1)
    assert le_series(2).denominator == (1, 0, -2, 0, 0, 0, 2, 0, -1)
    for n in range(1, 65):
        power = [one_minus_t_power(e) for e in (2 * n + 2, 2 * n, 2)]
        den = schoolbook(power[1], power[2], power[2])
        fields = {
            lg_series: (power[0], schoolbook(power[1], power[2])),
            le_series: (schoolbook(power[0], (1, 1)), den),
            total_series: (schoolbook(power[0], (2, 1, -1)), den),
        }
        for form, want in fields.items():
            r = form(n)
            assert (r.numerator, r.denominator) == want, (form.__name__, n)
        # the sums that built them before: lg times 1 + (1 + t)/(1 - t^2)
        bump = RationalSeries((1, 1), power[2])
        for r, built in ((le_series(n), lg_series(n) * bump),
                         (total_series(n), lg_series(n) * (RationalSeries((1,)) + bump))):
            assert (r.numerator, r.denominator) == (built.numerator, built.denominator), n


@pytest.mark.parametrize("n", range(1, 6))
def test_component_series_sum_to_total(n):
    assert eq_exact(le_series(n) + lg_series(n), total_series(n))
    assert eq_exact(total_series(n) - le_series(n), lg_series(n))


def test_eq_exact_after_cancelling_common_factor():
    # lg(1) = (1 - t^4)/((1 - t^2)(1 - t^2)) equals (1 + t^2)/(1 - t^2)
    assert eq_exact(lg_series(1), RationalSeries((1, 0, 1), (1, 0, -1)))


def test_eq_exact_distinguishes_distinct_series():
    assert not eq_exact(lg_series(1), le_series(1))


def test_eq_exact_is_equivalence_on_fixture_set():
    fixtures = [lg_series(1), RationalSeries((1, 0, 1), (1, 0, -1)), le_series(1), total_series(1)]
    for r in fixtures:
        assert eq_exact(r, r)
    for r1 in fixtures:
        for r2 in fixtures:
            assert eq_exact(r1, r2) == eq_exact(r2, r1)
    for r1 in fixtures:
        for r2 in fixtures:
            for r3 in fixtures:
                if eq_exact(r1, r2) and eq_exact(r2, r3):
                    assert eq_exact(r1, r3)


def test_betti_examples():
    r = lg_series(1)
    assert betti(r, 0) == 1
    assert betti(r, 1) == 0
    assert betti(r, 2) == 2
    with pytest.raises(InputError):
        betti(r, -1)


@pytest.mark.parametrize("n", range(1, 6))
def test_expansion_coefficients_bounded_and_nonnegative(n):
    lg = expand(lg_series(n), 200).coefficients
    assert set(lg) <= {0, 1, 2}
    total = expand(total_series(n), 200).coefficients
    assert all(c >= 0 for c in total)


@pytest.mark.parametrize("n", [*range(1, 9), 40, 1000])
def test_average_alternating_closed_form(n):
    avg = average_alternating(lg_series(n))
    assert avg == Fraction(n + 1, 2 * n)
    assert avg * 2 * n == n + 1


def test_average_alternating_constant_series():
    assert average_alternating(RationalSeries((1,), (1, -1))) == 0


def test_average_alternating_polynomial():
    # finitely many Betti numbers: average is zero
    assert average_alternating(RationalSeries((1, 2, 3))) == 0


def test_average_alternating_rejects_geometric_growth():
    with pytest.raises(NonQuasilinearError):
        average_alternating(RationalSeries((1,), (1, -2)))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_average_alternating_rejects_unbounded_betti_series(n):
    # the contractible component has unbounded Betti numbers, so its
    # alternating partial sums oscillate linearly and no average exists
    with pytest.raises(NonQuasilinearError):
        average_alternating(le_series(n))
    with pytest.raises(NonQuasilinearError):
        average_alternating(total_series(n))


def test_non_quasilinear_error_is_an_input_error():
    assert issubclass(NonQuasilinearError, InputError)
    assert issubclass(NonQuasilinearError, ArithmeticError)
    with pytest.raises(InputError, match="non-quasilinear"):
        average_alternating(le_series(1))


def cyclic_den(c, exponents):
    den = (c,)
    for e in exponents:
        den = _pmul(den, one_minus_t_power(e))
    return den


@pytest.mark.parametrize(
    "num, c, exponents",
    [((-1, -3), 1, (3, 3)), ((0, 2), 1, (3, 6)), ((-3,), 2, (3, 3))],
    ids=["double-3", "three-six", "scaled-double-3"],
)
def test_average_alternating_rejects_oscillating_means(num, c, exponents):
    # S_N / N keeps oscillating (for the first: about -2/3, 1/3, 1/3, 2/3 at
    # N = 6000..6003), so there is no limit to return
    with pytest.raises(NonQuasilinearError, match="non-quasilinear"):
        average_alternating(RationalSeries(num, cyclic_den(c, exponents)))


def test_average_alternating_rejects_non_cyclic_factor():
    # 1 + t + t^2 is cyclotomic but not of the form 1 - t^e: refused, not guessed
    with pytest.raises(NonQuasilinearError, match=r"non-quasilinear.*\[1, 1, 1\]"):
        average_alternating(RationalSeries((1,), (1, 1, 1)))


def partial_sum_limit(r, period):
    """Cesàro limit from the expansion alone, or None when there is none.

    Past N0 = len(num) + len(den) the sequence b_k = (-1)^k a_k obeys the
    recurrence of den(-t), so b_{k+P} = b_k on len(den) consecutive k holds
    for every later k.  Checking S_{N+P} - S_N over one period plus len(den)
    steps therefore decides whether S_N is linear plus P-periodic for good.
    """
    start = len(r.numerator) + len(r.denominator)
    stop = start + period + len(r.denominator)
    partial, acc = [], 0
    for k, a in enumerate(expand(r, stop + period).coefficients):
        acc += -a if k % 2 else a
        partial.append(acc)
    steps = {partial[N + period] - partial[N] for N in range(start, stop)}
    return Fraction(steps.pop(), period) if len(steps) == 1 else None


def test_average_alternating_matches_partial_sum_oracle():
    rng = random.Random(20261018)
    outcomes = {"limit": 0, "none": 0}
    for _ in range(600):
        num = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 8)))
        exponents = [rng.randint(1, 6) for _ in range(rng.randint(0, 3))]
        r = RationalSeries(num, cyclic_den(rng.choice((1, -1, 2, 3)), exponents))
        want = partial_sum_limit(r, 2 * lcm(*exponents) if exponents else 2)
        if want is None:
            outcomes["none"] += 1
            with pytest.raises(NonQuasilinearError):
                average_alternating(r)
        else:
            outcomes["limit"] += 1
            assert average_alternating(r) == want, (num, exponents)
    assert min(outcomes.values()) >= 100, outcomes


def _pdivides(p, d):
    """Oracle: sparse long division, the quotient p / d when exact, else None."""
    p = _trim(p)
    d = _trim(d)
    if d == (0,):
        return None
    if len(p) < len(d):
        return (0,) if p == (0,) else None
    rem = list(p)
    quot = [0] * (len(p) - len(d) + 1)
    lead = d[-1]
    d_terms = [(j, b) for j, b in enumerate(d) if b]
    for k in range(len(quot) - 1, -1, -1):
        top = rem[k + len(d) - 1]
        if top % lead:
            return None
        factor = top // lead
        quot[k] = factor
        if factor:
            for j, b in d_terms:
                rem[k + j] -= factor * b
    if any(rem):
        return None
    return _trim(tuple(quot))


def test_pdivides_sparse_exact_and_inexact():
    rng = random.Random(7)
    for _ in range(300):
        p = tuple(rng.choice((0, 0, 0, rng.randint(-5, 5))) for _ in range(rng.randint(1, 40)))
        d = [0] * rng.randint(1, 30)
        for j in rng.sample(range(len(d)), min(len(d), 3)):
            d[j] = rng.choice((-2, -1, 1, 2, 3))
        d[0] = d[0] or 1
        d[-1] = d[-1] or -1
        d = tuple(d)
        product = _pmul(p, d)
        assert _pdivides(product, d) == _trim(p)
        if len(d) > 1:
            assert _pdivides(_padd(product, (1,)), d) is None


def greedy_by_division(den):
    """Reference factoring: try each 1 - t^e by exact division, largest e first."""
    exponents, rest = [], den
    e = len(rest) - 1
    while e >= 1:
        quotient = _pdivides(rest, one_minus_t_power(e))
        if quotient is None:
            e -= 1
        else:
            exponents.append(e)
            rest = quotient
            e = min(e, len(rest) - 1)
    return tuple(exponents), rest


def sparse_denominators(rng):
    """400 denominators prod(1 - t^e) * L, e up to 9, with a short leftover L."""
    for _ in range(400):
        low = (rng.choice((1, -1, 2, 3)), *(rng.randint(-2, 2) for _ in range(rng.randint(0, 3))))
        yield _pmul(cyclic_den(1, [rng.randint(1, 9) for _ in range(rng.randint(0, 4))]), low)


def dense_denominators(rng):
    """1,000 denominators c * prod(1 -+ t^e) * L: dense products, factors
    1 + t^e that are no 1 - t^e, and leftovers L that may complete one."""
    for _ in range(1000):
        den = (rng.choice((1, -1, 2, -3)),)
        for _ in range(rng.randint(0, 6)):
            e = rng.randint(1, 12)
            den = _pmul(den, (1,) + (0,) * (e - 1) + (rng.choice((1, -1)),))
        yield _pmul(den, (1, *(rng.randint(-2, 2) for _ in range(rng.randint(0, 3)))))


def test_cyclic_factors_match_greedy_division():
    for dens in (sparse_denominators(random.Random(23)), dense_denominators(random.Random(20261019))):
        for den in dens:
            exponents, rest = _cyclic_factors(den)
            assert (exponents, rest) == greedy_by_division(den), den
            assert _pmul(cyclic_den(1, exponents), rest) == den


@pytest.mark.parametrize("exponents", [(11, 13, 17), (11, 13, 17, 19)])
def test_average_alternating_of_coprime_exponents(exponents):
    """num = (1 - t)^(k-1) over k factors with pairwise coprime e: the
    poles of r(-t) stay simple, and the alternating sums average to 0."""
    num = (1,)
    for _ in exponents[1:]:
        num = _pmul(num, (1, -1))
    assert average_alternating(RationalSeries(num, cyclic_den(1, exponents))) == 0


def test_cyclic_factors_cache_stays_at_its_bound():
    """1,000 distinct denominators through ``expand`` leave the factoring
    cache at its fixed size; the factors come back as tuples."""
    bound = _cyclic_factors.cache_info().maxsize
    assert bound is not None and bound < 1000
    for k in range(1000):
        r = RationalSeries((1,), _pmul((1, k + 1), one_minus_t_power(2)))
        assert expand(r, 3).coefficients == tuple(fraction_expand(r, 3))
    assert _cyclic_factors.cache_info().currsize == bound
    assert _cyclic_factors(total_series(2).denominator) == ((4, 2, 2), (1,))


@pytest.mark.parametrize("n", [100, 2000])
def test_average_alternating_large_n(n):
    assert average_alternating(lg_series(n)) == Fraction(n + 1, 2 * n)


def test_truncated_series_window_arithmetic():
    a = TruncatedSeries((1, 2, 3))
    assert a.coefficient(2) == 3
    for k in (-1, 3):
        with pytest.raises(InputError):
            a.coefficient(k)


def test_series_constructor_rejects_bad_n():
    for closed_form in (lg_series, le_series, total_series):
        closed_form(1)  # warm: True and 1.0 hash and compare like 1
        for n in (0, -1, True, False, 1.0, "1", None):
            with pytest.raises(InputError, match="n must be a positive integer"):
                closed_form(n)


@pytest.mark.parametrize("closed_form", [lg_series, le_series, total_series])
def test_closed_forms_are_built_once_per_n_yet_returned_as_new_series(closed_form):
    first = closed_form(7)
    before = _checked_form.cache_info()
    again = closed_form(7)
    after = _checked_form.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    # series compare by identity, so a cache hit must not hand out the same one
    assert again is not first and again != first and eq_exact(again, first)
    assert again.numerator is first.numerator and again.denominator is first.denominator
    assert repr(again) == repr(first)
