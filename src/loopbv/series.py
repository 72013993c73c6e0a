"""Exact rational-function arithmetic for Poincaré series in one variable t.

A :class:`RationalSeries` is a pair of integer polynomials num/den with
den(0) != 0, so it has a unique power-series expansion.  No gcd reduction is
performed; equality is decided by cross multiplication.  The closed forms for
the equivariant Betti series of the two loop-space components and of the full
loop space are built here, together with the Cesàro limit of alternating
partial sums (the average Betti number), read off num/den by a pole argument:
the coefficients of g(t) = r(-t) are (-1)^k a_k, and for den = c prod(1 - t^e)
every pole of g is a root of unity of order dividing P = lcm(e'), e' = e for
even e and 2e for odd e, as 1 + t^e = (1 - t^(2e)) / (1 - t^e).  A pole w of
order m >= 2 puts a term N^(m-1) / w^N into the partial sum S_N, so S_N / N
converges iff every pole is simple, that is iff g (1 - t^P) is a polynomial
h / c; each period then adds h(1) / c to S_N.

Every division by a factor 1 - t^e is a running sum: it is the recurrence
a_k = b_k + a_(k-e), integer additions only.  It runs along the residue
classes mod e when e^2 <= N, and block by block, each block of e terms plus
the block before it, when e^2 > N, N the number of terms; either way it takes
at most sqrt(N) C-level slices, so a factor 1 - t^(2n) at large n costs a few
passes, not 2n.  Products are taken over nonzero terms only, so the closed
forms, whose factors 1 - t^e have two terms each, are built without a pass
over their zeros.  Series division by power series with nonzero constant
terms commutes and its first N + 1 coefficients depend only on the first
N + 1 of the dividend, so dividing factor by factor gives the same truncated
expansion as one long division; expansion long-divides only what the
factoring leaves, the constant 1 for every closed form here.  The same sums
decide exact division: for F = prod(1 - t^e) of degree E, p is a multiple of
F iff S = p / F is zero in degrees deg p - E + 1 .. deg p.  Then Q = S cut at
degree deg p - E gives p = F Q modulo t^(deg p + 1), and both sides have
degree at most deg p, so p = F Q; conversely, p = F Q makes S = Q.

Each closed form is built and checked once per n; a repeated call returns a
new series over the same tuples, paying neither the product nor the
coefficient check again, so a certificate in ``spectral`` that is already
proved pays only the lookup of the closed form.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, compress
from math import lcm
from operator import add

from .ring import InputError, Record, check_count, check_n


class NonQuasilinearError(InputError, ArithmeticError):
    """No Cesàro limit, or a denominator that is not c (1 - t^e1) ... (1 - t^ek)."""


Poly = tuple[int, ...]


def _trim(p: tuple[int, ...]) -> Poly:
    end = len(p)
    while end > 1 and p[end - 1] == 0:
        end -= 1
    return tuple(p[:end]) or (0,)


Terms = tuple[tuple[int, int], ...]


def _terms(p: Poly) -> Terms:
    """The nonzero (exponent, coefficient) terms of p, found at C level."""
    return tuple(compress(enumerate(p), p))


def _product(*factors: Terms) -> Poly:
    """The product of factors given by their nonzero (exponent, coefficient)
    terms, written out densely once: the work is per pair of nonzero terms,
    and a factor 1 - t^e has two however large e is."""
    terms = {0: 1}
    for factor in factors:
        product: dict[int, int] = {}
        for i, a in terms.items():
            for j, b in factor:
                product[i + j] = product.get(i + j, 0) + a * b
        terms = product
    dense = [0] * (max(terms, default=0) + 1)
    for i, a in terms.items():
        dense[i] = a
    return _trim(tuple(dense))


def _pmul(p: Poly, q: Poly) -> Poly:
    """Product over the nonzero terms of both factors."""
    return _product(_terms(p), _terms(q))


def _padd(p: Poly, q: Poly) -> Poly:
    out = [0] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for j, b in enumerate(q):
        out[j] += b
    return _trim(tuple(out))


def _one_minus(e: int) -> Terms:
    """The terms of 1 - t^e."""
    return ((0, 1), (e, -1))


def _divide_out(coeffs: list, exponents) -> None:
    """Divide the truncated series ``coeffs`` in place by 1 - t^e for each e
    of ``exponents``: by :func:`_residue_sums` when e^2 <= len(coeffs), else
    by :func:`_block_sums`, so that either loop has at most sqrt(len) steps."""
    size = len(coeffs)
    for e in exponents:
        (_residue_sums if e * e <= size else _block_sums)(coeffs, e)


def _residue_sums(coeffs: list, e: int) -> None:
    """a_k = b_k + a_(k-e) in place, one C-level running sum per residue
    class mod e."""
    for r in range(min(e, len(coeffs))):
        coeffs[r::e] = accumulate(coeffs[r::e])


def _block_sums(coeffs: list, e: int) -> None:
    """a_k = b_k + a_(k-e) in place, one block of e terms at a time: each
    block adds the finished block before it, at C level."""
    for start in range(e, len(coeffs), e):
        coeffs[start : start + e] = map(add, coeffs[start : start + e], coeffs[start - e : start])


def _exact_quotient(p: Poly, exponents) -> Poly | None:
    """p / prod(1 - t^e) over ``exponents`` when the division is exact, else
    None: exact iff the series quotient is zero in the top E = sum(e)
    degrees through deg p (see the module docstring); when deg p < E that is
    every degree, so only p = 0 divides."""
    coeffs = list(_trim(p))
    cut = max(len(coeffs) - sum(exponents), 0)
    _divide_out(coeffs, exponents)
    return None if any(coeffs[cut:]) else _trim(tuple(coeffs[:cut]))


class RationalSeries(Record):
    """num/den with integer coefficients and den(0) != 0; kept unreduced.

    An empty numerator is the zero polynomial; an empty denominator and any
    coefficient whose type is not ``int`` (``bool`` included) are refused.
    """

    numerator: Poly
    denominator: Poly = (1,)

    # kept unreduced, equal series can differ field by field: compare by
    # identity, and by value with eq_exact
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __post_init__(self) -> None:
        num, den = tuple(self.numerator), tuple(self.denominator)
        if not set(map(type, num + den)) <= {int}:
            raise InputError(f"series coefficients must be integers, got {num} / {den}")
        if not den:
            raise InputError("denominator must not be empty")
        object.__setattr__(self, "numerator", _trim(num))
        object.__setattr__(self, "denominator", _trim(den))
        if self.denominator[0] == 0:
            raise InputError("denominator must have nonzero constant term")

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        num = _padd(
            _pmul(self.numerator, other.denominator),
            _pmul(other.numerator, self.denominator),
        )
        return RationalSeries(num, _pmul(self.denominator, other.denominator))

    def __sub__(self, other: "RationalSeries") -> "RationalSeries":
        return self + RationalSeries(_pmul(other.numerator, (-1,)), other.denominator)

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        return RationalSeries(
            _pmul(self.numerator, other.numerator),
            _pmul(self.denominator, other.denominator),
        )


class TruncatedSeries(Record):
    """Coefficients of t^0 .. t^(len - 1) of a power series."""

    coefficients: tuple

    def coefficient(self, k: int):
        """Coefficient of t^k; k must lie inside the represented window."""
        if not 0 <= k < len(self.coefficients):
            raise InputError(f"exponent {k} outside window [0, {len(self.coefficients) - 1}]")
        return self.coefficients[k]


def eq_exact(r1: RationalSeries, r2: RationalSeries) -> bool:
    """Exact identity num1 den2 = num2 den1; no truncation involved."""
    return _pmul(r1.numerator, r2.denominator) == _pmul(r2.numerator, r1.denominator)


def expand(r: RationalSeries, n_terms: int) -> TruncatedSeries:
    """Power-series expansion through degree ``n_terms`` (inclusive).

    The numerator is first divided by the factors 1 - t^e that
    :func:`_cyclic_factors` finds in the denominator, by the running sums of
    :func:`_divide_out`; what is left of the denominator is then
    long-divided.  Both steps are exact series divisions, so the result
    does not depend on how much the greedy factoring finds (see the module
    docstring).  The accumulator of the long division stays an ``int`` while
    the coefficients are integral and turns into a ``Fraction`` only when a
    division by den(0) is inexact; integral coefficients are returned as
    ``int`` either way.
    """
    check_count(n_terms, "expansion degree")
    size = n_terms + 1
    coeffs: list = list(r.numerator[:size])
    coeffs += [0] * (size - len(coeffs))
    exponents, rest = _cyclic_factors(r.denominator)
    _divide_out(coeffs, exponents)
    if rest == (1,):
        return TruncatedSeries(tuple(coeffs))
    den0 = rest[0]
    rest_terms = [(j, d) for j, d in enumerate(rest) if j and d]
    for k in range(size):
        acc = coeffs[k]
        for j, d in rest_terms:
            if j > k:
                break
            acc -= d * coeffs[k - j]
        if isinstance(acc, int) and acc % den0 == 0:
            coeffs[k] = acc // den0
        else:
            from fractions import Fraction  # only here: it loads decimal and numbers

            value = Fraction(acc) / den0
            coeffs[k] = int(value) if value.denominator == 1 else value
    return TruncatedSeries(tuple(coeffs))


def betti(r: RationalSeries, k: int) -> int:
    """k-th expansion coefficient."""
    check_count(k, "Betti index")
    return expand(r, k).coefficient(k)


def lg_series(n: int) -> RationalSeries:
    """Equivariant series of the non-contractible component:
    (1 - t^(2n+2)) / ((1 - t^(2n)) (1 - t^2))."""
    return _closed_form(n, "lg")


def le_series(n: int) -> RationalSeries:
    """Second-page (= limit) series of the contractible component:
    (1 - t^(2n+2)) (1 + t) / ((1 - t^(2n)) (1 - t^2)^2)."""
    return _closed_form(n, "le")


def total_series(n: int) -> RationalSeries:
    """Equivariant series of the whole free loop space: the non-contractible
    closed form times 1 + (1 + t)/(1 - t^2) = (2 + t - t^2)/(1 - t^2), that
    is (1 - t^(2n+2)) (2 + t - t^2) / ((1 - t^(2n)) (1 - t^2)^2)."""
    return _closed_form(n, "total")


# form -> the factors beside 1 - t^(2n+2) in its numerator and beside
# 1 - t^(2n) in its denominator
_FORMS = {
    "lg": ((), (_one_minus(2),)),
    "le": ((((0, 1), (1, 1)),), (_one_minus(2), _one_minus(2))),
    "total": ((((0, 2), (1, 1), (2, -1)),), (_one_minus(2), _one_minus(2))),
}


def _closed_form(n: int, form: str) -> RationalSeries:
    """A new series over the cached, already checked fields of one closed
    form: series compare by identity, so every call returns its own object,
    and neither the product nor the coefficient check is paid again."""
    check_n(n)  # before the lookup: True hashes and compares like 1
    fresh = object.__new__(RationalSeries)
    fresh.__dict__.update(_checked_form(n, form).__dict__)
    return fresh


# bounded: the key is caller input; 96 holds the three forms of 32 values of n
@lru_cache(maxsize=96)
def _checked_form(n: int, form: str) -> RationalSeries:
    numerator, denominator = _FORMS[form]
    return RationalSeries(
        _product(_one_minus(2 * n + 2), *numerator), _product(_one_minus(2 * n), *denominator)
    )


# bounded: the key is caller input, any RationalSeries's denominator
@lru_cache(maxsize=256)
def _cyclic_factors(den: Poly) -> tuple[tuple[int, ...], Poly]:
    """Greedily divide out factors 1 - t^e, largest e first; returns the
    exponents and the rest, so that den = rest * prod(1 - t^e).

    Since t^e = 1 modulo 1 - t^e, that factor divides ``rest`` iff the
    coefficients of each residue class mod e sum to zero, a test that most
    e fail at the first class.
    """
    exponents = []
    rest = den
    e = len(rest) - 1
    while e >= 1:
        if any(sum(rest[s::e]) for s in range(e)):
            e -= 1
        else:
            exponents.append(e)
            rest = _exact_quotient(rest, [e])
            e = min(e, len(rest) - 1)
    return tuple(exponents), rest


def average_alternating(r: RationalSeries) -> Fraction:
    """Cesàro limit of S_N = sum_{k <= N} (-1)^k a_k, exact and without
    expansion: den(-t) prod_{odd e}(1 - t^e) = c prod(1 - t^e'), e' = e for
    even e and 2e for odd e, since 1 + t^e = (1 - t^(2e)) / (1 - t^e).  The
    poles of r(-t), all roots of unity of order dividing P = lcm(e'), must be
    simple, so the running sums of :func:`_exact_quotient` must divide
    num(-t) prod_{odd e}(1 - t^e) (1 - t^P) by prod(1 - t^e') exactly; the
    quotient h then gives the limit h(1) / (P c) (see the module docstring).
    """
    from fractions import Fraction

    exponents, rest = _cyclic_factors(r.denominator)
    if len(rest) > 1:
        raise NonQuasilinearError(f"non-quasilinear series: denominator factor "
                                  f"{list(rest)} is not a product of factors 1 - t^e")
    c = rest[0]
    orders = [2 * e if e % 2 else e for e in exponents]
    period = lcm(*orders)
    at_minus_t = tuple(-a if k % 2 else a for k, a in enumerate(r.numerator))
    odd = [_one_minus(e) for e in exponents if e % 2]
    lifted = _product(_terms(at_minus_t), _one_minus(period), *odd)
    h = _exact_quotient(lifted, orders)
    if h is None:
        raise NonQuasilinearError("non-quasilinear series: r(-t) has a multiple pole on "
                                  "the unit circle, so no Cesàro limit exists")
    return Fraction(sum(h), period * c)
