"""Exact rational-function arithmetic for Poincaré series in one variable t.

A :class:`RationalSeries` is a pair of integer polynomials num/den with
den(0) != 0, so it has a unique power-series expansion.  No gcd reduction is
performed; equality is decided by cross multiplication.  The closed forms for
the equivariant Betti series of the two loop-space components and of the full
loop space are built here, together with the Cesàro limit of alternating
partial sums (the average Betti number).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .ring import InputError, check_n


class NonQuasilinearError(ArithmeticError):
    """Alternating partial sums did not settle into a linear-plus-periodic tail."""


Poly = tuple[int, ...]


def _trim(p: tuple[int, ...]) -> Poly:
    coeffs = list(p)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _pmul(p: Poly, q: Poly) -> Poly:
    """Product over the nonzero terms of both factors: denominators built
    from factors 1 - t^e are sparse however long they are."""
    out = [0] * (len(p) + len(q) - 1)
    q_terms = [(j, b) for j, b in enumerate(q) if b]
    for i, a in enumerate(p):
        if a:
            for j, b in q_terms:
                out[i + j] += a * b
    return _trim(tuple(out))


def _padd(p: Poly, q: Poly, sign: int = 1) -> Poly:
    out = [0] * max(len(p), len(q))
    for i, a in enumerate(p):
        out[i] += a
    for j, b in enumerate(q):
        out[j] += sign * b
    return _trim(tuple(out))


def _pdivides(p: Poly, d: Poly) -> Poly | None:
    """Quotient p / d when the division is exact, else None."""
    p = _trim(p)
    d = _trim(d)
    if d == (0,):
        return None
    if len(p) < len(d):
        return (0,) if p == (0,) else None
    rem = list(p)
    quot = [0] * (len(p) - len(d) + 1)
    lead = d[-1]
    for k in range(len(quot) - 1, -1, -1):
        top = rem[k + len(d) - 1]
        if top % lead:
            return None
        factor = top // lead
        quot[k] = factor
        if factor:
            for j, b in enumerate(d):
                rem[k + j] -= factor * b
    if any(rem):
        return None
    return _trim(tuple(quot))


def one_minus_t_power(e: int) -> Poly:
    """The polynomial 1 - t^e."""
    if e < 1:
        raise InputError(f"exponent must be positive, got {e}")
    return _trim((1,) + (0,) * (e - 1) + (-1,))


@dataclass(frozen=True, eq=False)
class RationalSeries:
    """num/den with integer coefficients and den(0) != 0; kept unreduced."""

    numerator: Poly
    denominator: Poly = (1,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "numerator", _trim(tuple(self.numerator)))
        object.__setattr__(self, "denominator", _trim(tuple(self.denominator)))
        if self.denominator[0] == 0:
            raise InputError("denominator must have nonzero constant term")

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        num = _padd(
            _pmul(self.numerator, other.denominator),
            _pmul(other.numerator, self.denominator),
        )
        return RationalSeries(num, _pmul(self.denominator, other.denominator))

    def __sub__(self, other: "RationalSeries") -> "RationalSeries":
        num = _padd(
            _pmul(self.numerator, other.denominator),
            _pmul(other.numerator, self.denominator),
            sign=-1,
        )
        return RationalSeries(num, _pmul(self.denominator, other.denominator))

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        return RationalSeries(
            _pmul(self.numerator, other.numerator),
            _pmul(self.denominator, other.denominator),
        )


@dataclass(frozen=True)
class TruncatedSeries:
    """Finite coefficient window starting at ``offset`` (may be negative)."""

    offset: int
    coefficients: tuple

    def coefficient(self, k: int):
        """Coefficient of t^k; k must lie inside the represented window."""
        i = k - self.offset
        if not 0 <= i < len(self.coefficients):
            raise InputError(f"exponent {k} outside window "
                             f"[{self.offset}, {self.offset + len(self.coefficients) - 1}]")
        return self.coefficients[i]

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.offset != other.offset or len(self.coefficients) != len(other.coefficients):
            raise InputError("can only add truncated series over identical windows")
        summed = tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        return TruncatedSeries(self.offset, summed)


def eq_exact(r1: RationalSeries, r2: RationalSeries) -> bool:
    """Exact identity num1 den2 = num2 den1; no truncation involved."""
    return _pmul(r1.numerator, r2.denominator) == _pmul(r2.numerator, r1.denominator)


def expand(r: RationalSeries, n_terms: int) -> TruncatedSeries:
    """Power-series long division through degree ``n_terms`` (inclusive).

    The accumulator stays an ``int`` while the coefficients are integral and
    turns into a ``Fraction`` only when a division by den(0) is inexact;
    integral coefficients are returned as ``int`` either way.
    """
    if n_terms < 0:
        raise InputError(f"expansion degree must be nonnegative, got {n_terms}")
    den0 = r.denominator[0]
    den_terms = [(j, d) for j, d in enumerate(r.denominator) if j and d]
    coeffs: list = []
    for k in range(n_terms + 1):
        acc = r.numerator[k] if k < len(r.numerator) else 0
        for j, d in den_terms:
            if j > k:
                break
            acc -= d * coeffs[k - j]
        if isinstance(acc, int) and acc % den0 == 0:
            coeffs.append(acc // den0)
        else:
            value = Fraction(acc) / den0
            coeffs.append(int(value) if value.denominator == 1 else value)
    return TruncatedSeries(0, tuple(coeffs))


def betti(r: RationalSeries, k: int) -> int:
    """k-th expansion coefficient."""
    if k < 0:
        raise InputError(f"Betti index must be nonnegative, got {k}")
    return expand(r, k).coefficient(k)


def lg_series(n: int) -> RationalSeries:
    """Equivariant series of the non-contractible component:
    (1 - t^(2n+2)) / ((1 - t^(2n)) (1 - t^2))."""
    check_n(n)
    den = _pmul(one_minus_t_power(2 * n), one_minus_t_power(2))
    return RationalSeries(one_minus_t_power(2 * n + 2), den)


def le_series(n: int) -> RationalSeries:
    """Second-page (= limit) series of the contractible component:
    (1 - t^(2n+2)) (1 + t) / ((1 - t^(2n)) (1 - t^2)^2)."""
    return lg_series(n) * RationalSeries((1, 1), one_minus_t_power(2))


def total_series(n: int) -> RationalSeries:
    """Equivariant series of the whole free loop space:
    the non-contractible closed form times (1 + (1 + t)/(1 - t^2))."""
    bump = RationalSeries((1,)) + RationalSeries((1, 1), one_minus_t_power(2))
    return lg_series(n) * bump


def _cyclic_exponents(den: Poly) -> list[int]:
    """Greedily divide out factors 1 - t^e; returns the exponents found."""
    exponents = []
    rest = den
    e = len(rest) - 1
    while e >= 1:
        quotient = _pdivides(rest, one_minus_t_power(e))
        if quotient is None:
            e -= 1
        else:
            exponents.append(e)
            rest = quotient
            e = min(e, len(rest) - 1)
    return exponents


def average_alternating(r: RationalSeries) -> Fraction:
    """Cesàro limit of the alternating partial sums of the expansion.

    For bounded coefficient sequences with denominators built from factors
    1 - t^(2j) the partial sums are eventually linear plus periodic, so the
    limit equals the exact slope over one full period.  Three windows are
    compared: two consecutive ones, and one shifted by a single step.  The
    shifted window catches unbounded coefficient sequences, whose partial
    sums pick up a parity-modulated linear term and have no Cesàro limit
    even though same-parity window slopes agree.
    """
    exponents = _cyclic_exponents(r.denominator)
    period = 2 * lcm(*exponents) if exponents else 2
    settle = (len(r.numerator) - 1) + (len(r.denominator) - 1)
    coeffs = expand(r, settle + 3 * period + 1).coefficients
    partial = []
    acc = 0
    for k, c in enumerate(coeffs):
        acc += c if k % 2 == 0 else -c
        partial.append(acc)
    base = settle + period
    slopes = [
        Fraction(partial[base + period] - partial[base], period),
        Fraction(partial[base + 2 * period] - partial[base + period], period),
        Fraction(partial[base + 1 + period] - partial[base + 1], period),
    ]
    if len(set(slopes)) != 1:
        shown = ", ".join(str(s) for s in slopes)
        raise NonQuasilinearError(f"non-quasilinear series: window slopes {shown} disagree")
    return slopes[0]
