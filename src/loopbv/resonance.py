"""Resonance identity checks for non-contractible closed geodesics.

Each prime geodesic enters through purely local data: initial Morse index,
mean index, analytical period and the local homological type numbers of its
odd iterates within one period.  The identity under test says that the sum
over geodesics of (mean Euler number) / (mean index) equals the average
equivariant Betti number (n+1)/(2n) of the non-contractible component.

The analytical period is taken as input: computing it would require the
nullities of all iterates, which is outside this engine's scope.  Optional
nullity data is checked and stored, for the record only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import floor
from typing import Callable, Mapping, Sequence

from .ring import InputError, Record, check_count, check_int, check_n

# most iterates morse_truncation visits in one call, and most count slots
# q + 1 it allocates; the iterates grow with q / mean_index, so a tiny mean
# index would otherwise run for minutes, and a huge q exhaust memory
MORSE_ITERATE_BUDGET = 10**6


class GeodesicRecord(Record):
    """Index and type-number data of one prime closed geodesic.

    ``type_numbers`` maps (m, l) to the l-th type number of the (2m-1)-st
    iterate, for m in 1..period/2; entries repeat with period ``period`` in
    the iterate, which is what makes the truncated Morse sums computable.
    Left out or ``None``, it becomes a fresh empty dict: no type numbers.
    ``mean_index`` is anything but a ``bool`` that ``Fraction`` reads as a
    finite rational, and is stored as a ``Fraction``; ``nullities``, if
    given, is a list or tuple.
    """

    label: str
    initial_index: int
    mean_index: Fraction
    period: int
    type_numbers: Mapping[tuple[int, int], int] | None = None
    nullities: tuple[int, ...] | None = None
    nondegenerate: bool | None = None

    def __post_init__(self) -> None:
        if self.type_numbers is None:
            object.__setattr__(self, "type_numbers", {})
        if not isinstance(self.label, str):
            raise InputError(f"geodesic label must be a string, got {self.label!r}")
        check_count(self.initial_index, f"{self.label}: initial index")
        check_int(self.period, f"{self.label}: period")
        mean = self.mean_index
        try:  # Fraction(None) raises TypeError, as a bool should here
            mean = Fraction(None if isinstance(mean, bool) else mean)
        except (TypeError, ValueError, ArithmeticError):
            raise InputError(
                f"{self.label}: mean index must be a finite rational, got {mean!r}") from None
        object.__setattr__(self, "mean_index", mean)
        if mean <= 0:
            raise InputError(f"{self.label}: mean index must be positive, got {mean}")
        if self.period <= 0 or self.period % 2:
            raise InputError(f"{self.label}: period must be a positive even integer")
        if not isinstance(self.type_numbers, Mapping):
            raise InputError(f"{self.label}: type numbers must map (m, l) pairs to k, "
                             f"got {self.type_numbers!r}")
        for slot, k in self.type_numbers.items():
            if not (isinstance(slot, tuple) and len(slot) == 2):
                raise InputError(f"{self.label}: type-number slot must be an (m, l) pair, "
                                 f"got {slot!r}")
            m, l = slot
            check_int(m, f"{self.label}: iterate slot m")
            check_count(l, f"{self.label}: degree l")
            check_count(k, f"{self.label}: type number k")
            if not 1 <= m <= self.period // 2:
                raise InputError(f"{self.label}: iterate slot m={m} outside 1..{self.period // 2}")
        if not isinstance(self.nullities, (list, tuple, type(None))):
            raise InputError(f"{self.label}: nullities must be a list or tuple, "
                             f"got {self.nullities!r}")
        for nullity in self.nullities or ():
            check_count(nullity, f"{self.label}: nullity")
        flag = self.nondegenerate
        if not isinstance(flag, (bool, type(None))):
            raise InputError(f"{self.label}: nondegenerate must be a bool, got {flag!r}")


def nondegenerate_record(label: str, initial_index: int, mean_index) -> GeodesicRecord:
    """Record of a geodesic all of whose odd iterates are nondegenerate."""
    return GeodesicRecord(
        label,
        initial_index,
        mean_index,
        period=2,
        type_numbers={(1, 0): 1},
        nondegenerate=True,
    )


def _check_l_range(rec: GeodesicRecord, n: int) -> None:
    for (_, l) in rec.type_numbers:
        if l > 4 * n:
            raise InputError(
                f"{rec.label}: type-number degree l={l} outside [0, {4 * n}]"
            )


def mean_euler(rec: GeodesicRecord, n: int) -> Fraction:
    """Period-averaged alternating sum of the type numbers of odd iterates."""
    check_n(n)
    _check_l_range(rec, n)
    sign_base = rec.initial_index % 2
    total = 0
    for (m, l), k in rec.type_numbers.items():
        total += -k if (l + sign_base) % 2 else k
    return Fraction(total, rec.period)


class ResonanceReport(Record):
    per_geodesic: dict[str, Fraction]  # mean Euler number of each geodesic
    total: Fraction                    # sum of (mean Euler)/(mean index)
    target: Fraction
    passed: bool
    vacuous: bool = False


def resonance_check(records: Sequence[GeodesicRecord], n: int) -> ResonanceReport:
    """Exact comparison of the weighted sum against (n+1)/(2n).

    The target is the average alternating Betti number of the
    non-contractible component: ``series.lg_series(n)`` is the closed form
    of its equivariant Poincaré series, the Cesàro limit of that series'
    alternating partial sums (``series.average_alternating``) is (n+1)/(2n),
    and that limit is the target.  It is written out here, so this module
    loads no ``series``; a test checks the two agree.
    """
    check_n(n)
    target = Fraction(n + 1, 2 * n)
    if not records:
        return ResonanceReport({}, Fraction(0), target, passed=False, vacuous=True)
    labels = [r.label for r in records]
    if len(set(labels)) != len(labels):
        raise InputError(f"duplicate geodesic labels in {labels}")
    per = {r.label: mean_euler(r, n) for r in records}
    total = sum((per[r.label] / r.mean_index for r in records), Fraction(0))
    return ResonanceReport(per, total, target, passed=total == target)


class NondegenerateReport(Record):
    total: Fraction
    target: Fraction
    passed: bool
    consistent_with_full: bool


def nondegenerate_check(records: Sequence[GeodesicRecord], n: int) -> NondegenerateReport:
    """Specialised identity for all-nondegenerate data: signed reciprocal mean
    indices must sum to (n+1)/n, exactly twice the general sum.

    A record is accepted iff its period is 2 and its only nonzero type number
    is 1 at (m, l) = (1, 0).  Its mean Euler number is then +-1/2, the sign
    (-1)^(initial index), so its signed reciprocal mean index is twice its
    term of :func:`resonance_check`'s sum, and (n+1)/n is twice that check's
    target.  Sum, target and verdict are therefore read off that check, and
    ``consistent_with_full``, the sum being twice the full sum, cannot fail:
    it is true for every nonempty list, and false for an empty one, which
    has no full sum (the full check calls it vacuous).
    """
    check_n(n)
    for r in records:
        expected = {(1, 0): 1}
        positive = {key: k for key, k in r.type_numbers.items() if k}
        if r.period != 2 or positive != expected:
            raise InputError(
                f"{r.label}: not nondegenerate (period {r.period}, "
                f"type numbers {dict(r.type_numbers)})"
            )
    full = resonance_check(records, n)
    return NondegenerateReport(2 * full.total, 2 * full.target, passed=full.passed,
                               consistent_with_full=bool(records))


def _rounded_linear_index(p: int, r: int, parity: int, iterate: int) -> int:
    """Nearest integer to t = iterate * p/r of the given parity, ties broken
    downward: the candidates are the largest ``low`` <= t of that parity and
    low + 2, and ``low`` wins iff t - low <= low + 2 - t, that is
    2*p*iterate <= (2*low + 2)*r.  The winner lies within 1 <= 2n of t, so with
    p/r the mean index and the initial index's parity, a rounded-linear index
    meets the parity rule and the deviation bound by construction."""
    low = p * iterate // r
    if low % 2 != parity:
        low -= 1
    return low if 2 * p * iterate <= (2 * low + 2) * r else low + 2


def _index_model(model, n: int) -> Callable[[GeodesicRecord], Callable[[int], int]]:
    """Check an index model whole, before any record is looked at, and return
    the map from a record to its ``iterate -> index`` function.  A model is
    "rounded-linear", a list or tuple of the indices of the odd iterates
    1, 3, 5, ..., or a mapping from labels to either.  An explicit index is a
    count, like the initial index, so it must be a nonnegative integer; it is
    checked against the parity rule and the deviation bound 2n when its
    iterate is visited."""
    mapped = isinstance(model, Mapping)
    entries = model if mapped else {None: model}
    for label, entry in entries.items():
        where = f"{label}: " if mapped else ""
        if isinstance(entry, (list, tuple)):
            for j, value in enumerate(entry):
                check_count(value, f"{where}explicit index at iterate {2 * j + 1}")
        elif not isinstance(entry, str):  # a mapping inside a mapping included
            raise InputError(f"{where}index model must be 'rounded-linear', a list or tuple of "
                             f"indices{'' if mapped else ' or a mapping of labels to those'}, "
                             f"got {entry!r}")
        elif entry != "rounded-linear":
            raise InputError(f"unknown index model {entry!r}")

    def resolve(rec: GeodesicRecord) -> Callable[[int], int]:
        label = rec.label if mapped else None
        if label not in entries:
            raise InputError(f"{rec.label}: the index model mapping has no entry for this label")
        indices = entries[label]
        p, r = rec.mean_index.as_integer_ratio()
        parity = rec.initial_index % 2
        if isinstance(indices, str):
            return partial(_rounded_linear_index, p, r, parity)

        def explicit(iterate: int) -> int:
            if (iterate - 1) // 2 >= len(indices):
                raise InputError(
                    f"{rec.label}: explicit index sequence too short for iterate {iterate}")
            value = indices[(iterate - 1) // 2]
            if value % 2 != parity:
                raise InputError(
                    f"{rec.label}: index {value} at iterate {iterate} breaks the parity rule")
            if abs(value * r - p * iterate) > 2 * n * r:
                raise InputError(f"{rec.label}: index {value} at iterate {iterate} deviates "
                                 f"from {rec.mean_index * iterate} by more than {2 * n}")
            return value

        return explicit

    return resolve


def index_sequence(rec: GeodesicRecord, n: int, model, count: int) -> list[int]:
    """Morse indices of the first ``count`` odd iterates 1, 3, 5, ... under
    ``model``, as :func:`_index_model` reads it."""
    check_n(n)
    check_count(count, "count")
    index = _index_model(model, n)(rec)
    return [index(2 * j + 1) for j in range(count)]


class MorseTruncation(Record):
    counts: tuple[int, ...]      # w_h for h = 0..q
    alternating_sum: int         # sum of (-1)^h w_h
    average: Fraction | None     # alternating_sum / q; None when q = 0


def morse_truncation(
    records: Sequence[GeodesicRecord],
    n: int,
    q: int,
    model="rounded-linear",
) -> MorseTruncation:
    """Truncated Morse counts w_h through degree q and their alternating mean.

    Each geodesic contributes k_l at degree l + (index of the iterate), with
    type numbers repeating along the period.  Iterate 2m - 1 + s * period is
    visited while mean_index * iterate - 2n <= q, since the deviation bound
    puts every later index above q; the visits are counted up front and more
    than ``MORSE_ITERATE_BUDGET`` raise ``InputError``, as do more than
    ``MORSE_ITERATE_BUDGET`` count slots q + 1, before any is allocated.
    ``model`` is read as in :func:`index_sequence`; a bad one is refused
    before the count slots are, and a label it lacks before any record's
    l-range is checked.
    """
    check_n(n)
    check_count(q, "truncation degree")
    resolve = _index_model(model, n)
    if q + 1 > MORSE_ITERATE_BUDGET:
        raise InputError(f"truncation degree {q} needs {q + 1} count slots, more than the "
                         f"budget of {MORSE_ITERATE_BUDGET}")
    slots = []
    for rec, index in [(rec, resolve(rec)) for rec in records]:
        _check_l_range(rec, n)
        for (m, l), k in rec.type_numbers.items():
            if k:
                last = floor(((q + 2 * n) / rec.mean_index - (2 * m - 1)) / rec.period)
                slots.append((index, 2 * m - 1, rec.period, l, k, max(last + 1, 0)))
    total = sum(slot[-1] for slot in slots)
    if total > MORSE_ITERATE_BUDGET:
        raise InputError(f"truncation degree {q} needs {total} iterates, more than the "
                         f"budget of {MORSE_ITERATE_BUDGET}")
    counts = [0] * (q + 1)
    for index, first, period, l, k, count in slots:
        for iterate in range(first, first + count * period, period):
            h = l + index(iterate)
            if h <= q:
                counts[h] += k
    alternating = sum(-c if h % 2 else c for h, c in enumerate(counts))
    average = Fraction(alternating, q) if q else None
    return MorseTruncation(tuple(counts), alternating, average)


RECORD_KEYS = frozenset(GeodesicRecord._fields)


def _check_keys(label, what: str, obj: dict, allowed: set[str]) -> None:
    if unknown := sorted(map(str, set(obj) - allowed)):
        raise InputError(f"{label}: unknown {what} keys {unknown}; expected {sorted(allowed)}")


def record_from_dict(obj: dict) -> GeodesicRecord:
    """Build a record from the JSON object layout: ``label``, ``initial_index``,
    ``mean_index``, ``period`` and optionally ``type_numbers`` ({m, l, k}
    objects), ``nullities`` (a list) and ``nondegenerate``; no other keys."""
    if not isinstance(obj, dict):
        raise InputError(
            f"malformed geodesic record: expected an object, got {type(obj).__name__}"
        )
    label = obj.get("label")
    _check_keys(label, "record", obj, RECORD_KEYS)
    try:
        type_numbers = {}
        for entry in obj.get("type_numbers", []):
            if isinstance(entry, dict):
                _check_keys(label, "type-number", entry, {"m", "l", "k"})
            slot = (entry["m"], entry["l"])
            if slot in type_numbers:
                raise InputError(f"{label}: duplicate type-number slot (m, l) = {slot}")
            type_numbers[slot] = entry["k"]
        nullities = None
        if "nullities" in obj:
            if not isinstance(obj["nullities"], list):
                raise InputError(f"{label}: nullities must be a list, got {obj['nullities']!r}")
            nullities = tuple(obj["nullities"])
        return GeodesicRecord(
            label=obj["label"],
            initial_index=obj["initial_index"],
            mean_index=Fraction(str(obj["mean_index"])),
            period=obj["period"],
            type_numbers=type_numbers,
            nullities=nullities,
            nondegenerate=obj.get("nondegenerate"),
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed geodesic record: {exc}") from exc


def load_problem(obj: dict) -> tuple[int, list[GeodesicRecord]]:
    """Parse {"n": ..., "geodesics": [...]} into validated records."""
    try:
        n = obj["n"]
        geodesics = obj["geodesics"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed resonance input: {exc}") from exc
    check_n(n)
    if not isinstance(geodesics, list):
        raise InputError(
            f"malformed resonance input: geodesics must be a list, got {type(geodesics).__name__}"
        )
    return n, [record_from_dict(g) for g in geodesics]
