"""Second and third pages of the circle-fibration spectral sequence.

For either loop-space component Y the relevant fibration is
Y -> Y x_{S1} ES1 -> BS1.  The second page is the free module
H_*(BS1) (x) H_*(Y) with columns indexed by the exponent p of the degree-2
polynomial class of BS1; the second differential sends a cell in column p to
column p-1 by applying the BV operator to the fiber factor.  Only the fiber
degree is shifted, so a cell (p, q) sits in topological degree
2p + q + (2n+1).

Because the differential does not depend on p, one F2 rank per fiber degree
drives the whole page: column 0 loses only incoming images, columns p >= 1
lose kernel complements and incoming images alike.  Every page is therefore
held as two vectors in q, column 0 and any column p >= 1.

Those vectors are periodic.  For q >= -(2n-1), multiplication by w^2 is a
bijection from the degree-q basis onto the degree-(q+4n) basis that keeps
the component (it fixes b and the parity of c) and the sort order (it fixes
a and b).  The built-in ``bv.delta`` reads only the parities of a*b, a*c and
b*c, and ``normalize`` commutes with w^2, so Delta(w^2 m) = w^2 Delta(m)
and the second-differential matrix at q+4n equals the one at q.  Fiber data
are therefore computed for the two head degrees q = -(2n+1), -2n (where some
monomial of degree q+4n would need c < 0 at q) and one period of 4n degrees,
and tiled beyond: dimensions always, since they do not depend on the
operator, and ranks whenever the operator is the built-in one, that is a
``delta_fn`` of ``None`` or ``bv.delta`` itself.  Any other operator, a
wrapper of ``bv.delta`` included, is ranked on every call in each fiber
degree whose rank the page reads: the D degrees below the top one.

The configuration is the unit of that work.  ``_period_table`` holds one
entry per configuration, filled by its first page or certificate over the
head and the period for both components, through ``ring.dimension`` and
``d2_rank`` as any caller would call them: 2 (4n+2) ranks in all, and one
call of the ``bv.delta`` bound at that moment per basis monomial.  The entry
holds, for both components, the fiber dimensions and the third-page columns
of that ``bv.delta``, the summed series of those pages, the E-stability bit
and one certificate proved from them (see below).  Column 0 of the third
page at index i subtracts the rank at i - 1 from the dimension at i, so both
third-page columns repeat with period 4n after a head of three indices, not
two; the entry holds that head and one period of each.  A later page is
then the entry's columns tiled by list repetition, and a later certificate
one running sum: no Python-level work per degree.  One rule governs the
table: whoever replaces or changes ``bv.delta`` calls
``_period_table.cache_clear()``.  An operator passed as ``delta_fn`` never
enters it: its pages read only the dimensions there.

``verify_collapse`` turns the same period into a certificate for every
degree.  Let c_k be the coefficient of t^k in the sum of the series of the
two third pages: column 0 at index k plus column p >= 1 at every index
j <= k - 2 of k's parity (see ``page_series``).  For ``bv.delta`` both
columns repeat with period 4n after a head of three indices, so each is
P / (1 - t^(4n)) with deg P <= 4n+2, and the sum of the two page series is
N / ((1 - t^(4n)) (1 - t^2)) with deg N <= 4n+4.  It equals the closed
form num/den in every degree iff N den - num (1 - t^(4n)) (1 - t^2) = 0, a
polynomial of degree at most K = max(4n+4 + deg den, deg num + 4n+2), so
agreement of the coefficients 0..K proves it.

Lemma: for k >= 4n+3, c_k - c_(k-4n) = sigma_(k mod 2), where sigma_s
sums the entries of parity s of column p >= 1 over one period of both
components.  Indeed column 0 agrees at k and k - 4n >= 3, and the indices
k-4n .. k-2 of k's parity, the ones that c_k adds beyond c_(k-4n), then
cover exactly one period past the head.  The table entry stores c_k for
k < 4n and the differences c_k - c_(k-4n) through k = 8n+2, and the
E-stability bit: whether the contractible third-page columns equal its
tiled fiber dimensions, the second-page columns, over the head and one
period, hence in every degree.  Through any cutoff the series is then the
stored differences, those past 8n+2 repeated per parity, divided by
1 - t^(4n): one running sum, and no page.  The outcome of the proof depends
only on the configuration, the table and the pair (num, den), so it is
decided once, from the E-stability bit and the series compared with one
expansion of the closed form through K, and kept in the table entry under
that pair.  The closed form is read on every call, from ``series``' cache
of its tuples, and looked up by them; a proved certificate then costs one
expansion through K per configuration and closed form, and one running sum
per report.  Any other operator, or a failed proof, gets the page
comparison through the cutoff D, on one expansion through D.  A page is
held as its two columns, and emitting one costs its nonzero cells plus
C-level scans over D, with no sort; with no cell off column 0, as on every
third page of the non-contractible component, it skips the running sums
of column p >= 1.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, compress, count
from operator import add, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import bv, gf2, series
from .ring import (
    AlgebraConfig,
    AlgebraElement,
    Component,
    InputError,
    Record,
    basis,
    check_count,
    dimension,
)

DeltaFn = Callable[[AlgebraElement, AlgebraConfig], AlgebraElement]


class SSConfig(Record):
    """Component selection plus the topological-degree cutoff for reports."""

    algebra: AlgebraConfig
    comp: Component
    max_top_degree: int

    def __post_init__(self) -> None:
        if not isinstance(self.comp, Component):
            raise InputError(f"unknown component {self.comp!r}; expected a Component")
        check_count(self.max_top_degree, "max_top_degree")


class Page(Record):
    """A page held as two columns in the fiber degree q.

    ``first`` is column 0 and ``rest`` the column shared by every p >= 1,
    both indexed by q + ``shift`` from the bottom fiber degree q = -shift,
    shift = 2n+1.  The cell (p, q) exists while 2p + q + shift stays within
    ``max_top_degree`` = D, so ``first`` runs through index D and ``rest`` is
    cut to index D - 2: the top two fiber degrees have no cell off column 0,
    and equal pages have the same nonzero cells.
    """

    _hidden = ("first", "rest")

    page_index: int
    shift: int
    max_top_degree: int
    first: tuple[int, ...]
    rest: tuple[int, ...]

    def __post_init__(self) -> None:
        top, size = self.max_top_degree, max(self.max_top_degree - 1, 0)
        object.__setattr__(self, "first", tuple(self.first))
        object.__setattr__(self, "rest", tuple(self.rest[:size]))
        if len(self.first) != top + 1 or len(self.rest) != size:
            raise InputError(
                f"page columns of lengths {len(self.first)} and {len(self.rest)} "
                f"do not fit the cutoff {top}"
            )

    def dim(self, p: int, q: int) -> int:
        """Dimension of the cell (p, q), zero outside the page."""
        i = q + self.shift
        if p < 0 or i < 0 or 2 * p + i > self.max_top_degree:
            return 0
        return self.rest[i] if p else self.first[i]

    def columns(self) -> Iterator[tuple[int, list[tuple[int, int]]]]:
        """Nonempty columns (p, [(q, dim), ...]) in p order, each holding its
        nonzero cells in q order, in O(cells + D).

        Column p >= 1 is the prefix of the nonzero entries of ``rest`` up to
        index D - 2p, which shrinks by two indices per column.
        """
        shift, top = self.shift, self.max_top_degree
        first = list(compress(zip(count(-shift), self.first), self.first))
        if first:
            yield 0, first
        if not any(self.rest):
            return
        nonzero = list(compress(zip(count(-shift), self.rest), self.rest))
        end = len(nonzero)
        for p in range(1, top // 2 + 1):
            while end and nonzero[end - 1][0] + shift > top - 2 * p:
                end -= 1
            if not end:
                return
            yield p, nonzero[:end]

    def cells(self) -> Iterator[tuple[int, int, int]]:
        """Nonzero cells (p, q, dim) in (p, q) order: :meth:`columns` flattened."""
        for p, column in self.columns():
            for q, d in column:
                yield p, q, d

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """Nonzero cells as a dict keyed by (p, q)."""
        return {(p, q): d for p, q, d in self.cells()}


# fiber degrees q = -(2n+1), -2n, before the w^2 period starts
HEAD = 2


def _period_degrees(algebra: AlgebraConfig) -> range:
    """The head and one period of 4n fiber degrees, from q = -(2n+1)."""
    return range(-algebra.dim, -algebra.dim + HEAD + 4 * algebra.n)


def d2_matrix(
    cfg: AlgebraConfig,
    comp: Component,
    q: int,
    delta_fn: DeltaFn | None = None,
) -> list[int]:
    """Matrix of the BV operator from fiber degree q to q+1 as bitmask rows.

    Row i holds the coordinates of the image of the i-th degree-q basis
    monomial in the degree-(q+1) basis.  A ``delta_fn`` of ``None`` is
    ``bv.delta`` as it is bound at this call.
    """
    source = basis(cfg, comp, q)  # first, so that a non-int q is refused
    index = {m: i for i, m in enumerate(basis(cfg, comp, q + 1))}
    delta_fn, rows = delta_fn or bv.delta, []
    for m in source:
        row = 0
        for t in delta_fn(AlgebraElement(frozenset((m,))), cfg).terms:
            if t not in index:
                raise InputError(
                    f"image term {t} of monomial {m} in degree {q} is not a "
                    f"basis monomial of degree {q + 1} in component {comp.value}"
                )
            row |= 1 << index[t]
        rows.append(row)
    return rows


def d2_rank(
    cfg: AlgebraConfig,
    comp: Component,
    q: int,
    delta_fn: DeltaFn | None = None,
) -> int:
    return gf2.rank(d2_matrix(cfg, comp, q, delta_fn))


class _Table(NamedTuple):
    """One configuration's entry of :func:`_period_table`."""

    # component -> fiber dimensions over _period_degrees
    dims: dict
    # component -> third-page columns (first, rest) of the built-in operator
    # over a head of HEAD + 1 indices and one period
    columns: dict
    # the sum c of both third-page series: c_k for k < 4n, then
    # c_k - c_(k-4n) through k = 8n+2
    differences: tuple
    # whether the contractible third page equals the second
    stable: bool
    # (numerator, denominator) of a closed form -> whether the pages of that
    # operator equal it in every degree; one pair at a time
    proofs: dict


# bounded: the key is caller input; 64 holds the 32 configurations of
# n <= 8 twice over
@lru_cache(maxsize=64)
def _period_table(algebra: AlgebraConfig) -> _Table:
    """The period table of one configuration, filled for both components
    (see the module docstring)."""
    period, qs, dims, columns = 4 * algebra.n, _period_degrees(algebra), {}, {}
    size = HEAD + 1 + period
    for comp in Component:
        dims[comp] = tuple(dimension(algebra, comp, q) for q in qs)
        ranks = tuple(d2_rank(algebra, comp, q) for q in qs)
        columns[comp] = _homology(_tile(dims[comp], period, size), _tile(ranks, period, size))
    wide = size + period  # the summed series c through 8n+2
    e, g = (
        _page_coefficients(*(_tile(column, period, wide) for column in pair))
        for pair in columns.values()
    )
    summed = list(map(add, e, g))
    differences = (*summed[:period], *map(sub, summed[period:], summed))
    stable = columns[Component.E] == (_tile(dims[Component.E], period, size),) * 2
    return _Table(dims, columns, differences, stable, {})


def _tile(known: tuple[int, ...], period: int, size: int) -> tuple[int, ...]:
    """``known``, a head and one period, with the period repeated, cut to
    ``size``."""
    return (known + known[len(known) - period :] * ((size - len(known)) // period + 1))[:size]


def _summed_series(entry: _Table, n: int, top: int) -> tuple:
    """The sum of both third-page series of the built-in operator through
    degree ``top``: the stored differences, those past 8n+2 repeated per
    parity, divided by 1 - t^(4n) (see the module docstring)."""
    coeffs = list(_tile(entry.differences, 2, top + 1))
    series._divide_out(coeffs, (4 * n,))
    return tuple(coeffs)


def _homology(
    dims: Iterable[int], ranks: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Third-page columns (first, rest) from the fiber dimensions and the
    ranks of the second differential, both from the bottom fiber degree:
    column 0 loses the incoming rank, columns p >= 1 the outgoing one too."""
    first = tuple(d - r for d, r in zip(dims, [0, *ranks]))
    return first, tuple(d - r for d, r in zip(first, ranks))


def e2_page(cfg: SSConfig) -> Page:
    """Second page: every column repeats the fiber dimensions, tiled from one
    period (see the module docstring)."""
    top = cfg.max_top_degree
    dims = _tile(_period_table(cfg.algebra).dims[cfg.comp], 4 * cfg.algebra.n, top + 1)
    return Page(2, cfg.algebra.dim, top, dims, dims)


def e3_page(cfg: SSConfig, delta_fn: DeltaFn | None = None) -> Page:
    """Third page: homology of the second differential.

    Column 0 has no outgoing differential, so only incoming images are
    removed there; columns p >= 1 drop both the rank at q and the incoming
    rank at q-1.  Nothing sits below the bottom fiber degree, so the incoming
    rank there is zero.  Ranks are computed once per fiber degree and reused
    across columns.  For the built-in operator both columns are tiled from
    the period table, which holds them for the ``bv.delta`` that filled it
    (see the module docstring).  Any other operator is applied only in the D
    fiber degrees whose ranks the page reads, so its images are checked
    against the basis (``InputError`` on a stray term) only there, not at
    the top degree q = D - shift.
    """
    algebra, comp, top = cfg.algebra, cfg.comp, cfg.max_top_degree
    entry, period = _period_table(algebra), 4 * algebra.n
    if delta_fn is None or delta_fn is bv.delta:
        first, rest = (_tile(column, period, top + 1) for column in entry.columns[comp])
        return Page(3, algebra.dim, top, first, rest)
    # the top fiber degree q = D - shift feeds no cell: its image would land
    # at index D + 1, and column p >= 1 stops at index D - 2
    qs = range(-algebra.dim, top - algebra.dim)
    ranks = [d2_rank(algebra, comp, q, delta_fn) for q in qs]
    return Page(3, algebra.dim, top, *_homology(_tile(entry.dims[comp], period, top + 1), ranks))


def _check_fits(page: Page, cfg: SSConfig) -> None:
    if (page.shift, page.max_top_degree) != (cfg.algebra.dim, cfg.max_top_degree):
        raise InputError(
            f"page with shift {page.shift} and cutoff {page.max_top_degree} does not "
            f"belong to n={cfg.algebra.n} at cutoff {cfg.max_top_degree}"
        )


def page_series(page: Page, cfg: SSConfig) -> series.TruncatedSeries:
    """Poincaré series of a page in the topological grading, through the
    cutoff, in O(D).

    Degree k collects column 0 at index k and column p >= 1 at every index
    k - 2p >= 0, a running sum over the indices of k's parity.
    """
    _check_fits(page, cfg)
    return series.TruncatedSeries(tuple(_page_coefficients(page.first, page.rest)))


def _page_coefficients(first: Sequence[int], rest: Sequence[int]) -> list:
    """The series of the columns ``first`` and ``rest`` through the length
    of ``first``; no running sum when ``rest`` is zero."""
    coeffs = list(first)
    if any(rest):
        for s in (0, 1):
            coeffs[s + 2 :: 2] = map(add, coeffs[s + 2 :: 2], accumulate(rest[s::2]))
    return coeffs


class CollapseReport(Record):
    """Outcome of the dimension-count collapse certificate.

    ``all_degrees`` says that the verdict was proved in every degree, not
    only through ``max_top_degree``; the tuples cover the cutoff either way.
    """

    algebra: AlgebraConfig
    max_top_degree: int
    e_page_stable: bool
    computed: tuple
    expected: tuple
    first_mismatch: tuple | None  # (degree, computed, expected)
    all_degrees: bool = False

    @property
    def passed(self) -> bool:
        return self.e_page_stable and self.first_mismatch is None


def _degree_bound(cfg: AlgebraConfig, total: series.RationalSeries) -> int:
    """The degree K = max(4n+4 + deg den, deg num + 4n+2) through which the
    built-in operator's third pages agree with the closed form ``total`` =
    num/den iff they agree in every degree (see the module docstring).

    K holds for the pages of any operator.  Those of ``bv.delta`` as shipped
    sum to ``total_series``, whose reduced denominator (1 - t)(1 - t^(2n))
    has degree 2n+1, so the difference polynomial is a multiple of one of
    degree 2n+1 with nonzero constant term, and a closed form that differs
    from them first differs by degree K - (2n+1)."""
    deg_num, deg_den = len(total.numerator) - 1, len(total.denominator) - 1
    return max(4 * cfg.n + 4 + deg_den, deg_num + 4 * cfg.n + 2)


def _compare(
    cfg: AlgebraConfig, top: int, delta_fn: DeltaFn | None, expected: tuple
) -> CollapseReport:
    """E-stability, and the sum of the two third-page series against the
    closed form's coefficients ``expected`` through degree ``top``, reported
    at that cutoff."""
    ss_e, ss_g = SSConfig(cfg, Component.E, top), SSConfig(cfg, Component.G, top)
    e2_e, e3_e, e3_g = e2_page(ss_e), e3_page(ss_e, delta_fn), e3_page(ss_g, delta_fn)
    e_stable = (e3_e.first, e3_e.rest) == (e2_e.first, e2_e.rest)
    series_e, series_g = page_series(e3_e, ss_e), page_series(e3_g, ss_g)
    computed = tuple(map(add, series_e.coefficients, series_g.coefficients))
    first_mismatch = next(
        ((k, got, want) for k, (got, want) in enumerate(zip(computed, expected)) if got != want),
        None,
    )
    return CollapseReport(cfg, top, e_stable, computed, expected, first_mismatch)


def verify_collapse(
    cfg: AlgebraConfig,
    max_top_degree: int,
    delta_fn: DeltaFn | None = None,
) -> CollapseReport:
    """Certify collapse by comparing page series against the known total.

    The contractible component must keep its second page, and the sum of the
    series of the two third pages that :func:`e3_page` builds must equal the
    closed form for the full loop space.  Matching dimensions leave no room
    for further differentials, which is the whole certificate.  For the
    built-in operator (``None`` or ``bv.delta``) the closed form is read on
    every call, and the period table's E-stability bit and summed series,
    compared with the closed form's expansion through :func:`_degree_bound`,
    decide it once per configuration and closed form, kept in the table
    under the pair (num, den); a proof gives a pass whose tuples are the
    summed series through the cutoff, one running sum.  Otherwise, or if
    that proof fails, the pages are compared through the cutoff on the
    closed form's expansion through it.
    """
    check_count(max_top_degree, "max_top_degree")  # before any work
    top, total = max_top_degree, series.total_series(cfg.n)
    if delta_fn is None or delta_fn is bv.delta:
        entry, key = _period_table(cfg), (total.numerator, total.denominator)
        if key not in entry.proofs:
            bound = _degree_bound(cfg, total)
            entry.proofs.clear()  # a rebound series.total_series must not grow the entry
            entry.proofs[key] = entry.stable and (
                _summed_series(entry, cfg.n, bound) == series.expand(total, bound).coefficients
            )
        if entry.proofs[key]:
            coeffs = _summed_series(entry, cfg.n, top)
            return CollapseReport(cfg, top, True, coeffs, coeffs, None, True)
    return _compare(cfg, top, delta_fn, series.expand(total, top).coefficients)


def page_to_json(page: Page, cfg: SSConfig) -> dict:
    """JSON-ready mapping, entries in (p, q) order."""
    entries = [{"p": p, "q": q, "dim": d} for p, column in page.columns() for q, d in column]
    coeffs = list(page_series(page, cfg).coefficients)
    return {"page": page.page_index, "entries": entries, "series": coeffs}


def page_from_json(obj: dict, cfg: SSConfig) -> Page:
    """Rebuild a page from the mapping produced by :func:`page_to_json`.

    The columns are read off the p = 0 and p = 1 entries.  The object is
    refused unless every number in it is an ``int``, every dimension is
    nonnegative, the page index is at least 2 and re-emitting the page gives
    the object back exactly.  That last test rules out negative p, repeated,
    zero or unsorted cells, cells past the cutoff, columns p >= 2 that differ
    from p = 1, a wrong series and extra keys.
    """
    shift, top = cfg.algebra.dim, cfg.max_top_degree
    columns = [0] * (top + 1), [0] * (top + 1)
    try:
        cells = [(e["p"], e["q"], e["dim"]) for e in obj["entries"]]
        numbers = [obj["page"], *obj["series"], *(v for cell in cells for v in cell)]
        if not all(type(v) is int for v in numbers) or any(d < 0 for *_, d in cells):
            raise InputError(
                "malformed page object: numbers must be integers and dimensions nonnegative"
            )
        if obj["page"] < 2:
            raise InputError(f"malformed page object: page index {obj['page']} below 2")
        for p, q, d in cells:
            if p in (0, 1) and 0 <= q + shift <= top:
                columns[p][q + shift] = d
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed page object: {exc}") from exc
    page = Page(obj["page"], shift, top, *columns)
    if page_to_json(page, cfg) != obj:
        raise InputError(
            f"page object does not re-emit exactly as a page of n={cfg.algebra.n}, "
            f"component {cfg.comp.value}, cutoff {top}"
        )
    return page
