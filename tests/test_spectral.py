import functools
import itertools
import json
import random

import pytest

from loopbv import bv
from loopbv.cli import main
from loopbv.ring import (
    AlgebraConfig,
    BVCase,
    Component,
    InputError,
    Monomial,
    add,
    basis,
    component,
    dimension,
    element,
    zero,
)
from loopbv.series import expand, le_series, lg_series, total_series
from loopbv import gf2, series, spectral
from loopbv.spectral import (
    CollapseReport,
    Page,
    SSConfig,
    d2_matrix,
    d2_rank,
    e2_page,
    e3_page,
    page_from_json,
    page_series,
    page_to_json,
    verify_collapse,
)

ALL_CASES = list(BVCase)


def zero_delta(u, cfg):
    """A BV operator that kills everything: E3 = E2 and the total overshoots."""
    return zero()


def moving_delta(u, cfg, delta=bv.delta):
    """``bv.delta`` plus x^(a-1) v^b w^c for every contractible term with
    a >= 1: the contractible page moves between pages two and three.  Its
    square is not zero, so page entries are the rank formula and may be
    negative; both page paths must still agree on them.  It calls the
    ``bv.delta`` bound when this module was imported, so it can itself be
    bound as ``bv.delta``."""
    lowered = (
        Monomial(m.a - 1, m.b, m.c) for m in u.terms if m.a and component(m, cfg) is Component.E
    )
    return add(delta(u, cfg), element(*lowered))


def wrapped_delta(u, cfg):
    """``bv.delta`` under another identity: forces the per-degree rank path."""
    return bv.delta(u, cfg)


def dense_cells(cfg):
    """Every (p, q) cell of a page: 2p + q + (2n+1) within the cutoff."""
    shift = cfg.algebra.dim
    for q in range(-shift, cfg.max_top_degree - shift + 1):
        for p in range((cfg.max_top_degree - q - shift) // 2 + 1):
            yield p, q


def dense_tables(algebra, comp, delta_fn, top):
    """Reference fiber data through cutoff ``top``: one ``dimension`` and one
    ``d2_rank`` call per fiber degree from one below the bottom, shared by the
    pages of every cutoff up to ``top``."""
    qs = range(-algebra.dim - 1, top - algebra.dim + 1)
    return (
        {q: dimension(algebra, comp, q) for q in qs},
        {q: d2_rank(algebra, comp, q, delta_fn) for q in qs},
    )


def dense_e2(cfg, dims):
    """Reference second page entries: one dimension per cell."""
    entries = {}
    for p, q in dense_cells(cfg):
        d = dims[q]
        if d:
            entries[(p, q)] = d
    return entries


def dense_e3(cfg, dims, ranks):
    """Reference third page entries: per-cell dimension minus the ranks at
    q-1 and, off column 0, at q."""
    entries = {}
    for p, q in dense_cells(cfg):
        d = dims[q] - ranks[q - 1]
        if p >= 1:
            d -= ranks[q]
        if d:
            entries[(p, q)] = d
    return entries


def dense_series(entries, cfg):
    """Reference page series: one addition per entry."""
    shift = cfg.algebra.dim
    coeffs = [0] * (cfg.max_top_degree + 1)
    for (p, q), d in entries.items():
        coeffs[2 * p + q + shift] += d
    return tuple(coeffs)


def dense_json(page_index, entries, cfg):
    """Reference page JSON: the entries sorted by (p, q)."""
    return {
        "page": page_index,
        "entries": [{"p": p, "q": q, "dim": d} for (p, q), d in sorted(entries.items())],
        "series": list(dense_series(entries, cfg)),
    }


def dense_collapse_fields(cfg, max_top_degree, e2_e, e3_e, e3_g):
    """(e_page_stable, computed, expected, first_mismatch) from dense entries."""
    ss_e = SSConfig(cfg, Component.E, max_top_degree)
    ss_g = SSConfig(cfg, Component.G, max_top_degree)
    computed = tuple(
        a + b for a, b in zip(dense_series(e3_e, ss_e), dense_series(e3_g, ss_g))
    )
    expected = expand(total_series(cfg.n), max_top_degree).coefficients
    mismatches = [(k, a, b) for k, (a, b) in enumerate(zip(computed, expected)) if a != b]
    stable = e3_e == e2_e
    return stable, computed, expected, mismatches[0] if mismatches else None


def outside_ring(cfg):
    """Cells just outside a page: column -1, one degree below the bottom,
    and the two top degrees past the cutoff."""
    shift, top = cfg.algebra.dim, cfg.max_top_degree
    for q in range(-shift - 1, top - shift + 2):
        yield -1, q
    for p in range(top // 2 + 2):
        yield p, -shift - 1
        yield p, top + 1 - 2 * p - shift
        yield p, top + 2 - 2 * p - shift


def oracle_degrees(n):
    # 6n+7, 6n+8, 6n+9 sit at K-1, K, K+1 of the all-degree certificate
    return sorted({0, 1, 2, 4 * n - 1, 4 * n, 4 * n + 1, 6 * n + 7, 6 * n + 8, 6 * n + 9, 97, 200})


@pytest.mark.parametrize(
    "delta_fn", [bv.delta, zero_delta, moving_delta], ids=["delta", "zero", "moving"]
)
@pytest.mark.parametrize("n", range(1, 9))
def test_pages_and_collapse_match_dense_oracle(n, delta_fn):
    for case in ALL_CASES:
        cfg = AlgebraConfig(n, case)
        degrees = oracle_degrees(n)
        tables = {
            comp: dense_tables(cfg, comp, delta_fn, degrees[-1])
            for comp in (Component.E, Component.G)
        }
        for limit in degrees:
            dense = {}
            for comp in (Component.E, Component.G):
                ss = SSConfig(cfg, comp, limit)
                dims, ranks = tables[comp]
                dense[comp] = dense_e2(ss, dims), dense_e3(ss, dims, ranks)
                pages = e2_page(ss), e3_page(ss, delta_fn)
                for page, reference in zip(pages, dense[comp]):
                    where = (n, case, limit, comp, page.page_index)
                    assert page.entries == reference, where
                    assert json.dumps(page_to_json(page, ss)) == json.dumps(
                        dense_json(page.page_index, reference, ss)
                    ), where
                    assert page_series(page, ss).coefficients == dense_series(reference, ss)
                    for p, q in dense_cells(ss):
                        assert page.dim(p, q) == reference.get((p, q), 0), (where, p, q)
                    for p, q in outside_ring(ss):
                        assert page.dim(p, q) == 0, (where, p, q)
            report = verify_collapse(cfg, limit, delta_fn)
            fields = (report.e_page_stable, report.computed, report.expected, report.first_mismatch)
            assert fields == dense_collapse_fields(
                cfg, limit, *dense[Component.E], dense[Component.G][1]
            ), (n, case, limit)
            assert (report.algebra, report.max_top_degree) == (cfg, limit)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_moving_contractible_page_fails_collapse(n):
    """The moving input of the dense-oracle test is not vacuous: from cutoff 1
    on, the contractible page moves and no certificate is claimed."""
    for case in ALL_CASES:
        cfg = AlgebraConfig(n, case)
        for limit in oracle_degrees(n):
            if limit >= 1:
                report = verify_collapse(cfg, limit, moving_delta)
                fields = (report.e_page_stable, report.passed, report.all_degrees)
                assert fields == (False, False, False), (case, limit)


@pytest.mark.parametrize("n", range(1, 7))
def test_w_squared_period_lemma(n):
    """From q = -(2n-1) on, w^2 maps the degree-q basis onto the degree-(q+4n)
    basis in order and Delta commutes with it: the premise of every tiled
    vector and of the all-degree certificate."""
    for case in ALL_CASES:
        cfg = AlgebraConfig(n, case)
        for comp in (Component.E, Component.G):
            for q in range(-(2 * n - 1), 2 * n + 1):
                shifted = tuple(Monomial(m.a, m.b, m.c + 2) for m in basis(cfg, comp, q))
                assert basis(cfg, comp, q + 4 * n) == shifted, (case, comp, q)
                assert d2_matrix(cfg, comp, q + 4 * n) == d2_matrix(cfg, comp, q), (case, comp, q)


@pytest.mark.parametrize("n", range(1, 9))
def test_tiled_columns_match_per_degree_columns(n):
    degrees = sorted({0, 1, 2, 4 * n - 1, 4 * n, 4 * n + 1, 4 * n + 2, 8 * n + 3, 200})
    for case in ALL_CASES:
        cfg = AlgebraConfig(n, case)
        for comp in (Component.E, Component.G):
            for limit in degrees:
                ss = SSConfig(cfg, comp, limit)
                dims = [dimension(cfg, comp, q) for q in range(-cfg.dim, limit - cfg.dim + 1)]
                assert e2_page(ss).first == tuple(dims), (case, comp, limit)
                # at cutoff limit + 2 the third page holds the ranks at fiber
                # indices 0..limit in both columns
                wide = SSConfig(cfg, comp, limit + 2)
                assert e3_page(wide, bv.delta) == e3_page(wide, wrapped_delta), (
                    case, comp, limit,
                )


def per_degree_columns(cfg, comp, limit):
    """The third-page columns at cutoff ``limit`` by the per-degree formula,
    over ``dimension`` and ``d2_rank`` in every fiber degree through it, the
    period table unread."""
    qs = range(-cfg.dim, limit - cfg.dim + 1)
    dims, ranks = [dimension(cfg, comp, q) for q in qs], [d2_rank(cfg, comp, q) for q in qs]
    first = [d - r for d, r in zip(dims, [0] + ranks)]
    rest = [d - r for d, r in zip(first, ranks)]
    return tuple(first), tuple(rest[: max(limit - 1, 0)])


@pytest.mark.parametrize("n", range(1, 9))
def test_tiled_third_page_columns_match_the_per_degree_formula(n):
    """Every cutoff through three periods, D < 3 inside the head included,
    for all four cases and both components: the columns at a cutoff are a
    prefix of those at the largest one."""
    top = 3 * (4 * n + 3)
    for case in ALL_CASES:
        cfg = AlgebraConfig(n, case)
        for comp in (Component.E, Component.G):
            first, rest = per_degree_columns(cfg, comp, top)
            for limit in range(top + 1):
                page = e3_page(SSConfig(cfg, comp, limit))
                want = first[: limit + 1], rest[: max(limit - 1, 0)]
                assert (page.first, page.rest) == want, (case, comp, limit)


def test_third_page_columns_follow_a_rebound_delta(monkeypatch):
    """The columns live in the period table: after bv.delta is rebound and the
    table cleared, the default page is that operator's page."""
    cfg, limit = AlgebraConfig(2, BVCase.A_VXW), 3 * (4 * 2 + 3)
    ss = SSConfig(cfg, Component.G, limit)
    clear_period_tables()
    before = e3_page(ss)
    try:
        monkeypatch.setattr(bv, "delta", zero_delta)
        clear_period_tables()
        after = e3_page(ss)
        assert after != before
        assert (after.first, after.rest) == (e2_page(ss).first, e2_page(ss).rest)
        assert (after.first, after.rest) == per_degree_columns(cfg, Component.G, limit)
    finally:
        monkeypatch.undo()
        clear_period_tables()
    assert e3_page(ss) == before


def clear_period_tables():
    spectral._period_table.cache_clear()


def counting(fn, calls):
    def counted(*args):
        calls.append(args)
        return fn(*args)

    return counted


def period_monomials(cfg):
    """Basis monomials of both components over the head and one period."""
    return sum(sum(dims) for dims in spectral._period_table(cfg).dims.values())


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_verify_collapse_rank_calls_do_not_grow_with_cutoff(n, monkeypatch):
    calls = []
    monkeypatch.setattr(gf2, "rank", counting(gf2.rank, calls))
    for limit in (40, 4000):
        calls.clear()
        clear_period_tables()  # the bound is per cold configuration
        assert verify_collapse(AlgebraConfig(n, BVCase.B_WXVW), limit).passed
        assert 0 < len(calls) <= 2 * (4 * n + 2), limit


@pytest.mark.parametrize("n", [1, 2])
def test_rebound_delta_keeps_the_periodic_path(n, monkeypatch):
    """Rebinding bv.delta, as a call counter does, must not send the default
    operator down the per-degree rank path, in the library or in the CLI."""
    original_delta, original_collapse = bv.delta, verify_collapse
    delta_calls, rank_calls, reports = [], [], []

    @functools.wraps(original_delta)
    def counting_delta(u, cfg):
        delta_calls.append(u)
        return original_delta(u, cfg)

    def recording_collapse(*args):
        reports.append(original_collapse(*args))
        return reports[-1]

    monkeypatch.setattr(bv, "delta", counting_delta)
    monkeypatch.setattr(gf2, "rank", counting(gf2.rank, rank_calls))
    monkeypatch.setattr(spectral, "verify_collapse", recording_collapse)
    argv = ["verify", "--n", str(n), "--max-degree", "400", "--samples", "0", "--format", "json"]
    for run in (lambda: recording_collapse(AlgebraConfig(n), 400), lambda: main(argv)):
        rank_calls.clear()
        clear_period_tables()  # the bound is per cold configuration
        run()
        assert reports[-1].passed and reports[-1].all_degrees
        assert 0 < len(rank_calls) <= 2 * (4 * n + 2)
    assert delta_calls


@pytest.mark.parametrize("n", [1, 3, 8])
def test_warm_configuration_makes_no_rank_calls(n, monkeypatch):
    calls = []
    monkeypatch.setattr(gf2, "rank", counting(gf2.rank, calls))
    cfg = AlgebraConfig(n, BVCase.A_VXW)
    clear_period_tables()
    cold = verify_collapse(cfg, 60)
    assert 0 < len(calls) <= 2 * (4 * n + 2)
    calls.clear()
    for limit in (0, 60, 4000):
        assert verify_collapse(cfg, limit).all_degrees
        for comp in (Component.E, Component.G):
            e3_page(SSConfig(cfg, comp, limit))
    assert calls == []
    assert verify_collapse(cfg, 60) == cold
    info = spectral._period_table.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


@pytest.mark.parametrize("comp", [Component.E, Component.G])
def test_one_cold_page_fills_both_components(comp, monkeypatch):
    """The first page of a configuration sweeps its period once for both
    components: the certificate and the other component's page then apply
    no operator and rank nothing."""
    cfg = AlgebraConfig(3, BVCase.B_W)
    other = Component.G if comp is Component.E else Component.E
    rank_calls, delta_calls = [], []
    monkeypatch.setattr(gf2, "rank", counting(gf2.rank, rank_calls))
    monkeypatch.setattr(bv, "delta", counting(bv.delta, delta_calls))
    clear_period_tables()
    e3_page(SSConfig(cfg, comp, 80))
    assert len(rank_calls) == 2 * (4 * 3 + 2)
    assert len(delta_calls) == period_monomials(cfg) > 0
    rank_calls.clear()
    delta_calls.clear()
    assert verify_collapse(cfg, 80).all_degrees
    e3_page(SSConfig(cfg, other, 80))
    assert rank_calls == delta_calls == []


@pytest.mark.parametrize("n", [1, 4])
def test_warm_certificate_reads_the_closed_form_on_every_call(n, monkeypatch):
    """A proof is kept only for the closed form it was made for: on a warm
    configuration a closed form bumped by t^j fails at degree j inside the
    cutoff and, beyond it, passes without the all-degree claim."""
    limit, true_total = 60, total_series(n)
    truth = expand(true_total, limit).coefficients
    for case in ALL_CASES:
        cfg = AlgebraConfig(n, case)
        assert verify_collapse(cfg, limit).all_degrees  # warm
        for j in (0, 1, 6 * n + 8, limit, limit + 1, 10 * n + 50):
            bumped = true_total + series.RationalSeries((0,) * j + (1,))
            monkeypatch.setattr(series, "total_series", lambda _n, r=bumped: r)
            report = verify_collapse(cfg, limit)
            assert not report.all_degrees and report.e_page_stable, (case, j)
            if j <= limit:
                assert report.first_mismatch == (j, truth[j], truth[j] + 1), (case, j)
            else:
                assert report.passed and report.computed == truth, (case, j)
            monkeypatch.setattr(series, "total_series", total_series)
            assert verify_collapse(cfg, limit).all_degrees, (case, j)


PAGE_PATH = ("e2_page", "e3_page", "page_series", "_compare")


@pytest.mark.parametrize("limit", [0, 10, 400])
def test_a_proved_certificate_expands_the_closed_form_once_per_configuration(
    limit, monkeypatch
):
    """A built-in certificate proves its closed form on one expansion
    through K, whatever the cutoff, and builds no page; a warm proved one
    expands nothing.  A closed form whose proof fails, and an operator that
    is not the built-in one, are compared on the pages, on one expansion
    through D per call (after the failed proof's expansion through K on
    the cold call)."""
    cfg, true_total = AlgebraConfig(2, BVCase.B_W), total_series(2)
    bumped = true_total + series.RationalSeries((1,))  # wrong in degree 0
    expansions, page_calls = [], []
    monkeypatch.setattr(series, "expand", counting(series.expand, expansions))
    for name in PAGE_PATH:
        monkeypatch.setattr(spectral, name, counting(getattr(spectral, name), page_calls))
    for total, passed in ((true_total, True), (bumped, False)):
        monkeypatch.setattr(series, "total_series", lambda _n, r=total: r)
        bound = spectral._degree_bound(cfg, total)
        report = [] if passed else [(total, limit)]
        clear_period_tables()
        for state, want in (("cold", [(total, bound), *report]), ("warm", report)):
            expansions.clear()
            page_calls.clear()
            got = verify_collapse(cfg, limit)
            assert (got.passed, got.all_degrees) == (passed, passed), state
            assert expansions == want, state
            assert bool(page_calls) is not passed, state
        expansions.clear()
        verify_collapse(cfg, limit, wrapped_delta)
        assert expansions == [(total, limit)]


def summed_page_series(cfg, limit):
    """The sum of the series of the two default third pages at ``limit``."""
    pair = [SSConfig(cfg, comp, limit) for comp in (Component.E, Component.G)]
    e, g = (page_series(e3_page(ss), ss).coefficients for ss in pair)
    return tuple(a + b for a, b in zip(e, g))


@pytest.mark.parametrize("n", range(1, 9))
def test_tiled_reports_match_the_closed_form_and_the_pages(n, monkeypatch):
    """Cold and warm, on both sides of the head, the period and the bound,
    a proved report holds the closed form's expansion, and that is the sum
    of the page series it certifies; it builds no page."""
    limits = sorted({0, 1, 4 * n + 2, 4 * n + 3, 8 * n + 2, 8 * n + 3, 6 * n + 8, 997})
    assert spectral._degree_bound(AlgebraConfig(n), total_series(n)) == 6 * n + 8
    for case in ALL_CASES:
        cfg = AlgebraConfig(n, case)
        for limit in limits:
            clear_period_tables()
            page_calls = []
            with monkeypatch.context() as patch:
                for name in PAGE_PATH:
                    patch.setattr(spectral, name, counting(getattr(spectral, name), page_calls))
                cold, warm = verify_collapse(cfg, limit), verify_collapse(cfg, limit)
            assert page_calls == [], (case, limit)
            assert cold == warm and cold.passed and cold.all_degrees, (case, limit)
            want = expand(total_series(n), limit).coefficients
            assert cold.computed == cold.expected == want, (case, limit)
            assert want == summed_page_series(cfg, limit), (case, limit)


@pytest.mark.parametrize("n", range(1, 9))
def test_stored_differences_are_constant_per_parity_past_the_head(n):
    """The lemma of the tiled report: from k = 4n+3 on, c_k - c_(k-4n) is
    sigma_(k mod 2), the sum of one period of column p >= 1 over the indices
    of k's parity, for the page series through 12n+8; the table stores c
    below 4n and those differences through 8n+2."""
    period, top = 4 * n, 12 * n + 8
    for case in ALL_CASES:
        cfg = AlgebraConfig(n, case)
        c = summed_page_series(cfg, top)
        rests = [e3_page(SSConfig(cfg, comp, top)).rest for comp in (Component.E, Component.G)]
        one_period = range(3, 3 + period)
        sigma = [sum(rest[j] for rest in rests for j in one_period if j % 2 == s) for s in (0, 1)]
        for k in range(period + 3, top + 1):
            assert c[k] - c[k - period] == sigma[k % 2], (case, k)
        entry = spectral._period_table(cfg)
        differences = c[:period] + tuple(c[k] - c[k - period] for k in range(period, 8 * n + 3))
        assert entry.differences == differences, case
        assert entry.stable


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_summed_series_tiles_any_periodic_columns(n):
    """The lemma for hand-built columns that repeat with period 4n after a
    head of three indices, with sigma_0 != sigma_1 (over the ring's fiber
    dimensions the two are equal): the differences stored as the table
    stores them, repeated per parity past 8n+2 and summed over 1 - t^(4n),
    give the dense per-cell series through every cutoff to 12n+8."""
    rng, period, top = random.Random(n), 4 * n, 12 * n + 8
    first, rest = ([rng.randrange(-3, 9) for _ in range(3 + period)] for _ in range(2))
    if sum(rest[3::2]) == sum(rest[4::2]):
        rest[4] += 1
    cfg = SSConfig(AlgebraConfig(n), Component.E, top)
    columns = [spectral._tile(tuple(c), period, top + 1) for c in (first, rest)]
    shift = cfg.algebra.dim
    entries = {(p, q): columns[p > 0][q + shift] for p, q in dense_cells(cfg)}
    c = dense_series(entries, cfg)
    differences = c[:period] + tuple(c[k] - c[k - period] for k in range(period, 8 * n + 3))
    entry = spectral._Table({}, {}, differences, True, {})
    for limit in range(top + 1):
        assert spectral._summed_series(entry, n, limit) == c[: limit + 1], limit


def page_comparison(cfg, limit, total):
    """The report of the page comparison: E-stability and the sum of the
    default page series against the closed form ``total``, through
    ``limit``."""
    ss = SSConfig(cfg, Component.E, limit)
    e2_e, e3_e = e2_page(ss), e3_page(ss)
    computed = summed_page_series(cfg, limit)
    expected = expand(total, limit).coefficients
    mismatches = [(k, a, b) for k, (a, b) in enumerate(zip(computed, expected)) if a != b]
    stable = (e3_e.first, e3_e.rest) == (e2_e.first, e2_e.rest)
    return CollapseReport(cfg, limit, stable, computed, expected, (mismatches or [None])[0])


def own_closed_form(cfg):
    """The sum of the default third-page series as N / ((1 - t^(4n)) (1 - t^2)),
    N read off that sum through degree 4n+4."""
    period = 4 * cfg.n
    den = [0] * (period + 3)
    den[0], den[2], den[period], den[period + 2] = 1, -1, -1, 1
    c = summed_page_series(cfg, period + 4)
    num = [sum(den[j] * c[k - j] for j in range(k + 1) if j < len(den)) for k in range(period + 5)]
    return series.RationalSeries(tuple(num), tuple(den))


@pytest.mark.parametrize("rebound", [zero_delta, moving_delta], ids=["zero", "moving"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_rebound_operator_is_proved_or_compared_on_the_pages(n, rebound, monkeypatch):
    """With ``bv.delta`` rebound and the table cleared, the certificate is
    proved only if the contractible page keeps its second page and the
    summed series is the closed form.  Against the true closed form both
    proofs fail, ``zero_delta``'s on the series and ``moving_delta``'s on
    the contractible page.  Against the pages' own closed form
    ``zero_delta``'s proof holds and its report is the summed page series,
    while ``moving_delta``'s still fails on the contractible page.  A failed
    proof reports the page comparison field by field, cold and warm, and
    the entry keeps one proof however often the closed form changes."""
    monkeypatch.setattr(bv, "delta", rebound)
    try:
        for case in ALL_CASES:
            cfg = AlgebraConfig(n, case)
            clear_period_tables()
            own = own_closed_form(cfg)
            top = 12 * n + 8
            assert expand(own, top).coefficients == summed_page_series(cfg, top), case
            assert spectral._period_table(cfg).stable is (rebound is zero_delta)
            for total in (total_series(n), own, total_series(n), own):
                monkeypatch.setattr(series, "total_series", lambda _n, r=total: r)
                verify_collapse(cfg, 1)
                assert len(spectral._period_table(cfg).proofs) == 1, case
            for total in (total_series(n), own):
                monkeypatch.setattr(series, "total_series", lambda _n, r=total: r)
                for limit in oracle_degrees(n):
                    clear_period_tables()
                    cold = verify_collapse(cfg, limit)
                    assert cold == verify_collapse(cfg, limit), (case, limit)
                    if total is own and rebound is zero_delta:
                        c = summed_page_series(cfg, limit)
                        assert cold == CollapseReport(cfg, limit, True, c, c, None, True)
                    else:
                        assert cold == page_comparison(cfg, limit, total), (case, limit)
                        assert cold.e_page_stable is (rebound is zero_delta or limit == 0)
    finally:
        monkeypatch.undo()
        clear_period_tables()


@pytest.mark.parametrize("n", [1, 8])
def test_a_page_with_no_cell_off_column_zero_skips_its_running_sums(n, monkeypatch):
    """Every non-contractible third page lives in column 0: its series makes
    no running sum and its cells scan column 0 alone, while the contractible
    page makes one sum per parity and scans both columns."""
    calls = []
    monkeypatch.setattr(spectral, "accumulate", counting(spectral.accumulate, calls))
    monkeypatch.setattr(spectral, "compress", counting(spectral.compress, calls))
    cfg = AlgebraConfig(n, BVCase.A_VXW)
    for comp, sums in ((Component.G, 0), (Component.E, 2)):
        ss = SSConfig(cfg, comp, 600)
        page = e3_page(ss)
        calls.clear()
        page_series(page, ss)
        assert len(calls) == sums, comp
        calls.clear()
        list(page.columns())
        assert len(calls) == 1 + sums // 2, comp


@pytest.mark.parametrize("where", ["zero", "first", "last"])
@pytest.mark.parametrize("limit", [2, 3, 10, 11])
def test_page_series_and_json_of_a_hand_built_page_match_the_cell_sums(limit, where):
    """A page whose column p >= 1 is zero, or nonzero only at its first or
    its last index D - 2, emits the series and cells of its dense per-cell
    sums."""
    cfg = SSConfig(AlgebraConfig(2), Component.G, limit)
    first = tuple(range(1, limit + 2))
    rest = [0] * (limit - 1)
    if where != "zero":
        rest[0 if where == "first" else -1] = 7
    page = Page(3, cfg.algebra.dim, limit, first, rest)
    shift = cfg.algebra.dim
    entries = {}
    for p, q in dense_cells(cfg):
        d = rest[q + shift] if p else first[q + shift]
        if d:
            entries[(p, q)] = d
    assert page.entries == entries
    assert page_series(page, cfg).coefficients == dense_series(entries, cfg)
    assert json.dumps(page_to_json(page, cfg)) == json.dumps(dense_json(3, entries, cfg))


def report_fields(ss):
    report = verify_collapse(ss.algebra, ss.max_top_degree)
    return [getattr(report, f) for f in CollapseReport._fields]


BUILDS = {
    "e2": lambda ss: page_to_json(e2_page(ss), ss),
    "e3": lambda ss: page_to_json(e3_page(ss), ss),
    "collapse": report_fields,
}


def pages_and_reports(items, clear):
    """The ``BUILDS`` result of every (n, case, comp, cutoff, build) item, in
    the given order, clearing the period table before every call if
    ``clear``."""
    out = {}
    for n, case, comp, limit, name in items:
        if clear:
            clear_period_tables()
        out[n, case, comp, limit, name] = BUILDS[name](SSConfig(AlgebraConfig(n, case), comp, limit))
    return out


def test_cold_and_warm_period_tables_give_the_same_results():
    """Single calls shuffled across all 32 configurations, so the first call
    on a configuration may be a page of either component or a certificate."""
    items = [
        (n, case, comp, limit, name)
        for n in range(1, 9)
        for case in ALL_CASES
        for comp in (Component.E, Component.G)
        for limit in oracle_degrees(n)
        for name in BUILDS
    ]
    random.Random(20).shuffle(items)
    clear_period_tables()
    warm = pages_and_reports(items, clear=False)
    assert spectral._period_table.cache_info().hits > 0
    assert warm == pages_and_reports(items, clear=True)


def test_rebound_delta_shares_the_configuration_table(monkeypatch):
    """The period table holds the pages of the bv.delta that filled it: a
    rebound counter on a warm configuration is not called and adds no entry,
    and after cache_clear() it fills the table, once per period monomial."""
    cfg = AlgebraConfig(2, BVCase.B_W)
    original = verify_collapse(cfg, 50)
    size = spectral._period_table.cache_info().currsize
    delta_calls = []
    monkeypatch.setattr(bv, "delta", counting(bv.delta, delta_calls))
    assert verify_collapse(cfg, 50) == original
    assert delta_calls == []
    assert spectral._period_table.cache_info().currsize == size
    spectral._period_table.cache_clear()
    assert verify_collapse(cfg, 50) == original
    assert len(delta_calls) == period_monomials(cfg) > 0
    assert spectral._period_table.cache_info().currsize == 1


def test_cold_certificates_of_every_configuration_fit_the_basis_cache():
    """Filling the period tables of all 32 configurations evicts nothing
    from the bounded ``ring.basis`` cache: every miss is still held."""
    basis.cache_clear()
    clear_period_tables()
    for n in range(1, 9):
        for case in ALL_CASES:
            assert verify_collapse(AlgebraConfig(n, case), 600).passed
    info = basis.cache_info()
    assert info.misses > 0 and info.currsize == info.misses


def test_rebinding_delta_does_not_grow_the_rank_table(monkeypatch):
    cfg, original = AlgebraConfig(4), bv.delta
    verify_collapse(cfg, 40)
    size = spectral._period_table.cache_info().currsize
    for _ in range(200):
        monkeypatch.setattr(bv, "delta", counting(original, []))
        verify_collapse(cfg, 40)
    assert spectral._period_table.cache_info().currsize == size


def test_configuration_caches_stay_at_their_bound():
    """The period table and ``bv.bracket_table`` are keyed by caller input:
    filling twice their bound keeps them at it, and an evicted configuration
    certifies and pages again exactly as before."""
    bound = spectral._period_table.cache_info().maxsize
    assert 32 < bound and bv.bracket_table.cache_info().maxsize == bound
    first = AlgebraConfig(1, BVCase.B_WXVW)
    clear_period_tables()
    before = verify_collapse(first, 40), e3_page(SSConfig(first, Component.G, 40))
    configs = [AlgebraConfig(n, case) for n in range(2, 2 + bound // 2) for case in ALL_CASES]
    assert len(configs) == 2 * bound
    for cfg in configs:
        assert verify_collapse(cfg, 20).all_degrees
    for table in (spectral._period_table, bv.bracket_table):
        assert table.cache_info().currsize <= bound
    misses = spectral._period_table.cache_info().misses
    after = verify_collapse(first, 40), e3_page(SSConfig(first, Component.G, 40))
    assert spectral._period_table.cache_info().misses == misses + 1  # it was evicted
    assert after == before


@pytest.mark.parametrize(
    "delta_fn", [wrapped_delta, zero_delta, moving_delta], ids=["wrapped", "zero", "moving"]
)
def test_other_operators_skip_the_rank_table(delta_fn, monkeypatch):
    """A page of cutoff D reads ranks at fiber indices 0..D-1 only: D calls
    per ``e3_page``, none at D = 0, and 2D per ``verify_collapse``."""
    cfg = AlgebraConfig(2, BVCase.A_V)
    verify_collapse(cfg, 30)
    table = spectral._period_table(cfg)
    dims, columns, proofs = dict(table.dims), dict(table.columns), dict(table.proofs)
    info = spectral._period_table.cache_info()
    calls = []
    monkeypatch.setattr(spectral, "d2_rank", counting(d2_rank, calls))
    # 30 twice: a repeated call ranks again
    for limit in (0, 1, 2, 10, 30, 30):
        for comp in (Component.E, Component.G):
            calls.clear()
            e3_page(SSConfig(cfg, comp, limit), delta_fn)
            assert [q for *_, q, fn in calls] == list(range(-cfg.dim, limit - cfg.dim))
            assert {fn for *_, fn in calls} == ({delta_fn} if limit else set())
        calls.clear()
        verify_collapse(cfg, limit, delta_fn)
        assert len(calls) == 2 * limit
    # pages read the dimensions; nothing fills, replaces or changes the entry
    after = spectral._period_table.cache_info()
    assert (after.misses, after.currsize) == (info.misses, info.currsize)
    assert spectral._period_table(cfg) is table
    assert (table.dims, table.columns, table.proofs) == (dims, columns, proofs)


@pytest.mark.parametrize("n", range(1, 9))
def test_verify_collapse_covers_all_degrees_for_builtin_delta(n):
    for case in ALL_CASES:
        cfg = AlgebraConfig(n, case)
        for limit in (0, 4 * n + 1, 97):
            report = verify_collapse(cfg, limit)
            assert report.all_degrees and report.passed, (case, limit)
            assert report.computed == expand(total_series(n), limit).coefficients
            wrapped = verify_collapse(cfg, limit, wrapped_delta)
            assert not wrapped.all_degrees
            for name in ("passed", "e_page_stable", "computed", "expected", "first_mismatch"):
                assert getattr(wrapped, name) == getattr(report, name), (case, limit, name)
            assert not verify_collapse(cfg, limit, zero_delta).all_degrees


@pytest.mark.parametrize("n", [1, 2, 5])
def test_verify_collapse_cutoff_follows_closed_form_degrees(n, monkeypatch):
    """A closed form off by t^j agrees through any cutoff below j but in no
    degree bound fixed in advance, so the proof must not claim every degree."""
    for limit in (0, 4 * n + 1):
        for j in (limit + 1, 6 * n + 8, 10 * n + 50):
            bumped = total_series(n) + series.RationalSeries((0,) * j + (1,))
            monkeypatch.setattr(series, "total_series", lambda _n, r=bumped: r)
            for case in ALL_CASES:
                report = verify_collapse(AlgebraConfig(n, case), limit)
                assert report.passed and not report.all_degrees, (limit, j, case)
                assert report.computed == expand(bumped, limit).coefficients


# Closed forms that agree with the pages of every case below degree m and
# differ at m.  In lowest terms total_series(n) is a/b with a and b of degree
# 2n+1, and each form has a den - num b = c t^m, so m is the latest first
# mismatch its degrees allow: deg den + 2n+1 ("den") or deg num + 2n+1
# ("num").  The other term of K = max(4n+4 + deg den, deg num + 4n+2) stays
# below m, so the named term alone must reach m.
LATE_MISMATCHES = {
    "n1-den": (1, (-406, -3, -409), (-203, 100, 253, -72, -36, -24, -12), 9),
    "n1-num": (1, (-58, -21, -79, -36, -36, -24, -24, -12, -12), (-29, 4, 31), 11),
    "n2-num": (2, (-116, -30, -146, -75, -191, -90, -90, -90, -90, -45, -45, -45, -45),
               (-58, 14, 7, -4, 56), 17),
    "n3-den": (3, (-197170, 63, -197107, 0, -197170, -189, -197359),
               (-98585, 49324, 24662, 12268, 6134, 3004, 100087, -48384, -24192, -12096,
                -6048, -3024, -1512, -1008, -504), 21),
}


@pytest.mark.parametrize("key", sorted(LATE_MISMATCHES))
def test_certificate_bound_reaches_the_latest_first_mismatch(key, monkeypatch):
    n, num, den, m = LATE_MISMATCHES[key]
    late = series.RationalSeries(num, den)
    monkeypatch.setattr(series, "total_series", lambda _n: late)
    for case in ALL_CASES:
        cfg = AlgebraConfig(n, case)
        report = verify_collapse(cfg, m - 1)
        assert report.passed and not report.all_degrees, case
        assert verify_collapse(cfg, m).first_mismatch[0] == m, case


def bruteforce_rank(rows):
    """Rank from exhaustive kernel enumeration: scan all 2^dim row combinations."""
    kernel = 0
    for picks in itertools.product((0, 1), repeat=len(rows)):
        acc = 0
        for pick, row in zip(picks, rows):
            if pick:
                acc ^= row
        if acc == 0:
            kernel += 1
    null_dim = kernel.bit_length() - 1  # kernel size is a power of two
    return len(rows) - null_dim


def test_ssconfig_validation():
    with pytest.raises(InputError):
        SSConfig(AlgebraConfig(1), Component.E, -1)


@pytest.mark.parametrize("cutoff", [True, False, 7.0, "7", None])
def test_non_integer_cutoff_is_refused(cutoff):
    cfg = AlgebraConfig(1)
    with pytest.raises(InputError, match="max_top_degree must be an integer"):
        SSConfig(cfg, Component.E, cutoff)
    with pytest.raises(InputError, match="max_top_degree must be an integer"):
        verify_collapse(cfg, cutoff)


def test_e2_entries_repeat_fiber_dimensions():
    cfg = AlgebraConfig(1, BVCase.A_V)
    ss = SSConfig(cfg, Component.E, 30)
    page = e2_page(ss)
    for p in range(0, 12):
        assert page.dim(p, 0) == 2  # basis {1, x^(2n) w}
    for (p, q), d in page.entries.items():
        assert d == dimension(cfg, Component.E, q)
        assert 2 * p + q + cfg.dim <= 30


@pytest.mark.parametrize("n", [1, 2, 3])
def test_e2_bottom_fiber_degree(n):
    cfg = AlgebraConfig(n)
    ss = SSConfig(cfg, Component.G, 20)
    page = e2_page(ss)
    assert page.dim(0, -(2 * n + 1)) == 1  # the single class x^(2n+1) v


def test_d2_matrix_rows_match_delta():
    cfg = AlgebraConfig(1, BVCase.A_V)
    q = -1  # basis {x v, x^3 v w}, both with odd x exponent
    mono = basis(cfg, Component.G, q)
    assert mono == (Monomial(1, 1, 0), Monomial(3, 1, 1))
    target = basis(cfg, Component.G, q + 1)
    rows = d2_matrix(cfg, Component.G, q)
    assert rows == [1 << target.index(Monomial(0, 1, 0)), 1 << target.index(Monomial(2, 1, 1))]
    assert d2_rank(cfg, Component.G, q) == 2
    # an operator whose image leaves the degree-(q+1) basis is refused
    refusal = (
        "^image term x[*]v of monomial x[*]v in degree -1 "
        "is not a basis monomial of degree 0 in component g$"
    )
    with pytest.raises(InputError, match=refusal):
        d2_matrix(cfg, Component.G, q, lambda u, cfg: u)


@pytest.mark.parametrize("case", ALL_CASES)
def test_d2_rank_zero_on_contractible_component(case):
    cfg = AlgebraConfig(2, case)
    for q in range(-5, 25):
        assert d2_rank(cfg, Component.E, q) == 0


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("case", ALL_CASES)
def test_d2_rank_matches_bruteforce_nullspace(n, case):
    cfg = AlgebraConfig(n, case)
    for comp in (Component.E, Component.G):
        for q in range(-(2 * n + 1), 12 * n + 1):
            rows = d2_matrix(cfg, comp, q)
            assert len(rows) <= 12
            assert d2_rank(cfg, comp, q) == bruteforce_rank(rows)


def test_rank_bounded_by_adjacent_dimensions():
    cfg = AlgebraConfig(2, BVCase.B_WXVW)
    for q in range(-5, 25):
        rk = d2_rank(cfg, Component.G, q)
        assert rk <= min(
            dimension(cfg, Component.G, q), dimension(cfg, Component.G, q + 1)
        )


@pytest.mark.parametrize("case", ALL_CASES)
def test_e3_equals_e2_on_contractible_component(case):
    cfg = AlgebraConfig(1, case)
    ss = SSConfig(cfg, Component.E, 40)
    assert e3_page(ss).entries == e2_page(ss).entries


@pytest.mark.parametrize("case", ALL_CASES)
def test_e3_noncontractible_lives_in_column_zero(case):
    cfg = AlgebraConfig(2, case)
    ss = SSConfig(cfg, Component.G, 40)
    e3 = e3_page(ss)
    e2 = e2_page(ss)
    for (p, q), d in e3.entries.items():
        assert p == 0
        assert d <= e2.dim(p, q)
    # surviving dimensions count exactly the odd-x-exponent basis classes
    for q in range(-cfg.dim, 40 - cfg.dim + 1):
        odd = [m for m in basis(cfg, Component.G, q) if m.a % 2 == 1]
        assert e3.dim(0, q) == len(odd)


@pytest.mark.parametrize("n", [1, 2])
def test_e3_g_page_is_case_independent_entrywise(n):
    pages = []
    for case in ALL_CASES:
        ss = SSConfig(AlgebraConfig(n, case), Component.G, 40)
        pages.append(e3_page(ss).entries)
    assert all(entries == pages[0] for entries in pages)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("case", ALL_CASES)
def test_page_series_match_closed_forms(n, case):
    cfg = AlgebraConfig(n, case)
    limit = 60
    ss_e = SSConfig(cfg, Component.E, limit)
    ss_g = SSConfig(cfg, Component.G, limit)
    got_e = page_series(e3_page(ss_e), ss_e).coefficients
    got_g = page_series(e3_page(ss_g), ss_g).coefficients
    assert got_e == expand(le_series(n), limit).coefficients
    assert got_g == expand(lg_series(n), limit).coefficients


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("delta_fn", [bv.delta, moving_delta], ids=["delta", "moving"])
def test_page_series_is_the_sum_over_cells_of_each_degree(n, delta_fn):
    """Degree k of the series is the sum of dim(p, i - shift) over 2p + i = k,
    read cell by cell; the moving operator's pages hold negative cells."""
    negative = False
    for case in ALL_CASES:
        cfg = AlgebraConfig(n, case)
        for limit in (0, 1, 2, 3, 4 * n, 97):
            for comp in (Component.E, Component.G):
                ss = SSConfig(cfg, comp, limit)
                for page in (e2_page(ss), e3_page(ss, delta_fn)):
                    want = tuple(
                        sum(page.dim(p, k - 2 * p - cfg.dim) for p in range(k // 2 + 1))
                        for k in range(limit + 1)
                    )
                    assert page_series(page, ss).coefficients == want, (case, limit, comp)
                    assert page_to_json(page, ss)["series"] == list(want)
                    negative = negative or any(d < 0 for *_, d in page.cells())
    assert negative is (delta_fn is moving_delta)


def test_empty_page_series_is_zero():
    cfg = AlgebraConfig(1)
    ss = SSConfig(cfg, Component.G, 10)
    page = Page(3, cfg.dim, 10, (0,) * 11, (0,) * 9)
    assert page_series(page, ss).coefficients == (0,) * 11
    assert list(page.cells()) == [] and page.entries == {}


@pytest.mark.parametrize("n", range(1, 6))
def test_verify_collapse_passes(n):
    report = verify_collapse(AlgebraConfig(n, BVCase.B_WXVW), 60)
    assert report.passed
    assert report.e_page_stable
    assert report.first_mismatch is None


def test_verify_collapse_trivial_cutoff():
    report = verify_collapse(AlgebraConfig(1), 0)
    assert report.passed
    assert report.computed == (2,)


def test_verify_collapse_detects_corrupted_delta():
    # negative control: a BV operator that kills every bracket leaves the
    # second page alone and overshoots the known total
    report = verify_collapse(AlgebraConfig(1), 30, delta_fn=zero_delta)
    assert not report.passed
    assert report.first_mismatch is not None
    degree, got, want = report.first_mismatch
    assert got > want  # surplus classes, nothing was killed
    assert report.e_page_stable  # the contractible side is untouched


def test_verify_collapse_total_matches_both_component_series():
    n = 2
    report = verify_collapse(AlgebraConfig(n), 50)
    assert report.computed == expand(total_series(n), 50).coefficients
    assert report.expected == expand(total_series(n), 50).coefficients


def test_page_json_round_trip():
    cfg = AlgebraConfig(1, BVCase.A_VXW)
    ss = SSConfig(cfg, Component.G, 25)
    page = e3_page(ss)
    obj = page_to_json(page, ss)
    assert set(obj) == {"page", "entries", "series"}
    assert page_from_json(obj, ss) == page
    second = e2_page(ss)
    assert page_from_json(page_to_json(second, ss), ss) == second


@pytest.mark.parametrize("first, rest", [(5, 2), (4, 3), (6, 3), (5, 0)])
def test_page_refuses_one_column_of_the_wrong_length(first, rest):
    """At cutoff 4 ``first`` has 5 entries and ``rest`` 3; a longer ``rest``
    is cut to 3, a longer or shorter ``first`` or a shorter ``rest`` is
    refused, whichever column is wrong alone."""
    with pytest.raises(InputError, match=f"lengths {first} and {rest} do not fit the cutoff 4"):
        Page(3, 3, 4, (0,) * first, (0,) * rest)
    assert Page(3, 3, 4, (0,) * 5, (1,) * 7).rest == (1, 1, 1)


def test_page_from_json_rejects_malformed():
    ss = SSConfig(AlgebraConfig(1), Component.G, 10)
    with pytest.raises(InputError):
        page_from_json({"page": 3}, ss)


def _insert_sorted(entries, cell):
    entries.append(cell)
    entries.sort(key=lambda e: (e["p"], e["q"]))


def _negate_dim(obj, shift):
    # consistent apart from the sign: the non-contractible third page lives in
    # column 0, so the series coefficient at q + shift is that cell alone
    cell = obj["entries"][0]
    cell["dim"] = -cell["dim"]
    obj["series"][cell["q"] + shift] = cell["dim"]


REFUSED_PAGE_SHAPES = {
    "page-not-int": lambda obj, shift: obj.update(page="seven"),
    "page-below-two": lambda obj, shift: obj.update(page=1),
    "dim-not-int": lambda obj, shift: obj["entries"][0].update(dim="x"),
    "q-float": lambda obj, shift: obj["entries"][0].update(q=float(obj["entries"][0]["q"])),
    "dim-bool": lambda obj, shift: obj["entries"][0].update(dim=True),
    "series-float": lambda obj, shift: obj["series"].__setitem__(0, float(obj["series"][0])),
    "negative-p": lambda obj, shift: obj["entries"].insert(0, {"p": -4, "q": 0, "dim": 1}),
    "negative-dim": _negate_dim,
    "duplicate-cell": lambda obj, shift: obj["entries"].insert(
        1, dict(obj["entries"][0], dim=obj["entries"][0]["dim"] + 1)
    ),
    "past-cutoff": lambda obj, shift: obj["entries"].append({"p": 9, "q": -shift, "dim": 1}),
    "missing-cell": lambda obj, shift: obj["entries"].pop(),
    "unsorted": lambda obj, shift: obj["entries"].reverse(),
    "zero-cell": lambda obj, shift: _insert_sorted(obj["entries"], {"p": 0, "q": 0, "dim": 0}),
    "wrong-series": lambda obj, shift: obj["series"].__setitem__(3, obj["series"][3] + 1),
    "extra-key": lambda obj, shift: obj.update(extra=1),
}


@pytest.mark.parametrize("shape", sorted(REFUSED_PAGE_SHAPES))
def test_page_from_json_refuses(shape):
    comp = Component.G if shape == "negative-dim" else Component.E
    cfg = AlgebraConfig(1)
    ss = SSConfig(cfg, comp, 16)
    obj = page_to_json(e3_page(ss), ss)
    assert page_from_json(obj, ss) == e3_page(ss)
    REFUSED_PAGE_SHAPES[shape](obj, cfg.dim)
    with pytest.raises(InputError):
        page_from_json(obj, ss)


def test_page_from_json_refuses_other_column_shape():
    """A page whose columns p >= 2 differ from p = 1 is not a two-column page."""
    ss = SSConfig(AlgebraConfig(1), Component.E, 16)
    obj = page_to_json(e3_page(ss), ss)
    cell = next(e for e in obj["entries"] if e["p"] == 2)
    cell["dim"] += 1
    obj["series"][2 * cell["p"] + cell["q"] + ss.algebra.dim] += 1
    with pytest.raises(InputError):
        page_from_json(obj, ss)


def test_page_from_json_refuses_other_configuration():
    ss = SSConfig(AlgebraConfig(1), Component.E, 16)
    obj = page_to_json(e3_page(ss), ss)
    for other in (SSConfig(AlgebraConfig(1), Component.E, 15),
                  SSConfig(AlgebraConfig(2), Component.E, 16)):
        with pytest.raises(InputError):
            page_from_json(obj, other)
        with pytest.raises(InputError):
            page_series(e3_page(ss), other)


def test_pages_stay_column_backed_at_large_cutoff(monkeypatch):
    """``e3_page``, ``page_series`` and ``dim`` never walk the cells: at n=1,
    D=10^5 a page has about 2.5e9 of them."""

    def no_cells(self):
        raise AssertionError("Page.cells called")

    monkeypatch.setattr(Page, "cells", no_cells)
    limit = 10**5
    cfg = AlgebraConfig(1, BVCase.B_WXVW)
    for comp, closed in ((Component.E, le_series), (Component.G, lg_series)):
        ss = SSConfig(cfg, comp, limit)
        page = e3_page(ss)
        assert page == e3_page(ss)
        assert page_series(page, ss).coefficients == expand(closed(1), limit).coefficients
        for q in (-3, -2, 0, 1, 4, limit // 2, limit - 4, limit - 3):
            if comp is Component.E:  # the contractible page is its second page
                column_0 = column_p = dimension(cfg, comp, q)
            else:  # only the odd powers of x survive, in column 0
                column_0, column_p = sum(m.a % 2 for m in basis(cfg, comp, q)), 0
            top_p = (limit - q - cfg.dim) // 2
            assert page.dim(0, q) == column_0, (comp, q)
            if top_p:
                assert page.dim(1, q) == page.dim(top_p, q) == column_p, (comp, q)
            assert page.dim(top_p + 1, q) == page.dim(-1, q) == 0
        assert page.dim(0, -4) == page.dim(0, limit - 2) == 0


def test_page_of_a_non_component_is_refused():
    for build in (e2_page, e3_page):
        with pytest.raises(InputError, match="unknown component 'e'"):
            build(SSConfig(AlgebraConfig(1), "e", 10))


@pytest.mark.parametrize("comp", ["e", None, "E"])
def test_a_non_component_is_refused_when_the_configuration_is_built(comp):
    """Reading a page back or summing its series takes the component from
    the configuration, so a configuration must not hold anything else."""
    cfg = AlgebraConfig(1)
    good = SSConfig(cfg, Component.E, 10)
    page = e3_page(good)
    obj = page_to_json(page, good)
    with pytest.raises(InputError, match="unknown component"):
        page_from_json(obj, SSConfig(cfg, comp, 10))
    with pytest.raises(InputError, match="unknown component"):
        page_series(page, SSConfig(cfg, comp, 10))
