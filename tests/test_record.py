"""The record contract shared by the package's immutable value classes:
repr, equality and hashing, immutability, defaults and construction."""

from fractions import Fraction

import pytest

from loopbv.bv import (
    DeltaTable,
    GeneratorMorphism,
    MorphismReport,
    delta_table,
    identity_morphism,
    verify_morphism_relations,
)
from loopbv.resonance import (
    GeodesicRecord,
    MorseTruncation,
    NondegenerateReport,
    ResonanceReport,
    morse_truncation,
    nondegenerate_check,
    nondegenerate_record,
    resonance_check,
)
from loopbv.ring import (
    AlgebraConfig,
    AlgebraElement,
    BVCase,
    Component,
    Monomial,
    basis,
    element,
    generator,
)
from loopbv.series import RationalSeries, TruncatedSeries, eq_exact, expand, lg_series
from loopbv.spectral import CollapseReport, Page, SSConfig, e3_page, verify_collapse

CFG = AlgebraConfig(1)
SS = SSConfig(CFG, Component.E, 6)


def _record():
    return nondegenerate_record("c", 1, Fraction(3, 2))


# one builder per record class; each call builds a fresh, equal instance
BUILDERS = {
    AlgebraConfig: lambda: AlgebraConfig(2, BVCase.B_W),
    AlgebraElement: lambda: element(Monomial(1, 0, 2)),
    DeltaTable: lambda: delta_table(CFG, Component.G, -1, 0),
    GeneratorMorphism: identity_morphism,
    MorphismReport: lambda: verify_morphism_relations(identity_morphism(), CFG),
    RationalSeries: lambda: lg_series(1),
    TruncatedSeries: lambda: expand(lg_series(1), 4),
    SSConfig: lambda: SSConfig(CFG, Component.E, 6),
    Page: lambda: e3_page(SS),
    CollapseReport: lambda: verify_collapse(CFG, 4),
    GeodesicRecord: _record,
    ResonanceReport: lambda: resonance_check([_record()], 1),
    NondegenerateReport: lambda: nondegenerate_check([_record()], 1),
    MorseTruncation: lambda: morse_truncation([_record()], 1, 4),
}
CLASSES = sorted(BUILDERS, key=lambda cls: cls.__name__)
IDS = [cls.__name__ for cls in CLASSES]

A_V = "AlgebraConfig(n=1, bv_case=<BVCase.A_V: 'A_v'>)"
REPRS = {
    AlgebraConfig: "AlgebraConfig(n=2, bv_case=<BVCase.B_W: 'B_w'>)",
    AlgebraElement: "AlgebraElement(terms=frozenset({Monomial(a=1, b=0, c=2)}))",
    DeltaTable: f"DeltaTable(cfg={A_V}, comp=<Component.G: 'g'>, window=(-1, 0))",
    GeneratorMorphism: (
        "GeneratorMorphism(image_x=AlgebraElement(terms=frozenset({Monomial(a=1, b=0, c=0)})), "
        "image_v=AlgebraElement(terms=frozenset({Monomial(a=0, b=1, c=0)})), "
        "image_w=AlgebraElement(terms=frozenset({Monomial(a=0, b=0, c=1)})))"
    ),
    MorphismReport: (
        "MorphismReport(checks=(('x_image_nilpotent', True, '(image of x)^4 = 0'), "
        "('v_image_relation', True, 'residual 0'), "
        "('x_image_power_law', True, 'all powers match'), "
        "('degreewise_independence', True, 'full rank in every degree')))"
    ),
    RationalSeries: "RationalSeries(numerator=(1, 0, 0, 0, -1), denominator=(1, 0, -2, 0, 1))",
    TruncatedSeries: "TruncatedSeries(coefficients=(1, 0, 2, 0, 2))",
    SSConfig: f"SSConfig(algebra={A_V}, comp=<Component.E: 'e'>, max_top_degree=6)",
    Page: "Page(page_index=3, shift=3, max_top_degree=6)",
    CollapseReport: (
        f"CollapseReport(algebra={A_V}, max_top_degree=4, e_page_stable=True, "
        "computed=(2, 1, 5, 3, 7), expected=(2, 1, 5, 3, 7), first_mismatch=None, "
        "all_degrees=True)"
    ),
    GeodesicRecord: (
        "GeodesicRecord(label='c', initial_index=1, mean_index=Fraction(3, 2), period=2, "
        "type_numbers={(1, 0): 1}, nullities=None, nondegenerate=True)"
    ),
    ResonanceReport: (
        "ResonanceReport(per_geodesic={'c': Fraction(-1, 2)}, total=Fraction(-1, 3), "
        "target=Fraction(1, 1), passed=False, vacuous=False)"
    ),
    NondegenerateReport: (
        "NondegenerateReport(total=Fraction(-2, 3), target=Fraction(2, 1), passed=False, "
        "consistent_with_full=True)"
    ),
    MorseTruncation: (
        "MorseTruncation(counts=(0, 1, 0, 0, 0), alternating_sum=-1, average=Fraction(-1, 4))"
    ),
}

# records holding a dict compare by value but cannot be hashed
UNHASHABLE = {DeltaTable, GeodesicRecord, ResonanceReport}


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_repr_is_pinned(cls):
    obj = BUILDERS[cls]()
    assert type(obj) is cls
    assert repr(obj) == REPRS[cls]


@pytest.mark.parametrize("cls", [c for c in CLASSES if c is not RationalSeries],
                         ids=[i for i in IDS if i != "RationalSeries"])
def test_equal_records_hash_alike(cls):
    a, b = BUILDERS[cls](), BUILDERS[cls]()
    assert a is not b and a == b and not a != b
    assert a != object() and a != ()
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(a)
        assert len({a, b}) == 1


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, monkeypatch):
    """Every field by position takes the one-``zip`` binding, the rest the
    matcher; both give equal records that hash alike, each after one
    ``__post_init__`` (a class with its own ``__init__`` runs none)."""
    values = {f: getattr(BUILDERS[cls](), f) for f in cls._fields}
    calls, post_init = [], cls.__post_init__

    def counted(self):
        calls.append(id(self))
        post_init(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    by_position, by_keyword = cls(*values.values()), cls(**values)
    assert calls == ([] if "__init__" in vars(cls) else [id(by_position), id(by_keyword)])
    for obj in (by_position, by_keyword):
        assert [getattr(obj, f) for f in cls._fields] == list(values.values())
        assert repr(obj) == REPRS[cls]
    if cls is not RationalSeries:  # which compares by identity
        assert by_position == by_keyword
        if cls not in UNHASHABLE:
            assert hash(by_position) == hash(by_keyword)


def test_unequal_records_differ():
    assert AlgebraConfig(1) != AlgebraConfig(1, BVCase.B_W)
    assert AlgebraConfig(1) != SSConfig(AlgebraConfig(1), Component.E, 0)
    assert element(Monomial(1, 0, 0)) != element(Monomial(0, 1, 0))
    assert expand(lg_series(1), 3) != expand(lg_series(1), 4)


def test_basis_cache_hits_for_equal_configs():
    first, second = AlgebraConfig(3, BVCase.B_WXVW), AlgebraConfig(3, BVCase.B_WXVW)
    basis(first, Component.E, 17)
    before = basis.cache_info()
    assert basis(second, Component.E, 17) is basis(first, Component.E, 17)
    after = basis.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
def test_records_refuse_assignment_and_deletion(cls):
    obj = BUILDERS[cls]()
    text = repr(obj)
    field = text[len(cls.__name__) + 1:].split("=", 1)[0]
    for name in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert repr(obj) == text


def test_defaults_and_keyword_construction():
    assert AlgebraConfig(n=2) == AlgebraConfig(2, BVCase.A_V)
    assert AlgebraConfig(bv_case=BVCase.B_W, n=2).bv_case is BVCase.B_W
    assert AlgebraElement(terms=frozenset()) == element()
    assert RationalSeries((1, 1)).denominator == (1,)
    phi = GeneratorMorphism(image_w=generator("w"), image_x=generator("x"), image_v=generator("v"))
    assert GeneratorMorphism._fields == ("image_x", "image_v", "image_w")
    assert phi == identity_morphism()
    report = CollapseReport(CFG, 0, True, (1,), (1,), None)
    assert report.all_degrees is False and report.passed
    assert ResonanceReport({}, Fraction(0), Fraction(1), False).vacuous is False
    first, second = GeodesicRecord("a", 0, 1, 2), GeodesicRecord(label="b", initial_index=0,
                                                                   mean_index=1, period=2)
    assert first.type_numbers == {} and first.type_numbers is not second.type_numbers
    assert GeodesicRecord("c", 0, 1, 2, None).type_numbers == {}
    assert (first.nullities, first.nondegenerate) == (None, None)
    assert first.mean_index == Fraction(1) and type(first.mean_index) is Fraction


@pytest.mark.parametrize(
    "build",
    [
        lambda: AlgebraConfig(),
        lambda: AlgebraConfig(1, bogus=2),
        lambda: AlgebraConfig(1, n=1),
        lambda: AlgebraConfig(1, BVCase.A_V, 3),
        lambda: AlgebraElement(),
        lambda: AlgebraElement(frozenset(), frozenset()),
        lambda: GeneratorMorphism(generator("x"), generator("v")),
        lambda: GeneratorMorphism(generator("x"), generator("v"), generator("w"), a=(0, 0, 0)),
        lambda: SSConfig(CFG, Component.E),
        lambda: GeodesicRecord("a", 0, 1, period=2, colour="red"),
        lambda: TruncatedSeries(),
        lambda: Page(3, 3, 0, first=(0,)),
    ],
)
def test_missing_or_unknown_arguments_raise_type_error(build):
    with pytest.raises(TypeError):
        build()


def test_rational_series_compare_by_identity():
    r, s = lg_series(1), lg_series(1)
    assert r == r and r != s and eq_exact(r, s)
    assert hash(r) != hash(s)
    assert len({r, s}) == 2
