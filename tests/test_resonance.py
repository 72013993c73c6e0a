import random
import re
from fractions import Fraction
from math import floor

import pytest

from loopbv.resonance import (
    MORSE_ITERATE_BUDGET,
    GeodesicRecord,
    _index_model,
    _rounded_linear_index,
    index_sequence,
    load_problem,
    mean_euler,
    morse_truncation,
    nondegenerate_check,
    nondegenerate_record,
    record_from_dict,
    resonance_check,
)
from loopbv.ring import InputError
from loopbv.series import average_alternating, lg_series


def test_record_validation():
    with pytest.raises(InputError):
        GeodesicRecord("bad", 0, Fraction(0), 2, {(1, 0): 1})
    with pytest.raises(InputError):
        GeodesicRecord("bad", 0, Fraction(1), 3, {(1, 0): 1})  # odd period
    with pytest.raises(InputError, match="period must be a positive even integer"):
        GeodesicRecord("a", 0, 1, 0)  # period 0: mean_euler would divide by it
    with pytest.raises(InputError):
        GeodesicRecord("bad", -1, Fraction(1), 2, {(1, 0): 1})
    with pytest.raises(InputError):
        GeodesicRecord("bad", 0, Fraction(1), 2, {(2, 0): 1})  # m beyond period/2
    with pytest.raises(InputError):
        GeodesicRecord("bad", 0, Fraction(1), 2, {(1, -1): 1})


def test_mean_euler_single_term():
    rec = GeodesicRecord("c", 0, Fraction(1), 2, {(1, 0): 1})
    assert mean_euler(rec, 1) == Fraction(1, 2)
    odd = GeodesicRecord("c", 1, Fraction(1), 2, {(1, 0): 1})
    assert mean_euler(odd, 1) == Fraction(-1, 2)


def test_mean_euler_cancelling_terms():
    rec = GeodesicRecord("c", 0, Fraction(1), 4, {(1, 0): 1, (2, 1): 1})
    assert mean_euler(rec, 1) == 0


def test_mean_euler_depends_only_on_index_parity():
    rec0 = GeodesicRecord("c", 0, Fraction(1), 2, {(1, 0): 1, (1, 2): 3})
    rec2 = GeodesicRecord("c", 2, Fraction(1), 2, {(1, 0): 1, (1, 2): 3})
    assert mean_euler(rec0, 1) == mean_euler(rec2, 1)


def test_mean_euler_rejects_out_of_range_degree():
    rec = GeodesicRecord("c", 0, Fraction(1), 2, {(1, 5): 1})
    with pytest.raises(InputError):
        mean_euler(rec, 1)  # l must stay within 0..4n
    assert mean_euler(rec, 2) == Fraction(-1, 2)


def test_resonance_check_passes_for_matching_sum():
    records = [nondegenerate_record("a", 0, 1), nondegenerate_record("b", 2, 1)]
    report = resonance_check(records, 1)
    assert report.passed
    assert report.total == report.target == 1
    assert report.per_geodesic == {"a": Fraction(1, 2), "b": Fraction(1, 2)}


def test_resonance_check_single_record():
    records = [GeodesicRecord("c", 0, Fraction(1, 2), 2, {(1, 0): 1})]
    report = resonance_check(records, 1)
    assert report.passed
    assert report.total == 1


def test_resonance_check_failure_reports_diff():
    records = [nondegenerate_record("c", 0, 1)]
    report = resonance_check(records, 1)
    assert not report.passed
    assert report.total == Fraction(1, 2)
    assert report.target == 1


def test_resonance_check_empty_is_vacuous_fail():
    report = resonance_check([], 1)
    assert not report.passed
    assert report.vacuous
    assert report.total == 0
    nd = nondegenerate_check([], 1)
    assert (nd.total, nd.target, nd.passed, nd.consistent_with_full) == (0, 2, False, False)


@pytest.mark.parametrize("n", range(1, 41))
def test_the_target_is_the_average_of_the_non_contractible_series(n):
    """``resonance_check`` writes (n+1)/(2n) out; it is the Cesàro average of
    the alternating Betti numbers of ``lg_series(n)``, and the nondegenerate
    target is twice it."""
    records = [nondegenerate_record("a", 0, 1), nondegenerate_record("b", 2, 3)]
    target = average_alternating(lg_series(n))
    assert resonance_check(records, n).target == target
    assert nondegenerate_check(records, n).target == 2 * target


def test_resonance_check_rejects_duplicate_labels():
    records = [nondegenerate_record("twin", 0, 1), nondegenerate_record("twin", 2, 1)]
    with pytest.raises(InputError):
        resonance_check(records, 1)


def test_nondegenerate_check_n1():
    records = [nondegenerate_record("a", 0, 1), nondegenerate_record("b", 2, 1)]
    report = nondegenerate_check(records, 1)
    assert report.passed
    assert report.total == report.target == 2
    assert report.consistent_with_full


def test_nondegenerate_check_n2():
    records = [
        nondegenerate_record("a", 0, Fraction(4, 3)),
        nondegenerate_record("b", 4, Fraction(4, 3)),
    ]
    report = nondegenerate_check(records, 2)
    assert report.passed
    assert report.total == report.target == Fraction(3, 2)
    assert report.consistent_with_full


def test_nondegenerate_check_odd_index_fails():
    records = [nondegenerate_record("c", 1, 1)]
    report = nondegenerate_check(records, 1)
    assert not report.passed
    assert report.total == -1
    assert report.target == 2
    # for nondegenerate data the two checks agree on the verdict
    assert not resonance_check(records, 1).passed


def test_nondegenerate_and_full_check_agree_on_nondegenerate_sets():
    passing = [nondegenerate_record("a", 0, 1), nondegenerate_record("b", 2, 1)]
    failing = [nondegenerate_record("a", 0, 1), nondegenerate_record("b", 2, 2)]
    # a type number of 0 is no type number: the record is still nondegenerate
    zeros = [GeodesicRecord("a", 0, Fraction(1), 2, {(1, 0): 1, (1, 3): 0}), nondegenerate_record("b", 2, 1)]
    for records in (passing, failing, zeros):
        assert nondegenerate_check(records, 1).passed == resonance_check(records, 1).passed


def test_nondegenerate_check_rejects_general_record():
    # a period other than 2, or any type numbers but k = 1 at (1, 0)
    for period, type_numbers in [(4, {(1, 0): 1}), (2, {(1, 1): 1}), (2, {(1, 0): 2}),
                                 (2, {(1, 0): 1, (1, 2): 1}), (2, {})]:
        general = GeodesicRecord("gen", 0, Fraction(1), period, type_numbers)
        with pytest.raises(InputError) as err:
            nondegenerate_check([nondegenerate_record("a", 0, 1), general], 1)
        assert "gen: not nondegenerate" in str(err.value)


def test_index_sequence_rounded_linear():
    rec = GeodesicRecord("c", 0, Fraction(1), 2, {(1, 0): 1})
    assert index_sequence(rec, 1, "rounded-linear", 5) == [0, 2, 4, 6, 8]


def test_index_sequence_tie_breaks_downward():
    rec = GeodesicRecord("c", 1, Fraction(2), 2, {(1, 0): 1})
    # iterate N has target 2N (even) while indices must be odd: ties go down
    assert index_sequence(rec, 1, "rounded-linear", 3) == [1, 5, 9]


def test_index_sequence_parity_matches_initial_index():
    rec = GeodesicRecord("c", 3, Fraction(5, 4), 2, {(1, 0): 1})
    for value in index_sequence(rec, 2, "rounded-linear", 20):
        assert value % 2 == 1


def test_index_sequence_respects_deviation_bound():
    rec = GeodesicRecord("c", 0, Fraction(7, 5), 2, {(1, 0): 1})
    for j, value in enumerate(index_sequence(rec, 1, "rounded-linear", 30)):
        iterate = 2 * j + 1
        assert abs(Fraction(value) - rec.mean_index * iterate) <= 2


def test_index_sequence_explicit_list_validation():
    rec = GeodesicRecord("c", 0, Fraction(1), 2, {(1, 0): 1})
    assert index_sequence(rec, 1, [0, 2, 4], 3) == [0, 2, 4]
    with pytest.raises(InputError):
        index_sequence(rec, 1, [0, 3, 4], 3)  # parity break at the second entry
    with pytest.raises(InputError):
        index_sequence(rec, 1, [0, 2, 10], 3)  # deviation bound break
    with pytest.raises(InputError):
        index_sequence(rec, 1, [0, 2], 3)  # too short
    with pytest.raises(InputError):
        index_sequence(rec, 1, "linear", 3)  # unknown model name


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("initial_index", -1, "c: initial index must be nonnegative, got -1"),
        ("type_numbers", {(1, -1): 1}, "c: degree l must be nonnegative, got -1"),
        ("type_numbers", {(1, 0): -1}, "c: type number k must be nonnegative, got -1"),
        ("nullities", (0, -1), "c: nullity must be nonnegative, got -1"),
    ],
    ids=["initial-index", "degree-l", "type-number-k", "nullity"],
)
def test_record_refuses_negative_counts(field, value, message):
    fields = dict(label="c", initial_index=0, mean_index=Fraction(1), period=2,
                  type_numbers={(1, 0): 1})
    fields[field] = value
    with pytest.raises(InputError) as err:
        GeodesicRecord(**fields)
    assert str(err.value) == message


def test_unknown_model_name_is_refused_before_any_iterate():
    rec = GeodesicRecord("c", 0, Fraction(1), 2, {(1, 0): 1})
    with pytest.raises(InputError, match="unknown index model 'linear'"):
        index_sequence(rec, 1, "linear", 0)
    with pytest.raises(InputError, match="unknown index model 'linear'"):
        morse_truncation([], 1, 5, model="linear")
    with pytest.raises(InputError, match="unknown index model 'linear'"):
        morse_truncation([rec], 1, 0, model={"c": "linear"})


def test_model_mapping_without_a_record_label_is_refused():
    records = [nondegenerate_record("c", 0, 1), nondegenerate_record("d", 0, 1)]
    with pytest.raises(InputError, match="^d: the index model mapping has no entry"):
        morse_truncation(records, 1, 10, model={"c": [2 * j for j in range(10)]})


def test_zero_mean_index_is_rejected_at_construction():
    with pytest.raises(InputError):
        GeodesicRecord("flat", 0, Fraction(0), 2, {(1, 0): 1})


def test_morse_truncation_single_nondegenerate():
    records = [nondegenerate_record("c", 0, 1)]
    result = morse_truncation(records, 1, 20)
    assert result.counts == tuple(1 if h % 2 == 0 else 0 for h in range(21))
    assert result.alternating_sum == 11
    assert result.average == Fraction(11, 20)


def test_morse_truncation_zero_degree():
    records = [nondegenerate_record("c", 0, 1)]
    result = morse_truncation(records, 1, 0)
    assert result.counts == (1,)
    assert result.alternating_sum == 1
    assert result.average is None


def test_morse_truncation_converges_to_weighted_sum():
    records = [nondegenerate_record("c", 0, 1)]
    target = resonance_check(records, 1).total  # 1/2 for this single record
    errors = []
    for q in (100, 1000, 10000):
        result = morse_truncation(records, 1, q)
        errors.append(abs(result.average - target))
    assert errors[2] < errors[1] < errors[0]


def test_morse_truncation_with_explicit_sequences():
    records = [nondegenerate_record("c", 0, 1)]
    explicit = {"c": [2 * j for j in range(60)]}
    direct = morse_truncation(records, 1, 100, model=explicit)
    modelled = morse_truncation(records, 1, 100)
    assert direct == modelled


def test_morse_truncation_reaches_the_last_iterates_at_n_3():
    """Iterate 7 of a mean-index-4 geodesic has index 22 = 4 * 7 - 2n at n = 3,
    so q = 22 counts it only through the full slack 2n in the last iterate."""
    rec = GeodesicRecord("c", 4, 4, 2, {(1, 0): 1})
    result = morse_truncation([rec], 3, 22, model=[4, 12, 20, 22, 36])
    assert result.counts[22] == 1
    assert result.alternating_sum == 4


def test_morse_truncation_over_iterate_budget_names_the_count():
    # (102 * 100000 - 1) / 2 rounded down, plus one: 5,100,000 iterates
    records = [nondegenerate_record("slow", 0, Fraction(1, 100000))]
    with pytest.raises(InputError, match="needs 5100000 iterates"):
        morse_truncation(records, 1, 100)


def test_morse_truncation_counts_the_q_slots_against_the_budget():
    # q + 1 count slots are allocated: more than the budget is refused before
    # any is, with no record or with few iterates alike
    top = MORSE_ITERATE_BUDGET - 1
    assert len(morse_truncation([], 1, top).counts) == MORSE_ITERATE_BUDGET
    for records, q in (
        ([], top + 1),
        ([], 10**9),
        ([nondegenerate_record("c", 0, 10**6)], 10**7),
        ([nondegenerate_record("c", 0, 10**6)], 10**9),
    ):
        message = (f"truncation degree {q} needs {q + 1} count slots, more than the "
                   f"budget of {MORSE_ITERATE_BUDGET}")
        with pytest.raises(InputError) as err:
            morse_truncation(records, 1, q)
        assert str(err.value) == message


def test_negative_explicit_index_is_refused_with_the_model():
    # index -2 used to wrap around to the last count slot
    rec = nondegenerate_record("c", 0, 1)
    with pytest.raises(InputError) as err:
        morse_truncation([rec], 2, 10, model={"c": [-2] + [2 * j for j in range(1, 30)]})
    assert str(err.value) == "c: explicit index at iterate 1 must be nonnegative, got -2"
    with pytest.raises(InputError) as err:
        index_sequence(rec, 2, [-2, 2, 4], 3)
    assert str(err.value) == "explicit index at iterate 1 must be nonnegative, got -2"


@pytest.mark.parametrize("n", range(1, 9))
def test_resonance_target_is_the_series_limit(n):
    assert resonance_check([], n).target == average_alternating(lg_series(n))


def test_json_round_trip():
    obj = {
        "n": 1,
        "geodesics": [
            {
                "label": "c1",
                "initial_index": 0,
                "mean_index": "4/3",
                "period": 4,
                "type_numbers": [{"m": 1, "l": 0, "k": 1}, {"m": 2, "l": 2, "k": 1}],
            }
        ],
    }
    n, records = load_problem(obj)
    assert n == 1
    rec = records[0]
    assert rec.mean_index == Fraction(4, 3)
    assert rec.type_numbers == {(1, 0): 1, (2, 2): 1}


def test_json_validation_errors():
    with pytest.raises(InputError):
        load_problem({"geodesics": []})
    with pytest.raises(InputError):
        load_problem({"n": 0, "geodesics": []})
    with pytest.raises(InputError):
        load_problem({"n": True, "geodesics": []})
    with pytest.raises(InputError):
        record_from_dict({"label": "c"})
    with pytest.raises(InputError):
        record_from_dict(
            {"label": "c", "initial_index": 0, "mean_index": "x", "period": 2}
        )
    base = {"label": "c", "initial_index": 0, "mean_index": "4/3", "period": 2,
            "type_numbers": [{"m": 1, "l": 0, "k": 1}]}
    for field, value, message in [
        ("label", 5, "label must be a string, got 5"),
        ("period", 2.0, "period must be an integer"),
        ("initial_index", True, "initial index must be an integer"),
        ("initial_index", 1.0, "initial index must be an integer"),
        ("type_numbers", [{"m": 1, "l": 0, "k": 0.5}], "type number k must be an integer"),
        ("type_numbers", [{"m": True, "l": 0, "k": 1}], "iterate slot m must be an integer"),
        ("type_numbers", [{"m": 1, "l": 0.0, "k": 1}], "degree l must be an integer"),
        ("type_numbers", [{"m": 1, "l": 0, "k": 1}, {"m": 1, "l": 0, "k": 2}],
         "duplicate type-number slot"),
    ]:
        with pytest.raises(InputError, match=message):
            record_from_dict(dict(base, **{field: value}))


def fraction_rounded_index(rec, iterate):
    """Reference rounding in Fraction arithmetic: the nearest integer to
    iterate * mean_index with the initial index's parity, ties downward."""
    t = rec.mean_index * iterate
    low = floor(t)
    if low % 2 != rec.initial_index % 2:
        low -= 1
    return low if t - low <= low + 2 - t else low + 2


def test_integer_index_arithmetic_matches_fraction_oracle():
    rng = random.Random(20)
    ties = deviations = 0
    for _ in range(3000):
        mean = Fraction(rng.randint(1, 60), rng.randint(1, 12))
        rec = GeodesicRecord("c", rng.randint(0, 5), mean, 2, {(1, 0): 1})
        n = rng.randint(1, 4)
        iterate = 2 * rng.randint(0, 400) + 1
        want = fraction_rounded_index(rec, iterate)
        ties += mean * iterate - (want - 1) == 1  # t sits midway between two candidates
        p, r = mean.as_integer_ratio()
        assert _rounded_linear_index(p, r, rec.initial_index % 2, iterate) == want, (
            mean, rec.initial_index, iterate)
        assert _index_model("rounded-linear", n)(rec)(iterate) == want
        # an explicit index of the right parity, near the line or past the bound
        value = want + 2 * rng.randint(-2 * n, 2 * n)
        explicit = [value] * ((iterate - 1) // 2 + 1)
        if value < 0:
            # a Morse index is a count: the model itself is refused
            with pytest.raises(InputError) as err:
                _index_model(explicit, n)
            message = f"explicit index at iterate 1 must be nonnegative, got {value}"
            assert str(err.value) == message
        elif abs(Fraction(value) - mean * iterate) > 2 * n:
            deviations += 1
            message = (f"c: index {value} at iterate {iterate} deviates from "
                       f"{mean * iterate} by more than {2 * n}")
            with pytest.raises(InputError) as err:
                _index_model(explicit, n)(rec)(iterate)
            assert str(err.value) == message
        else:
            assert _index_model(explicit, n)(rec)(iterate) == value
    assert ties >= 100 and deviations >= 100, (ties, deviations)


ENTRY_POINTS = {
    "index_sequence": lambda rec, n: index_sequence(rec, n, "rounded-linear", 3),
    "mean_euler": lambda rec, n: mean_euler(rec, n),
    "morse_truncation": lambda rec, n: morse_truncation([rec], n, 5),
    "nondegenerate_check": lambda rec, n: nondegenerate_check([rec], n),
    "resonance_check": lambda rec, n: resonance_check([rec], n),
}


@pytest.mark.parametrize("n", [0, -1, True, 1.5], ids=["zero", "negative", "bool", "float"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_entry_point_refuses_a_bad_n(entry, n):
    rec = nondegenerate_record("c", 0, 1)
    with pytest.raises(InputError, match=re.escape(f"n must be a positive integer, got {n!r}")):
        ENTRY_POINTS[entry](rec, n)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("type_numbers", 5, "c: type numbers must map (m, l) pairs to k, got 5"),
        ("type_numbers", [((1, 0), 1)],
         "c: type numbers must map (m, l) pairs to k, got [((1, 0), 1)]"),
        ("type_numbers", {1: 1}, "c: type-number slot must be an (m, l) pair, got 1"),
        ("type_numbers", {(1, 0, 0): 1},
         "c: type-number slot must be an (m, l) pair, got (1, 0, 0)"),
        ("mean_index", "x", "c: mean index must be a finite rational, got 'x'"),
        ("mean_index", float("nan"), "c: mean index must be a finite rational, got nan"),
        ("mean_index", float("inf"), "c: mean index must be a finite rational, got inf"),
        ("mean_index", float("-inf"), "c: mean index must be a finite rational, got -inf"),
        ("mean_index", None, "c: mean index must be a finite rational, got None"),
        ("mean_index", True, "c: mean index must be a finite rational, got True"),
        ("mean_index", "1/0", "c: mean index must be a finite rational, got '1/0'"),
        ("nullities", 5, "c: nullities must be a list or tuple, got 5"),
        ("nullities", {0: 1}, "c: nullities must be a list or tuple, got {0: 1}"),
    ],
    ids=["int-type-numbers", "list-type-numbers", "int-slot", "triple-slot", "string-mean",
         "nan-mean", "inf-mean", "minus-inf-mean", "none-mean", "bool-mean", "zero-denominator",
         "int-nullities", "dict-nullities"],
)
def test_record_refuses_malformed_fields(field, value, message):
    fields = dict(label="c", initial_index=0, mean_index=Fraction(1), period=2,
                  type_numbers={(1, 0): 1})
    fields[field] = value
    with pytest.raises(InputError) as err:
        GeodesicRecord(**fields)
    assert str(err.value) == message


def test_record_reads_any_finite_rational_mean_index():
    for value in ("4/3", 1.5, 2, Fraction(4, 3)):
        rec = GeodesicRecord("c", 0, value, 2, nullities=[0])
        assert rec.mean_index == Fraction(value) and type(rec.mean_index) is Fraction


def test_index_sequence_takes_a_label_mapping():
    rec = GeodesicRecord("c", 0, Fraction(1), 2, {(1, 0): 1})
    assert index_sequence(rec, 1, {"c": [0, 2]}, 2) == [0, 2]
    assert index_sequence(rec, 1, {"c": "rounded-linear"}, 3) == [0, 2, 4]
    with pytest.raises(InputError, match="^c: the index model mapping has no entry"):
        index_sequence(rec, 1, {"d": [0, 2]}, 2)


@pytest.mark.parametrize(
    "model, message",
    [
        (5, "index model must be 'rounded-linear', a list or tuple of indices or a mapping "
            "of labels to those, got 5"),
        (None, "index model must be 'rounded-linear', a list or tuple of indices or a "
               "mapping of labels to those, got None"),
        (range(0, 20, 2), "index model must be 'rounded-linear', a list or tuple of "
                          "indices or a mapping of labels to those, got range(0, 20, 2)"),
        ({"c": {"c": [0]}}, "c: index model must be 'rounded-linear', a list or tuple of "
                            "indices, got {'c': [0]}"),
        ({"c": None}, "c: index model must be 'rounded-linear', a list or tuple of indices, "
                      "got None"),
        ([0, 2.0], "explicit index at iterate 3 must be an integer, got 2.0"),
        ([0.0], "explicit index at iterate 1 must be an integer, got 0.0"),
        ((True, 2), "explicit index at iterate 1 must be an integer, got True"),
        ({"c": [0, 2], "zz": [0, True]}, "zz: explicit index at iterate 3 must be an integer, "
                                         "got True"),
        ({"c": "linear"}, "unknown index model 'linear'"),
        ({"c": [0, 2], "zz": [-1]}, "zz: explicit index at iterate 1 must be nonnegative, "
                                    "got -1"),
    ],
    ids=["int", "none", "range", "nested-mapping", "none-in-mapping", "float-entry",
         "float-zero", "bool-entry", "bool-under-other-label", "unknown-name-in-mapping",
         "negative-under-other-label"],
)
def test_index_model_is_refused_before_any_iterate(model, message):
    rec = GeodesicRecord("c", 0, Fraction(1), 2, {(1, 0): 1})
    for call in (
        lambda: index_sequence(rec, 1, model, 0),
        lambda: morse_truncation([], 1, 5, model=model),
        lambda: morse_truncation([rec], 1, 0, model=model),
        # the model is refused before the l-range check and the iterate budget
        lambda: morse_truncation([GeodesicRecord("c", 0, 1, 2, {(1, 9): 1})], 1, 5, model=model),
        lambda: morse_truncation([nondegenerate_record("c", 0, Fraction(1, 10**6))], 1, 5,
                                 model=model),
    ):
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == message


def random_record(rng, label, n, mean=None, parity=None):
    period = rng.choice((2, 4, 6))
    if mean is None:
        den = rng.randint(1, 6)
        mean = Fraction(rng.randint(1, 40 * den), den)
    initial = 2 * rng.randint(0, 3) + (rng.randint(0, 1) if parity is None else parity)
    slots = {(rng.randint(1, period // 2), rng.randint(0, 4 * n)): rng.randint(0, 3)
             for _ in range(rng.randint(1, 4))}
    return GeodesicRecord(label, initial, mean, period, slots)


def random_explicit(rng, rec, n, horizon):
    """Indices for the odd iterates up to ``horizon`` / mean_index, each of the
    initial index's parity, nonnegative and within 2n of iterate * mean_index."""
    out = []
    for iterate in range(1, int(horizon / rec.mean_index) + 3, 2):
        t = rec.mean_index * iterate
        out.append(rng.choice([v for v in range(floor(t - 2 * n), floor(t + 2 * n) + 1)
                               if v >= 0 and v % 2 == rec.initial_index % 2
                               and abs(v - t) <= 2 * n]))
    return out


def recount(records, n, q, index_of):
    """Morse counts w_0..w_q iterate by iterate, reading each index through
    ``index_of(rec, iterate)``; it visits past the last iterate that can land
    at or below q, which must add nothing."""
    counts = [0] * (q + 1)
    for rec in records:
        for (m, l), k in rec.type_numbers.items():
            iterate = 2 * m - 1
            while rec.mean_index * iterate <= q + 4 * n:
                h = l + index_of(rec, iterate)
                if h <= q:
                    counts[h] += k
                iterate += rec.period
    return tuple(counts)


def test_morse_counts_match_a_reference_recount():
    rng = random.Random(18)
    for trial in range(60):
        n, q = rng.randint(1, 3), rng.randint(0, 300)
        records = [random_record(rng, f"g{i}", n) for i in range(rng.randint(1, 3))]
        got = morse_truncation(records, n, q)
        assert got.counts == recount(records, n, q, fraction_rounded_index), trial
        assert got == morse_truncation(records, n, q, model={r.label: "rounded-linear"
                                                              for r in records})
        lists = {r.label: random_explicit(rng, r, n, q + 4 * n) for r in records}
        want = recount(records, n, q, lambda rec, it: lists[rec.label][(it - 1) // 2])
        assert morse_truncation(records, n, q, model=lists).counts == want, trial
        # one list shared by records of one mean index and parity
        first = records[0]
        shared = [random_record(rng, f"s{i}", n, first.mean_index, first.initial_index % 2)
                  for i in range(rng.randint(1, 3))]
        indices = random_explicit(rng, first, n, q + 4 * n)
        want = recount(shared, n, q, lambda rec, it: indices[(it - 1) // 2])
        assert morse_truncation(shared, n, q, model=indices).counts == want, trial
        assert morse_truncation(shared, n, q, model=tuple(indices)).counts == want, trial
