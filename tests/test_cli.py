import hashlib
import itertools
import json
import os
import pathlib
import re
import shlex
import shutil
import subprocess
import sys

import pytest

import loopbv
from loopbv import series, spectral
from loopbv.cli import CASE_CHOICES, main
from loopbv.ring import AlgebraConfig, BVCase, Component, basis
from loopbv.spectral import SSConfig, e3_page, page_from_json

ROOT = pathlib.Path(__file__).parent.parent
# the directory the imported package sits in: src, or site-packages when installed
PACKAGE_PARENT = pathlib.Path(loopbv.__file__).parent.parent
FIXTURES = ROOT / "tests" / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0


@pytest.mark.parametrize(
    "sub", ["ring", "bv", "pages", "series", "verify", "resonance"]
)
def test_every_subcommand_has_help(sub, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([sub, "--help"])
    assert exit_info.value.code == 0
    assert sub in capsys.readouterr().out


def test_installed_script_is_this_cli():
    """pyproject.toml (read by regex: Python 3.10 has no tomllib) declares the
    package version and points the loopbv script at cli.main."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.search(r'^version = "([^"]+)"$', text, re.M).group(1) == loopbv.__version__
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^(\S+) = "([^"]+)"$', scripts, re.M) == [("loopbv", "loopbv.cli:main")]


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exit_info:
        main(["series", "--frobnicate"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "ring --seed 1",
        "ring --quiet",
        "bv --seed 1",
        "bv --quiet",
        "pages --seed 1",
        "series --seed 1",
        "series --quiet",
        "resonance --seed 1",
        "resonance --quiet",
    ],
)
def test_flags_a_subcommand_does_not_read_exit_two(argv, capsys):
    """--seed belongs to verify alone, --quiet to pages and verify."""
    argv = argv.split()
    if argv[0] == "resonance":
        argv += ["--input", str(FIXTURES / "resonance_n1_mixed.json")]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""


def _readme_command_lines():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("loopbv ")]


def test_readme_command_lines_run(monkeypatch, capsys):
    lines = _readme_command_lines()
    assert {line.split()[1] for line in lines} == {
        "ring", "bv", "pages", "series", "verify", "resonance"}
    monkeypatch.chdir(ROOT)
    for line in lines:
        code, _, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert code == 0, f"{line}: exit {code}: {err}"


def test_series_average_output(capsys):
    code, out, _ = run(capsys, "series", "--n", "3", "--which", "lg", "--average")
    assert code == 0
    assert "2/3" in out


def test_series_json_deterministic(capsys):
    argv = ["series", "--n", "2", "--which", "lg", "--expand", "12",
            "--average", "--format", "json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["average"] == "3/4"
    assert payload["expansion"][0] == 1


def test_series_average_of_divergent_series_exits_two(capsys):
    code, _, err = run(capsys, "series", "--n", "2", "--which", "total", "--average")
    assert code == 2
    assert "non-quasilinear" in err


@pytest.mark.parametrize("n, average", [(1, "1/1"), (2, "3/4"), (4, "5/8"), (7, "4/7"), (1000, "1001/2000")])
def test_series_average_is_the_resonance_target(n, average, capsys):
    """(n+1)/(2n); at n = 1000 the factor 1 - t^2000 is divided block by
    block on the period P = 2000."""
    code, out, _ = run(capsys, "series", "--n", str(n), "--which", "lg", "--average")
    assert code == 0
    assert out.splitlines()[-1] == f"average: {average}"


def test_series_average_of_the_contractible_series_exits_two(capsys):
    """le has a double pole at t = -1: no Cesàro limit."""
    code, out, err = run(capsys, "series", "--n", "2", "--which", "le", "--average")
    assert code == 2
    assert out == ""
    assert err.startswith("error: non-quasilinear series")
    assert "Traceback" not in err


def test_series_expansions_known_values(capsys):
    code, out, _ = run(capsys, "series", "--n", "2", "--which", "total", "--expand", "8",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["expansion"] == [2, 1, 3, 2, 6, 4, 6, 5, 9]
    code, out, _ = run(capsys, "series", "--n", "3", "--which", "le", "--expand", "12")
    assert code == 0
    assert "expansion: 1 1 2 2 3 3 5 5 6 6 7 7 9" in out.splitlines()


def test_series_expansion_follows_the_recurrence_of_num_and_den(capsys):
    """The factor 1 - t^80 over 101 terms is divided block by block
    (80^2 > 101): each term is fixed by den * expansion = num."""
    code, out, _ = run(capsys, "series", "--n", "40", "--which", "total", "--expand", "100",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    num, den, got = payload["num"], payload["den"], payload["expansion"]
    want = []
    for k in range(101):
        acc = num[k] if k < len(num) else 0
        acc -= sum(den[j] * want[k - j] for j in range(1, min(k, len(den) - 1) + 1))
        want.append(acc // den[0])
    assert got == want


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("comp, which", [("g", "lg"), ("e", "le")])
def test_third_page_series_equals_the_closed_form_expansion(n, comp, which, capsys):
    """The paper's theorem as the command line states it, through degree 200."""
    code, pages, _ = run(capsys, "pages", "--n", str(n), "--component", comp,
                         "--max-degree", "200", "--format", "json")
    assert code == 0
    code, closed, _ = run(capsys, "series", "--n", str(n), "--which", which,
                          "--expand", "200", "--format", "json")
    assert code == 0
    assert json.loads(pages)["series"] == json.loads(closed)["expansion"]


def test_ring_csv_header(capsys):
    code, out, _ = run(capsys, "ring", "--n", "1", "--format", "csv",
                       "--min-degree", "0", "--max-degree", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "monomial,component,loop_degree,top_degree"
    assert "1,e,0,3" in lines


def test_bv_table_action(capsys):
    code, out, _ = run(capsys, "bv", "table", "--n", "1", "--case", "A_v",
                       "--component", "g", "--min-degree", "-1", "--max-degree", "-1")
    assert code == 0
    assert "x*v" in out and "v" in out


@pytest.mark.parametrize("sub", ["ring", "bv"])
def test_rows_skip_degrees_below_the_bottom(sub, capsys):
    n, hi = 1, 2
    code, deep, _ = run(capsys, sub, "--n", str(n), "--min-degree", "-1000000",
                        "--max-degree", str(hi))
    assert code == 0
    _, bottom, _ = run(capsys, sub, "--n", str(n), "--min-degree", str(-(2 * n + 1)),
                       "--max-degree", str(hi))
    assert deep == bottom
    basis.cache_clear()
    run(capsys, sub, "--n", str(n), "--min-degree", "-1000000", "--max-degree", str(hi))
    # one entry per component and loop degree actually listed
    assert basis.cache_info().currsize <= 3 * (hi + 2 * n + 2)


def test_bv_json_records(capsys):
    code, out, _ = run(capsys, "bv", "--n", "1", "--case", "A_v", "--component", "g",
                       "--min-degree", "-1", "--max-degree", "-1", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert {"monomial": "x*v", "component": "g", "loop_degree": -1, "delta": "v"} in rows


# sha256 over the --format json output of ring and bv for n = 1..4, all four
# cases and --component e|g|both, recorded when Monomial was a frozen dataclass
ROWS_JSON_DIGESTS = {
    "ring": "dbc0acbcb9249bc3d9a587d5be3b6c1784db6650dccbfa397631f9f765f8caf9",
    "bv": "c649cf17e7124da118b8dad704162bd01b93f403bfb8f3897ce760bcb93dc970",
}


@pytest.mark.parametrize("sub", ["ring", "bv"])
def test_rows_json_output_is_pinned(sub, capsys):
    digest = hashlib.sha256()
    for n in range(1, 5):
        for case in BVCase:
            for comp in ("e", "g", "both"):
                code, out, _ = run(capsys, sub, "--n", str(n), "--case", case.value,
                                   "--component", comp, "--format", "json")
                assert code == 0
                digest.update(out.encode())
    assert digest.hexdigest() == ROWS_JSON_DIGESTS[sub]


# n = 1, cutoff 6: page-2 column of either component, which the contractible
# component keeps on page 3, and the page-3 column of the other component
PAGE_E_CELLS = (
    "   0    -3    1\n   0    -2    1\n   0    -1    2\n   0     0    2\n"
    "   0     1    2\n   0     2    2\n   0     3    2\n   1    -3    1\n"
    "   1    -2    1\n   1    -1    2\n   1     0    2\n   1     1    2\n"
    "   2    -3    1\n   2    -2    1\n   2    -1    2\n   3    -3    1\n"
    "series 1 1 3 3 5 5 7\n"
)
PAGE_3_G_CELLS = (
    "   0    -3    1\n   0    -1    2\n   0     1    2\n   0     3    2\n"
    "series 1 0 2 0 2 0 2\n"
)


@pytest.mark.parametrize("page, g_cells", [("2", PAGE_E_CELLS), ("3", PAGE_3_G_CELLS)])
@pytest.mark.parametrize("quiet", [False, True])
def test_pages_table_output_is_pinned(page, g_cells, quiet, capsys):
    argv = ["pages", "--n", "1", "--max-degree", "6", "--component", "both",
            "--format", "table", "--page", page] + ["--quiet"] * quiet
    code, out, err = run(capsys, *argv)
    headers = ("", "") if quiet else (f"# component e, page {page}\n",
                                      f"# component g, page {page}\n")
    assert (code, err) == (0, "")
    assert out == headers[0] + PAGE_E_CELLS + headers[1] + g_cells


def test_pages_csv(capsys):
    code, out, _ = run(capsys, "pages", "--n", "1", "--component", "g",
                       "--max-degree", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "component,p,q,dim"
    assert all(line.startswith("g,") for line in lines[1:])
    rows = [tuple(int(v) for v in line.split(",")[1:]) for line in lines[1:]]
    assert rows == sorted(rows)


def test_pages_csv_both_components(capsys):
    code, out, _ = run(capsys, "pages", "--n", "1", "--component", "both",
                       "--max-degree", "6", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "component,p,q,dim"
    assert lines.count("component,p,q,dim") == 1
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)
    for comp in ("e", "g"):
        got = [tuple(int(v) for v in r[1:]) for r in rows if r[0] == comp]
        page = e3_page(SSConfig(AlgebraConfig(1), Component(comp), 6))
        assert got == sorted((p, q, d) for (p, q), d in page.entries.items())


def test_pages_json_round_trip(capsys):
    code, out, _ = run(capsys, "pages", "--n", "2", "--case", "B_w", "--component", "g",
                       "--max-degree", "30", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["page"] == 3
    cfg = AlgebraConfig(2, BVCase.B_W)
    expected = e3_page(SSConfig(cfg, Component.G, 30))
    assert page_from_json(obj, SSConfig(cfg, Component.G, 30)) == expected


def test_pages_json_both_components(capsys):
    code, out, _ = run(capsys, "pages", "--n", "1", "--component", "both",
                       "--max-degree", "10", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"e", "g"}


def test_pages_negative_cutoff_exits_two(capsys):
    code, _, err = run(capsys, "pages", "--n", "1", "--max-degree", "-5")
    assert code == 2
    assert "error" in err


def test_verify_negative_cutoff_exits_two(capsys):
    code, out, err = run(capsys, "verify", "--n", "1", "--max-degree", "-5")
    assert code == 2
    assert out == ""
    assert err == "error: max_top_degree must be nonnegative, got -5\n"


def test_verify_negative_samples_exits_two(capsys):
    code, out, err = run(capsys, "verify", "--n", "1", "--max-degree", "10",
                         "--samples", "-5")
    assert code == 2
    assert out == ""
    assert err == "error: samples must be nonnegative, got -5\n"
    assert "Traceback" not in err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1", "--case", "B_w",
                       "--max-degree", "40", "--samples", "25")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("argv, code, line", [
    # the certificate is proved once at K = 6n+8 and the report expands the
    # closed form through D, far above K here and far below it at n = 1000
    ("--n 8 --case A_vxw --max-degree 4000 --samples 0", 0,
     "collapse n=8 case=A_vxw through degree 4000: PASS"),
    ("--n 1000 --max-degree 40 --samples 0", 0, "collapse n=1000 case=A_v through degree 40: PASS"),
    # with no samples drawn, the fixed even-n pair alone fails B_wxvw
    ("--n 2 --case B_wxvw --max-degree 30 --samples 0", 1, "axioms n=2 case=B_wxvw: FAIL"),
], ids=["n8-D4000", "n1000-D40", "n2-B_wxvw-no-samples"])
def test_verify_prints_its_verdict_line(argv, code, line, capsys):
    got, out, _ = run(capsys, "verify", *argv.split())
    assert got == code
    assert line in out.splitlines()


@pytest.mark.parametrize("case", ["B_w", "B_wxvw"])
def test_verify_even_n_noncontractible_w_exits_one(case, capsys):
    """For even n the B cases are not graded BV algebras, so the default
    sampled axiom check (200 samples, seed 0) reports the broken BV relation."""
    code, out, _ = run(capsys, "verify", "--n", "2", "--case", case,
                       "--max-degree", "40")
    assert code == 1
    assert f"axioms n=2 case={case}: FAIL" in out
    assert "BV relation fails at" in out


@pytest.mark.parametrize("case", ["B_w", "B_wxvw"])
def test_verify_even_n_obstruction_found_with_few_samples(case, capsys):
    """bv.axiom_failures checks the fixed pair (x*v, v*w) on every call, so
    25 samples with seed 0, a draw that misses the broken relation, still
    exit 1."""
    code, out, _ = run(capsys, "verify", "--n", "2", "--case", case,
                       "--max-degree", "40", "--samples", "25")
    assert code == 1
    assert "BV relation fails at (x*v, v*w)" in out


@pytest.mark.parametrize(
    "n, case", [(2, "A_v"), (2, "A_vxw"), (1, "B_w"), (1, "B_wxvw"), (3, "B_w"), (3, "B_wxvw")]
)
def test_verify_admissible_cells_exit_zero(n, case, capsys):
    code, out, _ = run(capsys, "verify", "--n", str(n), "--case", case,
                       "--max-degree", "40", "--samples", "25")
    assert code == 0
    assert "FAIL" not in out


@pytest.mark.parametrize("n, case, expected_code", [(1, "A_v", 0), (2, "B_w", 1)])
def test_verify_json_report(n, case, expected_code, capsys):
    code, out, _ = run(capsys, "verify", "--n", str(n), "--case", case,
                       "--max-degree", "30", "--samples", "10", "--seed", "3",
                       "--format", "json")
    assert code == expected_code
    payload = json.loads(out)
    assert set(payload) == {"collapse", "axioms", "passed"}
    assert payload["collapse"] == {
        "passed": True, "e_page_stable": True, "first_mismatch": None, "max_degree": 30,
    }
    axioms = payload["axioms"]
    assert set(axioms) == {"failures", "window", "samples", "seed"}
    assert axioms["window"] == [-(2 * n + 1), 12 * n]
    assert (axioms["samples"], axioms["seed"]) == (10, 3)
    assert payload["passed"] is (expected_code == 0)
    assert (axioms["failures"] == []) is (expected_code == 0)


def test_verify_rejects_csv_format(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--n", "1", "--format", "csv"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("j", [0, 5, 10])
def test_verify_reports_a_collapse_mismatch(j, rebind, capsys):
    """A closed form off by t^j, j within the cutoff, fails collapse at j."""
    true_total = series.total_series(1)
    bumped = true_total + series.RationalSeries((0,) * j + (1,))
    computed = series.expand(true_total, 10).coefficients
    expected = series.expand(bumped, 10).coefficients
    rebind(series, "total_series", lambda _n: bumped)
    argv = ["verify", "--n", "1", "--max-degree", "10", "--samples", "0"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out.splitlines() == [
        "collapse n=1 case=A_v: FAIL",
        f"  first mismatch at degree {j}: computed {computed[j]}, expected {expected[j]}",
        f"  computed series: {list(computed)}",
        f"  expected series: {list(expected)}",
        "axioms n=1 case=A_v on degrees [-3, 12] with 0 samples (seed 0): PASS",
    ]
    assert expected[j] == computed[j] + 1
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["collapse"]["first_mismatch"] == [j, computed[j], expected[j]]
    assert payload["collapse"]["passed"] is False and payload["passed"] is False


def test_verify_quiet(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1", "--case", "A_v",
                       "--max-degree", "30", "--samples", "10", "--quiet")
    assert code == 0
    assert out == ""


def test_verify_prints_at_most_ten_failure_messages(capsys):
    """The table lists the first ten axiom failures; the JSON payload keeps all."""
    argv = ["verify", "--n", "2", "--case", "B_w", "--samples", "1000"]
    code, out, _ = run(capsys, *argv, "--format", "json")
    failures = json.loads(out)["axioms"]["failures"]
    assert code == 1 and len(failures) == 24
    code, out, _ = run(capsys, *argv)
    lines = out.splitlines()
    assert code == 1
    start = lines.index("axioms n=2 case=B_w: FAIL")
    assert lines[start + 1:] == [f"  {message}" for message in failures[:10]]


@pytest.mark.parametrize("bare, defaults", [
    ("ring", "--n 1 --case A_v --component both --format table"),
    ("bv", "--n 1 --case A_v --component both --format table table"),
    ("pages", "--n 1 --case A_v --component both --max-degree 40 --page 3 --format table"),
    ("series", "--n 1 --which lg --format table"),
    ("verify", "--n 1 --case A_v --max-degree 100 --samples 200 --seed 0 --format table"),
    ("resonance --input {mixed}", "--check full --format table"),
], ids=["ring", "bv", "pages", "series", "verify", "resonance"])
def test_defaults_spelled_out_print_the_same_bytes(bare, defaults, capsys):
    bare = bare.format(mixed=FIXTURES / "resonance_n1_mixed.json").split()
    without = run(capsys, *bare)
    assert without == run(capsys, *bare, *defaults.split())
    assert without[0] == 0 and without[1]


def test_resonance_pass_fixture(capsys):
    code, out, _ = run(capsys, "resonance", "--input",
                       str(FIXTURES / "resonance_n1_mixed.json"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["sum"] == payload["target"] == "1/1"


def test_resonance_target_formatted_as_fraction(capsys):
    code, out, _ = run(capsys, "resonance", "--input",
                       str(FIXTURES / "resonance_n2.json"), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == "3/4"


def test_resonance_fail_fixture(capsys):
    code, out, _ = run(capsys, "resonance", "--input",
                       str(FIXTURES / "resonance_n1_negative.json"), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["sum"] == "1/2"
    assert payload["target"] == "1/1"


def test_resonance_nondegenerate_check(capsys):
    code, out, _ = run(capsys, "resonance", "--input",
                       str(FIXTURES / "resonance_n1_nondegenerate.json"),
                       "--check", "nondegenerate", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sum"] == "2/1"
    assert payload["consistent_with_full"] is True


def test_resonance_with_morse_summary(capsys):
    code, out, _ = run(capsys, "resonance", "--input",
                       str(FIXTURES / "resonance_n1_mixed.json"),
                       "--morse", "1000", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["morse"]["q"] == 1000
    assert payload["morse"]["average"] == "501/500"


def test_resonance_without_geodesics_sums_to_zero_and_fails(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"n": 1, "geodesics": []}')
    code, out, _ = run(capsys, "resonance", "--input", str(empty), "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert (payload["sum"], payload["vacuous"], payload["verdict"]) == ("0/1", True, "fail")


def test_resonance_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "resonance", "--input", "missing.json")
    assert code == 2
    assert "error" in err


def test_resonance_malformed_json_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 1,\n  "geodesics": [}\n')
    code, _, err = run(capsys, "resonance", "--input", str(bad))
    assert code == 2
    assert "line 2" in err and "column" in err


def over_long_integer() -> bytes:
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("this interpreter converts integer literals of any length")
    return b'{"n": ' + b"9" * (limit + 1) + b', "geodesics": []}'


@pytest.mark.parametrize(
    "content",
    [lambda: b"\xff\xfe{}", lambda: b"[" * 100_000, over_long_integer],
    ids=["not-utf8", "nested-too-deep", "over-long-integer"],
)
def test_resonance_unreadable_json_exits_two(content, tmp_path, capsys):
    bad = tmp_path / "unreadable.json"
    bad.write_bytes(content())
    code, out, err = run(capsys, "resonance", "--input", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: unreadable JSON in {bad}: ")
    assert "Traceback" not in err


def test_resonance_invalid_record_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad_record.json"
    bad.write_text(json.dumps({
        "n": 1,
        "geodesics": [{"label": "c", "initial_index": 0,
                       "mean_index": "0", "period": 2, "type_numbers": []}],
    }))
    code, _, err = run(capsys, "resonance", "--input", str(bad))
    assert code == 2
    assert "mean index" in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("period", 2.0, "period must be an integer, got 2.0"),
        ("initial_index", True, "initial index must be an integer, got True"),
        ("type_numbers", [{"m": 1, "l": 0, "k": 0.5}],
         "type number k must be an integer, got 0.5"),
        ("type_numbers", [{"m": 1, "l": 0, "k": -1}],
         "c: type number k must be nonnegative, got -1"),
        ("type_numbers", [{"m": 1, "l": 0, "k": 1}, {"m": 1, "l": 0, "k": 2}],
         "duplicate type-number slot (m, l) = (1, 0)"),
    ],
    ids=["float-period", "bool-index", "float-k", "negative-k", "duplicate-slot"],
)
def test_resonance_mistyped_record_exits_two(field, value, message, tmp_path, capsys):
    record = {"label": "c", "initial_index": 0, "mean_index": "1", "period": 2,
              "type_numbers": [{"m": 1, "l": 0, "k": 1}]}
    record[field] = value
    bad = tmp_path / "mistyped.json"
    bad.write_text(json.dumps({"n": 1, "geodesics": [record]}))
    code, out, err = run(capsys, "resonance", "--input", str(bad), "--format", "json")
    assert code == 2
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("nondegenerate", "yes", "nondegenerate must be a bool, got 'yes'"),
        ("nullities", ["a", None], "nullity must be an integer, got 'a'"),
        ("nullities", [0, -1], "c: nullity must be nonnegative, got -1"),
        ("nullities", 5, "c: nullities must be a list, got 5"),
        ("extra", "zzz", "unknown record keys ['extra']"),
        ("type_numbers", [{"m": 1, "l": 0, "k": 1, "zz": 3}],
         "unknown type-number keys ['zz']"),
    ],
    ids=["string-nondegenerate", "string-nullity", "negative-nullity", "scalar-nullities",
         "unknown-record-key", "unknown-slot-key"],
)
def test_resonance_unvalidated_field_exits_two(field, value, message, tmp_path, capsys):
    record = {"label": "c", "initial_index": 0, "mean_index": "1", "period": 2,
              "type_numbers": [{"m": 1, "l": 0, "k": 1}]}
    record[field] = value
    bad = tmp_path / "unvalidated.json"
    bad.write_text(json.dumps({"n": 1, "geodesics": [record]}))
    code, out, err = run(capsys, "resonance", "--input", str(bad), "--format", "json")
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "geodesics, message",
    [
        (5, "geodesics must be a list, got int"),
        ([5], "expected an object, got int"),
        ({"a": 1}, "geodesics must be a list, got dict"),
        ([{"label": "c", "initial_index": 0, "mean_index": "1/0", "period": 2}],
         "malformed geodesic record"),
    ],
    ids=["number", "list-of-number", "object", "zero-denominator"],
)
def test_resonance_malformed_geodesics_exit_two(geodesics, message, tmp_path, capsys):
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps({"n": 1, "geodesics": geodesics}))
    code, out, err = run(capsys, "resonance", "--input", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_resonance_boolean_n_exits_two(tmp_path, capsys):
    bad = tmp_path / "bool_n.json"
    bad.write_text(json.dumps({"n": True, "geodesics": []}))
    code, out, err = run(capsys, "resonance", "--input", str(bad), "--format", "json")
    assert code == 2
    assert out == ""
    assert "n must be a positive integer, got True" in err


def test_resonance_morse_over_iterate_budget_exits_two(tmp_path, capsys):
    slow = tmp_path / "slow.json"
    slow.write_text(json.dumps({
        "n": 1,
        "geodesics": [{"label": "slow", "initial_index": 0, "mean_index": "1/100000",
                       "period": 2, "type_numbers": [{"m": 1, "l": 0, "k": 1}]}],
    }))
    code, out, err = run(capsys, "resonance", "--input", str(slow), "--morse", "100")
    assert code == 2
    assert out == ""
    assert "5100000 iterates" in err
    assert "Traceback" not in err


def test_resonance_morse_over_slot_budget_exits_two(tmp_path, capsys):
    # five iterates, but 10^9 + 1 count slots: refused before any is allocated
    fast = tmp_path / "fast.json"
    fast.write_text(json.dumps({
        "n": 1,
        "geodesics": [{"label": "fast", "initial_index": 0, "mean_index": "1000000",
                       "period": 2, "type_numbers": [{"m": 1, "l": 0, "k": 1}]}],
    }))
    code, out, err = run(capsys, "resonance", "--input", str(fast), "--morse", "1000000000")
    assert code == 2
    assert out == ""
    assert "1000000001 count slots" in err
    assert "Traceback" not in err


def test_identical_invocations_are_byte_stable(capsys):
    argv = ["pages", "--n", "1", "--component", "both", "--max-degree", "16",
            "--format", "json"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


# One SHA-256 over (argv, exit code, stdout, stderr) of every call that
# surface_grid makes: the bytes of the whole command-line surface.  Only a
# change to that surface re-records it, such as ROADMAP items 3 (CLI surface
# v2) and 5 (streamed output), and CHANGES says which.
SURFACE_DIGEST = "ff733aefda85814d33f0426e19a5af9532641f1b385667e1c5ce344982cd2d1a"

FIXTURE_NAMES = ("resonance_n1_mixed.json", "resonance_n1_negative.json",
                 "resonance_n1_nondegenerate.json", "resonance_n2.json")
# inputs for resonance written next to the fixtures; "missing.json" is not
BAD_INPUTS = {
    "vacuous.json": b'{"n": 1, "geodesics": []}',
    "malformed.json": b'{"n": 1,\n  "geodesics": [}\n',
    "not_utf8.json": b"\xff\xfe{}",
    "period_zero.json": (b'{"n": 1, "geodesics": [{"label": "c", "initial_index": 0, '
                         b'"mean_index": "1", "period": 0}]}'),
    "fast.json": (b'{"n": 1, "geodesics": [{"label": "fast", "initial_index": 0, '
                  b'"mean_index": "1000000", "period": 2, '
                  b'"type_numbers": [{"m": 1, "l": 0, "k": 1}]}]}'),
}
# collapse reports verify cannot produce with the built-in operator: the
# contractible component moving, and a closed form that disagrees at degree 3
FAKE_COLLAPSE = {
    "moved": dict(e_page_stable=False, first_mismatch=None),
    "mismatch": dict(e_page_stable=True, first_mismatch=(3, 4, 5)),
}


def surface_grid():
    """(argv, FAKE_COLLAPSE key or None) of about 600 calls covering every
    subcommand, format and --quiet, n in 1..3, the four cases and small
    cutoffs, the fixtures with and without --morse, and exit-2 inputs."""
    tabular = ("table", "json", "csv")
    comps = ("e", "g", "both")
    quiet = ([], ["--quiet"])
    windows = ([], ["--min-degree", "-2", "--max-degree", "3"],
               ["--min-degree", "-100", "--max-degree", "-50"])
    for n, comp, fmt, window in itertools.product((1, 2, 3), comps, tabular, windows):
        yield ["ring", "--n", str(n), "--component", comp, "--format", fmt, *window], None
    for n, case, comp, fmt in itertools.product((1, 2, 3), CASE_CHOICES, comps, tabular):
        yield ["bv", "--n", str(n), "--case", case, "--component", comp, "--format", fmt], None
    for fmt in tabular:
        yield ["bv", "table", "--n", "2", "--max-degree", "5", "--format", fmt], None
    for n, page, comp, fmt, cutoff, q in itertools.product(
            (1, 2), ("2", "3"), comps, tabular, ("0", "7"), quiet):
        yield ["pages", "--n", str(n), "--page", page, "--component", comp,
               "--format", fmt, "--max-degree", cutoff, *q], None
    for n, case, fmt in itertools.product((1, 2, 3), CASE_CHOICES, tabular):
        yield ["pages", "--n", str(n), "--case", case, "--max-degree", "30",
               "--format", fmt], None
    for n, case, fmt, cutoff, q in itertools.product(
            (1, 2, 3), CASE_CHOICES, ("table", "json"), ("0", "12"), quiet):
        yield ["verify", "--n", str(n), "--case", case, "--max-degree", cutoff,
               "--samples", "3", "--seed", "5", "--format", fmt, *q], None
    for case, fmt, q, (samples, seed) in itertools.product(
            ("A_v", "B_w"), ("table", "json"), quiet, (("0", "0"), ("12", "1"))):
        yield ["verify", "--n", "2", "--case", case, "--max-degree", "40",
               "--samples", samples, "--seed", seed, "--format", fmt, *q], None
    for fake, case, fmt, q in itertools.product(
            FAKE_COLLAPSE, ("A_v", "B_w"), ("table", "json"), quiet):
        yield ["verify", "--n", "2", "--case", case, "--max-degree", "6",
               "--samples", "2", "--format", fmt, *q], fake
    extras = ([], ["--expand", "6"], ["--average"], ["--expand", "6", "--average"])
    for n, which, extra, fmt in itertools.product(
            (1, 2, 3), ("lg", "le", "total"), extras, ("table", "json")):
        yield ["series", "--n", str(n), "--which", which, *extra, "--format", fmt], None
    for name, check, fmt, morse in itertools.product(
            FIXTURE_NAMES, ("full", "nondegenerate"), ("table", "json"), ([], ["--morse", "30"])):
        yield ["resonance", "--input", name, "--check", check, "--format", fmt, *morse], None
    for name, fmt in itertools.product([*BAD_INPUTS, "missing.json"], ("table", "json")):
        yield ["resonance", "--input", name, "--format", fmt], None
    yield ["resonance", "--input", "fast.json", "--morse", "1000000000"], None
    yield ["resonance", "--input", FIXTURE_NAMES[0], "--morse", "-1"], None
    for argv in ("ring --n 0", "ring --n -1 --format csv", "ring --min-degree 4 --max-degree 1",
                 "bv --n 0 --format json", "pages --max-degree -1", "pages --n 0 --format csv",
                 "verify --max-degree -1", "verify --samples -1 --format json",
                 "verify --n 0", "series --n 0", "series --expand -1",
                 "series --n 2 --which le --average --format json"):
        yield argv.split(), None


def test_command_line_surface_is_pinned(tmp_path, monkeypatch, capsys):
    for name in FIXTURE_NAMES:
        shutil.copy(FIXTURES / name, tmp_path / name)
    for name, content in BAD_INPUTS.items():
        (tmp_path / name).write_bytes(content)
    monkeypatch.chdir(tmp_path)
    real_collapse = spectral.verify_collapse

    def fake_collapse(fake):
        def verify_collapse(algebra, max_top_degree):
            report = real_collapse(algebra, max_top_degree)
            if not fake:
                return report
            fields = {f: getattr(report, f) for f in report._fields}
            return spectral.CollapseReport(**{**fields, **FAKE_COLLAPSE[fake]})
        return verify_collapse

    digest = hashlib.sha256()
    calls = 0
    for argv, fake in surface_grid():
        monkeypatch.setattr(spectral, "verify_collapse", fake_collapse(fake))
        code, out, err = run(capsys, *argv)
        assert "Traceback" not in err, argv
        digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
        calls += 1
    assert calls > 550
    assert digest.hexdigest() == SURFACE_DIGEST


def test_closed_output_pipe_exits_two():
    """A reader that stops after one line, as `| head -1` does: the next write
    fails with EPIPE, which is an input/output error like any other."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE_PARENT), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "loopbv.cli", "ring", "--n", "1", "--max-degree", "20000",
         "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
    )
    assert proc.stdout.readline() == b"monomial,component,loop_degree,top_degree\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert err == b"error: [Errno 32] Broken pipe\n"
