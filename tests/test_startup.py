"""Start-up cost: each command-line call loads only the package modules it
runs, nothing loads ``dataclasses``, only the subcommands that print
rationals load ``fractions``, and the package resolves its public names on
first access.  Each check runs in a fresh interpreter."""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import loopbv

ROOT = pathlib.Path(__file__).parent.parent
# the directory the imported package sits in: src, or site-packages when installed
PACKAGE_PARENT = pathlib.Path(loopbv.__file__).parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "resonance_n2.json"

# runs CODE, then prints the loaded loopbv modules and whether dataclasses and
# fractions are loaded
PROBE = """
import contextlib, io, json, sys
{code}
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "loopbv"),
                  "dataclasses" in sys.modules, "fractions" in sys.modules]))
"""

RUN_MAIN = """
from loopbv.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main({argv!r})
assert code == 0, code
"""

BASE = ["loopbv", "loopbv.cli", "loopbv.ring"]
ENGINE = ["loopbv.bv", "loopbv.gf2", "loopbv.series", "loopbv.spectral"]
SUBCOMMANDS = {
    "ring": (["ring", "--n", "2"], []),
    "bv": (["bv", "--n", "2"], ["loopbv.bv"]),
    "pages": (["pages", "--n", "2", "--max-degree", "12"], ENGINE),
    "series": (["series", "--n", "2", "--expand", "6", "--average"], ["loopbv.series"]),
    "verify": (["verify", "--n", "1", "--max-degree", "12", "--samples", "5"], ENGINE),
    "resonance": (["resonance", "--input", str(FIXTURE)], ["loopbv.resonance"]),
}
# fractions loads decimal and numbers; only these subcommands build a Fraction
LOADS_FRACTIONS = {"resonance", "series"}


def probe(code: str, *python_args: str):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE_PARENT), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *python_args, "-c", PROBE.format(code=code)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def bare_has_dataclasses():
    """Whether this interpreter loads ``dataclasses`` before any user code."""
    return probe("pass")[1]


def test_bare_interpreter_loads_no_fractions():
    assert probe("pass")[2] is False


def test_import_cli_loads_only_ring(bare_has_dataclasses):
    modules, dataclasses, fractions = probe("import loopbv.cli")
    assert modules == BASE
    assert dataclasses == bare_has_dataclasses
    assert fractions is False


@pytest.mark.parametrize("sub", sorted(SUBCOMMANDS))
def test_subcommand_loads_only_its_modules(sub, bare_has_dataclasses):
    argv, extra = SUBCOMMANDS[sub]
    modules, dataclasses, fractions = probe(RUN_MAIN.format(argv=argv))
    assert modules == sorted(BASE + extra)
    assert dataclasses == bare_has_dataclasses
    assert fractions == (sub in LOADS_FRACTIONS)


def test_period_tables_fill_on_first_use():
    """Importing ranks nothing: the spectral period table stays empty until a
    page is built (one entry per configuration, for both components), so no
    cold start pays for a period."""
    tables = "s._period_table.cache_info().currsize"
    probe("import loopbv.cli\n"
          "import loopbv.spectral as s\n"
          f"assert {tables} == 0, {tables}\n"
          + RUN_MAIN.format(argv=SUBCOMMANDS["pages"][0])
          + f"assert {tables} == 1, {tables}")


def test_delta_rebound_before_the_first_page_fills_the_rank_table():
    """As the benchmark's tracer does, rebind bv.delta to a counter before the
    first page: the counter sees one call per basis monomial of the cold
    period, and a second certificate calls it no more."""
    probe("import loopbv.bv as bv, loopbv.spectral as s\n"
          "from loopbv.ring import AlgebraConfig\n"
          "calls, delta, cfg = [], bv.delta, AlgebraConfig(2)\n"
          "bv.delta = lambda u, c: calls.append(u) or delta(u, c)\n"
          "assert s.verify_collapse(cfg, 40, bv.delta).all_degrees\n"
          "period = sum(sum(dims) for dims in s._period_table(cfg).dims.values())\n"
          "assert len(calls) == period > 0, (len(calls), period)\n"
          "assert s.verify_collapse(cfg, 40).all_degrees\n"
          "assert len(calls) == period, len(calls)")


def test_import_loopbv_loads_nothing_until_a_name_is_used():
    modules = probe("import loopbv; assert loopbv.__version__")[0]
    assert modules == ["loopbv"]
    modules = probe(
        "import loopbv\n"
        "from loopbv.ring import element, generator\n"
        "assert loopbv.delta(element(), loopbv.AlgebraConfig(1)).is_zero()\n"
        "assert loopbv.delta is sys.modules['loopbv.bv'].delta\n"
        "assert loopbv.spectral is sys.modules['loopbv.spectral']"
    )[0]
    assert modules == ["loopbv", "loopbv.bv", "loopbv.gf2", "loopbv.ring", "loopbv.series",
                       "loopbv.spectral"]


def test_the_whole_package_never_loads_dataclasses(bare_has_dataclasses):
    modules, dataclasses, _ = probe("from loopbv import *")
    assert modules == ["loopbv", "loopbv.bv", "loopbv.gf2", "loopbv.resonance", "loopbv.ring",
                       "loopbv.series", "loopbv.spectral"]
    assert dataclasses == bare_has_dataclasses


def test_source_never_imports_dataclasses():
    for path in (PACKAGE_PARENT / "loopbv").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert not re.search(r"^\s*(from|import)\s+dataclasses\b", text, re.M), path.name


# what ``from loopbv import *`` bound when the package imported every module eagerly
STAR_NAMES = [
    "AlgebraConfig", "AlgebraElement", "BVCase", "CollapseReport", "Component", "DeltaTable",
    "GeneratorMorphism", "GeodesicRecord", "InputError", "Monomial", "MorphismReport",
    "MorseTruncation", "NonQuasilinearError", "NondegenerateReport", "Page", "RationalSeries",
    "ResonanceReport", "SSConfig", "TruncatedSeries", "add", "apply_morphism",
    "average_alternating", "basis", "betti", "bracket", "bracket_table", "bv", "component",
    "d2_matrix", "d2_rank", "delta", "delta_oracle", "delta_table", "dimension", "e2_page",
    "e3_page", "element", "eq_exact", "expand", "generator", "generator_bracket", "gf2",
    "identity_morphism", "index_sequence", "le_series", "lg_series", "load_problem",
    "loop_degree", "mean_euler", "morphism_from_switches", "morse_truncation", "multiply",
    "nondegenerate_check", "nondegenerate_record", "normalize", "page_from_json", "page_series",
    "page_to_json", "power", "record_from_dict", "render_element", "render_monomial",
    "resonance", "resonance_check", "ring", "series", "spectral", "top_degree", "total_series",
    "unit", "verify_collapse", "verify_morphism_relations", "zero",
]


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from loopbv import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == STAR_NAMES
    for name in STAR_NAMES:
        assert namespace[name] is getattr(loopbv, name)
    assert set(STAR_NAMES) <= set(dir(loopbv))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        loopbv.frobnicate
    assert not hasattr(loopbv, "window_basis")
    assert getattr(loopbv, "frobnicate", None) is None
