"""Each demo script runs to completion as a fresh process."""

import os
import pathlib
import subprocess
import sys

import pytest

import loopbv

ROOT = pathlib.Path(__file__).parent.parent
# the directory the imported package sits in: src, or site-packages when installed
PACKAGE_PARENT = pathlib.Path(loopbv.__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_PARENT), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(path)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_exits_zero(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_series_demo_prints_the_average_and_the_refusal():
    lines = run_demo(ROOT / "demos" / "04_series_average.py").stdout.splitlines()
    assert "  n=3: 2/3" in lines
    assert any("non-quasilinear" in line for line in lines)
