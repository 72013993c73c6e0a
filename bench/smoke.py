"""Smoke test for the benchmark harness: a few jobs of every workload.

    python3 bench/smoke.py            # or: python -m pytest -q bench/smoke.py

Runs every workload untraced and traced with a handful of jobs, and checks
that every metric named in BENCHMARK.json is reported with its unit, that
all result checks and golden digests pass, and that two runs with the same
seed do identical work.  The file name keeps it out of the default test
collection, so no timing ever enters the tier-1 suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import GENERATORS, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# every workload the harness defines, including those BENCHMARK.json leaves out
WORKLOADS = tuple(GENERATORS)
JOBS = "12"


def bench(workload: str, trace: int, seed: int = 7) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--jobs", JOBS]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_result(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == int(JOBS)
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for s in specs:
        metric = result["metrics"][s["name"]]
        assert metric["unit"] == s["unit"]
        assert isinstance(metric["value"], (int, float))


def test_end_to_end_metrics_and_determinism():
    for workload in WORKLOADS:
        meta, result = bench(workload, 0)
        check_result(result, SPEC["end_to_end"])
        assert meta["jobs"] == int(JOBS)
        assert meta["job_ms_samples"] == int(JOBS) * meta["passes"] == int(JOBS) * len(meta["pass_wall_s"])
        again, _ = bench(workload, 0)
        assert (again["jobs_digest"], again["output_digest"]) == (meta["jobs_digest"], meta["output_digest"])


def test_per_layer_metrics():
    for workload in WORKLOADS:
        _, result = bench(workload, 1)
        check_result(result, SPEC["per_layer"])
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    bench_copy = tmp_path / "bench"
    bench_copy.mkdir()
    for path in Path(__file__).parent.iterdir():
        if path.is_file():
            (bench_copy / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and not proc.stdout.strip()


if __name__ == "__main__":
    test_end_to_end_metrics_and_determinism()
    test_per_layer_metrics()
    scratch = ROOT / ".bench_tmp" / "smoke-no-package"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        test_refuses_to_run_without_the_package(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke: ok")
