"""loopbv benchmark: one workload, its end-to-end or per-layer metrics.

    python3 bench/run.py --workload collapse --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout.  Each workload runs in a fresh
single-threaded worker process (``bench/worker.py``), so the ``ring.basis``
and ``bv.bracket_table`` caches start cold, as they do for every CLI call.
The job list is generated from ``--seed``; its length is set so that a run at
commit deb2ade measures about ``--seconds``, and never falls below
MIN_JOBS, so ``job_ms_p90`` has at least ten jobs beyond it.

``--trace 0`` runs the list PASSES times, each pass in a fresh worker, with
set-up samples before, between and after the passes.  A shared host can run
the interpreter up to twice as slowly for seconds to minutes at a time, so
every time is reported at a reference speed: each pass's times are
multiplied by the workload gauge's reference reading over its median
reading in that pass (``workloads.gauge``), and each set-up sample by the
same ratio for a reading taken beside it.  ``job_ms_p50``/``job_ms_p90`` are
taken over every job of every pass, and ``wall_s`` is the median pass.  The
metadata line holds the same figures unscaled (``unscaled``) and each pass's
factor.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the same job list untraced and then traced, each in its
own fresh process, and prints the per-layer metrics; traced timings never
feed an end-to-end metric.  Every run checks every job's result, and the
golden job list's output digests against ``bench/golden.json``; a wrong
result or a digest mismatch makes the command exit 1.  Operations that fail
(wrong exit code, timeout, unparseable output) are listed by name and
counted in ``attempted``/``failed``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it holds the run
metadata: seed, job-list digest, output digest, Python version, commit,
``nproc``, job counts and the failed jobs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import CLI_TIMEOUT_S, GENERATORS, ROOT, child_env, gauge

BENCH = Path(__file__).resolve().parent
WORKLOADS = tuple(GENERATORS)

# jobs per second of --seconds, measured at commit deb2ade with Python 3.11
# on a 2-core x86-64 Linux machine; a run there measures about --seconds
JOBS_PER_SECOND = {"collapse": 8.0, "algebra": 400.0, "series": 12.0, "cli": 5.5}
MIN_JOBS = 100
# passes over the job list in an untraced run
PASSES = {"collapse": 4, "algebra": 4, "series": 4, "cli": 2}
SETUP_REPEATS = 15
WORKER_TIMEOUT_S = 150


def job_count(workload: str, seconds: float, trace: bool) -> int:
    # a traced run measures the list twice (untraced, then traced, one pass
    # each), so it uses half the list to stay near --seconds per measurement
    per_second = JOBS_PER_SECOND[workload] * (0.5 if trace else 1.0 / PASSES[workload])
    return max(MIN_JOBS, round(per_second * seconds))


def python(args, timeout=60) -> subprocess.CompletedProcess:
    """Run the interpreter in its own process group; on timeout the whole
    group is killed, so no grandchild outlives the benchmark."""
    proc = subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, stdout, stderr)


def timed_python(args) -> float:
    t0 = perf_counter()
    proc = python(args)
    elapsed = perf_counter() - t0
    if proc.returncode:
        raise RuntimeError(f"python {' '.join(args)} failed: {proc.stderr.strip()}")
    return elapsed


def worker(workload: str, seed: int, jobs: int, *extra: str) -> dict:
    args = [str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed), "--jobs", str(jobs)]
    proc = python(args + list(extra), timeout=WORKER_TIMEOUT_S)
    if proc.returncode:
        raise RuntimeError(f"worker {workload} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_sample(workload: str, seed: int, jobs: int) -> tuple[float, float]:
    """One set-up time, measured in a fresh process, and a gauge reading.

    In-process workloads: import of ``loopbv`` plus job generation, timed
    inside the process and gauged there.  ``cli``: wall time of a process
    that only imports ``loopbv.cli``, which every CLI call pays, gauged by a
    bare interpreter start just before it.
    """
    if workload == "cli":
        reading = gauge(workload)[0]()
        return timed_python(["-c", "import loopbv.cli"]), reading
    sample = worker(workload, seed, jobs, "--setup-only")
    return sample["setup_s"], sample["gauge_ms"]


def percentile_ms(ms: list[float], decile: int) -> float:
    return statistics.quantiles(ms, n=10, method="inclusive")[decile - 1]


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "loopbv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def pick(values: dict, specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}


def combine(workload: str, passes: list[dict]) -> dict:
    """One result from the passes over a job list: every job time of every
    pass at the reference speed, a job failed if it failed in any pass, and
    every pass must reproduce the first pass's outputs."""
    first = passes[0]
    ref_ms = gauge(workload)[1]
    factors = [ref_ms / statistics.median(r["gauge_ms"]) for r in passes]
    # a CLI job cut off by its timeout took the timeout, which no speed changes
    cut_ms = CLI_TIMEOUT_S * 1000.0 if workload == "cli" else math.inf
    per_pass = [[ms if ms >= cut_ms else ms * f for ms in r["job_ms"]] for r, f in zip(passes, factors)]
    failed = {}
    wrong = []
    for i, result in enumerate(passes):
        if result["jobs_digest"] != first["jobs_digest"]:
            raise RuntimeError("passes generated different job lists")
        for item in result["failed"]:
            failed.setdefault(item["job"], item)
        wrong += result["wrong"] + [
            {"job": name, "detail": f"pass {i + 1} output differs from pass 1"}
            for name, digest in result["outputs"].items() if first["outputs"].get(name, digest) != digest
        ]
    return dict(
        first,
        samples_ms=[ms for pass_ms in per_pass for ms in pass_ms],
        unscaled_ms=[ms for r in passes for ms in r["job_ms"]],
        pass_s=[sum(ms) / 1000.0 for ms in per_pass],
        factors=factors,
        failed=list(failed.values()),
        wrong=wrong,
        peak_rss_kb=max(r["peak_rss_kb"] for r in passes),
    )


def end_to_end(workload: str, seed: int, count: int) -> tuple[dict, dict]:
    """Untraced passes plus set-up samples; returns (combined result, metric values)."""
    # set-up samples go before, between and after the passes, so that one
    # slow spell of the machine does not shift all of them
    per_gap = -(-SETUP_REPEATS // (PASSES[workload] + 1))
    setup, passes = [], []
    for i in range(PASSES[workload]):
        setup += [setup_sample(workload, seed, count) for _ in range(per_gap)]
        passes.append(worker(workload, seed, count, "--golden", "skip" if i else "check"))
    setup += [setup_sample(workload, seed, count) for _ in range(per_gap)]
    main = combine(workload, passes)
    ms, unscaled_ms = main["samples_ms"], main["unscaled_ms"]
    main["unscaled"] = {
        "wall_s": statistics.median(sum(r["job_ms"]) / 1000.0 for r in passes),
        "job_ms_p50": statistics.median(unscaled_ms),
        "job_ms_p90": percentile_ms(unscaled_ms, 9),
        "setup_s": statistics.median(s for s, _ in setup),
    }
    ref_ms = gauge(workload)[1]
    jobs = len(main["job_ms"])
    ok = jobs - len({item["job"] for item in main["failed"] + main["wrong"]})
    return main, {
        "wall_s": statistics.median(main["pass_s"]),
        "job_ms_p50": statistics.median(ms),
        "job_ms_p90": percentile_ms(ms, 9),
        "setup_s": statistics.median(s * ref_ms / reading for s, reading in setup),
        "peak_rss_mb": main["peak_rss_kb"] / 1024.0,
        "ok_ratio": ok / jobs,
    }


def per_layer(workload: str, seed: int, count: int) -> tuple[dict, dict]:
    """The same job list untraced, then traced; returns (untraced result, metric values)."""
    main = combine(workload, [worker(workload, seed, count, "--golden", "check")])
    traced = combine(workload, [worker(workload, seed, count, "--trace", "--golden", "skip")])
    if traced["jobs_digest"] != main["jobs_digest"]:
        raise RuntimeError("traced and untraced runs generated different job lists")
    main["wrong"] += traced["wrong"]
    bare = statistics.median(timed_python(["-c", "pass"]) for _ in range(SETUP_REPEATS))
    with_cli = statistics.median(timed_python(["-c", "import loopbv.cli"]) for _ in range(SETUP_REPEATS))
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = traced["pass_s"][0] / main["pass_s"][0]
    values["cli.interpreter_s"] = bare
    values["cli.import_s"] = with_cli - bare
    return main, values


def run_workload(workload: str, seed: int, seconds: float, trace: bool, jobs: int | None) -> tuple[dict, dict]:
    """One run; returns (metadata, result line)."""
    spec = benchmark_spec()
    count = jobs or job_count(workload, seconds, trace)
    # compile the package once so no timed process pays bytecode compilation
    timed_python(["-c", "import loopbv.cli"])
    if trace:
        main, values = per_layer(workload, seed, count)
        metrics = pick(values, spec["per_layer"])
    else:
        main, values = end_to_end(workload, seed, count)
        metrics = pick(values, spec["end_to_end"])
    ms, failed = main["job_ms"], main["failed"]
    wrong = main["wrong"] + [{"job": "golden", "detail": d} for d in main["golden_mismatches"]]
    bad = {item["job"] for item in failed + main["wrong"]}
    metadata = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "jobs": len(ms),
        "passes": len(main["pass_s"]),
        "job_ms_samples": len(main["samples_ms"]),
        "pass_wall_s": main["pass_s"],
        "pass_factors": main["factors"],
        "unscaled": main.get("unscaled"),
        "failed_ratio": len(bad) / len(ms),
        "jobs_digest": main["jobs_digest"],
        "output_digest": main["output_digest"],
        "failed_jobs": failed,
        "wrong_results": wrong,
        "python": platform.python_version(),
        "commit": commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
    }
    result = {"correct": not wrong, "attempted": len(ms), "failed": len(bad), "metrics": metrics}
    return metadata, result


def record_golden() -> None:
    from worker import GOLDEN_PATH

    golden = {}
    for workload in WORKLOADS:
        golden[workload] = worker(workload, 0, 1, "--golden", "record")["golden"]
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None, help="override the job count (smoke tests)")
    parser.add_argument("--record-golden", action="store_true",
                        help="record bench/golden.json from the code in this checkout")
    args = parser.parse_args(argv)

    missing = [p for p in ("src/loopbv/__init__.py", "tests/fixtures", "BENCHMARK.json") if not (ROOT / p).exists()]
    if missing:
        print(f"error: run from a loopbv checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for workload in workloads:
        metadata, result = run_workload(workload, args.seed, args.seconds, bool(args.trace), args.jobs)
        correct = correct and result["correct"]
        if args.workload == "all":
            for name, metric in result["metrics"].items():
                print(f"{workload:9} {name:40} {metric['value']:>14.6g} {metric['unit']}")
        print(json.dumps(metadata))
        print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
