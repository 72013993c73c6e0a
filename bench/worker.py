"""Run one workload's job list in this fresh, single-threaded process.

Prints one JSON object on stdout: per-job latencies, failures by job name,
digests of the job list and of every job's canonical output, peak RSS, the
golden-digest verdict and, when traced, the per-layer metrics.  End-to-end
timings come only from untraced runs; ``bench/run.py`` starts this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

import workloads as wl
from tracer import ARG_COUNTERS, TRACED, Tracer

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEED = 20240229
GOLDEN_JOBS = 24
# jobs per gauge reading
GAUGE_EVERY = 5


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def jobs_digest(jobs) -> str:
    return sha(wl.canonical_json(jobs))


def output_digest(job, result) -> str:
    _, canon, _ = wl.job_spec(job)
    return sha(wl.canonical_json(canon(job, result)))


def run_jobs(jobs, ctx, gauge, tracer=None):
    """Closed loop: time each job, then check it outside the timed region.

    ``gauge`` is read before every GAUGE_EVERY-th job and after the last
    one, outside the timed region.
    """
    ms, gauge_ms, failed, wrong, digests = [], [], [], [], {}
    for i, job in enumerate(jobs):
        run, _, check = wl.job_spec(job)
        if i % GAUGE_EVERY == 0:
            gauge_ms.append(gauge())
        if tracer:
            tracer.job, tracer.active = i, True
        t0 = perf_counter()
        try:
            result = run(job, ctx)
            error = None
        except Exception as exc:  # a job that raises is a failed operation
            result, error = None, f"FAILED {type(exc).__name__}: {exc}"
        ms.append((perf_counter() - t0) * 1000.0)
        if tracer:
            tracer.active = False
        message = error or check(job, result, ctx)
        if message is None:
            digests[job["name"]] = output_digest(job, result)
        elif message.startswith("FAILED"):
            failed.append({"job": job["name"], "detail": message[len("FAILED "):]})
        else:
            wrong.append({"job": job["name"], "detail": message})
        # release the result, so the next job's peak memory is its own
        result = None
    gauge_ms.append(gauge())
    return ms, gauge_ms, failed, wrong, digests


def golden_outputs(workload: str, ctx) -> tuple[str, dict]:
    jobs = [j for j in wl.generate(workload, GOLDEN_SEED, GOLDEN_JOBS) if wl.golden_eligible(j)]
    outputs = {}
    for job in jobs:
        run, _, _ = wl.job_spec(job)
        try:
            outputs[job["name"]] = output_digest(job, run(job, ctx))
        except Exception as exc:  # recorded as a mismatch, never as a digest
            outputs[job["name"]] = f"raised {type(exc).__name__}: {exc}"
    return jobs_digest(jobs), outputs


def golden_mismatches(workload: str, ctx) -> list[str]:
    recorded = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[workload]
    digest, outputs = golden_outputs(workload, ctx)
    if digest != recorded["jobs_digest"]:
        return ["golden job list changed: record the digests again (run.py --record-golden) at commit deb2ade"]
    return [
        f"{name}: output differs from the recorded digest"
        for name, value in recorded["outputs"].items()
        if outputs.get(name) != value
    ]


def _slope(points) -> float:
    """Least-squares slope of log y against log x; 0 without two distinct x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def page_cells(max_top_degree: int) -> int:
    """(p, q) cells of one page: q from -(2n+1) up, p while 2p + q + 2n + 1 <= D."""
    return sum(j // 2 + 1 for j in range(max_top_degree + 1))


def layer_metrics(summaries, jobs) -> dict:
    """Per-layer metrics from tracer summaries; span job fields index ``jobs``."""
    names = [f"{mod}.{attr}" for mod, attrs in TRACED.items() for attr in attrs]
    calls = dict.fromkeys(names, 0)
    self_s = dict.fromkeys(names, 0.0)
    counts = {counter: 0 for counter, _ in ARG_COUNTERS.values()}
    spans = []
    basis_hits = basis_misses = 0
    for summary in summaries:
        basis_hits += summary["basis_cache"][0]
        basis_misses += summary["basis_cache"][1]
        for name, value in summary["calls"].items():
            calls[name] = calls.get(name, 0) + value
        for name, value in summary["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        for name, value in summary["counts"].items():
            counts[name] = counts.get(name, 0) + value
        offset = len(spans)
        spans += [
            (job, name, parent + offset if parent >= 0 else -1, t0, t1, key)
            for job, name, parent, t0, t1, key in summary["spans"]
        ]
    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out.update(counts)
    lookups = basis_hits + basis_misses
    out["ring.basis.hit_ratio"] = basis_hits / lookups if lookups else 0.0

    pages_by_parent: dict = {}
    cells = 0
    for job, name, parent, t0, t1, key in spans:
        if name in ("spectral.e2_page", "spectral.e3_page"):
            cells += page_cells(key[3])
        if name == "spectral.e3_page" and parent >= 0 and spans[parent][1] == "spectral.verify_collapse":
            pages_by_parent.setdefault(parent, []).append(tuple(key))
    built = sum(len(keys) for keys in pages_by_parent.values())
    distinct = sum(len(set(keys)) for keys in pages_by_parent.values())
    out["spectral.e3_page.useful_ratio"] = distinct / built if built else 1.0
    out["spectral.cells"] = cells
    out["spectral.verify_collapse.d_exponent"] = _slope(
        (jobs[job]["D"], t1 - t0) for job, name, _, t0, t1, _ in spans
        if name == "spectral.verify_collapse" and "D" in jobs[job]
    )
    out["series.average_alternating.n_exponent"] = _slope(
        (jobs[job]["n"], t1 - t0) for job, name, _, t0, t1, _ in spans
        if name == "series.average_alternating" and "n" in jobs[job]
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--golden", choices=("check", "record", "skip"), default="check")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    wl.loopbv()
    jobs = wl.generate(args.workload, args.seed, args.jobs)
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "gauge_ms": wl.gauge(args.workload)[0]()}))
        return 0

    tmpdir = wl.ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{'t' if args.trace else 'u'}"
    shutil.rmtree(tmpdir, ignore_errors=True)
    tmpdir.mkdir(parents=True)
    try:
        # the CLI workload traces inside each child process (cli_child.py)
        tracer = Tracer() if args.trace and args.workload != "cli" else None
        if tracer:
            tracer.install()
        ctx = wl.Context(
            tmpdir,
            delta_fn=tracer.fn("bv.delta") if tracer else None,
            trace_dir=tmpdir if args.trace and args.workload == "cli" else None,
        )
        ms, gauge_ms, failed, wrong, outputs = run_jobs(jobs, ctx, wl.gauge(args.workload)[0], tracer)
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        peak_rss_kb = resource.getrusage(usage).ru_maxrss
        result = {
            "setup_s": setup_s,
            "job_ms": ms,
            "gauge_ms": gauge_ms,
            "failed": failed,
            "wrong": wrong,
            "jobs_digest": jobs_digest(jobs),
            "output_digest": sha("\n".join(f"{name} {digest}" for name, digest in outputs.items())),
            "outputs": outputs,
            "peak_rss_kb": peak_rss_kb,
        }
        if args.trace:
            if tracer:
                summaries = [tracer.summary()]
            else:
                index = {job["name"]: i for i, job in enumerate(jobs)}
                summaries = [
                    dict(summary, spans=[[index[name], *span[1:]] for span in summary["spans"]])
                    for name, summary in ctx.child_traces
                ]
            layers = layer_metrics(summaries, jobs)
            layers["cli.stdout_bytes"] = ctx.cli_stdout_bytes
            result["layers"] = layers
            out_dir = wl.ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            trace_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps({"jobs": jobs, "summaries": summaries}), encoding="utf-8")
        if args.golden == "record":
            digest, outputs = golden_outputs(args.workload, ctx)
            result["golden"] = {"seed": GOLDEN_SEED, "jobs": GOLDEN_JOBS, "jobs_digest": digest,
                                "outputs": outputs}
        elif args.golden == "check":
            result["golden_mismatches"] = golden_mismatches(args.workload, ctx)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
