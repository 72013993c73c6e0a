"""Job lists, job execution and result checks for the four benchmark workloads.

Every workload is a closed loop with one client: a mathematician who waits
for each result before asking the next question.  A job list is a pure
function of (workload, seed, count).  Job sizes are spread over their range
one stratum per job, so the total work of a run hardly depends on the seed,
which keeps the run-to-run spread of the end-to-end metrics small.

Each job type is a triple of functions:

* ``run(job, ctx)`` is the timed call into the public API;
* ``canon(job, result)`` gives the JSON-ready output whose digest is recorded;
* ``check(job, result, ctx)`` returns ``None`` or a message.  A message that
  starts with ``FAILED`` marks an operation that failed (wrong exit code,
  timeout, unparseable output); any other message is a wrong mathematical
  result.

Why each workload exists:

* ``collapse`` runs the O(D^2) per-cell page path in ``spectral`` and the
  ``ring.basis``/``dimension`` lookups behind it; ``series`` does almost
  nothing here.
* ``algebra`` makes ``ring`` compute (``multiply``/``normalize``) instead of
  serving lookups, and keeps ``spectral`` idle, so a ring change that helps
  one use and hurts the other shows on one of these two workloads.
* ``series`` runs only ``series`` and ``resonance``; a ``spectral`` change is
  predicted to leave it unchanged.
* ``cli`` runs every subcommand as its own process, so it is the only
  workload that pays interpreter start, import, argparse and rendering.

BENCHMARK.json lists ``collapse`` and ``cli`` only; ``algebra`` and
``series`` run the same way from ``bench/run.py --workload``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
CASES = ("A_v", "A_vxw", "B_w", "B_wxvw")

# verdicts of resonance_check / nondegenerate_check on the checked-in fixtures
FIXTURE_VERDICTS = {
    "resonance_n1_mixed.json": {"full": True, "nondegenerate": None},
    "resonance_n1_negative.json": {"full": False, "nondegenerate": False},
    "resonance_n1_nondegenerate.json": {"full": True, "nondegenerate": True},
    "resonance_n2.json": {"full": True, "nondegenerate": True},
}

# window and sample count at which axiom_failures finds the even-n B-case
# obstruction on essentially every seed: a sample misses it with probability
# about 0.96, so a job misses it with probability below 1e-6
AXIOM_WINDOW = (-1, 0)
AXIOM_SAMPLES = 350

# the slowest CLI job that finishes takes under 0.5 s on a slow spell
CLI_TIMEOUT_S = 2.0


def loopbv():
    """Import the package from the checkout's ``src`` directory."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import loopbv as lb

    return lb


def frac(value) -> str:
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _json_default(value):
    if isinstance(value, Fraction):
        return frac(value)
    raise TypeError(f"cannot serialise {type(value).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_json_default)


def int_expand(r, n_terms: int) -> list[int]:
    """Coefficients through t^n_terms by the integer recurrence; needs den(0) = +-1.

    An independent check on ``series.expand``, which works in ``Fraction``.
    """
    num, den = r.numerator, r.denominator
    if den[0] not in (1, -1):
        raise ValueError("integer expansion needs den(0) = +-1")
    terms = [(j, d) for j, d in enumerate(den) if j and d]
    coeffs: list[int] = []
    for k in range(n_terms + 1):
        acc = num[k] if k < len(num) else 0
        acc -= sum(d * coeffs[k - j] for j, d in terms if j <= k)
        coeffs.append(acc * den[0])
    return coeffs


# ---------------------------------------------------------------- gauges
#
# A shared host runs the interpreter up to twice as slowly for seconds to
# minutes at a time, more than any bound a benchmark could keep.  A gauge is
# a fixed task that uses nothing from the package and slows down with the
# host by about as much as a job does; bench/run.py reports every time at
# the speed at which the gauge reads its reference value.


def gauge_ms() -> float:
    """The fastest of three runs of a fixed pure-Python task, in ms.

    The task builds a dictionary keyed by small tuples and sorts its keys,
    the kind of work the package's spectral and ring code does.
    """
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        table = {}
        for i in range(3000):
            table[i % 61, i % 59, i] = [i, i + 1]
        sorted(table, key=lambda key: (key[1], key[0]))
        best = min(best, perf_counter() - t0)
    return best * 1000.0


def interpreter_start_ms() -> float:
    """Wall time of a bare ``python -c pass`` process, in ms: the gauge for
    CLI jobs, which are mostly interpreter start and imports."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(), check=True, timeout=CLI_TIMEOUT_S)
    return (perf_counter() - t0) * 1000.0


def gauge(workload: str):
    """The gauge of a workload and its reference reading in ms: what it reads
    on a 2-vCPU x86-64 Linux VM with Python 3.11.7 in the VM's fast state."""
    return (interpreter_start_ms, 47.0) if workload == "cli" else (gauge_ms, 1.6)


# ---------------------------------------------------------------- generation


def _counts(count: int, shares: dict) -> dict:
    """Jobs per type in proportion to ``shares``, by largest remainder."""
    raw = {t: count * s / sum(shares.values()) for t, s in shares.items()}
    taken = {t: int(v) for t, v in raw.items()}
    for t in sorted(raw, key=lambda t: taken[t] - raw[t])[: count - sum(taken.values())]:
        taken[t] += 1
    return taken


def _strata(k: int, lo: float, hi: float) -> list[int]:
    """``k`` sizes log-spaced over [lo, hi] at the midpoints of k equal strata,
    in increasing order.  Fixed sizes keep the work of a run independent of
    the seed, which then sets the order and every other parameter."""
    return [round(lo * (hi / lo) ** ((i + 0.5) / k)) for i in range(k)]


def gen_collapse(rng: random.Random, count: int) -> list[dict]:
    jobs = []
    for t, k in _counts(count, {"verify_collapse": 0.7, "e3_page": 0.3}).items():
        # (n, case) pairs differ by up to 30 % in cost at one cutoff: along D,
        # n steps every job from a seeded start and the case every job with a
        # shift every eight, so any eight neighbouring cutoffs hold every n
        # and any 32 every pair, and the jobs near a percentile cost about
        # the same whatever the seed
        offset = rng.randrange(8)
        for rank, D in enumerate(_strata(k, 60, 600)):
            n = 1 + (rank + offset) % 8
            job = {"type": t, "n": n, "case": CASES[(rank + rank // 8) % len(CASES)], "D": D}
            if t == "e3_page":
                # the e page costs about twice the g page: alternate along D,
                # shifted every eight so that each n gets both
                job["comp"] = "eg"[(rank + rank // 8) % 2]
            jobs.append(job)
    rng.shuffle(jobs)
    return jobs


def gen_algebra(rng: random.Random, count: int) -> list[dict]:
    lb = loopbv()
    pools: dict = {}

    def elem(n, case, lo=1, hi=12):
        if (n, case) not in pools:
            cfg = lb.AlgebraConfig(n, lb.BVCase(case))
            pools[n, case] = [
                [m.a, m.b, m.c] for q in range(-(2 * n + 1), 12 * n + 1) for m in lb.basis(cfg, None, q)
            ]
        return sorted(rng.sample(pools[n, case], rng.randint(lo, hi)))

    shares = {
        "multiply": 0.28,
        "power": 0.1,
        "delta": 0.2,
        "bracket": 0.2,
        "axiom_failures": 0.02,
        "morphism": 0.1,
        "delta_table": 0.1,
    }
    # axiom checks take most of the time of this workload and cost more where
    # they find the obstruction: they cycle through every (n, case)
    configs = [(n, case) for n in range(1, 7) for case in CASES]
    jobs = []
    for t, k in _counts(count, shares).items():
        for rank in range(k):
            n, case = configs[rank % len(configs)] if t == "axiom_failures" else (rng.randint(1, 6), rng.choice(CASES))
            job = {"type": t, "n": n, "case": case}
            if t in ("multiply", "bracket"):
                job["u"], job["v"] = elem(n, case), elem(n, case)
            elif t == "power":
                job["u"], job["k"] = elem(n, case, 1, 4), rng.randint(2, 8)
            elif t == "delta":
                job["u"] = elem(n, case)
            elif t == "axiom_failures":
                job["seed"] = rng.randrange(2**31)
            elif t == "morphism":
                job["a"] = [rng.randint(0, 1) for _ in range(3)]
                job["b"] = [rng.randint(0, 1) for _ in range(3)]
                job["c"] = [rng.randint(0, 1) for _ in range(4)]
            elif t == "delta_table":
                lo = rng.randint(-(2 * n + 1), 6 * n)
                job["comp"], job["lo"], job["hi"] = rng.choice("eg"), lo, rng.randint(lo, 12 * n)
            jobs.append(job)
    rng.shuffle(jobs)
    # job generation must leave the ring caches cold for the timed run
    lb.basis.cache_clear()
    return jobs


def _nondegenerate_set(rng: random.Random, n: int, passing: bool) -> list[dict]:
    """Nondegenerate geodesics whose signed reciprocal mean indices sum to
    (n+1)/n, so both identities hold; ``passing=False`` perturbs one index."""
    target = Fraction(n + 1, n)
    negatives = [Fraction(1, rng.randint(2, 9)) for _ in range(rng.randint(0, 1))]
    weights = [rng.randint(1, 9) for _ in range(rng.randint(2, 4))]
    positive_total = target + sum(negatives)
    recips = [positive_total * w / sum(weights) for w in weights]
    geodesics = [(2 * rng.randint(0, 2), 1 / r) for r in recips]
    geodesics += [(2 * rng.randint(0, 2) + 1, 1 / r) for r in negatives]
    if not passing:
        i = rng.randrange(len(geodesics))
        geodesics[i] = (geodesics[i][0], geodesics[i][1] * Fraction(11, 10))
    return [
        {
            "label": f"c{i}",
            "initial_index": index,
            "mean_index": frac(mean),
            "period": 2,
            "type_numbers": [{"m": 1, "l": 0, "k": 1}],
            "nondegenerate": True,
        }
        for i, (index, mean) in enumerate(geodesics)
    ]


def _mixed_records(rng: random.Random, n: int) -> list[dict]:
    """Two degenerate records with one type number per iterate slot.  The
    Morse work per unit of q is about 1/(2 mean index) per record, so mean
    indices stay in [1.8, 2.2]."""
    records = []
    for i in range(2):
        period = rng.choice((2, 4, 6))
        records.append(
            {
                "label": f"g{i}",
                "initial_index": rng.randint(0, 3),
                "mean_index": frac(Fraction(rng.randint(18, 22), 10)),
                "period": period,
                "type_numbers": [
                    {"m": m, "l": rng.randint(0, min(4 * n, 4)), "k": rng.randint(1, 2)}
                    for m in range(1, period // 2 + 1)
                ],
            }
        )
    return records


def gen_series(rng: random.Random, count: int) -> list[dict]:
    shares = {
        "avg_lg": 0.2,
        "avg_le": 0.1,
        "expand": 0.2,
        "eq_exact": 0.1,
        "resonance": 0.15,
        "resonance_fixture": 0.05,
        "morse": 0.1,
        "morse_fixture": 0.1,
    }
    fixtures = sorted(FIXTURE_VERDICTS)
    jobs = []
    for t, k in _counts(count, shares).items():
        if t == "expand":
            # expansion cost grows with N times the denominator length (about
            # 2n), so long expansions go with small n: the work per job stays
            # within a band
            ns = _strata(k, 1, 120)
            sizes = zip(ns, reversed(_strata(k, 10, 2000)))
        elif t in ("morse", "morse_fixture"):
            sizes = _strata(k, 100, 100000)
        else:
            sizes = _strata(k, 1, 120)
        for rank, size in enumerate(sizes):
            job = {"type": t}
            if t == "expand":
                job["n"], job["N"] = size
                job["which"] = ("total", "lg", "le")[rank % 3]
            elif t == "eq_exact":
                job["n"], job["equal"] = size, rng.random() < 0.5
            elif t == "resonance":
                job["n"], job["passing"] = size, rng.random() < 0.5
                job["geodesics"] = _nondegenerate_set(rng, size, job["passing"])
            elif t == "resonance_fixture":
                job["fixture"] = fixtures[rank % len(fixtures)]
            elif t == "morse":
                job["q"], job["n"] = size, rng.randint(1, 120)
                job["geodesics"] = _mixed_records(rng, job["n"])
            elif t == "morse_fixture":
                # fixtures differ in Morse work per unit of q: cycle them along q
                job["q"], job["fixture"] = size, fixtures[rank % len(fixtures)]
            else:
                job["n"] = size
            jobs.append(job)
    rng.shuffle(jobs)
    return jobs


def gen_cli(rng: random.Random, count: int) -> list[dict]:
    """Small runs of every subcommand, plus an input-error slice whose right
    answer is exit 2 and the known input-handling defects."""
    shares = {
        "ring": 0.12,
        "bv": 0.12,
        "pages": 0.17,
        "series": 0.17,
        "verify": 0.12,
        "resonance": 0.17,
        "malformed_json": 0.03,
        "unknown_case": 0.03,
        "negative_degree": 0.03,
        "n_true": 0.02,
        "verify_json": 0.02,
    }
    # one job per run for the input that spins in morse_truncation: each
    # costs a full per-job timeout until the defect is fixed
    counts = _counts(count - 1, shares)
    types = [t for t, k in counts.items() for _ in range(k)] + ["mean_index_spin"]
    rng.shuffle(types)
    fixtures = sorted(FIXTURE_VERDICTS)
    ranges = {"pages": (20, 120), "series": (10, 200), "verify": (20, 100), "verify_json": (20, 100)}
    sizes = {t: _strata(counts[t], lo, hi) for t, (lo, hi) in ranges.items()}
    for grid in sizes.values():
        rng.shuffle(grid)
    seen: Counter = Counter()

    def fmt(choices=("json", "table", "csv")):
        r = rng.random()
        return "json" if r < 0.7 else choices[1 + int((r - 0.7) / 0.3 * (len(choices) - 1))]

    jobs = []
    for t in types:
        n, case = rng.randint(1, 4), rng.choice(CASES)
        job: dict = {"type": t, "expect_exit": 0}
        rank = seen[t]
        seen[t] += 1
        if t in ("ring", "bv"):
            job["format"] = fmt()
            job["argv"] = [t] + (["table"] if t == "bv" else []) + [
                "--n", str(n), "--case", case, "--component", rng.choice(("e", "g", "both")),
                "--format", job["format"],
            ]
        elif t == "pages":
            job.update(n=n, D=sizes[t][rank], comp=("e", "g", "both")[rank % 3],
                       page=rng.choice((2, 3)), format=fmt())
            job["argv"] = ["pages", "--n", str(n), "--case", case, "--component", job["comp"],
                           "--max-degree", str(job["D"]), "--page", str(job["page"]),
                           "--format", job["format"]]
        elif t == "series":
            n = rng.randint(1, 20)
            job.update(n=n, which=rng.choice(("lg", "le", "total")), format=fmt(("json", "table")))
            job["argv"] = ["series", "--n", str(n), "--which", job["which"],
                           "--expand", str(sizes[t][rank]), "--format", job["format"]]
            if job["which"] != "total" and rng.random() < 0.5:
                job["argv"].append("--average")
                # le has a double pole at t = -1: no Cesàro limit, exit 2
                job["expect_exit"] = 2 if job["which"] == "le" else 0
        elif t in ("verify", "verify_json"):
            job.update(n=n, case=case, D=sizes[t][rank], format="table" if t == "verify" else "json")
            job["argv"] = ["verify", "--n", str(n), "--case", case,
                           "--max-degree", str(job["D"]),
                           "--samples", str(rng.randint(5, 20)), "--seed", str(rng.randrange(1000)),
                           "--format", job["format"]]
            # sampled axiom checks may or may not hit the even-n B obstruction
            job["expect_exit"] = (0, 1) if case.startswith("B") and n % 2 == 0 else 0
        elif t == "resonance":
            job["format"] = fmt(("json", "table"))
            if rng.random() < 0.3:
                job["fixture"] = rng.choice(fixtures)
                path = f"tests/fixtures/{job['fixture']}"
                verdicts = FIXTURE_VERDICTS[job["fixture"]]
                check = "nondegenerate" if verdicts["nondegenerate"] is not None and rng.random() < 0.5 else "full"
                passed = verdicts[check]
            else:
                passing = rng.random() < 0.5
                job["input"] = {"n": n, "geodesics": _nondegenerate_set(rng, n, passing)}
                path, check, passed = "{input}", rng.choice(("full", "nondegenerate")), passing
            job["argv"] = ["resonance", "--input", path, "--check", check, "--format", job["format"]]
            if check == "full" and rng.random() < 0.5:
                job["argv"] += ["--morse", str(rng.randint(100, 2000))]
            job["expect_exit"] = 0 if passed else 1
        elif t == "malformed_json":
            job["input_text"] = '{"n": 1, "geodesics": [{"label": "c1",'
            job["argv"] = ["resonance", "--input", "{input}"]
            job["expect_exit"] = 2
        elif t == "unknown_case":
            job["argv"] = ["pages", "--n", str(n), "--case", rng.choice(("C_v", "A_w", "b_w"))]
            job["expect_exit"] = 2
        elif t == "negative_degree":
            job["argv"] = [rng.choice(("pages", "verify")), "--n", str(n),
                           "--max-degree", str(-rng.randint(1, 50))]
            job["expect_exit"] = 2
        elif t == "n_true":
            job["input"] = {"n": True, "geodesics": _nondegenerate_set(rng, 1, True)}
            job["argv"] = ["resonance", "--input", "{input}", "--format", "json"]
            job["expect_exit"] = 2
        elif t == "mean_index_spin":
            geodesic = {"label": "slow", "initial_index": 0, "mean_index": "1/100000", "period": 2,
                        "type_numbers": [{"m": 1, "l": 0, "k": 1}]}
            job["input"] = {"n": 1, "geodesics": [geodesic]}
            job["argv"] = ["resonance", "--input", "{input}", "--morse", "100"]
            job["expect_exit"] = 2
        jobs.append(job)
    return jobs


GENERATORS = {
    "collapse": gen_collapse,
    "algebra": gen_algebra,
    "series": gen_series,
    "cli": gen_cli,
}


def generate(workload: str, seed: int, count: int) -> list[dict]:
    """The job list of one run; names carry the position and the job type."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = GENERATORS[workload](rng, count)
    for i, job in enumerate(jobs):
        job["name"] = f"{workload}.{i:04d}.{job['type']}"
    return jobs


# ---------------------------------------------------------------- execution


class Context:
    """What a job needs besides its own parameters."""

    def __init__(self, tmpdir: Path, delta_fn=None, trace_dir: Path | None = None):
        self.lb = loopbv()
        self.tmpdir = tmpdir
        self.trace_dir = trace_dir
        # functions that bind bv.delta as a default argument see the traced
        # operator only through their public delta_fn parameter
        self.delta_kw = {"delta_fn": delta_fn} if delta_fn else {}
        self.fixtures = {
            name: json.loads((FIXTURES / name).read_text(encoding="utf-8")) for name in FIXTURE_VERDICTS
        }
        self.cli_stdout_bytes = 0
        self.child_traces: list[tuple[str, dict]] = []

    def cfg(self, job):
        return self.lb.AlgebraConfig(job["n"], self.lb.BVCase(job["case"]))

    def element(self, triples):
        lb = self.lb
        return lb.element(*(lb.Monomial(*t) for t in triples))


# collapse


def run_verify_collapse(job, ctx):
    return ctx.lb.verify_collapse(ctx.cfg(job), job["D"], **ctx.delta_kw)


def canon_verify_collapse(job, rep):
    return {
        "passed": rep.passed,
        "e_page_stable": rep.e_page_stable,
        "first_mismatch": rep.first_mismatch,
        "computed": list(rep.computed),
    }


def check_verify_collapse(job, rep, ctx):
    lb = ctx.lb
    if not rep.passed:
        return f"collapse certificate failed: {rep.first_mismatch}"
    lg = int_expand(lb.lg_series(job["n"]), job["D"])
    le = int_expand(lb.le_series(job["n"]), job["D"])
    if list(rep.computed) != [a + b for a, b in zip(lg, le)]:
        return "page series differ from expand(lg_series) + expand(le_series)"
    return None


def run_e3_page(job, ctx):
    lb = ctx.lb
    ss = lb.SSConfig(ctx.cfg(job), lb.Component(job["comp"]), job["D"])
    return lb.page_to_json(lb.e3_page(ss, **ctx.delta_kw), ss)


def check_e3_page(job, page, ctx):
    lb = ctx.lb
    closed = lb.lg_series if job["comp"] == "g" else lb.le_series
    if page["series"] != int_expand(closed(job["n"]), job["D"]):
        return f"{job['comp']}-page series differs from the closed form"
    return None


# algebra


def run_multiply(job, ctx):
    return ctx.lb.multiply(ctx.element(job["u"]), ctx.element(job["v"]), ctx.cfg(job))


def check_multiply(job, product, ctx):
    if ctx.lb.multiply(ctx.element(job["v"]), ctx.element(job["u"]), ctx.cfg(job)) != product:
        return "product is not commutative"
    return None


def run_power(job, ctx):
    return ctx.lb.power(ctx.element(job["u"]), job["k"], ctx.cfg(job))


def check_power(job, result, ctx):
    lb, cfg, u, k = ctx.lb, ctx.cfg(job), ctx.element(job["u"]), job["k"]
    split = lb.multiply(lb.power(u, k // 2, cfg), lb.power(u, k - k // 2, cfg), cfg)
    if split != result:
        return "u^k differs from u^(k//2) * u^(k - k//2)"
    return None


def run_delta(job, ctx):
    cfg, u = ctx.cfg(job), ctx.element(job["u"])
    return ctx.lb.delta(u, cfg), ctx.lb.delta_oracle(u, cfg)


def check_delta(job, result, ctx):
    return None if result[0] == result[1] else "delta differs from delta_oracle"


def run_bracket(job, ctx):
    return ctx.lb.bracket(ctx.element(job["u"]), ctx.element(job["v"]), ctx.cfg(job))


def check_bracket(job, result, ctx):
    lb, cfg = ctx.lb, ctx.cfg(job)
    u, v = ctx.element(job["u"]), ctx.element(job["v"])
    if lb.bracket(v, u, cfg) != result:
        return "bracket is not symmetric"
    if job["case"].startswith("A") or job["n"] % 2:
        # the BV relation holds wherever the ring is a graded BV algebra
        d = lb.bv.delta
        rhs = lb.add(lb.add(lb.multiply(d(u, cfg), v, cfg), lb.multiply(u, d(v, cfg), cfg)), result)
        if d(lb.multiply(u, v, cfg), cfg) != rhs:
            return "bracket breaks the BV relation"
    return None


def run_axiom_failures(job, ctx):
    lo, hi = AXIOM_WINDOW
    return ctx.lb.bv.axiom_failures(ctx.cfg(job), lo, hi, AXIOM_SAMPLES, job["seed"])


def check_axiom_failures(job, failures, ctx):
    obstructed = job["case"].startswith("B") and job["n"] % 2 == 0
    if bool(failures) != obstructed:
        return f"axiom failures {'missing' if obstructed else 'reported'} for n={job['n']} {job['case']}"
    return None


def run_morphism(job, ctx):
    lb, cfg = ctx.lb, ctx.cfg(job)
    phi = lb.morphism_from_switches(cfg, tuple(job["a"]), tuple(job["b"]), tuple(job["c"]))
    return lb.verify_morphism_relations(phi, cfg)


def run_delta_table(job, ctx):
    lb = ctx.lb
    return lb.delta_table(ctx.cfg(job), lb.Component(job["comp"]), job["lo"], job["hi"])


def check_delta_table(job, table, ctx):
    lb, cfg = ctx.lb, ctx.cfg(job)
    for m, image in table.rows.items():
        if lb.delta_oracle(lb.element(m), cfg) != image:
            return f"delta_table row {m} differs from delta_oracle"
    return None


# series


def run_avg(job, ctx):
    lb = ctx.lb
    closed = lb.lg_series if job["type"] == "avg_lg" else lb.le_series
    try:
        return lb.average_alternating(closed(job["n"]))
    except lb.NonQuasilinearError:
        return "NonQuasilinearError"


def check_avg(job, value, ctx):
    want = Fraction(job["n"] + 1, 2 * job["n"]) if job["type"] == "avg_lg" else "NonQuasilinearError"
    return None if value == want else f"average {value}, expected {want}"


def _closed(ctx, which, n):
    return {"total": ctx.lb.total_series, "lg": ctx.lb.lg_series, "le": ctx.lb.le_series}[which](n)


def run_expand(job, ctx):
    return ctx.lb.expand(_closed(ctx, job["which"], job["n"]), job["N"]).coefficients


def check_expand(job, coeffs, ctx):
    if list(coeffs) != int_expand(_closed(ctx, job["which"], job["n"]), job["N"]):
        return "expansion differs from the integer recurrence"
    return None


def run_eq_exact(job, ctx):
    lb, n = ctx.lb, job["n"]
    other = lb.lg_series(n) + lb.le_series(n if job["equal"] else n + 1)
    return lb.eq_exact(lb.total_series(n), other)


def check_eq_exact(job, value, ctx):
    return None if value is job["equal"] else f"eq_exact gave {value}, expected {job['equal']}"


def _problem(job, ctx):
    obj = ctx.fixtures[job["fixture"]] if "fixture" in job else {"n": job["n"], "geodesics": job["geodesics"]}
    return ctx.lb.load_problem(obj)


def run_resonance(job, ctx):
    lb = ctx.lb
    n, records = _problem(job, ctx)
    full = lb.resonance_check(records, n)
    nondeg = lb.nondegenerate_check(records, n) if all(r.nondegenerate for r in records) else None
    return full, nondeg


def canon_resonance(job, result):
    full, nondeg = result
    out = {"passed": full.passed, "total": full.total, "target": full.target,
           "per_geodesic": full.per_geodesic}
    if nondeg is not None:
        out["nondegenerate"] = {"passed": nondeg.passed, "total": nondeg.total,
                                "consistent_with_full": nondeg.consistent_with_full}
    return out


def check_resonance(job, result, ctx):
    full, nondeg = result
    if "fixture" in job:
        want = FIXTURE_VERDICTS[job["fixture"]]
        want_full, want_nondeg = want["full"], want["nondegenerate"]
    else:
        want_full = want_nondeg = job["passing"]
    if full.passed is not want_full:
        return f"resonance_check verdict {full.passed}, expected {want_full}"
    if want_nondeg is not None and (nondeg is None or nondeg.passed is not want_nondeg):
        return f"nondegenerate_check verdict differs from {want_nondeg}"
    if nondeg is not None and not nondeg.consistent_with_full:
        return "nondegenerate sum is not twice the full sum"
    return None


def run_morse(job, ctx):
    n, records = _problem(job, ctx)
    return ctx.lb.morse_truncation(records, n, job["q"])


def canon_morse(job, trunc):
    return {"alternating_sum": trunc.alternating_sum, "average": trunc.average,
            "counts": list(trunc.counts)}


def morse_counts(problem: dict, q: int) -> list[int]:
    """Integer recount of the rounded-linear Morse counts w_0..w_q."""
    n = problem["n"]
    counts = [0] * (q + 1)
    for rec in problem["geodesics"]:
        p, r = Fraction(str(rec["mean_index"])).as_integer_ratio()
        parity = rec["initial_index"] % 2
        for entry in rec.get("type_numbers", []):
            if not entry["k"]:
                continue
            iterate = 2 * entry["m"] - 1
            while p * iterate - 2 * n * r <= q * r:
                low = p * iterate // r
                if low % 2 != parity:
                    low -= 1
                index = low if p * iterate <= (low + 1) * r else low + 2
                h = entry["l"] + index
                if h <= q:
                    counts[h] += entry["k"]
                iterate += rec["period"]
    return counts


def check_morse(job, trunc, ctx):
    problem = ctx.fixtures[job["fixture"]] if "fixture" in job else job
    counts = morse_counts({"n": problem["n"], "geodesics": problem["geodesics"]}, job["q"])
    if list(trunc.counts) != counts:
        return "Morse counts differ from the integer recount"
    alternating = sum(-c if h % 2 else c for h, c in enumerate(counts))
    if trunc.alternating_sum != alternating or trunc.average != Fraction(alternating, job["q"]):
        return "alternating sum or average differs from the recount"
    return None


# cli


def run_cli(job, ctx):
    argv = list(job["argv"])
    if "{input}" in argv:
        path = ctx.tmpdir / f"{job['name']}.json"
        text = job["input_text"] if "input_text" in job else json.dumps(job["input"])
        path.write_text(text, encoding="utf-8")
        argv[argv.index("{input}")] = str(path)
    if ctx.trace_dir is not None:
        trace_path = ctx.trace_dir / f"{job['name']}.trace.json"
        cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(trace_path), *argv]
    else:
        cmd = [sys.executable, "-m", "loopbv.cli", *argv]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": None, "stdout": "", "stderr": f"timeout after {CLI_TIMEOUT_S} s"}
    return {"exit": proc.returncode, "stdout": proc.stdout.decode(), "stderr": proc.stderr.decode()}


def canon_cli(job, out):
    return {"exit": out["exit"], "stdout": out["stdout"]}


def check_cli(job, out, ctx):
    ctx.cli_stdout_bytes += len(out["stdout"].encode())
    if ctx.trace_dir is not None:
        trace_path = ctx.trace_dir / f"{job['name']}.trace.json"
        if trace_path.exists():
            ctx.child_traces.append((job["name"], json.loads(trace_path.read_text(encoding="utf-8"))))
    expect = job["expect_exit"]
    if out["exit"] is None:
        return f"FAILED {out['stderr']}"
    if out["exit"] not in (expect if isinstance(expect, tuple) else (expect,)):
        return f"FAILED exit {out['exit']}, expected {expect}: {out['stderr'].strip()[-200:]}"
    if out["exit"] == 2 and "Traceback" in out["stderr"]:
        return "FAILED input error printed a traceback"
    if job.get("format") == "json" and out["exit"] in (0, 1):
        try:
            payload = json.loads(out["stdout"])
        except json.JSONDecodeError:
            return "FAILED --format json output does not parse as JSON"
        return _check_cli_payload(job, payload, ctx)
    return None


def _check_cli_payload(job, payload, ctx):
    lb = ctx.lb
    if job["type"] == "pages" and job["page"] == 3:
        comps = ("e", "g") if job["comp"] == "both" else (job["comp"],)
        for comp in comps:
            obj = payload[comp] if job["comp"] == "both" else payload
            closed = lb.lg_series if comp == "g" else lb.le_series
            if obj["series"] != int_expand(closed(job["n"]), job["D"]):
                return f"pages: {comp}-page series differs from the closed form"
    if job["type"] == "series" and "average" in payload:
        if payload["average"] != frac(Fraction(job["n"] + 1, 2 * job["n"])):
            return f"series: average {payload['average']} is not (n+1)/(2n)"
    if job["type"] == "resonance" and payload["verdict"] != ("pass" if job["expect_exit"] == 0 else "fail"):
        return f"resonance: verdict {payload['verdict']}"
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _identity(job, result):
    return result


def _canon_element(job, result):
    return str(result)


JOB_TYPES = {
    "verify_collapse": (run_verify_collapse, canon_verify_collapse, check_verify_collapse),
    "e3_page": (run_e3_page, _identity, check_e3_page),
    "multiply": (run_multiply, _canon_element, check_multiply),
    "power": (run_power, _canon_element, check_power),
    "delta": (run_delta, lambda job, r: str(r[0]), check_delta),
    "bracket": (run_bracket, _canon_element, check_bracket),
    "axiom_failures": (run_axiom_failures, _identity, check_axiom_failures),
    "morphism": (run_morphism, lambda job, r: [list(c) for c in r.checks], lambda *a: None),
    "delta_table": (
        run_delta_table,
        lambda job, t: sorted([str(m), str(image)] for m, image in t.rows.items()),
        check_delta_table,
    ),
    "avg_lg": (run_avg, _identity, check_avg),
    "avg_le": (run_avg, _identity, check_avg),
    "expand": (run_expand, lambda job, coeffs: list(coeffs), check_expand),
    "eq_exact": (run_eq_exact, _identity, check_eq_exact),
    "resonance": (run_resonance, canon_resonance, check_resonance),
    "resonance_fixture": (run_resonance, canon_resonance, check_resonance),
    "morse": (run_morse, canon_morse, check_morse),
    "morse_fixture": (run_morse, canon_morse, check_morse),
}

CLI_GOLDEN_TYPES = {"ring", "bv", "pages", "series", "verify", "resonance"}


def job_spec(job):
    """(run, canon, check) for a job."""
    if "argv" in job:
        return run_cli, canon_cli, check_cli
    return JOB_TYPES[job["type"]]


def golden_eligible(job) -> bool:
    """Jobs whose output is pinned byte for byte: every in-process job, and
    CLI jobs in JSON format outside the input-error slice."""
    if "argv" not in job:
        return True
    return job["type"] in CLI_GOLDEN_TYPES and job.get("format") == "json"
