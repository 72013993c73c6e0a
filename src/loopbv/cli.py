"""Command-line frontend: ring tables, BV tables, pages, series, checks.

Exit codes: 0 on success and passing verifications, 1 on a failed
verification, 2 on input errors.  All numeric output is exact; rationals
print as p/q.
"""

from __future__ import annotations

import argparse
import json
import sys

from .ring import (
    AlgebraConfig,
    BVCase,
    Component,
    InputError,
    component,
    element,
    loop_degree,
    render_element,
    render_monomial,
    top_degree,
    window_basis,
)

CASE_CHOICES = [case.value for case in BVCase]


def _frac(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def _algebra(args) -> AlgebraConfig:
    return AlgebraConfig(args.n, BVCase(args.case))


def _emit_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _components(arg: str) -> tuple[Component, ...]:
    if arg == "both":
        return (Component.E, Component.G)
    return (Component(arg),)


def _print_rows(rows, columns, fmt: str) -> None:
    if fmt == "json":
        print(_emit_json({"rows": rows}))
        return
    if fmt == "csv":
        print(",".join(columns))
        for row in rows:
            print(",".join(str(row[c]) for c in columns))
        return
    widths = [max(len(c), *(len(str(r[c])) for r in rows)) if rows else len(c) for c in columns]
    print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    for row in rows:
        print("  ".join(str(row[c]).ljust(w) for c, w in zip(columns, widths)))


def cmd_rows(args) -> int:
    """ring and bv: one row per basis monomial of the loop-degree window; the
    last column is the top degree for ring and Delta for bv."""
    cfg = _algebra(args)
    lo = args.min_degree if args.min_degree is not None else -cfg.dim
    hi = args.max_degree if args.max_degree is not None else 2 * cfg.n
    if args.subcommand == "bv":
        from . import bv

        last, value = "delta", lambda m, cfg: render_element(bv.delta(element(m), cfg))
    else:
        last, value = "top_degree", top_degree
    rows = [
        {
            "monomial": render_monomial(m),
            "component": component(m, cfg).value,
            "loop_degree": loop_degree(m, cfg),
            last: value(m, cfg),
        }
        for m in window_basis(cfg, _components(args.component), lo, hi)
    ]
    _print_rows(rows, ["monomial", "component", "loop_degree", last], args.format)
    return 0


def cmd_pages(args) -> int:
    from . import spectral

    cfg = _algebra(args)
    payload = {}
    for comp in _components(args.component):
        ss = spectral.SSConfig(cfg, comp, args.max_degree)
        page = spectral.e2_page(ss) if args.page == 2 else spectral.e3_page(ss)
        payload[comp.value] = spectral.page_to_json(page, ss)
    if args.format == "json":
        out = payload if args.component == "both" else payload[args.component]
        print(_emit_json(out))
        return 0
    if args.format == "csv":
        rows = [
            {"component": comp_name, **entry}
            for comp_name, obj in payload.items()
            for entry in obj["entries"]
        ]
        _print_rows(rows, ["component", "p", "q", "dim"], "csv")
        return 0
    for comp_name, obj in payload.items():
        if not args.quiet:
            print(f"# component {comp_name}, page {obj['page']}")
        for entry in obj["entries"]:
            print(f"{entry['p']:>4} {entry['q']:>5} {entry['dim']:>4}")
        print("series " + " ".join(str(c) for c in obj["series"]))
    return 0


def cmd_series(args) -> int:
    from . import series

    builders = {
        "lg": series.lg_series,
        "le": series.le_series,
        "total": series.total_series,
    }
    r = builders[args.which](args.n)
    payload = {"num": list(r.numerator), "den": list(r.denominator)}
    if args.expand is not None:
        payload["expansion"] = [
            c if isinstance(c, int) else _frac(c)
            for c in series.expand(r, args.expand).coefficients
        ]
    if args.average:
        payload["average"] = _frac(series.average_alternating(r))
    if args.format == "json":
        print(_emit_json(payload))
        return 0
    print(f"num: {payload['num']}")
    print(f"den: {payload['den']}")
    if "expansion" in payload:
        print("expansion: " + " ".join(str(c) for c in payload["expansion"]))
    if "average" in payload:
        print(f"average: {payload['average']}")
    return 0


def cmd_verify(args) -> int:
    from . import bv, spectral

    cfg = _algebra(args)
    report = spectral.verify_collapse(cfg, args.max_degree)
    lo, hi = -cfg.dim, 12 * cfg.n
    failures = bv.axiom_failures(cfg, lo, hi, samples=args.samples, seed=args.seed)
    passed = report.passed and not failures
    if args.format == "json":
        print(_emit_json({
            "collapse": {
                "passed": report.passed,
                "e_page_stable": report.e_page_stable,
                "first_mismatch": report.first_mismatch,
                "max_degree": args.max_degree,
            },
            "axioms": {
                "failures": failures,
                "window": [lo, hi],
                "samples": args.samples,
                "seed": args.seed,
            },
            "passed": passed,
        }))
        return 0 if passed else 1
    if report.passed:
        if not args.quiet:
            print(f"collapse n={cfg.n} case={cfg.bv_case.value} "
                  f"through degree {args.max_degree}: PASS")
    else:
        print(f"collapse n={cfg.n} case={cfg.bv_case.value}: FAIL")
        if not report.e_page_stable:
            print("  contractible component moved between pages two and three")
        if report.first_mismatch:
            k, got, want = report.first_mismatch
            print(f"  first mismatch at degree {k}: computed {got}, expected {want}")
            print(f"  computed series: {list(report.computed)}")
            print(f"  expected series: {list(report.expected)}")
    if failures:
        print(f"axioms n={cfg.n} case={cfg.bv_case.value}: FAIL")
        for message in failures[:10]:
            print(f"  {message}")
    elif not args.quiet:
        print(f"axioms n={cfg.n} case={cfg.bv_case.value} on degrees "
              f"[{lo}, {hi}] with {args.samples} samples (seed {args.seed}): PASS")
    return 0 if passed else 1


def _resonance_payload(args, n: int, records) -> tuple[dict, bool]:
    from . import resonance

    if args.check == "nondegenerate":
        rep = resonance.nondegenerate_check(records, n)
        payload: dict = {"consistent_with_full": rep.consistent_with_full}
    else:
        rep = resonance.resonance_check(records, n)
        payload = {
            "per_geodesic": {label: _frac(value) for label, value in rep.per_geodesic.items()},
            "vacuous": rep.vacuous,
        }
    payload.update(
        n=n,
        check=args.check,
        sum=_frac(rep.total),
        target=_frac(rep.target),
        verdict="pass" if rep.passed else "fail",
    )
    if args.morse is not None:
        trunc = resonance.morse_truncation(records, n, args.morse)
        payload["morse"] = {
            "q": args.morse,
            "alternating_sum": trunc.alternating_sum,
            "average": _frac(trunc.average) if trunc.average is not None else None,
        }
    return payload, rep.passed


def cmd_resonance(args) -> int:
    from . import resonance

    try:
        with open(args.input, encoding="utf-8") as handle:
            obj = json.load(handle)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON in {args.input}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, nested past the recursion limit, or an over-long integer
        raise InputError(f"unreadable JSON in {args.input}: {exc}") from exc
    n, records = resonance.load_problem(obj)
    payload, passed = _resonance_payload(args, n, records)
    if args.format == "json":
        print(_emit_json(payload))
    else:
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, dict):
                value = json.dumps(value, sort_keys=True)
            print(f"{key}: {value}")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopbv",
        description="Exact mod-2 loop-homology computations for odd projective spaces",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    algebra = argparse.ArgumentParser(add_help=False)
    algebra.add_argument("--n", type=int, default=1)
    algebra.add_argument("--case", choices=CASE_CHOICES, default="A_v")
    components = argparse.ArgumentParser(add_help=False)
    components.add_argument("--component", choices=["e", "g", "both"], default="both")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--min-degree", type=int, default=None)
    window.add_argument("--max-degree", type=int, default=None)
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", help="suppress informational output")

    def add(name, func, help_text, parents=(), formats=("table", "json")):
        p = sub.add_parser(name, help=help_text, parents=parents)
        p.add_argument("--format", choices=formats, default="table")
        p.set_defaults(func=func)
        return p

    tabular = ("table", "json", "csv")
    add("ring", cmd_rows, "basis monomials with degrees and components",
        [algebra, components, window], tabular)
    p_bv = add("bv", cmd_rows, "BV operator table on basis monomials",
               [algebra, components, window], tabular)
    p_bv.add_argument("action", nargs="?", choices=["table"], default="table")

    p_pages = add("pages", cmd_pages, "spectral-sequence page dimensions and series",
                  [algebra, components, quiet], tabular)
    p_pages.add_argument("--max-degree", type=int, default=40)
    p_pages.add_argument("--page", type=int, choices=[2, 3], default=3)

    p_series = add("series", cmd_series, "closed-form series, expansion, average")
    p_series.add_argument("--n", type=int, default=1)
    p_series.add_argument("--which", choices=["lg", "le", "total"], default="lg")
    p_series.add_argument("--expand", type=int, default=None, metavar="N")
    p_series.add_argument("--average", action="store_true")

    p_verify = add("verify", cmd_verify, "collapse certificate plus sampled axiom checks",
                   [algebra, quiet])
    p_verify.add_argument("--max-degree", type=int, default=100)
    p_verify.add_argument("--samples", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0, help="seed for sampled property checks")

    p_res = add("resonance", cmd_resonance, "resonance identity checks on geodesic data")
    p_res.add_argument("--input", required=True)
    p_res.add_argument("--check", choices=["full", "nondegenerate"], default="full")
    p_res.add_argument("--morse", type=int, default=None, metavar="Q")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
