"""Layer tracing from outside the package.

The tracer wraps loopbv's public functions and rebinds every name under which
a loopbv module holds them, so ``from .ring import basis`` bindings in
``spectral`` and ``bv`` are traced too.  Functions that take the BV operator
as a default argument (``d2_matrix``, ``d2_rank``, ``e3_page``,
``verify_collapse``) keep the untraced ``bv.delta``; callers count it by
passing ``tracer.fn("bv.delta")`` through the public ``delta_fn`` parameter.

Self time is a span's duration minus the time covered by its traced children.
Hot leaf functions, called millions of times per run, are aggregated
(calls and self time) without a span record; every other call keeps a span
``(job, name, parent span, start, end, key)`` in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

TRACED = {
    "ring": ("basis", "dimension", "multiply", "normalize", "power"),
    "bv": (
        "delta",
        "bracket",
        "delta_oracle",
        "delta_table",
        "axiom_failures",
        "morphism_from_switches",
        "verify_morphism_relations",
    ),
    "gf2": ("rank",),
    "spectral": (
        "e2_page",
        "e3_page",
        "d2_matrix",
        "d2_rank",
        "page_series",
        "page_to_json",
        "verify_collapse",
    ),
    "series": ("expand", "average_alternating", "eq_exact", "lg_series", "le_series", "total_series"),
    "resonance": (
        "resonance_check",
        "nondegenerate_check",
        "morse_truncation",
        "load_problem",
        "record_from_dict",
    ),
    "cli": ("main",),
}

HOT = {
    "ring.basis",
    "ring.dimension",
    "ring.multiply",
    "ring.normalize",
    "ring.power",
    "bv.delta",
    "bv.bracket",
    "gf2.rank",
    "spectral.d2_matrix",
    "spectral.d2_rank",
}

# counters read from call arguments: name -> (counter, extractor)
ARG_COUNTERS = {
    "gf2.rank": ("gf2.rank.rows", lambda a, k: len(a[0] if a else k["rows"])),
    "series.expand": ("series.expand.terms", lambda a, k: (a[1] if len(a) > 1 else k["n_terms"]) + 1),
    "resonance.morse_truncation": (
        "resonance.morse_truncation.q_sum",
        lambda a, k: a[2] if len(a) > 2 else k["q"],
    ),
}


def _page_key(args, kwargs):
    cfg = args[0] if args else kwargs["cfg"]
    return [cfg.algebra.n, cfg.algebra.bv_case.value, cfg.comp.value, cfg.max_top_degree]


SPAN_KEYS = {"spectral.e2_page": _page_key, "spectral.e3_page": _page_key}


class Tracer:
    """Wraps loopbv's public functions; records only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.job = -1
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.spans: list = []
        self._wrapped: dict[str, object] = {}
        self._originals: dict[str, object] = {}
        self._child: list[float] = []
        self._parent = -1

    def install(self, package: str = "loopbv") -> None:
        for mod_name, names in TRACED.items():
            module = importlib.import_module(f"{package}.{mod_name}")
            for attr in names:
                fn = getattr(module, attr, None)
                if callable(fn):
                    name = f"{mod_name}.{attr}"
                    self._originals[name] = fn
                    self._wrapped[name] = self._wrap(name, fn)
        by_id = {id(fn): self._wrapped[name] for name, fn in self._originals.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in by_id:
                    setattr(module, attr, by_id[id(value)])

    def fn(self, name: str):
        """The traced stand-in for a public function, e.g. ``fn("bv.delta")``."""
        return self._wrapped[name]

    def _wrap(self, name: str, fn):
        hot = name in HOT
        counter = ARG_COUNTERS.get(name)
        span_key = SPAN_KEYS.get(name)
        calls, self_s, child = self.calls, self.self_s, self._child
        calls[name] = 0
        self_s[name] = 0.0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if counter is not None:
                cname, extract = counter
                self.counts[cname] = self.counts.get(cname, 0) + extract(args, kwargs)
            if not hot:
                sid = len(self.spans)
                self.spans.append(None)
                parent, self._parent = self._parent, sid
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                inner = child.pop()
                calls[name] += 1
                self_s[name] += (t1 - t0) - inner
                if child:
                    child[-1] += t1 - t0
                if not hot:
                    key = span_key(args, kwargs) if span_key else None
                    self.spans[sid] = (self.job, name, parent, t0, t1, key)
                    self._parent = parent

        return traced

    def summary(self) -> dict:
        """Aggregates, ``ring.basis`` cache statistics and spans, JSON-ready."""
        info = self._originals["ring.basis"].cache_info()
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "counts": self.counts,
            "basis_cache": [info.hits, info.misses],
            "spans": self.spans,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.summary(), handle)
