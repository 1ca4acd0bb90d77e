"""Spans around nctori's module boundaries, installed from outside the program.

``Tracer.install`` replaces each boundary function, in its defining module and
in every module that re-binds it with ``from .x import y``, by a wrapper that
records a span (name, parent span, request, start, end) and, for some
functions, a work count.  ``Matrix.__init__`` and ``Matrix.__matmul__`` are
wrapped on the class.  Spans stay in memory until the run ends; ``summarize``
turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
from math import comb
from time import perf_counter

LAYERS = ("arith", "exactlin", "wfun", "invariants", "theta", "ktheory", "classify", "cli")


def _cells(args, result):
    return args[0].nrows * args[0].ncols


def _minors(args, result):
    return comb(args[0].nrows, args[1]) ** 2


def _unknowns(args, result):
    return args[0].ncols


def _is_not_none(args, result):
    return int(result is not None)


def _s1_available(args, result):
    return int(result.s1 is not None)


# (module, function, work count or None); "Class.x" names a method.  These are
# the functions one module calls in another on the paths the workloads take.
BOUNDARY = [
    ("arith", "cyclotomic", None),
    ("arith", "factorize", None),
    ("arith", "totient", None),
    ("exactlin", "Matrix.__init__", _cells),
    ("exactlin", "Matrix.__matmul__", None),
    ("exactlin", "order", None),
    ("exactlin", "det", None),
    ("exactlin", "rank", None),
    ("exactlin", "kernel_basis", _unknowns),
    ("exactlin", "compound", _minors),
    ("exactlin", "block_diag", None),
    ("exactlin", "companion", None),
    ("exactlin", "_echelon_int", None),
    ("wfun", "w_order", None),
    ("wfun", "w_group", None),
    ("wfun", "max_finite_order", None),
    ("wfun", "AbelianGroup.from_factors", None),
    ("invariants", "realize", None),
    ("invariants", "invariant_ranks", None),
    ("invariants", "invariant_rank_oracle", None),
    ("invariants", "free_outside_origin", None),
    ("invariants", "s1", None),
    ("theta", "invariant_space", None),
    ("theta", "nondegenerate_invariant_exists", None),
    ("ktheory", "factor_k", None),
    ("ktheory", "kunneth_all", None),
    ("ktheory", "torus_k", None),
    ("classify", "classify_cyclic", None),
    ("classify", "classify_group", None),
    ("classify", "classify_fg", None),
    ("classify", "analyze_action", _s1_available),
    ("classify", "recognize_blocks", _is_not_none),
    ("classify", "verdict_json", None),
    ("classify", "report_json", None),
    ("cli", "main", None),
]

# Every functools.lru_cache in nctori at the commit that defined the benchmark.
CACHES = [
    ("arith", "cyclotomic"),
    ("wfun", "_w_group_cached"),
    ("wfun", "max_finite_order"),
    ("invariants", "_realize_block"),
    ("invariants", "invariant_ranks"),
    ("classify", "_standalone_s1"),
    ("classify", "_totient_preimages"),
    ("ktheory", "factor_k"),
    ("theta", "invariant_space"),
]

# Span list layout: [parent index, request, name, start, end, work, outermost].
PARENT, REQUEST, NAME, START, END, WORK, OUTER = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._active: dict[str, int] = {}

    def wrap(self, name: str, fn, work=None):
        tracer, spans, stack, active = self, self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = active.get(name, 0)
            span = [stack[-1] if stack else -1, tracer.request, name, 0.0, 0.0, 0, depth == 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] = depth + 1
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
                active[name] = depth
            if work is not None:
                span[WORK] = work(args, result)
            return result

        return traced

    def install(self):
        """Wrap every boundary function of the imported nctori package."""
        modules = {m: importlib.import_module(f"nctori.{m}") for m in LAYERS}
        modules["__init__"] = importlib.import_module("nctori")
        for mod_name, attr, work in BOUNDARY:
            home = modules[mod_name]
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__, work)))
                else:
                    setattr(cls, meth, self.wrap(name, raw, work))
                continue
            original = getattr(home, attr)
            wrapped = self.wrap(name, original, work)
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)


def cache_stats() -> dict[str, dict[str, int]]:
    """Hits and misses of each known lru_cache; a cache the program no longer has is left out."""
    out = {}
    for mod_name, attr in CACHES:
        fn = getattr(importlib.import_module(f"nctori.{mod_name}"), attr, None)
        while fn is not None and not hasattr(fn, "cache_info"):
            fn = getattr(fn, "__wrapped__", None)  # look through a tracing wrapper
        if fn is not None:
            info = fn.cache_info()
            out[attr] = {"hits": info.hits, "misses": info.misses}
    return out


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per-function calls, outermost total time and work, and per-layer self
    time (span duration minus the time its child spans cover)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    funcs: dict[str, dict[str, float]] = {}
    layers = {layer: 0.0 for layer in LAYERS}
    for span, covered in zip(spans, child_time):
        dur = span[END] - span[START]
        f = funcs.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "work": 0})
        f["calls"] += 1
        f["work"] += span[WORK]
        if span[OUTER]:
            f["total_s"] += dur
        layers[span[NAME].split(".", 1)[0]] += dur - covered
    return {"functions": funcs, "layers": layers}


def covered_s(spans: list[list], names) -> float:
    """Time spent inside any of the named functions, each instant counted once:
    the total of the named spans that have no named ancestor."""
    names = set(names)
    inside = [False] * len(spans)  # a parent is recorded before its children
    total = 0.0
    for i, span in enumerate(spans):
        parent = span[PARENT]
        nested = parent >= 0 and (inside[parent] or spans[parent][NAME] in names)
        inside[i] = nested
        if span[NAME] in names and not nested:
            total += span[END] - span[START]
    return total
