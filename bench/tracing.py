"""Spans and counters around dslforge's public functions, for the traced run.

`install` replaces each traced function at every name under which a dslforge
module holds it (`from .linalg import solve_exact` gives `lie.solve_exact`),
so callers inside the library reach the wrapper; nothing in `src/` changes.
Untraced runs never install the wrappers and never start tracemalloc.
"""

from __future__ import annotations

import functools
import os
import sys
import tracemalloc
from time import perf_counter

# Per-layer metrics, in the order they are reported, with their units.
METRICS = {
    "spaces.compile_s": "s",
    "spaces.rows": "count",
    "spaces.cols": "count",
    "spaces.compile_peak_mb": "MB",
    "linalg.kernel_s": "s",
    "linalg.kernel_peak_mb": "MB",
    "linalg.rank": "count",
    "linalg.kernel_dim": "count",
    "spaces.reexpand_s": "s",
    "lyndon.basis_s": "s",
    "lyndon.calls": "count",
    "cache.store_s": "s",
    "cache.bytes_written": "bytes",
    "cache.load_s": "s",
    "series.from_json_s": "s",
    "cache.bytes_read": "bytes",
    "cache.hits": "count",
    "cache.misses": "count",
    "spaces.membership_s": "s",
    "spaces.membership_calls": "count",
    "algebra.primitivity_s": "s",
    "lie.bracket_s": "s",
    "lie.bracket_calls": "count",
    "linalg.solve_s": "s",
    "linalg.solve_calls": "count",
    "lie.ad_x1_inverse_s": "s",
    "lie.decompose_s": "s",
    "verify.check_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory spans (name, start, end, parent index) and counters."""

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self.longest: dict[str, tuple] = {}  # peak metric -> longest call
        self.paused = False  # wrappers record nothing while set
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def summary(self) -> dict[str, dict]:
        selfs = self.self_times()
        out: dict[str, dict] = {}
        for name, start, end, _ in self.spans:
            entry = out.setdefault(name, {"spans": 0, "total_s": 0.0})
            entry["spans"] += 1
            entry["total_s"] += end - start
        for name, entry in out.items():
            entry["self_s"] = selfs[name]
        return out

    def metrics(self, overhead_s: float, slowdown: float) -> dict[str, float]:
        """Per-layer metrics; times are divided by the round's slowdown."""
        selfs = self.self_times()
        values = {}
        for name, unit in METRICS.items():
            if unit == "s":
                values[name] = selfs.get(name[: -len("_s")], 0.0) / slowdown
            elif unit == "MB":
                values[name] = self.peaks.get(name, 0.0) / 2**20
            else:
                values[name] = self.counts.get(name, 0)
        values["trace.overhead_s"] = overhead_s
        return values


def _wrap(tracer: Tracer, fn, span: str, after=None, peak: str | None = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        idx = tracer.open(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if peak is not None:
            _, start, end, _ = tracer.spans[idx]
            if end - start > tracer.longest.get(peak, (0.0,))[0]:
                tracer.longest[peak] = (end - start, fn, args, kwargs)
        if after is not None:
            after(tracer, result, args, kwargs)
        return result

    return wrapper


def memory_pass(tracer: Tracer, before_each) -> None:
    """Re-run the longest traced call of each peak metric under tracemalloc.

    tracemalloc slows compilation and elimination four- to six-fold, so it
    runs on these calls alone, after the traced round and outside it.
    """
    tracer.paused = True
    try:
        for peak, (_, fn, args, kwargs) in tracer.longest.items():
            before_each()
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                tracer.peaks[peak] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    finally:
        tracer.paused = False
    tracer.longest.clear()


def _counter(name: str):
    def after(tracer, result, args, kwargs):
        tracer.count(name)

    return after


def _after_compile(tracer, matrix, args, kwargs):
    tracer.count("spaces.rows", len(matrix.rows))
    tracer.count("spaces.cols", len(matrix.column_labels))


def _after_kernel(tracer, basis, args, kwargs):
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    tracer.count("linalg.kernel_dim", len(basis))
    tracer.count("linalg.rank", ncols - len(basis))


def _after_store(tracer, path, args, kwargs):
    tracer.count("cache.bytes_written", os.path.getsize(path))


def _after_load(tracer, basis, args, kwargs):
    if basis is None:
        tracer.count("cache.misses")
        return
    from dslforge import cache, spaces

    space, k = args[0], args[1]
    entry = cache.cache_dir() / f"{space.key}-{k}-{spaces.SCHEMA_VERSION}.json"
    tracer.count("cache.hits")
    tracer.count("cache.bytes_read", entry.stat().st_size)


# (defining module, function, span name, counter callback, tracemalloc peak)
_TARGETS = [
    ("spaces", "compile_constraints", "spaces.compile", _after_compile,
     "spaces.compile_peak_mb"),
    ("linalg", "kernel_basis", "linalg.kernel", _after_kernel, "linalg.kernel_peak_mb"),
    ("spaces", "rational_kernel", "spaces.reexpand", None, None),
    ("lyndon", "lyndon_primitive_basis", "lyndon.basis", _counter("lyndon.calls"), None),
    ("cache", "store_basis", "cache.store", _after_store, None),
    ("cache", "load_basis", "cache.load", _after_load, None),
    ("spaces", "membership_check", "spaces.membership",
     _counter("spaces.membership_calls"), None),
    ("algebra", "shuffle_primitivity_defect", "algebra.primitivity", None, None),
    ("algebra", "is_primitive", "algebra.primitivity", None, None),
    ("lie", "bracket1", "lie.bracket", _counter("lie.bracket_calls"), None),
    ("linalg", "solve_exact", "linalg.solve", _counter("linalg.solve_calls"), None),
    ("lie", "ad_x1_inverse", "lie.ad_x1_inverse", None, None),
    ("lie", "fad_decompose", "lie.decompose", None, None),
    ("verify", "verify_bracket_closure", "verify.check", None, None),
    ("verify", "verify_lemma_essential", "verify.check", None, None),
    ("verify", "verify_lemma_essential_all", "verify.check", None, None),
    ("verify", "verify_ad_embedding", "verify.check", None, None),
]


def install(tracer: Tracer) -> None:
    """Wrap every traced function wherever a dslforge module refers to it."""
    from dslforge import series

    modules = [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "dslforge" or name.startswith("dslforge."))
    ]
    for mod_name, fn_name, span, after, peak in _TARGETS:
        original = getattr(sys.modules[f"dslforge.{mod_name}"], fn_name)
        wrapper = _wrap(tracer, original, span, after, peak)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
    from_json = series.XSeries.__dict__["from_json_dict"].__func__
    series.XSeries.from_json_dict = classmethod(
        _wrap(tracer, from_json, "series.from_json")
    )
