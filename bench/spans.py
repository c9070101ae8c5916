"""In-memory spans around calls into the library's modules.

Modules call each other through names bound in their own namespaces
(``verify.edge_revised_szeged``, ``enumeration.canonical_pair``,
``indices.all_bfs_distances``).  :meth:`Tracer.install` replaces every such
binding of a traced function, in every loaded ``szegedtools`` module, with
a wrapper that records a span: name, start, end, parent and whether the call
raised.  Spans stay in memory; :meth:`Tracer.summary` folds them into
per-function totals, and ``run.py --out`` writes them out at the end.

A span's self time is its duration minus the durations of its direct
children, so the self times of a root span and all its descendants add up
to the root's duration.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

# module -> public functions wrapped in spans.
TRACED = {
    "enumeration": ("cactus_classes", "enumerate_cacti", "search_extremal"),
    "canon": ("canonical_pair", "certificate", "automorphism_count"),
    "indices": ("edge_revised_szeged", "edge_partitions", "wiener", "szeged"),
    "graphs": ("all_bfs_distances", "block_decomposition", "cactus_profile"),
    "formats": ("emit_graph6",),
    "verify": (
        "audit_pendant_edges",
        "audit_cycle_gaps",
        "audit_bundle_floor",
        "audit_inner_cut_edge_floor",
        "audit_off_quadrangle_floor",
        "audit_inner_cycle_floor",
    ),
    "families": ("as_bundle", "is_tailed_quadrangle_bundle"),
}
# Called once per source vertex inside the all-pairs pass: counted only, as
# a span each would outweigh the work it measures.
COUNTED = {"graphs": ("bfs_distances",)}

_NAME, _START, _END, _PARENT, _FAILED = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, False])
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        span = self.spans[idx]
        span[_END] = time.perf_counter()
        span[_FAILED] = failed
        # A generator abandoned mid-way may close out of order.
        if self.stack and self.stack[-1] == idx:
            self.stack.pop()
        else:
            self.stack.remove(idx)

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(idx, failed)

    def _wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # The span covers the generator from first resume to exhaustion.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                with self.span(name):
                    yield from fn(*args, **kwargs)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every binding of the traced functions in loaded modules."""
        wrappers = {}
        for table, make in ((TRACED, self._wrap), (COUNTED, self._count)):
            for mod, names in table.items():
                module = sys.modules[f"szegedtools.{mod}"]
                for name in names:
                    fn = getattr(module, name)
                    wrappers[id(fn)] = make(f"{mod}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "szegedtools" and not modname.startswith("szegedtools."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed self seconds and failed calls."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[_PARENT] >= 0:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        out: dict[str, dict[str, float]] = {}
        for span, children in zip(self.spans, child_time):
            row = out.setdefault(span[_NAME], {"calls": 0, "self_s": 0.0, "fail": 0})
            row["calls"] += 1
            row["self_s"] += span[_END] - span[_START] - children
            row["fail"] += span[_FAILED]
        for name, calls in self.counts.items():
            out.setdefault(name, {"calls": 0, "self_s": 0.0, "fail": 0})["calls"] = calls
        return out
