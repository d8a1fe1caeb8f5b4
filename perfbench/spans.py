"""Outside-in tracing of the rkca package from the benchmark's own files.

A :class:`Tracer` replaces every public function of the listed rkca modules
(and the public methods of the classes they define) with a wrapper that
records one span per call: name, start, end, parent span and the id of the
solve it belongs to.  Every binding of the original function anywhere in the
package is patched, so ``from .variants import solve_variant`` in ``cli`` is
traced too.  Spans are kept in memory; :meth:`Tracer.uninstall` puts every
original object back and checks that it did.

Nothing in ``src/rkca`` is edited: the wrappers pass arguments and results
through unchanged, so a traced solve computes exactly what an untraced one
does (checked by the benchmark on every traced run).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

TRACED_MODULES = ("tensor", "linalg", "admm", "variants", "model", "data", "fileio", "cli")

MB = 1e6


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    solve_id: int | None
    mb: float | None = None

    @property
    def duration(self):
        return self.end - self.start


def _reconstruct_mb(params, result):
    # Computed, not measured: bytes of the three factors read plus the
    # tensor written.  Ignores cache misses and the internal layout copy.
    sizes = (params["a"].size, params["core"].size, params["b"].size, result.size)
    return 8 * sum(sizes) / MB


def _file_mb(params, result):
    # Exact: the size of the file read or written.
    return os.path.getsize(params["path"]) / MB


BYTE_COUNTERS = {
    "tensor.reconstruct": _reconstruct_mb,
    "fileio.read_rkt": _file_mb,
    "fileio.write_rkt": _file_mb,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


def _public_methods(module):
    for cls_name, cls in vars(module).items():
        if cls_name.startswith("_") or not inspect.isclass(cls):
            continue
        if cls.__module__ != module.__name__:
            continue
        for name, obj in vars(cls).items():
            if not name.startswith("_") and inspect.isfunction(obj):
                yield cls, f"{cls_name}.{name}", name, obj


class Tracer:
    """Records spans for calls into the rkca package while installed."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.solve_id: int | None = None
        self._next_solve_id = 0

    # -- span recording -------------------------------------------------

    def _enter(self):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _exit(self, idx, name, start, parent, mb=None):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = Span(name, start, end, parent, self.solve_id, mb)

    @contextlib.contextmanager
    def span(self, name):
        """Record a benchmark-side span (e.g. one solve) around a block."""
        idx, parent = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(idx, name, start, parent)

    @contextlib.contextmanager
    def solve(self):
        """Span one solve; every span inside it carries the solve's id."""
        self.solve_id = self._next_solve_id
        self._next_solve_id += 1
        try:
            with self.span("bench.solve"):
                yield
        finally:
            self.solve_id = None

    def _wrap(self, fn, name):
        counter = BYTE_COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx, parent = self._enter()
            start = time.perf_counter()
            mb = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    params = signature.bind(*args, **kwargs).arguments
                    mb = counter(params, result)
                return result
            finally:
                self._exit(idx, name, start, parent, mb)

        return wrapper

    # -- installation ---------------------------------------------------

    def install(self, package):
        """Wrap the public functions and methods of the traced modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [package] + [
            mod for key, mod in sorted(sys.modules.items())
            if key.startswith(package.__name__ + ".")
        ]
        for short in TRACED_MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for name, fn in list(_public_functions(module)):
                wrapper = self._wrap(fn, f"{short}.{name}")
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, fn))
                            setattr(ns, attr, wrapper)
            for cls, qual, name, fn in list(_public_methods(module)):
                self._patches.append((cls, name, fn))
                setattr(cls, name, self._wrap(fn, f"{short}.{qual}"))

    def uninstall(self):
        """Restore every patched attribute and verify the restoration."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        for target, attr, original in self._patches:
            if vars(target)[attr] is not original:
                raise RuntimeError(f"failed to restore {target!r}.{attr}")
        self._patches.clear()

    def take(self):
        """Return the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, self.spans = self.spans, []
        return spans


def summarise(spans, keep=None):
    """Per span name: calls, inclusive seconds, self seconds and MB.

    Self time is a span's duration minus the time its child spans cover.
    ``keep`` selects which spans are counted; children are always subtracted.
    """
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    out = {}
    for idx, span in enumerate(spans):
        if keep is not None and not keep(span):
            continue
        row = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "mb": 0.0})
        row["calls"] += 1
        row["s"] += span.duration
        row["self_s"] += span.duration - child_time[idx]
        if span.mb is not None:
            row["mb"] += span.mb
    return out


def spans_to_json(spans):
    return [
        {
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": s.parent,
            "solve_id": s.solve_id,
            **({"mb": s.mb} if s.mb is not None else {}),
        }
        for s in spans
    ]
