"""In-memory span tracer installed around a package's functions from outside.

The tracer replaces module attributes (and a few methods) with wrappers that
record one span per call: name, start, end, parent span and an optional note
computed from the call's arguments and result. Every replaced attribute is
put back by :meth:`Tracer.restore`, so a traced run leaves the program as it
found it. The program's own code is never edited.

Spans are kept in memory and summarised once the run ends. Self time is a
span's duration minus its children's durations: the tracer is stack-based
and single-threaded, so a span's children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the parent span, -1 for a root
    note: object = None  # whatever the name's annotator returned

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped callables; single-threaded by design."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installing and removing wrappers ---------------------------------

    def wrap(self, name: str, fn, annotate=None):
        """A wrapper around ``fn`` that records a span named ``name``.

        ``annotate(args, kwargs, result)`` runs after the span has closed,
        so its cost is not charged to the span.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if annotate is not None:
                span.note = annotate(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, annotate=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper, remembering the original."""
        original = inspect.getattr_static(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, annotate))

    def patch_module(self, module, prefix: str, annotators=None) -> list[str]:
        """Trace every public function defined in ``module``.

        Returns the span names installed. Names bound from other modules are
        left alone here; the owning module's pass covers them.
        """
        annotators = annotators or {}
        names = []
        for attr, value in sorted(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != module.__name__):
                continue
            name = f"{prefix}.{attr}"
            self.patch(module, attr, name, annotators.get(name))
            names.append(name)
        return names

    def rebind_aliases(self, modules) -> None:
        """Point public names that other modules imported (``from m import
        f``) at the wrapper already installed for the same function."""
        wrappers = {id(original): getattr(owner, attr)
                    for owner, attr, original in self._patched}
        for module in modules:
            for attr, value in sorted(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and not attr.startswith("_"):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading spans ------------------------------------------------------

    def children(self) -> list[list[int]]:
        """Child span indices per span, in start order."""
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, span in enumerate(self.spans):
            if span.parent >= 0:
                kids[span.parent].append(i)
        return kids


def self_times(spans: list[Span], kids: list[list[int]]) -> list[float]:
    """Per span: duration minus the durations of its children."""
    return [span.duration - sum(spans[k].duration for k in kids[i])
            for i, span in enumerate(spans)]


def totals_by_name(spans: list[Span], selfs: list[float]) -> dict[str, dict]:
    """{name: {"calls", "s" (inclusive), "self_s"}} over all spans."""
    out: dict[str, dict] = {}
    for span, self_s in zip(spans, selfs):
        entry = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += span.duration
        entry["self_s"] += self_s
    return out
