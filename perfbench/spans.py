"""Spans recorded from outside the program by swapping module attributes.

A :class:`Tracer` replaces a public function on its module with a wrapper
that records one span per call (name, start, end, parent) and, where asked,
counts derived from the call's arguments and result. Callers that look the
function up through the module at call time (``bayesnet.save_model(...)``)
see the wrapper; ``restore`` puts every original back.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Span every call of ``module.attr``; ``count(counts, args, kwargs, result)``
        may add counts after the call returns."""
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out = []
        for k, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for c in sorted(children[k], key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(s.end - s.start - covered)
        return out

    def self_time_by_name(self, within: int | None = None) -> dict[str, float]:
        """Summed self time per span name, optionally only under span ``within``."""
        selfs = self.self_times()
        totals: dict[str, float] = defaultdict(float)
        for k, s in enumerate(self.spans):
            if within is None or self._descends(k, within):
                totals[s.name] += selfs[k]
        return totals

    def _descends(self, k: int, ancestor: int) -> bool:
        while k is not None:
            if k == ancestor:
                return True
            k = self.spans[k].parent
        return False
