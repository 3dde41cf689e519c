"""Spans recorded from outside the program, by wrapping module attributes.

A wrapped function is replaced by name in the module that calls it (for
example ``ltgcd.harness.forward``, the binding ``train_one`` looks up), so
no program file changes. Spans stay in memory until the benchmark writes
them out. Everything runs in one thread, so a span's children never
overlap and its self time is its duration minus theirs.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = math.nan

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps functions for the life of a ``with`` block and records a span
    per call. ``count(counters, result, *args, **kwargs)`` adds per-call
    counts at the same boundary."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._open: list[int] = []
        self._wrapped: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None, self.clock())
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._open.pop()
            if count is not None:
                count(self.counters, result, *args, **kwargs)
            return result

        setattr(module, attr, traced)
        self._wrapped.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._wrapped):
            setattr(module, attr, original)

    def restored(self) -> bool:
        return all(getattr(m, a) is o for m, a, o in self._wrapped)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, summed self time)."""
        out: dict[str, tuple[int, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            calls, total = out.get(span.name, (0, 0.0))
            out[span.name] = (calls + 1, total + own)
        return out

    def roots(self) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent is None]

    def tree_self_sum(self, root: int) -> float:
        """Summed self time of ``root`` and every span below it."""
        own = self.self_times()
        inside = {root}
        total = own[root]
        for i in range(root + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
                total += own[i]
        return total

    def as_records(self) -> list[dict]:
        return [{"id": i, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end}
                for i, s in enumerate(self.spans)]


@contextmanager
def counting(module, attr: str, counters: Counter, key: str):
    """Count calls through ``module.attr`` without timing them."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def counted(*args, **kwargs):
        counters[key] += 1
        return original(*args, **kwargs)

    setattr(module, attr, counted)
    try:
        yield
    finally:
        setattr(module, attr, original)


def nearest_rank(values: list[float], q: float) -> float:
    """The q-quantile by nearest rank: ceil(q n)-th smallest value."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
