"""Timed spans recorded from outside the program.

A :class:`Tracer` replaces a function or method, in the namespace that calls
it, with a wrapper that times each call. Spans nest: while one is open, the
time of every span started inside it is added to its child time, so a span's
self time is its duration minus its children's durations. Everything runs
on one thread, so children never overlap.

Spans stay in memory and are summarised per name when a session ends; the
tracer restores every replaced attribute in :meth:`Tracer.restore`. Times
come from the clock the tracer is given: the benchmark passes the paced
clock of ``pace.py``.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class SpanStats:
    """All closed spans of one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    min_self_s: float = float("inf")
    durations: list[float] = field(default_factory=list)


class Tracer:
    """Span recorder plus named counters for one benchmark session."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.flags: dict[str, bool] = {}
        # Clock reading a latency sample is measured from (see sample_since_mark).
        self.mark = 0.0
        # Child-time accumulator per open span; slot 0 collects top-level spans.
        self._child: list[float] = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def sample_since_mark(self, name: str, end: float) -> None:
        """Record ``end - mark`` in milliseconds and move the mark to ``end``."""
        self.samples.setdefault(name, []).append((end - self.mark) * 1e3)
        self.mark = end

    def _open(self) -> float:
        self._child.append(0.0)
        return self.clock()

    def _close(self, name: str, start: float) -> float:
        end = self.clock()
        duration = end - start
        child = self._child.pop()
        self._child[-1] += duration
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        own = duration - child
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += own
        stats.min_self_s = min(stats.min_self_s, own)
        stats.durations.append(duration)
        return end

    @contextmanager
    def span(self, name: str):
        start = self._open()
        try:
            yield
        finally:
            self._close(name, start)

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        before: Callable | None = None,
        after: Callable | None = None,
        when: Callable | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``before(tracer, args)`` runs ahead of the call and
        ``after(tracer, args, result, end)`` after it, outside the span's
        timing. When ``when(tracer)`` is false the call passes through
        untimed, so its time lands in the enclosing span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if when is not None and not when(tracer):
                return original(*args, **kwargs)
            if before is not None:
                before(tracer, args)
            start = tracer._open()
            try:
                result = original(*args, **kwargs)
            finally:
                end = tracer._close(name, start)
            if after is not None:
                after(tracer, args, result, end)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def total(self, name: str) -> float:
        stats = self.stats.get(name)
        return stats.total_s if stats else 0.0

    def self_time(self, name: str) -> float:
        stats = self.stats.get(name)
        return stats.self_s if stats else 0.0

    def calls(self, name: str) -> int:
        stats = self.stats.get(name)
        return stats.calls if stats else 0
