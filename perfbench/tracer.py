"""Span tracer that wraps a program's functions from outside it.

A wrapped call records one span: name, start, end and the index of the
span that was open when it began (its parent). Spans stay in memory until
the run ends. A span's self time is its duration minus the part of that
interval its child spans cover.

Nothing here imports the program: targets name an owner object (a module
or a class) and an attribute on it, and `Tracer.installed` swaps the
attribute for a wrapper only for the duration of a `with` block.
"""

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    `name` is the span name, or a callable (args, kwargs) -> name for
    spans named after an argument. `after`, when set, is called as
    after(tracer, args, kwargs, result) once the call returns and its
    return value replaces the result; it records counters that come from
    arguments or results.
    """

    owner: object
    attr: str
    name: object
    after: object = None


@dataclass
class Tracer:
    clock: object = time.perf_counter
    spans: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    samples: dict = field(default_factory=lambda: defaultdict(list))
    _stack: list = field(default_factory=list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._stack.pop()
        self.spans[index].end = self.clock()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label):
                result = fn(*args, **kwargs)
            if after is not None:
                result = after(self, args, kwargs, result)
            return result

        return traced

    def take(self):
        """Hand over the spans, counters and samples recorded so far."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        out = (self.spans, self.counters, self.samples)
        self.spans, self.counters, self.samples = [], Counter(), defaultdict(list)
        return out

    @contextmanager
    def installed(self, targets):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for t in targets:
                original = getattr(t.owner, t.attr)
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self.wrap(original, t.name, t.after))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans) -> list:
    """Self time of every span: duration minus the union of its children."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = max(reach, hi)
        out.append((s.end - s.start) - covered)
    return out


def summarize(spans) -> dict:
    """Per span name: number of calls, summed self time, summed duration."""
    table = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
    for s, own in zip(spans, self_times(spans)):
        row = table[s.name]
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += s.end - s.start
    return dict(table)
