"""In-memory span tracing by wrapping functions at the attribute callers use.

A :class:`Tracer` replaces ``owner.attr`` (a module-level function looked up
by its caller's module, or a method on a class) with a wrapper that records
one span per call: name, start, end and the index of the enclosing span.
Spans stay in memory; :func:`self_times` and :func:`layer_totals` turn them
into per-layer figures afterwards.  The program itself is not modified: the
original attributes are put back by :meth:`Tracer.restore`.

The tracer assumes one thread, so spans nest strictly.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import time


@dataclasses.dataclass
class Span:
    """One traced call; times are ``perf_counter_ns`` readings."""

    name: str
    start: int
    end: int
    parent: int | None  # index of the enclosing span in Tracer.spans


class Tracer:
    """Records spans and counts for the functions it wraps."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._patches = []  # (owner, attr, original)

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a span-recording wrapper named ``name``.

        ``owner`` must define ``attr`` itself (not inherit it), so restoring
        it is a plain assignment.  ``count(args, kwargs, result)``, if given,
        returns ``(key, amount)`` pairs added to :attr:`counts` after each
        call that returns.
        """
        original = vars(owner)[attr]
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(name, clock(), 0, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if count is not None:
                for key, amount in count(args, kwargs, result):
                    self.counts[key] += amount
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self):
        """Put back every wrapped attribute, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Per-span self time in ns: duration minus the durations of its children."""
    child = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, child)]


def layer_totals(spans):
    """``{name: (calls, self ns)}`` summed over all spans of each name."""
    totals = {}
    for span, own in zip(spans, self_times(spans)):
        calls, ns = totals.get(span.name, (0, 0))
        totals[span.name] = (calls + 1, ns + own)
    return totals
