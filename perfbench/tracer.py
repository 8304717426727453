"""Spans recorded from outside the program, around calls into its layers.

The benchmark never edits ``src/``: a traced run swaps a layer's public
callable for a wrapper that records a span (name, start, end, parent) and
puts the original back afterwards. Spans are kept in memory; a layer's
*self time* is its spans' durations minus the time their child spans
cover, so nested layers (a sink finalised inside pruning) are not counted
twice.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder with per-thread parent tracking."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per finished or open span.
        self.spans: "list[list]" = []
        #: Counts recorded at the same boundaries as the spans.
        self.counts: "dict[str, float]" = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: "list" = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> "list[int]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = [name, time.perf_counter(), None, stack[-1] if stack else None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, func, name: str, on_result=None):
        """``func`` recording a ``name`` span per call; ``on_result(result)``
        runs after the span closes, so counting costs no layer time."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, on_result=None) -> None:
        """Replace ``owner.attribute`` by its traced wrapper until
        :meth:`restore`. Properties are wrapped through their getter."""
        original = inspect.getattr_static(owner, attribute)
        if isinstance(original, property):
            replacement = property(self.wrap(original.fget, name, on_result))
        else:
            replacement = self.wrap(getattr(owner, attribute), name, on_result)
        own = attribute in vars(owner)
        setattr(owner, attribute, replacement)
        self._undo.append((owner, attribute, original if own else None))

    def restore(self) -> None:
        """Put every patched callable back (latest first)."""
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if original is None:  # was inherited or per-class default
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> "dict[str, float]":
        """Summed self time per span name, in seconds."""
        spans = [span for span in self.spans if span[2] is not None]
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: "dict[str, float]" = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                continue
            own = (end - start) - child_time[index]
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def dump(self) -> "list[dict]":
        """The spans as JSON-ready records (times relative to the first)."""
        if not self.spans:
            return []
        origin = min(span[1] for span in self.spans)
        return [
            {
                "name": name,
                "start": start - origin,
                "end": None if end is None else end - origin,
                "parent": parent,
            }
            for name, start, end, parent in self.spans
        ]
