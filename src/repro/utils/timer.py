"""Wall-clock timing helpers for the OTime / RTime measures."""

from __future__ import annotations

import math
import time
from collections.abc import Iterable
from types import TracebackType


def percentile(samples: Iterable[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``samples`` (``q`` in
    ``(0, 100]``): the ⌈q·n/100⌉-th smallest of the ``n`` samples.

    ``samples`` must not be empty.
    """
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(q * len(ordered) / 100)) - 1]


class Timer:
    """Context manager measuring elapsed wall-clock seconds.

    The paper reports Overhead Time (OTime) and Resolution Time (RTime) for
    every method; this timer is the single mechanism all of them use::

        with Timer() as timer:
            blocks = meta_block(...)
        report.overhead_seconds = timer.elapsed
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self.start()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        traceback: TracebackType | None,
    ) -> None:
        self.stop()

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> float:
        """Stop the timer and return the elapsed seconds."""
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed = time.perf_counter() - self._start
        self._start = None
        return self.elapsed

    @property
    def running(self) -> bool:
        return self._start is not None
