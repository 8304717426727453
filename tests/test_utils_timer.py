"""Unit tests for the wall-clock timer and the percentile helper."""

import random
import time

import pytest

from repro.utils.timer import Timer, percentile


class TestTimer:
    def test_context_manager_measures(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.01

    def test_stop_without_start_raises(self):
        with pytest.raises(RuntimeError):
            Timer().stop()

    def test_running_flag(self):
        timer = Timer()
        assert not timer.running
        timer.start()
        assert timer.running
        timer.stop()
        assert not timer.running

    def test_stop_returns_elapsed(self):
        timer = Timer()
        timer.start()
        elapsed = timer.stop()
        assert elapsed == timer.elapsed >= 0.0

    def test_reusable(self):
        timer = Timer()
        with timer:
            pass
        first = timer.elapsed
        with timer:
            time.sleep(0.005)
        assert timer.elapsed >= 0.005
        assert timer.elapsed != first or timer.elapsed > 0


@pytest.mark.parametrize(
    "n, p50, p99",
    [
        (1, 1, 1),
        (2, 1, 2),
        (4, 2, 4),
        (6, 3, 6),
        (7, 4, 7),
        (100, 50, 99),
        (200, 100, 198),
    ],
)
def test_percentile_is_the_nearest_rank(n, p50, p99):
    # The q-th percentile of 1..n is its ceil(q * n / 100)-th smallest
    # value, whatever order the samples arrive in.
    samples = list(range(1, n + 1))
    random.Random(n).shuffle(samples)
    assert percentile(samples, 50) == p50
    assert percentile(samples, 99) == p99
