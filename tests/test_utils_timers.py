"""Tests of the stopwatch."""

from repro.utils.timers import Timer


class TestTimer:
    def test_elapsed_non_negative(self):
        with Timer() as timer:
            sum(range(100))
        assert timer.elapsed >= 0.0

    def test_elapsed_zero_before_use(self):
        assert Timer().elapsed == 0.0

