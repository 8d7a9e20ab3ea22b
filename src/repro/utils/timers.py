"""The stopwatch used by the pipeline and the benchmarks."""

from __future__ import annotations

import time


class Timer:
    """Context-manager stopwatch.

    Example
    -------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: float | None = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._start is not None:
            self.elapsed = time.perf_counter() - self._start
