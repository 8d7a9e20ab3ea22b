"""Service-side request metrics: latency histograms plus failure counters.

Thin aggregation over :class:`LatencyHistogram` — one histogram and one
request/error counter pair per route label, snapshotted by
the ``GET /metrics`` endpoint.  Labels are route *patterns* (e.g.
``POST /collections/{name}/profiles``), not concrete paths, so cardinality is
bounded by the route table.

The durability/admission layer adds two more surfaces:

* **named counters** (:meth:`ServiceMetrics.inc`) for the failure paths —
  WAL appends / replayed records / torn-tail truncations, and the shed-load
  responses ``429``/``503``/``507`` (counted automatically by
  :meth:`observe`);
* the **offload gauge + wait histogram**: how many requests currently sit
  on the worker pool (and the high-water mark), and how long each waited
  for its collection gate before starting.
"""

from __future__ import annotations

import math
import time

_SHED_STATUSES = (429, 503, 507)


class LatencyHistogram:
    """Log-scale latency histogram with streaming percentile estimates.

    Buckets grow geometrically from ``base_seconds`` by ``growth`` per step —
    fine resolution where service latencies live (sub-millisecond to
    seconds), O(1) memory forever, no per-request allocation.  Percentiles
    are read from the bucket boundaries (upper edge of the bucket holding
    the requested rank), so ``p50``/``p95`` are conservative estimates with
    bounded relative error (``growth - 1``), which is exactly what a
    /metrics endpoint needs: stable, monotone, cheap.
    """

    __slots__ = ("base_seconds", "growth", "counts", "count", "total_seconds", "max_seconds")

    def __init__(
        self,
        *,
        base_seconds: float = 1e-5,
        growth: float = 1.5,
        num_buckets: int = 48,
    ) -> None:
        if base_seconds <= 0 or growth <= 1 or num_buckets < 2:
            raise ValueError("invalid latency histogram shape")
        self.base_seconds = base_seconds
        self.growth = growth
        # counts[i] holds observations <= base * growth**i; the last bucket
        # is the unbounded overflow.
        self.counts = [0] * num_buckets
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def observe(self, seconds: float) -> None:
        """Record one observation (negative durations clamp to zero)."""
        seconds = max(0.0, float(seconds))
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds
        bound = self.base_seconds
        last = len(self.counts) - 1
        for bucket in range(last):
            if seconds <= bound:
                self.counts[bucket] += 1
                return
            bound *= self.growth
        self.counts[last] += 1

    def quantile(self, q: float) -> float:
        """Upper bucket edge at quantile ``q`` (0 when nothing was observed)."""
        if not 0 <= q <= 1:
            raise ValueError("quantile must be within [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.count))
        seen = 0
        bound = self.base_seconds
        last = len(self.counts) - 1
        for bucket, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                return self.max_seconds if bucket == last else bound
            bound *= self.growth
        return self.max_seconds  # pragma: no cover - rank <= count always hits

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        """Flat dict for the service /metrics endpoint (seconds)."""
        return {
            "count": self.count,
            "mean": self.mean_seconds,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.max_seconds,
        }


class ServiceMetrics:
    """Request counters and latency histograms keyed by route label."""

    def __init__(self) -> None:
        self.started_at = time.time()
        self._histograms: dict[str, LatencyHistogram] = {}
        self._requests: dict[str, int] = {}
        self._errors: dict[str, int] = {}
        self._counters: dict[str, int] = {}
        self._offload_wait = LatencyHistogram()
        self._offload_depth = 0
        self._offload_peak_depth = 0

    def observe(self, label: str, seconds: float, status: int) -> None:
        """Record one handled request (5xx statuses count as errors)."""
        histogram = self._histograms.get(label)
        if histogram is None:
            histogram = self._histograms[label] = LatencyHistogram()
        histogram.observe(seconds)
        self._requests[label] = self._requests.get(label, 0) + 1
        if status >= 500:
            self._errors[label] = self._errors.get(label, 0) + 1
        if status in _SHED_STATUSES:
            self.inc(f"responses_{status}")

    # ------------------------------------------------------- failure counters
    def inc(self, counter: str, amount: int = 1) -> None:
        """Bump a named counter (WAL appends, replays, shed responses, ...)."""
        self._counters[counter] = self._counters.get(counter, 0) + amount

    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    # --------------------------------------------------------------- offload
    def offload_enter(self) -> None:
        self._offload_depth += 1
        if self._offload_depth > self._offload_peak_depth:
            self._offload_peak_depth = self._offload_depth

    def offload_exit(self) -> None:
        self._offload_depth -= 1

    def observe_offload_wait(self, seconds: float) -> None:
        """Time one request spent queued for its collection gate."""
        self._offload_wait.observe(seconds)

    def snapshot(self) -> dict:
        """The /metrics payload fragment for request handling."""
        endpoints = {}
        for label, histogram in sorted(self._histograms.items()):
            summary = histogram.summary()
            summary["requests"] = self._requests.get(label, 0)
            summary["errors"] = self._errors.get(label, 0)
            endpoints[label] = summary
        return {
            "uptime_seconds": max(0.0, time.time() - self.started_at),
            "requests": sum(self._requests.values()),
            "errors": sum(self._errors.values()),
            "endpoints": endpoints,
            "counters": dict(sorted(self._counters.items())),
            "offload": {
                "queue_depth": self._offload_depth,
                "peak_queue_depth": self._offload_peak_depth,
                "wait": self._offload_wait.summary(),
            },
        }
