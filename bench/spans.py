"""Span log for the traced pass, plus the sample statistics every metric uses.

The spans are recorded from the benchmark's own files, around its calls into
the layers' public functions (wire-tap style): nothing in ``src/`` knows it is
being observed.  Spans stay in memory and are written once, at exit, as a
Chrome-trace JSON (``chrome://tracing`` / Perfetto) and a self-time table.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from contextlib import contextmanager


def summarise(samples: "list[float]", repeats: bool = True) -> dict:
    """Median with the spread recorded beside it (min, quartiles, count).

    ``repeats`` says the samples repeat one measurement, so their spread is
    its noise; ``False`` marks a distribution (request latencies, cycles of
    growing cost) whose quartiles describe the workload instead.
    """
    ordered = sorted(samples)
    if len(ordered) >= 2:
        q1, _median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    else:
        q1 = q3 = ordered[0]
    return {
        "value": statistics.median(ordered),
        "min": ordered[0],
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
        "repeats": repeats,
    }


def value_of(measured) -> float:
    """A metric is a bare number or a :func:`summarise` record."""
    return measured["value"] if isinstance(measured, dict) else measured


def percentile(samples: "list[float]", q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)]


class Tracer:
    """Nested wall-clock spans: ``{name, start, end, parent, workload, rep}``."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: "list[dict]" = []
        self._stack: "list[int]" = []

    @contextmanager
    def span(self, name: str, rep: int):
        """Time one call into a layer; the caller fills ``counts`` (work done
        at the same boundary) on the yielded record."""
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "rep": rep,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> "list[float]":
        """Span durations by name, one per occurrence, in recording order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def median(self, name: str) -> float:
        """Median duration of the named span, 0.0 when it never ran."""
        durations = self.durations(name)
        return statistics.median(durations) if durations else 0.0

    def self_times(self) -> "dict[str, dict]":
        """Per span name: total and self time (span minus its child spans)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        table: "dict[str, dict]" = {}
        for position, span in enumerate(self.spans):
            row = table.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            duration = span["end"] - span["start"]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time[position]
        return table

    def coverage(self, root: str = "run") -> float:
        """Share of the ``root`` spans' wall-clock their direct children cover."""
        roots = {i for i, span in enumerate(self.spans) if span["name"] == root}
        covered = sum(
            span["end"] - span["start"] for span in self.spans if span["parent"] in roots
        )
        return covered / sum(self.durations(root))

    def self_time_table(self) -> str:
        """The self-time table as aligned text, largest self time first."""
        rows = sorted(self.self_times().items(), key=lambda item: -item[1]["self_s"])
        total = sum(row["self_s"] for _name, row in rows) or 1.0
        lines = [f"{'span':<34}{'calls':>7}{'total_s':>11}{'self_s':>11}{'share':>8}"]
        for name, row in rows:
            lines.append(
                f"{name:<34}{row['calls']:>7}{row['total_s']:>11.4f}"
                f"{row['self_s']:>11.4f}{row['self_s'] / total:>8.1%}"
            )
        return "\n".join(lines)

    def chrome_trace(self) -> dict:
        """Complete (``ph: X``) events, microseconds from the first span."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": span["name"],
                    "cat": span["name"].split(".", 1)[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (span["start"] - origin) * 1e6,
                    "dur": (span["end"] - span["start"]) * 1e6,
                    "args": {
                        "workload": span["workload"],
                        "rep": span["rep"],
                        "parent": span["parent"],
                        **span["counts"],
                    },
                }
                for span in self.spans
            ],
        }

    def write(self, directory) -> None:
        """Write ``trace-<workload>.json`` and ``selftime-<workload>.txt``."""
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"trace-{self.workload}.json").write_text(
            json.dumps(self.chrome_trace()), encoding="utf-8"
        )
        (directory / f"selftime-{self.workload}.txt").write_text(
            self.self_time_table() + "\n", encoding="utf-8"
        )
