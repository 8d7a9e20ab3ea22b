"""Perf-regression guard for the meta-blocking kernel and the engine path.

Three guards, all built on ratios that are largely machine-independent,
compared against the committed ``BENCH_metablocking.json`` baseline:

* **end-to-end** — times the full ``ParallelMetaBlocker`` against the
  sequential ``MetaBlocker`` on the same blocks and checks the *overhead
  ratio* (engine wall-clock / sequential wall-clock).  Fails when the
  engine plumbing became more than ``1 + tolerance`` times as expensive
  relative to the algorithmic work as the committed baseline.
* **ER service** — checks the committed ``service_entries`` (ingest
  throughput and budgeted query latency of the long-lived service at up to
  10⁴ entities): the warm-query/cold-sweep speedup must stay above a hard
  floor at every committed size, and a fresh re-run at the smallest size
  must hold the committed ingest throughput within tolerance.
* **WAL durability overhead** — checks the committed ``service_wal_entries``
  and a fresh re-run: ingesting through the write-ahead log under the
  default ``fsync=batch`` policy must hold at least 50 percent of the
  non-WAL ingest rate for the same batch stream (a machine-independent
  ratio — crossing it means the durable write path itself regressed).

Usage::

    PYTHONPATH=src python scripts/bench_guard.py
    PYTHONPATH=src python scripts/bench_guard.py --e2e-tolerance 0.5

Also wired as an opt-in pytest marker::

    PYTHONPATH=src python -m pytest tests/test_bench_guard.py --bench-guard
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_metablocking.json"


def check_e2e_against_baseline(
    tolerance: float = 0.5, baseline_path: Path = BASELINE_PATH
) -> list[str]:
    """Guard the end-to-end engine overhead; return failure messages.

    The tolerance defaults loose because whole-job wall-clocks carry
    scheduler noise.
    """
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    from bench_metablocking_kernel import run_e2e_benchmark

    baseline = json.loads(baseline_path.read_text())
    e2e_entries = baseline.get("e2e_entries")
    if not e2e_entries:
        return [
            "no e2e baseline committed — regenerate with "
            "`python benchmarks/bench_metablocking_kernel.py`"
        ]
    # Guard at the *largest* committed size: its whole-job wall-clock is long
    # enough that the overhead ratio is stable run-to-run (the smallest size
    # finishes in ~20ms, where scheduler jitter swamps the ratio).
    baseline_entry = max(e2e_entries, key=lambda entry: entry["num_entities"])
    guard_size = baseline_entry["num_entities"]

    current_entry = run_e2e_benchmark(sizes=[guard_size])[0]

    expected = baseline_entry["overhead"]
    measured = current_entry["overhead"]
    ceiling = expected * (1.0 + tolerance)
    if measured > ceiling:
        return [
            f"e2e: engine overhead regressed to {measured:.2f}x the sequential "
            f"path (baseline {expected:.2f}x, ceiling {ceiling:.2f}x)"
        ]
    return []


SERVICE_WARM_SPEEDUP_FLOOR = 20.0
SERVICE_INGEST_FLOOR = 1_000.0  # profiles/s — an order below any sane run
SERVICE_WAL_RATE_FLOOR = 0.5  # batch-fsync ingest / non-WAL ingest


def check_service_against_baseline(
    tolerance: float = 0.5, baseline_path: Path = BASELINE_PATH
) -> list[str]:
    """Guard the ER-service ingest/query baseline; return failure messages.

    Committed-side (no re-run, covers the 10⁴-entity entry): the cached
    progressive prefix must keep warm budgeted queries at least
    ``SERVICE_WARM_SPEEDUP_FLOOR`` times cheaper than the cold ranking
    sweep at every committed size — that ratio is machine-independent and
    collapsing it means the prefix cache stopped working.  Re-measured
    (CI-affordable): the smallest committed size re-runs fresh; fails when
    ingest throughput drops below ``1 - tolerance`` of the committed
    profiles/s (or below the absolute ``SERVICE_INGEST_FLOOR``), or when
    the warm-query speedup falls below the floor.
    """
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    from bench_service import run_service_benchmark

    baseline = json.loads(baseline_path.read_text())
    service_entries = baseline.get("service_entries")
    if not service_entries:
        return [
            "no service baseline committed — regenerate with "
            "`python benchmarks/bench_service.py`"
        ]
    failures: list[str] = []
    for entry in service_entries:
        if entry["cold_over_warm"] < SERVICE_WARM_SPEEDUP_FLOOR:
            failures.append(
                f"service: committed warm-query speedup {entry['cold_over_warm']:.1f}x "
                f"at {entry['num_entities']} entities is below the "
                f"{SERVICE_WARM_SPEEDUP_FLOOR:.0f}x floor"
            )

    smallest = min(service_entries, key=lambda entry: entry["num_entities"])
    guard_size = smallest["num_entities"]
    current = run_service_benchmark(sizes=[guard_size])[0]
    if current["profiles"] != smallest["profiles"]:
        failures.append(
            f"service: ingest at {guard_size} entities appended "
            f"{current['profiles']} profiles (committed {smallest['profiles']}) — "
            "the served dataset drifted; regenerate the baseline if intended"
        )
    throughput_floor = max(
        SERVICE_INGEST_FLOOR, smallest["profiles_per_s"] * (1.0 - tolerance)
    )
    if current["profiles_per_s"] < throughput_floor:
        failures.append(
            f"service: ingest throughput regressed to "
            f"{current['profiles_per_s']:.0f} profiles/s at {guard_size} entities "
            f"(committed {smallest['profiles_per_s']:.0f}, floor "
            f"{throughput_floor:.0f})"
        )
    if current["cold_over_warm"] < SERVICE_WARM_SPEEDUP_FLOOR:
        failures.append(
            f"service: warm-query speedup collapsed to "
            f"{current['cold_over_warm']:.1f}x at {guard_size} entities "
            f"(floor {SERVICE_WARM_SPEEDUP_FLOOR:.0f}x) — the ranked-prefix "
            "cache is no longer absorbing repeat queries"
        )
    return failures


def check_service_wal_against_baseline(
    baseline_path: Path = BASELINE_PATH,
) -> list[str]:
    """Guard the WAL durability overhead; return failure messages.

    The write-ahead ingest log must stay cheap: the committed
    ``service_wal_entries`` and a fresh re-run must both hold the default
    ``fsync=batch`` ingest rate at or above ``SERVICE_WAL_RATE_FLOOR``
    (50 percent) of the non-WAL rate for the same batch stream — the ratio
    is machine-independent, so crossing it means the logging path itself
    regressed (per-record work, extra fsyncs, serialisation bloat), not the
    machine.
    """
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    from bench_service import run_wal_benchmark

    baseline = json.loads(baseline_path.read_text())
    wal_entries = baseline.get("service_wal_entries")
    if not wal_entries:
        return [
            "no service WAL baseline committed — regenerate with "
            "`python benchmarks/bench_service.py`"
        ]
    failures: list[str] = []
    committed = wal_entries[0]
    if committed["batch_over_none"] < SERVICE_WAL_RATE_FLOOR:
        failures.append(
            f"service-wal: committed batch-fsync ingest holds only "
            f"{committed['batch_over_none']:.0%} of the non-WAL rate at "
            f"{committed['num_entities']} entities (floor "
            f"{SERVICE_WAL_RATE_FLOOR:.0%})"
        )
    current = run_wal_benchmark(num_entities=committed["num_entities"])[0]
    if current["profiles"] != committed["profiles"]:
        failures.append(
            f"service-wal: ingest appended {current['profiles']} profiles "
            f"(committed {committed['profiles']}) — the served dataset "
            "drifted; regenerate the baseline if intended"
        )
    if current["batch_over_none"] < SERVICE_WAL_RATE_FLOOR:
        failures.append(
            f"service-wal: batch-fsync ingest dropped to "
            f"{current['batch_over_none']:.0%} of the non-WAL rate "
            f"({current['batch_profiles_per_s']:.0f} vs "
            f"{current['none_profiles_per_s']:.0f} profiles/s, floor "
            f"{SERVICE_WAL_RATE_FLOOR:.0%}) — the durable write path got "
            "more expensive"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--e2e-tolerance",
        type=float,
        default=0.5,
        help="allowed fractional e2e overhead increase (default 0.5 = 50%%)",
    )
    parser.add_argument(
        "--service-tolerance",
        type=float,
        default=0.5,
        help="allowed fractional service ingest-throughput regression at the "
        "smallest committed size (default 0.5 = 50%%)",
    )
    parser.add_argument("--baseline", type=Path, default=BASELINE_PATH)
    args = parser.parse_args(argv)

    failures = check_e2e_against_baseline(args.e2e_tolerance, args.baseline)
    failures += check_service_against_baseline(args.service_tolerance, args.baseline)
    failures += check_service_wal_against_baseline(args.baseline)
    if failures:
        for failure in failures:
            print(f"BENCH GUARD FAIL — {failure}", file=sys.stderr)
        return 1
    print(
        "bench guard ok: e2e engine overhead, service ingest/query and WAL "
        "durability baselines within tolerance"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
