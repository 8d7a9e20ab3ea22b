"""Perf-regression guard for the meta-blocking kernel and the engine path.

Five guards, all built on ratios that are largely machine-independent; most
compare against the committed ``BENCH_metablocking.json`` baseline, the
pipeline guard measures both sides fresh:

* **end-to-end** — times the full ``ParallelMetaBlocker`` against the
  sequential ``MetaBlocker`` on the same blocks and checks the *overhead
  ratio* (engine wall-clock / sequential wall-clock).  Fails when the
  engine plumbing became more than ``1 + tolerance`` times as expensive
  relative to the algorithmic work as the committed baseline.
* **pipeline runner** — times the ``SparkER`` facade against
  ``Pipeline.from_spec`` end-to-end on the same dataset and fails when the
  declarative stage-graph runner costs more than 5 percent over the facade
  (which itself runs through the same stage graph).
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
* **out-of-core scale** — checks the committed ``scale_entries`` (the
  10⁴/10⁵-entity out-of-core runs of ``benchmarks/bench_scalability.py``)
  for the memmap-vs-ram overhead and peak-RSS ceilings at the largest size,
  then re-runs the smallest size under both buffer backends in fresh
  subprocesses and fails on checksum divergence or RSS/overhead regression.

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


PIPELINE_CEILING = 1.05  # declarative runner must stay within 5% of the facade


def check_pipeline_against_facade(
    ceiling: float = PIPELINE_CEILING,
) -> list[str]:
    """Guard the facade-vs-pipeline-runner overhead; return failure messages.

    The facade is a thin wrapper over the canonical pipeline spec, so the
    declarative runner going through ``Pipeline.from_spec`` must not cost
    more than ``ceiling`` times the facade's end-to-end wall-clock.  Both
    sides are measured fresh (best-of-N on the same dataset), so no committed
    baseline is needed — the ratio is machine-independent by construction.
    """
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    from bench_pipeline import DEFAULT_SIZES, run_pipeline_benchmark

    # Only the largest default size: long enough that scheduler jitter does
    # not swamp a 5% ratio, and the smaller sweep sizes would be discarded.
    entry = run_pipeline_benchmark(sizes=DEFAULT_SIZES[-1:])[0]
    overhead = entry["overhead"]
    if overhead > ceiling:
        return [
            f"pipeline: declarative runner overhead {overhead:.3f}x the facade "
            f"on {entry['num_entities']} entities (ceiling {ceiling:.2f}x)"
        ]
    return []


SCALE_OVERHEAD_CEILING = 1.5  # memmap meta-blocking ≤ 1.5× the ram wall-clock
SCALE_RSS_CEILING = 1.15  # memmap peak RSS ≤ 1.15× the ram peak RSS


def check_scale_against_baseline(
    tolerance: float = 0.25, baseline_path: Path = BASELINE_PATH
) -> list[str]:
    """Guard the out-of-core scale baseline; return failure messages.

    Two layers.  Committed-side (no re-run, so the 10⁵-entity run stays
    offline): at the *largest* committed size the memmap buffer backend must
    stay within ``SCALE_OVERHEAD_CEILING`` of the ram wall-clock and within
    ``SCALE_RSS_CEILING`` of the ram peak RSS — the out-of-core index must
    not cost real time or, absurdly, more memory.  Re-measured (CI-
    affordable): the *smallest* committed size re-runs under both buffer
    backends in fresh subprocesses; fails when the retained-edge checksums
    diverge (bit-for-bit acceptance), when the measured memmap overhead
    exceeds the ceiling, or when the memmap peak RSS grows beyond
    ``1 + tolerance`` of its committed value.
    """
    sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
    from bench_scalability import run_scale_benchmark

    baseline = json.loads(baseline_path.read_text())
    scale_entries = baseline.get("scale_entries")
    if not scale_entries:
        return [
            "no scale baseline committed — regenerate with "
            "`python benchmarks/bench_scalability.py`"
        ]
    failures: list[str] = []
    largest = max(scale_entries, key=lambda entry: entry["num_entities"])
    if largest["memmap_overhead"] > SCALE_OVERHEAD_CEILING:
        failures.append(
            f"scale: committed memmap overhead {largest['memmap_overhead']:.2f}x "
            f"at {largest['num_entities']} entities is above the "
            f"{SCALE_OVERHEAD_CEILING:.1f}x ceiling"
        )
    if largest["memmap_rss_ratio"] > SCALE_RSS_CEILING:
        failures.append(
            f"scale: committed memmap peak RSS is "
            f"{largest['memmap_rss_ratio']:.2f}x the ram peak at "
            f"{largest['num_entities']} entities (ceiling {SCALE_RSS_CEILING:.2f}x)"
        )

    smallest = min(scale_entries, key=lambda entry: entry["num_entities"])
    guard_size = smallest["num_entities"]
    # run_scale_benchmark raises AssertionError itself when the ram and
    # memmap checksums diverge — surface that as a guard failure.
    try:
        current = run_scale_benchmark(sizes=[guard_size])[0]
    except AssertionError as error:
        return failures + [f"scale: {error}"]
    if current["checksum"] != smallest["checksum"]:
        failures.append(
            f"scale: retained-edge checksum at {guard_size} entities changed to "
            f"{current['checksum']} (committed {smallest['checksum']}) — the "
            "meta-blocking output drifted; regenerate the baseline if intended"
        )
    overhead_ceiling = max(
        SCALE_OVERHEAD_CEILING, smallest["memmap_overhead"] * (1.0 + tolerance)
    )
    if current["memmap_overhead"] > overhead_ceiling:
        failures.append(
            f"scale: memmap overhead regressed to "
            f"{current['memmap_overhead']:.2f}x the ram wall-clock at "
            f"{guard_size} entities (committed {smallest['memmap_overhead']:.2f}x, "
            f"ceiling {overhead_ceiling:.2f}x)"
        )
    committed_rss = smallest["memmap"]["max_rss_kb"]
    rss_ceiling = committed_rss * (1.0 + tolerance)
    measured_rss = current["memmap"]["max_rss_kb"]
    if measured_rss > rss_ceiling:
        failures.append(
            f"scale: memmap peak RSS regressed to {measured_rss} KB at "
            f"{guard_size} entities (committed {committed_rss} KB, ceiling "
            f"{rss_ceiling:.0f} KB)"
        )
    return failures


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
        "--pipeline-ceiling",
        type=float,
        default=PIPELINE_CEILING,
        help="maximum pipeline-runner/facade wall-clock ratio (default 1.05)",
    )
    parser.add_argument(
        "--scale-tolerance",
        type=float,
        default=0.25,
        help="allowed fractional memmap RSS/overhead regression at the "
        "smallest committed scale size (default 0.25 = 25%%)",
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
    failures += check_pipeline_against_facade(args.pipeline_ceiling)
    failures += check_scale_against_baseline(args.scale_tolerance, args.baseline)
    failures += check_service_against_baseline(args.service_tolerance, args.baseline)
    failures += check_service_wal_against_baseline(args.baseline)
    if failures:
        for failure in failures:
            print(f"BENCH GUARD FAIL — {failure}", file=sys.stderr)
        return 1
    print(
        "bench guard ok: e2e engine overhead, pipeline-runner overhead, out-of-core scale, service ingest/query "
        "and WAL durability baselines within tolerance"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
