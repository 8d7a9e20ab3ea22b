"""SERVICE — ingest throughput and budgeted query latency of the ER service.

The service turns the batch library into a long-lived store; its two
operational figures are how fast profiles stream into the incremental index
(ingest throughput, profiles/s) and how fast budgeted match queries come
back (p50/p95 latency).  Both are measured here at the library level on
:class:`~repro.service.collection.ServiceCollection` — the exact objects the
HTTP handlers call, minus the socket, so the figures isolate engine cost
from network noise.

The query figures split *cold* from *warm*: the first query after an append
pays the full progressive ranking sweep; every later query under any budget
≤ the cached prefix is a slice.  The committed baseline therefore carries
the machine-independent ratio ``cold_over_warm`` (cold sweep seconds over
warm p95 seconds) alongside the absolute timings —
``scripts/bench_guard.py::check_service_against_baseline`` guards the ratio
strictly and the absolutes loosely.

The durability run (``run_wal_benchmark`` → committed
``service_wal_entries``) measures what the write-ahead ingest log costs:
the same batch stream ingested with no WAL, with ``fsync=off`` and with the
default ``fsync=batch``, reported as absolute profiles/s plus the
machine-independent ratios ``off_over_none``/``batch_over_none`` —
``scripts/bench_guard.py::check_service_wal_against_baseline`` holds the
batch-fsync rate at or above 50 percent of the non-WAL rate.

Regenerate the committed ``service_entries`` and ``service_wal_entries``
with::

    PYTHONPATH=src:benchmarks python benchmarks/bench_service.py
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from repro.data.synthetic import generate_scalability_products
from repro.service.metrics import LatencyHistogram
from repro.service.collection import CollectionConfig, ServiceCollection
from repro.service.wal import WriteAheadLog

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_metablocking.json"

SERVICE_SIZES = (2_000, 10_000)
BATCH_SIZE = 1_000
QUERY_COUNT = 50
BUDGET = 500
WAL_SIZE = 2_000
WAL_POLICIES = ("none", "off", "batch")


def _ingest_batches(num_entities: int, seed: int = 42):
    """The synthetic scalability products as ingest payload batches."""
    dataset = generate_scalability_products(num_entities, seed=seed)
    profiles = sorted(dataset.profiles, key=lambda p: p.profile_id)
    payloads = [
        {
            "id": profile.profile_id,
            "source": profile.source_id,
            "attributes": {
                kv.attribute: profile.values_of(kv.attribute)
                for kv in profile.attributes
            },
        }
        for profile in profiles
    ]
    return [
        {"profiles": payloads[start : start + BATCH_SIZE]}
        for start in range(0, len(payloads), BATCH_SIZE)
    ]


def run_service_benchmark(
    sizes=SERVICE_SIZES, query_count: int = QUERY_COUNT, budget: int = BUDGET
) -> list[dict]:
    """One entry per size: ingest throughput + cold/warm query latency."""
    entries: list[dict] = []
    for num_entities in sizes:
        batches = _ingest_batches(num_entities)
        # The scalability generator emits a two-source (clean-clean) pair.
        collection = ServiceCollection(
            CollectionConfig(name="bench", clean_clean=True)
        )
        try:
            ingest_started = time.perf_counter()
            total_profiles = 0
            for batch in batches:
                summary = collection.ingest(batch)
                total_profiles += summary["appended"]
            ingest_seconds = time.perf_counter() - ingest_started

            # Cold: the first query pays compaction + the full ranking sweep.
            cold_started = time.perf_counter()
            first = collection.matches(0, budget)
            cold_seconds = time.perf_counter() - cold_started
            assert len(first["candidates"]) <= budget

            # Warm: every further query slices the cached prefix.
            histogram = LatencyHistogram()
            profile_ids = collection.index.profile_ids()
            for position in range(query_count):
                profile_id = profile_ids[(position * 37) % len(profile_ids)]
                started = time.perf_counter()
                result = collection.matches(profile_id, budget)
                histogram.observe(time.perf_counter() - started)
                assert len(result["candidates"]) <= budget

            warm_p95 = histogram.quantile(0.95)
            entries.append(
                {
                    "num_entities": num_entities,
                    "profiles": total_profiles,
                    "batch_size": BATCH_SIZE,
                    "budget": budget,
                    "queries": query_count,
                    "ingest_s": round(ingest_seconds, 4),
                    "profiles_per_s": round(total_profiles / ingest_seconds, 1),
                    "cold_query_s": round(cold_seconds, 4),
                    "query_p50_s": round(histogram.quantile(0.50), 6),
                    "query_p95_s": round(warm_p95, 6),
                    "cold_over_warm": round(cold_seconds / max(warm_p95, 1e-9), 1),
                }
            )
        finally:
            collection.close()
    return entries


def run_wal_benchmark(num_entities: int = WAL_SIZE) -> list[dict]:
    """One entry: ingest throughput with no WAL vs ``fsync=off``/``batch``.

    Every policy ingests the identical batch stream into a fresh collection;
    the WAL-backed runs log each batch (pickle + CRC + write + flush) before
    it touches the index, which is exactly the durability overhead the
    committed ratios track.
    """
    batches = _ingest_batches(num_entities)
    rates: dict[str, float] = {}
    wal_bytes = 0
    for policy in WAL_POLICIES:
        with tempfile.TemporaryDirectory(prefix="repro-walbench-") as tmp:
            collection = ServiceCollection(
                CollectionConfig(name="bench", clean_clean=True)
            )
            if policy != "none":
                collection.attach_wal(
                    WriteAheadLog(os.path.join(tmp, "bench.wal"), fsync=policy)
                )
            try:
                started = time.perf_counter()
                total_profiles = 0
                for batch in batches:
                    total_profiles += collection.ingest(batch)["appended"]
                seconds = time.perf_counter() - started
                rates[policy] = total_profiles / seconds
                if collection.wal is not None:
                    wal_bytes = max(wal_bytes, collection.wal.size_bytes())
            finally:
                collection.close()
    return [
        {
            "num_entities": num_entities,
            "profiles": total_profiles,
            "batch_size": BATCH_SIZE,
            "wal_bytes": wal_bytes,
            "none_profiles_per_s": round(rates["none"], 1),
            "off_profiles_per_s": round(rates["off"], 1),
            "batch_profiles_per_s": round(rates["batch"], 1),
            "off_over_none": round(rates["off"] / rates["none"], 3),
            "batch_over_none": round(rates["batch"] / rates["none"], 3),
        }
    ]


def test_service_ingest_query_smoke(benchmark):
    """CI smoke: small ingest + query sweep through the served code path."""
    entries = benchmark.pedantic(
        lambda: run_service_benchmark(sizes=(1_000,), query_count=10), rounds=1,
        iterations=1,
    )
    entry = entries[0]
    # The generator emits a matched counterpart for most source-0 profiles,
    # so the pair holds between 1x and 2x num_entities profiles.
    assert 1_000 <= entry["profiles"] <= 2_000
    assert entry["profiles_per_s"] > 0
    assert entry["query_p95_s"] >= entry["query_p50_s"]


def test_service_wal_overhead_smoke(benchmark):
    """CI smoke: WAL-backed ingest holds a sane fraction of the no-WAL rate."""
    entries = benchmark.pedantic(
        lambda: run_wal_benchmark(num_entities=1_000), rounds=1, iterations=1
    )
    entry = entries[0]
    assert entry["wal_bytes"] > 0
    assert entry["batch_profiles_per_s"] > 0
    # Loose sanity bound for the smoke (the guard holds the committed-size
    # floor against the baseline): logging must not halve throughput.
    assert entry["batch_over_none"] >= 0.5
    assert entry["off_over_none"] >= 0.5


def main(argv=None) -> int:
    """Regenerate the committed ``service_entries`` section of the baseline."""
    import argparse

    from conftest import print_rows

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SERVICE_SIZES))
    parser.add_argument("--output", type=Path, default=BASELINE_PATH)
    parser.add_argument(
        "--dry-run", action="store_true", help="run without writing the baseline file"
    )
    args = parser.parse_args(argv)

    entries = run_service_benchmark(sizes=tuple(args.sizes))
    print_rows("SERVICE ingest/query baseline", entries)
    wal_entries = run_wal_benchmark()
    print_rows("SERVICE WAL durability overhead", wal_entries)
    if not args.dry_run:
        payload = (
            json.loads(args.output.read_text()) if args.output.exists() else {}
        )
        payload["service_entries"] = entries
        payload["service_wal_entries"] = wal_entries
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote service_entries and service_wal_entries to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
