"""SCALE — the scalability structure of the parallel algorithms.

The paper's claim is architectural: SparkER's algorithms are designed for a
MapReduce-like engine, using a broadcast-join structure for meta-blocking so
that the work partitions over the blocking-graph nodes.  Real cluster speedups
cannot be measured in a single Python process, so this benchmark reports the
quantities that determine them:

* task counts and shuffle volume as a function of the partition count,
* load balance (skew) of the broadcast-join meta-blocking,
* wall-clock of the sequential vs engine-backed meta-blocking (same output),
* wall-clock growth as the dataset size grows.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import print_rows

from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.data.synthetic import (
    SyntheticConfig,
    generate_abt_buy_like,
    generate_scalability_products,
)
from repro.engine.context import EngineContext
from repro.engine.executors import MultiprocessingExecutor
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker
from repro.options import EngineOptions


def _prepared_blocks(dataset):
    raw = TokenBlocking().block(dataset.profiles)
    return BlockFiltering().filter(BlockPurging().purge(raw, len(dataset.profiles)))


@pytest.mark.parametrize("partitions", [1, 2, 4, 8, 16])
def test_scale_partition_sweep(benchmark, abt_buy_large, partitions):
    """Task count, shuffle volume and skew of the parallel meta-blocking."""
    blocks = _prepared_blocks(abt_buy_large)

    def run():
        context = EngineContext(default_parallelism=partitions)
        result = ParallelMetaBlocker(context, "cbs", "wnp").run(blocks)
        stages = context.scheduler.stages
        return {
            "partitions": partitions,
            "tasks": context.scheduler.total_tasks,
            "shuffle_records": context.scheduler.total_shuffle_records,
            "fused_narrow": context.scheduler.total_fused_stages,
            "max_stage_skew": round(max((s.skew for s in stages), default=0.0), 3),
            "candidate_pairs": result.num_candidates,
        }

    row = benchmark(run)
    print_rows(f"SCALE parallel meta-blocking, {partitions} partitions", [row])
    assert row["candidate_pairs"] > 0


def test_scale_stage_breakdown(benchmark, abt_buy_large):
    """Per-stage record/shuffle counters of one broadcast-join WNP run.

    The broadcast-join structure shows up directly in the counters: one
    weighting stage over contiguous node ranges emits each edge exactly once
    (the CSR index travels by broadcast) and nothing crosses a shuffle
    boundary — pruning runs on the driver over the collected arrays.
    """
    blocks = _prepared_blocks(abt_buy_large)

    def run():
        context = EngineContext(default_parallelism=8)
        ParallelMetaBlocker(context, "cbs", "wnp").run(blocks)
        return context.scheduler.stage_table()

    table = benchmark(run)
    print_rows("SCALE per-stage counters (WNP, 8 partitions)", table)
    weight_stages = [r for r in table if "metablocking.weights" in str(r["description"])]
    assert weight_stages, "the edge-weighting stage must appear in the stage table"
    # Each edge is emitted from its lower endpoint only: no shuffle anywhere.
    assert all(r["shuffle_write"] == 0 for r in table)


def test_scale_parallel_equals_sequential(benchmark, abt_buy_large):
    """The broadcast-join meta-blocking returns the sequential result exactly."""
    blocks = _prepared_blocks(abt_buy_large)
    sequential = MetaBlocker("cbs", "wnp").run(blocks)

    def run():
        return ParallelMetaBlocker(EngineContext(8), "cbs", "wnp").run(blocks)

    parallel = benchmark(run)
    print_rows(
        "SCALE sequential vs parallel meta-blocking",
        [
            {
                "sequential_candidates": sequential.num_candidates,
                "parallel_candidates": parallel.num_candidates,
                "identical_output": parallel.candidate_pairs == sequential.candidate_pairs,
            }
        ],
    )
    assert parallel.candidate_pairs == sequential.candidate_pairs


@pytest.mark.parametrize("num_entities", [100, 200, 400])
def test_scale_dataset_growth(benchmark, num_entities):
    """End-to-end blocker cost as the dataset grows (input-size scaling)."""
    dataset = generate_abt_buy_like(SyntheticConfig(num_entities=num_entities, seed=7))

    def run():
        blocks = _prepared_blocks(dataset)
        result = MetaBlocker("cbs", "wnp").run(blocks)
        return {
            "entities": num_entities,
            "profiles": len(dataset.profiles),
            "graph_edges": result.graph_edges,
            "candidate_pairs": result.num_candidates,
        }

    row = benchmark(run)
    print_rows(f"SCALE dataset growth ({num_entities} entities)", [row])
    assert row["candidate_pairs"] > 0


@pytest.mark.parametrize(
    "weighting,pruning,use_entropy",
    [("cbs", "wnp", False), ("ejs", "wep", True)],
    ids=["cbs-wnp", "ejs-entropy-wep"],
)
def test_scale_executor_speedup(benchmark, abt_buy_large, weighting, pruning, use_entropy):
    """Serial vs process-pool executor wall-clock on the largest scenario.

    This is the PR's headline number: the same broadcast-join meta-blocking
    job, once with every stage in the driver and once with the narrow stages
    shipped to a 4-worker process pool.  Output must be bit-for-bit identical
    either way.  The ``ejs``+entropy weighted-edge job is where process
    execution pays: almost all its work sits in the shipped weighting stage
    (CBS/WNP spends a larger fraction in the driver-side vote shuffle, so it
    is reported but not asserted).  The >1.5× speedup assertion is gated on
    the machine actually having 4 cores — a single-core container cannot
    exhibit multi-core speedup and reports the (honest) slowdown instead.
    """
    blocks = _prepared_blocks(abt_buy_large)
    workers = 4

    def run():
        with EngineContext(workers, executor="serial") as serial_context:
            start = time.perf_counter()
            serial_result = ParallelMetaBlocker(
                serial_context, weighting, pruning, use_entropy=use_entropy
            ).run(blocks)
            serial_s = time.perf_counter() - start

        executor = MultiprocessingExecutor(max_workers=workers, on_unpicklable="raise")
        try:
            with EngineContext(workers, executor=executor) as process_context:
                # Warm the pool so fork/start-up cost is not billed to the job.
                process_context.parallelize(range(workers), workers).map(abs).collect()
                start = time.perf_counter()
                process_result = ParallelMetaBlocker(
                    process_context, weighting, pruning, use_entropy=use_entropy
                ).run(blocks)
                process_s = time.perf_counter() - start
        finally:
            executor.close()

        assert process_result.retained_edges == serial_result.retained_edges
        return {
            "job": f"{weighting}/{pruning}",
            "cpus": os.cpu_count(),
            "workers": workers,
            "serial_s": round(serial_s, 3),
            "process_s": round(process_s, 3),
            "speedup": round(serial_s / process_s, 2),
            "identical_output": True,
        }

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    print_rows(f"SCALE executor comparison ({weighting}/{pruning}, largest scenario)", [row])
    if weighting == "ejs" and (os.cpu_count() or 1) >= workers:
        assert row["speedup"] > 1.5


SCALE_SIZES = (10_000, 100_000)
SCALE_BUFFER_BACKENDS = ("ram", "memmap")
BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_metablocking.json"


def _max_rss_kb() -> int:
    """Process-lifetime peak RSS in KB (``ru_maxrss`` is bytes on darwin)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) // 1024 if sys.platform == "darwin" else int(peak)


def scale_run(num_entities: int, buffer_backend: str) -> dict:
    """One out-of-core meta-blocking run on the scalability dataset.

    Streams the retained edges in bounded chunks (no retained-edge dict is
    ever materialised) and fingerprints them with a SHA-256 over the packed
    ``(a, b, weight)`` triples in emission order, so ram and memmap runs can
    be compared bit-for-bit across processes.  Call this in a *fresh*
    process per configuration: ``ru_maxrss`` is a process-lifetime
    high-water mark, so two configurations measured in one process would
    share one meaningless peak.
    """
    start = time.perf_counter()
    dataset = generate_scalability_products(num_entities)
    blocks = _prepared_blocks(dataset)
    build_s = time.perf_counter() - start

    meta_blocker = MetaBlocker(
        "cbs", "wnp", options=EngineOptions.resolve(buffer_backend=buffer_backend)
    )
    digest = hashlib.sha256()
    retained = 0
    mb_start = time.perf_counter()
    for chunk in meta_blocker.stream_retained(blocks):
        for (a, b), weight in chunk:
            digest.update(struct.pack("<qqd", a, b, weight))
        retained += len(chunk)
    metablocking_s = time.perf_counter() - mb_start

    return {
        "num_entities": num_entities,
        "buffer_backend": buffer_backend,
        "profiles": len(dataset.profiles),
        "blocks": len(blocks),
        "retained_edges": retained,
        "checksum": digest.hexdigest()[:16],
        "build_s": round(build_s, 3),
        "metablocking_s": round(metablocking_s, 3),
        "max_rss_kb": _max_rss_kb(),
    }


def run_scale_benchmark(
    sizes=SCALE_SIZES, buffer_backends=SCALE_BUFFER_BACKENDS
) -> list[dict]:
    """Run :func:`scale_run` for every size × buffer backend, one subprocess
    each, and fold the results into one entry per size.

    The subprocess isolation is what makes ``max_rss_kb`` comparable across
    backends; the checksum equality check is the out-of-core acceptance
    criterion (memmap output bit-for-bit identical to ram).
    """
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo_root / "src"), str(repo_root / "benchmarks")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    entries: list[dict] = []
    for num_entities in sizes:
        per_backend: dict[str, dict] = {}
        for backend in buffer_backends:
            completed = subprocess.run(
                [sys.executable, __file__, "--scale-child", str(num_entities), backend],
                check=True,
                capture_output=True,
                text=True,
                env=env,
            )
            per_backend[backend] = json.loads(completed.stdout.splitlines()[-1])
        checksums = {row["checksum"] for row in per_backend.values()}
        if len(checksums) != 1:
            raise AssertionError(
                f"scale benchmark: buffer backends disagree at {num_entities} "
                f"entities: { {k: v['checksum'] for k, v in per_backend.items()} }"
            )
        reference = per_backend[buffer_backends[0]]
        entry = {
            "num_entities": num_entities,
            "profiles": reference["profiles"],
            "blocks": reference["blocks"],
            "retained_edges": reference["retained_edges"],
            "checksum": reference["checksum"],
        }
        for backend, row in per_backend.items():
            entry[backend] = {
                "build_s": row["build_s"],
                "metablocking_s": row["metablocking_s"],
                "max_rss_kb": row["max_rss_kb"],
            }
        if "ram" in per_backend and "memmap" in per_backend:
            entry["memmap_overhead"] = round(
                per_backend["memmap"]["metablocking_s"]
                / max(per_backend["ram"]["metablocking_s"], 1e-9),
                3,
            )
            entry["memmap_rss_ratio"] = round(
                per_backend["memmap"]["max_rss_kb"]
                / max(per_backend["ram"]["max_rss_kb"], 1),
                3,
            )
        entries.append(entry)
    return entries


def test_scale_out_of_core_smoke(benchmark):
    """CI smoke: ram and memmap agree bit-for-bit on a small scalability run.

    The committed 10⁴/10⁵ baselines are regenerated offline with
    ``python benchmarks/bench_scalability.py``; here a 2 000-entity sweep
    keeps the subprocess-isolated RSS/equivalence machinery exercised on
    every benchmark run.
    """
    entries = benchmark.pedantic(
        lambda: run_scale_benchmark(sizes=(2_000,)), rounds=1, iterations=1
    )
    print_rows("SCALE out-of-core (2000 entities)", entries)
    entry = entries[0]
    assert entry["retained_edges"] > 0
    assert entry["memmap_overhead"] > 0  # checksum equality already enforced


def main(argv=None) -> int:
    """Regenerate the committed ``scale_entries`` section of the baseline."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale-child",
        nargs=2,
        metavar=("NUM_ENTITIES", "BUFFER_BACKEND"),
        default=None,
        help="internal: run one configuration and print its JSON row",
    )
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SCALE_SIZES))
    parser.add_argument("--output", type=Path, default=BASELINE_PATH)
    parser.add_argument(
        "--dry-run", action="store_true", help="run without writing the baseline file"
    )
    args = parser.parse_args(argv)

    if args.scale_child is not None:
        num_entities, backend = args.scale_child
        print(json.dumps(scale_run(int(num_entities), backend)))
        return 0

    entries = run_scale_benchmark(sizes=tuple(args.sizes))
    print_rows("SCALE out-of-core baseline", entries)
    if not args.dry_run:
        payload = (
            json.loads(args.output.read_text()) if args.output.exists() else {}
        )
        payload["scale_entries"] = entries
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"scale baseline written to {args.output}")
    return 0


def test_scale_token_blocking_distributed(benchmark, abt_buy_large):
    """Distributed token blocking produces the same blocks as the local path."""
    local = TokenBlocking().block(abt_buy_large.profiles)

    def run():
        context = EngineContext(8)
        blocks = TokenBlocking(engine=context).block(abt_buy_large.profiles)
        return blocks, context.metrics_summary()

    blocks, summary = benchmark(run)
    print_rows(
        "SCALE distributed token blocking",
        [
            {
                "blocks": len(blocks),
                "same_comparisons_as_local": blocks.distinct_comparisons()
                == local.distinct_comparisons(),
                "engine_tasks": summary["tasks"],
                "shuffle_records": summary["shuffle_records"],
            }
        ],
    )
    assert blocks.distinct_comparisons() == local.distinct_comparisons()


if __name__ == "__main__":
    raise SystemExit(main())
