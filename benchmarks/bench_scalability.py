"""SCALE — the scalability structure of the parallel algorithms.

The paper's claim is architectural: SparkER's algorithms are designed for a
MapReduce-like engine, using a broadcast-join structure for meta-blocking so
that the work partitions over the blocking-graph nodes.  Real cluster speedups
cannot be measured in a single Python process, so this benchmark reports the
quantities that determine them:

* task counts as a function of the range count,
* load balance (task-time skew) of the broadcast-join meta-blocking,
* the engine-backed meta-blocking's output against the sequential one,
* wall-clock growth as the dataset size grows,
* and, run as a script, the CSR index's share of the streamed CBS/WNP
  meta-blocking's peak RSS on the scalability dataset.
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
from repro.metablocking.index import ARRAY_FIELDS, CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker


def _prepared_blocks(dataset):
    raw = TokenBlocking().block(dataset.profiles)
    return BlockFiltering().filter(BlockPurging().purge(raw, len(dataset.profiles)))


@pytest.mark.parametrize("partitions", [1, 2, 4, 8, 16])
def test_scale_partition_sweep(benchmark, abt_buy_large, partitions):
    """Task count and skew of the parallel meta-blocking."""
    blocks = _prepared_blocks(abt_buy_large)

    def run():
        context = EngineContext(default_parallelism=partitions)
        result = ParallelMetaBlocker(context, "cbs", "wnp").run(blocks)
        (stage,) = context.scheduler.stage_table()
        return {
            "partitions": partitions,
            "tasks": stage["tasks"],
            "skew": stage["skew"],
            "candidate_pairs": result.num_candidates,
        }

    row = benchmark(run)
    print_rows(f"SCALE parallel meta-blocking, {partitions} partitions", [row])
    assert row["candidate_pairs"] > 0


def test_scale_stage_breakdown(benchmark, abt_buy_large):
    """The stage row of one broadcast-join WNP run.

    The broadcast-join structure shows up directly in the table: one
    weighting map over contiguous node ranges emits each edge exactly once
    (every task reads the shared CSR index) and nothing is shuffled —
    pruning runs on the driver over the collected arrays.
    """
    blocks = _prepared_blocks(abt_buy_large)

    def run():
        context = EngineContext(default_parallelism=8)
        ParallelMetaBlocker(context, "cbs", "wnp").run(blocks)
        return context.scheduler.stage_table()

    table = benchmark(run)
    print_rows("SCALE stage table (WNP, 8 ranges)", table)
    assert [row["description"] for row in table] == ["metablocking.weights"]
    assert table[0]["tasks"] == 8


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


SCALE_SIZES = (30_000, 100_000)


def _max_rss_kb() -> int:
    """Process-lifetime peak RSS in KB (``ru_maxrss`` is bytes on darwin)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) // 1024 if sys.platform == "darwin" else int(peak)


def _csr_buffer_bytes(index: CSRBlockIndex) -> int:
    """The index's numeric vectors plus its node ids as int64."""
    vectors = sum(getattr(index, field).nbytes for field in ARRAY_FIELDS)
    return vectors + 8 * index.num_nodes


def scale_run(num_entities: int) -> dict:
    """One streamed CBS/WNP meta-blocking run on the scalability dataset.

    Streams the retained edges in bounded chunks (no retained-edge dict is
    ever materialised) and fingerprints them with a SHA-256 over the packed
    ``(a, b, weight)`` triples in emission order.  Peak RSS is read right
    after the stream; the index is then rebuilt once to size its buffers.
    Call this in a *fresh* process per size: ``ru_maxrss`` is a
    process-lifetime high-water mark.
    """
    start = time.perf_counter()
    dataset = generate_scalability_products(num_entities)
    blocks = _prepared_blocks(dataset)
    build_s = time.perf_counter() - start

    digest = hashlib.sha256()
    retained = 0
    mb_start = time.perf_counter()
    for chunk in MetaBlocker("cbs", "wnp").stream_retained(blocks):
        for (a, b), weight in chunk:
            digest.update(struct.pack("<qqd", a, b, weight))
        retained += len(chunk)
    metablocking_s = time.perf_counter() - mb_start
    max_rss_kb = _max_rss_kb()

    index = CSRBlockIndex.from_blocks(blocks)
    csr_mb = _csr_buffer_bytes(index) / 1e6
    return {
        "num_entities": num_entities,
        "profiles": len(dataset.profiles),
        "blocks": len(blocks),
        "retained_edges": retained,
        "checksum": digest.hexdigest()[:16],
        "build_s": round(build_s, 3),
        "metablocking_s": round(metablocking_s, 3),
        "csr_buffers_mb": round(csr_mb, 1),
        "peak_rss_mb": round(max_rss_kb / 1024),
        "csr_share_of_peak": round(csr_mb / (max_rss_kb * 1024 / 1e6), 4),
    }


def run_scale_benchmark(sizes=SCALE_SIZES) -> list[dict]:
    """Run :func:`scale_run` once per size, each in its own subprocess (which
    is what makes ``peak_rss_mb`` a per-size number)."""
    repo_root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo_root / "src"), str(repo_root / "benchmarks")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    rows = []
    for num_entities in sizes:
        completed = subprocess.run(
            [sys.executable, __file__, "--scale-child", str(num_entities)],
            check=True, capture_output=True, text=True, env=env,
        )
        rows.append(json.loads(completed.stdout.splitlines()[-1]))
    return rows


def main(argv=None) -> int:
    """Print the CSR-buffer vs peak-RSS table of ``docs/BENCHMARKS.md``."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale-child", type=int, metavar="NUM_ENTITIES", default=None,
        help="internal: run one size and print its JSON row",
    )
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SCALE_SIZES))
    args = parser.parse_args(argv)

    if args.scale_child is not None:
        print(json.dumps(scale_run(args.scale_child)))
        return 0
    print_rows("SCALE CSR buffers vs peak RSS (streamed cbs/wnp)", run_scale_benchmark(args.sizes))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
