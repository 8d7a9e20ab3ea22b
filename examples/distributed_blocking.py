#!/usr/bin/env python3
"""Run the parallel meta-blocking on the engine's range pool and inspect it.

SparkER's contribution is making meta-blocking run on a MapReduce-like engine
(broadcast-join structure).  This example blocks on the driver, runs the
parallel meta-blocking with different range counts and prints the stage row
each run records — tasks, task-time skew, busy seconds — and checks the
output is identical to the sequential reference.

    python examples/distributed_blocking.py
"""

from __future__ import annotations

from repro.blocking import BlockFiltering, BlockPurging, TokenBlocking
from repro.data.synthetic import SyntheticConfig, generate_abt_buy_like
from repro.engine import EngineContext
from repro.evaluation.report import format_table
from repro.metablocking import MetaBlocker, ParallelMetaBlocker


def main() -> None:
    dataset = generate_abt_buy_like(SyntheticConfig(num_entities=300, seed=5))
    profiles = dataset.profiles
    print("dataset:", dataset.summary())

    blocks = BlockFiltering().filter(
        BlockPurging().purge(TokenBlocking().block(profiles), len(profiles))
    )
    sequential = MetaBlocker("cbs", "wnp").run(blocks)
    print(f"\nsequential meta-blocking: {sequential.num_candidates} candidate pairs")

    rows = []
    for partitions in (1, 2, 4, 8):
        with EngineContext(default_parallelism=partitions) as context:
            result = ParallelMetaBlocker(context, "cbs", "wnp").run(blocks)
            (stage,) = context.scheduler.stage_table()
        rows.append(
            {
                "partitions": partitions,
                "tasks": stage["tasks"],
                "skew": stage["skew"],
                "busy_s": stage["elapsed_s"],
                "candidate_pairs": result.num_candidates,
                "identical_to_sequential": result.candidate_pairs == sequential.candidate_pairs,
            }
        )

    print()
    print(format_table(rows, title="broadcast-join parallel meta-blocking"))


if __name__ == "__main__":
    main()
