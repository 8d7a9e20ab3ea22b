"""The range pool computes what the sequential driver computes, byte for byte.

Blocks the scale-proportional generator's input (token blocking, purging,
filtering), then runs CBS/WNP meta-blocking three times: ``MetaBlocker.run``
in this process and ``ParallelMetaBlocker`` on a fresh
``EngineContext(4, "process:2")`` and ``EngineContext(4, "process:3")``.
The driver is process 0 of each map: on ``process:2`` it weighs ranges
``0::2`` beside one forked child, on ``process:3`` ranges ``0::3`` beside two
(4 ranges on 3 processes, an uneven split).  The retained-edge columns
(endpoints and weights, in retention order) and the candidate-pair columns
must be equal byte for byte; exits 1 naming the executor and the first
column that differs.

    PYTHONPATH=src python scripts/parallel_equivalence.py [--entities 10000]
"""

from __future__ import annotations

import argparse
import sys

from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.data.synthetic import generate_scalability_products
from repro.engine.context import EngineContext
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker


def columns(result) -> "dict[str, bytes]":
    """The byte images of a meta-blocking result's columns."""
    edges, pairs = result.retained_edges, result.candidate_pairs
    return {
        "retained a": edges.a.tobytes(),
        "retained b": edges.b.tobytes(),
        "retained weight": edges.w.tobytes(),
        "candidate a": pairs.a.tobytes(),
        "candidate b": pairs.b.tobytes(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entities", type=int, default=10_000)
    args = parser.parse_args(argv)

    profiles = generate_scalability_products(args.entities).profiles
    blocks = BlockFiltering().filter(
        BlockPurging().purge(TokenBlocking().block(profiles), len(profiles))
    )
    sequential = MetaBlocker("cbs", "wnp").run(blocks)
    expected = columns(sequential)
    print(
        f"{len(profiles)} profiles, {len(sequential.retained_edges)} retained edges, "
        f"{len(sequential.candidate_pairs)} candidate pairs"
    )
    for executor in ("process:2", "process:3"):
        with EngineContext(4, executor) as context:
            parallel = ParallelMetaBlocker(context, "cbs", "wnp").run(blocks)
            table = context.scheduler.stage_table()
        got = columns(parallel)
        for name, image in expected.items():
            if got[name] != image:
                print(f"{executor} and the sequential driver differ in {name}", file=sys.stderr)
                return 1
        for row in table:  # none when there is no node to weigh
            share, children = -(-row["tasks"] // row["workers"]), row["workers"] - 1
            print(
                f"{executor}: equal; the driver weighed {share} of {row['tasks']} ranges "
                f"beside {children} forked child{'ren' if children != 1 else ''}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
