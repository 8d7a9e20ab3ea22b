"""Peak RSS and seconds of a plain ``SparkER().run`` and of reading its rows.

For each ``--entities`` size, a fresh process runs ``SparkER().run`` on
``generate_scalability_products(n, seed=7)`` (no ground truth) and then
reads ``metric_rows()``, which counts the block stages' distinct pairs.  It
prints one JSON row per size:

* ``stage_s``: each stage's ``StageExecution.seconds``;
* ``run_rss_mb``: the process's ``ru_maxrss`` after the run;
* ``rows_s`` / ``rows_rss_mb``: the seconds ``metric_rows()`` took and
  ``ru_maxrss`` after it;
* ``candidate_pairs``: the block stages' counts the rows read.

    PYTHONPATH=src python scripts/scale_check.py [--entities 40000 100000]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

BLOCK_STAGES = ("token_blocking", "block_purging", "block_filtering")


def peak_rss_mb() -> float:
    """The process's peak resident set so far (``ru_maxrss`` is KiB on Linux)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def child(entities: int) -> dict:
    """One size, in this process: the run, then its rows."""
    from repro.core.sparker import SparkER
    from repro.data.synthetic import generate_scalability_products

    profiles = generate_scalability_products(entities, seed=7).profiles
    result = SparkER().run(profiles).pipeline_result
    row = {
        "entities": entities,
        "stage_s": {e.label: round(e.seconds, 4) for e in result.executions},
        "run_rss_mb": peak_rss_mb(),
    }
    started = time.perf_counter()
    rows = {metrics["stage"]: metrics for metrics in result.metric_rows()}
    row["rows_s"] = round(time.perf_counter() - started, 4)
    row["rows_rss_mb"] = peak_rss_mb()
    row["candidate_pairs"] = {stage: rows[stage]["candidate_pairs"] for stage in BLOCK_STAGES}
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entities", type=int, nargs="+", default=[40_000])
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(child(args.child)))
        return 0
    for entities in args.entities:
        # A fresh process per size: ru_maxrss is a process-lifetime peak.
        output = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", str(entities)],
            check=True,
            stdout=subprocess.PIPE,
            text=True,
        ).stdout
        print(output.strip().splitlines()[-1], flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
