"""The two array pair kernels equal their references at 3·10⁴ entities.

Runs ``SparkER`` under its default configuration on
``generate_scalability_products(30000, seed=7)``, then checks

* the matcher: ``ThresholdMatcher.match`` (the token-set array pass) against
  ``Matcher.match(matcher, ...)`` (the per-pair base loop) on the run's
  candidate pairs: the same edges, in the same order, with the same score
  bits;
* the pair count: the filtered blocks' ``count_distinct_comparisons()``,
  counted afresh, against ``len(distinct_comparisons())`` and the
  meta-blocking stage's ``graph_edges``.

Prints both kernels' seconds; exits 1 naming the first check that fails.

    PYTHONPATH=src python scripts/pair_kernels_check.py [--entities 30000]
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.blocking.block import BlockCollection
from repro.core.sparker import SparkER
from repro.data.synthetic import generate_scalability_products
from repro.matching.matcher import Matcher, ThresholdMatcher


def edges(graph) -> list:
    """The graph's rows as ``(a, b, score bits)``, in row order."""
    return list(zip(graph.a.tolist(), graph.b.tolist(), map(float.hex, graph.score.tolist())))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entities", type=int, default=30_000)
    args = parser.parse_args(argv)

    profiles = generate_scalability_products(args.entities, seed=7).profiles
    sparker = SparkER()
    result = sparker.run(profiles)
    pairs = result.candidate_pairs
    matcher = ThresholdMatcher(sparker.config.matcher.similarity, sparker.config.matcher.threshold)
    started = time.perf_counter()
    array = matcher.match(profiles, pairs)
    array_seconds = time.perf_counter() - started
    per_pair = Matcher.match(matcher, profiles, pairs)
    print(f"matcher: {len(pairs)} pairs, {len(array)} edges in {array_seconds:.3f} s")
    if edges(array) != edges(per_pair):
        print("ThresholdMatcher.match and Matcher.match differ", file=sys.stderr)
        return 1

    filtered = result.pipeline_result.artifacts.get("filtered_blocks")
    fresh = BlockCollection.from_columns(filtered.columns, clean_clean=filtered.clean_clean)
    started = time.perf_counter()
    counted = fresh.count_distinct_comparisons()
    count_seconds = time.perf_counter() - started
    listed = len(filtered.distinct_comparisons())
    graph_edges = result.execution("meta_blocking").metrics["graph_edges"]
    print(f"count: {counted} distinct pairs of {len(filtered)} blocks in {count_seconds:.3f} s")
    if not counted == listed == graph_edges:
        print(
            f"count_distinct_comparisons {counted}, distinct_comparisons {listed} "
            f"and graph_edges {graph_edges} differ",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
