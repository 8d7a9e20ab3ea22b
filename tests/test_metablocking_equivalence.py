"""Sequential ≡ parallel meta-blocking: the axes the oracle cannot reach.

``test_metablocking_oracle`` checks the sequential
:class:`~repro.metablocking.metablocker.MetaBlocker` against the definitions
on small collections.  The broadcast-join
:class:`~repro.metablocking.parallel.ParallelMetaBlocker` weighs contiguous
node ranges on the range pool and prunes the concatenated edge arrays with the
sequential meta-blocker's own retention tail, so the two must agree
*bit-for-bit and in order*: ``list(retained_edges.items())`` — the same
pairs, float-identical weights, the same dict order — plus the same graph
counts, for every weighting scheme × pruning strategy on the executor ×
range-count axes (serial and process workers, fewer and more ranges than
nodes), on dirty and clean-clean collections larger and messier than the
oracle's (random skewed block sizes, random non-trivial entropies,
overlapping blocks, invalid blocks mixed in).
"""

from __future__ import annotations

import random

import pytest

from repro.blocking.block import Block, BlockCollection
from repro.engine.context import EngineContext
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker
from repro.metablocking.pruning import CardinalityNodePruning

WEIGHTINGS = ["cbs", "js", "arcs", "ecbs", "ejs"]
PRUNINGS = ["wep", "cep", "wnp", "rwnp", "cnp", "rcnp"]


def _make_pruning(name: str):
    # "rcnp" (reciprocal CNP) has no registry alias; build it directly so the
    # grid covers AND semantics for both node-centric strategies.
    if name == "rcnp":
        return CardinalityNodePruning(reciprocal=True)
    return name


def _random_clean_collection(seed: int) -> BlockCollection:
    """A clean-clean collection with skewed block sizes and random entropies.

    Source-0 ids live in [0, 140), source-1 ids in [1000, 1140); a handful of
    generated blocks are invalid (one side empty) so the grid also exercises
    the total-block normalisation of ECBS on collections with skipped blocks.
    """
    rng = random.Random(seed)
    collection = BlockCollection(clean_clean=True)
    for index in range(220):
        size0 = rng.randint(0, 14) if rng.random() < 0.15 else rng.randint(1, 6)
        size1 = rng.randint(0, 14) if rng.random() < 0.15 else rng.randint(1, 6)
        collection.add(
            Block(
                key=f"clean-{index}",
                profiles_source0={rng.randrange(140) for _ in range(size0)},
                profiles_source1={1000 + rng.randrange(140) for _ in range(size1)},
                entropy=rng.uniform(0.05, 2.5),
                clean_clean=True,
            )
        )
    return collection


def _random_dirty_collection(seed: int) -> BlockCollection:
    """A dirty collection with skewed block sizes and random entropies."""
    rng = random.Random(seed)
    collection = BlockCollection(clean_clean=False)
    for index in range(200):
        size = rng.randint(1, 16) if rng.random() < 0.15 else rng.randint(1, 7)
        collection.add(
            Block(
                key=f"dirty-{index}",
                profiles_source0={rng.randrange(160) for _ in range(size)},
                entropy=rng.uniform(0.05, 2.5),
            )
        )
    return collection


@pytest.fixture(scope="module")
def clean_blocks():
    return _random_clean_collection(seed=101)


@pytest.fixture(scope="module")
def dirty_blocks():
    return _random_dirty_collection(seed=202)


@pytest.fixture(scope="module")
def process_context():
    """One shared 2-worker pool (``process:2``) for the whole grid.

    Every map pickles its task callable for the pool, so the grid doubles as
    a regression guard for the picklability of the meta-blocking job.
    """
    with EngineContext(4, executor="process:2") as context:
        yield context


def _context(process_context, executor: str, partitions: int) -> EngineContext:
    if executor == "serial":
        return EngineContext(partitions)
    process_context.default_parallelism = partitions
    return process_context


EXECUTORS = ["serial", "process:2"]
# 1000 exceeds the node count of both collections: more ranges asked for than
# nodes exist, so the partitioner must cap itself.
PARTITIONS = [1, 3, 1000]


def _ordered(result):
    """Everything the contract covers: the ordered edge stream and the counts."""
    return (
        list(result.retained_edges.items()),
        result.candidate_pairs,
        result.graph_edges,
        result.graph_nodes,
    )


@pytest.fixture(scope="module")
def reference_of():
    """The sequential run per cell, computed once."""
    cache: dict = {}

    def reference(blocks, weighting, pruning):
        key = (id(blocks), weighting, pruning)
        if key not in cache:
            result = MetaBlocker(
                weighting, _make_pruning(pruning), use_entropy=True
            ).run(blocks)
            assert result.num_candidates > 0
            cache[key] = _ordered(result)
        return cache[key]

    return reference


@pytest.mark.parametrize("pruning", PRUNINGS)
@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("shape", ["clean", "dirty"])
class TestOrderedGridEquivalence:
    """Order, not just membership: one contract for every execution shape.

    Entropy is on throughout: it sweeps the most aggregates per range; the
    plain weights are the oracle's business.
    """

    @pytest.mark.parametrize("partitions", PARTITIONS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_parallel(
        self, shape, weighting, pruning, executor, partitions,
        clean_blocks, dirty_blocks, reference_of, process_context,
    ):
        blocks = clean_blocks if shape == "clean" else dirty_blocks
        parallel = ParallelMetaBlocker(
            _context(process_context, executor, partitions),
            weighting,
            _make_pruning(pruning),
            use_entropy=True,
        ).run(blocks)
        assert _ordered(parallel) == reference_of(blocks, weighting, pruning)


class TestProcessStagePlacement:
    def test_process_tasks_run_on_worker_processes(self, dirty_blocks, process_context):
        context = _context(process_context, "process:2", 4)
        ParallelMetaBlocker(context, "cbs", "wnp").run(dirty_blocks)
        row = context.scheduler.stage_table()[-1]
        assert row["description"] == "metablocking.weights"
        assert row["executor"] == "process[2]"
        assert 1 <= row["workers"] <= 2 and row["tasks"] == 4


@pytest.mark.parametrize("chunk_edges", [1, 97, 65536])
def test_streamed_chunks_match_run_bit_for_bit(clean_blocks, chunk_edges):
    blocker = MetaBlocker("ejs", "wnp", use_entropy=True)
    reference = list(blocker.run(clean_blocks).retained_edges.items())
    streamed = [
        edge
        for chunk in blocker.stream_retained(clean_blocks, chunk_edges=chunk_edges)
        for edge in chunk
    ]
    assert streamed == reference
