"""Exhaustive sequential ≡ parallel meta-blocking equivalence grid.

The broadcast-join :class:`~repro.metablocking.parallel.ParallelMetaBlocker`
weighs contiguous node ranges on the executor and prunes the concatenated
edge arrays with the sequential
:class:`~repro.metablocking.metablocker.MetaBlocker`'s own retention tail, so
the two must agree *bit-for-bit and in order*: ``list(retained_edges.items())``
— the same pairs, float-identical weights, the same dict order — plus the
same graph counts, for every weighting scheme × pruning strategy × entropy
setting × executor × partition count × kernel backend, on dirty and
clean-clean collections larger and messier than the fixture datasets (random
skewed block sizes, random non-trivial entropies, overlapping blocks, invalid
blocks mixed in).

The reference of every cell is the interpreted kernel's sequential run: the
vectorised numpy kernel fixes its accumulation order to the interpreted
kernel's, so the python × numpy axis needs no tolerance either.
"""

from __future__ import annotations

import random

import pytest

from repro.blocking.block import Block, BlockCollection
from repro.engine.context import EngineContext
from repro.engine.executors import MultiprocessingExecutor
from repro.metablocking.backends import numpy_available
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker
from repro.metablocking.progressive import (
    ProgressiveNodeScheduling,
    ProgressiveSortedComparisons,
)
from repro.metablocking.pruning import CardinalityNodePruning
from repro.options import EngineOptions

WEIGHTINGS = ["cbs", "js", "arcs", "ecbs", "ejs"]
PRUNINGS = ["wep", "cep", "wnp", "rwnp", "cnp", "rcnp"]

opts = EngineOptions.resolve

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend requires numpy"
)


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
def process_executor():
    """One shared 2-worker pool (``process:2``) for the whole grid.

    ``on_unpicklable="raise"`` makes the grid double as a regression guard
    for the picklability of the meta-blocking stage chain: a stage that
    silently stopped shipping would fail loudly here.
    """
    executor = MultiprocessingExecutor(max_workers=2, on_unpicklable="raise")
    yield executor
    executor.close()


KERNELS = ["python", pytest.param("numpy", marks=needs_numpy)]
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
    """The interpreted kernel's sequential run per cell, computed once."""
    cache: dict = {}

    def reference(blocks, weighting, pruning, use_entropy):
        key = (id(blocks), weighting, pruning, use_entropy)
        if key not in cache:
            result = MetaBlocker(
                weighting, _make_pruning(pruning), use_entropy=use_entropy,
                options=opts(kernel_backend="python"),
            ).run(blocks)
            assert result.num_candidates > 0
            cache[key] = _ordered(result)
        return cache[key]

    return reference


@pytest.mark.parametrize("use_entropy", [False, True], ids=["plain", "entropy"])
@pytest.mark.parametrize("pruning", PRUNINGS)
@pytest.mark.parametrize("weighting", WEIGHTINGS)
@pytest.mark.parametrize("shape", ["clean", "dirty"])
class TestOrderedGridEquivalence:
    """Order, not just membership: one contract for every execution shape."""

    @pytest.fixture
    def blocks(self, shape, clean_blocks, dirty_blocks):
        return clean_blocks if shape == "clean" else dirty_blocks

    @needs_numpy
    def test_sequential_numpy(self, blocks, reference_of, weighting, pruning, use_entropy):
        vectorised = MetaBlocker(
            weighting, _make_pruning(pruning), use_entropy=use_entropy,
            options=opts(kernel_backend="numpy"),
        ).run(blocks)
        assert _ordered(vectorised) == reference_of(
            blocks, weighting, pruning, use_entropy
        )

    @pytest.mark.parametrize("partitions", PARTITIONS)
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_parallel(
        self, blocks, reference_of, process_executor,
        weighting, pruning, use_entropy, kernel, executor, partitions,
    ):
        parallel = ParallelMetaBlocker(
            EngineContext(
                partitions, executor=process_executor if executor != "serial" else None
            ),
            weighting,
            _make_pruning(pruning),
            use_entropy=use_entropy,
            options=opts(kernel_backend=kernel),
        ).run(blocks)
        assert _ordered(parallel) == reference_of(
            blocks, weighting, pruning, use_entropy
        )


class TestProcessStagePlacement:
    def test_process_tasks_run_on_worker_processes(self, dirty_blocks, process_executor):
        context = EngineContext(4, executor=process_executor)
        ParallelMetaBlocker(context, "cbs", "wnp").run(dirty_blocks)
        (stage,) = [
            s for s in context.scheduler.stages if s.description == "metablocking.weights"
        ]
        assert stage.executor.startswith("process")
        assert all(task.worker.startswith("pid-") for task in stage.tasks)


@needs_numpy
class TestProgressiveBackendEquivalence:
    @pytest.mark.parametrize("strategy", ["global", "node"])
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_progressive_rankings_identical(self, clean_blocks, strategy, weighting):
        cls = (
            ProgressiveSortedComparisons
            if strategy == "global"
            else ProgressiveNodeScheduling
        )
        python_ranking = cls(weighting, options=opts(kernel_backend="python")).rank(
            clean_blocks
        )
        numpy_ranking = cls(weighting, options=opts(kernel_backend="numpy")).rank(
            clean_blocks
        )
        assert numpy_ranking == python_ranking


@needs_numpy
class TestBufferBackendGridEquivalence:
    """Buffer-backend axis: ram vs memmap CSR buffers, bit-for-bit.

    The memmap backend only changes *where* the index vectors live (one
    file-backed buffer under the managed temp root instead of process RAM);
    both kernels read either representation through the buffer protocol, so
    the retained edges — float weights included — must equal the ram
    reference exactly: sequential and parallel, serial and process workers,
    under both kernel backends, and no buffer file may outlive the run.
    """

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    @pytest.mark.parametrize("pruning", ["wep", "rcnp"])
    @pytest.mark.parametrize("weighting", ["cbs", "ejs"])
    def test_sequential_clean_clean(self, clean_blocks, kernel, weighting, pruning):
        reference = MetaBlocker(
            weighting, _make_pruning(pruning), use_entropy=True,
            options=opts(kernel_backend=kernel, buffer_backend="ram"),
        ).run(clean_blocks)
        memmap = MetaBlocker(
            weighting, _make_pruning(pruning), use_entropy=True,
            options=opts(kernel_backend=kernel, buffer_backend="memmap"),
        ).run(clean_blocks)
        assert memmap.retained_edges == reference.retained_edges
        assert memmap.candidate_pairs == reference.candidate_pairs
        assert memmap.graph_edges == reference.graph_edges
        assert memmap.graph_nodes == reference.graph_nodes

    @pytest.mark.parametrize("kernel", ["python", "numpy"])
    @pytest.mark.parametrize("pruning", ["wnp", "cep"])
    @pytest.mark.parametrize("weighting", ["js", "ecbs"])
    def test_sequential_dirty(self, dirty_blocks, kernel, weighting, pruning):
        reference = MetaBlocker(
            weighting, _make_pruning(pruning),
            options=opts(kernel_backend=kernel, buffer_backend="ram"),
        ).run(dirty_blocks)
        memmap = MetaBlocker(
            weighting, _make_pruning(pruning),
            options=opts(kernel_backend=kernel, buffer_backend="memmap"),
        ).run(dirty_blocks)
        assert memmap.retained_edges == reference.retained_edges

    @pytest.mark.parametrize("pruning", ["cnp", "rwnp"])
    @pytest.mark.parametrize("weighting", ["arcs", "cbs"])
    def test_parallel_serial(self, clean_blocks, weighting, pruning):
        reference = ParallelMetaBlocker(
            EngineContext(4), weighting, _make_pruning(pruning), use_entropy=True
        ).run(clean_blocks)
        memmap = ParallelMetaBlocker(
            EngineContext(4),
            weighting,
            _make_pruning(pruning),
            use_entropy=True,
            options=opts(buffer_backend="memmap"),
        ).run(clean_blocks)
        assert memmap.retained_edges == reference.retained_edges
        assert memmap.candidate_pairs == reference.candidate_pairs

    @pytest.mark.parametrize("pruning", ["wnp", "rcnp"])
    @pytest.mark.parametrize("weighting", ["cbs", "ejs"])
    def test_parallel_process(self, dirty_blocks, process_executor, weighting, pruning):
        # Process workers receive the broadcast index via pickle / shared
        # memory; the driver-side memmap file must stay private to the
        # driver while the retained edges still match the ram reference.
        reference = MetaBlocker(weighting, _make_pruning(pruning)).run(dirty_blocks)
        parallel = ParallelMetaBlocker(
            EngineContext(4, executor=process_executor),
            weighting,
            _make_pruning(pruning),
            options=opts(buffer_backend="memmap"),
        ).run(dirty_blocks)
        assert parallel.retained_edges == reference.retained_edges

    @pytest.mark.parametrize("chunk_edges", [1, 97, 65536])
    def test_streamed_chunks_match_run_bit_for_bit(self, clean_blocks, chunk_edges):
        reference = list(
            MetaBlocker("ejs", "wnp", use_entropy=True)
            .run(clean_blocks)
            .retained_edges.items()
        )
        streamed = [
            edge
            for chunk in MetaBlocker(
                "ejs", "wnp", use_entropy=True, options=opts(buffer_backend="memmap")
            ).stream_retained(clean_blocks, chunk_edges=chunk_edges)
            for edge in chunk
        ]
        assert streamed == reference

    def test_no_buffer_files_leak(self, tmp_path):
        from repro.engine import tmpfiles

        blocks = _random_clean_collection(seed=404)
        MetaBlocker(
            "cbs", "wnp", options=opts(buffer_backend="memmap", tmp_dir=str(tmp_path))
        ).run(blocks)
        assert tmpfiles.live_artifacts("csrbuf") == []
        assert list(tmp_path.iterdir()) == []


