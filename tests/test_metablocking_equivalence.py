"""Exhaustive sequential ≡ parallel meta-blocking equivalence grid.

The CSR neighbourhood kernel is shared by the sequential
:class:`~repro.metablocking.metablocker.MetaBlocker` and the broadcast-join
:class:`~repro.metablocking.parallel.ParallelMetaBlocker`, with identical
per-edge accumulation order — so the two must agree *bit-for-bit*: the same
retained pairs with float-identical weights, for every weighting scheme ×
pruning strategy × entropy setting, on dirty and clean-clean collections
larger and messier than the fixture datasets (random skewed block sizes,
random non-trivial entropies, overlapping blocks, invalid blocks mixed in).

The same contract holds across *kernel backends*: the vectorised numpy
kernel fixes its accumulation order to the interpreted kernel's, so the
python × numpy axis of the grid asserts dict-identical retained edges —
float weights included — for sequential, parallel serial / process and both
progressive strategies.
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
    """One shared 2-worker pool for the whole multiprocessing grid.

    ``on_unpicklable="raise"`` makes the grid double as a regression guard
    for the picklability of every meta-blocking stage chain: a stage that
    silently stopped shipping would fail loudly here.
    """
    executor = MultiprocessingExecutor(max_workers=2, on_unpicklable="raise")
    yield executor
    executor.close()


def _assert_bit_for_bit(blocks: BlockCollection, weighting, pruning, use_entropy, executor=None):
    sequential = MetaBlocker(
        weighting, _make_pruning(pruning), use_entropy=use_entropy
    ).run(blocks)
    parallel = ParallelMetaBlocker(
        EngineContext(4, executor=executor),
        weighting,
        _make_pruning(pruning),
        use_entropy=use_entropy,
    ).run(blocks)
    # Dict equality covers both the retained pairs and their exact float
    # weights — any accumulation-order divergence between the two paths
    # would show up here as a last-ulp weight mismatch.
    assert parallel.retained_edges == sequential.retained_edges
    assert parallel.candidate_pairs == sequential.candidate_pairs
    assert parallel.graph_edges == sequential.graph_edges
    assert parallel.graph_nodes == sequential.graph_nodes
    assert sequential.num_candidates > 0


class TestFullGridEquivalence:
    @pytest.mark.parametrize("use_entropy", [False, True], ids=["plain", "entropy"])
    @pytest.mark.parametrize("pruning", PRUNINGS)
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_clean_clean(self, clean_blocks, weighting, pruning, use_entropy):
        _assert_bit_for_bit(clean_blocks, weighting, pruning, use_entropy)

    @pytest.mark.parametrize("use_entropy", [False, True], ids=["plain", "entropy"])
    @pytest.mark.parametrize("pruning", PRUNINGS)
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_dirty(self, dirty_blocks, weighting, pruning, use_entropy):
        _assert_bit_for_bit(dirty_blocks, weighting, pruning, use_entropy)

    @pytest.mark.parametrize("partitions", [1, 3, 16])
    def test_partition_count_invariant_on_random_blocks(self, clean_blocks, partitions):
        reference = MetaBlocker("ejs", "rwnp", use_entropy=True).run(clean_blocks)
        parallel = ParallelMetaBlocker(
            EngineContext(partitions), "ejs", "rwnp", use_entropy=True
        ).run(clean_blocks)
        assert parallel.retained_edges == reference.retained_edges


class TestProcessExecutorGridEquivalence:
    """The multiprocessing executor must also match bit-for-bit.

    Worker processes rebuild the broadcast CSR index and their own scratch
    kernels from pickles; identical accumulation order plus partition-order
    result collection means the retained edges and their float weights still
    equal the sequential path exactly, for every weighting × pruning combo.
    """

    @pytest.mark.parametrize("pruning", PRUNINGS)
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_clean_clean_process(self, clean_blocks, process_executor, weighting, pruning):
        _assert_bit_for_bit(
            clean_blocks, weighting, pruning, use_entropy=True, executor=process_executor
        )

    @pytest.mark.parametrize("pruning", PRUNINGS)
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_dirty_process(self, dirty_blocks, process_executor, weighting, pruning):
        _assert_bit_for_bit(
            dirty_blocks, weighting, pruning, use_entropy=False, executor=process_executor
        )

    @pytest.mark.parametrize("partitions", [1, 3, 16])
    def test_partition_count_invariant_under_process_executor(
        self, clean_blocks, process_executor, partitions
    ):
        reference = MetaBlocker("ejs", "rwnp", use_entropy=True).run(clean_blocks)
        parallel = ParallelMetaBlocker(
            EngineContext(partitions, executor=process_executor),
            "ejs",
            "rwnp",
            use_entropy=True,
        ).run(clean_blocks)
        assert parallel.retained_edges == reference.retained_edges


@needs_numpy
class TestBackendGridEquivalence:
    """python × numpy backend axis: bit-for-bit identical retained edges.

    The reference is always the interpreted kernel (``kernel_backend=
    "python"``); the numpy side runs the vectorised sweep, ufunc weighting
    and array pruning.  Dict equality covers pairs *and* exact float
    weights, so any accumulation-order drift in the vectorised path fails
    here as a last-ulp mismatch.
    """

    @pytest.mark.parametrize("use_entropy", [False, True], ids=["plain", "entropy"])
    @pytest.mark.parametrize("pruning", PRUNINGS)
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_sequential_clean_clean(self, clean_blocks, weighting, pruning, use_entropy):
        reference = MetaBlocker(
            weighting, _make_pruning(pruning), use_entropy=use_entropy,
            options=opts(kernel_backend="python"),
        ).run(clean_blocks)
        vectorised = MetaBlocker(
            weighting, _make_pruning(pruning), use_entropy=use_entropy,
            options=opts(kernel_backend="numpy"),
        ).run(clean_blocks)
        assert vectorised.retained_edges == reference.retained_edges
        assert vectorised.candidate_pairs == reference.candidate_pairs
        assert vectorised.graph_edges == reference.graph_edges
        assert vectorised.graph_nodes == reference.graph_nodes

    @pytest.mark.parametrize("use_entropy", [False, True], ids=["plain", "entropy"])
    @pytest.mark.parametrize("pruning", PRUNINGS)
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_sequential_dirty(self, dirty_blocks, weighting, pruning, use_entropy):
        reference = MetaBlocker(
            weighting, _make_pruning(pruning), use_entropy=use_entropy,
            options=opts(kernel_backend="python"),
        ).run(dirty_blocks)
        vectorised = MetaBlocker(
            weighting, _make_pruning(pruning), use_entropy=use_entropy,
            options=opts(kernel_backend="numpy"),
        ).run(dirty_blocks)
        assert vectorised.retained_edges == reference.retained_edges

    @pytest.mark.parametrize("pruning", PRUNINGS)
    @pytest.mark.parametrize("weighting", WEIGHTINGS)
    def test_parallel_serial_numpy_matches_python_reference(
        self, clean_blocks, weighting, pruning
    ):
        reference = MetaBlocker(
            weighting, _make_pruning(pruning), use_entropy=True,
            options=opts(kernel_backend="python"),
        ).run(clean_blocks)
        parallel = ParallelMetaBlocker(
            EngineContext(4),
            weighting,
            _make_pruning(pruning),
            use_entropy=True,
            options=opts(kernel_backend="numpy"),
        ).run(clean_blocks)
        assert parallel.retained_edges == reference.retained_edges

    @pytest.mark.parametrize("pruning", ["wep", "cnp", "rwnp"])
    @pytest.mark.parametrize("weighting", ["cbs", "ejs"])
    def test_parallel_python_backend_on_numpy_machine(
        self, clean_blocks, weighting, pruning
    ):
        # The reverse pin: an explicit python backend must stay available
        # (and equivalent) even when numpy is importable.
        reference = MetaBlocker(
            weighting, _make_pruning(pruning), options=opts(kernel_backend="python")
        ).run(clean_blocks)
        parallel = ParallelMetaBlocker(
            EngineContext(4), weighting, _make_pruning(pruning),
            options=opts(kernel_backend="python"),
        ).run(clean_blocks)
        assert parallel.retained_edges == reference.retained_edges

    @pytest.mark.parametrize("pruning", PRUNINGS)
    @pytest.mark.parametrize("weighting", ["cbs", "ejs"])
    def test_parallel_process_numpy_matches_python_reference(
        self, dirty_blocks, process_executor, weighting, pruning
    ):
        # Process workers attach the shared-memory index; the retained
        # edges must still equal the interpreted single-process reference.
        reference = MetaBlocker(
            weighting, _make_pruning(pruning), options=opts(kernel_backend="python")
        ).run(dirty_blocks)
        parallel = ParallelMetaBlocker(
            EngineContext(4, executor=process_executor),
            weighting,
            _make_pruning(pruning),
            options=opts(kernel_backend="numpy"),
        ).run(dirty_blocks)
        assert parallel.retained_edges == reference.retained_edges

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


class TestBlockStoreGridEquivalence:
    """Block-store axis: driver vs shared-memory vs spill, bit-for-bit.

    The store only changes *how* bucket payloads travel (inline through the
    driver, via named shared-memory segments, or via spill files); the
    pickle round-trip and the fixed chunk order mean the retained edges —
    float weights included — must equal the driver-relay reference exactly,
    under both executors, and no segment or spill file may outlive the run.
    """

    STORES = ["shared-memory", "spill"]

    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("pruning", ["wnp", "rcnp"])
    @pytest.mark.parametrize("weighting", ["cbs", "ejs"])
    def test_serial_clean_clean(self, clean_blocks, store, weighting, pruning):
        reference = ParallelMetaBlocker(
            EngineContext(4, block_store="driver"),
            weighting,
            _make_pruning(pruning),
            use_entropy=True,
        ).run(clean_blocks)
        with EngineContext(4, block_store=store) as context:
            peer = ParallelMetaBlocker(
                context, weighting, _make_pruning(pruning), use_entropy=True
            ).run(clean_blocks)
        assert peer.retained_edges == reference.retained_edges
        assert peer.candidate_pairs == reference.candidate_pairs

    @pytest.mark.parametrize("store", STORES)
    @pytest.mark.parametrize("pruning", ["cnp", "rwnp"])
    @pytest.mark.parametrize("weighting", ["js", "arcs"])
    def test_process_dirty(
        self, dirty_blocks, process_executor, store, weighting, pruning
    ):
        reference = ParallelMetaBlocker(
            EngineContext(4), weighting, _make_pruning(pruning)
        ).run(dirty_blocks)
        with EngineContext(
            4, executor=process_executor, block_store=store
        ) as context:
            peer = ParallelMetaBlocker(
                context, weighting, _make_pruning(pruning)
            ).run(dirty_blocks)
        assert peer.retained_edges == reference.retained_edges

    @pytest.mark.parametrize("store", STORES)
    def test_shuffle_payload_volume_is_store_invariant(
        self, clean_blocks, process_executor, store
    ):
        # shuffle_write_bytes records the bucket payloads, a property of the
        # job: the rows must match the driver-store run exactly even though
        # the peer stores relay only refs through the driver.
        driver_context = EngineContext(4, block_store="driver")
        ParallelMetaBlocker(driver_context, "cbs", "wnp").run(clean_blocks)
        with EngineContext(
            4, executor=process_executor, block_store=store
        ) as context:
            ParallelMetaBlocker(context, "cbs", "wnp").run(clean_blocks)
            rows = _shuffle_rows(context)
            assert rows == _shuffle_rows(driver_context)
            summary = context.metrics_summary()
            assert summary["shuffle_peer_bytes"] == summary["shuffle_bytes"]
            assert summary["shuffle_relay_bytes"] < summary["shuffle_bytes"]

    def test_no_segments_or_spill_files_leak(self, process_executor):
        import glob

        from repro.engine import sharedmem as engine_sharedmem

        blocks = _random_clean_collection(seed=303)
        with EngineContext(
            4, executor=process_executor, block_store="shared-memory"
        ) as context:
            spill_dir = context.block_store._spill.directory
            ParallelMetaBlocker(context, "cbs", "wnp").run(blocks)
        assert engine_sharedmem.live_segments("shuf") == []
        assert not glob.glob(f"{spill_dir}/*")


def _shuffle_rows(context):
    """The shuffle-bearing stage_table rows, minus executor/timing noise."""
    return [
        (
            row["description"],
            row["tasks"],
            row["shuffle_write"],
            row["shuffle_read"],
            row["shuffle_write_bytes"],
            row["shuffle_read_bytes"],
        )
        for row in context.scheduler.stage_table()
        if ".shuffle." in str(row["description"])
    ]


class TestShuffleDeterminismSweep:
    """Serial vs process shuffle: same retained edges, same wire volume.

    The shuffle subsystem's map-side combine and reduce-side merge run in
    worker processes under the process executor, yet the recorded shuffle
    record *and* byte counts per stage must equal the serial run exactly —
    the wire format is a property of the job, not of where it executes.
    """

    @pytest.mark.parametrize("pruning", ["wnp", "rwnp", "cnp", "rcnp"])
    @pytest.mark.parametrize("weighting", ["cbs", "ejs"])
    def test_process_shuffle_matches_serial_bit_for_bit(
        self, clean_blocks, process_executor, weighting, pruning
    ):
        serial_context = EngineContext(4)
        serial = ParallelMetaBlocker(
            serial_context, weighting, _make_pruning(pruning)
        ).run(clean_blocks)
        process_context = EngineContext(4, executor=process_executor)
        process = ParallelMetaBlocker(
            process_context, weighting, _make_pruning(pruning)
        ).run(clean_blocks)
        assert process.retained_edges == serial.retained_edges
        assert _shuffle_rows(process_context) == _shuffle_rows(serial_context)

    def test_vote_shuffle_runs_on_worker_processes(self, dirty_blocks, process_executor):
        context = EngineContext(4, executor=process_executor)
        ParallelMetaBlocker(context, "cbs", "wnp").run(dirty_blocks)
        vote_stages = [
            s for s in context.scheduler.stages if "wnp.votes" in s.description
            and ".shuffle." in s.description
        ]
        assert len(vote_stages) == 2  # map + reduce phase
        for stage in vote_stages:
            assert stage.executor.startswith("process")
            assert all(task.worker.startswith("pid-") for task in stage.tasks)
