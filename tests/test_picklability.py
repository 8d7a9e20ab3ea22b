"""Pickle round-trip coverage for everything the range pool ships.

A process-pool map pickles its task callable — for meta-blocking the range
weigher and the CSR block index it carries, by value or as a shared-memory
reference.  These tests round-trip each of those (and the profiles) through
:mod:`pickle` so a picklability regression surfaces as a focused unit failure
instead of a worker-pool error.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.blocking.block import Block, BlockCollection
from repro.data.profile import EntityProfile, KeyValue
from repro.engine.context import EngineContext
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.parallel import _RangeWeigher
from repro.metablocking.weights import WeightingScheme


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


def _same_buffer(left, right) -> bool:
    """Elementwise equality of two index buffers."""
    return list(left) == list(right)


def _small_blocks() -> BlockCollection:
    collection = BlockCollection(clean_clean=True)
    collection.add(
        Block(
            key="b0",
            profiles_source0={0, 1, 2},
            profiles_source1={10, 11},
            entropy=0.7,
            clean_clean=True,
        )
    )
    collection.add(
        Block(
            key="b1",
            profiles_source0={1, 2},
            profiles_source1={11, 12},
            entropy=1.3,
            clean_clean=True,
        )
    )
    return collection


class TestProfilePickling:
    def test_entity_profile_roundtrip(self):
        profile = EntityProfile(profile_id=7, original_id="r7", source_id=1)
        profile.add("name", "sony bravia tv")
        profile.add("price", 499)
        clone = _roundtrip(profile)
        assert clone == profile
        assert clone.attributes == [
            KeyValue("name", "sony bravia tv"),
            KeyValue("price", "499"),
        ]

    def test_profile_partition_roundtrip(self):
        partition = [EntityProfile(profile_id=i, original_id=str(i)) for i in range(5)]
        assert _roundtrip(partition) == partition


class TestCSRIndexPickling:
    def test_roundtrip_preserves_arrays_and_drops_kernel(self):
        index = CSRBlockIndex.from_blocks(_small_blocks())
        index.degree_vector()
        index.kernel()  # populate the cache the pickle must drop
        clone = _roundtrip(index)
        assert clone._kernel is None
        assert clone.node_ids == index.node_ids
        assert _same_buffer(clone.node_block_offsets, index.node_block_offsets)
        assert _same_buffer(clone.block_nodes, index.block_nodes)
        assert _same_buffer(clone.degree_vector(), index.degree_vector())
        assert clone.num_edges() == index.num_edges()

    def test_cached_degrees_ship_instead_of_being_recomputed(self):
        # The shipped index must carry its one-pass degree sweep (and the
        # per-block stat vectors) to the workers: a clone arrives with the
        # caches already populated, no re-scan per process.
        index = CSRBlockIndex.from_blocks(_small_blocks())
        index.degree_vector()
        index.num_edges()
        clone = _roundtrip(index)
        assert clone._degrees is not None
        assert _same_buffer(clone._degrees, index._degrees)
        assert clone._num_edges == index._num_edges
        assert _same_buffer(clone.block_cardinality, index.block_cardinality)
        assert _same_buffer(clone.block_inv_cardinality, index.block_inv_cardinality)
        assert _same_buffer(clone.block_entropy, index.block_entropy)

    def test_clone_kernel_materialises_identical_neighbourhoods(self):
        index = CSRBlockIndex.from_blocks(_small_blocks())
        clone = _roundtrip(index)
        for node in range(index.num_nodes):
            assert clone.kernel().neighbours(node) == index.kernel().neighbours(node)


class TestSharedMemoryPickling:
    def test_shared_memory_roundtrip_is_zero_copy_and_identical(self):
        index = CSRBlockIndex.from_blocks(_small_blocks())
        reference = CSRBlockIndex.from_blocks(_small_blocks())
        index.export_shared()
        try:
            payload = pickle.dumps(index, protocol=pickle.HIGHEST_PROTOCOL)
            # The buffers must not ride in the pickle: only the segment name
            # and layout do, so the payload stays tiny.
            assert len(payload) < 2048
            clone = pickle.loads(payload)
            assert isinstance(clone.block_nodes, np.ndarray)
            assert clone.node_of == reference.node_of
            assert list(clone.degree_vector()) == list(reference.degree_vector())
            for node in range(reference.num_nodes):
                assert (
                    clone.kernel().neighbours(node)
                    == reference.kernel().neighbours(node)
                )
        finally:
            index.close()

    def test_close_unlinks_the_segment(self):
        from repro.metablocking.sharedmem import live_segments

        index = CSRBlockIndex.from_blocks(_small_blocks())
        handle = index.export_shared()
        assert handle.name in live_segments()
        index.close()
        assert handle.name not in live_segments()
        # After release the pickle falls back to shipping the full arrays.
        clone = _roundtrip(index)
        assert clone.node_ids == index.node_ids

    def test_garbage_collected_export_unlinks_the_segment(self):
        # The GC backstop: an exported index abandoned without close()
        # must not leak its /dev/shm segment.
        import gc

        from repro.metablocking.sharedmem import live_segments

        index = CSRBlockIndex.from_blocks(_small_blocks())
        name = index.export_shared().name
        assert name in live_segments()
        del index
        gc.collect()
        assert name not in live_segments()

    def test_process_run_ships_via_shared_memory_and_leaves_no_segments(
        self, monkeypatch
    ):
        from repro.blocking.filtering import BlockFiltering
        from repro.blocking.purging import BlockPurging
        from repro.blocking.token_blocking import TokenBlocking
        from repro.data.synthetic import SyntheticConfig, generate_abt_buy_like
        from repro.metablocking.metablocker import MetaBlocker
        from repro.metablocking.parallel import ParallelMetaBlocker
        from repro.metablocking.sharedmem import live_segments

        exported: list[str] = []
        original = CSRBlockIndex.export_shared

        def spy(self):
            handle = original(self)
            exported.append(handle.name)
            return handle

        monkeypatch.setattr(CSRBlockIndex, "export_shared", spy)
        dataset = generate_abt_buy_like(SyntheticConfig(num_entities=40, seed=7))
        raw = TokenBlocking().block(dataset.profiles)
        blocks = BlockFiltering().filter(BlockPurging().purge(raw, len(dataset.profiles)))
        reference = MetaBlocker("cbs", "wnp").run(blocks)
        with EngineContext(4, executor="process:2") as context:
            result = ParallelMetaBlocker(context, "cbs", "wnp").run(blocks)
            # Run-scoped lifecycle: the segment is already unlinked when the
            # run returns, not merely at context shutdown.
            assert live_segments() == []
        assert exported, "process run did not ship the index via shared memory"
        assert result.retained_edges == reference.retained_edges
        assert live_segments() == []


class TestMetaBlockingTaskFunctions:
    def test_range_weigher_roundtrip_emits_the_sequential_edge_stream(self):
        """The one task of the ``metablocking.weights`` map survives a pickle
        round-trip, and its ranges concatenate to the whole-graph table."""
        index = CSRBlockIndex.from_blocks(_small_blocks())
        plan = index.weight_plan(WeightingScheme.EJS, True)  # resolves degrees
        weigher = _RangeWeigher(index, WeightingScheme.EJS, True)
        clone = _roundtrip(weigher)
        n = index.num_nodes
        reference = CSRBlockIndex.from_blocks(_small_blocks())
        table = reference.kernel().weight_arrays(reference.weight_plan(WeightingScheme.EJS, True))
        expected = list(zip(table.a.tolist(), table.b.tolist(), table.w.tolist()))
        assert plan.total_edges == len(expected)
        for task in (weigher, clone):
            streamed = []
            for bounds in ((0, 2), (2, 2), (2, n)):  # an empty range is legal
                a, b, w = task(bounds)
                streamed.extend(zip(a.tolist(), b.tolist(), w.tolist()))
            assert streamed == expected
