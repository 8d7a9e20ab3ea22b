"""Pickle round-trip coverage for everything the process executor ships.

The multiprocessing executor works by pickling (a) the fused per-partition
function chains, (b) the broadcast payloads referenced from them (including
the CSR block index) and (c) the partition data itself.  These tests
round-trip each of those through :mod:`pickle` so a picklability regression
surfaces as a focused unit failure instead of a worker-pool hang or a
cryptic stage error.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.blocking.block import Block, BlockCollection
from repro.data.profile import EntityProfile, KeyValue
from repro.engine import accumulators as accumulators_module
from repro.engine import broadcast as broadcast_module
from repro.engine.accumulators import _TaskSideAccumulator
from repro.engine.context import EngineContext
from repro.engine.partitioner import HashPartitioner
from repro.engine.shuffle import (
    CoGroupReduceTask,
    ConcatReduceTask,
    GroupByKeyTask,
    MapSideCombiner,
    ReduceByKeyTask,
    ShuffleMapTask,
    ZeroSeededCombiner,
)
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.parallel import _RangeWeigher
from repro.metablocking.weights import WeightingScheme
from repro.options import EngineOptions


opts = EngineOptions.resolve


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


# -- helpers shipped as user functions ---------------------------------------
def _plus_one(x):
    return x + 1


def _add(a, b):
    return a + b


def _extend(acc, value):
    return acc + [value]


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


class TestBroadcastPickling:
    def test_roundtrip_reuses_process_local_copy(self):
        context = EngineContext(2)
        broadcast = context.broadcast({"a": 1})
        clone = _roundtrip(broadcast)
        # Registry-backed __reduce__: within one process the same live
        # object comes back, exactly what a forked worker observes.
        assert clone is broadcast

    def test_unknown_id_rebuilds_fresh_copy(self):
        rebuilt = broadcast_module._rebuild(10**9, {"x": 2})
        assert rebuilt.value == {"x": 2}
        assert rebuilt.access_count == 1  # the read above
        # A second rebuild with the same id reuses the first copy.
        assert broadcast_module._rebuild(10**9, None) is rebuilt

    def test_destroyed_broadcast_refuses_to_ship(self):
        context = EngineContext(2)
        broadcast = context.broadcast([1, 2, 3])
        broadcast.destroy()
        with pytest.raises(ValueError, match="destroyed"):
            pickle.dumps(broadcast)

    def test_ids_are_process_unique_across_contexts(self):
        a = EngineContext(2).broadcast("left")
        b = EngineContext(2).broadcast("right")
        assert a.id != b.id


class TestAccumulatorPickling:
    def test_rebuilds_as_task_side_replica(self):
        context = EngineContext(2)
        accumulator = context.accumulator(0)
        accumulator.add(5)
        replica = _roundtrip(accumulator)
        assert isinstance(replica, _TaskSideAccumulator)
        assert replica.id == accumulator.id
        assert replica.value == 0  # restarts from the initial value

    def test_replica_records_updates_for_replay(self):
        context = EngineContext(2)
        accumulator = context.accumulator(0)
        replica = _roundtrip(accumulator)
        accumulators_module.begin_task_capture()
        replica.add(3)
        replica.add(4)
        captured = accumulators_module.end_task_capture()
        assert captured == {accumulator.id: [3, 4]}
        assert accumulator.value == 0  # driver object untouched until merge


class TestFusedChainPickling:
    def test_engine_chain_roundtrip_matches_collect(self):
        context = EngineContext(3)
        rdd = (
            context.parallelize(range(12))
            .map(_plus_one)
            .filter(_plus_one)  # truthy for all, exercises _FilterFunc
            .keyBy(_plus_one)
            .values()
        )
        source, funcs = rdd._fused_chain()
        restored = pickle.loads(pickle.dumps(tuple(funcs)))
        replayed = []
        for index, partition in enumerate(source.partitions()):
            rows = iter(partition)
            for func in restored:
                rows = func(index, rows)
            replayed.extend(rows)
        assert replayed == rdd.collect()

    def test_lambda_chain_is_not_picklable(self):
        context = EngineContext(2)
        rdd = context.parallelize(range(4)).map(lambda x: x)
        _source, funcs = rdd._fused_chain()
        with pytest.raises(Exception):
            pickle.dumps(tuple(funcs))

    def test_sample_function_roundtrip(self):
        context = EngineContext(2)
        rdd = context.parallelize(range(100), 2).sample(0.4, seed=3)
        _source, funcs = rdd._fused_chain()
        restored = pickle.loads(pickle.dumps(tuple(funcs)))
        sampled = list(restored[0](0, iter(range(100))))
        direct = list(funcs[0](0, iter(range(100))))
        assert sampled == direct


class TestShuffleTaskPickling:
    """The shuffle map and reduce tasks are what the executor ships for a
    wide stage; each must round-trip and behave identically afterwards."""

    def test_map_task_roundtrip_buckets_identically(self):
        task = ShuffleMapTask(HashPartitioner(3), MapSideCombiner(_add))
        clone = _roundtrip(task)
        partition = [("a", 1), ("b", 2), ("a", 3), ("c", 4)]
        assert list(clone(0, iter(partition))) == list(task(0, iter(partition)))

    def test_map_task_without_combiner_roundtrip(self):
        task = ShuffleMapTask(HashPartitioner(2))
        clone = _roundtrip(task)
        partition = [("x", 1), ("y", 2)]
        assert list(clone(0, iter(partition))) == list(task(0, iter(partition)))

    def test_zero_seeded_combiner_roundtrip(self):
        combiner = MapSideCombiner(_extend, create=ZeroSeededCombiner([], _extend))
        clone = _roundtrip(combiner)
        assert clone.create(1) == [1]
        assert clone.merge([1], 2) == [1, 2]

    def test_reduce_tasks_roundtrip(self):
        chunks = [[("a", 1), ("b", 2)], [("a", 3)]]
        for task in (ReduceByKeyTask(_add), GroupByKeyTask(), ConcatReduceTask()):
            clone = _roundtrip(task)
            assert list(clone(0, iter(chunks))) == list(task(0, iter(chunks)))

    def test_cogroup_task_roundtrip(self):
        task = CoGroupReduceTask()
        clone = _roundtrip(task)
        chunks = [(0, [("k", 1)]), (1, [("k", 2), ("m", 3)])]
        assert list(clone(0, iter(chunks))) == list(task(0, iter(chunks)))

    def test_lambda_reducer_is_not_picklable(self):
        # The shippability contract: a shuffle chain only fails to ship when
        # the *user* reducer does.
        with pytest.raises(Exception):
            pickle.dumps(ReduceByKeyTask(lambda a, b: a + b))


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
        # The broadcast index must carry its one-pass degree sweep (and the
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
            index.release_shared()

    def test_release_unlinks_the_segment(self):
        from repro.metablocking.sharedmem import live_segments

        index = CSRBlockIndex.from_blocks(_small_blocks())
        handle = index.export_shared()
        assert handle.name in live_segments()
        index.release_shared()
        assert handle.name not in live_segments()
        # After release the pickle falls back to shipping the full arrays.
        clone = _roundtrip(index)
        assert clone.node_ids == index.node_ids

    def test_garbage_collected_export_unlinks_the_segment(self):
        # The GC backstop: an exported index abandoned without
        # release_shared() must not leak its /dev/shm segment.
        import gc

        from repro.metablocking.sharedmem import live_segments

        index = CSRBlockIndex.from_blocks(_small_blocks())
        name = index.export_shared().name
        assert name in live_segments()
        del index
        gc.collect()
        assert name not in live_segments()

    def test_engine_context_stop_releases_broadcast_segments(self):
        from repro.metablocking.sharedmem import live_segments

        context = EngineContext(2)
        index = CSRBlockIndex.from_blocks(_small_blocks())
        index.export_shared()
        context.broadcast(index)
        assert live_segments()
        context.stop()
        assert live_segments() == []

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
        """The one task of the ``metablocking.weights`` stage survives a pickle
        round-trip, and its ranges concatenate to the whole-graph table."""
        context = EngineContext(2)
        index = CSRBlockIndex.from_blocks(_small_blocks())
        plan = index.weight_plan(WeightingScheme.EJS, True)  # resolves degrees
        broadcast = context.broadcast(index)
        weigher = _RangeWeigher(broadcast, WeightingScheme.EJS, True)
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
