"""Pickle round-trip coverage for everything the range pool ships.

Where a process-pool map's workers are not forked (any platform but Linux),
the map pickles its task callable once per child — for meta-blocking the
range weigher and the CSR block index it carries, by value.  These tests
round-trip each of those (and the profiles) through :mod:`pickle` so a
picklability regression surfaces as a focused unit failure instead of a
worker-pool error.  ``TestProcessRunTransport`` pins how a ``process:2``
run hands the index over: never pickled by forked children, once per child
by spawned ones (the driver runs its own share on its own index), and no
shared-memory segment either way.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import sys

import pytest

from repro.blocking.block import Block, BlockCollection
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.data.profile import EntityProfile, KeyValue
from repro.data.synthetic import SyntheticConfig, generate_abt_buy_like
from repro.engine import context as context_module
from repro.engine.context import EngineContext
from repro.metablocking.index import CSRBlockIndex
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker, _RangeWeigher
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


@pytest.fixture(scope="module")
def abt_blocks() -> BlockCollection:
    dataset = generate_abt_buy_like(SyntheticConfig(num_entities=60, seed=7))
    raw = TokenBlocking().block(dataset.profiles)
    return BlockFiltering().filter(BlockPurging().purge(raw, len(dataset.profiles)))


def _process_run(blocks, monkeypatch) -> "tuple[list, int, int]":
    """A ``process:2`` CBS/WNP run: its retained edges, how often the driver
    pickled a CSR index, and how many workers ran its weighing tasks."""
    pickled = []
    original = CSRBlockIndex.__getstate__

    def counting_getstate(self):
        pickled.append(self)
        return original(self)

    monkeypatch.setattr(CSRBlockIndex, "__getstate__", counting_getstate)
    with EngineContext(4, executor="process:2") as context:
        result = ParallelMetaBlocker(context, "cbs", "wnp").run(blocks)
        (row,) = context.scheduler.stage_table()
    monkeypatch.undo()
    return list(result.retained_edges.items()), len(pickled), row["workers"]


class TestProcessRunTransport:
    @pytest.mark.skipif(sys.platform != "linux", reason="workers fork only on Linux")
    def test_forked_run_never_pickles_the_index(self, abt_blocks, monkeypatch):
        edges, pickles, workers = _process_run(abt_blocks, monkeypatch)
        assert edges == list(MetaBlocker("cbs", "wnp").run(abt_blocks).retained_edges.items())
        assert pickles == 0
        assert 1 <= workers <= 2

    def test_spawned_run_pickles_the_index_once_per_worker(self, abt_blocks, monkeypatch):
        """The driver runs its own share on its own index; each spawned
        child gets the index by value once."""
        monkeypatch.setattr(
            context_module, "_MP_CONTEXT", multiprocessing.get_context("spawn")
        )
        edges, pickles, workers = _process_run(abt_blocks, monkeypatch)
        assert edges == list(MetaBlocker("cbs", "wnp").run(abt_blocks).retained_edges.items())
        assert workers == 2 and pickles == workers - 1

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
    def test_process_run_leaves_no_segment_and_no_child(self, abt_blocks):
        def segments():
            return {name for name in os.listdir("/dev/shm") if name.startswith("repro-")}

        before = segments()
        with EngineContext(4, executor="process:2") as context:
            result = ParallelMetaBlocker(context, "cbs", "wnp").run(abt_blocks)
            assert multiprocessing.active_children() == []
            assert segments() <= before
        assert result.retained_edges == MetaBlocker("cbs", "wnp").run(abt_blocks).retained_edges
        assert segments() <= before
