"""Tests of the one-map broadcast-join parallel meta-blocking.

Output equivalence with the sequential meta-blocker (ordered, bit-for-bit,
over the whole option grid) lives in ``test_metablocking_equivalence.py``;
this module pins the *shape* of the job — one map over contiguous node
ranges, run in the driver, each range swept once by its task —
the range partitioner's properties, the streaming contract and the
lifecycle of what a run allocates.
"""

import multiprocessing
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from repro.blocking.block import BlockCollection
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.data.synthetic import generate_scalability_products
from repro.engine.context import EngineContext
from repro.metablocking import backends
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.backends import balanced_ranges
from repro.metablocking.parallel import ParallelMetaBlocker


def _prepared_blocks(dataset):
    raw = TokenBlocking().block(dataset.profiles)
    return BlockFiltering().filter(BlockPurging().purge(raw, len(dataset.profiles)))


@pytest.fixture(scope="module")
def blocks_400():
    return _prepared_blocks(generate_scalability_products(400, seed=7))


class TestParallelSequentialEquivalence:
    @pytest.mark.parametrize("weighting", ["cbs", "js", "arcs", "ecbs", "ejs"])
    @pytest.mark.parametrize("pruning", ["wep", "cep", "wnp", "rwnp", "cnp"])
    def test_clean_clean(self, abt_buy_small, weighting, pruning):
        blocks = _prepared_blocks(abt_buy_small)
        sequential = MetaBlocker(weighting, pruning).run(blocks)
        parallel = ParallelMetaBlocker(EngineContext(4), weighting, pruning).run(blocks)
        assert parallel.candidate_pairs == sequential.candidate_pairs

    @pytest.mark.parametrize("pruning", ["wep", "wnp", "rwnp"])
    def test_dirty(self, dirty_persons_small, pruning):
        blocks = _prepared_blocks(dirty_persons_small)
        sequential = MetaBlocker("cbs", pruning).run(blocks)
        parallel = ParallelMetaBlocker(EngineContext(4), "cbs", pruning).run(blocks)
        assert parallel.candidate_pairs == sequential.candidate_pairs

    def test_entropy_equivalence(self, abt_buy_small):
        from repro.blocking.loose_schema_blocking import LooseSchemaTokenBlocking
        from repro.looseschema.attribute_partitioning import AttributePartitioner
        from repro.looseschema.entropy import EntropyExtractor

        partitioning = AttributePartitioner(threshold=0.1).partition(abt_buy_small.profiles)
        entropies = EntropyExtractor().extract(abt_buy_small.profiles, partitioning)
        blocks = LooseSchemaTokenBlocking(
            partitioning, cluster_entropies=entropies
        ).block(abt_buy_small.profiles)
        blocks = BlockFiltering().filter(
            BlockPurging().purge(blocks, len(abt_buy_small.profiles))
        )
        sequential = MetaBlocker("cbs", "wnp", use_entropy=True).run(blocks)
        parallel = ParallelMetaBlocker(
            EngineContext(4), "cbs", "wnp", use_entropy=True
        ).run(blocks)
        assert parallel.candidate_pairs == sequential.candidate_pairs

    def test_empty_blocks(self):
        empty = BlockCollection(clean_clean=True)
        blocker = ParallelMetaBlocker(EngineContext(2))
        result = blocker.run(empty)
        assert (result.num_candidates, result.graph_edges, result.graph_nodes) == (0, 0, 0)
        assert list(blocker.stream_retained(empty)) == []


# --------------------------------------------------------------------------
# Range partitioner
# --------------------------------------------------------------------------
class TestBalancedRanges:
    @settings(max_examples=300, deadline=None)
    @given(
        costs=st.one_of(
            st.lists(st.integers(min_value=0, max_value=50), max_size=60),
            # zeros everywhere but one dominant node
            st.builds(
                lambda n, at, weight: [weight if i == at % max(n, 1) else 0 for i in range(n)],
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=0, max_value=39),
                st.integers(min_value=0, max_value=10**9),
            ),
        ),
        parts=st.integers(min_value=1, max_value=80),
    )
    def test_ranges_partition_the_ids_and_balance_the_cost(self, costs, parts):
        ranges = balanced_ranges(costs, parts)
        n = len(costs)
        if n == 0:
            assert ranges == []
            return
        assert 1 <= len(ranges) <= min(parts, n)
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        for (lo, hi), (next_lo, _next_hi) in zip(ranges, ranges[1:]):
            assert hi == next_lo  # contiguous and disjoint
        assert all(lo < hi for lo, hi in ranges)  # none empty
        heaviest = max(sum(costs[lo:hi]) for lo, hi in ranges)
        assert heaviest <= sum(costs) / parts + max(costs)

    def test_even_costs_split_evenly(self):
        assert balanced_ranges([1] * 8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_split_follows_the_cost_not_the_count(self):
        # One heavy node up front: it gets a range of its own.
        assert balanced_ranges([90, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], 2) == [(0, 1), (1, 11)]

    def test_sweep_costs_sum_the_block_sizes_of_each_node(self, abt_buy_small):
        from repro.metablocking.index import CSRBlockIndex

        blocks = _prepared_blocks(abt_buy_small)
        index = CSRBlockIndex.from_blocks(blocks)
        expected = [0] * index.num_nodes
        for block in blocks:
            if block.num_comparisons():
                for profile_id in chain(block.profiles_source0, block.profiles_source1):
                    expected[index.node_of[profile_id]] += block.size
        assert index.kernel().sweep_costs() == expected


# --------------------------------------------------------------------------
# Deterministic count guard: the shape of the job (counts repeat exactly)
# --------------------------------------------------------------------------
class TestOneStageJobShape:
    PARTITIONS = 4

    @pytest.mark.parametrize("executor", ["serial", "process:2"])
    def test_one_map_one_task_per_range(self, blocks_400, executor):
        with EngineContext(self.PARTITIONS, executor=executor) as context:
            ParallelMetaBlocker(context, "cbs", "wnp").run(blocks_400)
            (row,) = context.scheduler.stage_table()
        assert row["description"] == "metablocking.weights"
        assert row["tasks"] == self.PARTITIONS and row["failures"] == 0
        assert row["shuffle_write_bytes"] == row["shuffle_relay_bytes"] == 0

    @pytest.mark.parametrize("weighting", ["cbs", "js", "arcs", "ecbs"])
    def test_driver_sweeps_exactly_its_own_share(self, blocks_400, monkeypatch, weighting):
        """Weighing happens in the tasks only: the driver's share is every
        range, so the run sweeps exactly the kernel's ranges, in order, and
        never materialises a neighbourhood outside a task (degree-free
        schemes)."""
        from repro.metablocking.index import CSRBlockIndex

        sweeps = []
        original = backends.NumpyKernel._sweep

        def counting(self, nodes, **kwargs):
            sweeps.append((nodes.start, nodes.stop))
            return original(self, nodes, **kwargs)

        ranges = CSRBlockIndex.from_blocks(blocks_400).kernel().ranges(self.PARTITIONS)
        monkeypatch.setattr(backends.NumpyKernel, "_sweep", counting)
        with EngineContext(self.PARTITIONS, executor="process:2") as context:
            result = ParallelMetaBlocker(context, weighting, "wnp").run(blocks_400)
        assert result.graph_edges > 0
        assert sweeps == ranges and len(ranges) == self.PARTITIONS

    def test_sequential_run_builds_no_full_weight_dict(self, blocks_400, monkeypatch):
        def forbidden(self, *args, **kwargs):
            raise AssertionError("MetaBlocker.run built the O(E) pair -> weight dict")

        expected = MetaBlocker("cbs", "wnp").run(blocks_400)
        monkeypatch.setattr(backends.NumpyKernel, "weight_table", forbidden)
        monkeypatch.setattr(backends.EdgeWeights, "to_mapping", forbidden)
        for blocker in (
            MetaBlocker("cbs", "wnp"),
            ParallelMetaBlocker(EngineContext(self.PARTITIONS), "cbs", "wnp"),
        ):
            result = blocker.run(blocks_400)
            assert list(result.retained_edges.items()) == list(
                expected.retained_edges.items()
            )
            assert len(result.retained_edges) < result.graph_edges


# --------------------------------------------------------------------------
# Streaming
# --------------------------------------------------------------------------
class TestStreamRetained:
    @pytest.mark.parametrize("chunk_edges", [1, 7, 65536])
    def test_chunks_equal_the_sequential_stream(self, abt_buy_small, chunk_edges):
        blocks = _prepared_blocks(abt_buy_small)
        chunks = list(
            ParallelMetaBlocker(EngineContext(3), "ejs", "rwnp")
            .stream_retained(blocks, chunk_edges=chunk_edges)
        )
        assert all(0 < len(chunk) <= chunk_edges for chunk in chunks)
        sequential = MetaBlocker("ejs", "rwnp")
        assert list(chain.from_iterable(chunks)) == list(
            chain.from_iterable(sequential.stream_retained(blocks, chunk_edges=chunk_edges))
        )
        assert list(chain.from_iterable(chunks)) == list(
            sequential.run(blocks).retained_edges.items()
        )

    def test_stream_never_builds_a_retained_dict(self, abt_buy_small, monkeypatch):
        blocks = _prepared_blocks(abt_buy_small)
        expected = list(MetaBlocker("cbs", "cep").run(blocks).retained_edges.items())

        def forbidden(*args, **kwargs):
            raise AssertionError("stream_retained materialised the retained dict")

        monkeypatch.setattr(backends.RetainedEdges, "as_dict", forbidden)
        monkeypatch.setattr(backends.EdgeWeights, "to_mapping", forbidden)
        stream = ParallelMetaBlocker(EngineContext(3), "cbs", "cep").stream_retained(
            blocks, chunk_edges=5
        )
        assert list(chain.from_iterable(stream)) == expected

    def test_rejects_non_positive_chunk_size(self, abt_buy_small):
        from repro.exceptions import MetaBlockingError

        blocks = _prepared_blocks(abt_buy_small)
        with pytest.raises(MetaBlockingError):
            list(ParallelMetaBlocker(EngineContext(2)).stream_retained(blocks, chunk_edges=0))


# --------------------------------------------------------------------------
# Lifecycle: a run starts no process and leaves its context usable
# --------------------------------------------------------------------------
class TestRunScopedWorkers:
    @pytest.mark.parametrize("executor", ["serial", "process:2"])
    def test_repeated_runs_leave_no_worker(self, blocks_400, executor):
        with EngineContext(4, executor=executor) as context:
            blocker = ParallelMetaBlocker(context, "cbs", "wnp")
            results = [blocker.run(blocks_400) for _ in range(3)]
            assert multiprocessing.active_children() == []
            assert len(context.scheduler.stage_table()) == 3
        assert results[0].retained_edges == results[1].retained_edges == results[2].retained_edges
        assert results[0].retained_edges == MetaBlocker("cbs", "wnp").run(blocks_400).retained_edges

    @pytest.mark.parametrize("executor", ["serial", "process:2"])
    def test_a_failed_task_leaves_no_worker(self, blocks_400, monkeypatch, executor):
        def boom(self, lo, hi, plan):
            raise RuntimeError("task failed")

        monkeypatch.setattr(backends.NumpyKernel, "range_weights", boom)
        with EngineContext(4, executor=executor) as context:
            with pytest.raises(RuntimeError, match="task failed"):
                ParallelMetaBlocker(context, "cbs", "wnp").run(blocks_400)
            (row,) = context.scheduler.stage_table()
            assert row["failures"] == 1
            assert multiprocessing.active_children() == []

    def test_abandoned_stream_leaves_no_worker(self, blocks_400):
        # The job completes before the first chunk is handed out, so a
        # consumer that stops early leaves nothing running.
        with EngineContext(4, executor="process:2") as context:
            stream = ParallelMetaBlocker(context, "cbs", "wnp").stream_retained(
                blocks_400, chunk_edges=10
            )
            assert len(next(stream)) == 10
            assert len(context.scheduler.stage_table()) == 1
            assert multiprocessing.active_children() == []
