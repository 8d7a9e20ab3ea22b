"""Tests of the broadcast-join parallel meta-blocking.

The key property is output equivalence with the sequential meta-blocker for
every weighting scheme × pruning strategy combination, on clean-clean and
dirty datasets alike.
"""

import pytest

from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.engine.context import EngineContext
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker


def _prepared_blocks(dataset):
    raw = TokenBlocking().block(dataset.profiles)
    return BlockFiltering().filter(BlockPurging().purge(raw, len(dataset.profiles)))


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
        from repro.metablocking.backends import numpy_available

        # Loose-schema blocking runs MinHash LSH, which needs numpy whatever
        # kernel backend meta-blocking itself uses.
        if not numpy_available():
            pytest.skip("loose-schema LSH requires numpy")
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

    def test_partition_count_does_not_change_result(self, abt_buy_small):
        blocks = _prepared_blocks(abt_buy_small)
        results = [
            ParallelMetaBlocker(EngineContext(p), "cbs", "wnp").run(blocks).candidate_pairs
            for p in (1, 2, 8)
        ]
        assert results[0] == results[1] == results[2]

    def test_empty_blocks(self):
        from repro.blocking.block import BlockCollection

        result = ParallelMetaBlocker(EngineContext(2)).run(BlockCollection(clean_clean=True))
        assert result.num_candidates == 0

    def test_uses_broadcast_and_shuffles(self, abt_buy_small):
        blocks = _prepared_blocks(abt_buy_small)
        context = EngineContext(4)
        ParallelMetaBlocker(context, "cbs", "wnp").run(blocks)
        summary = context.metrics_summary()
        assert summary["broadcasts"] >= 1
        assert summary["shuffle_records"] > 0
