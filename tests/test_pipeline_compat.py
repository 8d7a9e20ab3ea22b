"""Entry-point-vs-stage-graph equivalence grid.

``SparkER`` runs ``Pipeline.from_spec(SparkER.canonical_spec(config))`` and
``Blocker`` the blocker half of it, ``blocker_stages(config.blocker)``; this
module asserts the entry points are bit-for-bit identical to the spec run
and to each other — blocks, retained edges, matched pairs, clusters and
reports — on clean-clean and dirty synthetic datasets, that ``repro.core``
builds no second blocker chain, and
that a checkpointed run resumed mid-pipeline reproduces the uninterrupted
result.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro.core
from repro.core.blocker import Blocker, blocker_stages
from repro.core.config import SparkERConfig
from repro.core.sparker import SparkER
from repro.data.synthetic import SyntheticConfig, generate_abt_buy_like, generate_dirty_persons
from repro.looseschema.attribute_partitioning import AttributePartitioner
from repro.pipeline import Pipeline


def _clean_clean_config() -> SparkERConfig:
    return SparkERConfig.unsupervised_default()


def _dirty_config() -> SparkERConfig:
    config = SparkERConfig.schema_agnostic()
    config.matcher.threshold = 0.5
    return config


_DATASETS = {
    "clean_clean": (
        lambda: generate_abt_buy_like(SyntheticConfig(num_entities=50, seed=11)),
        _clean_clean_config,
    ),
    "dirty": (
        lambda: generate_dirty_persons(num_entities=50, seed=11),
        _dirty_config,
    ),
}


def _assert_equivalent(facade_result, pipeline_result) -> None:
    """Bit-for-bit equality of every artifact the facade exposes."""
    store = pipeline_result.artifacts
    assert facade_result.candidate_pairs == pipeline_result.candidate_pairs
    assert facade_result.matched_pairs == store.get("similarity_graph").pairs()
    assert [c.members for c in facade_result.clusters] == [
        c.members for c in pipeline_result.clusters
    ]
    assert facade_result.resolved_pairs == {
        pair for c in pipeline_result.clusters for pair in _cluster_pairs(c)
    }
    assert facade_result.entities == pipeline_result.entities
    # Retained meta-blocking edges (weights included) must match exactly.
    facade_meta = facade_result.blocker_report.meta_blocking
    pipeline_meta = store.get("meta_blocking")
    if facade_meta is not None or pipeline_meta is not None:
        assert facade_meta.retained_edges == pipeline_meta.retained_edges
    # The facade's own run *is* a pipeline run — the unified reports match.
    assert facade_result.pipeline_result.metric_rows() == pipeline_result.metric_rows()


def _cluster_pairs(cluster):
    from repro.clustering.base import clusters_to_pairs

    return clusters_to_pairs([cluster])


class TestFacadePipelineEquivalence:
    @pytest.mark.parametrize("dataset_key", sorted(_DATASETS))
    def test_facade_matches_canonical_spec(self, dataset_key):
        make_dataset, make_config = _DATASETS[dataset_key]
        dataset = make_dataset()
        facade_result = SparkER(make_config()).run(dataset.profiles, dataset.ground_truth)
        pipeline_result = Pipeline.from_spec(SparkER.canonical_spec(make_config())).run(
            dataset.profiles, dataset.ground_truth
        )
        _assert_equivalent(facade_result, pipeline_result)

    def test_facade_matches_spec_without_meta_blocking(self):
        dataset = generate_abt_buy_like(SyntheticConfig(num_entities=40, seed=11))
        config = _clean_clean_config()
        config.blocker.use_meta_blocking = False
        facade_result = SparkER(config).run(dataset.profiles, dataset.ground_truth)
        pipeline_result = Pipeline.from_spec(SparkER.canonical_spec(config)).run(
            dataset.profiles, dataset.ground_truth
        )
        _assert_equivalent(facade_result, pipeline_result)

    def test_report_names_are_stage_labels(self, abt_buy_small):
        result = SparkER().run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        labels = [entry["stage"] for entry in SparkER.canonical_spec()["stages"]]
        assert labels == [
            "loose_schema",
            "token_blocking",
            "block_purging",
            "block_filtering",
            "meta_blocking",
            "matching",
            "clustering",
            "entity_generation",
        ]
        assert [row["stage"] for row in result.pipeline_result.metric_rows()] == labels
        assert [row["stage"] for row in result.pipeline_result.stage_rows()] == labels
        assert result.execution("clustering") is result.pipeline_result.executions[-2]

    def test_schema_agnostic_ignores_user_partitioning(self, abt_buy_small):
        """The legacy Blocker only consulted a partitioning on the
        loose-schema path; a schema-agnostic config must block identically
        with or without one."""
        from repro.looseschema.attribute_partitioning import AttributePartitioner

        partitioning = AttributePartitioner(threshold=0.3).partition(
            abt_buy_small.profiles
        )
        config = SparkERConfig.schema_agnostic()
        plain = SparkER(config).run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        seeded = SparkER(config, partitioning=partitioning).run(
            abt_buy_small.profiles, abt_buy_small.ground_truth
        )
        assert seeded.candidate_pairs == plain.candidate_pairs
        assert seeded.matched_pairs == plain.matched_pairs
        assert seeded.blocker_report.partitioning is None


_BLOCKER_CASES = ("loose_schema", "schema_agnostic", "no_meta_blocking", "user_partitioning")


class TestBlockerIsTheBlockerHalfOfSparkER:
    @pytest.mark.parametrize("case", _BLOCKER_CASES)
    def test_blocker_equals_sparker_blocker_stages(self, case):
        dataset = generate_abt_buy_like(SyntheticConfig(num_entities=50, seed=11))
        if case == "schema_agnostic":
            config = SparkERConfig.schema_agnostic()
        else:
            config = SparkERConfig.unsupervised_default()
        config.blocker.use_meta_blocking = case != "no_meta_blocking"
        partitioning = None
        if case == "user_partitioning":
            partitioning = AttributePartitioner(threshold=0.1).partition(dataset.profiles)
        blocker = Blocker(config.blocker, partitioning=partitioning).run(
            dataset.profiles, dataset.ground_truth
        )
        full = SparkER(config, partitioning=partitioning).run(dataset.profiles, dataset.ground_truth)

        expected = full.blocker_report
        for name in ("raw_blocks", "purged_blocks", "filtered_blocks"):
            assert getattr(blocker, name).blocks == getattr(expected, name).blocks
        assert blocker.candidate_pairs == expected.candidate_pairs == full.candidate_pairs
        if config.blocker.use_meta_blocking:
            assert list(blocker.meta_blocking.retained_edges.items()) == list(
                expected.meta_blocking.retained_edges.items()
            )
        else:
            assert blocker.meta_blocking is None and expected.meta_blocking is None
        if partitioning is not None:
            assert blocker.partitioning is partitioning
        rows = blocker.metric_rows()
        labels = [entry["stage"] for entry in blocker_stages(config.blocker)]
        assert [row["stage"] for row in rows] == labels
        assert rows == full.pipeline_result.metric_rows()[: len(rows)]


# What only the stage adapters may build: a second blocker chain in repro.core
# would restate pipeline/stages.py.
_STAGE_ONLY_NAMES = {
    "TokenBlocking",
    "LooseSchemaTokenBlocking",
    "BlockPurging",
    "BlockFiltering",
    "MetaBlocker",
    "ParallelMetaBlocker",
    "EntropyExtractor",
    "build_attribute_profiles",
}


def test_core_builds_no_second_blocker_chain():
    for path in sorted(Path(repro.core.__file__).parent.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
        assert not names & _STAGE_ONLY_NAMES, f"{path.name} uses {sorted(names & _STAGE_ONLY_NAMES)}"


class TestCheckpointResumeEquivalence:
    def test_killed_after_meta_blocking_then_resumed(self, tmp_path):
        dataset = generate_abt_buy_like(SyntheticConfig(num_entities=50, seed=11))
        spec = SparkER.canonical_spec(_clean_clean_config())
        uninterrupted = Pipeline.from_spec(spec).run(dataset.profiles, dataset.ground_truth)

        checkpoint = tmp_path / "ckpt"
        partial = Pipeline.from_spec(spec).run(
            dataset.profiles,
            dataset.ground_truth,
            checkpoint=checkpoint,
            stop_after="meta_blocking",
        )
        assert partial.partial
        assert "similarity_graph" not in partial.artifacts

        resumed = Pipeline.resume(checkpoint)
        assert resumed.candidate_pairs == uninterrupted.candidate_pairs
        assert resumed.artifacts.get("meta_blocking").retained_edges == (
            uninterrupted.artifacts.get("meta_blocking").retained_edges
        )
        assert resumed.similarity_graph.pairs() == (
            uninterrupted.similarity_graph.pairs()
        )
        assert [c.members for c in resumed.clusters] == [
            c.members for c in uninterrupted.clusters
        ]
        assert resumed.entities == uninterrupted.entities
        assert resumed.metric_rows() == uninterrupted.metric_rows()
