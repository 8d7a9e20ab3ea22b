"""Facade-vs-stage-graph equivalence grid.

``SparkER`` is a thin wrapper over ``Pipeline.from_spec(SparkER.canonical_
spec(config))``; this module asserts the two entry points are bit-for-bit
identical — retained edges, matched pairs, clusters and reports — on
clean-clean and dirty synthetic datasets, under the serial and process
executors, and that a checkpointed run resumed mid-pipeline reproduces the
uninterrupted result.
"""

from __future__ import annotations

import pytest

from repro.core.config import SparkERConfig
from repro.core.sparker import SparkER
from repro.data.synthetic import SyntheticConfig, generate_abt_buy_like, generate_dirty_persons
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

_EXECUTORS = {"driver": None, "serial": "serial", "process": "process:2"}


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
    assert facade_result.pipeline_result.report.as_rows() == (
        pipeline_result.report.as_rows()
    )


def _cluster_pairs(cluster):
    from repro.clustering.base import clusters_to_pairs

    return clusters_to_pairs([cluster])


class TestFacadePipelineEquivalence:
    @pytest.mark.parametrize("dataset_key", sorted(_DATASETS))
    @pytest.mark.parametrize("executor_key", sorted(_EXECUTORS))
    def test_facade_matches_canonical_spec(self, dataset_key, executor_key):
        make_dataset, make_config = _DATASETS[dataset_key]
        dataset = make_dataset()
        executor = _EXECUTORS[executor_key]
        use_engine = executor is not None

        facade = SparkER(make_config(), use_engine=use_engine, executor=executor)
        try:
            facade_result = facade.run(dataset.profiles, dataset.ground_truth)
        finally:
            facade.shutdown()

        spec = SparkER.canonical_spec(
            make_config(), use_engine=use_engine, executor=executor
        )
        pipeline = Pipeline.from_spec(spec)
        try:
            pipeline_result = pipeline.run(dataset.profiles, dataset.ground_truth)
        finally:
            pipeline.shutdown()

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

    def test_legacy_report_names_preserved(self, abt_buy_small):
        result = SparkER().run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        names = [stage.stage for stage in result.report.stages]
        assert names == [
            "blocker.loose_schema",
            "blocker.token_blocking",
            "blocker.block_purging",
            "blocker.block_filtering",
            "blocker.meta_blocking",
            "matcher",
            "clusterer",
        ]

    def test_facade_summary_includes_engine_metrics(self, abt_buy_small):
        facade = SparkER(use_engine=True)
        try:
            result = facade.run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        finally:
            facade.shutdown()
        assert result.engine_metrics["tasks"] > 0
        assert result.summary()["engine"]["tasks"] > 0
        # Driver-side runs keep the legacy summary shape (no engine key).
        plain = SparkER().run(abt_buy_small.profiles)
        assert "engine" not in plain.summary()

    def test_engine_metrics_are_per_run_not_lifetime(self, abt_buy_small):
        facade = SparkER(use_engine=True)
        try:
            first = facade.run(abt_buy_small.profiles)
            second = facade.run(abt_buy_small.profiles)
        finally:
            facade.shutdown()
        # The context outlives both runs; each report must count its own run.
        assert second.engine_metrics["tasks"] == first.engine_metrics["tasks"]
        assert second.engine_metrics["stages"] == (
            first.engine_metrics["stages"]
        )

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

    def test_engine_run_metrics_keep_gauges(self, abt_buy_small):
        facade = SparkER(use_engine=True)
        try:
            result = facade.run(abt_buy_small.profiles)
        finally:
            facade.shutdown()
        # Counters are per-run deltas; configuration gauges pass through.
        assert result.engine_metrics["default_parallelism"] == 4
        assert result.engine_metrics["tasks"] > 0

    def test_engine_backed_provenance_spec_round_trips(self, abt_buy_small):
        facade = SparkER(use_engine=True, executor="process:2")
        try:
            result = facade.run(abt_buy_small.profiles)
        finally:
            facade.shutdown()
        engine_section = result.pipeline_result.spec["engine"]
        assert engine_section["enabled"] is True
        assert engine_section["executor"] == "process:2"


class TestCheckpointResumeEquivalence:
    @pytest.mark.parametrize("executor_key", ["driver", "process"])
    def test_killed_after_meta_blocking_then_resumed(self, executor_key, tmp_path):
        dataset = generate_abt_buy_like(SyntheticConfig(num_entities=50, seed=11))
        executor = _EXECUTORS[executor_key]
        use_engine = executor is not None
        spec = SparkER.canonical_spec(
            _clean_clean_config(), use_engine=use_engine, executor=executor
        )

        pipeline = Pipeline.from_spec(spec)
        try:
            uninterrupted = pipeline.run(dataset.profiles, dataset.ground_truth)
        finally:
            pipeline.shutdown()

        checkpoint = tmp_path / "ckpt"
        interrupted = Pipeline.from_spec(spec)
        try:
            partial = interrupted.run(
                dataset.profiles,
                dataset.ground_truth,
                checkpoint=checkpoint,
                stop_after="meta_blocking",
            )
        finally:
            interrupted.shutdown()
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
        assert resumed.report.as_rows() == uninterrupted.report.as_rows()
