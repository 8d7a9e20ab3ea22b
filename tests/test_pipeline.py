"""Tests of the composable stage-graph pipeline API (repro.pipeline)."""

from __future__ import annotations

import hashlib
import json
import pickle

import pytest

from repro.blocking.token_blocking import TokenBlocking
from repro.exceptions import (
    EvaluationError,
    PipelineError,
    PipelineValidationError,
)
from repro.pipeline import (
    Pipeline,
    PipelineCheckpoint,
    make_stage,
    registered_stages,
    stage_catalog,
    stage_parameters,
)

FULL_SPEC = {
    "stages": [
        {"stage": "token_blocking"},
        {"stage": "block_purging"},
        {"stage": "block_filtering"},
        {"stage": "meta_blocking"},
        {"stage": "matching"},
        {"stage": "clustering"},
        {"stage": "entity_generation"},
    ],
}

EXPECTED_KINDS = {
    "loose_schema",
    "token_blocking",
    "block_purging",
    "block_filtering",
    "meta_blocking",
    "block_comparisons",
    "progressive_meta_blocking",
    "matching",
    "clustering",
    "entity_generation",
    "evaluation",
}


class TestRegistry:
    def test_builtin_stages_registered(self):
        assert EXPECTED_KINDS <= set(registered_stages())

    def test_unknown_stage_rejected(self):
        with pytest.raises(PipelineValidationError, match="unknown stage kind"):
            make_stage("does_not_exist")

    def test_bad_parameters_rejected(self):
        with pytest.raises(PipelineValidationError, match="bad parameters"):
            make_stage("token_blocking", {"nope": 1})

    def test_stage_parameters_expose_defaults(self):
        assert stage_parameters("block_filtering") == {"ratio": 0.8}
        assert stage_parameters("meta_blocking")["pruning"] == "wnp"

    def test_catalog_covers_every_stage(self):
        rows = stage_catalog()
        assert {row["stage"] for row in rows} >= EXPECTED_KINDS
        by_kind = {row["stage"]: row for row in rows}
        assert "blocks" in by_kind["meta_blocking"]["inputs"]
        assert "candidate_pairs" in by_kind["meta_blocking"]["outputs"]


class TestValidation:
    def test_missing_required_input_rejected(self):
        with pytest.raises(PipelineValidationError, match="requires input"):
            Pipeline.from_spec({"stages": [{"stage": "matching"}]})

    def test_kind_mismatch_rejected(self):
        spec = {
            "stages": [
                {"stage": "token_blocking"},
                {"stage": "meta_blocking"},
                # Wires the candidate-pair set into a blocks input.
                {"stage": "block_filtering", "inputs": {"blocks": "candidate_pairs"}},
            ],
        }
        with pytest.raises(PipelineValidationError, match="kind"):
            Pipeline.from_spec(spec)

    def test_duplicate_labels_rejected(self):
        spec = {"stages": [{"stage": "token_blocking"}, {"stage": "token_blocking"}]}
        with pytest.raises(PipelineValidationError, match="duplicate stage label"):
            Pipeline.from_spec(spec)

    def test_distinct_labels_allow_repeated_stages(self):
        spec = {
            "stages": [
                {"stage": "token_blocking"},
                {"stage": "block_filtering", "label": "filter_a"},
                {"stage": "block_filtering", "label": "filter_b",
                 "params": {"ratio": 0.5}},
                {"stage": "block_comparisons"},
            ],
        }
        Pipeline.from_spec(spec)  # must validate

    def test_unknown_port_rejected(self):
        spec = {"stages": [{"stage": "token_blocking", "inputs": {"nope": "x"}}]}
        with pytest.raises(PipelineValidationError, match="no input port"):
            Pipeline.from_spec(spec)

    def test_unknown_entry_keys_rejected(self):
        spec = {"stages": [{"stage": "token_blocking", "parms": {}}]}
        with pytest.raises(PipelineValidationError, match="unknown keys"):
            Pipeline.from_spec(spec)

    def test_unknown_top_level_keys_rejected(self):
        # A typoed engine section must not silently run driver-side.
        spec = {"engines": {"enabled": True}, "stages": [{"stage": "token_blocking"}]}
        with pytest.raises(PipelineValidationError, match="unknown keys in pipeline spec"):
            Pipeline.from_spec(spec)

    def test_empty_spec_rejected(self):
        with pytest.raises(PipelineValidationError, match="non-empty"):
            Pipeline.from_spec({"stages": []})

    def test_stop_after_must_name_a_stage(self, abt_buy_small):
        pipeline = Pipeline.from_spec(FULL_SPEC)
        with pytest.raises(PipelineValidationError, match="stop_after"):
            pipeline.run(abt_buy_small.profiles, stop_after="nope")


class TestExecution:
    def test_string_entries_are_stage_names(self, abt_buy_small):
        pipeline = Pipeline.from_spec(
            {"stages": ["token_blocking", "block_purging", "block_filtering",
                        "block_comparisons"]}
        )
        result = pipeline.run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        assert len(result.candidate_pairs) > 0
        assert result.completed[-1] == "block_comparisons"

    def test_partial_pipeline_from_seeded_blocks(self, abt_buy_small):
        blocks = TokenBlocking().block(abt_buy_small.profiles)
        pipeline = Pipeline.from_spec(
            {
                "seeds": {"blocks": "blocks"},
                "stages": ["block_filtering", "block_comparisons"],
            }
        )
        result = pipeline.run(
            abt_buy_small.profiles, artifacts={"blocks": blocks}
        )
        assert result.candidate_pairs <= blocks.distinct_comparisons()

    def test_declared_seed_must_be_provided(self, abt_buy_small):
        pipeline = Pipeline.from_spec(
            {
                "seeds": {"blocks": "blocks"},
                "stages": ["block_filtering", "block_comparisons"],
            }
        )
        with pytest.raises(PipelineValidationError, match="requires input"):
            pipeline.run(abt_buy_small.profiles)

    def test_progressive_stage_respects_budget(self, abt_buy_small):
        pipeline = Pipeline.from_spec(
            {
                "stages": [
                    "token_blocking",
                    "block_purging",
                    "block_filtering",
                    {"stage": "progressive_meta_blocking",
                     "params": {"budget": 50, "strategy": "global"}},
                ],
            }
        )
        result = pipeline.run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        assert 0 < len(result.candidate_pairs) <= 50
        row = result.report.get("progressive_meta_blocking")
        assert row.metrics["budget"] == 50

    def test_progressive_bad_strategy_rejected(self):
        with pytest.raises(PipelineValidationError, match="strategy"):
            make_stage("progressive_meta_blocking", {"strategy": "sideways"})

    def test_evaluation_stage_flattens_all_sections(self, abt_buy_small):
        spec = {"stages": FULL_SPEC["stages"] + [{"stage": "evaluation"}]}
        result = Pipeline.from_spec(spec).run(
            abt_buy_small.profiles, abt_buy_small.ground_truth
        )
        evaluation = result.artifacts.get("evaluation")
        assert set(evaluation) == {"blocking", "matching", "clustering"}
        row = result.report.get("evaluation")
        assert any(key.startswith("clustering.") for key in row.metrics)

    def test_evaluation_stage_requires_ground_truth(self, abt_buy_small):
        spec = {"stages": FULL_SPEC["stages"] + [{"stage": "evaluation"}]}
        with pytest.raises(EvaluationError):
            Pipeline.from_spec(spec).run(abt_buy_small.profiles)

    def test_report_and_rows_cover_every_stage(self, abt_buy_small):
        result = Pipeline.from_spec(FULL_SPEC).run(
            abt_buy_small.profiles, abt_buy_small.ground_truth
        )
        labels = [entry["stage"] for entry in FULL_SPEC["stages"]]
        assert [s.stage for s in result.report.stages] == labels
        assert [row["stage"] for row in result.stage_rows()] == labels
        assert all(row["status"] == "run" for row in result.stage_rows())
        assert set(result.timings.durations) == set(labels)

    def test_summary_reports_artifact_counts(self, abt_buy_small):
        result = Pipeline.from_spec(FULL_SPEC).run(
            abt_buy_small.profiles, abt_buy_small.ground_truth
        )
        summary = result.summary()
        assert summary["clusters"] == len(result.clusters)
        assert summary["entities"] == len(result.entities)
        assert summary["stages_run"] == len(FULL_SPEC["stages"])

    def test_engine_metrics_recorded_per_stage(self, abt_buy_small):
        spec = dict(FULL_SPEC, engine={"enabled": True, "parallelism": 2})
        pipeline = Pipeline.from_spec(spec)
        try:
            result = pipeline.run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        finally:
            pipeline.shutdown()
        assert result.engine_metrics["tasks"] > 0
        by_label = {e.label: e for e in result.executions}
        assert by_label["meta_blocking"].engine["tasks"] > 0
        # Meta-blocking is the one job on the engine.
        assert by_label["token_blocking"].engine["tasks"] == 0
        assert sum(e.engine["tasks"] for e in result.executions) == (
            result.engine_metrics["tasks"]
        )
        assert "engine" in result.summary()

    def test_missing_declared_output_is_an_error(self, abt_buy_small):
        from repro.pipeline import Stage, register_stage
        from repro.pipeline.stage import _port

        @register_stage
        class BrokenStage(Stage):
            kind = "broken_test_stage"
            inputs = (_port("profiles"),)
            outputs = (_port("blocks"),)

            def run(self, context, *, profiles):
                return {}

        try:
            pipeline = Pipeline([BrokenStage()])
            with pytest.raises(PipelineError, match="did not produce"):
                pipeline.run(abt_buy_small.profiles)
        finally:
            from repro.pipeline import registry

            registry._REGISTRY.pop("broken_test_stage", None)


class TestSpecRoundTrip:
    def test_resolved_spec_is_json_and_rebuilds_identically(self, abt_buy_small):
        pipeline = Pipeline.from_spec(FULL_SPEC)
        resolved = pipeline.resolved_spec()
        rebuilt = Pipeline.from_spec(json.loads(json.dumps(resolved)))
        first = pipeline.run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        second = rebuilt.run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        assert first.candidate_pairs == second.candidate_pairs
        assert first.similarity_graph.pairs() == second.similarity_graph.pairs()
        assert [c.members for c in first.clusters] == [
            c.members for c in second.clusters
        ]
        assert first.report.as_rows() == second.report.as_rows()
        assert rebuilt.resolved_spec()["stages"] == resolved["stages"]

    def test_resolved_spec_records_all_parameters(self):
        pipeline = Pipeline.from_spec(FULL_SPEC)
        stages = {
            entry["stage"]: entry for entry in pipeline.resolved_spec()["stages"]
        }
        assert stages["meta_blocking"]["params"] == {
            "weighting": "cbs",
            "pruning": "wnp",
            "use_entropy": False,
        }
        assert stages["matching"]["params"]["threshold"] == 0.4


class TestCheckpointResume:
    def test_resume_reproduces_uninterrupted_run(self, abt_buy_small, tmp_path):
        uninterrupted = Pipeline.from_spec(FULL_SPEC).run(
            abt_buy_small.profiles, abt_buy_small.ground_truth
        )
        checkpoint = tmp_path / "ckpt"
        partial = Pipeline.from_spec(FULL_SPEC).run(
            abt_buy_small.profiles,
            abt_buy_small.ground_truth,
            checkpoint=checkpoint,
            stop_after="meta_blocking",
        )
        assert partial.partial
        assert partial.completed == [
            "token_blocking", "block_purging", "block_filtering", "meta_blocking",
        ]
        resumed = Pipeline.resume(checkpoint)
        assert not resumed.partial
        assert resumed.candidate_pairs == uninterrupted.candidate_pairs
        assert resumed.similarity_graph.pairs() == (
            uninterrupted.similarity_graph.pairs()
        )
        assert [c.members for c in resumed.clusters] == [
            c.members for c in uninterrupted.clusters
        ]
        assert resumed.report.as_rows() == uninterrupted.report.as_rows()
        resumed_flags = [e.resumed for e in resumed.executions]
        assert resumed_flags == [True] * 4 + [False] * 3

    @pytest.mark.parametrize("kernel_backend", ["numpy", "python"])
    def test_a_checkpoint_recording_the_retired_kernel_backend(
        self, abt_buy_small, tmp_path, kernel_backend
    ):
        """Checkpoints written while the option existed record its resolved
        value; ``numpy`` is what every run now does, ``python`` is refused."""
        uninterrupted = Pipeline.from_spec(FULL_SPEC).run(abt_buy_small.profiles)
        checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
        Pipeline.from_spec(FULL_SPEC).run(
            abt_buy_small.profiles, checkpoint=checkpoint, stop_after="meta_blocking"
        )
        state = checkpoint.load()
        state["spec"]["engine"]["kernel_backend"] = kernel_backend
        checkpoint.save(state)
        if kernel_backend == "python":
            with pytest.raises(PipelineValidationError, match="interpreted"):
                Pipeline.resume(checkpoint)
            return
        resumed = Pipeline.resume(checkpoint)
        assert resumed.candidate_pairs == uninterrupted.candidate_pairs
        assert [c.members for c in resumed.clusters] == [
            c.members for c in uninterrupted.clusters
        ]

    @pytest.mark.parametrize(
        "engine_keys, refused",
        [
            # What a checkpoint recorded while the options existed: the
            # resolved defaults, and any block store (it chose a transport).
            ({"block_store": "shared-memory",
              "fault_policy": "retries=0,backoff=0.1,backoff_max=5"}, None),
            ({"fault_policy": "retries=2,backoff=0.1,backoff_max=5"}, "retries"),
            ({"fault_inject": "crash@metablocking.weights:0#1"}, "fault injector"),
        ],
    )
    def test_a_checkpoint_recording_retired_engine_options(
        self, abt_buy_small, tmp_path, engine_keys, refused
    ):
        uninterrupted = Pipeline.from_spec(FULL_SPEC).run(abt_buy_small.profiles)
        checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
        Pipeline.from_spec(FULL_SPEC).run(
            abt_buy_small.profiles, checkpoint=checkpoint, stop_after="meta_blocking"
        )
        state = checkpoint.load()
        state["spec"]["engine"].update(engine_keys)
        checkpoint.save(state)
        if refused:
            with pytest.raises(PipelineValidationError, match=refused):
                Pipeline.resume(checkpoint)
            return
        resumed = Pipeline.resume(checkpoint)
        assert resumed.candidate_pairs == uninterrupted.candidate_pairs
        assert resumed.entities == uninterrupted.entities
        assert not set(engine_keys) & set(resumed.spec["engine"])

    def test_checkpoint_written_after_every_stage(self, abt_buy_small, tmp_path):
        checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
        Pipeline.from_spec(FULL_SPEC).run(
            abt_buy_small.profiles,
            abt_buy_small.ground_truth,
            checkpoint=checkpoint,
            stop_after="token_blocking",
        )
        assert checkpoint.exists()
        manifest = json.loads(checkpoint.manifest_path.read_text())
        assert manifest["completed"] == ["token_blocking"]
        assert manifest["artifacts"]["blocks"] == "blocks"

    def test_resume_rejects_a_different_spec(self, abt_buy_small, tmp_path):
        checkpoint = tmp_path / "ckpt"
        Pipeline.from_spec(FULL_SPEC).run(
            abt_buy_small.profiles,
            abt_buy_small.ground_truth,
            checkpoint=checkpoint,
            stop_after="meta_blocking",
        )
        other = Pipeline.from_spec(
            {"stages": FULL_SPEC["stages"][:3] + [{"stage": "block_comparisons"}]}
        )
        with pytest.raises(PipelineError, match="different pipeline spec"):
            other.run(None, checkpoint=checkpoint, resume=True)

    def test_resume_without_checkpoint_is_an_error(self):
        pipeline = Pipeline.from_spec(FULL_SPEC)
        with pytest.raises(PipelineError, match="requires a checkpoint"):
            pipeline.run(None, resume=True)

    def test_missing_checkpoint_is_an_error(self, tmp_path):
        with pytest.raises(PipelineError, match="no checkpoint"):
            Pipeline.resume(tmp_path / "nope")

    def test_unpicklable_extras_do_not_break_checkpointing(
        self, abt_buy_small, tmp_path
    ):
        from repro.matching.matcher import ThresholdMatcher

        class LambdaMatcher(ThresholdMatcher):
            """A custom matcher carrying an unpicklable attribute."""

            def __init__(self):
                super().__init__()
                self.hook = lambda pair: pair

        checkpoint = tmp_path / "ckpt"
        extras = {"matcher": LambdaMatcher()}
        partial = Pipeline.from_spec(FULL_SPEC).run(
            abt_buy_small.profiles,
            abt_buy_small.ground_truth,
            extras=extras,
            checkpoint=checkpoint,
            stop_after="meta_blocking",
        )
        assert partial.partial
        # Extras are not persisted; resuming must accept them again.
        resumed = Pipeline.resume(checkpoint, extras=extras)
        assert not resumed.partial
        assert len(resumed.clusters) > 0


def _state(completed):
    return {
        "completed": list(completed),
        "spec": {"stages": [{"stage": name} for name in completed]},
        "artifact_manifest": {},
    }


class TestCheckpointIntegrity:
    def test_manifest_records_state_checksum(self, tmp_path):
        checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
        checkpoint.save(_state(["a"]))
        manifest = json.loads(checkpoint.manifest_path.read_text())
        digest = hashlib.sha256(checkpoint.state_path.read_bytes()).hexdigest()
        assert manifest["checksum"] == digest
        assert manifest["backup_checksum"] is None
        checkpoint.save(_state(["a", "b"]))
        manifest = json.loads(checkpoint.manifest_path.read_text())
        assert manifest["backup_checksum"] == digest

    def test_save_rotates_previous_state_into_backup(self, tmp_path):
        checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
        checkpoint.save(_state(["a"]))
        assert not checkpoint.backup_path.is_file()
        checkpoint.save(_state(["a", "b"]))
        assert checkpoint.backup_path.is_file()
        assert checkpoint.load()["completed"] == ["a", "b"]

    def test_corrupt_state_falls_back_to_backup(self, tmp_path):
        checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
        checkpoint.save(_state(["a"]))
        checkpoint.save(_state(["a", "b"]))
        checkpoint.state_path.write_bytes(b"torn write garbage")
        state = checkpoint.load()
        # One stage behind, never garbage: the resume restarts from 'a'.
        assert state["completed"] == ["a"]

    def test_corrupt_state_without_backup_raises(self, tmp_path):
        checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
        checkpoint.save(_state(["a"]))
        checkpoint.state_path.write_bytes(b"garbage")
        with pytest.raises(PipelineError, match="no backup"):
            checkpoint.load()

    def test_corrupt_state_and_backup_raise(self, tmp_path):
        checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
        checkpoint.save(_state(["a"]))
        checkpoint.save(_state(["a", "b"]))
        checkpoint.state_path.write_bytes(b"garbage")
        checkpoint.backup_path.write_bytes(b"also garbage")
        with pytest.raises(PipelineError, match="backup failed verification"):
            checkpoint.load()

    def test_checksum_detects_valid_pickle_with_wrong_content(self, tmp_path):
        """Corruption that still unpickles must be caught by the checksum."""
        checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
        checkpoint.save(_state(["a"]))
        checkpoint.save(_state(["a", "b"]))
        forged = dict(_state(["a", "b", "c"]), version=1)
        checkpoint.state_path.write_bytes(pickle.dumps(forged))
        assert checkpoint.load()["completed"] == ["a"]

    def test_missing_manifest_degrades_to_unverified_load(self, tmp_path):
        checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
        checkpoint.save(_state(["a"]))
        checkpoint.manifest_path.unlink()
        assert checkpoint.load()["completed"] == ["a"]

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(PipelineError, match="no checkpoint"):
            PipelineCheckpoint(tmp_path / "nope").load()
