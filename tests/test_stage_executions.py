"""One record per stage: ``StageExecution`` carries each stage's metrics.

A run's per-stage metrics, seconds, params and status live on its list of
executions, and every table and accessor reads that list.  A run stopped
after any stage and resumed records the uninterrupted run's metrics.  A
checkpoint written while the metrics were kept in a separate report (and the
seconds in a separate timings record) still resumes: the stand-in classes
below pickle under the module paths and field layouts of those records.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path

import pytest

import repro
import repro.evaluation.report
import repro.utils.timers
from repro.cli import main
from repro.core.sparker import SparkER
from repro.pipeline import Pipeline, PipelineCheckpoint, StageExecution

SPEC = SparkER.canonical_spec()
LABELS = [entry["stage"] for entry in SPEC["stages"]]
RETIRED = {"PipelineReport", "StageReport", "StageTimings", "_StageContext"}


@dataclass
class _StageReport:
    stage: str
    metrics: dict[str, object] = field(default_factory=dict)


@dataclass
class _PipelineReport:
    stages: list[_StageReport] = field(default_factory=list)


@dataclass
class _StageTimings:
    durations: dict[str, float] = field(default_factory=dict)


_STAND_INS = {
    (repro.evaluation.report, "StageReport"): _StageReport,
    (repro.evaluation.report, "PipelineReport"): _PipelineReport,
    (repro.utils.timers, "StageTimings"): _StageTimings,
}
for (_module, _name), _stand_in in _STAND_INS.items():
    _stand_in.__module__, _stand_in.__qualname__ = _module.__name__, _name


def _save_parent_shaped(checkpoint: PipelineCheckpoint, state: dict) -> None:
    """Rewrite ``state`` as the earlier layout stored it and save it: the
    metrics in a report of rows, the seconds in a timings record, and each
    execution without a ``metrics`` field."""
    report = _PipelineReport()
    timings = _StageTimings()
    for execution in state["executions"]:
        report.stages.append(_StageReport(execution.label, execution.metrics))
        timings.durations[execution.label] = execution.seconds
        del execution.metrics
    state = dict(state, report=report, timings=timings)
    with pytest.MonkeyPatch.context() as patch:
        for (module, name), stand_in in _STAND_INS.items():
            patch.setattr(module, name, stand_in, raising=False)
        checkpoint.save(state)


class TestOneRecordPerStage:
    def test_tables_and_accessor_read_the_executions(self, abt_buy_small):
        result = Pipeline.from_spec(SPEC).run(abt_buy_small.profiles, abt_buy_small.ground_truth)
        assert [e.label for e in result.executions] == LABELS
        assert result.metric_rows() == [
            {"stage": e.label, **e.metrics} for e in result.executions
        ]
        assert [row["stage"] for row in result.stage_rows()] == LABELS
        assert result.execution("clustering") is result.executions[LABELS.index("clustering")]
        assert result.execution("missing") is None
        assert result.summary()["seconds"] == round(sum(e.seconds for e in result.executions), 4)
        for label in ("token_blocking", "meta_blocking", "matching", "clustering"):
            assert "recall" in result.execution(label).metrics

    def test_metric_row_puts_the_label_first(self):
        execution = StageExecution("tb", "token_blocking", metrics={"blocks": 3})
        assert execution.metric_row() == {"stage": "tb", "blocks": 3}
        assert list(execution.metric_row()) == ["stage", "blocks"]

    @pytest.mark.parametrize("stop_after", LABELS[:-1])
    def test_stop_after_each_stage_and_resume(self, abt_buy_small, tmp_path, stop_after):
        profiles, truth = abt_buy_small.profiles, abt_buy_small.ground_truth
        uninterrupted = Pipeline.from_spec(SPEC).run(profiles, truth)
        checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
        Pipeline.from_spec(SPEC).run(profiles, truth, checkpoint=checkpoint, stop_after=stop_after)
        state = checkpoint.load()
        assert "report" not in state and "timings" not in state
        resumed = Pipeline.resume(checkpoint)
        assert [e.metrics for e in resumed.executions] == [
            e.metrics for e in uninterrupted.executions
        ]
        done = LABELS.index(stop_after) + 1
        assert [e.resumed for e in resumed.executions] == [True] * done + [False] * (
            len(LABELS) - done
        )
        assert resumed.entities == uninterrupted.entities


class TestParentShapedCheckpoint:
    @pytest.mark.parametrize("stop_after", ["loose_schema", "meta_blocking", "clustering"])
    def test_resumes_byte_identically(self, abt_buy_small, tmp_path, stop_after):
        profiles, truth = abt_buy_small.profiles, abt_buy_small.ground_truth
        uninterrupted = Pipeline.from_spec(SPEC).run(profiles, truth)
        checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
        Pipeline.from_spec(SPEC).run(profiles, truth, checkpoint=checkpoint, stop_after=stop_after)
        _save_parent_shaped(checkpoint, checkpoint.load())
        assert b"repro.evaluation.report" in checkpoint.state_path.read_bytes()
        state = checkpoint.load()
        assert "report" not in state and "timings" not in state
        assert all(type(execution) is StageExecution for execution in state["executions"])
        resumed = Pipeline.resume(checkpoint)
        assert json.dumps(resumed.entities) == json.dumps(uninterrupted.entities)
        assert resumed.metric_rows() == uninterrupted.metric_rows()

    def test_an_execution_without_a_report_row_gets_empty_metrics(self, abt_buy_small, tmp_path):
        checkpoint = PipelineCheckpoint(tmp_path / "ckpt")
        Pipeline.from_spec(SPEC).run(
            abt_buy_small.profiles, checkpoint=checkpoint, stop_after="token_blocking"
        )
        state = checkpoint.load()
        for execution in state["executions"]:
            del execution.metrics
        checkpoint.save(state)
        assert [e.metrics for e in checkpoint.load()["executions"]] == [{}, {}]


def test_a_cli_run_with_a_ground_truth_prints_each_stages_quality(capsys):
    assert main(["run", "--synthetic", "abt-buy", "--entities", "40"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("pipeline stages")
    header, _rule, *rows = lines[start + 1:lines.index("", start)]
    columns = [cell.strip() for cell in header.split("|")]
    assert {"recall", "candidate_pairs"} <= set(columns)
    table = {
        cells[0]: dict(zip(columns, cells))
        for cells in ([cell.strip() for cell in row.split("|")] for row in rows)
    }
    for label in ("token_blocking", "block_filtering", "meta_blocking"):
        assert table[label]["recall"] and table[label]["candidate_pairs"]
    # Matching records the pairs it matched, not the candidates it was given.
    assert table["matching"]["recall"] and table["matching"]["matched_pairs"]


def test_the_retired_records_are_neither_defined_nor_exported():
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                assert node.name not in RETIRED, f"{path} defines {node.name}"
            elif isinstance(node, ast.alias):
                assert node.name not in RETIRED, f"{path} imports {node.name}"
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert node.value not in RETIRED, f"{path} names {node.value!r}"
