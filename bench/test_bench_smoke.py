"""Smoke test of the benchmark harness, collected by the tier-1 command.

Runs two ``--quick`` workloads (a batch one traced, the service one untraced)
and holds their result objects to the names declared in ``BENCHMARK.json``:
no undeclared metric, no missing one.  Timings are not asserted — ``--quick``
applies no bounds.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")  # the benchmark measures the numpy kernel

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(tmp_path, workload: str, trace: int) -> "tuple[dict, dict]":
    record_path = tmp_path / "record.json"
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick", "--workload", workload,
         "--seed", "3", "--trace", str(trace), "--json", str(record_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result, json.loads(record_path.read_text(encoding="utf-8"))


def test_declared_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize(
    "workload, trace, section",
    [("e2e_dense", 1, "per_layer"), ("service_mixed", 0, "end_to_end")],
)
def test_quick_run_matches_benchmark_json(tmp_path, workload, trace, section):
    result, record = _run(tmp_path, workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert isinstance(metric["value"], (int, float))
    everything = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(record["metrics"]) <= everything
    for metric in SPEC["end_to_end"]:  # every workload reports each, never 0
        measured = record["metrics"][metric["name"]]
        assert (measured["value"] if isinstance(measured, dict) else measured) > 0
