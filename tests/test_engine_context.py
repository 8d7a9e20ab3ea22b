"""Tests of the engine context: the range pool, its stage rows, its failures.

Pins the contract the repo benchmark and the parallel meta-blocking rely on:
``map`` returns results in item order on both executors, every call records
one stage row with the keys ``bench/batch.py`` reads, a raising task
re-raises its own type, a crashed worker raises ``EngineError`` within a
bound and the dead-pid sweeps reclaim what it left behind, and a stopped
context refuses work.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import time

import pytest

from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.data.synthetic import SyntheticConfig, generate_abt_buy_like
from repro.engine import sharedmem
from repro.engine.context import EngineContext
from repro.exceptions import EngineError
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker

# The stage-row keys the repo benchmark's engine layer reads.
BENCH_ROW_KEYS = {
    "executor", "tasks", "failures", "elapsed_s",
    "shuffle_write_bytes", "shuffle_relay_bytes", "skew",
}
SHM = "/dev/shm"
needs_shm = pytest.mark.skipif(not os.path.isdir(SHM), reason="no /dev/shm")


# -- module-level task functions: picklable, unlike test-local closures ------
def _double(x):
    return x * 2


class _Boom(Exception):
    pass


def _raise_boom(x):
    raise _Boom(x)


def _leave_a_segment_then_die(_item):
    """Leave a pid-stamped segment behind, then kill the worker."""
    name = sharedmem.make_segment_name("csr")
    os.close(os.open(os.path.join(SHM, name), os.O_CREAT | os.O_WRONLY))
    os._exit(3)


def _repro_segments() -> "set[str]":
    return {entry for entry in os.listdir(SHM) if entry.startswith("repro-")}


def _dead_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


@pytest.fixture(scope="module")
def pool():
    with EngineContext(4, executor="process:2") as context:
        yield context


class TestMap:
    def test_results_in_item_order_on_both_executors(self, engine, pool):
        items = list(range(20))
        assert engine.map(_double, items) == pool.map(_double, items) == [x * 2 for x in items]

    def test_empty_input(self, engine, pool):
        assert engine.map(_double, []) == pool.map(_double, []) == []

    def test_serial_runs_closures_in_the_driver(self, engine):
        assert engine.map(lambda x: (x, os.getpid()), [1]) == [(1, os.getpid())]

    def test_one_stage_row_per_map(self, pool):
        before = len(pool.scheduler.stage_table())
        pool.map(_double, range(6), "demo")
        row = pool.scheduler.stage_table()[before]
        assert row["description"] == "demo"
        assert row["executor"] == "process[2]"
        assert row["tasks"] == 6 and row["failures"] == 0
        assert 1 <= row["workers"] <= 2
        assert row["shuffle_write_bytes"] == row["shuffle_relay_bytes"] == 0

    def test_executor_labels_and_summary(self, engine):
        engine.map(_double, range(3))
        assert engine.executor == "serial" and engine.workers == 0
        summary = engine.metrics_summary()
        assert summary == {
            "default_parallelism": 4, "executor": "serial",
            "stages": 1, "tasks": 3, "task_failures": 0,
        }
        with EngineContext(2, executor="process") as context:
            assert context.workers == (os.cpu_count() or 1)
        assert "EngineContext" in repr(engine)

    def test_env_var_selects_the_executor(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_EXECUTOR", "process:3")
        with EngineContext(2) as context:
            assert context.executor == "process[3]"

    def test_invalid_parallelism(self):
        with pytest.raises(EngineError):
            EngineContext(default_parallelism=0)


class TestBenchContract:
    """What ``bench/batch.py``'s ``engine_process2`` workload runs and reads."""

    def test_parallel_run_on_a_fresh_process2_context(self):
        dataset = generate_abt_buy_like(SyntheticConfig(num_entities=120, seed=7))
        blocks = BlockFiltering().filter(
            BlockPurging().purge(TokenBlocking().block(dataset.profiles), len(dataset.profiles))
        )
        context = EngineContext(default_parallelism=4, executor="process:2")
        try:
            result = ParallelMetaBlocker(context, "cbs", "wnp").run(blocks)
            table = context.scheduler.stage_table()
        finally:
            context.stop()
        sequential = MetaBlocker("cbs", "wnp").run(blocks)
        assert list(result.retained_edges.items()) == list(sequential.retained_edges.items())
        assert result.candidate_pairs == sequential.candidate_pairs
        (row,) = table
        assert BENCH_ROW_KEYS <= set(row)
        assert row["description"] == "metablocking.weights"
        assert row["executor"] != "driver" and row["tasks"] == 4 and row["failures"] == 0
        assert row["skew"] >= 1.0


class TestFailures:
    @pytest.mark.parametrize("executor", ["serial", "process:2"])
    def test_a_raising_task_reraises_its_own_type(self, executor):
        with EngineContext(2, executor=executor) as context:
            with pytest.raises(_Boom):
                context.map(_raise_boom, [1, 2])
            assert context.scheduler.stage_table()[-1]["failures"] == 1
            assert context.map(_double, [1]) == [2]  # still usable

    @needs_shm
    def test_a_crashed_worker_fails_loudly_within_a_bound(self):
        before = _repro_segments()
        with EngineContext(2, executor="process:2") as context:
            started = time.perf_counter()
            with pytest.raises(EngineError, match="worker process died"):
                context.map(_leave_a_segment_then_die, range(4), "crash")
            assert time.perf_counter() - started < 30
            assert context.scheduler.stage_table()[-1]["failures"] == 1
            # The segment sweep ran over the dead workers' leftovers.
            assert _repro_segments() <= before
            # The broken pool was discarded; the next map forks a fresh one.
            assert context.map(_double, [1, 2]) == [2, 4]

    def test_stop_is_idempotent_and_final(self):
        context = EngineContext(2, executor="process:2")
        assert context.map(_double, [1]) == [2]
        context.stop()
        context.stop()
        with pytest.raises(EngineError, match="stopped"):
            context.map(_double, [1])
        with EngineContext(2) as serial:
            pass
        with pytest.raises(EngineError, match="stopped"):
            serial.map(_double, [1])


@needs_shm
class TestSegmentSweep:
    def _export(self):
        import numpy as np

        from repro.metablocking.sharedmem import SharedIndexBuffers

        return SharedIndexBuffers.export({"offsets": (np.arange(3), "q")})

    def _touch(self, name: str) -> str:
        path = os.path.join(SHM, name)
        os.close(os.open(path, os.O_CREAT | os.O_WRONLY))
        return path

    def test_live_export_is_not_swept(self):
        buffers = self._export()
        try:
            assert buffers.name not in sharedmem.sweep_orphaned_segments()
            assert buffers.name in sharedmem.live_segments()
        finally:
            buffers.release()
        assert buffers.name not in sharedmem.live_segments()

    def test_abandoned_own_segment_is_swept(self):
        buffers = self._export()
        # A registry torn by a crash: the segment exists in /dev/shm but is
        # no longer accounted for as a live export.
        sharedmem._live_owned.discard(buffers.name)
        try:
            assert buffers.name in sharedmem.sweep_orphaned_segments()
            assert buffers.name not in sharedmem.live_segments()
        finally:
            buffers.release()  # idempotent: unlink already happened

    def test_dead_owner_segment_is_swept(self):
        path = self._touch(f"repro-csr-{_dead_pid()}-0")
        assert os.path.basename(path) in sharedmem.sweep_orphaned_segments()
        assert not os.path.exists(path)

    def test_foreign_names_of_a_dead_pid_are_left_alone(self):
        """Only exact ``repro-<kind>-<pid>-<seq>`` names are the engine's."""
        pid = _dead_pid()
        paths = [
            self._touch(f"repro-x-{pid}-notaseq"),
            self._touch(f"repro-x-{pid}-1-extra"),
        ]
        try:
            swept = sharedmem.sweep_orphaned_segments()
            for path in paths:
                assert os.path.exists(path)
                assert os.path.basename(path) not in swept
        finally:
            for path in paths:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(path)
