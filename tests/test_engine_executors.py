"""Tests of the pluggable stage executors (serial vs process pool).

The multiprocessing executor must be a drop-in replacement for the serial
one: identical partition contents and order, accumulator values and broadcast
read counts merged back into the driver objects, and stage metrics that
attribute tasks to real worker processes.  Unshippable stages (unpicklable
closures) must either fail fast with a clear error or fall back to the
driver, never hang.
"""

from __future__ import annotations

import os

import pytest

from repro.engine.context import EngineContext
from repro.engine.executors import MultiprocessingExecutor, SerialExecutor
from repro.exceptions import EngineError


# -- module-level task functions: picklable, unlike test-local closures ------
def _double(x):
    return x * 2


def _is_even(x):
    return x % 2 == 0


def _explode(x):
    return [x, x + 100]


def _add(a, b):
    return a + b


class _CountingMap:
    """Map function that also bumps an accumulator once per element."""

    def __init__(self, accumulator):
        self.accumulator = accumulator

    def __call__(self, x):
        self.accumulator.add(1)
        return x


class _BroadcastLookup:
    """Map function that reads each element through a broadcast dict."""

    def __init__(self, broadcast):
        self.broadcast = broadcast

    def __call__(self, x):
        return self.broadcast.value[x]


@pytest.fixture(scope="module")
def process_executor():
    executor = MultiprocessingExecutor(max_workers=2, on_unpicklable="raise")
    yield executor
    executor.close()


@pytest.fixture(scope="module")
def fallback_executor():
    executor = MultiprocessingExecutor(max_workers=2, on_unpicklable="fallback")
    yield executor
    executor.close()


class TestExecutorConstruction:
    """Spec-string resolution itself is covered by tests/test_options.py."""

    def test_env_var_selects_the_context_executor(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_EXECUTOR", "process:5")
        with EngineContext(2) as context:
            assert isinstance(context.executor, MultiprocessingExecutor)
            assert context.executor.max_workers == 5

    def test_invalid_constructor_arguments(self):
        with pytest.raises(EngineError):
            MultiprocessingExecutor(max_workers=0)
        with pytest.raises(EngineError):
            MultiprocessingExecutor(on_unpicklable="ignore")

    def test_context_records_executor_in_summary(self):
        context = EngineContext(2, executor="serial")
        assert context.metrics_summary()["executor"] == "serial"


class TestSerialProcessEquivalence:
    """Every RDD program must return identical results on both executors."""

    def _both(self, process_executor, program):
        serial = program(EngineContext(4, executor=SerialExecutor()))
        process = program(EngineContext(4, executor=process_executor))
        return serial, process

    def test_map_filter_chain(self, process_executor):
        def program(context):
            return (
                context.parallelize(range(50))
                .map(_double)
                .filter(_is_even)
                .collect()
            )

        serial, process = self._both(process_executor, program)
        assert process == serial

    def test_flatmap_and_glom_partition_order(self, process_executor):
        def program(context):
            return context.parallelize(range(20), 5).flatMap(_explode).glom()

        serial, process = self._both(process_executor, program)
        assert process == serial

    def test_reduce_by_key_over_shipped_stage(self, process_executor):
        def program(context):
            pairs = context.parallelize(range(40)).map(_double).keyBy(_is_even)
            return sorted(pairs.mapValues(_double).reduceByKey(_add).collect())

        serial, process = self._both(process_executor, program)
        assert process == serial

    def test_distinct_and_sample(self, process_executor):
        def program(context):
            data = context.parallelize([1, 2, 2, 3, 3, 3] * 5, 3)
            return (
                sorted(data.distinct().collect()),
                data.sample(0.5, seed=7).collect(),
            )

        serial, process = self._both(process_executor, program)
        assert process == serial

    def test_empty_partitions(self, process_executor):
        def program(context):
            return context.parallelize([1], 4).map(_double).glom()

        serial, process = self._both(process_executor, program)
        assert process == serial
        assert sum(len(p) for p in process) == 1


class TestWorkerStateMerging:
    def test_accumulator_updates_merged(self, process_executor):
        context = EngineContext(4, executor=process_executor)
        counter = context.accumulator(0)
        result = context.parallelize(range(10)).map(_CountingMap(counter)).collect()
        assert result == list(range(10))
        assert counter.value == 10

    def test_accumulator_matches_serial_total(self, process_executor):
        totals = []
        for executor in (SerialExecutor(), process_executor):
            context = EngineContext(3, executor=executor)
            counter = context.accumulator(0)
            context.parallelize(range(25)).map(_CountingMap(counter)).collect()
            totals.append(counter.value)
        assert totals[0] == totals[1] == 25

    def test_broadcast_reads_merged(self, process_executor):
        context = EngineContext(4, executor=process_executor)
        lookup = context.broadcast({i: i * i for i in range(12)})
        result = context.parallelize(range(12)).map(_BroadcastLookup(lookup)).collect()
        assert result == [i * i for i in range(12)]
        assert lookup.access_count == 12

    def test_tasks_attributed_to_worker_pids(self, process_executor):
        context = EngineContext(4, executor=process_executor)
        context.parallelize(range(16)).map(_double).collect()
        stage = next(
            s for s in context.scheduler.stages if s.executor.startswith("process")
        )
        assert all(t.worker.startswith("pid-") for t in stage.tasks)
        assert 1 <= stage.num_workers <= 2
        table_row = next(
            r
            for r in context.scheduler.stage_table()
            if str(r["executor"]).startswith("process")
        )
        assert table_row["workers"] == stage.num_workers


class TestUnshippableStages:
    def test_raise_mode_fails_fast_with_clear_error(self, process_executor):
        context = EngineContext(2, executor=process_executor)
        rdd = context.parallelize(range(4)).map(lambda x: x + 1)
        with pytest.raises(EngineError, match="not picklable"):
            rdd.collect()

    def test_fallback_mode_runs_in_driver(self, fallback_executor):
        context = EngineContext(2, executor=fallback_executor)
        result = context.parallelize(range(4)).map(lambda x: x + 1).collect()
        assert result == [1, 2, 3, 4]
        stage = context.scheduler.stages[-1]
        assert stage.executor.endswith("serial-fallback")
        assert all(t.worker == "driver" for t in stage.tasks)

    def test_fallback_preserves_results(self, fallback_executor):
        serial = EngineContext(3, executor=SerialExecutor())
        fallen = EngineContext(3, executor=fallback_executor)
        build = lambda ctx: ctx.parallelize(range(30), 3).map(lambda x: x * 3).collect()
        assert build(fallen) == build(serial)

    def test_destroyed_broadcast_is_a_lifecycle_error_not_a_fallback(
        self, fallback_executor
    ):
        """A destroyed broadcast in the chain must surface, even in fallback mode."""
        context = EngineContext(2, executor=fallback_executor)
        broadcast = context.broadcast({1: "one"})
        rdd = context.parallelize([1]).map(_BroadcastLookup(broadcast))
        broadcast.destroy()
        with pytest.raises(ValueError, match="destroyed"):
            rdd.collect()


class TestLifecycle:
    def test_context_manager_closes_owned_pool(self):
        with EngineContext(2, executor="process:2") as context:
            executor = context.executor
            assert context.parallelize(range(6)).map(_double).collect() == [
                0, 2, 4, 6, 8, 10,
            ]
            assert executor._pool is not None
        assert executor._pool is None

    def test_shared_executor_left_open_by_stop(self, process_executor):
        context = EngineContext(2, executor=process_executor)
        context.parallelize(range(4)).map(_double).collect()
        context.stop()
        # Shared instance: still usable afterwards.
        again = EngineContext(2, executor=process_executor)
        assert again.parallelize(range(4)).map(_double).collect() == [0, 2, 4, 6]

    def test_close_is_idempotent(self):
        executor = MultiprocessingExecutor(max_workers=1)
        executor.close()
        executor.close()

    def test_run_after_close_raises(self):
        """A closed executor must not silently fork a new, unowned pool."""
        executor = MultiprocessingExecutor(max_workers=1)
        context = EngineContext(2, executor=executor)
        executor.close()
        with pytest.raises(EngineError, match="closed"):
            context.parallelize(range(4)).map(_double).collect()

    def test_worker_pid_differs_from_driver(self, process_executor):
        context = EngineContext(1, executor=process_executor)
        context.parallelize(range(2), 1).map(_double).collect()
        stage = next(
            s for s in context.scheduler.stages if s.executor.startswith("process")
        )
        assert stage.tasks[0].worker != f"pid-{os.getpid()}"
