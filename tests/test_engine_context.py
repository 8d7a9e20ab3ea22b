"""Tests of the engine context: the range pool, its stage rows, its failures.

Pins the contract the repo benchmark and the parallel meta-blocking rely on:
``map`` returns results in item order on both executors, every call records
one stage row with the keys ``bench/batch.py`` reads, a raising task
re-raises its own type, a crashed worker raises ``EngineError`` within a
bound, no child process outlives a map (the driver runs items ``0::P``
itself; the forked children inherit the callable, which is never pickled on
Linux; spawned children get it once each), and a stopped context refuses
work.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import sys
import time

import pytest

from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.data.synthetic import SyntheticConfig, generate_abt_buy_like
from repro.engine.context import EngineContext
from repro.exceptions import EngineError
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker

# The stage-row keys the repo benchmark's engine layer reads.
BENCH_ROW_KEYS = {
    "executor", "tasks", "failures", "elapsed_s",
    "shuffle_write_bytes", "shuffle_relay_bytes", "skew",
}


# -- module-level task functions: picklable, unlike test-local closures ------
def _double(x):
    return x * 2


class _Boom(Exception):
    pass


def _raise_boom(x):
    raise _Boom(x)


class _OutsideTheDriver:
    """A task callable that acts only in a child: it carries the driver's
    pid and runs ``act`` wherever the pid differs, doubles elsewhere."""

    def __init__(self, act):
        self.driver = os.getpid()
        self.act = act

    def __call__(self, x):
        if os.getpid() != self.driver:
            return self.act(x)
        return x * 2


def _exit_3(_item):
    os._exit(3)


def _die():
    """Kill the child running a task; the driver's share doubles."""
    return _OutsideTheDriver(_exit_3)


class _InTheDriver:
    """Raise ``_Boom`` in the driver; children sleep long enough that only a
    kill ends them in time."""

    def __init__(self):
        self.driver = os.getpid()

    def __call__(self, x):
        if os.getpid() == self.driver:
            raise _Boom(x)
        time.sleep(60)
        return x


class _UnpicklableError(Exception):
    def __reduce__(self):
        raise pickle.PicklingError("this exception does not pickle")


def _raise_unpicklable(x):
    raise _UnpicklableError(x)


class _Unpicklable:
    """A task callable that refuses to be pickled."""

    def __call__(self, x):
        return x * 3

    def __reduce__(self):
        raise pickle.PicklingError("this callable must be inherited, not pickled")


class _CountedDouble:
    """A task callable that counts how often the driver pickles it."""

    pickles = 0

    def __call__(self, x):
        return x * 2

    def __reduce__(self):
        type(self).pickles += 1
        return (_CountedDouble, ())


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

    @pytest.mark.skipif(sys.platform != "linux", reason="workers fork only on Linux")
    def test_forked_workers_inherit_an_unpicklable_callable(self, engine, pool):
        items = list(range(7))
        assert pool.map(_Unpicklable(), items) == engine.map(_Unpicklable(), items)

    def test_spawned_workers_get_the_callable_once_each(self, monkeypatch):
        """Where children are not forked, the callable travels by value as the
        child's argument: once per child, never once per task, and never for
        the driver's own share."""
        from repro.engine import context as context_module

        monkeypatch.setattr(
            context_module, "_MP_CONTEXT", multiprocessing.get_context("spawn")
        )
        monkeypatch.setattr(_CountedDouble, "pickles", 0)
        items = list(range(12))
        with EngineContext(4, executor="process:2") as context:
            assert context.map(_CountedDouble(), items) == [x * 2 for x in items]
            workers = context.scheduler.stage_table()[-1]["workers"]
        assert workers == 2 and _CountedDouble.pickles == workers - 1
        assert multiprocessing.active_children() == []

    def test_each_map_sizes_its_pool_to_its_items(self, pool, monkeypatch):
        """``min(workers, len(items)) - 1`` children per map: the driver is
        process 0, so 3 items fork 1 child and 1 or 0 items fork none."""
        from repro.engine import context as context_module

        forked = []
        process = context_module._MP_CONTEXT.Process

        def recording_process(*args, **kwargs):
            forked.append(kwargs)
            return process(*args, **kwargs)

        monkeypatch.setattr(context_module._MP_CONTEXT, "Process", recording_process)
        children = []
        for items in ([1, 2, 3], [5], []):
            before = len(forked)
            assert pool.map(_double, items) == [x * 2 for x in items]
            children.append(len(forked) - before)
        assert children == [1, 0, 0]
        assert [row["workers"] for row in pool.scheduler.stage_table()[-3:]] == [2, 1, 0]

    def test_items_come_back_in_order_on_an_uneven_split(self):
        """5 items on ``process:3``: the driver runs items 0 and 3, the first
        child 1 and 4, the second child 2; the results are in item order."""
        with EngineContext(4, executor="process:3") as context:
            assert context.map(_double, range(5)) == [0, 2, 4, 6, 8]
            (row,) = context.scheduler.stage_table()
        assert row["workers"] == 3 and row["tasks"] == 5
        assert multiprocessing.active_children() == []

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

    def test_env_var_is_not_read(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_EXECUTOR", "process:3")
        with EngineContext(2) as context:
            assert context.executor == "serial"

    def test_invalid_parallelism(self):
        with pytest.raises(EngineError):
            EngineContext(default_parallelism=0)

    @pytest.mark.parametrize("spec", ["process:0", "process:-1"])
    def test_a_worker_count_below_one_is_refused(self, spec):
        with pytest.raises(EngineError, match="need at least 1"):
            EngineContext(2, executor=spec)


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

    def test_a_child_exception_keeps_its_type(self):
        with EngineContext(2, executor="process:2") as context:
            with pytest.raises(_Boom):
                context.map(_OutsideTheDriver(_raise_boom), range(4))
            assert context.scheduler.stage_table()[-1]["failures"] == 1
        assert multiprocessing.active_children() == []

    def test_a_child_exception_that_does_not_pickle_names_its_type(self):
        with EngineContext(2, executor="process:2") as context:
            with pytest.raises(EngineError, match="_UnpicklableError"):
                context.map(_OutsideTheDriver(_raise_unpicklable), range(4))
        assert multiprocessing.active_children() == []

    def test_a_driver_side_exception_kills_the_children(self):
        """The driver's share raises first; the children, asleep for 60 s,
        are killed and joined before the exception leaves ``map``."""
        with EngineContext(2, executor="process:3") as context:
            started = time.perf_counter()
            with pytest.raises(_Boom):
                context.map(_InTheDriver(), range(3))
            assert time.perf_counter() - started < 30
        assert multiprocessing.active_children() == []

    def test_a_crashed_worker_fails_loudly_within_a_bound(self):
        with EngineContext(2, executor="process:2") as context:
            started = time.perf_counter()
            with pytest.raises(EngineError, match="worker process died"):
                context.map(_die(), range(4), "crash")
            assert time.perf_counter() - started < 30
            assert context.scheduler.stage_table()[-1]["failures"] == 1
            # The dead child is joined; the next map forks fresh ones.
            assert context.map(_double, [1, 2]) == [2, 4]

    def test_a_crashed_spawned_worker_fails_loudly_too(self, monkeypatch):
        """The failure contract does not depend on forking: a spawned child
        that dies raises ``EngineError`` and leaves no child behind."""
        from repro.engine import context as context_module

        monkeypatch.setattr(
            context_module, "_MP_CONTEXT", multiprocessing.get_context("spawn")
        )
        with EngineContext(2, executor="process:2") as context:
            started = time.perf_counter()
            with pytest.raises(EngineError, match="worker process died"):
                context.map(_die(), range(4), "crash")
            assert time.perf_counter() - started < 30
            assert context.scheduler.stage_table()[-1]["failures"] == 1
            assert context.map(_double, [1, 2]) == [2, 4]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("func", [_double, _raise_boom, _die])
    def test_no_worker_outlives_a_map(self, pool, func):
        if func is _die:
            func = _die()
        with contextlib.suppress(_Boom, EngineError):
            pool.map(func, range(4))
        assert multiprocessing.active_children() == []

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
