"""Tests of the engine context: the range map, its stage rows, its failures.

Pins the contract the repo benchmark and the parallel meta-blocking rely on:
``map`` returns results in item order, every call records one stage row with
the keys ``bench/batch.py`` reads, a raising task re-raises its own type, no
executor spec starts a process (every task runs in the driver), and a stopped
context refuses work.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os

import pytest

from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.token_blocking import TokenBlocking
from repro.data.synthetic import SyntheticConfig, generate_abt_buy_like
from repro.engine.context import EngineContext
from repro.exceptions import EngineError
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker
from repro.metablocking.pruning import CardinalityNodePruning

# The stage-row keys the repo benchmark's engine layer reads.
BENCH_ROW_KEYS = {
    "executor", "tasks", "failures", "elapsed_s",
    "shuffle_write_bytes", "shuffle_relay_bytes", "skew",
}


def _double(x):
    return x * 2


class _Boom(Exception):
    pass


def _raise_boom(x):
    raise _Boom(x)


def _blocks(num_entities: int):
    dataset = generate_abt_buy_like(SyntheticConfig(num_entities=num_entities, seed=7))
    return BlockFiltering().filter(
        BlockPurging().purge(TokenBlocking().block(dataset.profiles), len(dataset.profiles))
    )


def _column_bytes(result) -> list:
    """The retained-edge and candidate-pair columns of a run, as bytes."""
    edges, pairs = result.retained_edges, result.candidate_pairs
    return [column.tobytes() for column in (edges.a, edges.b, edges.w, pairs.a, pairs.b)]


@pytest.fixture
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

    def test_a_process_spec_starts_no_process(self, pool):
        """``process:2`` runs every task in the driver, and the parallel
        meta-blocking on it equals the sequential run byte for byte."""
        assert pool.map(lambda x: (x, os.getpid()), range(5)) == [
            (x, os.getpid()) for x in range(5)
        ]
        assert multiprocessing.active_children() == []
        blocks = _blocks(80)
        parallel = ParallelMetaBlocker(pool, "cbs", "wnp").run(blocks)
        sequential = MetaBlocker("cbs", "wnp").run(blocks)
        assert multiprocessing.active_children() == []
        assert _column_bytes(parallel) == _column_bytes(sequential)
        assert (parallel.graph_edges, parallel.graph_nodes) == (
            sequential.graph_edges, sequential.graph_nodes,
        )

    def test_one_stage_row_per_map(self, pool):
        pool.map(_double, range(6), "demo")
        (row,) = pool.scheduler.stage_table()
        assert row["description"] == "demo"
        assert row["executor"] == "serial"
        assert row["tasks"] == 6 and row["failures"] == 0
        assert row["shuffle_write_bytes"] == row["shuffle_relay_bytes"] == 0

    def test_spec_and_repr(self, engine):
        assert engine.executor_spec == "serial"
        with EngineContext(2, executor="process") as context:
            assert context.executor_spec == "process"
        assert "EngineContext" in repr(engine)

    def test_env_var_is_not_read(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_EXECUTOR", "process:3")
        with EngineContext(2) as context:
            assert context.executor_spec == "serial"

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
        blocks = _blocks(120)
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


@pytest.fixture(scope="module")
def synthetic_blocks():
    return _blocks(80)


class TestProcessSpecGrid:
    """On every weighting scheme × pruning rule, a ``process:2`` context runs
    its map in the driver and ``ParallelMetaBlocker`` on it writes the same
    retained-edge and candidate-pair column bytes as ``MetaBlocker.run``."""

    @pytest.mark.parametrize("rule", ["wep", "cep", "wnp", "rwnp", "cnp", "rcnp"])
    @pytest.mark.parametrize("weighting", ["cbs", "ecbs", "js", "ejs", "arcs"])
    def test_equals_the_sequential_bytes(self, synthetic_blocks, weighting, rule):
        def pruning():
            return CardinalityNodePruning(reciprocal=True) if rule == "rcnp" else rule

        with EngineContext(4, executor="process:2") as context:
            parallel = ParallelMetaBlocker(context, weighting, pruning()).run(synthetic_blocks)
            (row,) = context.scheduler.stage_table()
        sequential = MetaBlocker(weighting, pruning()).run(synthetic_blocks)
        assert multiprocessing.active_children() == []
        assert row["executor"] == "serial" and row["tasks"] == 4
        assert _column_bytes(parallel) == _column_bytes(sequential)
        assert (parallel.graph_edges, parallel.graph_nodes) == (
            sequential.graph_edges, sequential.graph_nodes,
        )


class TestFailures:
    @pytest.mark.parametrize("executor", ["serial", "process:2"])
    def test_a_raising_task_reraises_its_own_type(self, executor):
        with EngineContext(2, executor=executor) as context:
            with pytest.raises(_Boom):
                context.map(_raise_boom, [1, 2])
            (row,) = context.scheduler.stage_table()
            assert row["failures"] == 1 and row["tasks"] == 2
            assert context.map(_double, [1]) == [2]  # still usable

    @pytest.mark.parametrize("func", [_double, _raise_boom])
    def test_no_worker_outlives_a_map(self, pool, func):
        with contextlib.suppress(_Boom):
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
