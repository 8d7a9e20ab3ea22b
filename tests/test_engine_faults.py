"""Tests of the fault-tolerant execution layer.

Three layers are covered: the :mod:`repro.engine.faults` vocabulary itself
(policy parsing, deterministic backoff, injector clause grammar), the
multiprocessing executor's attempt loop (worker crashes, injected task
exceptions, hung tasks recovered through pool rebuilds, per-partition serial
fallback when the policy is exhausted) and the headline chaos guarantee: a
meta-blocking run whose workers are killed mid-stage — once per phase:
narrow weights, shuffle map, shuffle reduce — still produces retained edges
bit-for-bit identical to the sequential path, under both kernel backends,
with the recovery visible in the stage metrics and no leaked ``/dev/shm``
segments.  Checkpoint checksum/backup verification and the CLI fault flags
ride along.
"""

from __future__ import annotations

import os
import pickle
import time

import pytest

from repro.core.config import SparkERConfig
from repro.core.sparker import SparkER
from repro.engine.context import EngineContext
from repro.engine.executors import (
    MultiprocessingExecutor,
    SerialExecutor,
    make_executor,
)
from repro.engine.faults import (
    CRASH_EXIT_CODE,
    SERVICE_INJECT_ENV_VAR,
    FaultClause,
    FaultInjected,
    FaultInjector,
    FaultPolicy,
    ServicePointInjector,
    _FaultProbe,
    reset_service_faults,
    service_fault,
)
from repro.exceptions import (
    EngineError,
    PipelineError,
    PipelineValidationError,
    SparkERError,
)
from repro.metablocking.backends import numpy_available
from repro.metablocking.metablocker import MetaBlocker
from repro.metablocking.parallel import ParallelMetaBlocker
from repro.options import EngineOptions
from repro.pipeline import Pipeline
from repro.pipeline.checkpoint import PipelineCheckpoint

from test_metablocking_equivalence import (
    _make_pruning,
    _random_clean_collection,
    _random_dirty_collection,
)

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy backend requires numpy"
)


# -- module-level task functions: picklable, unlike test-local closures ------
def _double(x):
    return x * 2


def _is_even(x):
    return x % 2 == 0


def _add(a, b):
    return a + b


class _CountingMap:
    """Map function that also bumps an accumulator once per element."""

    def __init__(self, accumulator):
        self.accumulator = accumulator

    def __call__(self, x):
        self.accumulator.add(1)
        return x


class _FloatWeightMap:
    """Map function accumulating an order-sensitive float sum."""

    def __init__(self, accumulator):
        self.accumulator = accumulator

    def __call__(self, x):
        self.accumulator.add(x * 0.1)
        return x


def _fast_policy(**overrides) -> FaultPolicy:
    """A retrying policy with no backoff pauses (tests should not sleep)."""
    settings = {"max_attempts": 3, "backoff_base": 0.0}
    settings.update(overrides)
    return FaultPolicy(**settings)


# =========================================================================
# FaultPolicy: parsing, validation, deterministic backoff
# =========================================================================
class TestFaultPolicy:
    def test_default_is_fail_fast(self):
        policy = FaultPolicy()
        assert policy.max_attempts == 1
        assert policy.retries == 0
        assert policy.task_timeout is None
        assert policy.on_exhausted == "raise"

    def test_parse_spec_string(self):
        policy = FaultPolicy.parse(
            "retries=2,timeout=30,backoff=0.5,backoff_max=10,seed=7,"
            "on_exhausted=serial-fallback"
        )
        assert policy.max_attempts == 3
        assert policy.task_timeout == 30.0
        assert policy.backoff_base == 0.5
        assert policy.backoff_max == 10.0
        assert policy.jitter_seed == 7
        assert policy.on_exhausted == "serial-fallback"

    def test_parse_mapping(self):
        policy = FaultPolicy.parse({"retries": 1, "timeout": None})
        assert policy.max_attempts == 2
        assert policy.task_timeout is None
        assert FaultPolicy.parse({"max_attempts": 4}).max_attempts == 4

    def test_spec_round_trips(self):
        policy = FaultPolicy(
            max_attempts=3,
            backoff_base=0.25,
            backoff_max=8.0,
            jitter_seed=11,
            task_timeout=60.0,
            on_exhausted="serial-fallback",
        )
        assert FaultPolicy.parse(policy.spec()) == policy
        assert FaultPolicy.parse(FaultPolicy().spec()) == FaultPolicy()

    def test_timeout_none_spelling(self):
        assert FaultPolicy.parse("retries=1,timeout=none").task_timeout is None

    @pytest.mark.parametrize(
        "spec",
        [
            "retries",  # no '='
            "retries=two",
            "frobnicate=1",  # unknown key
            "retries=-1",  # max_attempts == 0
            "timeout=0",
            "backoff=-1",
            "on_exhausted=shrug",
        ],
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(EngineError):
            FaultPolicy.parse(spec)

    def test_constructor_validation(self):
        with pytest.raises(EngineError, match="max_attempts"):
            FaultPolicy(max_attempts=0)
        with pytest.raises(EngineError, match="non-negative"):
            FaultPolicy(backoff_base=-0.1)
        with pytest.raises(EngineError, match="task_timeout"):
            FaultPolicy(task_timeout=-5)
        with pytest.raises(EngineError, match="on_exhausted"):
            FaultPolicy(on_exhausted="retry-forever")


class TestBackoffDeterminism:
    def test_no_delay_before_first_retry_or_with_zero_base(self):
        assert FaultPolicy().backoff(0) == 0.0
        assert FaultPolicy(backoff_base=0.0).backoff(3) == 0.0

    def test_same_seed_same_delays(self):
        first = FaultPolicy(max_attempts=6, jitter_seed=9)
        second = FaultPolicy(max_attempts=6, jitter_seed=9)
        waves = range(1, 6)
        assert [first.backoff(n) for n in waves] == [second.backoff(n) for n in waves]

    def test_different_seeds_differ(self):
        a = FaultPolicy(max_attempts=6, jitter_seed=1)
        b = FaultPolicy(max_attempts=6, jitter_seed=2)
        waves = range(1, 6)
        assert [a.backoff(n) for n in waves] != [b.backoff(n) for n in waves]

    def test_exponential_growth_is_bounded_and_jittered(self):
        policy = FaultPolicy(
            max_attempts=10, backoff_base=0.1, backoff_max=1.0, jitter_seed=3
        )
        for waves in range(1, 9):
            ceiling = min(1.0, 0.1 * 2 ** (waves - 1))
            delay = policy.backoff(waves)
            assert 0.5 * ceiling <= delay <= ceiling


# =========================================================================
# FaultInjector: clause grammar and coordinate matching
# =========================================================================
class TestFaultInjector:
    def test_full_clause(self):
        injector = FaultInjector.parse("crash@metablocking.weights:2#3")
        (clause,) = injector.clauses
        assert clause.mode == "crash"
        assert clause.stage == "metablocking.weights"
        assert clause.task == 2
        assert clause.attempt == 3

    def test_defaults_task_zero_attempt_one(self):
        (clause,) = FaultInjector.parse("raise@shuffle").clauses
        assert (clause.task, clause.attempt) == (0, 1)

    def test_wildcards_and_duration(self):
        (clause,) = FaultInjector.parse("hang~0.5@stage:*#*").clauses
        assert clause.mode == "hang"
        assert clause.task is None
        assert clause.attempt is None
        assert clause.seconds == 0.5

    def test_multiple_clauses_split_on_semicolons(self):
        injector = FaultInjector.parse("crash@a:0#1; raise@b:1#2 ;")
        assert [clause.mode for clause in injector.clauses] == ["crash", "raise"]

    def test_plan_matches_stage_substring_and_attempt(self):
        injector = FaultInjector.parse("crash@shuffle.map:0#1;raise@weights:*#*")
        assert [c.mode for c in injector.plan("votes.shuffle.map", 1)] == ["crash"]
        assert injector.plan("votes.shuffle.map", 2) == ()
        assert [c.mode for c in injector.plan("metablocking.weights", 5)] == ["raise"]
        assert injector.plan("unrelated", 1) == ()

    @pytest.mark.parametrize(
        "spec",
        [
            "",  # no clauses
            "crash",  # no '@stage'
            "vanish@stage",  # unknown mode
            "hang~soon@stage",  # bad duration
            "crash@stage:-1",  # negative task
            "crash@stage:0#0",  # attempts are 1-based
            "crash@stage:many",
        ],
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(EngineError):
            FaultInjector.parse(spec)

    def test_probe_passes_rows_through_on_task_mismatch(self):
        clause = FaultClause(mode="raise", stage="s", task=0, attempt=1)
        probe = _FaultProbe((clause,), "s", 1)
        assert list(probe(1, iter([1, 2, 3]))) == [1, 2, 3]

    def test_probe_raises_on_matching_task(self):
        clause = FaultClause(mode="raise", stage="s", task=2, attempt=1)
        probe = _FaultProbe((clause,), "s", 1)
        with pytest.raises(FaultInjected, match="task 2"):
            probe(2, iter([1]))

    def test_probe_is_picklable(self):
        probe = _FaultProbe(FaultInjector.parse("crash@s:0#1").clauses, "s", 1)
        clone = pickle.loads(pickle.dumps(probe))
        assert clone.clauses == probe.clauses
        assert CRASH_EXIT_CODE not in (0, 1)  # unambiguous in CI logs


# =========================================================================
# Executor configuration plumbing
# =========================================================================
class TestExecutorConfiguration:
    def test_spec_string_with_policy(self):
        executor = make_executor(
            EngineOptions.resolve(executor="process:2", fault_policy="retries=1")
        )
        assert isinstance(executor, MultiprocessingExecutor)
        assert executor.fault_policy.max_attempts == 2
        assert "fault_policy=" in repr(executor)

    def test_serial_spec_ignores_fault_kwargs(self):
        executor = make_executor(
            EngineOptions.resolve(executor="serial", fault_policy="retries=1")
        )
        assert isinstance(executor, SerialExecutor)

    def test_instance_plus_policy_is_an_error(self):
        with pytest.raises(EngineError, match="constructor"):
            EngineContext(2, executor=SerialExecutor(), fault_policy="retries=1")
        with pytest.raises(EngineError, match="constructor"):
            EngineContext(2, executor=SerialExecutor(), fault_injector="crash@s:0#1")

    def test_context_forwards_policy_to_spec_built_executor(self):
        with EngineContext(
            2, executor="process:2", fault_policy=_fast_policy()
        ) as context:
            assert context.executor.fault_policy.max_attempts == 3

    def test_executor_reads_policy_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_POLICY", "retries=4")
        executor = MultiprocessingExecutor(max_workers=1)
        assert executor.fault_policy.max_attempts == 5


# =========================================================================
# Attempt loop: crash recovery, injected exceptions, exhaustion
# =========================================================================
def _process_stage_rows(context):
    return [
        row
        for row in context.scheduler.stage_table()
        if str(row["executor"]).startswith("process")
    ]


class TestCrashRecovery:
    def test_worker_crash_is_retried_and_recovered(self):
        executor = MultiprocessingExecutor(
            max_workers=2,
            fault_policy=_fast_policy(),
            fault_injector="crash@parallelize.map:0#1",
        )
        try:
            context = EngineContext(4, executor=executor)
            result = context.parallelize(range(20)).map(_double).collect()
            assert result == [x * 2 for x in range(20)]
            (row,) = _process_stage_rows(context)
            assert row["attempts"] > row["tasks"]
            assert row["failures"] >= 1
            assert row["recovered"] >= 1
            summary = context.metrics_summary()
            assert summary["task_attempts"] > summary["tasks"]
            assert summary["tasks_recovered"] >= 1
        finally:
            executor.close()

    def test_executor_is_reusable_after_recovery(self):
        executor = MultiprocessingExecutor(
            max_workers=2,
            fault_policy=_fast_policy(),
            fault_injector="crash@parallelize.map:0#1",
        )
        try:
            first = EngineContext(3, executor=executor)
            assert first.parallelize(range(9)).map(_double).collect() == [
                x * 2 for x in range(9)
            ]
            # Second run: the injector still matches attempt 1, so the fresh
            # stage crashes and recovers again — the rebuilt pool is healthy.
            second = EngineContext(3, executor=executor)
            assert second.parallelize(range(9)).map(_double).collect() == [
                x * 2 for x in range(9)
            ]
            (row,) = _process_stage_rows(second)
            assert row["recovered"] >= 1
        finally:
            executor.close()

    def test_accumulator_counted_once_despite_retries(self):
        executor = MultiprocessingExecutor(
            max_workers=2,
            fault_policy=_fast_policy(),
            fault_injector="crash@parallelize.map:1#1",
        )
        try:
            context = EngineContext(4, executor=executor)
            counter = context.accumulator(0)
            result = (
                context.parallelize(range(24)).map(_CountingMap(counter)).collect()
            )
            assert result == list(range(24))
            # Only final successful outcomes merge accumulator updates: the
            # crashed attempt leaves no trace.
            assert counter.value == 24
        finally:
            executor.close()

    def test_injected_exception_with_fail_fast_policy_raises(self):
        executor = MultiprocessingExecutor(
            max_workers=2, fault_injector="raise@parallelize.map:0#1"
        )
        try:
            context = EngineContext(2, executor=executor)
            with pytest.raises(FaultInjected):
                context.parallelize(range(4)).map(_double).collect()
            # Unrecoverable failure tears the pool down (cancelling any
            # still-queued work) ...
            assert executor._pool is None
            # ... but the executor itself stays usable: attempt 1 of the next
            # stage matches the clause again, attempt 1 is also the last with
            # max_attempts=1, so only a clause-free program can succeed.
            clean = EngineContext(2, executor=executor)
            assert clean.parallelize(range(4)).filter(_is_even).collect() == [0, 2]
        finally:
            executor.close()

    def test_persistent_crash_exhausts_with_clear_error(self):
        executor = MultiprocessingExecutor(
            max_workers=2,
            fault_policy=_fast_policy(max_attempts=2),
            fault_injector="crash@parallelize.map:0#*",
        )
        try:
            context = EngineContext(2, executor=executor)
            with pytest.raises(EngineError, match="still failing after 2 attempt"):
                context.parallelize(range(4)).map(_double).collect()
        finally:
            executor.close()

    def test_retried_exception_succeeds_on_second_attempt(self):
        executor = MultiprocessingExecutor(
            max_workers=2,
            fault_policy=_fast_policy(max_attempts=2),
            fault_injector="raise@parallelize.map:0#1",
        )
        try:
            context = EngineContext(4, executor=executor)
            result = context.parallelize(range(12)).map(_double).collect()
            assert result == [x * 2 for x in range(12)]
            (row,) = _process_stage_rows(context)
            assert row["recovered"] >= 1
        finally:
            executor.close()


class TestTimeoutRecovery:
    def test_hung_task_is_killed_and_retried(self):
        executor = MultiprocessingExecutor(
            max_workers=2,
            fault_policy=_fast_policy(max_attempts=2, task_timeout=1.0),
            fault_injector="hang~30@parallelize.map:0#1",
        )
        try:
            context = EngineContext(3, executor=executor)
            result = context.parallelize(range(9)).map(_double).collect()
            assert result == [x * 2 for x in range(9)]
            (row,) = _process_stage_rows(context)
            assert row["recovered"] >= 1
        finally:
            executor.close()

    def test_hang_every_attempt_falls_back_to_driver(self):
        executor = MultiprocessingExecutor(
            max_workers=2,
            fault_policy=_fast_policy(
                max_attempts=1,
                task_timeout=0.75,
                on_exhausted="serial-fallback",
            ),
            fault_injector="hang~30@parallelize.map:0#*",
        )
        try:
            context = EngineContext(3, executor=executor)
            result = context.parallelize(range(9)).map(_double).collect()
            assert result == [x * 2 for x in range(9)]
            stage = context.scheduler.stages[-1]
            assert stage.executor.endswith("serial-fallback")
            assert stage.tasks[0].worker == "driver"
            assert stage.num_recovered >= 1
        finally:
            executor.close()

    def test_hang_every_attempt_with_raise_policy_errors(self):
        executor = MultiprocessingExecutor(
            max_workers=2,
            fault_policy=_fast_policy(max_attempts=1, task_timeout=0.75),
            fault_injector="hang~30@parallelize.map:0#*",
        )
        try:
            context = EngineContext(2, executor=executor)
            with pytest.raises(EngineError, match="still failing"):
                context.parallelize(range(4)).map(_double).collect()
        finally:
            executor.close()


class TestSerialFallbackEquivalence:
    """Partitions replayed in the driver must merge exactly like pool ones."""

    def test_fallback_result_and_float_accumulation_match_serial(self):
        serial_context = EngineContext(4, executor=SerialExecutor())
        serial_counter = serial_context.accumulator(0.0)
        serial = (
            serial_context.parallelize(range(40))
            .map(_FloatWeightMap(serial_counter))
            .collect()
        )

        # Partition 1 fails every pool attempt and is replayed in the driver;
        # partitions 0, 2 and 3 complete on the pool.  The merged accumulator
        # must still equal the serial value bit-for-bit, which requires the
        # fallback updates to be replayed in partition order with the rest.
        executor = MultiprocessingExecutor(
            max_workers=2,
            fault_policy=_fast_policy(
                max_attempts=1, on_exhausted="serial-fallback"
            ),
            fault_injector="raise@parallelize.map:1#*",
        )
        try:
            context = EngineContext(4, executor=executor)
            counter = context.accumulator(0.0)
            result = (
                context.parallelize(range(40))
                .map(_FloatWeightMap(counter))
                .collect()
            )
            assert result == serial
            assert counter.value == serial_counter.value
            stage = context.scheduler.stages[-1]
            assert stage.executor.endswith("serial-fallback")
            assert stage.num_recovered >= 1
        finally:
            executor.close()

    def test_all_partitions_falling_back_matches_serial(self):
        executor = MultiprocessingExecutor(
            max_workers=2,
            fault_policy=_fast_policy(
                max_attempts=1, on_exhausted="serial-fallback"
            ),
            fault_injector="raise@parallelize.map:*#*",
        )
        try:
            context = EngineContext(4, executor=executor)
            result = context.parallelize(range(20)).map(_double).collect()
            assert result == [x * 2 for x in range(20)]
            stage = context.scheduler.stages[-1]
            assert all(task.worker == "driver" for task in stage.tasks)
            assert stage.num_recovered == stage.num_tasks
        finally:
            executor.close()


class TestShuffleRecovery:
    def test_crash_in_both_shuffle_phases_recovers(self):
        executor = MultiprocessingExecutor(
            max_workers=2,
            fault_policy=_fast_policy(),
            fault_injector="crash@shuffle.map:0#1;crash@shuffle.reduce:0#1",
        )
        try:
            serial = EngineContext(4, executor=SerialExecutor())
            expected = sorted(
                serial.parallelize(range(40)).keyBy(_is_even).reduceByKey(_add).collect()
            )
            context = EngineContext(4, executor=executor)
            result = sorted(
                context.parallelize(range(40)).keyBy(_is_even).reduceByKey(_add).collect()
            )
            assert result == expected
            recovered_stages = [
                row
                for row in context.scheduler.stage_table()
                if ".shuffle." in str(row["description"]) and row["recovered"] >= 1
            ]
            # Both phases crashed once and recovered.
            assert len(recovered_stages) == 2
            for row in recovered_stages:
                assert row["attempts"] > row["tasks"]
        finally:
            executor.close()


# =========================================================================
# Headline chaos guarantee: meta-blocking equivalence under injected faults
# =========================================================================
CHAOS_INJECT = (
    "crash@metablocking.weights:0#1;"
    "crash@shuffle.map:0#1;"
    "crash@shuffle.reduce:0#1"
)


def _chaos_executor() -> MultiprocessingExecutor:
    return MultiprocessingExecutor(
        max_workers=2,
        fault_policy=_fast_policy(),
        fault_injector=CHAOS_INJECT,
    )


def _assert_chaos_equivalence(blocks, weighting, pruning, kernel_backend):
    options = EngineOptions.resolve(kernel_backend=kernel_backend)
    sequential = MetaBlocker(weighting, _make_pruning(pruning), options=options).run(
        blocks
    )
    executor = _chaos_executor()
    try:
        context = EngineContext(4, executor=executor)
        parallel = ParallelMetaBlocker(
            context,
            weighting,
            _make_pruning(pruning),
            options=options,
        ).run(blocks)
        # The chaos must have actually happened — and been recovered.
        assert context.scheduler.total_recovered >= 1
        assert context.scheduler.total_task_failures >= 1
        context.stop()
    finally:
        executor.close()
    # Dict equality covers retained pairs and exact float weights: recovery
    # (re-run partitions, rebuilt pools) must not perturb a single ulp.
    assert parallel.retained_edges == sequential.retained_edges
    assert parallel.candidate_pairs == sequential.candidate_pairs
    assert parallel.graph_edges == sequential.graph_edges
    assert parallel.graph_nodes == sequential.graph_nodes
    assert sequential.num_candidates > 0


class TestChaosEquivalence:
    @pytest.mark.parametrize("pruning", ["wnp", "cnp"])
    @pytest.mark.parametrize("weighting", ["cbs", "js"])
    def test_clean_clean_python_backend(self, weighting, pruning):
        blocks = _random_clean_collection(seed=31)
        _assert_chaos_equivalence(blocks, weighting, pruning, "python")

    @pytest.mark.parametrize("pruning", ["wnp", "cep"])
    @pytest.mark.parametrize("weighting", ["ecbs", "arcs"])
    def test_dirty_python_backend(self, weighting, pruning):
        blocks = _random_dirty_collection(seed=32)
        _assert_chaos_equivalence(blocks, weighting, pruning, "python")

    @needs_numpy
    @pytest.mark.parametrize("pruning", ["wnp", "cnp"])
    @pytest.mark.parametrize("weighting", ["cbs", "ejs"])
    def test_clean_clean_numpy_backend(self, weighting, pruning):
        from repro.metablocking.sharedmem import live_segments

        blocks = _random_clean_collection(seed=33)
        _assert_chaos_equivalence(blocks, weighting, pruning, "numpy")
        # Crashed workers and rebuilt pools must not leak shared segments.
        assert live_segments() == []

    @needs_numpy
    def test_dirty_numpy_backend(self):
        from repro.metablocking.sharedmem import live_segments

        blocks = _random_dirty_collection(seed=34)
        _assert_chaos_equivalence(blocks, "js", "rwnp", "numpy")
        assert live_segments() == []


# =========================================================================
# Chaos: peer-to-peer shuffle block stores under injected faults
# =========================================================================
class TestBlockStoreChaos:
    """Worker crashes mid-shuffle with the peer stores: same results, no leaks.

    A map-phase crash republishes fresh segment names on retry; a
    reduce-phase crash rebuilds the pool while the driver's protected set
    shields the in-flight blocks from the orphan sweep — either way the
    reduced output must match the serial driver-store run bit-for-bit and
    every segment / spill file must be gone afterwards.
    """

    @pytest.mark.parametrize("store", ["shared-memory", "spill"])
    def test_mid_shuffle_crash_recovers(self, store):
        from repro.engine import sharedmem as engine_sharedmem

        executor = MultiprocessingExecutor(
            max_workers=2,
            fault_policy=_fast_policy(),
            fault_injector="crash@shuffle.map:0#1;crash@shuffle.reduce:0#1",
        )
        try:
            serial = EngineContext(4, executor=SerialExecutor())
            expected = sorted(
                serial.parallelize(range(40)).keyBy(_is_even).reduceByKey(_add).collect()
            )
            with EngineContext(4, executor=executor, block_store=store) as context:
                spill_dir = getattr(
                    getattr(context.block_store, "_spill", context.block_store),
                    "directory",
                )
                result = sorted(
                    context.parallelize(range(40))
                    .keyBy(_is_even)
                    .reduceByKey(_add)
                    .collect()
                )
                assert result == expected
                # Both phases crashed and recovered (pool rebuilt in between).
                assert context.scheduler.total_recovered >= 2
        finally:
            executor.close()
        assert engine_sharedmem.live_segments("shuf") == []
        import glob

        assert not glob.glob(f"{spill_dir}/*")

    def test_chaos_metablocking_equivalence_with_shared_memory_store(self):
        from repro.engine import sharedmem as engine_sharedmem

        blocks = _random_clean_collection(seed=41)
        sequential = MetaBlocker("cbs", _make_pruning("wnp")).run(blocks)
        executor = _chaos_executor()
        try:
            with EngineContext(
                4, executor=executor, block_store="shared-memory"
            ) as context:
                parallel = ParallelMetaBlocker(
                    context, "cbs", _make_pruning("wnp")
                ).run(blocks)
                assert context.scheduler.total_recovered >= 1
                assert context.scheduler.total_task_failures >= 1
        finally:
            executor.close()
        assert parallel.retained_edges == sequential.retained_edges
        assert engine_sharedmem.live_segments("shuf") == []

    def _dead_pid_segment(self):
        """A ``repro-shuf`` segment whose naming pid belongs to a dead process."""
        import multiprocessing

        from repro.engine import sharedmem as engine_sharedmem

        worker = multiprocessing.get_context("fork").Process(target=_double, args=(1,))
        worker.start()
        worker.join()
        name = f"repro-shuf-{worker.pid}-0"
        engine_sharedmem.quiet_close(engine_sharedmem.create_untracked(name, 16))
        return name

    def test_sweep_unlinks_dead_worker_shuffle_segment(self):
        from repro.engine import sharedmem as engine_sharedmem

        name = self._dead_pid_segment()
        swept = engine_sharedmem.sweep_orphaned_segments()
        assert name in swept
        assert not os.path.exists(f"/dev/shm/{name}")

    def test_protected_segment_survives_sweep_until_released(self):
        from repro.engine import sharedmem as engine_sharedmem

        name = self._dead_pid_segment()
        engine_sharedmem.protect_segments([name])
        try:
            assert name not in engine_sharedmem.sweep_orphaned_segments()
            assert os.path.exists(f"/dev/shm/{name}")
        finally:
            engine_sharedmem.unlink_segment(name)  # also drops the protection
        assert name not in engine_sharedmem._protected
        assert name in engine_sharedmem.sweep_orphaned_segments() or not os.path.exists(
            f"/dev/shm/{name}"
        )

    def test_executor_close_sweeps_stranded_worker_segments(self):
        from repro.engine import sharedmem as engine_sharedmem

        name = self._dead_pid_segment()
        executor = MultiprocessingExecutor(max_workers=1)
        try:
            context = EngineContext(1, executor=executor)
            context.parallelize([1], 1).map(_double).collect()
        finally:
            executor.close()
        assert not os.path.exists(f"/dev/shm/{name}")
        assert name not in engine_sharedmem.live_segments()


# =========================================================================
# Satellite: orphaned shared-memory segment sweep
# =========================================================================
@needs_numpy
class TestSharedSegmentSweep:
    def _export(self):
        import array

        from repro.metablocking.sharedmem import SharedIndexBuffers

        return SharedIndexBuffers.export(
            {"offsets": (array.array("q", [0, 1, 2]), "q")}
        )

    def test_live_export_is_not_swept(self):
        from repro.metablocking import sharedmem

        buffers = self._export()
        try:
            assert buffers.name not in sharedmem.sweep_orphaned_segments()
            assert buffers.name in sharedmem.live_segments()
        finally:
            buffers.release()
        assert buffers.name not in sharedmem.live_segments()

    def test_abandoned_own_segment_is_swept(self):
        from repro.metablocking import sharedmem

        buffers = self._export()
        # Simulate a registry torn by a crash: the segment exists in /dev/shm
        # but is no longer accounted for as a live export.
        sharedmem._live_owned.discard(buffers.name)
        try:
            swept = sharedmem.sweep_orphaned_segments()
            assert buffers.name in swept
            assert buffers.name not in sharedmem.live_segments()
        finally:
            buffers.release()  # idempotent: unlink already happened

    def test_pool_discard_sweeps_orphans(self):
        from repro.metablocking import sharedmem

        buffers = self._export()
        sharedmem._live_owned.discard(buffers.name)
        executor = MultiprocessingExecutor(max_workers=1)
        try:
            context = EngineContext(1, executor=executor)
            context.parallelize([1], 1).map(_double).collect()
            executor._discard_pool()
            assert buffers.name not in sharedmem.live_segments()
        finally:
            buffers.release()
            executor.close()


# =========================================================================
# Satellite: checkpoint integrity (checksums, backup rotation, fallback)
# =========================================================================
def _state(completed):
    return {
        "completed": list(completed),
        "spec": {"stages": [{"stage": name} for name in completed]},
        "artifact_manifest": {},
    }


class TestCheckpointIntegrity:
    def test_manifest_records_state_checksum(self, tmp_path):
        import hashlib
        import json

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


# =========================================================================
# Satellite: CLI and spec plumbing
# =========================================================================
class TestFaultPolicyPlumbing:
    def test_cli_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run", "--synthetic", "abt-buy", "--task-retries", "2",
             "--task-timeout", "30"]
        )
        assert args.task_retries == 2
        assert args.task_timeout == 30.0

    def test_cli_builds_policy_spec(self):
        from repro.cli import build_parser
        from repro.options import fault_policy_from_args as _fault_policy_spec

        parser = build_parser()
        args = parser.parse_args(
            ["run", "--synthetic", "abt-buy", "--task-retries", "2",
             "--task-timeout", "30"]
        )
        assert _fault_policy_spec(args) == "retries=2,timeout=30"
        args = parser.parse_args(["run", "--synthetic", "abt-buy"])
        assert _fault_policy_spec(args) is None
        args = parser.parse_args(
            ["run", "--synthetic", "abt-buy", "--task-retries", "-1"]
        )
        with pytest.raises(SparkERError, match="task-retries"):
            _fault_policy_spec(args)

    def test_canonical_spec_records_fault_policy(self):
        spec = SparkER.canonical_spec(
            SparkERConfig.unsupervised_default(),
            use_engine=True,
            options=EngineOptions.resolve(
                executor="process:2", fault_policy="retries=2,timeout=30"
            ),
        )
        assert spec["engine"]["fault_policy"].startswith("retries=2,timeout=30")
        pipeline = Pipeline.from_spec(spec)
        try:
            assert pipeline.engine.executor.fault_policy.max_attempts == 3
            assert pipeline.engine.executor.fault_policy.task_timeout == 30.0
        finally:
            pipeline.shutdown()

    def test_from_spec_rejects_bad_fault_policy_type(self):
        spec = SparkER.canonical_spec(
            SparkERConfig.unsupervised_default(), use_engine=True, executor="serial"
        )
        spec["engine"]["fault_policy"] = 7
        with pytest.raises(PipelineValidationError, match="fault_policy"):
            Pipeline.from_spec(spec)

    def test_cli_chaos_smoke(self, capsys, monkeypatch):
        """End-to-end: one injected worker crash, recovered, exit code 0."""
        from repro.cli import main

        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash@metablocking.weights:0#1")
        exit_code = main(
            ["run", "--synthetic", "abt-buy", "--entities", "40",
             "--executor", "process", "--workers", "2", "--task-retries", "2"]
        )
        assert exit_code == 0
        assert "summary:" in capsys.readouterr().out


# =========================================================================
# Service-layer fault points
# =========================================================================
class TestServiceFaultPoints:
    @pytest.fixture(autouse=True)
    def _fresh_injector_cache(self):
        reset_service_faults()
        yield
        reset_service_faults()

    def test_noop_without_spec(self, monkeypatch):
        monkeypatch.delenv(SERVICE_INJECT_ENV_VAR, raising=False)
        service_fault("wal.append")  # must not raise

    def test_raise_mode_counts_hits_per_point(self, monkeypatch):
        monkeypatch.setenv(SERVICE_INJECT_ENV_VAR, "raise@wal.append#3")
        service_fault("wal.append")  # hit 1
        service_fault("wal.truncate")  # separate counter
        service_fault("wal.append")  # hit 2
        with pytest.raises(FaultInjected, match="hit 3"):
            service_fault("wal.append")
        # Attempt 3 fired; hit 4 passes through again.
        service_fault("wal.append")

    def test_disk_mode_raises_oserror(self, monkeypatch):
        monkeypatch.setenv(SERVICE_INJECT_ENV_VAR, "disk@wal.append")
        with pytest.raises(OSError, match="injected disk fault"):
            service_fault("wal.append")

    def test_stage_substring_scopes_the_point(self, monkeypatch):
        monkeypatch.setenv(SERVICE_INJECT_ENV_VAR, "raise@ingest.apply")
        service_fault("ingest.ack.demo")  # different point family
        with pytest.raises(FaultInjected):
            service_fault("ingest.apply.demo")

    def test_spec_is_cached_until_reset(self, monkeypatch):
        monkeypatch.delenv(SERVICE_INJECT_ENV_VAR, raising=False)
        service_fault("wal.append")  # caches "no injection"
        monkeypatch.setenv(SERVICE_INJECT_ENV_VAR, "raise@wal.append")
        service_fault("wal.append")  # still cached: no raise
        reset_service_faults()
        with pytest.raises(FaultInjected):
            service_fault("wal.append")

    def test_injector_hang_mode_sleeps(self):
        injector = ServicePointInjector(FaultInjector.parse("hang~0.01@point"))
        started = time.perf_counter()
        injector.fire("point")
        assert time.perf_counter() - started >= 0.01

    def test_disk_mode_parses_in_the_engine_grammar(self):
        (clause,) = FaultInjector.parse("disk@shuffle:1#2").clauses
        assert clause.mode == "disk"
        probe = _FaultProbe((clause,), "shuffle", 2)
        with pytest.raises(OSError, match="injected disk fault"):
            probe(1, iter([1]))
