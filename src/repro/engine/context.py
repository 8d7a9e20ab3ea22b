"""The engine context — the ``SparkContext`` of the mini engine.

Create one :class:`EngineContext` per pipeline run.  It owns the executor
(where narrow stages run), the scheduler (metrics), broadcast variables and
accumulators, and is the factory for RDDs.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any, Callable, TypeVar

from repro.engine.accumulators import Accumulator, new_accumulator
from repro.engine.broadcast import Broadcast, new_broadcast
from repro.engine.executors import Executor, StageResult, make_executor
from repro.engine.rdd import RDD, ParallelCollectionRDD
from repro.engine.scheduler import Scheduler
from repro.engine.shuffle import BlockStore, make_block_store
from repro.exceptions import EngineError
from repro.options import EngineOptions

T = TypeVar("T")


class EngineContext:
    """Entry point of the mini dataflow engine.

    Parameters
    ----------
    default_parallelism:
        Number of partitions used by ``parallelize`` when not overridden and
        the default for shuffle outputs.
    app_name:
        Label used in logs and metric reports.
    executor / fault_policy / fault_injector / block_store / tmp_dir:
        Explicit values of the engine options this context acts on (see the
        table in :mod:`repro.options`): spec strings, or — the seam tests
        substitute fakes through — :class:`~repro.engine.executors.Executor`,
        :class:`~repro.engine.faults.FaultPolicy`,
        :class:`~repro.engine.faults.FaultInjector` and
        :class:`~repro.engine.shuffle.BlockStore` instances.  An executor or
        store built here from a spec is owned by the context and closed in
        :meth:`stop`; a caller-supplied instance is shared and left open.
        The fault policy/injector configure the executor built here — pass
        them to the executor's constructor when supplying an instance.
    options:
        The :class:`~repro.options.EngineOptions` an entry point resolved;
        the explicit values above override it.  Without it, everything not
        given explicitly resolves from the environment and defaults.  The
        result is kept as :attr:`options` — what the meta-blocking jobs on
        this context build their CSR index under.
    """

    def __init__(
        self,
        default_parallelism: int = 4,
        app_name: str = "sparker",
        executor: "Executor | str | None" = None,
        fault_policy: Any = None,
        fault_injector: Any = None,
        block_store: "BlockStore | str | None" = None,
        tmp_dir: "str | None" = None,
        *,
        options: "EngineOptions | None" = None,
    ) -> None:
        if default_parallelism <= 0:
            raise EngineError("default_parallelism must be positive")
        if isinstance(executor, Executor) and not (
            fault_policy is None and fault_injector is None
        ):
            raise EngineError(
                "cannot combine an Executor instance with fault_policy/"
                "fault_injector; pass them to the executor's constructor"
            )
        self.default_parallelism = default_parallelism
        self.app_name = app_name
        self.options = options = EngineOptions.resolve(
            base=options,
            executor=executor,
            fault_policy=fault_policy,
            fault_inject=fault_injector,
            block_store=block_store,
            tmp_dir=tmp_dir,
        )
        self.scheduler = Scheduler()
        self._owns_executor = not isinstance(options.executor, Executor)
        self.executor = make_executor(options)
        self._owns_block_store = not isinstance(options.block_store, BlockStore)
        self.block_store = make_block_store(options)
        self._broadcasts: dict[int, Broadcast[Any]] = {}
        self._broadcasts_created = 0
        self._accumulators: dict[int, Accumulator[Any]] = {}

    # ------------------------------------------------------------------ RDDs
    def parallelize(self, data: Sequence[Any], num_partitions: int | None = None) -> RDD:
        """Create an RDD from a Python sequence."""
        partitions = num_partitions or self.default_parallelism
        if partitions <= 0:
            raise EngineError("num_partitions must be positive")
        return ParallelCollectionRDD(self, data, partitions)

    def emptyRDD(self) -> RDD:
        """Create an RDD with no elements (single empty partition)."""
        return ParallelCollectionRDD(self, [], 1)

    def range(self, start: int, end: int | None = None, num_partitions: int | None = None) -> RDD:
        """Create an RDD of consecutive integers, like ``sc.range``."""
        if end is None:
            start, end = 0, start
        return self.parallelize(list(range(start, end)), num_partitions)

    # ----------------------------------------------------------- shared state
    def broadcast(self, value: T) -> Broadcast[T]:
        """Create a broadcast variable holding ``value``."""
        broadcast = new_broadcast(value)
        self._broadcasts[broadcast.id] = broadcast
        self._broadcasts_created += 1
        return broadcast

    def unbroadcast(self, broadcast: Broadcast[Any]) -> None:
        """Destroy a job-scoped broadcast and drop this context's reference.

        A long-lived context would otherwise pin every value it ever
        broadcast until :meth:`stop`.  Releasing OS-level state the value
        holds (a shared-memory segment) stays with whoever created it.
        """
        self._broadcasts.pop(broadcast.id, None)
        broadcast.destroy()

    def accumulator(
        self, initial: T, combine: Callable[[T, T], T] | None = None
    ) -> Accumulator[T]:
        """Create an accumulator starting at ``initial``."""
        accumulator = new_accumulator(initial, combine)
        self._accumulators[accumulator.id] = accumulator
        return accumulator

    def merge_stage_result(self, result: StageResult) -> None:
        """Fold worker-side task state back into the driver objects.

        Accumulator updates are replayed in partition order — the same order
        a serial run applies them — and broadcast read counts are added to
        the driver-side ``access_count``.
        """
        for task in result.tasks:
            for accumulator_id, updates in task.accumulator_updates.items():
                accumulator = self._accumulators.get(accumulator_id)
                if accumulator is not None:
                    for update in updates:
                        accumulator.add(update)
            for broadcast_id, reads in task.broadcast_reads.items():
                broadcast = self._broadcasts.get(broadcast_id)
                if broadcast is not None:
                    broadcast.access_count += reads

    # ---------------------------------------------------------------- metrics
    def metrics_summary(self) -> dict[str, Any]:
        """Return a summary of everything executed on this context so far."""
        return {
            "app_name": self.app_name,
            "default_parallelism": self.default_parallelism,
            "executor": self.executor.name,
            "block_store": self.block_store.name,
            "jobs": len(self.scheduler.jobs),
            "stages": len(self.scheduler.stages),
            "tasks": self.scheduler.total_tasks,
            "task_attempts": self.scheduler.total_task_attempts,
            "task_failures": self.scheduler.total_task_failures,
            "tasks_recovered": self.scheduler.total_recovered,
            "shuffle_records": self.scheduler.total_shuffle_records,
            "shuffle_bytes": self.scheduler.total_shuffle_bytes,
            "shuffle_relay_bytes": self.scheduler.total_shuffle_relay_bytes,
            "shuffle_peer_bytes": self.scheduler.total_shuffle_peer_bytes,
            "max_rss_bytes": self.scheduler.max_rss_bytes,
            "broadcasts": self._broadcasts_created,
            "accumulators": len(self._accumulators),
        }

    def reset_metrics(self) -> None:
        """Clear recorded scheduler metrics (useful between benchmark phases)."""
        self.scheduler.reset()

    # --------------------------------------------------------------- lifecycle
    def stop(self) -> None:
        """Release engine resources (closes the executor if this context owns it).

        Broadcast values that hold OS-level shared state (e.g. a CSR index
        exported to a :mod:`multiprocessing.shared_memory` segment) expose a
        ``release_shared()`` hook; stopping the context releases them so no
        ``/dev/shm`` segment outlives the run.  A context-owned block store
        is closed too, removing spill directories and any shuffle segment
        stranded by an aborted run.
        """
        for broadcast in self._broadcasts.values():
            value = getattr(broadcast, "_value", None)
            release = getattr(value, "release_shared", None)
            if callable(release):
                release()
        if self._owns_executor:
            self.executor.close()
        if self._owns_block_store:
            self.block_store.close()

    def __enter__(self) -> "EngineContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:
        return (
            f"EngineContext(app_name={self.app_name!r}, "
            f"default_parallelism={self.default_parallelism}, "
            f"executor={self.executor.name!r})"
        )
