"""Miniature MapReduce/Spark-like dataflow engine.

SparkER's algorithms are expressed against the RDD contract of Apache Spark:
narrow transformations (``map``, ``flatMap``, ``filter``), shuffle
transformations (``reduceByKey``, ``groupByKey``, ``join``, ``distinct``),
broadcast variables and accumulators.  Since this reproduction must run
offline without a JVM or a cluster, :mod:`repro.engine` implements the same
contract in pure Python:

* :class:`~repro.engine.context.EngineContext` plays the role of
  ``SparkContext`` (``parallelize``, ``broadcast``, ``accumulator``).
* :class:`~repro.engine.rdd.RDD` is a partitioned, lazily evaluated dataset.
* :class:`~repro.engine.scheduler.Scheduler` executes jobs stage by stage,
  recording per-task metrics (records read/written, shuffle volume, elapsed
  time) so that benchmarks can report scalability and skew figures analogous
  to what a Spark UI would show.
* :mod:`repro.engine.executors` decides *where* narrow stages run: serially
  in the driver (default) or on a process pool
  (:class:`~repro.engine.executors.MultiprocessingExecutor`), which ships the
  fused per-partition function chains to workers and merges accumulator /
  metric state back.
* :mod:`repro.engine.shuffle` implements the two-phase shuffle and its
  pluggable :class:`~repro.engine.shuffle.BlockStore` layer: payloads relay
  through the driver (default) or move peer-to-peer via named shared-memory
  segments / spill files, with the driver brokering only block refs.
* :mod:`repro.engine.graphx` provides Pregel-style connected components, the
  GraphX primitive SparkER uses for entity clustering.

The engine preserves the *structure* of the distributed computation (how data
is partitioned, what gets shuffled, what is broadcast); with the
multiprocessing executor the partitioned narrow stages also run genuinely in
parallel across cores.
"""

from repro.engine.context import EngineContext
from repro.engine.rdd import RDD
from repro.engine.broadcast import Broadcast
from repro.engine.accumulators import Accumulator
from repro.engine.executors import (
    Executor,
    MultiprocessingExecutor,
    SerialExecutor,
)
from repro.engine.faults import (
    FaultInjected,
    FaultInjector,
    FaultPolicy,
)
from repro.engine.partitioner import HashPartitioner, RangePartitioner
from repro.engine.shuffle import (
    BlockStore,
    DriverBlockStore,
    SharedMemoryBlockStore,
    SpillFileBlockStore,
)
from repro.engine.metrics import TaskMetrics, StageMetrics, JobMetrics
from repro.engine.graphx import connected_components, pregel_connected_components

__all__ = [
    "EngineContext",
    "RDD",
    "Broadcast",
    "Accumulator",
    "Executor",
    "SerialExecutor",
    "MultiprocessingExecutor",
    "FaultInjected",
    "FaultInjector",
    "FaultPolicy",
    "HashPartitioner",
    "RangePartitioner",
    "BlockStore",
    "DriverBlockStore",
    "SharedMemoryBlockStore",
    "SpillFileBlockStore",
    "TaskMetrics",
    "StageMetrics",
    "JobMetrics",
    "connected_components",
    "pregel_connected_components",
]
