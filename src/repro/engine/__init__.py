"""The range map that runs SparkER's parallel meta-blocking.

SparkER distributes meta-blocking the way a broadcast join is distributed:
the node ids are partitioned, the compact block index is shared with every
task, and each task weighs the edges of its own nodes.  Here the broadcast
join is described and run as a range map in the driver:
:class:`~repro.engine.context.EngineContext` — ``map(func, items)``, one
recorded stage per call, every task reading the driver's index.

:class:`~repro.metablocking.parallel.ParallelMetaBlocker` is the one job.
It is called directly (benchmarks, ``examples/distributed_blocking.py``);
the pipeline's meta-blocking stage always runs the sequential
:class:`~repro.metablocking.metablocker.MetaBlocker`.
"""

from repro.engine.context import EngineContext

__all__ = ["EngineContext"]
