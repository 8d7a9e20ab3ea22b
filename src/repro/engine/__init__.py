"""The range pool that runs SparkER's parallel meta-blocking.

SparkER distributes meta-blocking the way a broadcast join is distributed:
the node ids are partitioned, the compact block index is shared with every
task, and each task weighs the edges of its own nodes.  Offline and without a
cluster, that needs one piece: :class:`~repro.engine.context.EngineContext`
— ``map(func, items)`` on the driver and the children forked for that one
map (or in the driver alone), one recorded stage per call; the forked
children inherit the index, which is the broadcast.

:class:`~repro.metablocking.parallel.ParallelMetaBlocker` is the one job.
It is called directly (benchmarks, ``examples/distributed_blocking.py``);
the pipeline's meta-blocking stage always runs the sequential
:class:`~repro.metablocking.metablocker.MetaBlocker`.
"""

from repro.engine.context import EngineContext

__all__ = ["EngineContext"]
