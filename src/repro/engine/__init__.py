"""The range pool that runs SparkER's parallel meta-blocking.

SparkER distributes meta-blocking the way a broadcast join is distributed:
the node ids are partitioned, the compact block index is shared with every
task, and each task weighs the edges of its own nodes.  Offline and without a
cluster, that needs three pieces:

* :class:`~repro.engine.context.EngineContext` — ``map(func, items)`` over a
  lazily forked process pool (or in the driver), one recorded stage per call;
* :mod:`repro.engine.sharedmem` — named POSIX shared-memory segments, so the
  pool maps the CSR index once instead of unpickling a copy per task, and
  their dead-owner sweep;
* :mod:`repro.engine.tmpfiles` — the pid-stamped naming scheme those segments
  share with the service WAL's rewrite temp.

:class:`~repro.metablocking.parallel.ParallelMetaBlocker` is the one job.
Token blocking and connected components run on the driver.
"""

from repro.engine.context import EngineContext

__all__ = ["EngineContext"]
