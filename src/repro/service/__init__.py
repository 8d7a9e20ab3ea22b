"""ER-as-a-service: a long-lived, queryable resolved-entity store.

The batch library resolves one dataset per run; this package keeps the
blocking index alive between requests.  Profiles stream in through
:meth:`~repro.service.collection.ServiceCollection.ingest` into an
append-only :class:`~repro.metablocking.index.IncrementalBlockIndex`,
candidate edges are recomputed once per compaction by the
:class:`~repro.service.delta.DeltaMetaBlocker`, and budgeted match queries
answer from a cached progressive ranking — all exposed over a stdlib-asyncio
HTTP server (:mod:`repro.service.app`) with per-endpoint latency histograms
and checksummed disk snapshots.  ``python -m repro.cli serve`` runs it.

Durability and liveness (see ``docs/SERVICE.md`` § Durability &
degradation): every ingest batch is logged to a per-collection
:class:`~repro.service.wal.WriteAheadLog` before it applies, crash restarts
replay the log tail (:meth:`~repro.service.store.CollectionStore.recover`),
handlers that sweep or rebuild run on a bounded worker pool off the event
loop, and admission control sheds over-limit load with ``429``/``503``
(``507`` when a WAL device error flips a collection read-only).
"""

from repro.service.app import ServiceApp, run_service
from repro.service.collection import CollectionConfig, ServiceCollection
from repro.service.delta import DeltaMetaBlocker
from repro.service.http import HttpError, HttpServer, Request, Response, Router
from repro.service.metrics import ServiceMetrics
from repro.service.store import CollectionStore
from repro.service.wal import FSYNC_POLICIES, DegradedError, WriteAheadLog

__all__ = [
    "CollectionConfig",
    "CollectionStore",
    "DegradedError",
    "DeltaMetaBlocker",
    "FSYNC_POLICIES",
    "HttpError",
    "HttpServer",
    "Request",
    "Response",
    "Router",
    "ServiceApp",
    "ServiceCollection",
    "ServiceMetrics",
    "WriteAheadLog",
    "run_service",
]
