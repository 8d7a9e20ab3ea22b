"""The ER service application: routes, offload, admission, shutdown.

:class:`ServiceApp` wires a :class:`~repro.service.store.CollectionStore`
onto the HTTP router:

========  =========================================== =======================
Method    Path                                        Purpose
========  =========================================== =======================
GET       ``/healthz``                                liveness + version +
                                                      degraded collections
GET       ``/metrics``                                latency histograms,
                                                      failure counters,
                                                      per-collection stats
GET       ``/collections``                            tenant listing
POST      ``/collections/{name}/profiles``            ingest (creates the
                                                      collection on first use)
GET       ``/collections/{name}/matches/{profile_id}``  progressive matches
                                                      under ``?budget=K``
GET       ``/collections/{name}/candidates/{profile_id}``  retained edges
                                                      (delta meta-blocking)
POST      ``/collections/{name}/snapshot``            checksummed disk
                                                      snapshot + WAL truncate
========  =========================================== =======================

**Execution model.**  Probe routes (``healthz``/``metrics``/``collections``)
answer inline on the event loop; every engine-touching route offloads its
work to a bounded :class:`~concurrent.futures.ThreadPoolExecutor` via
``loop.run_in_executor`` with a per-collection gate (an :class:`asyncio.Lock`
— one engine operation per collection at a time keeps the index/delta state
lock-free, exactly the old serial semantics, while a cold ranking sweep on
one tenant no longer blocks ``healthz``, warm queries or other tenants).
A thread pool because collection state is mutable and shared by every
request of a tenant (the batch engine has no pool: its range map runs in the
driver); the engine kernels drop the GIL in numpy, which is where the loop's
liveness comes from.

**Admission control.**  A global in-flight cap and a per-collection cap
return ``429`` with ``Retry-After`` instead of queuing unboundedly; an
optional per-request deadline returns ``503`` on expiry — the offloaded
thread cannot be cancelled, so the collection gate stays held until it
finishes (a later request can never race a zombie sweep).  A collection
whose WAL device failed answers writes with ``507`` and keeps serving
reads (see :mod:`repro.service.wal`).

**Shutdown ordering.**  Stop accepting, *drain* in-flight connections and
offloaded work under ``drain_timeout``, then close every collection and
sweep the store's WAL and snapshot directories of durable-file temps
(:func:`repro.pipeline.checkpoint.sweep`) — after the drain, so it races
no write unless the drain window expired first.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

from repro import __version__
from repro.exceptions import ConfigurationError
from repro.pipeline.checkpoint import sweep, temp_files
from repro.service.http import HttpError, HttpServer, Request, Response, Router
from repro.service.metrics import ServiceMetrics
from repro.service.store import CollectionStore

_RETRY_AFTER = {"Retry-After": "1"}


class _Gate:
    """Per-collection serialisation point: one engine operation at a time."""

    __slots__ = ("lock", "inflight")

    def __init__(self) -> None:
        self.lock = asyncio.Lock()
        self.inflight = 0


class ServiceApp:
    """One service instance: a store, a router, a server, a worker pool."""

    def __init__(
        self,
        store: "CollectionStore | None" = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        max_queue_depth: int = 64,
        max_collection_inflight: int = 8,
        request_timeout: "float | None" = None,
        drain_timeout: float = 10.0,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers!r}")
        if max_queue_depth < 1 or max_collection_inflight < 1:
            raise ConfigurationError("admission caps must be >= 1")
        if request_timeout is not None and request_timeout <= 0:
            raise ConfigurationError(
                f"request_timeout must be positive, got {request_timeout!r}"
            )
        if drain_timeout < 0:
            raise ConfigurationError(
                f"drain_timeout must be non-negative, got {drain_timeout!r}"
            )
        self.store = store if store is not None else CollectionStore()
        self.metrics = ServiceMetrics()
        self.workers = workers
        self.max_queue_depth = max_queue_depth
        self.max_collection_inflight = max_collection_inflight
        self.request_timeout = request_timeout
        self.drain_timeout = drain_timeout
        self.router = Router()
        self._register_routes()
        self.server = HttpServer(
            self.router, host=host, port=port, metrics=self.metrics
        )
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-service"
        )
        self._gates: dict[str, _Gate] = {}
        self._inflight = 0
        self._closed = False

    # ----------------------------------------------------------------- routes
    def _register_routes(self) -> None:
        add = self.router.add
        add("GET", "/healthz", self._healthz)
        add("GET", "/metrics", self._metrics)
        add("GET", "/collections", self._collections)
        add("POST", "/collections/{name}/profiles", self._ingest)
        add("GET", "/collections/{name}/matches/{profile_id}", self._matches)
        add("GET", "/collections/{name}/candidates/{profile_id}", self._candidates)
        add("POST", "/collections/{name}/snapshot", self._snapshot)

    def _healthz(self, _request: Request) -> dict:
        degraded = self.store.degraded()
        payload = {
            "status": "degraded" if degraded else "ok",
            "version": __version__,
            "collections": len(self.store.names()),
        }
        if degraded:
            payload["degraded_collections"] = degraded
        return payload

    def _metrics(self, _request: Request) -> dict:
        payload = self.metrics.snapshot()
        payload["collections"] = self.store.stats()
        payload["tmp_artifacts"] = sum(len(temp_files(d)) for d in self.store.directories())
        return payload

    def _collections(self, _request: Request) -> dict:
        return {"collections": self.store.stats()}

    # ---------------------------------------------------------------- offload
    async def _offload(self, name: str, call):
        """Run ``call`` on the worker pool under admission control.

        Serialises per collection through the gate lock (the engine state
        stays lock-free), sheds load at the global and per-collection caps
        with ``429``, and enforces the optional per-request deadline with
        ``503``.  On a deadline the thread cannot be cancelled: the gate is
        released only when the zombie finishes, from a done-callback.
        """
        if self._closed:
            raise HttpError(503, "service is shutting down")
        if self._inflight >= self.max_queue_depth:
            raise HttpError(
                429, "service queue is full", headers=_RETRY_AFTER
            )
        gate = self._gates.get(name)
        if gate is None:
            gate = self._gates[name] = _Gate()
        if gate.inflight >= self.max_collection_inflight:
            raise HttpError(
                429,
                f"collection {name!r} has too many requests in flight",
                headers=_RETRY_AFTER,
            )
        loop = asyncio.get_running_loop()
        deadline = (
            None if self.request_timeout is None
            else loop.time() + self.request_timeout
        )
        self._inflight += 1
        gate.inflight += 1
        self.metrics.offload_enter()
        queued = time.perf_counter()
        handed_off = False
        lock_held = False
        try:
            try:
                if deadline is None:
                    await gate.lock.acquire()
                else:
                    await asyncio.wait_for(
                        gate.lock.acquire(), max(0.0, deadline - loop.time())
                    )
            except asyncio.TimeoutError:
                raise HttpError(
                    503,
                    f"deadline expired queueing for collection {name!r}",
                ) from None
            lock_held = True
            self.metrics.observe_offload_wait(time.perf_counter() - queued)
            future = loop.run_in_executor(self._pool, call)
            if deadline is None:
                return await future
            try:
                return await asyncio.wait_for(
                    asyncio.shield(future), max(0.0, deadline - loop.time())
                )
            except asyncio.TimeoutError:
                handed_off = True

                def _finished(f, gate=gate):
                    gate.lock.release()
                    gate.inflight -= 1
                    self._inflight -= 1
                    self.metrics.offload_exit()
                    f.exception()  # late result/error is dropped deliberately

                future.add_done_callback(_finished)
                raise HttpError(
                    503,
                    f"request deadline expired after {self.request_timeout:g}s; "
                    f"the operation finishes in the background",
                ) from None
        finally:
            if not handed_off:
                if lock_held:
                    gate.lock.release()
                gate.inflight -= 1
                self._inflight -= 1
                self.metrics.offload_exit()

    def _reject_degraded(self, collection) -> None:
        if collection.degraded_reason is not None:
            raise HttpError(
                507,
                f"collection {collection.config.name!r} is read-only "
                f"(degraded): {collection.degraded_reason}",
            )

    # --------------------------------------------------------------- handlers
    async def _ingest(self, request: Request) -> Response:
        name = request.path_params["name"]
        payload = request.json()
        collection = self.store.get_or_create(name)
        self._reject_degraded(collection)
        summary = await self._offload(name, lambda: collection.ingest(payload))
        if summary.get("wal_seq") is not None:
            self.metrics.inc("wal_appends")
        summary["collection"] = collection.config.name
        return Response(summary, status=201)

    def _resolve(self, request: Request):
        collection = self.store.get(request.path_params["name"])
        if collection is None:
            raise HttpError(
                404, f"unknown collection {request.path_params['name']!r}"
            )
        try:
            profile_id = int(request.path_params["profile_id"])
        except ValueError as error:
            raise HttpError(400, "profile_id must be an integer") from error
        if not collection.has_profile(profile_id):
            raise HttpError(
                404,
                f"unknown profile {profile_id} in collection "
                f"{collection.config.name!r}",
            )
        return collection, profile_id

    async def _matches(self, request: Request) -> dict:
        collection, profile_id = self._resolve(request)
        budget = request.int_query("budget", 1000, minimum=0)
        payload = await self._offload(
            collection.config.name, lambda: collection.matches(profile_id, budget)
        )
        payload["collection"] = collection.config.name
        return payload

    async def _candidates(self, request: Request) -> dict:
        collection, profile_id = self._resolve(request)
        payload = await self._offload(
            collection.config.name, lambda: collection.candidates(profile_id)
        )
        payload["collection"] = collection.config.name
        return payload

    async def _snapshot(self, request: Request) -> Response:
        name = request.path_params["name"]
        summary = await self._offload(name, lambda: self.store.snapshot(name))
        return Response(summary, status=201)

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        await self.server.start()

    @property
    def port(self) -> int:
        return self.server.port

    async def serve_forever(self) -> None:
        await self.server.serve_forever()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, then close and sweep."""
        await self.server.stop()
        await self._drain(self.drain_timeout)
        self.shutdown()

    async def _drain(self, timeout: float) -> bool:
        """Wait for in-flight connections *and* offloaded work, bounded.

        Returns ``False`` when the deadline expired with work still running
        — shutdown proceeds anyway (deliberately bounded), which can race a
        zombie thread only after the operator-chosen drain window.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        drained = await self.server.drain(max(0.0, deadline - loop.time()))
        while self._inflight > 0 and loop.time() < deadline:
            await asyncio.sleep(0.02)
        return drained and self._inflight == 0

    def shutdown(self) -> None:
        """Close collections and sweep the store's temps (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=False, cancel_futures=True)
        self.store.close_all()
        for directory in self.store.directories():
            sweep(directory)


async def run_service(app: ServiceApp, *, ready=None, stop_event=None) -> None:
    """Start ``app``, report readiness, serve until ``stop_event`` fires.

    ``ready`` is called with the bound port once the listener is up (the CLI
    prints its parseable "serving on" line from it); ``stop_event`` is an
    :class:`asyncio.Event` — signal handlers set it for graceful shutdown.
    """
    await app.start()
    if ready is not None:
        ready(app.port)
    if stop_event is None:
        stop_event = asyncio.Event()
    try:
        await stop_event.wait()
    finally:
        await app.stop()
