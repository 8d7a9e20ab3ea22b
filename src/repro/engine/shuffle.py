"""Parallel shuffle subsystem: redistribute key/value records across partitions.

A shuffle is executed Spark-style, as two physical stages that both dispatch
through the context's :class:`~repro.engine.executors.Executor`:

* **map side** — one :class:`ShuffleMapTask` per parent partition buckets the
  partition's records by the target partitioner, applying the optional
  :class:`MapSideCombiner` *inside the task* (Spark's map-side combine for
  ``reduceByKey``/``aggregateByKey``), so pre-aggregation happens in the
  worker processes and only combined records cross the shuffle boundary.
  Each non-empty bucket is then **published** to the context's
  :class:`BlockStore`, which turns it into a tiny :class:`BlockRef`.
* **reduce side** — one :class:`ShuffleReduceTask` per output partition
  fetches its bucket's blocks (a :class:`FetchBlocksTask` prefixes the reduce
  chain) and merges the chunks across all map outputs (concatenation,
  per-key reduce, grouping or two-sided cogroup), again inside a worker task.

Between the two stages the driver only transposes the block refs (map output
``m``, bucket ``r`` → reduce input ``r``, chunk ``m``) and records the
communication volume: shuffled records *and* pickled bytes per task, split
into **driver-relayed** and **peer-transferred** bytes (see `Block stores`_).

Every task object in this module is a module-level picklable callable with
bound arguments (never a closure), so a shuffle whose user functions pickle
ships to the multiprocessing executor unchanged; the chunk order is fixed
(side-major, then map-partition order), which keeps the reduce-side merge —
and therefore every downstream float accumulation — bit-for-bit identical to
a serial in-driver run, whichever block store carries the payloads.

Block stores
------------
A :class:`BlockStore` decides *how a bucket's payload travels* from the map
task that produced it to the reduce task that consumes it:

* :class:`DriverBlockStore` (default) — the payload rides inline in the
  :class:`BlockRef` itself, through the task outcome, the driver's
  transpose, and the reduce task's submission: two driver round-trips per
  record, the engine's historical behaviour.  All shuffle bytes are
  *driver-relayed*.
* :class:`SharedMemoryBlockStore` — the map task pickles the bucket into a
  named ``multiprocessing.shared_memory`` segment and ships only the name
  and size; the reduce task attaches and deserialises directly, peer to
  peer.  The driver brokers block *names*, never payload bytes, so the
  driver-relayed volume collapses to the few dozen bytes of each ref while
  the payload moves as *peer-transferred* bytes.  Oversized buckets (see
  ``spill_over_bytes``) and environments without working POSIX shared
  memory fall back per-block to the spill-file path.
* :class:`SpillFileBlockStore` — like the shared-memory store, but payloads
  are pickle files in a run-scoped spill directory.  Slower, but works
  everywhere a filesystem does; it is also the fallback target above.

Segment naming, ownership and unlink responsibilities
-----------------------------------------------------
Shuffle segments are named ``repro-shuf-<pid>-<seq>`` (see
:func:`repro.engine.sharedmem.make_segment_name`); the pid is the
*publishing* process — a pool worker under the process executor, the driver
itself under the serial executor.  Ownership then transfers to the driver:

* a **worker-published** segment is created untracked; its name rides back
  to the driver on ``TaskOutcome.published_segments``, where the executor
  immediately adds it to the protected set so a pool rebuild's orphan sweep
  (:func:`repro.engine.sharedmem.sweep_orphaned_segments`) never unlinks a
  block that a pending reduce task still needs — even if the worker that
  created it has since died;
* a **driver-published** segment is registered in the driver's live-owner
  set instead, which the sweep also skips;
* :func:`execute_shuffle` **unlinks every block** (and drops its
  protection) once the reduce stage has consumed it — success or failure —
  so no segment or spill file outlives the shuffle that created it;
  ``BlockStore.close()`` (wired to ``EngineContext.stop()``) and the
  executor-close sweep are the backstops for blocks stranded by a crash.

Spill files follow the same shape with the spill directory as the unit of
last resort: blocks are deleted as they are released and the whole run
directory is removed by ``close()``.
"""

from __future__ import annotations

import os
import pickle
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TYPE_CHECKING, Any

from repro.engine import sharedmem as _segments
from repro.engine import tmpfiles as _tmpfiles
from repro.engine.partitioner import Partitioner
from repro.exceptions import EngineError
from repro.options import EngineOptions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.engine.context import EngineContext

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL


def _identity(value: Any) -> Any:
    """Default ``create_combiner``: the first value of a key is kept as-is."""
    return value


def chunk_bytes(chunk: Sequence[Any]) -> int:
    """Wire size of one shuffle block: the pickled length of its record list.

    This is exactly what the multiprocessing executor ships per block under
    the driver store (and what a peer store writes into its segment or spill
    file), so the recorded shuffle bytes are the real payload volume of a
    process-pool run whichever path carries it.
    """
    return len(pickle.dumps(list(chunk), protocol=_PICKLE_PROTOCOL))


# --------------------------------------------------------------------- blocks
class BlockRef:
    """Handle to one published shuffle block (one bucket of one map output).

    The ref is what crosses the driver: it carries the record count and
    payload size for metrics, knows how to :meth:`fetch` the payload back and
    how to :meth:`release` the underlying storage.  Refs are tiny and
    picklable; only :class:`InlineBlock` carries the payload itself.
    """

    __slots__ = ("records", "payload_bytes")

    def __init__(self, records: int, payload_bytes: int) -> None:
        self.records = records
        self.payload_bytes = payload_bytes

    def fetch(self) -> list[Any]:
        """Materialise the block's records (reduce side, exactly once)."""
        raise NotImplementedError

    def release(self) -> None:
        """Free the block's backing storage; idempotent, any process."""

    def relay_bytes(self) -> int:
        """Bytes of this block the *driver* relays (ref size for peer stores)."""
        return len(pickle.dumps(self, protocol=_PICKLE_PROTOCOL))

    def peer_bytes(self) -> int:
        """Payload bytes that move peer-to-peer, bypassing the driver."""
        return self.payload_bytes

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(records={self.records}, "
            f"payload_bytes={self.payload_bytes})"
        )


class InlineBlock(BlockRef):
    """Driver-relayed block: the payload travels inside the ref itself."""

    __slots__ = ("payload",)

    def __init__(self, payload: list[Any], records: int, payload_bytes: int) -> None:
        super().__init__(records, payload_bytes)
        self.payload = payload

    def fetch(self) -> list[Any]:
        return self.payload

    def relay_bytes(self) -> int:
        return self.payload_bytes

    def peer_bytes(self) -> int:
        return 0


class SegmentBlock(BlockRef):
    """Peer-transferred block living in a named shared-memory segment."""

    __slots__ = ("name",)

    def __init__(self, name: str, records: int, payload_bytes: int) -> None:
        super().__init__(records, payload_bytes)
        self.name = name

    def fetch(self) -> list[Any]:
        try:
            shm = _segments.attach_untracked(self.name)
        except FileNotFoundError as error:
            raise EngineError(
                f"shuffle block segment {self.name!r} is gone — it was "
                f"unlinked (or its publishing worker swept) before the "
                f"reduce task could attach"
            ) from error
        try:
            # The segment may be rounded up past the payload; slice exactly.
            return pickle.loads(bytes(shm.buf[: self.payload_bytes]))
        finally:
            _segments.quiet_close(shm)

    def release(self) -> None:
        _segments.unlink_segment(self.name)

    def __repr__(self) -> str:
        return (
            f"SegmentBlock(name={self.name!r}, records={self.records}, "
            f"payload_bytes={self.payload_bytes})"
        )


class FileBlock(BlockRef):
    """Peer-transferred block spilled to a pickle file."""

    __slots__ = ("path",)

    def __init__(self, path: str, records: int, payload_bytes: int) -> None:
        super().__init__(records, payload_bytes)
        self.path = path

    def fetch(self) -> list[Any]:
        try:
            with open(self.path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError as error:
            raise EngineError(
                f"shuffle spill block {self.path!r} is gone — it was deleted "
                f"before the reduce task could read it"
            ) from error

    def release(self) -> None:
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass

    def __repr__(self) -> str:
        return (
            f"FileBlock(path={self.path!r}, records={self.records}, "
            f"payload_bytes={self.payload_bytes})"
        )


# --------------------------------------------------------------------- stores
class BlockStore:
    """Policy for moving shuffle block payloads from map tasks to reducers.

    ``publish`` runs *inside the map task* (a pool worker under the process
    executor); ``close`` runs in the driver when the owning
    :class:`~repro.engine.context.EngineContext` stops.  Stores must pickle —
    they ride to the workers inside the :class:`ShuffleMapTask` — so they
    hold only plain configuration (paths, thresholds), never open handles.
    """

    name = "blockstore"

    def publish(self, bucket: Sequence[Any]) -> BlockRef:
        """Store one non-empty bucket; return the ref the driver transposes."""
        raise NotImplementedError

    def close(self) -> None:
        """Release run-scoped storage (spill directories, stranded segments)."""

    def spec(self) -> str:
        """The spec string that reproduces this store (for resolved configs)."""
        return self.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class DriverBlockStore(BlockStore):
    """Relay every payload through the driver (the historical behaviour).

    The bucket rides inside the :class:`InlineBlock`: worker → driver in the
    task outcome, driver → reducer in the reduce task's input partition.
    Simple and dependency-free, but each record is pickled across the driver
    twice — the scale ceiling the peer stores remove.
    """

    name = "driver"

    def publish(self, bucket: Sequence[Any]) -> BlockRef:
        payload = list(bucket)
        return InlineBlock(payload, len(payload), chunk_bytes(payload))


class SpillFileBlockStore(BlockStore):
    """Publish buckets as pickle files in a run-scoped spill directory.

    The directory is chosen by the driver at construction time and rides in
    the pickled store, so every worker writes into the same run directory.
    It is a managed pid-stamped artifact under the unified temp root
    (the ``tmp_dir`` engine option — see :mod:`repro.engine.tmpfiles`), so a
    crashed driver's directory is reclaimed by the same orphan sweep that
    covers memmap index buffers.
    Blocks are deleted as the shuffle releases them; ``close`` removes the
    whole directory, catching anything stranded by a crashed attempt.
    """

    name = "spill"

    def __init__(
        self,
        directory: str | None = None,
        tmp_dir: str | None = None,
    ) -> None:
        self.directory = directory or _tmpfiles.make_artifact_dir("spill", tmp_dir)

    def publish(self, bucket: Sequence[Any]) -> BlockRef:
        payload = pickle.dumps(list(bucket), protocol=_PICKLE_PROTOCOL)
        return self.publish_payload(payload, len(bucket))

    def publish_payload(self, payload: bytes, records: int) -> BlockRef:
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(
            self.directory,
            f"block-{os.getpid()}-{next(_segments._segment_ids)}.pkl",
        )
        with open(path, "wb") as handle:
            handle.write(payload)
        return FileBlock(path, records, len(payload))

    def close(self) -> None:
        _tmpfiles.discard_artifact(self.directory)

    def __repr__(self) -> str:
        return f"SpillFileBlockStore(directory={self.directory!r})"


class SharedMemoryBlockStore(BlockStore):
    """Publish buckets as named shared-memory segments, peer to peer.

    Each bucket is pickled once, in the map task, into a fresh
    ``repro-shuf-*`` segment; the reduce task attaches by name and
    deserialises directly, so payload bytes never touch the driver.  Buckets
    larger than ``spill_over_bytes`` — and every bucket when POSIX shared
    memory is unavailable or exhausted — spill to the companion
    :class:`SpillFileBlockStore` instead, per block.
    """

    name = "shared-memory"

    def __init__(
        self,
        spill_over_bytes: int | None = None,
        spill_directory: str | None = None,
        tmp_dir: str | None = None,
    ) -> None:
        if spill_over_bytes is not None and spill_over_bytes <= 0:
            raise EngineError("spill_over_bytes must be positive")
        self.spill_over_bytes = spill_over_bytes
        self._spill = SpillFileBlockStore(spill_directory, tmp_dir=tmp_dir)

    def publish(self, bucket: Sequence[Any]) -> BlockRef:
        payload = pickle.dumps(list(bucket), protocol=_PICKLE_PROTOCOL)
        if (
            self.spill_over_bytes is not None
            and len(payload) > self.spill_over_bytes
        ):
            return self._spill.publish_payload(payload, len(bucket))
        name = _segments.make_segment_name("shuf")
        try:
            shm = _segments.create_untracked(name, max(1, len(payload)))
        except (OSError, ImportError):
            # No (or no more) POSIX shared memory here: degrade per block.
            return self._spill.publish_payload(payload, len(bucket))
        shm.buf[: len(payload)] = payload
        # Ownership: inside a worker task the name is captured onto the
        # outcome (the driver protects it until the reduce consumed it);
        # published from the driver itself it joins the live-owner set so
        # the orphan sweep leaves it alone until released.
        if not _segments.record_published(name):
            _segments.register_owned(name)
        _segments.quiet_close(shm)
        return SegmentBlock(name, len(bucket), len(payload))

    def close(self) -> None:
        # Unlink any own-pid shuffle segments stranded by an aborted run,
        # then drop the spill directory.
        for name in _segments.live_segments("shuf"):
            _segments.unlink_segment(name)
        self._spill.close()

    def __repr__(self) -> str:
        return (
            f"SharedMemoryBlockStore(spill_over_bytes={self.spill_over_bytes!r}, "
            f"spill_directory={self._spill.directory!r})"
        )


def make_block_store(options: EngineOptions) -> BlockStore:
    """Build the block store the resolved ``options`` name.

    ``options.block_store`` is a canonical name (``"driver"``,
    ``"shared-memory"``, ``"spill"``) or a caller-built :class:`BlockStore`,
    returned as is; ``options.tmp_dir`` roots any spill directory created.
    """
    spec = options.block_store
    if isinstance(spec, BlockStore):
        return spec
    if spec == "driver":
        return DriverBlockStore()
    if spec == "shared-memory":
        return SharedMemoryBlockStore(tmp_dir=options.tmp_dir)
    return SpillFileBlockStore(tmp_dir=options.tmp_dir)


# ---------------------------------------------------------------- map & reduce
class MapSideCombiner:
    """Picklable pre-aggregation policy applied inside each map task.

    ``create(value)`` builds the combined value on a key's first occurrence;
    ``merge(combined, value)`` folds every later occurrence in encounter
    order.  For ``reduceByKey`` both are the user reducer (with an identity
    ``create``); for ``aggregateByKey`` they are ``seq_op`` seeded with the
    zero value.
    """

    __slots__ = ("create", "merge")

    def __init__(
        self,
        merge: Callable[[Any, Any], Any],
        create: Callable[[Any], Any] = _identity,
    ) -> None:
        self.create = create
        self.merge = merge

    def __repr__(self) -> str:
        return f"MapSideCombiner(merge={self.merge!r}, create={self.create!r})"


class ZeroSeededCombiner:
    """``aggregateByKey``'s map-side ``create``: fold the value into ``zero``."""

    __slots__ = ("zero", "seq_op")

    def __init__(self, zero: Any, seq_op: Callable[[Any, Any], Any]) -> None:
        self.zero = zero
        self.seq_op = seq_op

    def __call__(self, value: Any) -> Any:
        return self.seq_op(self.zero, value)


class ShuffleMapTask:
    """Map-side shuffle task: bucket (and pre-combine) one parent partition.

    Runs as a one-function stage chain on the executor; yields exactly one
    element — the list of ``num_partitions`` shuffle blocks — so the stage's
    output partition *is* the task's map output.  With a combiner, each
    bucket is a per-key dict in first-touch order; the per-bucket dicts are
    order-equivalent to combining the whole partition first and bucketing
    after (a key's bucket never changes), which preserves the historical
    record order exactly.

    With a ``store``, each non-empty bucket is published to it and the task
    yields the list of :class:`BlockRef` handles (``None`` for empty
    buckets); without one (direct use, tests) it yields the raw buckets.
    """

    __slots__ = ("partitioner", "combiner", "store")

    def __init__(
        self,
        partitioner: Partitioner,
        combiner: MapSideCombiner | None = None,
        store: BlockStore | None = None,
    ) -> None:
        self.partitioner = partitioner
        self.combiner = combiner
        self.store = store

    def __call__(
        self, _index: int, records: Iterator[tuple[Any, Any]]
    ) -> Iterable[list[Any]]:
        num_partitions = self.partitioner.num_partitions
        partition_of = self.partitioner.partition
        combiner = self.combiner
        if combiner is None:
            buckets: list[list[tuple[Any, Any]]] = [[] for _ in range(num_partitions)]
            for record in records:
                buckets[partition_of(record[0])].append(record)
        else:
            create, merge = combiner.create, combiner.merge
            combined: list[dict[Any, Any]] = [{} for _ in range(num_partitions)]
            for key, value in records:
                bucket = combined[partition_of(key)]
                if key in bucket:
                    bucket[key] = merge(bucket[key], value)
                else:
                    bucket[key] = create(value)
            buckets = [list(bucket.items()) for bucket in combined]
        store = self.store
        if store is None:
            yield buckets
        else:
            yield [store.publish(bucket) if bucket else None for bucket in buckets]

    def __repr__(self) -> str:
        return (
            f"ShuffleMapTask({self.partitioner!r}, combiner={self.combiner!r}, "
            f"store={self.store!r})"
        )


class FetchBlocksTask:
    """Reduce-side prologue: materialise each routed block ref into its chunk.

    Prefixes the reduce task in the stage chain, so the fetch — a
    shared-memory attach or spill-file read under the peer stores — runs in
    the reduce worker, not the driver.  ``tagged`` mirrors the cogroup wire
    format where each routed entry is ``(side, ref)``.
    """

    __slots__ = ("tagged",)

    def __init__(self, tagged: bool) -> None:
        self.tagged = tagged

    def __call__(self, _index: int, refs: Iterator[Any]) -> Iterable[Any]:
        if self.tagged:
            for side, ref in refs:
                yield side, ref.fetch()
        else:
            for ref in refs:
                yield ref.fetch()

    def __repr__(self) -> str:
        return f"FetchBlocksTask(tagged={self.tagged!r})"


class ShuffleReduceTask:
    """Base of the reduce-side merge tasks.

    Runs on the executor behind a :class:`FetchBlocksTask`; the task's input
    partition is the list of shuffle-block chunks routed to this reducer, in
    side-major then map-partition order.
    """

    __slots__ = ()

    def __call__(self, _index: int, chunks: Iterator[Any]) -> Iterable[Any]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class ConcatReduceTask(ShuffleReduceTask):
    """``partitionBy``: keep the shuffled records as-is, in chunk order."""

    __slots__ = ()

    def __call__(
        self, _index: int, chunks: Iterator[list[tuple[Any, Any]]]
    ) -> Iterable[tuple[Any, Any]]:
        for chunk in chunks:
            yield from chunk


class ReduceByKeyTask(ShuffleReduceTask):
    """Merge one bucket's chunks with a per-key reducer (encounter order).

    The first value of a key is kept as-is and every later one folded with
    ``reducer`` — the combine step of ``reduceByKey`` *and* of
    ``aggregateByKey`` (whose ``comb_op`` merges map-side accumulators).
    """

    __slots__ = ("reducer",)

    def __init__(self, reducer: Callable[[Any, Any], Any]) -> None:
        self.reducer = reducer

    def __call__(
        self, _index: int, chunks: Iterator[list[tuple[Any, Any]]]
    ) -> Iterable[tuple[Any, Any]]:
        reducer = self.reducer
        reduced: dict[Any, Any] = {}
        for chunk in chunks:
            for key, value in chunk:
                if key in reduced:
                    reduced[key] = reducer(reduced[key], value)
                else:
                    reduced[key] = value
        return reduced.items()

    def __repr__(self) -> str:
        return f"ReduceByKeyTask({self.reducer!r})"


class GroupByKeyTask(ShuffleReduceTask):
    """Group one bucket's values per key, in encounter order."""

    __slots__ = ()

    def __call__(
        self, _index: int, chunks: Iterator[list[tuple[Any, Any]]]
    ) -> Iterable[tuple[Any, list[Any]]]:
        grouped: dict[Any, list[Any]] = defaultdict(list)
        for chunk in chunks:
            for key, value in chunk:
                grouped[key].append(value)
        return grouped.items()


class CoGroupReduceTask(ShuffleReduceTask):
    """Two-sided merge: ``(key, (left values, right values))``.

    Chunks arrive tagged ``(side, records)``; left chunks sort first (the
    driver routes them side-major), so keys appear in left-first first-touch
    order — the order the in-driver cogroup has always produced.
    """

    __slots__ = ()

    def __call__(
        self, _index: int, chunks: Iterator[tuple[int, list[tuple[Any, Any]]]]
    ) -> Iterable[tuple[Any, tuple[list[Any], list[Any]]]]:
        grouped: dict[Any, tuple[list[Any], list[Any]]] = defaultdict(
            lambda: ([], [])
        )
        for side, chunk in chunks:
            for key, value in chunk:
                grouped[key][side].append(value)
        return ((key, (values[0], values[1])) for key, values in grouped.items())


def execute_shuffle(
    context: "EngineContext",
    partitioner: Partitioner,
    sides: Sequence[tuple[Sequence[Sequence[tuple[Any, Any]]], MapSideCombiner | None]],
    reduce_task: ShuffleReduceTask,
    name: str,
) -> list[list[Any]]:
    """Run a full shuffle (map stage per side, one reduce stage) and return
    the reduced partitions.

    ``sides`` is a list of ``(parent partitions, map-side combiner)`` pairs —
    one entry for a plain shuffle, two for a cogroup.  Both phases dispatch
    through ``context.executor``, so under a process executor the map-side
    combine, the block publish, the block fetch and the reduce-side merge all
    run in worker processes (the recorded task metrics carry the worker
    pids); under the serial executor everything runs in the driver in
    partition order, byte-identical to the historical in-driver shuffle.

    The driver transposes only :class:`BlockRef` handles between the phases.
    Per-task metrics record the shuffled records, the total payload bytes
    (``shuffle_write_bytes`` — a property of the job, identical across
    executors and stores) and the driver-relayed vs peer-transferred split
    (``shuffle_relay_bytes`` / ``shuffle_peer_bytes`` — a property of the
    block store).  Every published block is released — the segment or spill
    file unlinked and its sweep protection dropped — after the reduce stage,
    success or failure, so no block outlives the shuffle that made it.
    """
    num_reduce = partitioner.num_partitions
    tagged = len(sides) > 1
    store = getattr(context, "block_store", None) or _DEFAULT_STORE
    reduce_inputs: list[list[Any]] = [[] for _ in range(num_reduce)]
    read_records = [0] * num_reduce
    read_bytes = [0] * num_reduce
    published: list[BlockRef] = []

    try:
        for side_index, (parent_partitions, combiner) in enumerate(sides):
            map_task = ShuffleMapTask(partitioner, combiner, store)
            side_suffix = f".side{side_index}" if tagged else ""
            stage_name = f"{name}.map{side_suffix}"
            result = context.executor.run_stage(
                [map_task], parent_partitions, name=stage_name
            )
            context.merge_stage_result(result)
            stage = context.scheduler.new_stage(stage_name, executor=result.executor)
            for index, outcome in enumerate(result.tasks):
                refs = outcome.partition[0]
                task_records = 0
                task_bytes = 0
                task_relay = 0
                task_peer = 0
                for reduce_index, ref in enumerate(refs):
                    if ref is None:
                        continue
                    published.append(ref)
                    task_records += ref.records
                    task_bytes += ref.payload_bytes
                    task_relay += ref.relay_bytes()
                    task_peer += ref.peer_bytes()
                    read_records[reduce_index] += ref.records
                    read_bytes[reduce_index] += ref.payload_bytes
                    reduce_inputs[reduce_index].append(
                        (side_index, ref) if tagged else ref
                    )
                context.scheduler.record_task(
                    stage,
                    index,
                    input_records=len(parent_partitions[index]),
                    output_records=task_records,
                    shuffle_write_records=task_records,
                    shuffle_write_bytes=task_bytes,
                    shuffle_relay_bytes=task_relay,
                    shuffle_peer_bytes=task_peer,
                    elapsed_seconds=outcome.elapsed_seconds,
                    worker=outcome.worker,
                    attempts=outcome.attempts,
                    failures=outcome.failures,
                    max_rss_bytes=outcome.max_rss_bytes,
                )

        result = context.executor.run_stage(
            [FetchBlocksTask(tagged), reduce_task],
            reduce_inputs,
            name=f"{name}.reduce",
        )
        context.merge_stage_result(result)
        stage = context.scheduler.new_stage(f"{name}.reduce", executor=result.executor)
        partitions: list[list[Any]] = []
        for index, outcome in enumerate(result.tasks):
            partition = outcome.partition
            partitions.append(partition)
            context.scheduler.record_task(
                stage,
                index,
                input_records=read_records[index],
                output_records=len(partition),
                shuffle_read_records=read_records[index],
                shuffle_read_bytes=read_bytes[index],
                elapsed_seconds=outcome.elapsed_seconds,
                worker=outcome.worker,
                attempts=outcome.attempts,
                failures=outcome.failures,
                max_rss_bytes=outcome.max_rss_bytes,
            )
        return partitions
    finally:
        for ref in published:
            try:
                ref.release()
            except Exception:  # pragma: no cover - release is best-effort
                pass


_DEFAULT_STORE = DriverBlockStore()
