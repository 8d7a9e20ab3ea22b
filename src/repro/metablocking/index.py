"""CSR-backed block index — the shared payload of the meta-blocking join.

The paper's parallel meta-blocking never materialises the blocking graph as an
edge list: each task receives a compact block index and materialises one node
neighbourhood at a time.  This module is the compact index, stored as
contiguous offset arrays (CSR style):

* ``node_block_offsets`` / ``node_block_entries`` — the blocks of each node
  (profile → blocks), with the node's source side encoded in the entry so no
  membership scan is ever needed to orient a clean-clean block;
* ``block_offsets`` / ``block_nodes`` / ``block_split`` — the members of each
  block (block → profiles), source-0 members first;
* ``block_inv_cardinality`` / ``block_entropy`` — per-block ``1/||b||`` (ARCS)
  and entropy (BLAST), precomputed once;
* a lazily computed, cached degree vector, so weighting schemes that need the
  neighbour's degree (EJS) or the total edge count read a vector entry instead
  of re-materialising the neighbour's full neighbourhood per edge.

Node ids are dense (0..n-1) and order-isomorphic to the profile ids
(``node_ids`` is sorted), so canonical pair ordering carries over.

Every numeric field is an ``int64`` / ``float64`` ndarray, built by one array
builder (two sorts and prefix sums over the flattened membership stream,
which a column-backed :class:`BlockCollection` already is).  ``node_ids`` is a
plain ``list[int]``, so emitted pairs hold python ints.  Neighbourhoods are
materialised by :class:`~repro.metablocking.backends.NumpyKernel`, whose one
emission order (node-major first-touch) and one accumulation order keep every
driving path — sequential run, parallel range tasks, progressive streams,
the service's delta refresh — bit-for-bit equivalent.

The index can additionally export its buffers into a
:class:`multiprocessing.shared_memory` segment (:meth:`export_shared`): the
pickle then carries only the segment name and layout, so a process pool maps
the index once per machine instead of deserialising a copy per worker.

A **buffer backend** decides where the numeric vectors live (the
``buffer_backend`` engine option): ``ram`` keeps what the builder produced
while ``memmap`` writes them into one file-backed :class:`numpy.memmap`
buffer under the managed temp root (:mod:`repro.engine.tmpfiles`), so the OS
can page the index in and out and peak RSS no longer has to hold it.  The
kernel reads either representation zero-copy, so the retained edges are
bit-for-bit identical across buffer backends; lifecycle mirrors the shared
segment (explicit :meth:`close`, GC finalizer backstop, dead-pid crash sweep).
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from itertools import chain

import numpy as np

from repro.blocking.block import BlockCollection
from repro.metablocking import backends as _backends
from repro.options import EngineOptions

# Buffers that travel through the shared-memory segment, with their typecode.
_SHARED_FIELDS = (
    ("node_block_offsets", "q"),
    ("node_block_entries", "q"),
    ("node_block_count", "q"),
    ("block_offsets", "q"),
    ("block_nodes", "q"),
    ("block_split", "q"),
    ("block_cardinality", "q"),
    ("block_inv_cardinality", "d"),
    ("block_entropy", "d"),
)


class CSRBlockIndex:
    """Array-backed block index shared by the sequential and parallel paths.

    Build with :meth:`from_blocks`; the constructor only wires pre-built
    arrays together.  This is the leaf that acts on the ``buffer_backend`` /
    ``tmp_dir`` engine options: ``options`` are the resolved
    :class:`~repro.options.EngineOptions` handed down from the entry point
    (``None`` resolves environment and defaults here).
    """

    __slots__ = (
        "node_ids",
        "node_block_offsets",
        "node_block_entries",
        "node_block_count",
        "block_offsets",
        "block_nodes",
        "block_split",
        "block_cardinality",
        "block_inv_cardinality",
        "block_entropy",
        "total_blocks",
        "clean_clean",
        "_buffer_backend",
        "_node_of",
        "_kernel",
        "_degrees",
        "_num_edges",
        "_plans",
        "_shared",
        "_mmap_path",
        "_mmap_base",
        "_mmap_finalizer",
        "__weakref__",
    )

    def __init__(self, options: "EngineOptions | None" = None) -> None:
        options = options or EngineOptions.resolve()
        empty_i, empty_f = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        self.node_ids: list[int] = []
        self.node_block_offsets = np.zeros(1, dtype=np.int64)
        self.node_block_entries = empty_i
        self.node_block_count = empty_i
        self.block_offsets = np.zeros(1, dtype=np.int64)
        self.block_nodes = empty_i
        # Source-0 member count for clean-clean blocks; -1 marks a dirty block
        # whose comparisons pair the member list with itself.
        self.block_split = empty_i
        self.block_cardinality = empty_i
        self.block_inv_cardinality = empty_f
        self.block_entropy = empty_f
        self.total_blocks = 0
        self.clean_clean = False
        self._buffer_backend = options.buffer_backend
        self._node_of: dict[int, int] | None = None  # lazy, see node_of
        self._kernel = None
        self._degrees = None
        self._num_edges: int | None = None
        self._plans: dict = {}
        self._shared = None
        self._mmap_path: str | None = None
        self._mmap_base = None
        self._mmap_finalizer = None

    # ------------------------------------------------------------------ build
    @classmethod
    def from_blocks(
        cls, blocks: BlockCollection, options: "EngineOptions | None" = None
    ) -> "CSRBlockIndex":
        """Build the index from a block collection.

        Blocks that induce no comparison are skipped; ``total_blocks`` still
        counts them because ECBS normalises by the raw collection size.  A
        column-backed collection hands its membership vectors straight to
        the array builder — they already are its input stream, and every
        block in them induces a comparison; an object-backed one hands its
        member sets to :meth:`_from_valid_blocks` as they are — no sorted
        copy per block.
        """
        columns = blocks.columns
        if columns is None:
            kept = [block for block in blocks if block.num_comparisons()]
            return cls._from_valid_blocks(
                [block.profiles_source0 for block in kept],
                [block.profiles_source1 for block in kept],
                [block.entropy for block in kept],
                [block.is_clean_clean for block in kept],
                clean_clean=blocks.clean_clean,
                total_blocks=len(blocks),
                options=options,
            )
        cleans = np.full(len(blocks), blocks.clean_clean)
        return cls._build(
            (columns.lengths(), columns.members, columns.entropies, cleans),
            blocks.clean_clean, len(blocks), options,
        )

    @classmethod
    def _from_valid_blocks(
        cls,
        sides0,
        sides1,
        entropies,
        cleans,
        *,
        clean_clean: bool,
        total_blocks: int,
        options: "EngineOptions | None" = None,
    ) -> "CSRBlockIndex":
        """Build the index from the comparison-inducing blocks, column-wise.

        Four aligned sequences, one element per block: the source-0 and
        source-1 member collections (any sized iterable of profile ids,
        **unsorted**; the right side is empty for a dirty block), the block
        entropy and whether the block is clean-clean.  Every block must
        induce at least one comparison.  :meth:`from_blocks` reads the
        columns off an object-backed :class:`BlockCollection`,
        :meth:`IncrementalBlockIndex.compact` off its per-token overlay, so
        compaction is bit-for-bit identical to a from-scratch build by
        construction.  The member collections are flattened into the
        builder's ``(lengths, profiles)`` stream here.
        """
        lengths = np.empty(2 * len(sides0), dtype=np.int64)
        lengths[0::2] = np.fromiter(map(len, sides0), np.int64, len(sides0))
        lengths[1::2] = np.fromiter(map(len, sides1), np.int64, len(sides0))
        profiles = np.fromiter(
            chain.from_iterable(chain.from_iterable(zip(sides0, sides1))),
            np.int64,
            int(lengths.sum()),
        )
        return cls._build(
            (lengths, profiles, entropies, cleans), clean_clean, total_blocks, options
        )

    @classmethod
    def _build(cls, inputs, clean_clean, total_blocks, options) -> "CSRBlockIndex":
        """Run the array builder over its input; ``memmap`` then writes the
        result once into a file.  On any build error the partially
        constructed index is :meth:`close`\\ d (no leaked memmap buffer)."""
        options = options or EngineOptions.resolve()
        index = cls(options)
        index.clean_clean = clean_clean
        index.total_blocks = total_blocks
        try:
            cls._populate_arrays(index, *inputs)
            if index._buffer_backend == "memmap":
                index._materialise_memmap(options.tmp_dir)
            return index
        except BaseException:
            index.close()
            raise

    @staticmethod
    def _populate_arrays(index, lengths, profiles, entropies, cleans) -> None:
        """The array builder: two sorts and scans over the flattened stream.

        Its input is the membership stream block by block, left side then
        right — ``lengths`` per ``entry = 2 * block + side`` and the
        ``profiles`` in that order (unsorted inside an entry is fine): what a
        column-backed collection stores, and what :meth:`_from_valid_blocks`
        flattens member collections into.  Sorting the composite ``(entry,
        dense)`` key orders each side by dense id (``block_nodes``), and a
        stable sort of that by node keeps each node's entries ascending
        (``node_block_entries``).  The composite key stays below 2**63 for
        any index that fits in memory (``2 * memberships**2``).
        """
        num_blocks = len(lengths) // 2
        node_ids, dense = np.unique(profiles, return_inverse=True)
        n = len(node_ids)
        entries = np.repeat(np.arange(2 * num_blocks, dtype=np.int64), lengths)
        block_nodes = np.sort(entries * n + dense) % max(n, 1)
        by_node = np.argsort(block_nodes, kind="stable")
        owners = block_nodes[by_node]
        node_entries = entries[by_node]
        per_node = np.bincount(block_nodes, minlength=n)
        # A profile on both sides of one block holds two adjacent entries of
        # that block but counts the block once.
        twice = (owners[1:] == owners[:-1]) & (node_entries[1:] >> 1 == node_entries[:-1] >> 1)
        left, right = lengths[0::2], lengths[1::2]
        clean = np.asarray(cleans, dtype=bool)
        cardinality = np.where(clean, left * right, left * (left - 1) // 2)
        zero = np.zeros(1, dtype=np.int64)
        # A plain list: pair tuples are built from it, so emitted edges hold
        # python ints.
        index.node_ids = node_ids.tolist()
        index.node_block_offsets = np.concatenate((zero, np.cumsum(per_node)))
        index.node_block_entries = node_entries
        index.node_block_count = per_node - np.bincount(owners[1:][twice], minlength=n)
        index.block_offsets = np.concatenate((zero, np.cumsum(left + right)))
        index.block_nodes = block_nodes
        index.block_split = np.where(clean, left, -1)
        index.block_cardinality = cardinality
        index.block_inv_cardinality = 1.0 / cardinality
        index.block_entropy = np.asarray(entropies, dtype=np.float64)

    def _materialise_memmap(self, tmp_dir: str) -> None:
        """Rewrite the numeric vectors into one file-backed memmap buffer.

        All nine :data:`_SHARED_FIELDS` vectors (8-byte items, so layout is
        trivially aligned) are packed back-to-back into a single
        ``repro-csrbuf-<pid>-<seq>`` file and the attributes replaced with
        zero-copy views into it.  ``node_ids`` deliberately stays a plain
        Python list: pair tuples are built from it, and keeping it native
        keeps the emitted edges type-identical to the ram backend.  The file
        is unlinked by :meth:`close` (or a GC finalizer backstop) and by the
        dead-pid crash sweep of :mod:`repro.engine.tmpfiles`.
        """
        from repro.engine import tmpfiles as _tmpfiles

        lengths = [len(getattr(self, fld)) for fld, _tc in _SHARED_FIELDS]
        total_bytes = 8 * sum(lengths)
        path = _tmpfiles.make_artifact_path("csrbuf", tmp_dir)
        try:
            base = np.memmap(
                path, dtype=np.uint8, mode="w+", shape=(max(total_bytes, 1),)
            )
            offset = 0
            for (fld, typecode), length in zip(_SHARED_FIELDS, lengths):
                dtype = np.int64 if typecode == "q" else np.float64
                view = base[offset : offset + 8 * length].view(dtype)
                view[:] = getattr(self, fld)
                setattr(self, fld, view)
                offset += 8 * length
            base.flush()
        except BaseException:
            # The buffer file never reached a usable state: reclaim it now
            # instead of leaning on the GC finalizer / dead-pid sweep.
            _tmpfiles.discard_artifact(path)
            raise
        self._mmap_path = path
        self._mmap_base = base
        self._mmap_finalizer = weakref.finalize(
            self, _tmpfiles.discard_artifact, path
        )

    # ------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        """Ship every array plus the cached degree vector, never the kernel.

        The index is the shared payload of the parallel meta-blocking;
        each worker process builds its own scratch kernel on first use, so
        the kernel (and its buffers / cached sweeps and weight plans) stays
        out of the pickle.  The per-block stat vectors and — when cached —
        the degree vector *do* ship, so workers never redo a full sweep.

        When the buffers were exported to shared memory the state carries
        only the segment name and field layout — the worker attaches and
        maps, it never deserialises the buffers.

        A memmap-backed index ships in-memory copies of its vectors: the
        file is local to the building process, so the receiver holds a
        private ram copy while ``_buffer_backend`` still records the label.
        Process pools avoid this copy entirely via :meth:`export_shared`.
        """
        small = {
            "total_blocks": self.total_blocks,
            "clean_clean": self.clean_clean,
            "_buffer_backend": self._buffer_backend,
            "_num_edges": self._num_edges,
        }
        if self._shared is not None and not self._shared.released:
            small["shared_name"] = self._shared.name
            small["shared_layout"] = self._shared.layout
            return small
        state = {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot
            not in (
                "_kernel",
                "_plans",
                "_shared",
                "_mmap_path",
                "_mmap_base",
                "_mmap_finalizer",
                "__weakref__",
            )
        }
        if self._mmap_base is not None:
            for fld, _typecode in _SHARED_FIELDS:
                state[fld] = np.array(getattr(self, fld))
        return state

    def __setstate__(self, state: dict) -> None:
        self._kernel = None
        self._plans = {}
        self._shared = None
        self._mmap_path = None
        self._mmap_base = None
        self._mmap_finalizer = None
        if "shared_name" in state:
            self._attach_shared(state)
            return
        for slot, value in state.items():
            setattr(self, slot, value)

    def _attach_shared(self, state: dict) -> None:
        """Rebuild from a shared-memory reference (worker side, zero-copy)."""
        from repro.metablocking.sharedmem import SharedIndexBuffers

        self._shared = SharedIndexBuffers.attach(
            state["shared_name"], state["shared_layout"]
        )
        views = self._shared.views()
        for field, _typecode in _SHARED_FIELDS:
            setattr(self, field, views[field])
        self.node_ids = views["node_ids"]
        self._degrees = views.get("degrees")
        self._node_of = None  # rebuilt lazily; node_ids is the source of truth
        self.total_blocks = state["total_blocks"]
        self.clean_clean = state["clean_clean"]
        self._buffer_backend = state.get("_buffer_backend", "ram")
        self._num_edges = state["_num_edges"]

    # -------------------------------------------------------- shared memory
    def export_shared(self):
        """Copy the numeric buffers into one shared-memory segment.

        After export, pickling this index ships only the segment reference;
        process-pool workers attach instead of deserialising.  The degree
        vector rides along when it is already cached — a job whose weight
        plan reads degrees (EJS) resolves it before exporting, everything
        else never pays for the sweep.

        Idempotent; returns the :class:`SharedIndexBuffers` handle.  The
        segment is unlinked by :meth:`close` or, as a backstop, when the
        index is garbage collected.
        """
        if self._shared is not None and not self._shared.released:
            return self._shared
        from repro.metablocking.sharedmem import SharedIndexBuffers

        fields: dict = {
            field: (getattr(self, field), typecode)
            for field, typecode in _SHARED_FIELDS
        }
        fields["node_ids"] = (np.asarray(self.node_ids, dtype=np.int64), "q")
        if self._degrees is not None:
            fields["degrees"] = (self._degrees, "q")
        self._shared = SharedIndexBuffers.export(fields)
        return self._shared

    def close(self) -> None:
        """Release every OS-level resource the index holds; idempotent.

        Unlinks the exported shared-memory segment (if any) and the
        memmap buffer file (if the ``memmap`` buffer backend built one).
        A garbage-collected index discards the memmap file through a
        :func:`weakref.finalize` backstop, and a crashed process's file is
        reclaimed by the dead-pid sweep — ``close()`` is simply the prompt
        path.

        Safe on any instance, however incomplete: an index whose build
        failed mid-way (or whose ``__init__`` never ran, e.g. a broken
        unpickle) may miss some slots entirely, so every resource handle is
        read with a default instead of assumed present.
        """
        shared = getattr(self, "_shared", None)
        if shared is not None:
            shared.release()
        finalizer = getattr(self, "_mmap_finalizer", None)
        if finalizer is not None:
            finalizer()
        self._mmap_finalizer = None
        self._mmap_base = None
        self._mmap_path = None

    # ------------------------------------------------------------- properties
    @property
    def buffer_backend(self) -> str:
        """The resolved buffer backend of this index (``ram`` / ``memmap``)."""
        return self._buffer_backend

    @property
    def memmap_path(self) -> "str | None":
        """Path of the file-backed buffer, or ``None`` under the ram backend."""
        return self._mmap_path

    @property
    def node_of(self) -> dict[int, int]:
        """profile id → dense node id (rebuilt lazily after a shared attach)."""
        if self._node_of is None:
            ids = self.node_ids
            ids = ids.tolist() if hasattr(ids, "tolist") else ids
            self._node_of = {profile_id: dense for dense, profile_id in enumerate(ids)}
        return self._node_of

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def num_blocks(self) -> int:
        """Number of comparison-inducing blocks kept in the index."""
        return len(self.block_split)

    # ----------------------------------------------------------------- kernel
    def kernel(self):
        """The (cached) :class:`~repro.metablocking.backends.NumpyKernel`.

        One per index instance, i.e. per process: the serial executor's
        tasks share the driver's, every pool worker builds its own, and tasks
        within a process run strictly one at a time.
        """
        if self._kernel is None:
            self._kernel = _backends.NumpyKernel(self)
        return self._kernel

    def weight_plan(self, scheme, use_entropy: bool):
        """The (cached) weight plan for one (scheme, use_entropy) job."""
        from repro.metablocking.weights import WeightingScheme

        key = (WeightingScheme.parse(scheme), bool(use_entropy))
        plan = self._plans.get(key)
        if plan is None:
            plan = _backends.make_weight_plan(self, key[0], key[1])
            self._plans[key] = plan
        return plan

    def degree_vector(self):
        """Per-node blocking-graph degree, computed once and cached.

        Read off the kernel's cached whole-graph sweep; every later degree
        lookup — EJS's ``degree_b`` per neighbour, the global edge count — is
        O(1).
        """
        if self._degrees is None:
            self._degrees = self.kernel().degrees()
        return self._degrees

    def num_edges(self) -> int:
        """Number of distinct blocking-graph edges (from the degree vector)."""
        if self._num_edges is None:
            self._num_edges = int(self.degree_vector().sum()) // 2
        return self._num_edges


# --------------------------------------------------------------------------
# Incremental layer
# --------------------------------------------------------------------------


class _TokenState:
    """Mutable per-token block of the incremental index.

    Holds the raw member sets plus the cached pair of sorted member lists
    the builder is fed (snapshots of the sets; the builder itself does not
    depend on their order).  ``dirty``
    marks tokens touched since the pair was last derived, so a compaction
    re-sorts only the blocks an append actually extended; a ``None`` cache
    means the block currently induces no comparison and is skipped, exactly
    like :meth:`Block.is_valid` filtering in token blocking.
    """

    __slots__ = ("members0", "members1", "dirty", "cached")

    def __init__(self) -> None:
        self.members0: set[int] = set()
        self.members1: set[int] = set()
        self.dirty = True
        self.cached: "tuple | None" = None

    def __getstate__(self):
        return (self.members0, self.members1, self.dirty, self.cached)

    def __setstate__(self, state) -> None:
        self.members0, self.members1, self.dirty, self.cached = state


class AppendDelta:
    """What one :meth:`IncrementalBlockIndex.append_profiles` call touched.

    ``new_profile_ids`` are the appended profiles, ``touched_tokens`` the
    blocking keys they extended and ``touched_profile_ids`` every member of
    a touched block *after* the append (the appended profiles included) —
    what the service's ingest summary reports.  Meta-blocking does not read
    it: the delta meta-blocker recomputes per compaction.
    """

    __slots__ = ("new_profile_ids", "touched_tokens", "touched_profile_ids")

    def __init__(self, new_profile_ids, touched_tokens, touched_profile_ids):
        self.new_profile_ids: "tuple[int, ...]" = tuple(new_profile_ids)
        self.touched_tokens: "frozenset[str]" = frozenset(touched_tokens)
        self.touched_profile_ids: "frozenset[int]" = frozenset(touched_profile_ids)

    def __getstate__(self):
        return (self.new_profile_ids, self.touched_tokens, self.touched_profile_ids)

    def __setstate__(self, state) -> None:
        self.new_profile_ids, self.touched_tokens, self.touched_profile_ids = state

    def __repr__(self) -> str:
        return (
            f"AppendDelta(profiles={len(self.new_profile_ids)}, "
            f"tokens={len(self.touched_tokens)}, "
            f"touched={len(self.touched_profile_ids)})"
        )


class IncrementalBlockIndex:
    """Append-only token-blocking index with periodic CSR compaction.

    The batch pipeline rebuilds the whole :class:`CSRBlockIndex` per run;
    this class is the long-lived variant the service layer ingests into.
    :meth:`append_profiles` tokenises new profiles exactly like
    :class:`~repro.blocking.token_blocking.TokenBlocking` (same tokenizer,
    same per-source grouping) and extends the touched token blocks in a
    delta overlay — plain per-token member sets — without rebuilding
    anything.  :meth:`compact` folds the overlay into a fresh contiguous
    CSR: cached build tuples are recomputed *only* for dirty tokens, and
    construction routes through the same
    :meth:`CSRBlockIndex._from_valid_blocks` builder the batch path uses,
    so the compacted index is bit-for-bit identical to
    ``CSRBlockIndex.from_blocks(TokenBlocking(...).block(union))`` on the
    union collection (token blocking emits blocks in sorted-key order and
    keeps only comparison-inducing ones; so does the compactor).

    ``clean_clean`` is declared up front — the incremental collection grows,
    so it cannot be inferred from the data the way
    :attr:`ProfileCollection.is_clean_clean` does; callers must declare the
    task shape and feed matching source ids.  Profile ids must arrive in
    strictly increasing order (the natural ingest order), which keeps "new
    profile" well-defined and rejects duplicate ids early.

    ``compact_every=N`` auto-compacts after every N appended profiles;
    otherwise compaction happens lazily on :meth:`materialise` (the query
    path).  Pickling drops the built CSR — a restored instance rebuilds it
    with one compaction, which the snapshot/restore story of the service
    relies on.  ``options`` are the engine options each compaction builds
    its CSR under.
    """

    __slots__ = (
        "clean_clean",
        "min_token_length",
        "remove_stopwords",
        "compact_every",
        "appended_profiles",
        "compactions",
        "options",
        "_tokens",
        "_profile_ids",
        "_last_profile_id",
        "_stale",
        "_since_compact",
        "_csr",
        "__weakref__",
    )

    def __init__(
        self,
        *,
        clean_clean: bool = False,
        min_token_length: int = 1,
        remove_stopwords: bool = False,
        compact_every: "int | None" = None,
        options: "EngineOptions | None" = None,
    ) -> None:
        if compact_every is not None and compact_every < 1:
            from repro.exceptions import DataError

            raise DataError("compact_every must be a positive integer or None")
        self.clean_clean = clean_clean
        self.min_token_length = min_token_length
        self.remove_stopwords = remove_stopwords
        self.compact_every = compact_every
        self.appended_profiles = 0
        self.compactions = 0
        self.options = options or EngineOptions.resolve()
        self._tokens: dict[str, _TokenState] = {}
        self._profile_ids: list[int] = []
        self._last_profile_id = -1
        self._stale = True
        self._since_compact = 0
        self._csr: "CSRBlockIndex | None" = None

    # ------------------------------------------------------------------ ingest
    def append_profiles(self, profiles) -> AppendDelta:
        """Tokenise and index new profiles; return what they touched.

        ``profiles`` is any iterable of
        :class:`~repro.data.profile.EntityProfile`; ids must be strictly
        greater than every previously appended id.  Only the token blocks
        the new profiles belong to are marked dirty — everything else keeps
        its cached build tuple across the next compaction.
        """
        from repro.exceptions import DataError

        new_ids: list[int] = []
        touched: set[str] = set()
        for profile in profiles:
            profile_id = profile.profile_id
            if profile_id <= self._last_profile_id:
                raise DataError(
                    "append_profiles requires strictly increasing profile ids: "
                    f"got {profile_id} after {self._last_profile_id}"
                )
            self._last_profile_id = profile_id
            self._profile_ids.append(profile_id)
            new_ids.append(profile_id)
            # Mirror repro.blocking.base.group_token_keys: in a clean-clean task
            # source 1 fills the right side, everything else the left.
            side1 = self.clean_clean and profile.source_id == 1
            for token in profile.tokens(
                min_length=self.min_token_length,
                remove_stopwords=self.remove_stopwords,
            ):
                state = self._tokens.get(token)
                if state is None:
                    state = _TokenState()
                    self._tokens[token] = state
                (state.members1 if side1 else state.members0).add(profile_id)
                state.dirty = True
                touched.add(token)
        touched_profiles: set[int] = set()
        for token in touched:
            state = self._tokens[token]
            touched_profiles |= state.members0
            touched_profiles |= state.members1
        if new_ids:
            self.appended_profiles += len(new_ids)
            self._since_compact += len(new_ids)
            self._stale = True
        delta = AppendDelta(new_ids, touched, touched_profiles)
        if self.compact_every is not None and self._since_compact >= self.compact_every:
            self.compact()
        return delta

    # ------------------------------------------------------------- compaction
    def _valid_tuple(self, state: _TokenState) -> "tuple | None":
        """The sorted member lists of one token block (None = no comparison).

        Validity mirrors :meth:`Block.num_comparisons`, so the kept blocks
        are exactly the ones :meth:`CSRBlockIndex.from_blocks` would keep of
        the equivalent token-blocking output.
        """
        if self.clean_clean:
            cardinality = len(state.members0) * len(state.members1)
        else:
            n = len(state.members0)
            cardinality = n * (n - 1) // 2
        if cardinality == 0:
            return None
        return (sorted(state.members0), sorted(state.members1))

    def compact(self) -> CSRBlockIndex:
        """Fold the delta overlay into a fresh contiguous CSR index.

        Only dirty tokens re-derive their cached columns; the valid blocks
        are then fed in sorted-token order to the shared builder (entropy
        1.0, the :class:`Block` default).  The previous CSR (if any) is
        closed only after the new one is fully built, so a failed compaction
        leaves the old index usable.
        """
        sides0: list = []
        sides1: list = []
        for token in sorted(self._tokens):
            state = self._tokens[token]
            if state.dirty:
                state.cached = self._valid_tuple(state)
                state.dirty = False
            if state.cached is not None:
                sides0.append(state.cached[0])
                sides1.append(state.cached[1])
        rebuilt = CSRBlockIndex._from_valid_blocks(
            sides0,
            sides1,
            [1.0] * len(sides0),
            [self.clean_clean] * len(sides0),
            clean_clean=self.clean_clean,
            total_blocks=len(sides0),
            options=self.options,
        )
        if self._csr is not None:
            self._csr.close()
        self._csr = rebuilt
        self._stale = False
        self._since_compact = 0
        self.compactions += 1
        return rebuilt

    def materialise(self) -> CSRBlockIndex:
        """The current CSR index, compacting first if appends made it stale."""
        if self._csr is None or self._stale:
            return self.compact()
        return self._csr

    # ------------------------------------------------------------- inspection
    @property
    def is_stale(self) -> bool:
        """True when appends happened after the last compaction."""
        return self._stale or self._csr is None

    @property
    def num_profiles(self) -> int:
        """Number of profiles appended so far (tokenless ones included)."""
        return len(self._profile_ids)

    @property
    def num_tokens(self) -> int:
        """Number of distinct blocking keys seen so far."""
        return len(self._tokens)

    @property
    def last_profile_id(self) -> int:
        """Highest profile id appended so far (-1 when empty)."""
        return self._last_profile_id

    def profile_ids(self) -> list[int]:
        """All appended profile ids, in (strictly increasing) ingest order."""
        return list(self._profile_ids)

    def has_profile(self, profile_id: int) -> bool:
        """True when ``profile_id`` was appended (bisect on the sorted ids)."""
        ids = self._profile_ids
        position = bisect_left(ids, profile_id)
        return position < len(ids) and ids[position] == profile_id

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the built CSR (if any); idempotent, safe when never built."""
        csr = getattr(self, "_csr", None)
        if csr is not None:
            csr.close()
        self._csr = None
        self._stale = True

    # --------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        """Ship the overlay, never the CSR (one compaction rebuilds it) nor
        the options: which buffer backend and temp root to compact under
        belongs to the process that compacts, so a restored index resolves
        them afresh (or its owning collection assigns its own)."""
        state = {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("_csr", "options", "__weakref__")
        }
        state["_stale"] = True
        return state

    def __setstate__(self, state: dict) -> None:
        self._csr = None
        self.options = EngineOptions.resolve()
        for slot, value in state.items():
            # Snapshots written before EngineOptions pickled the three knob
            # specs; they are re-resolved now, like every restored index.
            if slot not in ("_backend", "_buffer_backend", "_tmp_dir"):
                setattr(self, slot, value)
