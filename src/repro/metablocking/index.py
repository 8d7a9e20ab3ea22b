"""CSR-backed block index — the broadcast payload of the meta-blocking join.

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
builder (one sort and prefix sums over the membership stream of a
:class:`BlockCollection`'s columns, its blocks that induce a comparison).
``node_ids`` is a plain ``list[int]``, so emitted pairs hold python ints.
Neighbourhoods are materialised by
:class:`~repro.metablocking.backends.NumpyKernel`, whose one emission order
(node-major first-touch) and one accumulation order keep every driving path
— sequential run, parallel range tasks, progressive streams, the service's
delta refresh — bit-for-bit equivalent.

The index lives in process memory only.  The broadcast join is described and
run as a range map in the driver, so every range task reads this one index.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.blocking.block import BlockCollection, BlockColumns
from repro.blocking.token_blocking import group_tokens
from repro.metablocking import backends as _backends
from repro.utils.tokenize import token_table

# The index's numeric buffers and their dtype; ``node_ids`` is a list.
ARRAY_FIELDS = {
    "node_block_offsets": np.int64,
    "node_block_entries": np.int64,
    "node_block_count": np.int64,
    "block_offsets": np.int64,
    "block_nodes": np.int64,
    "block_split": np.int64,
    "block_cardinality": np.int64,
    "block_inv_cardinality": np.float64,
    "block_entropy": np.float64,
}


class CSRBlockIndex:
    """Array-backed block index shared by the sequential and parallel paths.

    Build with :meth:`from_blocks`; the constructor only wires pre-built
    arrays together.
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
        "_node_of",
        "_kernel",
        "_degrees",
        "_num_edges",
        "_plans",
    )

    def __init__(self) -> None:
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
        self._node_of: dict[int, int] | None = None  # lazy, see node_of
        self._kernel = None
        self._degrees = None
        self._num_edges: int | None = None
        self._plans: dict = {}

    # ------------------------------------------------------------------ build
    @classmethod
    def from_blocks(cls, blocks: BlockCollection) -> "CSRBlockIndex":
        """Build the index from a block collection.

        The blocks that induce a comparison are selected from the columns
        and handed to the array builder; ``total_blocks`` still counts every
        block because ECBS normalises by the raw collection size.
        """
        columns = blocks.columns
        index = cls()
        index.clean_clean = blocks.clean_clean
        index.total_blocks = len(blocks)
        cardinality = columns.cardinalities()[1]
        kept = cardinality > 0
        # Rebound, so the vectors over every block are freed before the build.
        columns, cardinality = columns.select(kept), cardinality[kept]
        del kept
        cls._populate_arrays(index, columns, cardinality)
        return index

    @staticmethod
    def _populate_arrays(index, columns, cardinality) -> None:
        """The array builder: one sort and scans over the membership stream.

        Its input is :class:`~repro.blocking.block.BlockColumns` of blocks
        that each induce a comparison, and their comparison counts
        (``cardinality``, positive).  Members ascend inside an entry, so
        their dense ids, entry after entry, already are ``block_nodes``;
        sorting the ``dense << bits | entry`` codes lists each node's
        entries ascending (``node_block_entries``).  The codes stay below
        2**63 for any index that fits in memory.
        """
        entries, lengths = columns.entries, columns.lengths()
        node_ids, block_nodes = _backends.unique_inverse(columns.members)
        n = len(node_ids)
        entry_bits = max(len(lengths) - 1, 0).bit_length()
        owners = np.sort((block_nodes << entry_bits) | entries)
        node_entries = owners & ((1 << entry_bits) - 1)
        owners >>= entry_bits
        per_node = np.bincount(block_nodes, minlength=n)
        # A profile on both sides of one block holds two adjacent entries of
        # that block but counts the block once.
        twice = (owners[1:] == owners[:-1]) & (node_entries[1:] >> 1 == node_entries[:-1] >> 1)
        left, right = lengths[0::2], lengths[1::2]
        zero = np.zeros(1, dtype=np.int64)
        # A plain list: pair tuples are built from it, so emitted edges hold
        # python ints.
        index.node_ids = node_ids.tolist()
        index.node_block_offsets = np.concatenate((zero, np.cumsum(per_node)))
        index.node_block_entries = node_entries
        index.node_block_count = per_node - np.bincount(owners[1:][twice], minlength=n)
        index.block_offsets = np.concatenate((zero, np.cumsum(left + right)))
        index.block_nodes = block_nodes
        index.block_split = np.where(columns.cleans, left, -1)
        index.block_cardinality = cardinality
        index.block_inv_cardinality = 1.0 / cardinality
        index.block_entropy = columns.entropies

    def close(self) -> None:
        """Nothing to release — the index holds process memory only.

        Kept so callers that scope an index to a ``try``/``finally`` still
        run unchanged.
        """

    # ------------------------------------------------------------- properties
    @property
    def node_of(self) -> dict[int, int]:
        """profile id → dense node id, built on first use."""
        if self._node_of is None:
            self._node_of = {profile_id: dense for dense, profile_id in enumerate(self.node_ids)}
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

        One per index instance: the range tasks of a map share it and run
        strictly one at a time.
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

        One pass of the kernel's range sweeps counts it; every later degree
        lookup — EJS's ``degree_b`` per neighbour, its global edge count — is
        O(1).
        """
        if self._degrees is None:
            self._degrees = self.kernel().degrees()
        return self._degrees

    def num_edges(self) -> int:
        """Number of distinct blocking-graph edges: the index's blocks, as
        columns, counted by :meth:`BlockCollection.count_distinct_comparisons`."""
        if self._num_edges is None:
            sizes, clean = np.diff(self.block_offsets), self.block_split >= 0
            left = np.where(clean, self.block_split, sizes)
            lengths = np.column_stack((left, sizes - left)).ravel()
            entries = np.repeat(np.arange(len(lengths)), lengths)
            columns = BlockColumns([None] * len(sizes), None, entries, self.block_nodes, clean)
            blocks = BlockCollection.from_columns(columns, clean_clean=self.clean_clean)
            self._num_edges = blocks.count_distinct_comparisons()
        return self._num_edges


# --------------------------------------------------------------------------
# Incremental layer
# --------------------------------------------------------------------------


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
    this class is the long-lived variant the service layer ingests into.  It
    stores what a batch token table stores: growable int64 columns with one
    entry per token occurrence — token id, side, profile row (a position in
    :meth:`profile_ids`) — and one forms dictionary, form → token id, that
    outlives the batches.  :meth:`append_profiles` runs
    :func:`~repro.utils.tokenize.token_table` over a batch, gives the forms
    its ``select`` keeps persistent ids and appends their occurrences;
    nothing is rebuilt.  :meth:`compact` groups the columns with
    :func:`~repro.blocking.token_blocking.group_tokens`, the routine
    :class:`~repro.blocking.token_blocking.TokenBlocking` ends in, and builds
    with :meth:`CSRBlockIndex.from_blocks`, so the compacted index is
    ``CSRBlockIndex.from_blocks(TokenBlocking(...).block(union))`` on the
    union collection by construction.

    ``clean_clean`` is declared up front — the incremental collection grows,
    so it cannot be inferred from the data the way
    :attr:`ProfileCollection.is_clean_clean` does; callers must declare the
    task shape and feed matching source ids.  Profile ids must arrive in
    strictly increasing order (the natural ingest order), which keeps "new
    profile" well-defined and rejects duplicate ids early.

    Compaction happens on :meth:`materialise` (the query path) or when
    :meth:`compact` is called; when it runs never changes an answer.
    Pickling drops the built CSR — a restored instance rebuilds it with one
    compaction, which the snapshot/restore story of the service relies on.
    """

    __slots__ = (
        "clean_clean",
        "min_token_length",
        "remove_stopwords",
        "appended_profiles",
        "compactions",
        "_forms",
        "_occurrences",
        "_size",
        "_profile_ids",
        "_last_profile_id",
        "_stale",
        "_csr",
        "__weakref__",
    )

    def __init__(
        self,
        *,
        clean_clean: bool = False,
        min_token_length: int = 1,
        remove_stopwords: bool = False,
    ) -> None:
        self.clean_clean = clean_clean
        self.min_token_length = min_token_length
        self.remove_stopwords = remove_stopwords
        self.appended_profiles = 0
        self.compactions = 0
        self._forms: dict[str, int] = {}
        # Rows token id, side, profile row; the first ``_size`` columns hold data.
        self._occurrences = np.empty((3, 0), dtype=np.int64)
        self._size = 0
        self._profile_ids: list[int] = []
        self._last_profile_id = -1
        self._stale = True
        self._csr: "CSRBlockIndex | None" = None

    # ------------------------------------------------------------------ ingest
    def append_profiles(self, profiles) -> AppendDelta:
        """Tokenise and index new profiles; return what they touched.

        ``profiles`` is any iterable of
        :class:`~repro.data.profile.EntityProfile`; ids must increase strictly,
        from above every previously appended id.  They are all checked before
        anything changes, so a refused batch leaves the index as it was.
        """
        from repro.exceptions import DataError

        batch = list(profiles)
        new_ids = [profile.profile_id for profile in batch]
        for before, profile_id in zip([self._last_profile_id, *new_ids], new_ids):
            if profile_id <= before:
                raise DataError(
                    "append_profiles requires strictly increasing profile ids: "
                    f"got {profile_id} after {before}"
                )
        table = token_table(batch)
        values, tokens = table.select(
            min_length=self.min_token_length, remove_stopwords=self.remove_stopwords
        )
        sides, rows = table.members(values, self.clean_clean)
        seen = np.zeros(len(table.forms), dtype=bool)
        seen[tokens] = True
        touched = [table.forms[token] for token in np.flatnonzero(seen).tolist()]
        token_ids = np.zeros(len(table.forms), dtype=np.int64)
        token_ids[seen] = [self._forms.setdefault(form, len(self._forms)) for form in touched]
        self._append(token_ids[tokens], sides, rows + len(self._profile_ids))
        self._profile_ids.extend(new_ids)
        if new_ids:
            self._last_profile_id = new_ids[-1]
            self.appended_profiles += len(new_ids)
            self._stale = True
        # Every holder of a touched token, the batch's profiles included.
        hit = np.zeros(len(self._forms), dtype=bool)
        hit[token_ids[seen]] = True
        all_tokens, _sides, all_rows = self._occurrences[:, : self._size]
        held = np.zeros(len(self._profile_ids), dtype=bool)
        held[all_rows[hit[all_tokens]]] = True
        holders = [self._profile_ids[row] for row in np.flatnonzero(held).tolist()]
        return AppendDelta(new_ids, touched, holders)

    def _append(self, tokens, sides, rows) -> None:
        """Append occurrences to the columns, doubling their capacity when full."""
        size = self._size + len(tokens)
        if size > self._occurrences.shape[1]:
            grown = np.empty((3, max(size, 2 * self._occurrences.shape[1])), dtype=np.int64)
            grown[:, : self._size] = self._occurrences[:, : self._size]
            self._occurrences = grown
        self._occurrences[:, self._size : size] = (tokens, sides, rows)
        self._size = size

    # ------------------------------------------------------------- compaction
    def compact(self) -> CSRBlockIndex:
        """Group the occurrence columns into a fresh contiguous CSR index.

        Token blocking's own grouping (blocks in form order, only
        comparison-inducing ones, entropy 1.0) and then
        :meth:`CSRBlockIndex.from_blocks`.  The previous CSR (if any) is
        replaced only after the new one is fully built, so a failed
        compaction leaves the old index usable.
        """
        tokens, sides, rows = self._occurrences[:, : self._size]
        profile_ids = np.array(self._profile_ids, dtype=np.int64)
        blocks = group_tokens(list(self._forms), tokens, sides, rows, profile_ids, self.clean_clean)
        self._csr = CSRBlockIndex.from_blocks(blocks)
        self._stale = False
        self.compactions += 1
        return self._csr

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
        return len(self._forms)

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

    # --------------------------------------------------------------- pickling
    def __getstate__(self) -> dict:
        """Ship the columns and the forms, never the CSR (one compaction
        rebuilds it)."""
        state = {
            slot: getattr(self, slot)
            for slot in self.__slots__
            if slot not in ("_csr", "__weakref__")
        }
        state["_occurrences"] = self._occurrences[:, : self._size]
        state["_stale"] = True
        return state

    def __setstate__(self, state: dict) -> None:
        self._csr = None
        for slot, value in state.items():
            setattr(self, slot, value)
