"""Blocks and block collections.

A *block* is the set of profiles sharing one blocking key.  For clean-clean ER
a block keeps the two sources separate (only cross-source comparisons count);
for dirty ER all profiles sit in a single group and every unordered pair is a
comparison.

A :class:`BlockCollection` holds its blocks either as :class:`Block` objects
or, on the hot path, as the :class:`BlockColumns` membership vectors.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, NamedTuple

import numpy as np

from repro.blocking.pairs import CandidatePairs
from repro.exceptions import BlockingError

_PAIR_CHUNK = 1 << 20  # pair codes expanded at a time by _distinct_codes


@dataclass
class Block:
    """One block of a blocking collection.

    Parameters
    ----------
    key:
        The blocking key (a token, or ``token_clusterId`` for loose-schema
        blocking).
    profiles_source0 / profiles_source1:
        Profile ids per source.  Dirty-ER blocks keep every profile in
        ``profiles_source0`` and leave ``profiles_source1`` empty.
    entropy:
        Entropy of the attribute cluster the key belongs to (BLAST); 1.0 when
        entropy is not used.
    """

    key: str
    profiles_source0: set[int] = field(default_factory=set)
    profiles_source1: set[int] = field(default_factory=set)
    entropy: float = 1.0
    clean_clean: bool = False

    @property
    def is_clean_clean(self) -> bool:
        """True when the block belongs to a clean-clean (two sources) task.

        A block created for a clean-clean collection stays clean-clean even if
        a later stage (e.g. block filtering) removes every profile of one
        source: it must not start producing within-source comparisons.
        """
        return self.clean_clean or bool(self.profiles_source1)

    @property
    def size(self) -> int:
        """Number of profiles in the block."""
        return len(self.profiles_source0) + len(self.profiles_source1)

    def all_profiles(self) -> set[int]:
        """All profile ids in the block (both sources)."""
        return self.profiles_source0 | self.profiles_source1

    def num_comparisons(self) -> int:
        """Number of distinct comparisons induced by this block."""
        if self.is_clean_clean:
            return len(self.profiles_source0) * len(self.profiles_source1)
        n = len(self.profiles_source0)
        return n * (n - 1) // 2

    def comparisons(self) -> Iterator[tuple[int, int]]:
        """Yield every comparison (canonically ordered pair) of this block."""
        if self.is_clean_clean:
            for a in self.profiles_source0:
                for b in self.profiles_source1:
                    yield (a, b) if a <= b else (b, a)
        else:
            ordered = sorted(self.profiles_source0)
            for i, a in enumerate(ordered):
                for b in ordered[i + 1 :]:
                    yield a, b

    def contains(self, profile_id: int) -> bool:
        """True if ``profile_id`` belongs to this block."""
        return profile_id in self.profiles_source0 or profile_id in self.profiles_source1

    def remove(self, profile_id: int) -> None:
        """Remove ``profile_id`` from the block (no-op if absent)."""
        self.profiles_source0.discard(profile_id)
        self.profiles_source1.discard(profile_id)

    def is_valid(self) -> bool:
        """A block is valid only if it induces at least one comparison."""
        return self.num_comparisons() > 0

    def __repr__(self) -> str:
        return (
            f"Block(key={self.key!r}, s0={len(self.profiles_source0)}, "
            f"s1={len(self.profiles_source1)}, entropy={self.entropy:.3f})"
        )


class BlockColumns(NamedTuple):
    """The column form of a block collection.

    Invariants: ``entries`` ascends; ``members`` ascends inside an entry; a
    profile sits in a block at most once; every block induces a comparison
    and is clean-clean exactly when its collection is (dirty: no side 1).
    The vectors are never written to, so collections may share them.
    """

    keys: list  # per block: its key, in collection order
    entropies: Any  # per block: float64
    entries: Any  # per membership: int64 ``2 * block + side``
    members: Any  # per membership: int64 profile id

    def lengths(self):
        """Members per entry: the left side of block 0, its right side, ..."""
        return np.bincount(self.entries, minlength=2 * len(self.keys))

    def cardinalities(self, clean_clean: bool) -> tuple:
        """Per block: the number of profiles and of induced comparisons."""
        lengths = self.lengths()
        left, right = lengths[0::2], lengths[1::2]
        return left + right, left * right if clean_clean else left * (left - 1) // 2

    def select(self, keep) -> "BlockColumns":
        """The columns of the blocks whose flag in the bool vector ``keep`` is set."""
        if keep.all():
            return self
        staying = keep[self.entries >> 1]
        entries = self.entries[staying]
        return BlockColumns(
            list(compress(self.keys, keep.tolist())),
            self.entropies[keep],
            2 * (keep.cumsum() - 1)[entries >> 1] + (entries & 1),
            self.members[staying],
        )


class BlockCollection:
    """An ordered collection of blocks with profile-level indexing.

    *Object-backed* it is a list of :class:`Block` — what the constructor and
    :meth:`add` build, and the only form that holds blocks inducing no
    comparison, per-block clean-clean flags or a profile listed on both
    sides of a block.  *Column-backed*
    (:meth:`from_columns`; ``columns`` is set) it is the :class:`BlockColumns`
    vectors and no ``Block`` at all — what ``group_token_keys``, purging and
    filtering produce and the CSR builder reads.  Sizes and counts answer
    from the columns; whatever hands out ``Block`` objects (iteration,
    indexing, :attr:`blocks`, :meth:`add`) first converts the collection to
    object-backed, **one way**: the columns are dropped, so a mutated
    ``Block`` can never disagree with them.
    """

    # Class-level: a collection pickled before the column form (or the
    # count) existed (a parent-version checkpoint) restores without them.
    columns: "BlockColumns | None" = None
    # The distinct-pair count of the columns, once known; an object-backed
    # collection never keeps one (its Blocks can be changed in place).
    _distinct_count: "int | None" = None

    def __init__(self, blocks: Iterable[Block] = (), *, clean_clean: bool = False) -> None:
        self.clean_clean = clean_clean
        self._blocks: list[Block] = []
        for block in blocks:
            self.add(block)

    @classmethod
    def from_columns(cls, columns: BlockColumns, *, clean_clean: bool) -> "BlockCollection":
        """A column-backed collection over ``columns`` (invariants: see there)."""
        collection = cls(clean_clean=clean_clean)
        collection.columns = columns
        return collection

    def add(self, block: Block) -> None:
        """Append a block to the collection."""
        if not isinstance(block, Block):
            raise BlockingError("only Block instances can be added")
        self.blocks.append(block)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self._blocks if self.columns is None else self.columns.keys)

    def __getitem__(self, index: int) -> Block:
        return self.blocks[index]

    @property
    def blocks(self) -> list[Block]:
        """The block list; a column-backed collection converts here, one way
        (the columns, and with them the distinct-pair count, go only once the
        whole list stands — so :meth:`add` drops the count too)."""
        columns = self.columns
        if columns is not None:
            ids = columns.members.tolist()
            cuts = [0, *columns.lengths().cumsum().tolist()]
            sides = [set(ids[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
            self._blocks = [
                Block(*row, self.clean_clean)
                for row in zip(columns.keys, sides[0::2], sides[1::2], columns.entropies.tolist())
            ]
            self.columns = self._distinct_count = None
        return self._blocks

    def total_comparisons(self) -> int:
        """Sum of per-block comparisons (pairs may be counted more than once)."""
        if self.columns is not None:
            return int(self.columns.cardinalities(self.clean_clean)[1].sum())
        return sum(block.num_comparisons() for block in self._blocks)

    def distinct_comparisons(self) -> "set[tuple[int, int]] | CandidatePairs":
        """The distinct candidate pairs across all blocks: a set of tuples,
        or the :class:`CandidatePairs` columns of a column-backed collection
        (which stays column-backed)."""
        if self.columns is not None:
            node_ids, codes = self._distinct_codes()
            self._distinct_count = len(codes)
            return CandidatePairs.from_codes(codes, node_ids)
        pairs: set[tuple[int, int]] = set()
        for block in self.blocks:
            pairs.update(block.comparisons())
        return pairs

    def count_distinct_comparisons(self) -> int:
        """``len(distinct_comparisons())``; column-backed, without the pair set,
        once per collection (and none when :meth:`keeping_count_of` reused
        its source's count)."""
        if self.columns is None:
            return len(self.distinct_comparisons())
        if self._distinct_count is None:
            self._distinct_count = len(self._distinct_codes()[1])
        return self._distinct_count

    def keeping_count_of(self, source: "BlockCollection") -> "BlockCollection":
        """This collection, derived from ``source`` by removing comparisons
        only (purging, filtering), with ``source``'s distinct-pair count
        when it removed none: then the pair multiset is ``source``'s."""
        known = source._distinct_count is not None and self.columns is not None
        if known and self.total_comparisons() == source.total_comparisons():
            self._distinct_count = source._distinct_count
        return self

    def _distinct_codes(self) -> tuple:
        """``(node_ids, codes)``: the ascending profile ids of the columns and
        the ascending distinct ``lower * n + upper`` codes of their pairs.

        Every member meets the later members of its entry (dirty) or the
        members of its block's other side (clean-clean).  The pairs are
        expanded a bounded chunk at a time as codes over dense ids (int32
        when ``n²`` fits) and deduplicated by sorting; one last sort merges
        the chunks' distinct codes — no ``Block``, no tuple.
        """
        # Late: the meta-blocking package imports this module.
        from repro.metablocking.backends import expand_ranges, unique_inverse

        entries = self.columns.entries
        node_ids, dense = unique_inverse(self.columns.members)
        n = len(node_ids)
        if n * n <= np.iinfo(np.int32).max:
            dense = dense.astype(np.int32)
        lengths = self.columns.lengths()
        ends = lengths.cumsum()
        if self.clean_clean:  # a left member meets its block's right entry, which starts here
            first = ends[entries]
            partners = np.where(entries & 1, 0, lengths[entries | 1])
        else:
            first = np.arange(1, len(dense) + 1)
            partners = ends[entries] - first
        done = np.concatenate(([0], partners.cumsum()))
        cuts = np.searchsorted(done, np.arange(0, done[-1] + _PAIR_CHUNK, _PAIR_CHUNK)).tolist()
        distinct = [np.empty(0, dtype=dense.dtype)]
        for lo, hi in zip(cuts, cuts[1:]):
            count = partners[lo:hi]
            a, b = np.repeat(dense[lo:hi], count), dense[expand_ranges(first[lo:hi], count)]
            codes = np.minimum(a, b)  # in place from here on: bounded scratch
            codes *= n
            codes += np.maximum(a, b, out=b)
            del a, b
            codes.sort()
            distinct.append(codes[np.diff(codes, prepend=-1) != 0])
        merged = np.concatenate(distinct)
        distinct.clear()
        merged.sort()
        return node_ids, merged[np.diff(merged, prepend=-1) != 0]

    def profile_index(self) -> dict[int, list[int]]:
        """Map each profile id to the indices of the blocks that contain it."""
        index: dict[int, list[int]] = {}
        for block_index, block in enumerate(self.blocks):
            for profile_id in block.all_profiles():
                index.setdefault(profile_id, []).append(block_index)
        return index

    def profile_ids(self) -> set[int]:
        """All profile ids appearing in at least one block."""
        if self.columns is not None:
            return set(np.unique(self.columns.members).tolist())
        ids: set[int] = set()
        for block in self._blocks:
            ids.update(block.all_profiles())
        return ids

    def purge_invalid(self) -> "BlockCollection":
        """Return a new collection without blocks that induce no comparison."""
        return BlockCollection(
            (b for b in self.blocks if b.is_valid()), clean_clean=self.clean_clean
        )

    def sorted_by_size(self, descending: bool = True) -> list[Block]:
        """Blocks sorted by number of comparisons."""
        return sorted(
            self.blocks, key=lambda b: b.num_comparisons(), reverse=descending
        )

    def __repr__(self) -> str:
        return (
            f"BlockCollection(blocks={len(self)}, "
            f"comparisons={self.total_comparisons()}, clean_clean={self.clean_clean})"
        )
