"""Blocks and block collections.

A *block* is the set of profiles sharing one blocking key.  For clean-clean ER
a block keeps the two sources separate (only cross-source comparisons count);
for dirty ER all profiles sit in a single group and every unordered pair is a
comparison.

A :class:`BlockCollection` stores its blocks as the :class:`BlockColumns`
membership vectors, the one form every consumer reads; a :class:`Block` is a
value encoded into them or decoded from them.
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, NamedTuple

import numpy as np

from repro.blocking.pairs import CandidatePairs
from repro.exceptions import BlockingError

_PAIR_CHUNK = 1 << 20  # pairs expanded per range by _pair_codes


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
        """Yield every comparison (canonically ordered pair) of this block;
        a profile listed on both sides is never paired with itself."""
        if self.is_clean_clean:
            for a in self.profiles_source0:
                for b in self.profiles_source1:
                    if a != b:
                        yield (a, b) if a < b else (b, a)
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
    """The storage of a block collection: membership vectors.

    Invariants: ``entries`` ascends; ``members`` ascends inside an entry; a
    block with a side-1 member is clean-clean.  A block may induce no
    comparison, and a profile may sit on both sides of a clean-clean block.
    The vectors are never written to, so collections may share them.
    """

    keys: list  # per block: its key, in collection order
    entropies: Any  # per block: float64
    entries: Any  # per membership: int64 ``2 * block + side``
    members: Any  # per membership: int64 profile id
    cleans: Any  # per block: bool, clean-clean

    def lengths(self):
        """Members per entry: the left side of block 0, its right side, ..."""
        return np.bincount(self.entries, minlength=2 * len(self.keys))

    def cardinalities(self) -> tuple:
        """Per block: the number of profiles and of induced comparisons."""
        lengths = self.lengths()
        left, right = lengths[0::2], lengths[1::2]
        return left + right, np.where(self.cleans, left * right, left * (left - 1) // 2)

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
            self.cleans[keep],
        )


_EMPTY = BlockColumns(
    [], np.empty(0), *(np.empty(0, dtype=dtype) for dtype in (np.int64, np.int64, bool))
)


def _encode(blocks: Iterable[Block], base: BlockColumns = _EMPTY) -> BlockColumns:
    """The columns of ``base`` followed by those of ``blocks``."""
    keys, entropies, cleans, entries, members = [], [], [], [], []
    for position, block in enumerate(blocks, len(base.keys)):
        if not isinstance(block, Block):
            raise BlockingError("only Block instances can be added")
        keys.append(block.key)
        entropies.append(block.entropy)
        cleans.append(block.is_clean_clean)
        for side, profile_ids in enumerate((block.profiles_source0, block.profiles_source1)):
            members.extend(sorted(profile_ids))
            entries.extend([2 * position + side] * len(profile_ids))
    tail = (entropies, entries, members, cleans)
    return BlockColumns(
        base.keys + keys,
        *(np.concatenate((old, np.array(new, dtype=old.dtype))) for old, new in zip(base[1:], tail)),
    )


class BlockCollection:
    """An ordered collection of blocks, stored as :class:`BlockColumns`.

    The constructor and :meth:`add` encode :class:`Block` values into the
    columns; :func:`~repro.blocking.base.group_token_keys`, purging and
    filtering build the columns directly (:meth:`from_columns`).  Sizes,
    counts and pairs answer from the columns.  Iterating, indexing and
    :attr:`blocks` decode fresh ``Block`` values and leave the collection as
    it is, so changing a decoded ``Block`` changes nothing here.
    """

    _count_source = None  # a weak reference, see keeping_count_of

    def __init__(self, blocks: Iterable[Block] = (), *, clean_clean: bool = False) -> None:
        self.clean_clean = clean_clean
        self.columns = _encode(blocks)
        # The distinct-pair count of the columns, once known.
        self._distinct_count: int | None = None

    @classmethod
    def from_columns(cls, columns: BlockColumns, *, clean_clean: bool) -> "BlockCollection":
        """A collection over ``columns`` (invariants: see there)."""
        collection = cls(clean_clean=clean_clean)
        collection.columns = columns
        return collection

    def add(self, block: Block) -> None:
        """Append a block to the collection."""
        self.columns = _encode([block], self.columns)
        self._distinct_count = None

    def __iter__(self) -> Iterator[Block]:
        keys, entropies, _entries, members, cleans = self.columns
        ids = members.tolist()
        cuts = [0, *self.columns.lengths().cumsum().tolist()]
        sides = [set(ids[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        rows = zip(keys, sides[0::2], sides[1::2], entropies.tolist(), cleans.tolist())
        return (Block(*row) for row in rows)

    def __len__(self) -> int:
        return len(self.columns.keys)

    def __getitem__(self, index: int) -> Block:
        """The block at ``index``, decoded alone."""
        position = range(len(self))[index]
        keys, entropies, entries, members, cleans = self.columns
        lo, split, hi = np.searchsorted(entries, [2 * position, 2 * position + 1, 2 * position + 2])
        return Block(
            keys[position],
            set(members[lo:split].tolist()),
            set(members[split:hi].tolist()),
            float(entropies[position]),
            bool(cleans[position]),
        )

    @property
    def blocks(self) -> list[Block]:
        """Every block, decoded."""
        return list(self)

    def total_comparisons(self) -> int:
        """Sum of per-block comparisons (pairs may be counted more than once)."""
        return int(self.columns.cardinalities()[1].sum())

    def distinct_comparisons(self) -> CandidatePairs:
        """The distinct candidate pairs across all blocks, as columns."""
        ranges, width, id_of = self._pair_codes()
        codes = np.concatenate([codes[np.diff(codes, prepend=-1) != 0] for codes in ranges])
        self._distinct_count = len(codes)
        lower, upper = np.divmod(codes.astype(np.int64, copy=False), width)
        return CandidatePairs(id_of(lower), id_of(upper))

    def count_distinct_comparisons(self) -> int:
        """``len(distinct_comparisons())`` without the pair set, range by
        range, once per collection (and none when :meth:`keeping_count_of`
        finds its source's count)."""
        if self._distinct_count is None:
            source = self._count_source and self._count_source()
            if source is not None and (
                source.columns is self.columns
                or source.total_comparisons() == self.total_comparisons()
            ):
                self._distinct_count = source.count_distinct_comparisons()
            else:
                ranges = self._pair_codes()[0]
                self._distinct_count = sum(int(np.count_nonzero(np.diff(c, prepend=-1))) for c in ranges)
        return self._distinct_count

    def keeping_count_of(self, source: "BlockCollection") -> "BlockCollection":
        """This collection, derived from ``source`` by removing comparisons
        only (purging, filtering): with an unchanged total it has
        ``source``'s pair multiset, so it takes ``source``'s count (held
        weakly, and compared only when counted)."""
        self._count_source = weakref.ref(source)
        return self

    def __getstate__(self) -> dict:
        return {key: value for key, value in vars(self).items() if key != "_count_source"}

    def _pair_codes(self) -> tuple:
        """``(ranges, width, id_of)``: ``ranges`` yields sorted ``lower *
        width + upper`` codes of every pair of the columns, a range at a
        time; a code may repeat and -1 is no pair, so a reader keeps the
        codes that differ from the one before them, taking -1 before the
        first.  No code falls in two ranges and the ranges ascend.
        ``id_of`` maps a code's ``lower`` / ``upper`` back to profile ids.

        A dirty member meets the later members of its entry.  Up to
        :data:`_PAIR_CHUNK` pairs, one range in column order has a left
        member of a clean-clean block meet its right side (and a profile on
        both sides itself: -1).  Beyond, a clean-clean member meets the
        other side's members above it, so every pair comes from its lower
        endpoint, and the members, node by node, are cut between nodes about
        every :data:`_PAIR_CHUNK` pairs: bounded scratch, no merge.  Ids are
        offset by the smallest one (ranks when the codes would pass int64;
        int32 when they fit).
        """
        # Late: the meta-blocking package imports this module.
        from repro.metablocking.backends import expand_ranges, stable_sort, unique_inverse

        entries, members = self.columns.entries, self.columns.members
        low, high = (int(members.min()), int(members.max())) if len(members) else (0, 0)
        width = high - low + 1
        if max(width, 2 * len(self)) * width <= np.iinfo(np.int64).max:
            dense = members - low
            id_of = lambda offsets: offsets + low
        else:
            node_ids, dense = unique_inverse(members)
            width, id_of = len(node_ids), node_ids.__getitem__
        if width * width <= np.iinfo(np.int32).max:
            dense = dense.astype(np.int32)
        lengths = self.columns.lengths()
        ends = lengths.cumsum()
        clean = self.columns.cleans[entries >> 1]
        # A left member of a clean-clean block meets its right entry, which
        # starts where the left one ends; a dirty member the rest of its entry.
        first = np.where(clean, ends[entries], np.arange(1, len(dense) + 1))
        counts = np.where(clean, np.where(entries & 1, 0, lengths[entries | 1]), ends[entries] - first)
        owners, cuts = dense, [0, len(dense)]
        if counts.sum() > _PAIR_CHUNK:
            if clean.any():  # entry, then member: the keys ascend
                other = entries[clean] ^ 1
                keys = entries * width + dense
                first[clean] = keys.searchsorted(other * width + dense[clean], "right")
                counts[clean] = ends[other] - first[clean]
                del keys, other
            order = stable_sort(dense.astype(np.int64))[1]
            owners, first, counts = dense[order], first[order], counts[order]
            done = counts.cumsum()
            at = owners[done.searchsorted(np.arange(_PAIR_CHUNK, done[-1], _PAIR_CHUNK))]
            cuts = np.unique([0, *owners.searchsorted(at).tolist(), len(dense)]).tolist()

        def ranges():
            for lo, hi in zip(cuts, cuts[1:]):
                count = counts[lo:hi]
                a, b = np.repeat(owners[lo:hi], count), dense[expand_ranges(first[lo:hi], count)]
                itself = a == b
                codes = np.minimum(a, b)  # in place from here on: bounded scratch
                codes *= width
                codes += np.maximum(a, b, out=b)
                codes[itself] = -1
                del a, b, itself
                codes.sort()
                yield codes

        return ranges(), width, id_of

    def profile_ids(self) -> set[int]:
        """All profile ids appearing in at least one block."""
        return set(np.unique(self.columns.members).tolist())

    def __repr__(self) -> str:
        return (
            f"BlockCollection(blocks={len(self)}, "
            f"comparisons={self.total_comparisons()}, clean_clean={self.clean_clean})"
        )
