"""One served entity collection: incremental index + delta meta-blocker.

A :class:`ServiceCollection` ties together the pieces a long-lived resolver
needs per tenant:

* an :class:`~repro.metablocking.index.IncrementalBlockIndex` that absorbs
  ingested profiles into a delta overlay and compacts to a bit-exact CSR;
* a :class:`~repro.service.delta.DeltaMetaBlocker` whose retained candidate
  edges are recomputed once per compaction (and cached between them);
* a cached progressive ranking (:class:`~repro.metablocking.progressive.
  ProgressiveSortedComparisons` / ``ProgressiveNodeScheduling``) so repeated
  budgeted match queries extend one stream prefix instead of re-sweeping.

Everything here is synchronous library code with no HTTP awareness — the
:mod:`repro.service.app` layer maps it onto routes, and tests drive it
directly.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass

from repro.data.profile import EntityProfile
from repro.service.faults import service_fault
from repro.exceptions import ConfigurationError, DataError
from repro.metablocking.index import IncrementalBlockIndex
from repro.metablocking.progressive import (
    ProgressiveNodeScheduling,
    ProgressiveSortedComparisons,
)
from repro.options import drop_retired_keys
from repro.service.delta import DeltaMetaBlocker
from repro.service.wal import FSYNC_POLICIES, DegradedError, WriteAheadLog

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")

PROGRESSIVE_STRATEGIES = ("sorted", "node")


def validate_collection_name(name: str) -> str:
    """A collection name is a short filesystem- and URL-safe token."""
    if not isinstance(name, str) or not _NAME_PATTERN.match(name):
        raise ConfigurationError(
            "collection name must match [A-Za-z0-9_.-]{1,64}, "
            f"got {name!r}"
        )
    return name


@dataclass
class CollectionConfig:
    """Declarative shape of one served collection."""

    name: str
    clean_clean: bool = False
    weighting: str = "cbs"
    pruning: str = "wnp"
    use_entropy: bool = False
    min_token_length: int = 1
    remove_stopwords: bool = False
    compact_every: "int | None" = None
    progressive: str = "sorted"
    wal_fsync: "str | None" = None

    def __post_init__(self) -> None:
        validate_collection_name(self.name)
        if self.progressive not in PROGRESSIVE_STRATEGIES:
            raise ConfigurationError(
                f"progressive strategy must be one of {PROGRESSIVE_STRATEGIES}, "
                f"got {self.progressive!r}"
            )
        if self.wal_fsync is not None and self.wal_fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"wal_fsync must be one of {FSYNC_POLICIES} or null, "
                f"got {self.wal_fsync!r}"
            )

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CollectionConfig":
        if not isinstance(payload, dict):
            raise ConfigurationError("collection config must be a mapping")
        payload = drop_retired_keys(payload)
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - py39 keys view
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown collection config keys: {sorted(unknown)}"
            )
        return cls(**payload)


def _parse_attributes(raw, profile: EntityProfile) -> None:
    if not isinstance(raw, dict):
        raise DataError("profile 'attributes' must be an object of attr -> value")
    for attribute, value in raw.items():
        values = value if isinstance(value, (list, tuple)) else [value]
        for item in values:
            if item is None:
                continue
            if not isinstance(item, (str, int, float, bool)):
                raise DataError(
                    f"attribute {attribute!r} has unsupported value type "
                    f"{type(item).__name__}"
                )
            profile.add(str(attribute), str(item))


class ServiceCollection:
    """A named, queryable, growing entity collection."""

    def __init__(self, config: CollectionConfig) -> None:
        self.config = config
        self.index = IncrementalBlockIndex(
            clean_clean=config.clean_clean,
            min_token_length=config.min_token_length,
            remove_stopwords=config.remove_stopwords,
            compact_every=config.compact_every,
        )
        self.delta = DeltaMetaBlocker(
            config.weighting, config.pruning, use_entropy=config.use_entropy
        )
        # Cached progressive ranking: one stream prefix per index version.
        self._prefix: list[tuple[int, int]] = []
        self._prefix_iter = None
        self._prefix_complete = False
        self.ingests = 0
        self.queries = 0
        # Durability state: wired by the store when a WAL directory is
        # configured.  ``wal_applied_seq`` is the highest log sequence number
        # whose batch reached the index — snapshots persist it, replay skips
        # records at or below it (duplicate idempotence).
        self.wal: "WriteAheadLog | None" = None
        self.wal_applied_seq = 0
        self.wal_replayed = 0
        self.degraded_reason: "str | None" = None

    def attach_wal(self, wal: WriteAheadLog) -> None:
        self.wal = wal

    # ---------------------------------------------------------------- ingest
    def _parse_profiles(self, payload: dict) -> list[EntityProfile]:
        """Fully validate one ingest payload into profiles, pre-apply.

        Every check runs *before* the batch is WAL-logged or applied —
        including the index's strictly-increasing id invariant — so a logged
        record is guaranteed to apply cleanly on replay.
        """
        if not isinstance(payload, dict) or "profiles" not in payload:
            raise DataError("ingest payload must be {'profiles': [...]}")
        raw_profiles = payload["profiles"]
        if not isinstance(raw_profiles, list):
            raise DataError("'profiles' must be a list")
        last_id = self.index.last_profile_id
        next_id = last_id + 1
        profiles: list[EntityProfile] = []
        for position, raw in enumerate(raw_profiles):
            if not isinstance(raw, dict):
                raise DataError(f"profile #{position} must be an object")
            raw_id = raw.get("id")
            if raw_id is None:
                profile_id = next_id
            elif isinstance(raw_id, int) and not isinstance(raw_id, bool):
                profile_id = raw_id
            else:
                raise DataError(f"profile #{position} 'id' must be an integer")
            if profile_id <= last_id:
                raise DataError(
                    "ingest requires strictly increasing profile ids: "
                    f"got {profile_id} after {last_id}"
                )
            source = raw.get("source", 0)
            if source not in (0, 1):
                raise DataError(f"profile #{position} 'source' must be 0 or 1")
            profile = EntityProfile(
                profile_id, str(raw.get("original_id", profile_id)), source
            )
            _parse_attributes(raw.get("attributes", {}), profile)
            profiles.append(profile)
            last_id = profile_id
            next_id = profile_id + 1
        return profiles

    def ingest(self, payload: dict, *, replay_seq: "int | None" = None) -> dict:
        """Append the profiles of one ``POST .../profiles`` payload.

        ``payload`` is ``{"profiles": [{"id"?, "source"?, "attributes"}]}``;
        missing ids are assigned sequentially after the current maximum.
        Returns an ingest summary (counts, id range, touched blocks).

        With a WAL attached the payload is logged durably *before* it
        touches the index; an ``OSError`` from the log flips the collection
        into read-only degraded mode (:class:`DegradedError`, HTTP 507).
        ``replay_seq`` marks a recovery re-application of an already-logged
        record: it skips the WAL write, and records at or below
        :attr:`wal_applied_seq` are ignored (idempotent double replay).
        """
        if replay_seq is not None and replay_seq <= self.wal_applied_seq:
            return {
                "appended": 0,
                "first_id": None,
                "last_id": None,
                "total_profiles": self.index.num_profiles,
                "touched_blocks": 0,
                "touched_profiles": 0,
                "wal_seq": replay_seq,
                "duplicate": True,
            }
        if self.degraded_reason is not None and replay_seq is None:
            raise DegradedError(
                f"collection {self.config.name!r} is read-only (degraded): "
                f"{self.degraded_reason}"
            )
        profiles = self._parse_profiles(payload)
        seq = replay_seq
        if seq is None and self.wal is not None:
            try:
                seq = self.wal.append(payload)
            except OSError as error:
                self.degraded_reason = f"WAL append failed: {error}"
                raise DegradedError(
                    f"collection {self.config.name!r} entered read-only "
                    f"(degraded) mode: {error}"
                ) from error
        service_fault(f"ingest.apply.{self.config.name}")
        delta = self.index.append_profiles(profiles)
        if delta.new_profile_ids:
            # Any append invalidates the cached ranking prefix.
            self._prefix = []
            self._prefix_iter = None
            self._prefix_complete = False
        self.ingests += 1
        if seq is not None:
            self.wal_applied_seq = seq
        service_fault(f"ingest.ack.{self.config.name}")
        return {
            "appended": len(delta.new_profile_ids),
            "first_id": delta.new_profile_ids[0] if delta.new_profile_ids else None,
            "last_id": delta.new_profile_ids[-1] if delta.new_profile_ids else None,
            "total_profiles": self.index.num_profiles,
            "touched_blocks": len(delta.touched_tokens),
            "touched_profiles": len(delta.touched_profile_ids),
            "wal_seq": seq,
        }

    def has_profile(self, profile_id: int) -> bool:
        return self.index.has_profile(profile_id)

    # ---------------------------------------------------------------- queries
    def _progressive(self):
        if self.config.progressive == "node":
            strategy = ProgressiveNodeScheduling
        else:
            strategy = ProgressiveSortedComparisons
        return strategy(self.config.weighting)

    def _ensure_prefix(self, length: int) -> list[tuple[int, int]]:
        """Grow the cached progressive prefix to ``length`` comparisons.

        The prefix is exactly ``list(progressive.stream(blocks))[:length]``
        over the current union collection — the stream is pulled lazily and
        cached, so a second query with a smaller or equal budget does no
        ranking work at all.
        """
        if self._prefix_iter is None and not self._prefix_complete:
            if self.index.is_stale:
                service_fault(f"compact.{self.config.name}")
            index = self.index.materialise()
            self._prefix_iter = self._progressive().stream_index(index)
        while len(self._prefix) < length and not self._prefix_complete:
            try:
                self._prefix.append(next(self._prefix_iter))
            except StopIteration:
                self._prefix_iter = None
                self._prefix_complete = True
        return self._prefix[:length]

    def matches(self, profile_id: int, budget: int) -> dict:
        """Progressive matches for one profile under a comparison budget.

        ``candidates`` is the progressive stream prefix of length ≤ budget
        (the comparisons a budget-``B`` progressive run would schedule);
        ``matches`` filters that prefix to the pairs involving
        ``profile_id``, best first.
        """
        if budget < 0:
            raise DataError("budget must be >= 0")
        self.queries += 1
        service_fault(f"matches.{self.config.name}")
        prefix = self._ensure_prefix(budget)
        matches = [pair for pair in prefix if profile_id in pair]
        return {
            "profile_id": profile_id,
            "budget": budget,
            "scheduled": len(prefix),
            "exhausted": self._prefix_complete and len(self._prefix) <= budget,
            "candidates": [list(pair) for pair in prefix],
            "matches": [list(pair) for pair in matches],
        }

    def candidates(self, profile_id: int) -> dict:
        """Retained meta-blocking edges for one profile, delta-refreshed."""
        self.queries += 1
        if self.index.is_stale:
            service_fault(f"compact.{self.config.name}")
        index = self.index.materialise()
        self.delta.refresh(index, self.index.compactions)
        incident = self.delta.candidates_of(profile_id)
        return {
            "profile_id": profile_id,
            "refresh_mode": self.delta.last_mode,
            "candidates": [
                {"pair": list(pair), "weight": weight} for pair, weight in incident
            ],
        }

    # -------------------------------------------------------------- lifecycle
    def snapshot_state(self) -> dict:
        """The picklable state of this collection (CSR buffers excluded)."""
        return {
            "config": self.config.as_dict(),
            "index": self.index,
            "delta": self.delta,
            "ingests": self.ingests,
            "wal_applied_seq": self.wal_applied_seq,
        }

    @classmethod
    def restore(cls, state: dict) -> "ServiceCollection":
        """Rebuild a collection from :meth:`snapshot_state` output."""
        config = CollectionConfig.from_dict(state["config"])
        collection = cls(config)
        collection.index.close()
        collection.index = state["index"]
        # Snapshots written before the array delta path also carry a
        # ``pending_touched`` list; the restored delta recomputes instead.
        collection.delta = state["delta"]
        collection.ingests = int(state.get("ingests", 0))
        collection.wal_applied_seq = int(state.get("wal_applied_seq", 0))
        return collection

    def stats(self) -> dict:
        """Flat stats fragment for the /metrics endpoint."""
        return {
            "config": self.config.as_dict(),
            "profiles": self.index.num_profiles,
            "tokens": self.index.num_tokens,
            "appended_profiles": self.index.appended_profiles,
            "compactions": self.index.compactions,
            "stale": self.index.is_stale,
            "ingests": self.ingests,
            "queries": self.queries,
            "ranked_prefix": len(self._prefix),
            "delta": self.delta.stats(),
            "degraded": self.degraded_reason,
            "wal": None
            if self.wal is None
            else dict(
                self.wal.stats(),
                applied_seq=self.wal_applied_seq,
                replayed_on_recovery=self.wal_replayed,
            ),
        }

    def close(self) -> None:
        """Release the index buffers and the WAL handle (idempotent)."""
        self._prefix_iter = None
        self.index.close()
        if self.wal is not None:
            self.wal.close()
