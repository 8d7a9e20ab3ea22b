"""Keys of removed options, as stored artifacts may still carry them.

A pipeline checkpoint, a ``--output-config`` file, a saved configuration or a
service snapshot written before an option was removed still names it, in a
spec's ``engine`` section or in a stage's params.
:func:`drop_retired_keys` is the one door those keys go through: it drops a
value that describes what every run now does and refuses one that asks for
the removed behaviour.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from repro.exceptions import ConfigurationError, SparkERError

#: Options that no longer exist: the values a stored artifact may carry for
#: them and still describe what every run now does (``None``: any value
#: does), and what was removed.
_RETIRED = {
    "kernel_backend": (
        (None, "auto", "numpy"),
        "numpy is required and the interpreted meta-blocking kernel no longer exists",
    ),
    # It only chose how shuffle payloads travelled; nothing is shuffled now.
    "block_store": (None, "the engine no longer shuffles, so there are no block stores"),
    "fault_policy": (
        (None, "retries=0,backoff=0.1,backoff_max=5"),
        "task retries and timeouts no longer exist; a crashed worker fails the run",
    ),
    "fault_inject": ((None,), "the engine fault injector no longer exists"),
    # A memmap-backed index computed the same edges as the in-memory one.
    "buffer_backend": (None, "the CSR index always lives in process memory"),
    # Its last consumer was the memmap buffer file.
    "tmp_dir": (None, "the only temp file left, the WAL rewrite, lives in its WAL directory"),
    # The keys of an older spec's ``engine`` section: they chose where
    # meta-blocking ran, never what it computed.
    "enabled": (None, "meta-blocking always runs in the driver"),
    "parallelism": (None, "meta-blocking always runs in the driver"),
    "executor": (None, "meta-blocking always runs in the driver"),
    # The loose_schema stage's MinHash/LSH parameters: every attribute pair
    # is now scored exactly, a superset of the pairs LSH proposed.
    "num_perm": (None, "attribute partitioning no longer runs MinHash"),
    "num_bands": (None, "attribute partitioning no longer runs LSH banding"),
    "lsh_seed": (None, "attribute partitioning no longer runs MinHash"),
    # A service collection's automatic compaction period: when the index
    # compacts never changes an answer, and queries compact on demand.
    "compact_every": (None, "the incremental index compacts when it is queried"),
}


def drop_retired_keys(
    mapping: "Mapping[str, Any]", error: "type[SparkERError]" = ConfigurationError
) -> "dict[str, Any]":
    """``mapping`` without the keys of retired options.

    A value the retired option would have resolved to today is dropped
    silently; any other (``kernel_backend: python`` asked for the removed
    interpreted kernel, ``fault_policy: retries=2`` for retries) raises
    ``error`` instead of running something else.
    """
    kept = dict(mapping)
    for key, (harmless, removed) in _RETIRED.items():
        value = kept.pop(key, None)
        if harmless is not None and value not in harmless:
            raise error(f"{key}={value!r}: the option was removed — {removed}; drop the key")
    return kept
