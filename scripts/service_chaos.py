"""Service-layer chaos harness: kill the process, replay the WAL, compare.

Each scenario runs a **child** service process (this script with ``--child``)
that ingests a deterministic sequence of profile batches into a WAL-backed
:class:`~repro.service.store.CollectionStore`, snapshots midway, and is
killed at a precise fault point via ``REPRO_SERVICE_FAULT`` (see
:mod:`repro.service.faults`).  The parent then recovers the store from the
surviving snapshot + log (:meth:`CollectionStore.recover`) and asserts that
the recovered state is **bit-for-bit identical** to an uncrashed twin that
ingested the same durable prefix of batches:

* the recovered profile count is a whole number of batches (a batch either
  fully happened or never happened — no torn batches);
* every *acked* batch (the child printed its ack before dying) survived;
* every shared CSR buffer of the compacted index is byte-identical to the
  twin's, and ``matches``/``candidates`` answers agree exactly;
* recovering twice from the same disk state yields the same fingerprint
  (replay idempotence);
* no file but the log leaks into the WAL directory, and no ``*.tmp`` temp
  into the snapshot directory.

Kill points cover the full write path: before the log write, after the log
but before the index apply, after the apply but before the ack, mid-snapshot
(checkpoint written, log not yet truncated), mid-compaction, mid-truncate
(rewrite temp written, rename pending), plus a torn-tail scenario where the
parent appends a partial record to the log before recovering.

Usage::

    PYTHONPATH=src python scripts/service_chaos.py             # full matrix
    PYTHONPATH=src python scripts/service_chaos.py -s torn-tail
"""

from __future__ import annotations

import argparse
import hashlib
import os
import struct
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")
if SRC_ROOT not in sys.path:
    sys.path.insert(0, SRC_ROOT)

COLLECTION = "demo"
BATCH_SIZE = 8
NUM_BATCHES = 6
SNAPSHOT_AFTER = 3  # snapshot once this many batches are applied

# name -> (fault clause for the child, child queries per batch, parent tears
# the log tail afterwards).  ``#5`` means the 5th hit of the point — during
# the 5th ingest batch, i.e. after the snapshot truncated the log.
SCENARIOS = {
    "kill-before-log": ("crash@wal.append#5", False, False),
    "kill-logged-unapplied": (f"crash@ingest.apply.{COLLECTION}#5", False, False),
    "kill-applied-unacked": (f"crash@ingest.ack.{COLLECTION}#5", False, False),
    "kill-mid-snapshot": (f"crash@snapshot.save.{COLLECTION}#1", False, False),
    "kill-mid-compaction": (f"crash@compact.{COLLECTION}#2", True, False),
    "kill-mid-truncate": ("crash@wal.truncate#1", False, False),
    "torn-tail": (None, False, True),
}


class ChaosFailure(AssertionError):
    """A chaos scenario violated the recovery contract."""


def batch_payload(batch_index: int) -> dict:
    """Deterministic ingest batch ``batch_index`` (ids are explicit)."""
    profiles = []
    for offset in range(BATCH_SIZE):
        pid = batch_index * BATCH_SIZE + offset
        profiles.append(
            {
                "id": pid,
                "attributes": {
                    "name": f"alpha{pid % 5} beta{pid % 7} gamma{(pid * 3) % 11}",
                    "city": f"city{pid % 4}",
                },
            }
        )
    return {"profiles": profiles}


# ------------------------------------------------------------------- child
def run_child(wal_dir: str, snapshot_dir: str, *, query: bool) -> None:
    """Ingest the batch sequence, snapshotting midway; acks go to stdout."""
    from repro.service.store import CollectionStore

    store = CollectionStore(snapshot_dir=snapshot_dir, wal_dir=wal_dir)
    collection = store.get_or_create(COLLECTION)
    for batch in range(NUM_BATCHES):
        collection.ingest(batch_payload(batch))
        print(f"acked {batch}", flush=True)
        if query:
            collection.matches(0, 20)
        if batch + 1 == SNAPSHOT_AFTER:
            store.snapshot(COLLECTION)
            print("snapshotted", flush=True)
    store.close_all()
    print("done", flush=True)


# ------------------------------------------------------------------ parent
def build_twin(num_batches: int):
    """An uncrashed collection that ingested the first ``num_batches``."""
    from repro.service.collection import CollectionConfig, ServiceCollection

    twin = ServiceCollection(CollectionConfig(name=COLLECTION))
    for batch in range(num_batches):
        twin.ingest(batch_payload(batch))
    return twin


def state_fingerprint(collection) -> dict:
    """Everything two equivalent collections must agree on, hashable."""
    from repro.metablocking.index import ARRAY_FIELDS

    csr = collection.index.materialise()
    digest = hashlib.sha256()
    for field in ARRAY_FIELDS:
        digest.update(getattr(csr, field).tobytes())
    return {
        "profile_ids": collection.index.profile_ids(),
        "csr_sha256": digest.hexdigest(),
        "matches": collection.matches(0, 25),
        "candidates": collection.candidates(0),
    }


def tear_log_tail(wal_dir: str) -> None:
    """Append a partial record: a header promising more bytes than exist."""
    path = os.path.join(wal_dir, COLLECTION + ".wal")
    with open(path, "ab") as handle:
        handle.write(struct.pack("<QII", 999, 100, 0) + b"torn tail!")


def run_scenario(name: str, base_dir: "str | None" = None) -> dict:
    """Run one scenario end to end; raises :class:`ChaosFailure` on breach."""
    from repro.service.faults import CRASH_EXIT_CODE
    from repro.service.store import CollectionStore

    fault, query, torn = SCENARIOS[name]
    own_dir = None
    if base_dir is None:
        own_dir = tempfile.mkdtemp(prefix="repro-chaos-")
        base_dir = own_dir
    wal_dir = os.path.join(base_dir, "wal")
    snapshot_dir = os.path.join(base_dir, "snap")

    child_args = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--wal-dir", wal_dir, "--snapshot-dir", snapshot_dir,
    ]
    if query:
        child_args.append("--query")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    if fault:
        env["REPRO_SERVICE_FAULT"] = fault
    else:
        env.pop("REPRO_SERVICE_FAULT", None)
    child = subprocess.run(
        child_args, env=env, capture_output=True, text=True, timeout=180
    )
    expected_exit = CRASH_EXIT_CODE if fault else 0
    if child.returncode != expected_exit:
        raise ChaosFailure(
            f"{name}: child exited {child.returncode}, expected {expected_exit}\n"
            f"stdout: {child.stdout}\nstderr: {child.stderr}"
        )
    acked = sum(1 for line in child.stdout.splitlines() if line.startswith("acked "))

    if torn:
        tear_log_tail(wal_dir)

    store = CollectionStore(snapshot_dir=snapshot_dir, wal_dir=wal_dir)
    summary = store.recover()
    collection = store.get(COLLECTION)
    if collection is None:
        raise ChaosFailure(f"{name}: collection missing after recovery")

    profiles = collection.index.num_profiles
    if profiles % BATCH_SIZE != 0:
        raise ChaosFailure(
            f"{name}: recovered {profiles} profiles — not a whole number of "
            f"batches of {BATCH_SIZE} (torn batch applied?)"
        )
    applied_batches = profiles // BATCH_SIZE
    if applied_batches < acked:
        raise ChaosFailure(
            f"{name}: child acked {acked} batches but only {applied_batches} "
            f"survived recovery — an acked batch was lost"
        )
    if torn and summary["torn_truncations"] != 1:
        raise ChaosFailure(
            f"{name}: expected 1 torn-tail truncation, "
            f"got {summary['torn_truncations']}"
        )

    recovered = state_fingerprint(collection)
    twin = build_twin(applied_batches)
    try:
        expected = state_fingerprint(twin)
    finally:
        twin.close()
    if recovered != expected:
        diverged = sorted(k for k in recovered if recovered[k] != expected[k])
        raise ChaosFailure(
            f"{name}: recovered state diverges from the uncrashed twin "
            f"on {diverged}"
        )
    store.close_all()

    # Replay idempotence: a second recovery from the same disk state must
    # land on the same fingerprint.
    second = CollectionStore(snapshot_dir=snapshot_dir, wal_dir=wal_dir)
    second.recover()
    again = state_fingerprint(second.get(COLLECTION))
    second.close_all()
    if again != recovered:
        raise ChaosFailure(f"{name}: double recovery is not idempotent")

    leaked = [
        entry for entry in os.listdir(wal_dir) if not entry.endswith(".wal")
    ] + [
        os.path.join(directory, entry)
        for directory, _subdirs, entries in os.walk(snapshot_dir)
        for entry in entries
        if entry.endswith(".tmp")
    ]
    if leaked:
        raise ChaosFailure(f"{name}: leaked files {leaked}")
    if own_dir is not None:
        import shutil

        shutil.rmtree(own_dir, ignore_errors=True)
    return {
        "scenario": name,
        "fault": fault,
        "acked_batches": acked,
        "applied_batches": applied_batches,
        "replayed": summary["replayed"].get(COLLECTION, 0),
        "torn_truncations": summary["torn_truncations"],
        "swept": len(summary["swept"]),
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--wal-dir", help=argparse.SUPPRESS)
    parser.add_argument("--snapshot-dir", help=argparse.SUPPRESS)
    parser.add_argument("--query", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "-s", "--scenario", action="append", choices=sorted(SCENARIOS),
        help="run only the named scenario(s); default: the full matrix",
    )
    args = parser.parse_args(argv)
    if args.child:
        run_child(args.wal_dir, args.snapshot_dir, query=args.query)
        return 0
    failures = 0
    for name in args.scenario or sorted(SCENARIOS):
        try:
            outcome = run_scenario(name)
        except ChaosFailure as failure:
            failures += 1
            print(f"FAIL {name}: {failure}")
        else:
            print(
                "ok {scenario}: fault={fault} acked={acked_batches} "
                "applied={applied_batches} replayed={replayed} "
                "torn={torn_truncations} swept={swept}".format(**outcome)
            )
    if failures:
        print(f"{failures} chaos scenario(s) failed")
        return 1
    print("service chaos matrix passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
