"""Managed temp artifacts: pid-stamped naming, crash sweep (root resolution:
tests/test_options.py)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.engine import tmpfiles


class TestArtifactCreation:
    def test_path_is_pid_stamped_and_owned(self, tmp_path):
        path = tmpfiles.make_artifact_path("demo", tmp_path)
        try:
            name = os.path.basename(path)
            assert name.startswith(f"repro-demo-{os.getpid()}-")
            assert os.path.dirname(path) == str(tmp_path)
            # Reserved, not created: the caller writes it.
            assert not os.path.exists(path)
            assert path in tmpfiles.live_artifacts("demo")
        finally:
            tmpfiles.discard_artifact(path)

    def test_paths_are_unique(self, tmp_path):
        paths = [tmpfiles.make_artifact_path("demo", tmp_path) for _ in range(5)]
        try:
            assert len(set(paths)) == 5
        finally:
            for path in paths:
                tmpfiles.discard_artifact(path)

    def test_artifact_dir_is_created(self, tmp_path):
        path = tmpfiles.make_artifact_dir("demo", tmp_path)
        assert os.path.isdir(path)
        tmpfiles.discard_artifact(path)
        assert not os.path.exists(path)

    def test_non_alphanumeric_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            tmpfiles.make_artifact_path("bad-kind", tmp_path)

    def test_missing_root_is_created(self, tmp_path):
        root = tmp_path / "nested" / "root"
        path = tmpfiles.make_artifact_path("demo", root)
        try:
            assert os.path.isdir(root)
        finally:
            tmpfiles.discard_artifact(path)

    def test_live_artifacts_filters_by_kind(self, tmp_path):
        demo = tmpfiles.make_artifact_path("demo", tmp_path)
        other = tmpfiles.make_artifact_path("other", tmp_path)
        try:
            assert demo in tmpfiles.live_artifacts("demo")
            assert other not in tmpfiles.live_artifacts("demo")
            everything = tmpfiles.live_artifacts()
            assert demo in everything and other in everything
        finally:
            tmpfiles.discard_artifact(demo)
            tmpfiles.discard_artifact(other)


class TestDiscard:
    def test_removes_file_and_ownership(self, tmp_path):
        path = tmpfiles.make_artifact_path("demo", tmp_path)
        with open(path, "wb") as handle:
            handle.write(b"payload")
        tmpfiles.discard_artifact(path)
        assert not os.path.exists(path)
        assert path not in tmpfiles.live_artifacts()

    def test_idempotent_on_missing_path(self, tmp_path):
        path = tmpfiles.make_artifact_path("demo", tmp_path)
        tmpfiles.discard_artifact(path)
        tmpfiles.discard_artifact(path)  # second call must not raise

    def test_discard_live_artifacts_sweeps_owned_paths(self, tmp_path):
        demo = tmpfiles.make_artifact_path("demo", tmp_path)
        other = tmpfiles.make_artifact_dir("other", tmp_path)
        with open(demo, "wb") as handle:
            handle.write(b"payload")
        try:
            # Kind-filtered sweep leaves the other family untouched.
            removed = tmpfiles.discard_live_artifacts("demo")
            assert removed == [demo]
            assert not os.path.exists(demo)
            assert os.path.isdir(other)
            assert other in tmpfiles.live_artifacts()
            removed = tmpfiles.discard_live_artifacts()
            assert other in removed
            assert not os.path.exists(other)
            assert other not in tmpfiles.live_artifacts()
            # Idempotent: a second sweep finds nothing of ours.
            assert other not in tmpfiles.discard_live_artifacts()
        finally:
            tmpfiles.discard_artifact(demo)
            tmpfiles.discard_artifact(other)


def _dead_pid() -> int:
    """A pid that certainly no longer exists (a reaped child's)."""
    child = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True, text=True, check=True,
    )
    return int(child.stdout)


class TestSweep:
    def test_dead_pid_artifacts_are_removed(self, tmp_path):
        pid = _dead_pid()
        orphan_file = tmp_path / f"repro-csrbuf-{pid}-0"
        orphan_file.write_bytes(b"stale")
        orphan_dir = tmp_path / f"repro-spill-{pid}-1"
        orphan_dir.mkdir()
        (orphan_dir / "bucket").write_bytes(b"stale")
        removed = tmpfiles.sweep_orphaned_artifacts(tmp_path)
        assert sorted(removed) == sorted([str(orphan_file), str(orphan_dir)])
        assert not orphan_file.exists()
        assert not orphan_dir.exists()

    def test_live_pid_artifacts_are_kept(self, tmp_path):
        survivor = tmp_path / f"repro-csrbuf-{os.getpid()}-7"
        survivor.write_bytes(b"in use")
        assert tmpfiles.sweep_orphaned_artifacts(tmp_path) == []
        assert survivor.exists()

    def test_owned_artifacts_are_kept(self, tmp_path):
        path = tmpfiles.make_artifact_path("demo", tmp_path)
        with open(path, "wb") as handle:
            handle.write(b"mine")
        try:
            assert tmpfiles.sweep_orphaned_artifacts(tmp_path) == []
            assert os.path.exists(path)
        finally:
            tmpfiles.discard_artifact(path)

    def test_foreign_names_are_untouched(self, tmp_path):
        pid = _dead_pid()
        foreign = [
            tmp_path / "unrelated.txt",
            tmp_path / "repro-legacy-a1b2c3",  # non-integer pid field
            tmp_path / f"repro-spill-{pid}-3-extra",  # five fields
            tmp_path / f"repro--{pid}-0",  # empty kind
        ]
        for item in foreign:
            item.write_bytes(b"keep")
        assert tmpfiles.sweep_orphaned_artifacts(tmp_path) == []
        assert all(item.exists() for item in foreign)

    def test_missing_root_is_a_noop(self, tmp_path):
        assert tmpfiles.sweep_orphaned_artifacts(tmp_path / "absent") == []


class TestReleaseArtifact:
    def test_release_drops_ownership_but_keeps_the_file(self, tmp_path):
        path = tmpfiles.make_artifact_path("waltmp", tmp_path)
        durable = tmp_path / "log.wal"
        with open(path, "wb") as handle:
            handle.write(b"rewritten")
        os.replace(path, durable)
        tmpfiles.release_artifact(path)
        assert path not in tmpfiles.live_artifacts()
        assert durable.read_bytes() == b"rewritten"
        # The shutdown sweep no longer knows the reserved path.
        tmpfiles.discard_live_artifacts()
        assert durable.exists()

    def test_release_of_unknown_path_is_a_noop(self, tmp_path):
        tmpfiles.release_artifact(str(tmp_path / "never-reserved"))


class TestKindFilteredSweep:
    def test_sweep_only_touches_the_requested_kind(self, tmp_path):
        pid = _dead_pid()
        wal_orphan = tmp_path / f"repro-waltmp-{pid}-0"
        wal_orphan.write_bytes(b"stale rewrite")
        other_orphan = tmp_path / f"repro-csrbuf-{pid}-1"
        other_orphan.write_bytes(b"someone else's")
        removed = tmpfiles.sweep_orphaned_artifacts(tmp_path, kind="waltmp")
        assert removed == [str(wal_orphan)]
        assert not wal_orphan.exists()
        assert other_orphan.exists()
        # An unfiltered sweep still reclaims the rest.
        assert tmpfiles.sweep_orphaned_artifacts(tmp_path) == [str(other_orphan)]
