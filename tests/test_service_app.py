"""End-to-end tests of the ER service: collections, endpoints, snapshots.

The HTTP round-trips run a real :class:`~repro.service.app.ServiceApp` on an
ephemeral port inside one asyncio loop per test, with blocking urllib calls
pushed to the default executor.  The library-level behaviour (ingest
parsing, budgeted match prefixes, snapshot/restore) is additionally tested
directly on :class:`~repro.service.collection.ServiceCollection`, which is
what the acceptance contract is stated against: ``GET .../matches`` under
budget ``B`` must return exactly the progressive ``stream()`` prefix of
length ≤ ``B`` over the union collection.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.blocking.token_blocking import TokenBlocking
from repro.data.dataset import ProfileCollection
from repro.exceptions import ConfigurationError, DataError
from repro.metablocking.progressive import ProgressiveSortedComparisons
from repro.service import (
    CollectionConfig,
    CollectionStore,
    ServiceApp,
    ServiceCollection,
)

from tests.test_metablocking_incremental import _random_profiles


def _ingest_payload(profiles):
    return {
        "profiles": [
            {
                "id": profile.profile_id,
                "source": profile.source_id,
                "attributes": {
                    "name": [kv.value for kv in profile.attributes if kv.attribute == "name"],
                    "unique": [kv.value for kv in profile.attributes if kv.attribute == "unique"],
                },
            }
            for profile in profiles
        ]
    }


# --------------------------------------------------------------- collection
class TestServiceCollection:
    def test_matches_is_the_progressive_stream_prefix(self):
        """The acceptance contract, checked at every budget."""
        profiles = _random_profiles(60, clean_clean=False, seed=31)
        collection = ServiceCollection(CollectionConfig(name="c"))
        try:
            collection.ingest(_ingest_payload(profiles[:40]))
            collection.ingest(_ingest_payload(profiles[40:]))
            blocks = TokenBlocking().block(ProfileCollection(profiles))
            full_stream = list(ProgressiveSortedComparisons("cbs").stream(blocks))
            for budget in (0, 1, 5, len(full_stream), len(full_stream) + 50):
                result = collection.matches(0, budget)
                expected = full_stream[:budget]
                assert result["candidates"] == [list(p) for p in expected]
                assert len(result["candidates"]) <= budget
                assert result["matches"] == [
                    list(p) for p in expected if 0 in p
                ]
        finally:
            collection.close()

    def test_repeated_queries_reuse_the_cached_prefix(self):
        profiles = _random_profiles(40, clean_clean=False, seed=13)
        collection = ServiceCollection(CollectionConfig(name="c"))
        try:
            collection.ingest(_ingest_payload(profiles))
            big = collection.matches(0, 50)["candidates"]
            assert collection.stats()["ranked_prefix"] >= len(big[:50])
            small = collection.matches(1, 10)["candidates"]
            assert small == big[:10]
        finally:
            collection.close()

    def test_ingest_assigns_missing_ids_sequentially(self):
        collection = ServiceCollection(CollectionConfig(name="c"))
        try:
            summary = collection.ingest(
                {"profiles": [
                    {"attributes": {"name": "alpha"}},
                    {"id": 10, "attributes": {"name": "alpha"}},
                    {"attributes": {"name": "alpha"}},
                ]}
            )
            assert summary["appended"] == 3
            assert collection.index.profile_ids() == [0, 10, 11]
        finally:
            collection.close()

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"profiles": "nope"},
            {"profiles": [17]},
            {"profiles": [{"id": "x"}]},
            {"profiles": [{"source": 2}]},
            {"profiles": [{"attributes": ["not", "a", "dict"]}]},
            {"profiles": [{"attributes": {"name": [{"nested": True}]}}]},
        ],
    )
    def test_ingest_rejects_malformed_payloads(self, payload):
        collection = ServiceCollection(CollectionConfig(name="c"))
        try:
            with pytest.raises(DataError):
                collection.ingest(payload)
        finally:
            collection.close()

    def test_candidates_refreshes_the_delta_metablocker(self):
        profiles = _random_profiles(50, clean_clean=False, seed=41)
        collection = ServiceCollection(CollectionConfig(name="c"))
        try:
            collection.ingest(_ingest_payload(profiles[:30]))
            first = collection.candidates(0)
            assert first["refresh_mode"] == "full"
            # Same compaction: the cached map answers, nothing is recomputed
            # (an empty batch appends nothing, so it compacts nothing).
            assert collection.candidates(0)["refresh_mode"] == "local"
            collection.ingest({"profiles": []})
            assert collection.candidates(0)["refresh_mode"] == "local"
            collection.ingest(_ingest_payload(profiles[30:]))
            second = collection.candidates(0)
            assert second["refresh_mode"] == "full"
            assert collection.delta.local_refreshes == 2
            assert collection.delta.full_refreshes == 2
            for entry in second["candidates"]:
                assert 0 in entry["pair"]
        finally:
            collection.close()

    def test_collection_config_validation(self):
        with pytest.raises(ConfigurationError):
            CollectionConfig(name="bad name!")
        with pytest.raises(ConfigurationError):
            CollectionConfig(name="ok", progressive="bogus")
        with pytest.raises(ConfigurationError):
            CollectionConfig.from_dict({"name": "ok", "unknown_key": 1})
        config = CollectionConfig.from_dict({"name": "ok", "weighting": "js"})
        assert CollectionConfig.from_dict(config.as_dict()) == config


# -------------------------------------------------------------------- store
class TestCollectionStore:
    def test_snapshot_and_restore_round_trip(self, tmp_path):
        profiles = _random_profiles(45, clean_clean=False, seed=29)
        store = CollectionStore(snapshot_dir=str(tmp_path))
        collection = store.get_or_create("demo")
        collection.ingest(_ingest_payload(profiles))
        reference = collection.matches(0, 25)
        collection.candidates(0)
        summary = store.snapshot("demo")
        assert summary["profiles"] == len(profiles)
        store.close_all()

        reloaded = CollectionStore(snapshot_dir=str(tmp_path))
        assert reloaded.load_snapshots() == ["demo"]
        restored = reloaded.get("demo")
        assert restored.index.profile_ids() == sorted(
            p.profile_id for p in profiles
        )
        assert restored.matches(0, 25) == reference
        # The snapshot carries no retained map; the first query recomputes it.
        assert restored.delta.retained == {}
        assert restored.candidates(0)["refresh_mode"] == "full"
        assert restored.delta.retained == collection.delta.retained
        reloaded.close_all()

    def test_snapshot_without_directory_is_a_configuration_error(self):
        store = CollectionStore()
        store.get_or_create("demo")
        with pytest.raises(ConfigurationError, match="snapshot directory"):
            store.snapshot("demo")
        with pytest.raises(ConfigurationError, match="unknown collection"):
            CollectionStore(snapshot_dir="/tmp").snapshot("missing")
        store.close_all()

    def test_defaults_shape_new_collections(self):
        store = CollectionStore(defaults={"weighting": "js", "pruning": "cnp"})
        collection = store.get_or_create("demo")
        assert collection.config.weighting == "js"
        assert collection.config.pruning == "cnp"
        assert store.get_or_create("demo") is collection
        with pytest.raises(ConfigurationError, match="already exists"):
            store.add(ServiceCollection(CollectionConfig(name="demo")))
        store.close_all()


# ----------------------------------------------------------------- HTTP app
def _request(port, method, path, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _run_against_app(scenario, app=None):
    """Start ``app`` on an ephemeral port and run blocking ``scenario(call)``."""
    app = app or ServiceApp()

    async def main():
        await app.start()
        loop = asyncio.get_running_loop()

        def call(method, path, payload=None):
            return _request(app.port, method, path, payload)

        try:
            await loop.run_in_executor(None, scenario, call)
        finally:
            await app.stop()

    asyncio.run(main())


class TestServiceApp:
    def test_health_ingest_match_candidates_metrics(self):
        profiles = _random_profiles(30, clean_clean=False, seed=3)

        def scenario(call):
            status, health = call("GET", "/healthz")
            assert status == 200 and health["status"] == "ok"

            status, ingested = call(
                "POST", "/collections/demo/profiles", _ingest_payload(profiles)
            )
            assert status == 201
            assert ingested["appended"] == len(profiles)

            status, matches = call("GET", "/collections/demo/matches/0?budget=7")
            assert status == 200
            assert matches["budget"] == 7
            assert len(matches["candidates"]) <= 7
            for pair in matches["matches"]:
                assert 0 in pair

            status, candidates = call("GET", "/collections/demo/candidates/0")
            assert status == 200
            assert candidates["refresh_mode"] == "full"
            status, again = call("GET", "/collections/demo/candidates/0")
            assert status == 200 and again["refresh_mode"] == "local"
            assert again["candidates"] == candidates["candidates"]

            status, listing = call("GET", "/collections")
            assert status == 200
            assert set(listing["collections"]) == {"demo"}

            status, metrics = call("GET", "/metrics")
            assert status == 200
            assert metrics["requests"] >= 5
            assert metrics["errors"] == 0
            assert metrics["collections"]["demo"]["profiles"] == len(profiles)
            assert "GET /healthz" in metrics["endpoints"]
            assert metrics["endpoints"]["GET /healthz"]["count"] >= 1

        _run_against_app(scenario)

    def test_error_statuses(self):
        def scenario(call):
            assert call("GET", "/collections/none/matches/0")[0] == 404
            assert call("GET", "/nope")[0] == 404
            assert call("DELETE", "/healthz")[0] == 405
            status, error = call("POST", "/collections/demo/profiles", {"bad": 1})
            assert status == 400 and "profiles" in error["error"]
            call(
                "POST",
                "/collections/demo/profiles",
                {"profiles": [{"attributes": {"name": "alpha"}}]},
            )
            assert call("GET", "/collections/demo/matches/99")[0] == 404
            assert call("GET", "/collections/demo/matches/not-an-int")[0] == 400
            status, _ = call("GET", "/collections/demo/matches/0?budget=-1")
            assert status == 400
            # Ingesting a duplicate id is a DataError → 400, not a 500.
            status, error = call(
                "POST",
                "/collections/demo/profiles",
                {"profiles": [{"id": 0, "attributes": {"name": "alpha"}}]},
            )
            assert status == 400 and "strictly increasing" in error["error"]

        _run_against_app(scenario)

    def test_snapshot_endpoint_and_shutdown_sweep(self, tmp_path):
        from repro.pipeline.checkpoint import temp_files, write_synced_temp

        store = CollectionStore(
            snapshot_dir=str(tmp_path / "snap"), wal_dir=str(tmp_path / "wal")
        )
        app = ServiceApp(store)
        strays = []

        def scenario(call):
            call(
                "POST",
                "/collections/demo/profiles",
                {"profiles": [{"attributes": {"name": "alpha bravo"}}]},
            )
            status, summary = call("POST", "/collections/demo/snapshot")
            assert status == 201
            assert summary["collection"] == "demo"
            assert (tmp_path / "snap" / "demo" / "pipeline_state.pkl").is_file()
            assert call("POST", "/collections/missing/snapshot")[0] == 400
            assert call("GET", "/metrics")[1]["tmp_artifacts"] == 0
            # What a write cut short would leave, in both kinds of directory.
            strays.append(write_synced_temp(tmp_path / "wal" / "demo.wal", b"x"))
            strays.append(
                write_synced_temp(tmp_path / "snap" / "demo" / "pipeline_state.pkl", b"x")
            )
            assert call("GET", "/metrics")[1]["tmp_artifacts"] == 2

        _run_against_app(scenario, app)
        # stop() ran the shutdown sweep: no temp file remains on disk.
        assert [t for d in store.directories() for t in temp_files(d)] == []
        assert not any(os.path.exists(stray) for stray in strays)
        assert sorted(os.listdir(tmp_path / "wal")) == ["demo.wal"]
        app.shutdown()  # idempotent


# --------------------------------------------- offload, admission, degraded
def _request_headers(port, method, path, payload=None):
    """Like :func:`_request` but also returns the response headers."""
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, dict(response.headers), json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def _slow(collection, seconds):
    """Monkeypatch-free slow-down of a collection's matches sweep."""
    original = collection.matches

    def slow_matches(profile_id, budget):
        time.sleep(seconds)
        return original(profile_id, budget)

    collection.matches = slow_matches


class TestServiceConcurrency:
    def test_cold_sweep_does_not_block_probes_or_other_tenants(self):
        """Event-loop liveness: a pinned sweep on one collection leaves
        ``healthz`` and a second collection answering within a bound far
        below the sweep's duration."""
        profiles = _random_profiles(25, clean_clean=False, seed=7)
        app = ServiceApp(workers=2)

        def scenario(call):
            call("POST", "/collections/slow/profiles", _ingest_payload(profiles))
            call("POST", "/collections/fast/profiles", _ingest_payload(profiles))
            call("GET", "/collections/fast/matches/0?budget=5")  # warm cache
            _slow(app.store.get("slow"), 1.5)

            outcome = {}
            pinned = threading.Thread(
                target=lambda: outcome.update(
                    slow=call("GET", "/collections/slow/matches/0?budget=5")
                )
            )
            pinned.start()
            time.sleep(0.2)  # the sweep is now occupying a pool worker
            latencies = []
            for _ in range(3):
                for path in ("/healthz", "/collections/fast/matches/0?budget=5"):
                    started = time.perf_counter()
                    status, _ = call("GET", path)
                    latencies.append(time.perf_counter() - started)
                    assert status == 200
            pinned.join()
            assert outcome["slow"][0] == 200
            assert max(latencies) < 0.75  # far below the 1.5s pinned sweep

            status, metrics = call("GET", "/metrics")
            assert status == 200
            assert metrics["offload"]["peak_queue_depth"] >= 1
            assert metrics["offload"]["wait"]["count"] >= 1

        _run_against_app(scenario, app)

    def test_per_collection_inflight_cap_sheds_429(self):
        app = ServiceApp(workers=1, max_collection_inflight=1)

        def scenario(call):
            call("POST", "/collections/t/profiles", {"profiles": [{"id": 0}]})
            _slow(app.store.get("t"), 1.0)
            pinned = threading.Thread(
                target=lambda: call("GET", "/collections/t/matches/0?budget=5")
            )
            pinned.start()
            time.sleep(0.2)
            status, headers, error = _request_headers(
                app.port, "GET", "/collections/t/matches/0?budget=5"
            )
            assert status == 429
            assert headers.get("Retry-After") == "1"
            assert "in flight" in error["error"]
            pinned.join()
            status, metrics = call("GET", "/metrics")
            assert metrics["counters"]["responses_429"] == 1

        _run_against_app(scenario, app)

    def test_global_queue_depth_cap_sheds_429(self):
        app = ServiceApp(workers=1, max_queue_depth=1)

        def scenario(call):
            call("POST", "/collections/t/profiles", {"profiles": [{"id": 0}]})
            call("POST", "/collections/u/profiles", {"profiles": [{"id": 0}]})
            _slow(app.store.get("t"), 1.0)
            pinned = threading.Thread(
                target=lambda: call("GET", "/collections/t/matches/0?budget=5")
            )
            pinned.start()
            time.sleep(0.2)
            # A *different* collection is shed too: the cap is global.
            status, headers, error = _request_headers(
                app.port, "GET", "/collections/u/matches/0?budget=5"
            )
            assert status == 429
            assert headers.get("Retry-After") == "1"
            assert "queue is full" in error["error"]
            pinned.join()

        _run_against_app(scenario, app)

    def test_request_deadline_expires_with_503(self):
        app = ServiceApp(workers=2, request_timeout=0.3)

        def scenario(call):
            call("POST", "/collections/t/profiles", {"profiles": [{"id": 0}]})
            _slow(app.store.get("t"), 1.0)
            started = time.perf_counter()
            status, error = call("GET", "/collections/t/matches/0?budget=5")
            assert status == 503
            assert "deadline expired" in error["error"]
            assert time.perf_counter() - started < 0.9
            # The zombie sweep finishes in the background and releases the
            # collection gate: the next (fast) request succeeds.
            time.sleep(0.9)
            del app.store.get("t").matches  # restore the real method
            assert call("GET", "/collections/t/matches/0?budget=5")[0] == 200
            status, metrics = call("GET", "/metrics")
            assert metrics["counters"]["responses_503"] >= 1
            assert metrics["offload"]["queue_depth"] == 0

        _run_against_app(scenario, app)

    def test_degraded_collection_serves_reads_rejects_writes(self, tmp_path):
        store = CollectionStore(
            snapshot_dir=str(tmp_path / "snap"), wal_dir=str(tmp_path / "wal")
        )
        app = ServiceApp(store)
        profiles = _random_profiles(15, clean_clean=False, seed=11)

        def scenario(call):
            status, _ = call(
                "POST", "/collections/demo/profiles", _ingest_payload(profiles)
            )
            assert status == 201

            def broken_append(payload):
                raise OSError(28, "No space left on device")

            store.get("demo").wal.append = broken_append
            status, error = call(
                "POST", "/collections/demo/profiles", {"profiles": [{"id": 99}]}
            )
            assert status == 507
            assert "read-only" in error["error"]
            # Subsequent writes are rejected up front (507), snapshots too.
            assert call(
                "POST", "/collections/demo/profiles", {"profiles": [{"id": 99}]}
            )[0] == 507
            assert call("POST", "/collections/demo/snapshot")[0] == 507
            # Reads keep serving.
            assert call("GET", "/collections/demo/matches/0?budget=5")[0] == 200
            status, health = call("GET", "/healthz")
            assert status == 200
            assert health["status"] == "degraded"
            assert "demo" in health["degraded_collections"]
            status, metrics = call("GET", "/metrics")
            assert metrics["counters"]["responses_507"] >= 3
            assert metrics["collections"]["demo"]["degraded"] is not None

        _run_against_app(scenario, app)

    def test_ingest_bumps_the_wal_append_counter(self, tmp_path):
        store = CollectionStore(wal_dir=str(tmp_path / "wal"))
        app = ServiceApp(store)

        def scenario(call):
            call("POST", "/collections/demo/profiles", {"profiles": [{"id": 0}]})
            call("POST", "/collections/demo/profiles", {"profiles": [{"id": 1}]})
            status, metrics = call("GET", "/metrics")
            assert metrics["counters"]["wal_appends"] == 2
            assert metrics["collections"]["demo"]["wal"]["appends"] == 2

        _run_against_app(scenario, app)

    def test_stop_drains_inflight_requests_before_sweeping(self):
        """Graceful shutdown waits for the pinned request to answer."""
        profiles = _random_profiles(15, clean_clean=False, seed=5)
        app = ServiceApp(drain_timeout=5.0)
        outcome = {}

        async def main():
            await app.start()
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None,
                lambda: _request(
                    app.port, "POST", "/collections/demo/profiles",
                    _ingest_payload(profiles),
                ),
            )
            _slow(app.store.get("demo"), 0.6)
            pinned = loop.run_in_executor(
                None,
                lambda: _request(app.port, "GET", "/collections/demo/matches/0?budget=5"),
            )
            await asyncio.sleep(0.2)  # the request is on the worker pool
            await app.stop()  # must drain the pinned request, not kill it
            outcome["pinned"] = await pinned

        asyncio.run(main())
        status, payload = outcome["pinned"]
        assert status == 200
        assert payload["budget"] == 5

    def test_admission_configuration_is_validated(self):
        with pytest.raises(ConfigurationError, match="workers"):
            ServiceApp(workers=0)
        with pytest.raises(ConfigurationError, match="admission caps"):
            ServiceApp(max_queue_depth=0)
        with pytest.raises(ConfigurationError, match="admission caps"):
            ServiceApp(max_collection_inflight=0)
        with pytest.raises(ConfigurationError, match="request_timeout"):
            ServiceApp(request_timeout=0)
        with pytest.raises(ConfigurationError, match="drain_timeout"):
            ServiceApp(drain_timeout=-1)
