#!/usr/bin/env python
"""CI smoke driver for the ER service.

Starts ``python -m repro.cli serve`` on an ephemeral port, then drives the whole request surface over real HTTP:

1. ``ping`` (the CLI healthcheck helper) must succeed;
2. ingest two batches into one collection (plus one into a second tenant);
3. a budgeted match query must honour the budget and return the documented
   response schema;
4. a delta-refreshed candidates query must return exactly the retained edges
   of profile 0 that an in-process batch ``MetaBlocker`` run computes on the
   same profiles (weights through JSON, best first);
5. ``/metrics`` must report the traffic with per-endpoint histograms;
6. after SIGTERM the server must exit 0 and leave **zero** new ``repro-*``
   shared-memory segments behind.

Exits non-zero with a diagnostic on the first violated expectation.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import urllib.error
import urllib.request


def fail(message: str) -> None:
    print(f"service smoke FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def expect(condition: bool, message: str) -> None:
    if not condition:
        fail(message)


def request(port: int, method: str, path: str, payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def profile_batch(start: int, count: int) -> dict:
    words = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot"]
    return {
        "profiles": [
            {
                "id": start + offset,
                "attributes": {
                    "name": f"{words[(start + offset) % 6]} {words[(start + offset) % 4]}",
                    "city": words[(start + offset) % 3],
                },
            }
            for offset in range(count)
        ]
    }


def expected_candidates(payloads: list, profile_id: int) -> list:
    """The candidates payload an in-process batch run predicts.

    Independent of the service code: profiles -> token blocking ->
    ``MetaBlocker`` with the server's default collection config (CBS, WNP),
    then the retained edges incident to ``profile_id``, best first.
    """
    from repro.blocking.token_blocking import TokenBlocking
    from repro.data.dataset import ProfileCollection
    from repro.data.profile import EntityProfile
    from repro.metablocking.metablocker import MetaBlocker

    profiles = []
    for raw in (profile for payload in payloads for profile in payload["profiles"]):
        profile = EntityProfile(raw["id"], str(raw["id"]), 0)
        for attribute, value in raw["attributes"].items():
            profile.add(attribute, str(value))
        profiles.append(profile)
    blocks = TokenBlocking().block(ProfileCollection(profiles))
    retained = MetaBlocker("cbs", "wnp").run(blocks).retained_edges
    incident = sorted(
        ((pair, weight) for pair, weight in retained.items() if profile_id in pair),
        key=lambda item: (-item[1], item[0]),
    )
    return json.loads(json.dumps(
        [{"pair": list(pair), "weight": weight} for pair, weight in incident]
    ))


def _repro_segments() -> "set[str]":
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro-")}
    except OSError:  # no /dev/shm on this platform
        return set()


def main() -> int:
    segments_before = _repro_segments()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    port = None
    try:
        for _ in range(400):
            line = server.stdout.readline()
            if not line:
                break
            print(f"server: {line.rstrip()}")
            if line.startswith("serving on "):
                port = int(line.strip().rsplit(":", 1)[1])
                break
        expect(port is not None, "server never announced its port")

        ping = subprocess.run(
            [sys.executable, "-m", "repro.cli", "ping", "--port", str(port),
             "--timeout", "30"],
            env=env,
        )
        expect(ping.returncode == 0, "repro.cli ping reported unhealthy")

        batches = [profile_batch(0, 40), profile_batch(40, 20)]
        status, first = request(port, "POST", "/collections/smoke/profiles", batches[0])
        expect(status == 201, f"first ingest returned {status}: {first}")
        expect(first["appended"] == 40, f"bad ingest summary: {first}")
        status, second = request(port, "POST", "/collections/smoke/profiles", batches[1])
        expect(status == 201 and second["total_profiles"] == 60,
               f"second ingest wrong: {second}")
        status, _other = request(
            port, "POST", "/collections/tenant2/profiles", profile_batch(0, 5)
        )
        expect(status == 201, "second tenant ingest failed")

        budget = 25
        status, matches = request(
            port, "GET", f"/collections/smoke/matches/0?budget={budget}"
        )
        expect(status == 200, f"match query returned {status}: {matches}")
        for key in ("profile_id", "budget", "scheduled", "candidates", "matches"):
            expect(key in matches, f"match response missing {key!r}: {matches}")
        expect(matches["budget"] == budget, "echoed budget differs")
        expect(len(matches["candidates"]) <= budget, "budget exceeded")
        expect(
            all(isinstance(pair, list) and len(pair) == 2
                for pair in matches["candidates"]),
            "candidates are not id pairs",
        )
        expect(
            all(0 in pair for pair in matches["matches"]),
            "matches contain pairs without the queried profile",
        )

        status, candidates = request(
            port, "GET", "/collections/smoke/candidates/0"
        )
        expect(status == 200, f"candidates query returned {status}")
        expect(candidates["refresh_mode"] in ("full", "local"),
               f"bad refresh mode: {candidates}")
        for entry in candidates["candidates"]:
            expect(
                sorted(entry) == ["pair", "weight"] and 0 in entry["pair"],
                f"malformed candidate entry: {entry}",
            )
        expected = expected_candidates(batches, 0)
        expect(bool(expected), "smoke data induces no candidate for profile 0")
        expect(candidates["candidates"] == expected,
               f"candidates differ from the in-process MetaBlocker run: "
               f"{candidates['candidates']} != {expected}")

        status, metrics = request(port, "GET", "/metrics")
        expect(status == 200, "metrics endpoint failed")
        expect(metrics["errors"] == 0, f"service recorded errors: {metrics}")
        expect(set(metrics["collections"]) == {"smoke", "tenant2"},
               f"wrong tenant listing: {sorted(metrics['collections'])}")
        endpoint = metrics["endpoints"].get(
            "GET /collections/{name}/matches/{profile_id}"
        )
        expect(bool(endpoint) and endpoint["count"] >= 1,
               "match endpoint histogram missing")
        expect(endpoint["p95"] >= endpoint["p50"] >= 0.0,
               f"non-monotone latency quantiles: {endpoint}")
    finally:
        server.send_signal(signal.SIGTERM)
        remainder = server.stdout.read()
        returncode = server.wait(timeout=60)
        if remainder:
            print(f"server: {remainder.rstrip()}")

    expect(returncode == 0, f"server exited with {returncode}")
    leaked = _repro_segments() - segments_before
    expect(not leaked, f"leaked shared-memory segments: {sorted(leaked)}")
    print("service smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
