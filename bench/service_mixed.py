"""``service_mixed``: writes beside reads on one ``repro.cli serve`` process.

A fixed, seeded **open-loop** schedule from this one generator process, two
connection slots (threads):

* slot A — ``GET /collections/hot/matches/{id}?budget=500`` at ``READ_RATE``
  per second (a warm slice of the cached ranking);
* slot B — every ``CYCLE_PERIOD_S`` seconds one churn cycle on tenant
  ``churn``: ``POST .../profiles`` (``BATCH`` profiles) -> ``GET
  .../candidates/{id}`` -> ``GET .../matches/{id}?budget=500`` (cold:
  compaction + ranking sweep).

Latency runs from each request's **due** time, so a stall is charged to every
request it delays.  An in-process ``ServiceCollection`` twin replays the
identical batch/query sequence afterwards: it is the correctness oracle for
every response and, wrapped in spans, the per-layer attribution.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.data.synthetic import generate_scalability_products
from repro.evaluation.metrics import pair_metrics
from repro.service.collection import CollectionConfig, ServiceCollection
from repro.service.wal import WriteAheadLog

from batch import Checks, finish, setup_metrics, timed_setup
from reference import NOMINAL_S, RelativeClock, reference
from spans import Tracer, percentile, summarise

HOT_PROFILES = 4000        # preloaded, then only read
CHURN_PRELOAD = 2000       # preloaded; every cycle appends BATCH more
BATCH = 100
PRELOAD_BATCH = 1000
BUDGET = 500
READ_RATE = 100            # slot A requests per second, under half of capacity
CYCLE_PERIOD_S = 1.0       # slot B period
CLIENT_TIMEOUT_S = 10.0
WAL_FSYNC = "batch"


def _payloads(entities: int, seed: int, count: int):
    """The first ``count`` generated profiles as ingest payloads, plus truth."""
    dataset = generate_scalability_products(entities, seed=seed)
    profiles = sorted(dataset.profiles, key=lambda p: p.profile_id)[:count]
    if len(profiles) < count:
        raise RuntimeError(f"generator yielded {len(profiles)} < {count} profiles")
    payloads = [
        {
            "id": profile.profile_id,
            "attributes": {
                kv.attribute: profile.values_of(kv.attribute)
                for kv in profile.attributes
            },
        }
        for profile in profiles
    ]
    truth = dataset.ground_truth.restricted_to(p.profile_id for p in profiles)
    return payloads, truth


class Plan:
    """Everything the schedule sends, fixed by the seed before the clock starts."""

    def __init__(self, seed: int, seconds: float, scale: int) -> None:
        hot_count = HOT_PROFILES // scale
        self.batch = max(2, BATCH // scale)
        self.cycles = max(1, int(seconds / CYCLE_PERIOD_S))
        churn_count = CHURN_PRELOAD // scale + self.cycles * self.batch
        # The generator emits 1.9 profiles per entity on average; 0.7 is safe.
        self.hot, _ = _payloads(int(hot_count * 0.7) + 10, seed, hot_count)
        churn, self.churn_truth = _payloads(
            int(churn_count * 0.7) + 10, seed + 1, churn_count
        )
        preload = CHURN_PRELOAD // scale
        self.churn_preload = churn[:preload]
        self.churn_batches = [
            churn[preload + k * self.batch : preload + (k + 1) * self.batch]
            for k in range(self.cycles)
        ]
        rng = random.Random(seed)
        self.reads = [
            self.hot[rng.randrange(hot_count)]["id"]
            for _ in range(int(seconds * READ_RATE))
        ]
        self.sizes = {
            "hot_profiles": hot_count,
            "churn_preload": preload,
            "batch": self.batch,
            "cycles": self.cycles,
            "reads": len(self.reads),
            "read_rate_per_s": READ_RATE,
            "cycle_period_s": CYCLE_PERIOD_S,
            "budget": BUDGET,
        }

    def preloads(self):
        """(tenant, batches, id to warm) per tenant, in preload order."""
        for tenant, payloads in (("hot", self.hot), ("churn", self.churn_preload)):
            batches = [
                payloads[start : start + PRELOAD_BATCH]
                for start in range(0, len(payloads), PRELOAD_BATCH)
            ]
            yield tenant, batches, payloads[0]["id"]


class Server:
    """One ``python -m repro.cli serve`` subprocess with its own scratch root."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.wal_dir = root / "wal"
        self.tmp_dir = root / "tmp"
        for directory in (self.wal_dir, self.tmp_dir):
            directory.mkdir(parents=True)
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src), REPRO_TMPDIR=str(self.tmp_dir),
                   TMPDIR=str(self.tmp_dir))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--wal-dir", str(self.wal_dir), "--wal-fsync", WAL_FSYNC],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        self.port = None
        for line in self.process.stdout:
            if line.startswith("serving on "):
                self.port = int(line.strip().rsplit(":", 1)[1])
                break
        if self.port is None:
            self.process.wait(timeout=30)
            raise RuntimeError("server never announced its port")

    def request(self, method: str, path: str, payload=None):
        """One request on a fresh connection: (status, body bytes, sent, done)."""
        body = None if payload is None else json.dumps(payload).encode()
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=CLIENT_TIMEOUT_S
        )
        try:
            sent = time.perf_counter()
            connection.request(method, path, body=body)
            response = connection.getresponse()
            data = response.read()
            return response.status, data, sent, time.perf_counter()
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the live server process, in MiB."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self, checks: Checks) -> None:
        """SIGTERM, wait, and check the exit code and what is left on disk."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.stdout.read()
            code = self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        self.process.stdout.close()
        leftovers = sorted(os.listdir(self.tmp_dir)) + [
            name for name in sorted(os.listdir(self.wal_dir))
            if name not in ("hot.wal", "churn.wal")
        ]
        shutil.rmtree(self.root, ignore_errors=True)
        checks.expect(code == 0, f"server exited with {code} on SIGTERM")
        checks.expect(not leftovers, f"server left files behind: {leftovers}")

    def preload(self, plan: Plan) -> None:
        for tenant, batches, warm_id in plan.preloads():
            for batch in batches:
                status, body, _, _ = self.request(
                    "POST", f"/collections/{tenant}/profiles", {"profiles": batch}
                )
                if status != 201:
                    raise RuntimeError(f"preload of {tenant} failed: {status} {body[:200]}")
            status, body, _, _ = self.request(
                "GET", f"/collections/{tenant}/matches/{warm_id}?budget={BUDGET}"
            )
            if status != 200:
                raise RuntimeError(f"warming {tenant} failed: {status} {body[:200]}")


class Slot(threading.Thread):
    """One connection slot: sends its schedule in order, never two at once."""

    def __init__(self, server: Server, schedule) -> None:
        super().__init__(daemon=True)
        self.server = server
        self.schedule = schedule
        self.records: "list[dict]" = []
        self.error: "BaseException | None" = None

    def send(self, kind: str, due: float, method: str, path: str, payload=None):
        """Wait until ``due``, send, record latency from ``due``; returns done."""
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        record = {"kind": kind, "path": path, "ok": False, "body": b""}
        try:
            status, body, sent, done = self.server.request(method, path, payload)
            record.update(
                ok=200 <= status < 300, status=status, body=body,
                latency=done - due, lag=sent - due,
            )
        except (OSError, http.client.HTTPException) as error:
            done = time.perf_counter()
            record["status"] = repr(error)
        self.records.append(record)
        return done

    def run(self) -> None:
        try:
            self.schedule(self)
        except BaseException as error:  # re-raised by the main thread on join
            self.error = error


def read_schedule(plan: Plan, start_at: float):
    """Slot A: one warm ``matches`` on tenant ``hot`` every 1/READ_RATE s."""
    def schedule(slot: Slot) -> None:
        for position, profile_id in enumerate(plan.reads):
            slot.send(
                "warm", start_at + position / READ_RATE, "GET",
                f"/collections/hot/matches/{profile_id}?budget={BUDGET}",
            )
    return schedule


def churn_schedule(plan: Plan, start_at: float):
    """Slot B: ingest -> candidates -> cold matches, each due when the last ended."""
    def schedule(slot: Slot) -> None:
        for cycle, batch in enumerate(plan.churn_batches):
            probe = batch[0]["id"]
            done = slot.send(
                "ingest", start_at + cycle * CYCLE_PERIOD_S, "POST",
                "/collections/churn/profiles", {"profiles": batch},
            )
            done = slot.send(
                "candidates", done, "GET", f"/collections/churn/candidates/{probe}"
            )
            slot.send(
                "cold", done, "GET", f"/collections/churn/matches/{probe}?budget={BUDGET}"
            )
    return schedule


def _twin(plan: Plan, tracer: Tracer, wal_path: Path):
    """Replay the plan on in-process collections and collect every expected payload.

    Returns ({request path: expected response dict}, the churn collection's
    retained pairs, per-layer facts).  Both tenants use the configuration the
    server derives from ``--wal-fsync`` alone; the WAL append is timed on its
    own so ``service.ingest_apply`` is the index work only.
    """
    expected: "dict[str, dict]" = {}

    def expect(path: str, tenant: str, result: dict) -> None:
        # What the server sends: the payload through JSON, plus ``collection``.
        expected[path] = dict(json.loads(json.dumps(result)), collection=tenant)

    wal = WriteAheadLog(wal_path, fsync=WAL_FSYNC)
    collections = {}
    try:
        for tenant, batches, warm_id in plan.preloads():
            collection = collections[tenant] = ServiceCollection(
                CollectionConfig(name=tenant, wal_fsync=WAL_FSYNC)
            )
            for batch in batches:
                collection.ingest({"profiles": batch})
            collection.matches(warm_id, BUDGET)
        hot, churn = collections["hot"], collections["churn"]
        with tracer.span("run", 0):
            for profile_id in plan.reads:
                with tracer.span("service.warm_slice", 0):
                    result = hot.matches(profile_id, BUDGET)
                expect(f"/collections/hot/matches/{profile_id}?budget={BUDGET}", "hot", result)
            appended = 0
            for cycle, batch in enumerate(plan.churn_batches):
                payload = {"profiles": batch}
                probe = batch[0]["id"]
                with tracer.span("service.cycle", cycle):
                    with tracer.span("service.wal_append", cycle):
                        wal.append(payload)
                    with tracer.span("service.ingest_apply", cycle):
                        churn.ingest(payload)
                    with tracer.span("service.compact", cycle):
                        churn.index.materialise()
                    with tracer.span("service.delta_refresh", cycle):
                        result = churn.candidates(probe)
                    expect(f"/collections/churn/candidates/{probe}", "churn", result)
                    with tracer.span("service.sweep", cycle):
                        result = churn.matches(probe, BUDGET)
                    expect(
                        f"/collections/churn/matches/{probe}?budget={BUDGET}", "churn", result
                    )
                appended += len(batch)
        delta = churn.delta.stats()
        facts = {
            "service.delta_local_share": delta["local_refreshes"] / max(1, delta["refreshes"]),
            "service.wal_bytes_per_profile": wal.size_bytes() / max(1, appended),
        }
        return expected, set(churn.delta.retained), facts
    finally:
        wal.close()
        for collection in collections.values():
            collection.close()


def mean_of(samples: "list[float]") -> dict:
    """A :func:`summarise` record whose value is the mean."""
    return dict(summarise(samples, repeats=False), value=statistics.mean(samples))


def _same(body: bytes, expected: dict) -> bool:
    try:
        return json.loads(body) == expected
    except ValueError:
        return False


def run_service_mixed(name, seed, seconds, trace, quick, import_s, clock: RelativeClock,
                      out_dir: Path):
    checks = Checks()
    if quick:
        seconds = 4.0
    scratch = out_dir / f"service-{os.getpid()}"
    servers: "list[Server]" = []
    generate: "list[float]" = []

    def prepare():
        # Earlier passes are torn down first so only one server is ever up.
        for server in servers:
            server.stop(checks)
        servers.clear()
        started = time.perf_counter()
        plan = Plan(seed, seconds, 10 if quick else 1)
        generate.append(time.perf_counter() - started)
        server = Server(scratch / f"pass-{len(generate)}")
        servers.append(server)
        server.preload(plan)
        return plan, server

    try:
        (plan, server), setup = timed_setup(prepare, clock, 1 if quick else 3)

        # The generator must not compute during the schedule (its threads share
        # one GIL with slot A), so the machine's speed is taken on either side.
        speed_before = statistics.median(reference() for _ in range(5))
        start_at = time.perf_counter() + 0.2
        slots = [
            Slot(server, read_schedule(plan, start_at)),
            Slot(server, churn_schedule(plan, start_at)),
        ]
        for slot in slots:
            slot.start()
        for slot in slots:
            slot.join(timeout=seconds + 60 + CLIENT_TIMEOUT_S * 4)
            if slot.is_alive():
                raise RuntimeError("load generator slot did not finish")
            if slot.error is not None:
                raise slot.error
        speed_after = statistics.median(reference() for _ in range(5))
        factor = (speed_before + speed_after) / 2 / NOMINAL_S
        status, body, _, _ = server.request("GET", "/metrics")
        if status != 200:
            raise RuntimeError(f"GET /metrics returned {status}")
        exposed = json.loads(body)
        rss = server.peak_rss_mb()
    finally:
        for server in servers:
            server.stop(checks)
        shutil.rmtree(scratch, ignore_errors=True)

    tracer = Tracer(name)
    scratch.mkdir(parents=True)
    try:
        expected, retained, facts = _twin(plan, tracer, scratch / "twin.wal")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    records = slots[0].records + slots[1].records
    latency: "dict[str, list[float]]" = {}
    for record in records:
        ok = record["ok"]
        if ok and record["kind"] != "ingest":
            ok = _same(record["body"], expected[record["path"]])
        checks.expect(ok, f"{record['kind']} {record['path']}: {record.get('status')}")
        if record["ok"]:
            latency.setdefault(record["kind"], []).append(record["latency"] * 1e3)
    lags = [r["lag"] * 1e3 for r in records if r["ok"]]
    checks.expect(exposed["tmp_artifacts"] == 0, "server reports live tmp artifacts")
    # A cycle's three requests are chained, so its wall is their latencies' sum.
    churn = slots[1].records
    cycle_s = [
        sum(r["latency"] for r in churn[i : i + 3])
        for i in range(0, len(churn), 3)
        if all(r["ok"] for r in churn[i : i + 3])
    ]
    if not cycle_s or not latency.get("warm"):
        raise RuntimeError("no successful cycle or warm read; nothing to report")

    eval_started = time.perf_counter()
    completeness = pair_metrics(retained, plan.churn_truth).recall
    eval_s = time.perf_counter() - eval_started
    warm = summarise(latency["warm"], repeats=False)
    metrics = {
        **setup_metrics(import_s, setup, clock),
        # One churn cycle: write -> delta candidates -> cold ranked matches.
        # The mean, not the median: the tenant grows, so the cycles are a
        # rising series (0.15 -> 0.55 s) whose median is one noisy sample.
        "run_s": mean_of([cycle / factor for cycle in cycle_s]),
        "raw.run_s": mean_of(cycle_s),
        "machine.speed_factor": factor,
        "peak_rss_mb": rss,
        "pair_completeness": completeness,
        "query_warm_p50_ms": warm,
        "query_warm_p99_ms": percentile(latency["warm"], 0.99),
        "query_cold_p50_ms": summarise(latency["cold"], repeats=False),
        "candidates_p50_ms": summarise(latency["candidates"], repeats=False),
        "ingest_p50_ms": summarise(latency["ingest"], repeats=False),
        "data.generate_s": summarise(generate),
        "data.profiles": len(plan.hot) + len(plan.churn_preload)
        + plan.cycles * plan.batch,
        "evaluation.eval_s": eval_s,
        "service.gen_lag_p99_ms": percentile(lags, 0.99),
        # Public outputs of the untraced server: GET /metrics.
        "service.offload_wait_p95_ms": exposed["offload"]["wait"]["p95"] * 1e3,
        "service.peak_queue_depth": exposed["offload"]["peak_queue_depth"],
        "service.shed_429": exposed["counters"].get("responses_429", 0),
        "service.responses_5xx": exposed["errors"],
        "service.live_artifacts_after": exposed["tmp_artifacts"],
    }
    metrics.update(facts)
    twin_warm = tracer.median("service.warm_slice") * 1e3
    metrics.update({
        "service.warm_slice_ms": twin_warm,
        "service.http_overhead_ms": warm["value"] - twin_warm,
        "service.sweep_ms": tracer.median("service.sweep") * 1e3,
        "service.compact_ms": tracer.median("service.compact") * 1e3,
        "service.delta_refresh_ms": tracer.median("service.delta_refresh") * 1e3,
        "service.ingest_apply_ms": tracer.median("service.ingest_apply") * 1e3,
        "service.wal_append_ms": tracer.median("service.wal_append") * 1e3,
    })
    metrics["trace.span_coverage"] = tracer.coverage("service.cycle")
    # Traced wall over untraced run_s: the share of an HTTP cycle the
    # in-process layers account for (the rest is HTTP, queueing, the GIL).
    metrics["trace.overhead_ratio"] = (
        statistics.mean(tracer.durations("service.cycle")) / metrics["raw.run_s"]["value"]
    )
    return finish(name, seed, plan.sizes, metrics, checks, tracer if trace else None)
