"""Tests of the service fault points and their injection-spec grammar."""

from __future__ import annotations

import time

import pytest

from repro.exceptions import ConfigurationError
from repro.service.faults import (
    CRASH_EXIT_CODE,
    SERVICE_INJECT_ENV_VAR,
    FaultClause,
    FaultInjected,
    ServicePointInjector,
    parse_faults,
    reset_service_faults,
    service_fault,
)


class TestGrammar:
    def test_full_clause(self):
        (clause,) = parse_faults("hang~0.5@compact.demo#3")
        assert clause == FaultClause("hang", "compact.demo", 3, 0.5)

    def test_defaults_first_hit(self):
        (clause,) = parse_faults("crash@wal.append")
        assert (clause.mode, clause.point, clause.hit) == ("crash", "wal.append", 1)

    def test_wildcard_hit(self):
        (clause,) = parse_faults("raise@wal.append#*")
        assert clause.hit is None

    def test_multiple_clauses_split_on_semicolons(self):
        clauses = parse_faults("crash@a#1; raise@b#2 ;")
        assert [clause.mode for clause in clauses] == ["crash", "raise"]

    @pytest.mark.parametrize(
        "spec",
        [
            "",  # no clauses
            "crash",  # no '@point'
            "crash@",  # empty point
            "vanish@point",  # unknown mode
            "hang~soon@point",  # bad duration
            "crash@point#0",  # hits are 1-based
            "crash@point#many",
        ],
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(ConfigurationError):
            parse_faults(spec)

    def test_crash_code_is_unambiguous(self):
        assert CRASH_EXIT_CODE not in (0, 1, 2)


class TestServiceFaultPoints:
    @pytest.fixture(autouse=True)
    def _fresh_injector_cache(self):
        reset_service_faults()
        yield
        reset_service_faults()

    def test_noop_without_spec(self, monkeypatch):
        monkeypatch.delenv(SERVICE_INJECT_ENV_VAR, raising=False)
        service_fault("wal.append")  # must not raise

    def test_raise_mode_counts_hits_per_point(self, monkeypatch):
        monkeypatch.setenv(SERVICE_INJECT_ENV_VAR, "raise@wal.append#3")
        service_fault("wal.append")  # hit 1
        service_fault("wal.truncate")  # separate counter
        service_fault("wal.append")  # hit 2
        with pytest.raises(FaultInjected, match="hit 3"):
            service_fault("wal.append")
        # Hit 3 fired; hit 4 passes through again.
        service_fault("wal.append")

    def test_wildcard_fires_every_hit(self, monkeypatch):
        monkeypatch.setenv(SERVICE_INJECT_ENV_VAR, "raise@wal.append#*")
        for _ in range(3):
            with pytest.raises(FaultInjected):
                service_fault("wal.append")

    def test_disk_mode_raises_oserror(self, monkeypatch):
        monkeypatch.setenv(SERVICE_INJECT_ENV_VAR, "disk@wal.append")
        with pytest.raises(OSError, match="injected disk fault"):
            service_fault("wal.append")

    def test_point_substring_scopes_the_fault(self, monkeypatch):
        monkeypatch.setenv(SERVICE_INJECT_ENV_VAR, "raise@ingest.apply")
        service_fault("ingest.ack.demo")  # different point family
        with pytest.raises(FaultInjected):
            service_fault("ingest.apply.demo")

    def test_spec_is_cached_until_reset(self, monkeypatch):
        monkeypatch.delenv(SERVICE_INJECT_ENV_VAR, raising=False)
        service_fault("wal.append")  # caches "no injection"
        monkeypatch.setenv(SERVICE_INJECT_ENV_VAR, "raise@wal.append")
        service_fault("wal.append")  # still cached: no raise
        reset_service_faults()
        with pytest.raises(FaultInjected):
            service_fault("wal.append")

    def test_injector_hang_mode_sleeps(self):
        injector = ServicePointInjector(parse_faults("hang~0.01@point"))
        started = time.perf_counter()
        injector.fire("point")
        assert time.perf_counter() - started >= 0.01
