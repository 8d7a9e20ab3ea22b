"""Opt-in perf-regression guard (see ``scripts/bench_guard.py``).

Deselected by default because it times real workloads; run it with::

    PYTHONPATH=src python -m pytest tests/test_bench_guard.py --bench-guard
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.bench_guard

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_e2e_engine_overhead_within_tolerance_of_baseline():
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    from bench_guard import check_e2e_against_baseline

    failures = check_e2e_against_baseline(tolerance=0.5)
    assert not failures, "; ".join(failures)


def test_out_of_core_scale_within_tolerance_of_baseline():
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    from bench_guard import check_scale_against_baseline

    failures = check_scale_against_baseline(tolerance=0.25)
    assert not failures, "; ".join(failures)


def test_service_ingest_query_within_tolerance_of_baseline():
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    from bench_guard import check_service_against_baseline

    failures = check_service_against_baseline(tolerance=0.5)
    assert not failures, "; ".join(failures)


def test_service_wal_overhead_within_floor_of_baseline():
    sys.path.insert(0, str(REPO_ROOT / "scripts"))
    from bench_guard import check_service_wal_against_baseline

    failures = check_service_wal_against_baseline()
    assert not failures, "; ".join(failures)
