"""Unit tests of the service HTTP plumbing: router, request helpers,
latency histograms and the request-metrics aggregation."""

from __future__ import annotations

import json

import pytest

from repro.service.metrics import LatencyHistogram
from repro.service.http import HttpError, Request, Response, Router
from repro.service.metrics import ServiceMetrics


class TestRouter:
    def _router(self):
        router = Router()
        router.add("GET", "/healthz", lambda r: {"ok": True})
        router.add("POST", "/collections/{name}/profiles", lambda r: r)
        router.add("GET", "/collections/{name}/matches/{profile_id}", lambda r: r)
        return router

    def test_literal_match(self):
        handler, params, label = self._router().match("GET", "/healthz")
        assert handler(None) == {"ok": True}
        assert params == {}
        assert label == "GET /healthz"

    def test_parameter_capture(self):
        _h, params, label = self._router().match(
            "GET", "/collections/demo/matches/42"
        )
        assert params == {"name": "demo", "profile_id": "42"}
        assert label == "GET /collections/{name}/matches/{profile_id}"

    def test_percent_encoded_segments_are_decoded(self):
        _h, params, _l = self._router().match(
            "POST", "/collections/my%2Dset/profiles"
        )
        assert params == {"name": "my-set"}

    def test_unknown_path_raises_404(self):
        with pytest.raises(HttpError) as excinfo:
            self._router().match("GET", "/nope")
        assert excinfo.value.status == 404

    def test_wrong_method_raises_405(self):
        with pytest.raises(HttpError) as excinfo:
            self._router().match("DELETE", "/healthz")
        assert excinfo.value.status == 405


class TestRequestHelpers:
    def test_json_parses_object_bodies(self):
        request = Request("POST", "/x", body=json.dumps({"a": 1}).encode())
        assert request.json() == {"a": 1}

    @pytest.mark.parametrize("body", [b"", b"not json", b"[1, 2]", b"\xff\xfe"])
    def test_json_rejects_non_objects_with_400(self, body):
        request = Request("POST", "/x", body=body)
        with pytest.raises(HttpError) as excinfo:
            request.json()
        assert excinfo.value.status == 400

    def test_int_query_default_bound_and_errors(self):
        request = Request("GET", "/x", query={"budget": "7", "bad": "x", "neg": "-1"})
        assert request.int_query("budget", 10) == 7
        assert request.int_query("missing", 10) == 10
        with pytest.raises(HttpError):
            request.int_query("bad", 10)
        with pytest.raises(HttpError):
            request.int_query("neg", 10, minimum=0)

    def test_response_encodes_json_with_content_length(self):
        raw = Response({"b": 2, "a": 1}, status=201).encode()
        head, _sep, body = raw.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 201 Created" in head
        assert f"Content-Length: {len(body)}".encode() in head
        assert json.loads(body) == {"a": 1, "b": 2}


class TestLatencyHistogram:
    def test_summary_on_empty_histogram(self):
        histogram = LatencyHistogram()
        assert histogram.summary() == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
        }

    def test_quantiles_are_conservative_upper_bounds(self):
        histogram = LatencyHistogram()
        samples = [0.001 * step for step in range(1, 101)]
        for sample in samples:
            histogram.observe(sample)
        p50 = histogram.quantile(0.50)
        p95 = histogram.quantile(0.95)
        # Upper bucket edges: at least the true quantile, within one growth
        # factor of it.
        assert samples[49] <= p50 <= samples[49] * histogram.growth
        assert samples[94] <= p95 <= samples[94] * histogram.growth
        assert p50 <= p95 <= histogram.quantile(1.0)
        assert histogram.quantile(1.0) >= histogram.max_seconds

    def test_overflow_bucket_reports_the_maximum(self):
        histogram = LatencyHistogram(num_buckets=4)
        histogram.observe(10_000.0)
        assert histogram.quantile(0.5) == 10_000.0

    def test_negative_observations_clamp_to_zero(self):
        histogram = LatencyHistogram()
        histogram.observe(-1.0)
        assert histogram.count == 1
        assert histogram.total_seconds == 0.0

    def test_invalid_shapes_and_quantiles_are_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram(base_seconds=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(growth=1.0)
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)

    def test_mean_tracks_the_running_sum(self):
        histogram = LatencyHistogram()
        for sample in (0.1, 0.2, 0.3):
            histogram.observe(sample)
        assert histogram.mean_seconds == pytest.approx(0.2)


class TestServiceMetrics:
    def test_observe_aggregates_per_label(self):
        metrics = ServiceMetrics()
        metrics.observe("GET /healthz", 0.001, 200)
        metrics.observe("GET /healthz", 0.002, 200)
        metrics.observe("POST /x", 0.1, 500)
        snapshot = metrics.snapshot()
        assert snapshot["requests"] == 3
        assert snapshot["errors"] == 1
        assert snapshot["endpoints"]["GET /healthz"]["count"] == 2
        assert snapshot["endpoints"]["GET /healthz"]["errors"] == 0
        assert snapshot["endpoints"]["POST /x"]["errors"] == 1
        assert snapshot["uptime_seconds"] >= 0.0

    def test_client_errors_are_not_service_errors(self):
        metrics = ServiceMetrics()
        metrics.observe("GET /x", 0.001, 404)
        assert metrics.snapshot()["errors"] == 0
