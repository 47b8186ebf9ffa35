"""Tests for the observability layer: histograms, tracing, Prometheus.

Covers the mergeable fixed-bucket :class:`Histogram`, the
:class:`~repro.service.tracing.Tracer` lifecycle (sampling, frame
fan-out, sinks), the Prometheus text exposition (pinned against a
golden fixture), and hub thread-safety under a concurrent snapshotter.
"""

from __future__ import annotations

import json
import logging
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.service.telemetry import (
    DEFAULT_BUCKET_BOUNDS,
    Histogram,
    PROMETHEUS_CONTENT_TYPE,
    TelemetryHub,
    render_prometheus,
)
from repro.service.tracing import (
    SPAN_ADMISSION,
    SPAN_FUSED_PASS,
    SPAN_QUEUE_WAIT,
    SPAN_RESPONSE_FRAMING,
    TraceContext,
    Tracer,
    new_trace_id,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures" / "metrics"


# --------------------------------------------------------------------- #
# Histogram
# --------------------------------------------------------------------- #


class TestHistogram:
    def test_default_bounds_are_log_spaced_and_shared(self):
        bounds = DEFAULT_BUCKET_BOUNDS
        assert len(bounds) == 41
        assert bounds[0] == pytest.approx(1e-6)
        assert bounds[-1] == pytest.approx(100.0)
        assert list(bounds) == sorted(bounds)
        # Regenerating produces bit-identical floats (merge requires it).
        assert Histogram("a").bounds == Histogram("b").bounds

    def test_record_uses_le_bucket_semantics(self):
        histogram = Histogram("op", bounds=(0.001, 0.01, 0.1))
        histogram.record(0.001)  # == bound: belongs to that bucket (le)
        histogram.record(0.0005)
        histogram.record(0.05)
        histogram.record(5.0)  # overflow
        assert histogram.bucket_counts == (2, 0, 1, 1)
        assert histogram.count == 4
        assert histogram.max_seconds == 5.0
        assert histogram.total_seconds == pytest.approx(5.0515)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Histogram("op").record(-0.1)

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("op", bounds=(0.1, 0.01))

    def test_quantile_of_empty_histogram_is_zero(self):
        assert Histogram("op").quantile(99.0) == 0.0

    def test_quantile_brackets_true_value_within_bucket_resolution(self):
        histogram = Histogram("op")
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=-6.0, sigma=1.0, size=2000)
        for value in samples:
            histogram.record(float(value))
        for q in (50.0, 95.0, 99.0):
            exact = float(np.percentile(samples, q))
            estimate = histogram.quantile(q)
            # One log-spaced bucket step is 10^(1/5) ~ 1.585x.
            assert exact / 1.6 <= estimate <= exact * 1.6

    def test_quantile_never_exceeds_recorded_max(self):
        histogram = Histogram("op")
        histogram.record(0.0042)
        assert histogram.quantile(100.0) == 0.0042
        assert histogram.quantile(50.0) <= 0.0042

    def test_merge_equals_combined_stream(self):
        rng = np.random.default_rng(11)
        left_values = rng.exponential(0.01, size=500)
        right_values = rng.exponential(0.05, size=300)
        left, right, combined = Histogram("l"), Histogram("r"), Histogram("c")
        for value in left_values:
            left.record(float(value))
            combined.record(float(value))
        for value in right_values:
            right.record(float(value))
            combined.record(float(value))
        merged = left.merge(right)
        assert merged is left
        assert merged.bucket_counts == combined.bucket_counts
        assert merged.count == combined.count
        assert merged.total_seconds == pytest.approx(combined.total_seconds)
        assert merged.max_seconds == combined.max_seconds
        for q in (50.0, 90.0, 95.0, 99.0):
            assert merged.quantile(q) == combined.quantile(q)

    def test_merge_rejects_different_bounds(self):
        with pytest.raises(ValueError, match="different bounds"):
            Histogram("a", bounds=(0.1,)).merge(Histogram("b", bounds=(0.2,)))

    def test_snapshot_roundtrip_is_lossless(self):
        histogram = Histogram("op")
        for value in (1e-5, 3e-4, 0.02, 7.0):
            histogram.record(value)
        payload = json.loads(json.dumps(histogram.snapshot()))
        rebuilt = Histogram.from_snapshot("op", payload)
        assert rebuilt.bucket_counts == histogram.bucket_counts
        assert rebuilt.count == histogram.count
        assert rebuilt.total_seconds == histogram.total_seconds
        assert rebuilt.max_seconds == histogram.max_seconds
        assert rebuilt.summary() == histogram.summary()


class TestHubHistograms:
    def test_record_feeds_the_histogram(self):
        hub = TelemetryHub()
        hub.record("frontend.score", 0.002)
        hub.record("frontend.score", 0.004)
        assert hub.histogram("frontend.score").count == 2
        assert hub.histogram("frontend.score").total_seconds == pytest.approx(0.006)

    def test_json_snapshot_shape_is_unchanged(self):
        # The JSON /metrics latencies keep their seven keys, and each entry
        # is the same-named histogram's summary: one aggregator serves the
        # JSON, Prometheus and merged fleet views alike.
        hub = TelemetryHub()
        hub.increment("events", 2)
        for value in np.random.default_rng(5).lognormal(-6.0, 1.0, size=300):
            hub.record("op", float(value))
        snapshot = hub.snapshot()
        assert set(snapshot) == {"counters", "latencies"}
        assert set(snapshot["latencies"]["op"]) == {
            "count", "total_s", "mean_s", "p50_s", "p95_s", "p99_s", "max_s",
        }
        assert snapshot["latencies"]["op"] == hub.histogram("op").summary()

    def test_histograms_snapshot_merges_across_workers(self):
        shard_a, shard_b = TelemetryHub(), TelemetryHub()
        combined = Histogram("frontend.score")
        rng = np.random.default_rng(3)
        for hub, size in ((shard_a, 40), (shard_b, 25)):
            for value in rng.exponential(0.01, size=size):
                hub.record("frontend.score", float(value))
                combined.record(float(value))
        merged = Histogram.from_snapshot(
            "frontend.score", shard_a.histograms_snapshot()["frontend.score"]
        ).merge(
            Histogram.from_snapshot(
                "frontend.score", shard_b.histograms_snapshot()["frontend.score"]
            )
        )
        assert merged.bucket_counts == combined.bucket_counts
        for q in (50.0, 95.0, 99.0):
            assert merged.quantile(q) == combined.quantile(q)


# --------------------------------------------------------------------- #
# Hub thread-safety under a concurrent snapshotter (satellite)
# --------------------------------------------------------------------- #


class TestHubConcurrency:
    def test_exact_totals_with_concurrent_snapshots(self):
        hub = TelemetryHub()
        n_threads, n_iterations = 8, 2000
        stop = threading.Event()
        snapshots: list[dict] = []
        histogram_counts: list[int] = []

        def hammer():
            for _ in range(n_iterations):
                hub.increment("events")
                hub.record("op", 0.001)
                with hub.timer("timed"):
                    pass

        def scrape():
            while not stop.is_set():
                snapshot = hub.snapshot()
                snapshots.append(snapshot)
                payload = hub.histograms_snapshot()
                if "op" in payload:
                    histogram_counts.append(payload["op"]["count"])
                render_prometheus(hub)

        workers = [threading.Thread(target=hammer) for _ in range(n_threads)]
        scraper = threading.Thread(target=scrape)
        scraper.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        stop.set()
        scraper.join()

        expected = n_threads * n_iterations
        assert hub.counter_value("events") == expected
        assert hub.histogram("op").count == expected
        assert hub.histogram("timed").count == expected
        assert sum(hub.histogram("op").bucket_counts) == expected
        # Counts observed by the scraper never go backwards.
        counter_series = [s["counters"].get("events", 0) for s in snapshots]
        assert counter_series == sorted(counter_series)
        assert histogram_counts == sorted(histogram_counts)


# --------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------- #


class TestTracer:
    def test_sampling_is_deterministic(self):
        tracer = Tracer(sample_rate=0.5)
        sampled = [tracer.start("http") is not None for _ in range(10)]
        assert sampled.count(True) == 5
        assert sampled == [False, True] * 5

    def test_zero_rate_traces_nothing_but_client_ids(self):
        tracer = Tracer(sample_rate=0.0)
        assert tracer.start("http") is None
        trace = tracer.start("http", trace_id="client-supplied")
        assert trace is not None and trace.trace_id == "client-supplied"

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(ring_capacity=0)
        with pytest.raises(ValueError):
            Tracer(slow_request_ms=-1.0)

    def test_finish_is_idempotent_and_none_safe(self):
        tracer = Tracer()
        tracer.finish(None)
        trace = tracer.start("http")
        trace.add_span(SPAN_ADMISSION, 0.001)
        tracer.finish(trace)
        tracer.finish(trace)
        assert len(tracer.events()) == 1

    def test_event_schema(self):
        tracer = Tracer()
        trace = tracer.start(
            "http", request_id="r-9", user_id="alice", caller_id="ops"
        )
        trace.add_span(SPAN_QUEUE_WAIT, 0.0, batch_size=4)
        with trace.span(SPAN_FUSED_PASS, flush_id=1):
            pass
        trace.annotate(replayed=True)
        tracer.finish(trace)
        (event,) = tracer.events()
        assert event["kind"] == "http"
        assert event["request_id"] == "r-9"
        assert event["user_id"] == "alice"
        assert event["caller_id"] == "ops"
        assert event["attrs"] == {"replayed": True}
        assert [span["name"] for span in event["spans"]] == [
            SPAN_QUEUE_WAIT,
            SPAN_FUSED_PASS,
        ]
        assert event["spans"][0]["batch_size"] == 4
        assert event["total_s"] >= sum(s["duration_s"] for s in event["spans"])

    def test_negative_span_durations_clamp_to_zero(self):
        trace = TraceContext(new_trace_id(), "http")
        trace.add_span(SPAN_ADMISSION, -0.5)
        assert trace.span_named(SPAN_ADMISSION).duration_s == 0.0

    def test_finish_frame_fans_out_one_event_per_request(self):
        tracer = Tracer()
        trace = tracer.start("binary-frame", request_id="frame-1")
        trace.caller_id = "ops"
        trace.add_span(SPAN_ADMISSION, 0.001, n_requests=3)
        trace.add_span(SPAN_RESPONSE_FRAMING, 0.0005)
        tracer.finish_frame(trace, ["u1", "u2", "u3"], errors={1: "KeyError"})
        events = tracer.events()
        assert [e["user_id"] for e in events] == ["u1", "u2", "u3"]
        assert [e["request_index"] for e in events] == [0, 1, 2]
        assert all(e["trace_id"] == trace.trace_id for e in events)
        assert all(e["request_id"] == "frame-1" for e in events)
        assert all(e["caller_id"] == "ops" for e in events)
        assert "error" not in events[0]
        assert events[1]["error"] == "KeyError"
        # Spans are shared by reference: per-request attribution at
        # per-frame cost.
        assert events[0]["spans"] is events[2]["spans"]
        # finish_frame seals the trace; a later finish is a no-op.
        tracer.finish(trace)
        assert len(tracer.events()) == 3

    def test_ring_is_bounded(self):
        tracer = Tracer(ring_capacity=4)
        for index in range(10):
            trace = tracer.start("http", request_id=f"r-{index}")
            tracer.finish(trace)
        events = tracer.events()
        assert len(events) == 4
        assert [e["request_id"] for e in events] == ["r-6", "r-7", "r-8", "r-9"]
        tracer.clear()
        assert tracer.events() == []

    def test_jsonl_sink_appends_one_line_per_event(self, tmp_path):
        sink = tmp_path / "traces.jsonl"
        tracer = Tracer(jsonl_path=str(sink))
        for _ in range(3):
            trace = tracer.start("http")
            trace.add_span(SPAN_ADMISSION, 0.001)
            tracer.finish(trace)
        lines = sink.read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            event = json.loads(line)
            assert event["kind"] == "http"
            assert event["spans"][0]["name"] == SPAN_ADMISSION

    def test_slow_request_logging_and_counter(self, caplog):
        hub = TelemetryHub()
        tracer = Tracer(slow_request_ms=0.0, telemetry=hub)
        with caplog.at_level(logging.WARNING, logger="repro.service.tracing"):
            trace = tracer.start("http", user_id="alice")
            trace.add_span(SPAN_FUSED_PASS, 0.25)
            tracer.finish(trace)
        assert hub.counter_value("trace.slow_requests") == 1
        assert any("slow request" in record.message for record in caplog.records)
        assert any("fused_pass" in record.getMessage() for record in caplog.records)

    def test_telemetry_counters_track_outcomes(self):
        hub = TelemetryHub()
        tracer = Tracer(sample_rate=0.5, telemetry=hub)
        for _ in range(10):
            tracer.finish(tracer.start("http"))
        assert hub.counter_value("trace.started") == 5
        assert hub.counter_value("trace.unsampled") == 5
        assert hub.counter_value("trace.finished") == 5


# --------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------- #


def _populated_hub() -> TelemetryHub:
    """A deterministic hub covering every metric family the renderer has."""
    hub = TelemetryHub()
    hub.increment("transport.requests", 7)
    hub.increment("frontend.requests", 7)
    hub.increment("callers.requests", 7)
    hub.increment("callers.fleet-operator.requests", 5)
    hub.increment("callers.fleet-operator.denied", 1)
    hub.increment("callers.ops\\team.requests", 2)  # label needs escaping
    for value in (0.0005, 0.001, 0.002, 0.004, 0.008, 0.016, 0.25):
        hub.record("frontend.score", value)
    for value in (0.0001, 0.0002):
        hub.record("frontend.queue_wait", value)
    return hub


class TestPrometheusExposition:
    def test_content_type_pin(self):
        assert PROMETHEUS_CONTENT_TYPE == "text/plain; version=0.0.4; charset=utf-8"

    def test_rendering_matches_golden_fixture(self):
        golden = FIXTURES / "prometheus_golden.txt"
        rendered = render_prometheus(_populated_hub())
        assert rendered == golden.read_text(encoding="utf-8")

    def test_structure(self):
        text = render_prometheus(_populated_hub())
        lines = text.splitlines()
        assert text.endswith("\n")
        # Counters.
        assert "repro_transport_requests_total 7" in lines
        assert "repro_callers_requests_total 7" in lines
        # Per-caller series with escaped label values.
        assert (
            'repro_caller_requests_total{caller="fleet-operator"} 5' in lines
        )
        assert 'repro_caller_denied_total{caller="fleet-operator"} 1' in lines
        assert 'repro_caller_requests_total{caller="ops\\\\team"} 2' in lines
        # Histogram family: cumulative buckets, +Inf, sum and count.
        assert "# TYPE repro_frontend_score_seconds histogram" in lines
        assert 'repro_frontend_score_seconds_bucket{le="+Inf"} 7' in lines
        assert "repro_frontend_score_seconds_count 7" in lines

    def test_bucket_counts_are_cumulative_and_monotonic(self):
        text = render_prometheus(_populated_hub())
        counts = []
        for line in text.splitlines():
            if line.startswith("repro_frontend_score_seconds_bucket"):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert counts == sorted(counts)
        assert counts[-1] == 7  # +Inf bucket equals total count

    def test_empty_hub_renders_empty_exposition(self):
        assert render_prometheus(TelemetryHub()) == "\n"
