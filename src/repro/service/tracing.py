"""End-to-end request tracing for the serving path.

The paper's viability argument is a latency/overhead budget (its overhead
experiment is ``experiments/overhead.py``), yet per-operation latency
totals cannot say *where* a request's time went between admission, queue
wait, the coalesced fused pass and response framing.  This module adds
that attribution without touching the hot path when disabled:

* a :class:`TraceContext` is minted at the transport/envelope door (or
  adopted from a client-supplied ``X-Trace-Id`` header, which is echoed
  back) and carries named :class:`Span` durations plus free-form
  annotations (batch membership, cache hit/miss deltas, error outcome);
* a :class:`Tracer` owns sampling, the bounded in-memory event ring, the
  opt-in JSONL sink and slow-request logging.

**Propagation.**  The trace travels as an argument.  The door that mints
it (the transport, the envelope processor or the binary frame dispatch)
passes it down every call that records a span: envelope processor →
dispatch channel → :class:`~repro.service.frontend.MicroBatchQueue` item
→ frontend → gateway.  The queue carries it next to the request across
its thread hop, so no contextvar (which that hop would drop) and no side
table keyed by the request is involved; one request can never pick up
another request's trace.

Finished traces export as structured JSON events.  A binary frame is one
trace shared by every request it carries; :meth:`Tracer.finish_frame`
fans it out into one event per request (shared span timings, per-request
user id and error outcome), so per-request attribution survives the
zero-copy path without per-request object cost.

Everything here is stdlib-only and thread-safe; a ``trace=None`` default
on every layer that records a span keeps the untraced hot path
byte-identical.
"""

from __future__ import annotations

import json
import logging
import threading
import uuid
from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator, Mapping, Sequence

from repro.service.telemetry import TelemetryHub

logger = logging.getLogger("repro.service.tracing")

#: HTTP header carrying a client-supplied (and echoed) trace id.
TRACE_HEADER = "X-Trace-Id"

#: Span names of the serving path's canonical stages.
SPAN_ADMISSION = "admission"
SPAN_QUEUE_WAIT = "queue_wait"
SPAN_FUSED_PASS = "fused_pass"
SPAN_RESPONSE_FRAMING = "response_framing"

#: Span names of the shard router's stages (cluster serving).  The router
#: forwards the client's trace id to each worker (``X-Trace-Id``), so one
#: id links the router event's split/dispatch/merge spans with every
#: worker-side event of the same request.
SPAN_SHARD_SPLIT = "shard_split"
SPAN_SHARD_DISPATCH = "shard_dispatch"
SPAN_SHARD_MERGE = "shard_merge"


def new_trace_id() -> str:
    """A fresh unique trace id (32 hex chars)."""
    return uuid.uuid4().hex


class Span:
    """One named, timed stage of a traced request.

    Spans store a duration (plus free-form attributes) rather than
    absolute timestamps: the queue worker measures waits on the monotonic
    clock while in-thread stages use ``perf_counter``, and durations are
    the only quantity the two clocks agree on.
    """

    __slots__ = ("name", "duration_s", "attrs")

    def __init__(self, name: str, duration_s: float, attrs: dict[str, Any]) -> None:
        self.name = name
        self.duration_s = float(duration_s)
        self.attrs = attrs

    def to_event(self) -> dict[str, Any]:
        """Plain-type form for JSON export."""
        event = {"name": self.name, "duration_s": self.duration_s}
        if self.attrs:
            event.update(self.attrs)
        return event

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_s * 1e3:.3f}ms)"


class TraceContext:
    """Everything recorded about one traced request (or frame).

    Spans and annotations are appended by whichever thread currently owns
    the request (handler thread, then queue worker, then handler again);
    ownership hand-offs happen through futures, so appends never race.
    """

    __slots__ = (
        "trace_id",
        "kind",
        "request_id",
        "user_id",
        "caller_id",
        "spans",
        "attrs",
        "started_s",
        "total_s",
        "_finished",
    )

    def __init__(
        self,
        trace_id: str,
        kind: str,
        request_id: str | None = None,
        user_id: str | None = None,
        caller_id: str | None = None,
    ) -> None:
        self.trace_id = trace_id
        self.kind = kind
        self.request_id = request_id
        self.user_id = user_id
        self.caller_id = caller_id
        self.spans: list[Span] = []
        self.attrs: dict[str, Any] = {}
        self.started_s = perf_counter()
        self.total_s = 0.0
        self._finished = False

    def add_span(self, name: str, duration_s: float, **attrs: Any) -> None:
        """Record one completed stage of this trace."""
        self.spans.append(Span(name, max(0.0, duration_s), attrs))

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Context manager recording its body as a named span."""
        start = perf_counter()
        try:
            yield
        finally:
            self.add_span(name, perf_counter() - start, **attrs)

    def annotate(self, **attrs: Any) -> None:
        """Attach free-form attributes (error outcome, cache deltas, ...)."""
        self.attrs.update(attrs)

    def span_named(self, name: str) -> Span | None:
        """The first recorded span called *name* (``None`` when absent)."""
        for span in self.spans:
            if span.name == name:
                return span
        return None

    def to_event(self) -> dict[str, Any]:
        """The structured JSON event this trace exports as."""
        event: dict[str, Any] = {
            "trace_id": self.trace_id,
            "kind": self.kind,
            "total_s": self.total_s,
            "spans": [span.to_event() for span in self.spans],
        }
        if self.request_id is not None:
            event["request_id"] = self.request_id
        if self.user_id is not None:
            event["user_id"] = self.user_id
        if self.caller_id is not None:
            event["caller_id"] = self.caller_id
        if self.attrs:
            event["attrs"] = dict(self.attrs)
        return event


class Tracer:
    """Samples, collects and exports per-request trace events.

    Parameters
    ----------
    sample_rate:
        Fraction of minted traces kept, in ``[0, 1]``.  Sampling is
        deterministic (every ``1/rate``-th request), so a fixed workload
        always traces the same requests.  A client-supplied trace id is
        **always** sampled — a caller asking for a trace gets one.
    ring_capacity:
        Bound on retained finished events (oldest evicted first).
    jsonl_path:
        Opt-in durable sink: every finished event is appended to this file
        as one JSON line.  ``None`` (default) keeps tracing in-memory only.
    slow_request_ms:
        Threshold above which a finished trace logs its full span
        breakdown through the ``repro.service.tracing`` logger (and counts
        in ``trace.slow_requests``).  ``None`` disables slow logging.
    telemetry:
        Optional hub; tracing outcomes land in ``trace.*`` counters next
        to the rest of the service metrics.

    Raises
    ------
    ValueError
        If a knob is out of range.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        ring_capacity: int = 2048,
        jsonl_path: str | None = None,
        slow_request_ms: float | None = None,
        telemetry: TelemetryHub | None = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in [0, 1], got {sample_rate}")
        if ring_capacity < 1:
            raise ValueError(f"ring_capacity must be >= 1, got {ring_capacity}")
        if slow_request_ms is not None and slow_request_ms < 0.0:
            raise ValueError(f"slow_request_ms must be >= 0, got {slow_request_ms}")
        self.sample_rate = float(sample_rate)
        self.jsonl_path = jsonl_path
        self.slow_request_ms = slow_request_ms
        self.telemetry = telemetry
        self._events: deque[dict[str, Any]] = deque(maxlen=ring_capacity)
        self._seen = 0
        self._lock = threading.Lock()
        self._io_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(
        self,
        kind: str,
        trace_id: str | None = None,
        request_id: str | None = None,
        user_id: str | None = None,
        caller_id: str | None = None,
    ) -> TraceContext | None:
        """Mint a trace for one request, or ``None`` when not sampled.

        A non-``None`` *trace_id* marks a client-supplied id: it is
        adopted verbatim and always sampled.
        """
        if trace_id is None:
            rate = self.sample_rate
            with self._lock:
                self._seen += 1
                sampled = int(self._seen * rate) > int((self._seen - 1) * rate)
            if not sampled:
                if self.telemetry is not None:
                    self.telemetry.increment("trace.unsampled")
                return None
            trace_id = new_trace_id()
        trace = TraceContext(
            trace_id,
            kind,
            request_id=request_id,
            user_id=user_id,
            caller_id=caller_id,
        )
        if self.telemetry is not None:
            self.telemetry.increment("trace.started")
        return trace

    def finish(self, trace: TraceContext | None) -> None:
        """Seal a trace and export its event (idempotent, ``None``-safe)."""
        if trace is None or trace._finished:
            return
        trace._finished = True
        trace.total_s = perf_counter() - trace.started_s
        self._export(trace.to_event())

    def finish_frame(
        self,
        trace: TraceContext | None,
        user_ids: Sequence[str],
        errors: Mapping[int, str] | None = None,
    ) -> None:
        """Seal a frame-level trace into one event **per request**.

        A binary columnar frame is admitted, queued and scored as one
        unit, so its requests share the frame's span timings; what differs
        per request is the user and the error outcome.  Each exported
        event carries the shared spans plus its own ``user_id``,
        ``request_index`` and (when present) ``error`` — per-request
        attribution at per-frame cost.
        """
        if trace is None or trace._finished:
            return
        trace._finished = True
        trace.total_s = perf_counter() - trace.started_s
        frame_event = trace.to_event()
        shared_spans = frame_event["spans"]
        shared_attrs = frame_event.get("attrs")
        for index, user_id in enumerate(user_ids):
            event: dict[str, Any] = {
                "trace_id": trace.trace_id,
                "kind": trace.kind,
                "total_s": trace.total_s,
                "spans": shared_spans,
                "request_index": index,
                "user_id": user_id,
            }
            if trace.request_id is not None:
                event["request_id"] = trace.request_id
            if trace.caller_id is not None:
                event["caller_id"] = trace.caller_id
            if shared_attrs:
                event["attrs"] = shared_attrs
            if errors and index in errors:
                event["error"] = errors[index]
            self._export(event)

    # ------------------------------------------------------------------ #
    # export
    # ------------------------------------------------------------------ #

    def _export(self, event: dict[str, Any]) -> None:
        self._events.append(event)
        if self.telemetry is not None:
            self.telemetry.increment("trace.finished")
        if self.jsonl_path is not None:
            line = json.dumps(event, sort_keys=True)
            with self._io_lock:
                with open(self.jsonl_path, "a", encoding="utf-8") as sink:
                    sink.write(line + "\n")
        if (
            self.slow_request_ms is not None
            and event["total_s"] * 1e3 >= self.slow_request_ms
        ):
            if self.telemetry is not None:
                self.telemetry.increment("trace.slow_requests")
            breakdown = ", ".join(
                f"{span['name']}={span['duration_s'] * 1e3:.2f}ms"
                for span in event["spans"]
            )
            logger.warning(
                "slow request trace=%s kind=%s user=%s total=%.2fms spans=[%s]",
                event["trace_id"],
                event["kind"],
                event.get("user_id"),
                event["total_s"] * 1e3,
                breakdown or "none",
            )

    def events(self) -> list[dict[str, Any]]:
        """A copy of the retained finished events, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        """Drop retained events (the JSONL sink is untouched)."""
        self._events.clear()
