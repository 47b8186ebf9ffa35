"""HTTP transport for the service protocol (stdlib only, no new deps).

PR 2 made the service API a transport-agnostic typed protocol with a
lossless JSON wire codec; this module speaks it over a socket.  A
:class:`ServiceHTTPServer` (a ``ThreadingHTTPServer``) exposes a
:class:`~repro.service.frontend.ServiceFrontend` on these endpoints:

``POST /v1/requests``
    The legacy protocol front door, kept bit-for-bit compatible.  The body
    is either **one** wire-encoded request payload (a JSON object) or a
    **batch** (a JSON array of payloads).  Internally every legacy payload
    rides in a default-caller envelope (full scopes), so /v1 and /v2 share
    one dispatch path.  A single request answers with its wire-encoded
    response and a status code derived from the response type (see
    :func:`status_for_response`); a batch always answers ``200`` with a
    JSON array of per-item responses in submission order — each item is
    individually tagged, so one bad request never poisons its neighbours.

``POST /v2/requests``
    The versioned **data-plane** endpoint: the body is one wire-encoded
    :class:`~repro.service.envelope.Envelope` (or an array of them)
    wrapping an enroll / authenticate / drift-report request.  The
    :class:`~repro.service.envelope.EnvelopeProcessor` authorizes the
    caller's API key against the ``data:write`` scope *before* dispatch —
    a missing/unknown key answers 401, an under-scoped caller or a
    control-plane operation answers 403, with typed codes (see
    :func:`status_for_sealed`).  Responses are sealed
    (``sealed-response``) and echo the envelope's ``request_id``.

    The endpoint is **content-negotiated**: a body of type
    ``application/x-repro-batch`` carries one or more **binary columnar
    frames** (:mod:`repro.service.wirebin`) instead of JSON — a whole
    batch of data-plane requests as one frame whose feature vectors travel
    in a single contiguous float64 block.  The server authorizes each
    frame once for all of its requests, decodes the columns as zero-copy
    ``np.frombuffer`` views, and feeds authenticate frames straight into
    the frontend's fused scoring pass
    (:meth:`~repro.service.frontend.ServiceFrontend.submit_columns`)
    without materializing per-request objects.  Chunked uploads
    (``Transfer-Encoding: chunked``) decode and dispatch frame by frame,
    so a 100k-window stream is served with memory bounded by one chunk.
    JSON bodies — and the ``/v1`` surface — are bit-for-bit untouched.

``POST /v2/admin``
    The versioned **control-plane** endpoint (single envelope only):
    rollback / snapshot / eviction / detector training under the
    ``admin`` scope.  Data-plane operations are rejected 403
    (``wrong-plane``) — and vice versa on ``/v2/requests`` — so the hot
    path can never reach an admin operation.

``GET /healthz``
    Cheap liveness probe: ``{"status": "ok", ...}`` with uptime and
    request totals.

``GET /metrics``
    The full :class:`~repro.service.telemetry.TelemetryHub` snapshot
    (counters + latency summaries) plus per-caller request/denial counts.

Single data-plane requests are routed through an optional
:class:`~repro.service.frontend.MicroBatchQueue`, so *concurrent HTTP
connections* coalesce into fused scoring passes and inherit its admission
control — a full queue surfaces as a typed
:class:`~repro.service.protocol.ThrottledResponse` with HTTP 429 and a
``Retry-After`` header.  Batch arrays bypass the queue (they already are a
batch) and dispatch straight through ``submit_many``.  One handler body
answers every JSON POST — both versions, single and batch — and it is the
only place a server draws a JSON request's trace: one sampling draw per
request (per envelope of a batch), passed down with the request.

The matching :class:`ServiceClient` keeps one persistent HTTP/1.1
connection per client (re-established transparently after a drop) and
offers the same ``submit`` / ``submit_many`` API as the in-process
frontend — in v1 (no key) or v2 (``api_key=...``) mode — so
:class:`~repro.service.fleet.FleetSimulator` can run the whole lifecycle
over real sockets on either API revision.

Run a server from the command line (see ``docs/serving.md``); it
provisions an operator caller and prints its v2 API key once::

    PYTHONPATH=src python -m repro.service.transport --port 8414 --demo-fleet 50
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import tempfile
import threading
from contextlib import nullcontext
from functools import partial
from http.client import HTTPConnection, HTTPException
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from itertools import count
from time import monotonic, perf_counter, sleep
from typing import Any, Sequence

from repro.service import wirebin
from repro.service.envelope import (
    API_VERSION,
    SCOPE_ADMIN,
    SCOPE_DATA_WRITE,
    CallerRegistry,
    DeniedResponse,
    Envelope,
    EnvelopeProcessor,
    SealedResponse,
    dumps_envelope,
    dumps_sealed,
    envelope_from_payload,
    envelope_to_payload,
    loads_sealed,
    sealed_from_payload,
    sealed_to_payload,
    unseal,
    unsupported_version,
    verify_echo,
)
from repro.service.frontend import MicroBatchQueue, ServiceFrontend
from repro.service.protocol import (
    ErrorResponse,
    Request,
    Response,
    ThrottledResponse,
    dumps_request,
    dumps_response,
    is_data_plane,
    loads_response,
    request_kind,
    request_to_payload,
    response_from_payload,
    response_to_payload,
    request_from_payload,
)
from repro.service.telemetry import PROMETHEUS_CONTENT_TYPE, render_prometheus
from repro.service.tracing import (
    SPAN_ADMISSION,
    SPAN_QUEUE_WAIT,
    SPAN_RESPONSE_FRAMING,
    TRACE_HEADER,
    TraceContext,
    Tracer,
)
from repro.utils import serialization

#: The legacy (v1) protocol endpoint: bare wire requests, default caller.
REQUESTS_PATH = "/v1/requests"
#: The v2 data-plane endpoint: enveloped requests, single + batched.
V2_REQUESTS_PATH = "/v2/requests"
#: The v2 control-plane endpoint: enveloped admin requests (single only).
V2_ADMIN_PATH = "/v2/admin"
#: Liveness/readiness endpoint.
HEALTH_PATH = "/healthz"
#: Request header carrying the client's total deadline, in seconds.  The
#: shard router bounds its retry-with-backoff budget by this (capped by
#: its own policy), so a client that can only wait 2 s never has the
#: router retrying on its behalf for 10.
DEADLINE_HEADER = "X-Deadline-S"
#: Telemetry endpoint.
METRICS_PATH = "/metrics"
#: The worker's scrape document as JSON: counters, caller table and the
#: mergeable histogram families.  The shard router reads it in one round
#: trip to aggregate fleet-wide quantiles; kept off METRICS_PATH so that
#: JSON surface stays byte-for-byte unchanged.
HISTOGRAMS_PATH = "/metrics/histograms"
#: How often a background serving loop looks for a shutdown request, in
#: seconds.  The stdlib's 0.5 s default made every ``shutdown()`` wait up
#: to half a second; requests are served as they arrive either way.
SERVE_POLL_INTERVAL_S = 0.05

#: HTTP status for an ErrorResponse, by the exception class that caused it.
#: KeyError marks a missing resource (unknown user / version / detector);
#: validation failures are the client's fault; anything else is a server
#: fault.
_STATUS_BY_ERROR = {
    "KeyError": 404,
    "ValueError": 400,
    "TypeError": 400,
    "JSONDecodeError": 400,
    "UnicodeDecodeError": 400,
    "PermissionError": 403,
}


def status_for_response(response: Response) -> int:
    """The HTTP status code a single wire response answers with.

    * Success responses → ``200``;
    * :class:`~repro.service.protocol.ThrottledResponse` → ``429``;
    * :class:`~repro.service.protocol.ErrorResponse` → ``404`` for missing
      resources (``KeyError``), ``400`` for validation failures
      (``ValueError`` / ``TypeError`` / malformed JSON), ``500`` otherwise.
    """
    if isinstance(response, ThrottledResponse):
        return 429
    if isinstance(response, ErrorResponse):
        return _STATUS_BY_ERROR.get(response.error, 500)
    return 200


def status_for_sealed(sealed: SealedResponse) -> int:
    """The HTTP status a single v2 sealed response answers with.

    A typed caller rejection maps by its code — 401 for missing/unknown
    credentials, 403 for insufficient scope or a wrong-plane dispatch, 400
    for an unsupported ``api_version`` — everything else maps exactly as
    on the v1 endpoint (:func:`status_for_response`).
    """
    if isinstance(sealed.response, DeniedResponse):
        return sealed.response.http_status
    return status_for_response(sealed.response)


class DeadlineExceeded(ConnectionError):
    """A client-side deadline expired before the server answered.

    Raised by :class:`ServiceClient` whenever a socket timeout fires —
    connect, send or read — so callers always see a typed error instead of
    a bare ``socket.timeout``.  Subclasses :class:`ConnectionError`, so
    existing ``except ConnectionError`` handlers (and the chaos harness's
    outcome taxonomy) keep working unchanged.
    """

    def __init__(self, message: str, timeout_s: float | None = None) -> None:
        super().__init__(message)
        self.timeout_s = timeout_s


def _retry_after(seconds: float) -> str:
    """The ``Retry-After`` header value for a back-off of *seconds*.

    Whole seconds, never below 1: a client told to wait 0 would re-send
    at once into the same full queue.
    """
    return str(max(1, round(seconds + 0.5)))


class ProtocolRequestHandler(BaseHTTPRequestHandler):
    """The HTTP door a worker and the shard router share.

    One instance per request.  The base answers everything both doors
    answer alike:

    * response writing — one writer, which sends ``Connection: close``
      whenever the handler is about to close the socket;
    * typed client errors (counted as ``<prefix>.client_errors``) and the
      ``Retry-After`` header of throttled answers;
    * ``GET /healthz`` (``server.health()``) and ``GET /metrics`` (JSON,
      or Prometheus text when the client accepts ``text/plain``);
    * the POST prologue: unknown path → 404, content negotiation, binary
      frames outside ``/v2/requests`` → 400, any ``Transfer-Encoding``
      but a chunked binary stream → 400 and close, one body read bounded
      by a validated ``Content-Length``, JSON decode, and the body-shape
      checks;
    * the streaming binary-frame loop: frames dispatch one at a time, the
      answers spool, a torn stream delivers the executed frames plus a
      typed abort marker, and a single rejected frame answers with the
      rejection's status.

    Subclasses supply the dispatch: :meth:`_dispatch_json`,
    :meth:`_dispatch_frame` and the metrics source, and may extend the
    stream-failure mapping (:meth:`_abort_marker`, :meth:`_send_failure`).
    """

    # HTTP/1.1 + explicit Content-Length keeps client connections alive, so
    # a ServiceClient reuses one socket for its whole session.
    protocol_version = "HTTP/1.1"
    #: Namespace of this door's counters (``<prefix>.requests``, ...).
    counter_prefix = "transport"
    #: Parses the decoded JSON body.
    parse_json = staticmethod(serialization.loads)

    def log_message(self, format: str, *args: Any) -> None:
        """Route per-request logging into telemetry instead of stderr."""

    # ------------------------------------------------------------------ #
    # response writing
    # ------------------------------------------------------------------ #

    def _send_head(
        self,
        status: int,
        content_type: str,
        length: int,
        headers: dict[str, str] | None = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(length))
        if self.close_connection:
            # Keep-alive clients must learn the socket is closing with
            # this response, or their next reuse meets a reset.
            self.send_header("Connection", "close")
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()

    def _send_raw(
        self,
        status: int,
        payload: bytes,
        content_type: str = "application/json",
        headers: dict[str, str] | None = None,
    ) -> None:
        self._send_head(status, content_type, len(payload), headers)
        self.wfile.write(payload)

    def _send_json(
        self, status: int, body: str, headers: dict[str, str] | None = None
    ) -> None:
        self._send_raw(status, body.encode("utf-8"), "application/json", headers)

    def _send_response(
        self, answer: Response | SealedResponse, trace: TraceContext | None = None
    ) -> None:
        """Answer one bare or sealed response with the status it maps to,
        finishing *trace* (after its framing span) before the write."""
        if isinstance(answer, SealedResponse):
            status, encode = status_for_sealed(answer), dumps_sealed
            response = answer.response
        else:
            status, encode = status_for_response(answer), dumps_response
            response = answer
        headers = {}
        if isinstance(response, ThrottledResponse):
            headers["Retry-After"] = _retry_after(response.retry_after_s)
        if trace is None:
            self._send_json(status, encode(answer), headers)
            return
        headers[TRACE_HEADER] = trace.trace_id
        started = perf_counter()
        body = encode(answer)
        trace.add_span(SPAN_RESPONSE_FRAMING, perf_counter() - started)
        # Finish (and export) before the socket write so a client that saw
        # the response is guaranteed to find the trace event exported.
        self.server.tracer.finish(trace)
        self._send_json(status, body, headers)

    def _count(self, name: str) -> None:
        self.server.telemetry.increment(f"{self.counter_prefix}.{name}")

    def _client_error(self, kind: str, error: Exception) -> ErrorResponse:
        self._count("client_errors")
        return ErrorResponse(
            request_kind=kind, error=type(error).__name__, message=str(error)
        )

    def _reject(self, kind: str, error: Exception) -> None:
        """Answer a typed 400: the client sent something unusable."""
        self._send_json(400, dumps_response(self._client_error(kind, error)))

    def _item_payload(self, response: Response, item: Any) -> dict[str, Any]:
        """*response* in this path's per-item shape: bare on ``/v1``,
        sealed on ``/v2`` (echoing *item*'s ``request_id`` when it has
        one), so a client can read every item of its batch alike."""
        if self.path == REQUESTS_PATH:
            return response_to_payload(response)
        request_id = str(item.get("request_id", "")) if isinstance(item, dict) else ""
        return sealed_to_payload(
            SealedResponse(response=response, request_id=request_id)
        )

    # ------------------------------------------------------------------ #
    # GET
    # ------------------------------------------------------------------ #

    def _metrics_snapshot(self) -> dict[str, Any]:
        """The JSON ``/metrics`` document."""
        raise NotImplementedError

    def _metrics_hub(self) -> Any:
        """The telemetry hub ``/metrics`` renders as Prometheus text."""
        raise NotImplementedError

    def _get_extra(self) -> bool:
        """Serve a door-specific GET endpoint; ``False`` if none matches."""
        return False

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        if self.path == HEALTH_PATH:
            self._send_json(200, json.dumps(self.server.health(), sort_keys=True))
        elif self.path == METRICS_PATH:
            if "text/plain" in (self.headers.get("Accept") or "").lower():
                # Prometheus text exposition via content negotiation; the
                # default JSON snapshot stays byte-for-byte unchanged.
                self._send_raw(
                    200,
                    render_prometheus(self._metrics_hub()).encode("utf-8"),
                    PROMETHEUS_CONTENT_TYPE,
                )
            else:
                self._send_json(200, serialization.dumps(self._metrics_snapshot()))
        elif not self._get_extra():
            self._send_json(
                404,
                dumps_response(
                    ErrorResponse(
                        request_kind="transport",
                        error="KeyError",
                        message=f"no such endpoint: GET {self.path}",
                    )
                ),
            )

    # ------------------------------------------------------------------ #
    # POST prologue
    # ------------------------------------------------------------------ #

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        if self.path not in (REQUESTS_PATH, V2_REQUESTS_PATH, V2_ADMIN_PATH):
            # The body is left unread, so the stream holds no next request.
            self.close_connection = True
            self._send_json(
                404,
                dumps_response(
                    ErrorResponse(
                        request_kind="transport",
                        error="KeyError",
                        message=f"no such endpoint: POST {self.path}; protocol "
                        f"requests go to {REQUESTS_PATH} (legacy), "
                        f"{V2_REQUESTS_PATH} (enveloped data plane) or "
                        f"{V2_ADMIN_PATH} (enveloped control plane)",
                    )
                ),
            )
            return
        self._count("requests")
        with self.server.telemetry.timer(f"{self.counter_prefix}.request"):
            self._post()

    def _post(self) -> None:
        content_type = (
            (self.headers.get("Content-Type") or "").split(";", 1)[0].strip().lower()
        )
        binary = content_type == wirebin.CONTENT_TYPE
        if binary and self.path != V2_REQUESTS_PATH:
            # The (possibly chunked) frame body is left unread, so this
            # connection cannot serve another exchange.
            self.close_connection = True
            self._reject(
                "transport",
                TypeError(
                    f"binary batch frames ({wirebin.CONTENT_TYPE}) "
                    f"are accepted only at {V2_REQUESTS_PATH}"
                ),
            )
            return
        transfer_encoding = (self.headers.get("Transfer-Encoding") or "").strip()
        if transfer_encoding and not (
            binary and transfer_encoding.lower() == "chunked"
        ):
            # Only binary frame streams are read chunk by chunk; any other
            # body's end is unknowable, and its leftover bytes must not be
            # parsed as a next request.
            self.close_connection = True
            self._reject(
                "transport",
                ValueError(
                    f"Transfer-Encoding {transfer_encoding[:32]!r} is not "
                    f"accepted: only binary frame streams ({wirebin.CONTENT_TYPE}) "
                    "may be sent chunked; send other bodies with a Content-Length"
                ),
            )
            return
        raw_length = (self.headers.get("Content-Length") or "0").strip()
        # At most 18 digits: any length that large is already absurd, and
        # int() refuses very long digit strings anyway.
        if len(raw_length) > 18 or not (
            raw_length.isascii() and raw_length.isdigit()
        ):
            # Where the body ends is unknowable, so the rest of the stream
            # cannot be parsed as a next request either.
            self.close_connection = True
            self._reject(
                "transport",
                ValueError(
                    "Content-Length must be a non-negative integer, "
                    f"got {raw_length[:32]!r}"
                ),
            )
            return
        length = int(raw_length)
        if binary:
            self._handle_binary(length)
            return
        try:
            raw = self.rfile.read(length)
            payload = self.parse_json(raw.decode("utf-8"))
        except Exception as error:  # malformed JSON / encoding
            self._reject("transport", error)
            return
        admin = self.path == V2_ADMIN_PATH
        if isinstance(payload, list) and admin:
            self._reject(
                "transport",
                TypeError(
                    f"POST {V2_ADMIN_PATH} accepts a single envelope; "
                    "admin operations do not batch"
                ),
            )
        elif isinstance(payload, (dict, list)):
            self._dispatch_json(payload, raw)
        else:
            noun = "request" if self.path == REQUESTS_PATH else "envelope"
            self._reject(
                "transport",
                TypeError(
                    f"request body must be a wire-encoded {noun} object"
                    + ("" if admin else " or an array of them")
                    + f", got {type(payload).__name__}"
                ),
            )

    def _dispatch_json(self, payload: dict | list, raw: bytes) -> None:
        """Answer one decoded JSON body (an object, or an array outside
        ``/v2/admin``); *raw* is the body as received."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # the binary columnar stream (content-negotiated on /v2/requests)
    # ------------------------------------------------------------------ #

    def _dispatch_frame(
        self, frame: wirebin.RequestFrame, trace_id: str | None
    ) -> tuple[bytes, "DeniedResponse | ThrottledResponse | None"]:
        """Answer one request frame: its response frame, plus the
        frame-level rejection when admission refused the whole frame."""
        raise NotImplementedError

    def _echoes_trace(self) -> bool:
        """Whether a binary answer echoes the client's ``X-Trace-Id``."""
        return self.server.tracer is not None

    def _abort_marker(self, error: Exception) -> str | None:
        """The abort marker's error name when *error* tears a stream after
        frames executed, or ``None`` to answer with :meth:`_send_failure`."""
        if isinstance(error, ValueError):
            self._count("client_errors")
            return type(error).__name__
        return None

    def _send_failure(self, error: Exception, status: int | None = None) -> None:
        """Answer a binary request whose stream failed as a whole.

        A torn or corrupt frame is the client's fault (400); anything else
        escaped dispatch, which maps its own errors, and answers *status*
        (by default the status its exception type maps to).
        """
        if isinstance(error, ValueError):
            self._reject("binary-frame", error)
            return
        self._count("server_errors")
        response = ErrorResponse(
            request_kind="binary-frame",
            error=type(error).__name__,
            message=str(error),
        )
        self._send_json(
            status or status_for_response(response), dumps_response(response)
        )

    def _handle_binary(self, length: int) -> None:
        """Decode and dispatch binary columnar frames, incrementally.

        The body is one frame (``submit_many``) or a concatenated stream of
        them (``submit_stream`` uses HTTP chunked transfer).  Frames are
        read and dispatched **one at a time** straight off the socket —
        request-side memory is bounded by the largest single frame, not
        the upload — and each answers with its own response frame, in
        order.  Accumulated response frames spool to a temporary file
        beyond a small threshold (writing them to the socket mid-read
        could deadlock against a client that sends its whole stream before
        reading), so response-side memory is bounded too.  A corrupt or
        truncated frame answers a typed 400 ``error-response`` (JSON) and
        closes the connection, never a stack trace.
        """
        if (self.headers.get("Transfer-Encoding") or "").strip():
            # _post admits no Transfer-Encoding here but "chunked".
            read = _ChunkedBodyReader(self.rfile).read
        else:
            read = _BoundedBodyReader(self.rfile, length).read
        trace_id = self.headers.get(TRACE_HEADER)
        frames = 0
        rejection: DeniedResponse | ThrottledResponse | None = None
        with tempfile.SpooledTemporaryFile(max_size=1 << 23) as frames_out:
            try:
                for frame in wirebin.iter_request_frames(read):
                    body, rejection = self._dispatch_frame(frame, trace_id)
                    frames += 1
                    frames_out.write(body)
            except Exception as error:
                # The rest of the body is unreadable after a torn frame or
                # a failed dispatch, so the connection cannot be reused.
                self.close_connection = True
                marker = self._abort_marker(error) if frames else None
                if marker is None:
                    self._send_failure(error)
                    return
                # Frames already executed (possibly non-idempotent
                # enrollments): deliver their responses, then a typed
                # stream-abort marker, so the caller can reconcile
                # instead of blindly re-submitting everything.
                frames_out.write(
                    wirebin.encode_error_frame(
                        ErrorResponse(
                            request_kind="binary-frame",
                            error=marker,
                            message=f"stream aborted after {frames} "
                            f"dispatched frame(s): {error}",
                        )
                    )
                )
            # A single rejected frame answers with the rejection's mapped
            # status (429 + Retry-After / 401 / 403), mirroring the JSON
            # surface; a multi-frame stream answers 200 — its frames carry
            # mixed per-frame outcomes that one status cannot express.
            status = 200
            headers: dict[str, str] = {}
            if trace_id and self._echoes_trace():
                headers[TRACE_HEADER] = trace_id
            if frames == 1 and rejection is not None:
                if isinstance(rejection, ThrottledResponse):
                    status = 429
                    headers["Retry-After"] = _retry_after(rejection.retry_after_s)
                else:
                    status = rejection.http_status
            length = frames_out.tell()
            frames_out.seek(0)
            self._send_head(status, wirebin.CONTENT_TYPE, length, headers)
            shutil.copyfileobj(frames_out, self.wfile)


class _ServiceRequestHandler(ProtocolRequestHandler):
    """The worker's door: dispatch to the local frontend."""

    server: "ServiceHTTPServer"

    def _throttle_oversized(self, n_items: int) -> bool:
        """Answer 429 ``batch-too-large`` when a batch exceeds the bound.

        The micro-batch queue only bounds single-request submissions, so
        an unbounded array would be a trivial way around ``--max-depth``.
        """
        limit = self.server.max_batch_items
        if limit is None or n_items <= limit:
            return False
        self._count("throttled_batches")
        self._send_response(
            ThrottledResponse(
                request_kind="batch",
                reason="batch-too-large",
                queue_depth=n_items,
                max_depth=limit,
                retry_after_s=0.0,
            )
        )
        return True

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #

    def _metrics_snapshot(self) -> dict[str, Any]:
        snapshot = self.server.telemetry.snapshot()
        snapshot["callers"] = self.server.callers.snapshot()
        return snapshot

    def _metrics_hub(self) -> Any:
        return self.server.telemetry

    def _get_extra(self) -> bool:
        if self.path != HISTOGRAMS_PATH:
            return False
        telemetry = self.server.telemetry
        scrape = {
            "counters": telemetry.counters_snapshot(),
            "callers": self.server.callers.snapshot(),
            "histograms": telemetry.histograms_snapshot(),
        }
        self._send_json(200, serialization.dumps(scrape))
        return True

    def _dispatch_json(self, payload: dict | list, raw: bytes) -> None:
        """The one body of every JSON door: ``/v1`` and ``/v2``, single
        and batch.

        Each item becomes an envelope or answers in place with a typed
        client error; the envelopes make one processor call (``process``
        for a single body, so it keeps the micro-batch queue;
        ``process_many`` for an array) and every answer renders in the
        path's shape.  A single body answers its response's status; a
        batch always answers ``200``, each item carrying its own outcome,
        so one bad request never poisons its neighbours.
        """
        batch = isinstance(payload, list)
        if batch and self._throttle_oversized(len(payload)):
            return
        legacy = self.path == REQUESTS_PATH
        items = payload if batch else [payload]
        answers: list[Any] = [None] * len(items)
        envelopes: list[Envelope] = []
        positions: list[int] = []
        for index, item in enumerate(items):
            try:
                envelopes.append(self._envelope(item, index))
                positions.append(index)
            except Exception as error:
                kind = "envelope"
                if legacy:
                    kind = "unknown"
                    if isinstance(item, dict):
                        kind = str(item.get("kind", "unknown"))
                response = self._client_error(kind, error)
                if not batch:
                    # A malformed single body answers bare at both versions.
                    self._send_response(response)
                    return
                answers[index] = self._item_payload(response, item)
        traces = self._start_traces(envelopes, batch)
        plane = None if legacy else "control" if self.path == V2_ADMIN_PATH else "data"
        processor = self.server.processor
        try:
            if batch:
                sealed = processor.process_many(envelopes, plane, traces)
            else:
                sealed = [processor.process(envelopes[0], plane, traces and traces[0])]
        except Exception as error:  # defensive: the processor maps errors
            self._count("server_errors")
            kind = "envelope"
            if legacy:
                kind = "unknown" if batch else str(payload.get("kind", "unknown"))
            failure = ErrorResponse(
                request_kind=kind, error=type(error).__name__, message=str(error)
            )
            sealed = [
                SealedResponse(response=failure, request_id=envelope.request_id)
                for envelope in envelopes
            ]
        outcomes = sealed
        if legacy:
            outcomes = [self._as_legacy_response(item) for item in sealed]
        if not batch:
            self._send_response(outcomes[0], traces and traces[0])
            return
        for position, answer in zip(positions, outcomes):
            answers[position] = (
                response_to_payload(answer) if legacy else sealed_to_payload(answer)
            )
        for trace in traces or ():
            self.server.tracer.finish(trace)
        self._send_json(200, serialization.dumps(answers))

    def _envelope(self, item: Any, index: int) -> Envelope:
        """One JSON item as an envelope; raises when it is malformed.

        A bare ``/v1`` request rides under the legacy caller's envelope
        (full scopes), so both versions share the processor's dispatch
        path and telemetry while ``/v1`` stays bit-for-bit compatible.
        """
        if self.path != REQUESTS_PATH:
            return envelope_from_payload(item)
        if not isinstance(item, dict):
            raise TypeError(
                f"batch item {index} must be a wire-encoded request "
                f"object, got {type(item).__name__}"
            )
        server = self.server
        return Envelope(
            request=request_from_payload(item),
            api_key=server._legacy_api_key,
            request_id=f"legacy-{next(server._legacy_ids)}",
        )

    @staticmethod
    def _as_legacy_response(sealed: SealedResponse) -> Response:
        """Unwrap a legacy-envelope outcome into a bare v1 response.

        The default caller carries full scopes, so denial only happens if
        an operator revoked it (a legitimate way to switch the v1 surface
        off); that surfaces as a typed 403 ``ErrorResponse``, never as a
        crashed handler thread.
        """
        if isinstance(sealed.response, DeniedResponse):
            return ErrorResponse(
                request_kind=sealed.response.request_kind,
                error="PermissionError",
                message=f"the legacy /v1 caller was revoked "
                f"({sealed.response.code}); use the authenticated /v2 API",
            )
        return sealed.response

    def _start_traces(
        self, envelopes: list[Envelope], batch: bool
    ) -> list[TraceContext | None] | None:
        """Draw this request's traces, one per envelope (``None`` untraced).

        On a server this door is the only place a JSON request's trace is
        drawn, so every request consumes one sampling draw.  A single body
        gets an ``http`` trace, adopting ``X-Trace-Id`` or else the
        envelope's ``trace_id``; each envelope of an array gets its own
        ``envelope`` trace, adopting its ``trace_id``.  A client-supplied
        id is always sampled.  The door finishes the traces before it
        writes the answer.
        """
        tracer = self.server.tracer
        if tracer is None or not envelopes:
            return None
        if batch:
            return [
                tracer.start(
                    "envelope",
                    trace_id=envelope.trace_id,
                    request_id=envelope.request_id,
                    user_id=getattr(envelope.request, "user_id", None),
                )
                for envelope in envelopes
            ]
        (envelope,) = envelopes
        return [
            tracer.start(
                "http",
                trace_id=self.headers.get(TRACE_HEADER) or envelope.trace_id,
                # A bare /v1 request has no request id of its own.
                request_id=None if self.path == REQUESTS_PATH else envelope.request_id,
                user_id=getattr(envelope.request, "user_id", None),
            )
        ]

    def _dispatch_frame(
        self, frame: wirebin.RequestFrame, trace_id: str | None
    ) -> tuple[bytes, "DeniedResponse | ThrottledResponse | None"]:
        return self.server.dispatch_frame(frame, trace_id=trace_id)


class _BoundedBodyReader:
    """``read(n)`` over a Content-Length request body (never over-reads)."""

    def __init__(self, rfile: Any, length: int) -> None:
        self._rfile = rfile
        self._remaining = max(0, length)

    def read(self, n: int) -> bytes:
        if self._remaining <= 0 or n <= 0:
            return b""
        chunk = self._rfile.read(min(n, self._remaining))
        self._remaining -= len(chunk)
        return chunk


class _ChunkedBodyReader:
    """``read(n)`` over a ``Transfer-Encoding: chunked`` request body.

    ``http.server`` does not decode chunked uploads itself; streaming
    clients need it (a 100k-window upload's total length is unknown when
    the first frame is sent).  Malformed chunk framing raises
    ``ValueError`` — mapped to the same typed 400 as a corrupt frame.
    """

    def __init__(self, rfile: Any) -> None:
        self._rfile = rfile
        self._chunk_remaining = 0
        self._done = False

    def _next_chunk(self) -> None:
        line = self._rfile.readline(1026)
        if not line:
            # Only the 0-size terminal chunk ends a chunked body cleanly; a
            # bare EOF here means the client died mid-upload.  Surfacing it
            # keeps partial streams on the typed-400 path instead of being
            # silently accepted as complete.
            self._done = True
            raise ValueError(
                "malformed chunked encoding: stream ended before the "
                "terminal chunk"
            )
        token = line.split(b";", 1)[0].strip()
        try:
            size = int(token, 16)
        except ValueError:
            raise ValueError(
                f"malformed chunked encoding: bad chunk size {token!r}"
            ) from None
        if size == 0:
            # Trailer section: discard header lines until the blank line.
            while True:
                trailer = self._rfile.readline(1026)
                if trailer in (b"\r\n", b"\n", b""):
                    break
            self._done = True
            return
        self._chunk_remaining = size

    def read(self, n: int) -> bytes:
        if self._done or n <= 0:
            return b""
        if self._chunk_remaining == 0:
            self._next_chunk()
            if self._done:
                return b""
        chunk = self._rfile.read(min(n, self._chunk_remaining))
        if not chunk:
            self._done = True
            raise ValueError("malformed chunked encoding: truncated chunk")
        self._chunk_remaining -= len(chunk)
        if self._chunk_remaining == 0:
            if self._rfile.read(2) != b"\r\n":
                self._done = True
                raise ValueError(
                    "malformed chunked encoding: missing CRLF after chunk"
                )
        return chunk


class _ServerChannel:
    """The processor's data-plane dispatch hook: queue-aware.

    Admitted single data-plane requests go through the server's micro-batch
    queue (cross-connection coalescing + admission control) when one is
    attached; batch dispatch goes straight through ``submit_many`` (a batch
    already is a batch).  A control-plane single never reaches ``submit``:
    the processor sends it to the frontend's control door.  Each request's
    trace rides along to the layer that spans it.
    """

    def __init__(self, server: "ServiceHTTPServer") -> None:
        self.server = server

    def submit(self, request: Request, trace: TraceContext | None = None) -> Response:
        if self.server.queue is not None:
            return self.server.queue.submit(request, trace).result()
        return self.server.frontend.submit(request, trace)

    def submit_many(
        self,
        requests: Sequence[Request],
        traces: Sequence[TraceContext | None] | None = None,
    ) -> list[Response]:
        return self.server.frontend.submit_many(requests, traces)


class ServiceHTTPServer(ThreadingHTTPServer):
    """Serves a :class:`~repro.service.frontend.ServiceFrontend` over HTTP.

    One handler thread per connection (``ThreadingHTTPServer``); single
    requests from concurrent connections meet again in the optional
    micro-batch queue and coalesce into fused scoring passes.

    Three protocol endpoints are mounted:

    * ``POST /v1/requests`` — the legacy unauthenticated surface, kept
      bit-for-bit compatible: bare wire payloads are internally wrapped in
      a default-caller envelope (full scopes) and dispatched through the
      same processor as /v2;
    * ``POST /v2/requests`` — the enveloped data plane (single + batched),
      requiring a caller key with the ``data:write`` scope;
    * ``POST /v2/admin`` — the enveloped control plane (single), requiring
      the ``admin`` scope.

    Parameters
    ----------
    frontend:
        The typed front door to expose (a fresh one, with a fresh gateway,
        is created when omitted).
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    queue:
        Optional :class:`~repro.service.frontend.MicroBatchQueue` wrapping
        *frontend*; single-request POSTs are submitted through it, gaining
        cross-connection coalescing and admission control.  The server
        starts/stops it together with itself.  Pass ``None`` to dispatch
        single requests synchronously on the connection thread.
    max_batch_items:
        Admission bound on the length of a batch-array POST (the queue's
        ``max_depth`` only covers single-request bodies); an oversized
        array answers 429 with a ``batch-too-large``
        :class:`~repro.service.protocol.ThrottledResponse` before any item
        is parsed into a typed request.  ``None`` disables the bound.
    callers:
        Optional :class:`~repro.service.envelope.CallerRegistry` holding
        provisioned API callers.  A fresh one is created when omitted —
        then every /v2 request is rejected 401 until a caller is
        registered (the CLI provisions an operator caller at startup).

    Raises
    ------
    ValueError
        If *queue* wraps a different frontend than *frontend*, or
        ``max_batch_items`` is not positive.
    OSError
        If the address cannot be bound.
    """

    daemon_threads = True
    allow_reuse_address = True
    # The stdlib listen backlog of 5 drops connections when a pooled
    # client (or the shard router) opens its whole pool in one burst.
    request_queue_size = 128

    #: Caller id of the internal default caller legacy /v1 payloads ride on.
    LEGACY_CALLER_ID = "legacy-v1"

    def __init__(
        self,
        frontend: ServiceFrontend | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        queue: MicroBatchQueue | None = None,
        max_batch_items: int | None = 4096,
        callers: CallerRegistry | None = None,
        tracer: Tracer | None = None,
        trust_prepaid_frames: bool = False,
        restarts: int = 0,
        last_crash_ts: float | None = None,
    ) -> None:
        self.frontend = frontend if frontend is not None else ServiceFrontend()
        if queue is not None and queue.frontend is not self.frontend:
            raise ValueError(
                "conflicting queue and frontend: the supplied queue wraps a "
                "different frontend"
            )
        if max_batch_items is not None and max_batch_items < 1:
            raise ValueError(
                f"max_batch_items must be >= 1 (or None), got {max_batch_items}"
            )
        self.queue = queue
        self.max_batch_items = max_batch_items
        self.telemetry = self.frontend.telemetry
        self.callers = (
            callers
            if callers is not None
            else CallerRegistry(telemetry=self.telemetry)
        )
        # The default caller legacy payloads are wrapped under: full scopes,
        # so /v1 keeps doing everything it always did.  The key never
        # leaves this process.
        self._legacy_api_key = self.callers.register(
            self._unique_caller_id(self.LEGACY_CALLER_ID),
            (SCOPE_DATA_WRITE, SCOPE_ADMIN),
        )
        self.processor = EnvelopeProcessor(
            self.frontend, callers=self.callers, channel=_ServerChannel(self)
        )
        self.tracer: Tracer | None = None
        self.set_tracer(tracer)
        # Cheap sequential ids for internally wrapped legacy requests (the
        # caller never sees them; a uuid4 per /v1 request would be waste).
        self._legacy_ids = count(1)
        # Honour the router's prepaid marker on binary sub-frames only when
        # explicitly enabled (cluster workers behind a router); a public
        # server must never let clients stamp their own frames quota-free.
        self.trust_prepaid_frames = trust_prepaid_frames
        # Crash history injected by the pool manager on respawn, surfaced
        # on /healthz so operators can spot flapping workers.
        self.restarts = restarts
        self.last_crash_ts = last_crash_ts
        self.started_at = monotonic()
        self._serve_thread: threading.Thread | None = None
        super().__init__((host, port), _ServiceRequestHandler)

    def _unique_caller_id(self, base: str) -> str:
        """*base*, suffixed if an operator already registered that id."""
        if base not in self.callers.callers():
            return base
        index = 2
        while f"{base}-{index}" in self.callers.callers():
            index += 1
        return f"{base}-{index}"

    def set_tracer(self, tracer: Tracer | None) -> None:
        """Attach (or detach, with ``None``) a tracer to the serving path.

        Only the HTTP door reads it: it draws one trace per JSON request
        (one per envelope of a batch) and one per binary frame, and passes
        it down, so each request consumes exactly one sampling draw and an
        unsampled request stays unsampled.  Every later stage records its
        spans on the trace passed down with the request.  Safe to flip at
        runtime: the door re-reads ``tracer`` per request, which the
        overhead benchmark relies on to compare traced and untraced
        throughput on one warmed-up server.
        """
        self.tracer = tracer

    def dispatch_frame(
        self, frame: wirebin.RequestFrame, trace_id: str | None = None
    ) -> tuple[bytes, "DeniedResponse | ThrottledResponse | None"]:
        """Authorize and dispatch one binary frame.

        The whole frame travels under one caller credential, so admission
        (batch bound, API version, authorization, rate limit) runs once for
        all of its requests; an ``authenticate`` frame then flows straight
        into the frontend's columnar fused pass with no per-request protocol
        objects, while ``enroll`` / ``drift-report`` frames materialize
        their per-user matrices (storage appends per user anyway) and ride
        ``submit_many``.

        When a tracer is attached the whole frame shares **one** trace —
        admission, queue wait (always zero: frames never queue) and the
        fused pass are frame-level stages — fanned out on finish into one
        exported event per request (see ``Tracer.finish_frame``).
        *trace_id* carries the client-supplied ``X-Trace-Id``, if any.

        Returns
        -------
        tuple[bytes, DeniedResponse | ThrottledResponse | None]
            The encoded response frame, plus the frame-level rejection when
            admission refused the whole frame (``None`` on dispatch) — a
            single-frame POST answers with that rejection's mapped HTTP
            status (429/401/403), mirroring the JSON surface.
        """
        self.telemetry.increment("transport.binary_frames")
        count = frame.n_requests
        tracer = self.tracer
        trace = (
            tracer.start("binary-frame", trace_id=trace_id, request_id=frame.frame_id)
            if tracer is not None
            else None
        )
        admission_started = perf_counter() if trace is not None else 0.0
        rejection: DeniedResponse | ThrottledResponse | None = None
        if self.max_batch_items is not None and count > self.max_batch_items:
            self.telemetry.increment("transport.throttled_batches")
            rejection = ThrottledResponse(
                request_kind="batch",
                reason="batch-too-large",
                queue_depth=count,
                max_depth=self.max_batch_items,
                retry_after_s=0.0,
            )
        elif frame.api_version != API_VERSION:
            self.telemetry.increment("envelope.denied", count)
            rejection = unsupported_version(frame.op, frame.api_version)
        else:
            prepaid = frame.prepaid and self.trust_prepaid_frames
            if prepaid:
                self.telemetry.increment("transport.prepaid_frames")
            outcome = self.processor.authorize_frame(
                frame.api_key, frame.op, count, charge=not prepaid
            )
            if isinstance(outcome, (DeniedResponse, ThrottledResponse)):
                rejection = outcome
        if trace is not None:
            trace.add_span(
                SPAN_ADMISSION, perf_counter() - admission_started, n_requests=count
            )
        errors: dict[int, str] = {}
        if rejection is not None:
            if trace is not None:
                trace.annotate(
                    error=getattr(rejection, "code", None)
                    or getattr(rejection, "reason", "rejected")
                )
            encode = partial(
                wirebin.encode_rejection_frame,
                frame.op,
                rejection,
                frame.frame_id,
                count,
            )
        else:
            if trace is not None:
                trace.caller_id = outcome.caller_id
                # Binary frames bypass the micro-batch queue entirely; record
                # the stage explicitly so span sets stay uniform across paths.
                trace.add_span(SPAN_QUEUE_WAIT, 0.0, queued=False)
            if frame.op == "authenticate":
                result = self.frontend.submit_columns(frame.to_columns(), trace)
                encode = partial(
                    wirebin.encode_columnar_response,
                    result,
                    frame.frame_id,
                    outcome.caller_id,
                )
                errors = {index: error.error for index, error in result.errors.items()}
            else:
                requests = frame.to_requests()
                responses = self.frontend.submit_many(
                    requests, None if trace is None else [trace] * len(requests)
                )
                encode = partial(
                    wirebin.encode_response_frame,
                    frame.op,
                    responses,
                    frame.frame_id,
                    outcome.caller_id,
                )
                errors = {
                    index: response.error
                    for index, response in enumerate(responses)
                    if isinstance(response, ErrorResponse)
                }
        with nullcontext() if trace is None else trace.span(SPAN_RESPONSE_FRAMING):
            body = encode()
        if trace is not None:
            if rejection is not None:
                tracer.finish(trace)
            else:
                tracer.finish_frame(trace, frame.user_ids, errors=errors)
        return body, rejection

    def health(self) -> dict[str, Any]:
        """The ``/healthz`` payload: readiness plus coarse service totals.

        One health contract shared by the cluster's pool manager and any
        external orchestrator: ``ready`` plus the signals behind it —
        current micro-batch queue depth (backlog) and the serving
        registry's generation (which model snapshot this process answers
        with; workers of one cluster sharing a registry root report the
        same generation).
        """
        registry = getattr(self.frontend.gateway, "registry", None)
        return {
            "status": "ok",
            "ready": True,
            "uptime_s": monotonic() - self.started_at,
            "transport_requests": self.telemetry.counter_value("transport.requests"),
            "frontend_requests": self.telemetry.counter_value("frontend.requests"),
            "queue_depth": self.queue.depth if self.queue is not None else 0,
            "registry_generation": (
                int(registry.generation) if registry is not None else 0
            ),
            "restarts": self.restarts,
            "last_crash_ts": self.last_crash_ts,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return self.server_address[1]

    def serve_background(self) -> "ServiceHTTPServer":
        """Start serving on a daemon thread; returns ``self`` (idempotent)."""
        if self.queue is not None:
            self.queue.start()
        if self._serve_thread is None or not self._serve_thread.is_alive():
            self._serve_thread = threading.Thread(
                target=self.serve_forever,
                args=(SERVE_POLL_INTERVAL_S,),
                name="service-http-server",
                daemon=True,
            )
            self._serve_thread.start()
        return self

    def shutdown(self) -> None:
        """Stop serving, join the background thread and stop the queue."""
        super().shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join()
            self._serve_thread = None
        if self.queue is not None:
            self.queue.stop()

    def __enter__(self) -> "ServiceHTTPServer":
        return self.serve_background()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
        self.server_close()


class ServiceClient:
    """Typed protocol client speaking the JSON wire codec over HTTP.

    Presents the same ``submit`` / ``submit_many`` surface as the
    in-process :class:`~repro.service.frontend.ServiceFrontend`, so any
    caller of one can be pointed at the other — including
    :class:`~repro.service.fleet.FleetSimulator`.

    With an ``api_key`` the client speaks the **v2** enveloped API: every
    request is wrapped in an :class:`~repro.service.envelope.Envelope`
    (fresh ``request_id``, the caller credential), data-plane operations
    POST to ``/v2/requests``, control-plane operations to ``/v2/admin``,
    and the echoed ``request_id`` of every sealed response is verified.
    A typed caller rejection (401/403) raises :class:`PermissionError`.
    Without a key the client speaks the legacy ``/v1`` surface unchanged.

    With ``codec="binary"`` (requires an ``api_key``), frame-encodable
    ``submit_many`` batches travel as **one binary columnar frame**
    (:mod:`repro.service.wirebin`) instead of a JSON array — all feature
    vectors in a single contiguous float64 block the server decodes with
    zero copies — and :meth:`submit_stream` uploads arbitrarily large
    batches as chunked frame streams with bounded memory on both sides.
    Batches the binary codec cannot express (mixed operations, empty
    requests, non-coarse context labels) silently ride the JSON ``/v2``
    path, so behaviour is identical either way.

    A pool of up to ``pool_size`` persistent HTTP/1.1 connections is kept
    per client and reused across calls (each re-established transparently
    once after a drop).  The default pool of one serializes calls exactly
    like the single-connection client of old; concurrent submitters (one
    client shared by many threads) should size the pool to their thread
    count so exchanges run in parallel instead of queueing on one socket.

    Parameters
    ----------
    host, port:
        The server address (e.g. ``server.port`` of an in-process
        :class:`ServiceHTTPServer`).
    timeout_s:
        Socket timeout for connect/read, in seconds.
    api_key:
        Caller credential; providing one switches the client to the v2
        enveloped endpoints.
    codec:
        ``"json"`` (default) or ``"binary"`` — the wire form of
        ``submit_many`` batches.  The binary codec rides the authenticated
        ``/v2`` surface, so it requires an ``api_key``.
    pool_size:
        Connections kept per client (>= 1).  Calls beyond the pool size
        wait for a free connection.
    max_retry_wait:
        Opt-in bounded client-side backoff: on a 429/503 carrying a
        ``Retry-After`` header, the client sleeps the suggested interval
        and re-sends, as long as the *total* time slept this call stays
        within this budget (seconds).  The default of ``0.0`` keeps the
        historical behaviour — throttles and unavailability surface
        immediately as their typed responses.  Streams are never retried.
    deadline_s:
        Optional end-to-end deadline advertised to the server via the
        ``X-Deadline-S`` header on every request; the shard router bounds
        its own retry budget by it.  Purely advisory — the client's socket
        timeout stays ``timeout_s``.

    Raises
    ------
    ValueError
        If *codec* names no codec, ``codec="binary"`` comes without an
        ``api_key``, ``pool_size`` is not positive, or *max_retry_wait* /
        *deadline_s* is negative.
    """

    #: The wire codecs ``submit_many`` can speak.
    CODECS = ("json", "binary")

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8414,
        timeout_s: float = 30.0,
        api_key: str | None = None,
        codec: str = "json",
        pool_size: int = 1,
        max_retry_wait: float = 0.0,
        deadline_s: float | None = None,
    ) -> None:
        if codec not in self.CODECS:
            raise ValueError(f"codec must be one of {self.CODECS}, got {codec!r}")
        if codec == "binary" and api_key is None:
            raise ValueError(
                "the binary codec rides the authenticated /v2 surface; "
                "construct the client with an api_key"
            )
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if max_retry_wait < 0.0:
            raise ValueError(
                f"max_retry_wait must be >= 0, got {max_retry_wait}"
            )
        if deadline_s is not None and deadline_s <= 0.0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.api_key = api_key
        self.codec = codec
        self.pool_size = pool_size
        self.max_retry_wait = max_retry_wait
        self.deadline_s = deadline_s
        self._idle: list[HTTPConnection] = []
        self._idle_lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(pool_size)
        self._draining = False

    @property
    def _connection(self) -> HTTPConnection | None:
        """The most recently parked idle connection (diagnostics/tests)."""
        with self._idle_lock:
            return self._idle[-1] if self._idle else None

    @property
    def api_version(self) -> int:
        """The protocol revision this client speaks (1 without a key)."""
        return 2 if self.api_key is not None else 1

    # ------------------------------------------------------------------ #
    # wire plumbing
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Drop every pooled connection (a later call reconnects).

        Idle connections close immediately; connections checked out by
        in-flight exchanges close as they are returned (instead of being
        parked back into the pool of a closed client).  A later call
        reopens the pool.
        """
        with self._idle_lock:
            idle, self._idle = self._idle, []
            self._draining = True
        for connection in idle:
            connection.close()

    def _pop_idle(self) -> HTTPConnection | None:
        with self._idle_lock:
            self._draining = False
            return self._idle.pop() if self._idle else None

    def _push_idle(self, connection: HTTPConnection) -> None:
        with self._idle_lock:
            if self._draining:
                connection.close()
                return
            self._idle.append(connection)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _roundtrip(self, method: str, path: str, body: str | None = None) -> str:
        """One JSON exchange; see :meth:`_exchange` for the retry policy."""
        data, _ = self._exchange(
            method, path, body=None if body is None else body.encode("utf-8")
        )
        return data.decode("utf-8")

    def _exchange(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        content_type: str = "application/json",
        stream: Any | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[bytes, str]:
        """One HTTP exchange over a pooled (re-established once) connection.

        Retry policy: a failure while *sending* (connect or write — the
        server cannot have processed anything) is retried once on a fresh
        socket for any method; a failure while *reading the response* is
        retried only for idempotent ``GET``\\ s.  A ``POST`` whose request
        was transmitted is never re-sent — the server may already have
        executed a non-idempotent operation (enroll, drift retrain), and a
        blind replay would duplicate it.  A *stream* body (an iterator of
        frame bytes, sent with chunked transfer encoding) is never retried
        at all — a partially consumed iterator cannot be replayed — and
        always opens a fresh socket so a stale keep-alive connection cannot
        waste its single attempt.

        Separately from transport failures, a **throttled or unavailable**
        answer (429/503 with a ``Retry-After`` header) is slept out and
        re-sent when the client was built with ``max_retry_wait > 0`` —
        these responses mean the server explicitly did *not* execute the
        operation, so re-sending is always safe.  The total time slept per
        call is bounded by ``max_retry_wait``; once the budget cannot cover
        the server's suggested wait, the typed rejection is returned to the
        caller exactly as without the option.

        Returns
        -------
        tuple[bytes, str]
            The response body and its ``Content-Type``.

        Raises
        ------
        DeadlineExceeded
            If a socket timeout fired during connect, send or read.
        ConnectionError
            If the server cannot be reached, or a non-idempotent exchange
            failed after its request may have been processed.
        """
        if self.deadline_s is not None:
            headers = {**(headers or {}), DEADLINE_HEADER: f"{self.deadline_s:g}"}
        self._slots.acquire()
        try:
            connection = self._pop_idle()
            last_error: Exception | None = None
            transport_attempts = 0
            retry_wait_budget = self.max_retry_wait
            while True:
                if transport_attempts >= 2:
                    raise ConnectionError(
                        f"cannot reach service at {self.host}:{self.port}: "
                        f"{last_error}"
                    ) from last_error
                if stream is not None and connection is not None:
                    connection.close()
                    connection = None
                if connection is None:
                    connection = HTTPConnection(
                        self.host, self.port, timeout=self.timeout_s
                    )
                try:
                    connection.request(
                        method,
                        path,
                        body=stream if stream is not None else body,
                        headers={"Content-Type": content_type, **(headers or {})},
                    )
                except (HTTPException, OSError) as error:
                    # Send-phase failure (stale keep-alive socket, refused
                    # connect): nothing reached the server, safe to retry —
                    # except for a stream, whose iterator may be partially
                    # consumed.
                    last_error = error
                    connection.close()
                    connection = None
                    if isinstance(error, TimeoutError):
                        raise DeadlineExceeded(
                            f"{method} {path} to {self.host}:{self.port} timed "
                            f"out after {self.timeout_s}s while sending",
                            timeout_s=self.timeout_s,
                        ) from error
                    if stream is not None:
                        raise ConnectionError(
                            f"streamed {method} {path} to {self.host}:"
                            f"{self.port} failed mid-send ({error}); a "
                            "partially consumed stream cannot be replayed"
                        ) from error
                    transport_attempts += 1
                    continue
                try:
                    response = connection.getresponse()
                    data = response.read()
                    response_type = response.getheader(
                        "Content-Type", "application/json"
                    )
                    status = response.status
                    retry_after = response.getheader("Retry-After")
                except (HTTPException, OSError) as error:
                    last_error = error
                    connection.close()
                    connection = None
                    if isinstance(error, TimeoutError):
                        raise DeadlineExceeded(
                            f"{method} {path} to {self.host}:{self.port} timed "
                            f"out after {self.timeout_s}s awaiting the response",
                            timeout_s=self.timeout_s,
                        ) from error
                    if method != "GET":
                        raise ConnectionError(
                            f"{method} {path} to {self.host}:{self.port} failed "
                            f"after the request was sent ({error}); not retrying "
                            "a possibly-executed non-idempotent operation"
                        ) from error
                    transport_attempts += 1
                    continue
                wait = self._retry_after_wait(
                    status, retry_after, retry_wait_budget, stream
                )
                if wait is not None:
                    # The server refused before executing (throttle /
                    # shard-unavailable), so re-sending cannot duplicate
                    # work.  The response was fully read, so the connection
                    # stays reusable.
                    retry_wait_budget -= wait
                    sleep(wait)
                    continue
                self._push_idle(connection)
                return data, response_type
        finally:
            self._slots.release()

    @staticmethod
    def _retry_after_wait(
        status: int,
        retry_after: str | None,
        budget: float,
        stream: Any | None,
    ) -> float | None:
        """How long to sleep before re-sending, or ``None`` to answer now.

        Only 429/503 answers carrying a parseable ``Retry-After`` are
        retried, only within the remaining *budget*, and never for streams
        (their iterator is already consumed).  Every retry consumes a small
        minimum from the budget so a ``Retry-After: 0`` server cannot pin
        the client in a zero-cost loop.
        """
        if status not in (429, 503) or stream is not None or budget <= 0.0:
            return None
        if retry_after is None:
            return None
        try:
            suggested = float(retry_after)
        except ValueError:
            return None
        wait = max(suggested, 0.05)
        return wait if wait <= budget else None

    # ------------------------------------------------------------------ #
    # protocol surface (mirrors ServiceFrontend)
    # ------------------------------------------------------------------ #

    def submit(
        self, request: Request, idempotency_key: str | None = None
    ) -> Response:
        """Send one typed request; returns its typed response.

        In v2 mode the request travels enveloped: data-plane operations go
        to ``/v2/requests``, control-plane operations to ``/v2/admin``, and
        *idempotency_key* (v2 only) makes retries of non-idempotent
        operations safe — the server executes once and replays the recorded
        response.  Transport-level failures (unreachable server,
        non-protocol body) raise; protocol-level failures come back as
        typed :class:`~repro.service.protocol.ErrorResponse` /
        :class:`~repro.service.protocol.ThrottledResponse` values, exactly
        as from the in-process frontend.

        Raises
        ------
        TypeError
            If *request* is not a protocol request.
        ConnectionError
            If the server cannot be reached.
        ValueError
            If the server's answer is not a wire-encoded response (or, in
            v2 mode, echoes the wrong request id), or *idempotency_key* is
            passed without an API key.
        PermissionError
            In v2 mode, when the server rejects this client's caller
            credential or scope (HTTP 401/403).
        """
        if self.api_key is None:
            if idempotency_key is not None:
                raise ValueError(
                    "idempotency keys require the v2 API; construct the "
                    "client with an api_key"
                )
            return loads_response(
                self._roundtrip("POST", REQUESTS_PATH, dumps_request(request))
            )
        return unseal(*self._post_envelope(request, idempotency_key))

    def submit_sealed(
        self, request: Request, idempotency_key: str | None = None
    ) -> SealedResponse:
        """Send one v2 request and return the **sealed** response.

        The wire twin of
        :meth:`~repro.service.envelope.EnvelopeChannel.submit_sealed`:
        a caller rejection comes back as the typed
        :class:`~repro.service.envelope.DeniedResponse` inside the seal
        instead of raising :class:`PermissionError`, and the envelope
        metadata (``replayed``, ``caller_id``) stays visible — which is
        how the adversarial fleet detects an idempotency-key replay
        identically in process and over sockets.  Always rides the JSON
        single-request path (idempotency keys have no frame slot), even
        on a binary-codec client.

        Raises
        ------
        ValueError
            If this client has no API key (sealed responses are a v2
            construct), or the echoed ``request_id`` does not match.
        ConnectionError
            If the server cannot be reached.
        """
        if self.api_key is None:
            raise ValueError(
                "sealed responses require the v2 API; construct the client "
                "with an api_key"
            )
        return verify_echo(*self._post_envelope(request, idempotency_key))

    def _post_envelope(
        self, request: Request, idempotency_key: str | None
    ) -> tuple[Envelope, SealedResponse]:
        """POST *request* enveloped to its plane's endpoint; the envelope
        and the (unchecked) sealed answer."""
        envelope = Envelope(
            request=request,
            api_key=self.api_key,
            idempotency_key=idempotency_key,
        )
        path = V2_REQUESTS_PATH if is_data_plane(request) else V2_ADMIN_PATH
        return envelope, loads_sealed(
            self._roundtrip("POST", path, dumps_envelope(envelope))
        )

    def submit_many(self, requests: Sequence[Request]) -> list[Response]:
        """Send a batch in one exchange; responses come back in order.

        The server dispatches the array through
        :meth:`ServiceFrontend.submit_many
        <repro.service.frontend.ServiceFrontend.submit_many>`, so
        consecutive authenticate requests coalesce into fused scoring
        passes on the server side exactly as they would in process.  In v2
        mode the batch travels as an array of envelopes on the data-plane
        endpoint — control-plane operations do not batch; send them one at
        a time through :meth:`submit`.

        Raises
        ------
        TypeError
            If any entry is not a protocol request.
        ConnectionError
            If the server cannot be reached.
        ValueError
            If the server's answer is not an array of wire responses, or
            (v2) a control-plane request was included in the batch.
        PermissionError
            In v2 mode, when the server rejects this client's caller
            credential or scope (HTTP 401/403).
        """
        if not requests:
            return []
        if self.codec == "binary":
            op = wirebin.batch_op(requests)
            if op is not None:
                return self._submit_binary(requests, op)
        if self.api_key is None:
            body = serialization.dumps(
                [request_to_payload(request) for request in requests]
            )
            payload = serialization.loads(self._roundtrip("POST", REQUESTS_PATH, body))
            if not isinstance(payload, list) or len(payload) != len(requests):
                raise ValueError(
                    f"expected {len(requests)} wire responses, got "
                    f"{type(payload).__name__}"
                    + (f" of length {len(payload)}" if isinstance(payload, list) else "")
                )
            return [response_from_payload(item) for item in payload]
        for request in requests:
            if not is_data_plane(request):
                raise ValueError(
                    f"{request_kind(request)!r} is a control-plane operation; "
                    "v2 batches carry data-plane requests only — submit() "
                    "admin operations one at a time"
                )
        envelopes = [
            Envelope(request=request, api_key=self.api_key) for request in requests
        ]
        body = serialization.dumps(
            [envelope_to_payload(envelope) for envelope in envelopes]
        )
        payload = serialization.loads(
            self._roundtrip("POST", V2_REQUESTS_PATH, body)
        )
        if not isinstance(payload, list) or len(payload) != len(requests):
            raise ValueError(
                f"expected {len(requests)} sealed wire responses, got "
                f"{type(payload).__name__}"
                + (f" of length {len(payload)}" if isinstance(payload, list) else "")
            )
        return [
            unseal(envelope, sealed_from_payload(item))
            for envelope, item in zip(envelopes, payload)
        ]

    # ------------------------------------------------------------------ #
    # the binary columnar codec
    # ------------------------------------------------------------------ #

    def _submit_binary(self, requests: Sequence[Request], op: str) -> list[Response]:
        """Send a frame-encodable batch as one binary columnar frame."""
        frame_id = wirebin.new_frame_id()
        body = wirebin.encode_request_frame(
            requests, api_key=self.api_key, frame_id=frame_id, op=op
        )
        data, response_type = self._exchange(
            "POST",
            V2_REQUESTS_PATH,
            body=body,
            content_type=wirebin.CONTENT_TYPE,
        )
        return self._decode_binary_reply(
            data, response_type, [(frame_id, len(requests))]
        )

    def submit_stream(
        self, requests: Any, chunk_windows: int = 8192
    ) -> list[Response]:
        """Stream a large batch as chunked binary frames, bounded memory.

        The iterable is consumed lazily: requests accumulate into frames of
        at most *chunk_windows* windows (an operation change also cuts a
        frame), each frame is encoded and sent as soon as it is full, and
        the server dispatches frames as they arrive — so neither side ever
        holds the whole upload.  Responses come back as one frame per
        chunk, flattened into submission order, exactly as ``submit_many``
        would have answered.

        Parameters
        ----------
        requests:
            An iterable of data-plane protocol requests; every chunk must
            be frame-encodable (see :func:`repro.service.wirebin.batch_op`).
        chunk_windows:
            Most feature windows per frame (>= 1).

        Raises
        ------
        ValueError
            If the client speaks the JSON codec, ``chunk_windows`` is not
            positive, or a chunk is not frame-encodable.
        ConnectionError
            If the exchange fails (streams are never retried: a partially
            consumed iterator cannot be replayed).
        PermissionError
            If the server rejects this client's caller credential.
        """
        if self.codec != "binary":
            raise ValueError(
                "submit_stream requires the binary codec; construct the "
                "client with codec='binary'"
            )
        if chunk_windows < 1:
            raise ValueError(f"chunk_windows must be >= 1, got {chunk_windows}")
        expected: list[tuple[str, int]] = []

        def frames() -> Any:
            chunk: list[Request] = []
            windows = 0
            for request in requests:
                size = wirebin.request_windows(request)
                if chunk and (
                    type(request) is not type(chunk[0])
                    or windows + size > chunk_windows
                ):
                    yield self._encode_stream_chunk(chunk, expected)
                    chunk, windows = [], 0
                chunk.append(request)
                windows += size
            if chunk:
                yield self._encode_stream_chunk(chunk, expected)

        data, response_type = self._exchange(
            "POST",
            V2_REQUESTS_PATH,
            content_type=wirebin.CONTENT_TYPE,
            stream=frames(),
        )
        return self._decode_binary_reply(data, response_type, expected)

    def _encode_stream_chunk(
        self, chunk: list[Request], expected: list[tuple[str, int]]
    ) -> bytes:
        op = wirebin.batch_op(chunk)
        if op is None:
            raise ValueError(
                "stream chunk is not frame-encodable (mixed or empty "
                "requests, non-uniform schema); submit such batches through "
                "submit_many, which falls back to the JSON codec"
            )
        frame_id = wirebin.new_frame_id()
        expected.append((frame_id, len(chunk)))
        return wirebin.encode_request_frame(
            chunk, api_key=self.api_key, frame_id=frame_id, op=op
        )

    def _decode_binary_reply(
        self,
        data: bytes,
        response_type: str,
        expected: list[tuple[str, int]],
    ) -> list[Response]:
        """Decode response frames, verifying echoed frame ids and counts.

        Raises
        ------
        ValueError
            If the server's answer is not the expected frame sequence (a
            JSON answer means the transport rejected the frame itself —
            its typed message is surfaced).
        PermissionError
            If a frame was denied (same contract as the JSON v2 surface).
        """
        media_type = (response_type or "").split(";", 1)[0].strip().lower()
        if media_type != wirebin.CONTENT_TYPE:
            # The transport answered JSON: the frame never dispatched
            # (corrupt frame, wrong endpoint, server fault).
            try:
                response = loads_response(data.decode("utf-8"))
            except Exception:
                raise ValueError(
                    "expected a binary response frame, got an unreadable "
                    f"{media_type or 'untyped'} answer"
                ) from None
            message = getattr(response, "message", None)
            raise ValueError(
                f"binary frame rejected by the transport: {message or response}"
            )
        frames = wirebin.decode_response_frames(data)
        responses: list[Response] = []
        position = 0
        for frame in frames:
            if frame.error is not None:
                # The server tore mid-stream AFTER the preceding frames
                # executed (possibly non-idempotent operations); surface
                # exactly how far it got so the caller can reconcile
                # instead of blindly re-submitting everything.
                raise ValueError(
                    f"stream aborted by the server after {position} of "
                    f"{len(expected)} frames executed: {frame.error.message}"
                )
            if position >= len(expected):
                raise ValueError(
                    f"server answered more than the {len(expected)} frames sent"
                )
            frame_id, count = expected[position]
            if frame.frame_id != frame_id:
                raise ValueError(
                    f"response frame echoes frame_id {frame.frame_id!r}, "
                    f"expected {frame_id!r}"
                )
            if frame.n_requests != count:
                raise ValueError(
                    f"response frame answers {frame.n_requests} requests, "
                    f"expected {count}"
                )
            responses.extend(frame.to_responses())
            position += 1
        if position != len(expected):
            raise ValueError(
                f"expected {len(expected)} response frames, got {position}"
            )
        return responses

    def health(self) -> dict[str, Any]:
        """The server's ``/healthz`` payload."""
        return json.loads(self._roundtrip("GET", HEALTH_PATH))

    def metrics(self) -> dict[str, Any]:
        """The server's ``/metrics`` telemetry snapshot."""
        return serialization.loads(self._roundtrip("GET", METRICS_PATH))

    def metrics_text(self) -> str:
        """The server's ``/metrics`` in Prometheus text exposition format."""
        data, _ = self._exchange(
            "GET", METRICS_PATH, headers={"Accept": "text/plain"}
        )
        return data.decode("utf-8")


# --------------------------------------------------------------------- #
# command line
# --------------------------------------------------------------------- #


def _build_demo_frontend(n_users: int, seed: int) -> ServiceFrontend:
    """A frontend whose gateway serves a freshly enrolled synthetic fleet."""
    from repro.service.fleet import FleetConfig, FleetSimulator

    simulator = FleetSimulator(FleetConfig(n_users=n_users, seed=seed))
    simulator.build_users()
    simulator.enroll_fleet()
    return simulator.frontend


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: serve a frontend over HTTP until interrupted."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.transport",
        description="Serve the authentication service protocol over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8414, help="TCP port (0 = pick free)")
    parser.add_argument(
        "--registry-root",
        default=None,
        help="directory of a persisted ModelRegistry to load and serve",
    )
    parser.add_argument(
        "--demo-fleet",
        type=int,
        default=0,
        metavar="N",
        help="pre-enroll N synthetic fleet users (feature columns f00..f11) "
        "so clients can authenticate immediately",
    )
    parser.add_argument("--seed", type=int, default=7, help="demo-fleet seed")
    parser.add_argument(
        "--max-batch", type=int, default=256, help="micro-batch queue slice size"
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=1024,
        help="admission-control bound on pending requests (0 = unbounded)",
    )
    parser.add_argument(
        "--max-batch-items",
        type=int,
        default=4096,
        help="admission bound on batch-array POST length (0 = unbounded)",
    )
    parser.add_argument(
        "--no-queue",
        action="store_true",
        help="dispatch single requests synchronously instead of micro-batching",
    )
    parser.add_argument(
        "--caller-id",
        default="operator",
        help="caller id provisioned at startup for the v2 API (its key is "
        "printed once)",
    )
    parser.add_argument(
        "--caller-scopes",
        default="data:write,admin",
        help="comma-separated scopes of the provisioned caller "
        "(subset of: data:write, admin)",
    )
    parser.add_argument(
        "--caller-rate",
        type=float,
        default=0.0,
        help="per-second request quota of the provisioned caller "
        "(token bucket; 0 = unlimited)",
    )
    parser.add_argument(
        "--caller-burst",
        type=float,
        default=0.0,
        help="token-bucket burst of the provisioned caller "
        "(0 = same as --caller-rate); size it above the largest batch",
    )
    parser.add_argument(
        "--trace-sample-rate",
        type=float,
        default=0.0,
        metavar="RATE",
        help="fraction of requests to trace end-to-end, 0..1 (0 disables "
        "tracing entirely; client-supplied X-Trace-Id is always traced)",
    )
    parser.add_argument(
        "--slow-request-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="log a WARNING with the per-stage breakdown for any traced "
        "request slower than MS milliseconds (0 disables)",
    )
    parser.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="append every exported trace event as one JSON line to PATH "
        "(in addition to the in-memory ring)",
    )
    args = parser.parse_args(argv)

    if args.demo_fleet:
        print(f"enrolling a {args.demo_fleet}-user demo fleet...", flush=True)
        frontend = _build_demo_frontend(args.demo_fleet, args.seed)
    elif args.registry_root is not None:
        from repro.service.gateway import AuthenticationGateway
        from repro.service.registry import ModelRegistry

        registry = ModelRegistry(root=args.registry_root)
        loaded = registry.load()
        print(f"loaded {loaded} bundle(s) from {args.registry_root}", flush=True)
        frontend = ServiceFrontend(AuthenticationGateway(registry=registry))
    else:
        frontend = ServiceFrontend()

    queue = (
        None
        if args.no_queue
        else MicroBatchQueue(
            frontend,
            max_batch=args.max_batch,
            max_depth=args.max_depth or None,
        )
    )
    tracer = (
        Tracer(
            sample_rate=args.trace_sample_rate,
            jsonl_path=args.trace_jsonl,
            slow_request_ms=args.slow_request_ms or None,
            telemetry=frontend.telemetry,
        )
        if args.trace_sample_rate > 0.0 or args.trace_jsonl
        else None
    )
    with ServiceHTTPServer(
        frontend,
        host=args.host,
        port=args.port,
        queue=queue,
        max_batch_items=args.max_batch_items or None,
        tracer=tracer,
    ) as server:
        scopes = tuple(
            scope.strip() for scope in args.caller_scopes.split(",") if scope.strip()
        )
        api_key = server.callers.register(args.caller_id, scopes)
        if args.caller_rate:
            server.callers.set_rate_limit(
                args.caller_id, args.caller_rate, args.caller_burst or None
            )
        print(
            f"serving {REQUESTS_PATH} (legacy), {V2_REQUESTS_PATH} and "
            f"{V2_ADMIN_PATH} on http://{args.host}:{server.port} "
            f"(healthz: {HEALTH_PATH}, metrics: {METRICS_PATH}); Ctrl-C stops",
            flush=True,
        )
        print(
            f"v2 caller {args.caller_id!r} (scopes: {', '.join(scopes)}) "
            f"API key: {api_key}",
            flush=True,
        )
        stop = threading.Event()

        def _graceful(signum: int, frame: Any) -> None:
            stop.set()

        # SIGTERM and SIGINT both request a graceful stop: the with-block
        # exit below drains in-flight requests (``server_close`` joins the
        # handler threads), which finishes their traces — and the tracer's
        # JSONL sink writes synchronously per event, so every trace of a
        # served request is on disk before the process exits.
        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)
        try:
            stop.wait()
        except KeyboardInterrupt:
            pass
        print("\nshutting down (draining in-flight requests)...", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
