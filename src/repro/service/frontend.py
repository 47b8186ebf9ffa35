"""Micro-batching service frontend: the typed front door of the fleet API.

The :class:`ServiceFrontend` accepts :mod:`repro.service.protocol` requests
and wraps every dispatch in middleware:

* **validation** — only protocol request types are routed;
* **telemetry** — per-kind latency timers and request/error counters;
* **error mapping** — exceptions become typed
  :class:`~repro.service.protocol.ErrorResponse`\\ s instead of propagating,
  so one bad request in a batch never poisons its neighbours;
* **per-user serialization** — requests touching the same user are applied
  under that user's lock, keeping read-modify-write operations (enroll,
  drift retrain) safe under concurrent submission.

Its distinguishing feature is **micro-batching**: every authenticate
dispatch runs through ONE columnar pass.  A binary frame arrives as
:class:`~repro.service.protocol.AuthenticateColumns` already
(:meth:`ServiceFrontend.submit_columns`); a run of consecutive
:class:`~repro.service.protocol.AuthenticateRequest`\\ s in one
:meth:`ServiceFrontend.submit_many` call is stacked into the same shape.
The pass labels the windows of requests that reported no contexts in one
vectorized detector call, scores the whole block in a single
:func:`~repro.core.scoring.score_stacked` projection for affine models (the
paper's kernel-ridge configuration), and object requests get their
responses fanned back out in request order with
:meth:`~repro.service.protocol.ColumnarAuthResult.responses`.

The pass reads every served model through the frontend's serving table,
rebuilt only when the registry's generation moves (see
:class:`ServiceFrontend`).

:class:`MicroBatchQueue` adds the asynchronous variant: concurrent callers
enqueue single requests and receive futures, while a background worker
drains the queue into coalesced ``submit_many`` batches.  Its admission
control bounds the pending-request depth, rejecting (with a typed
:class:`~repro.service.protocol.ThrottledResponse`) or blocking — the
``overflow`` policy — once the bound is hit, and records every request's
time-in-queue.
"""

from __future__ import annotations

import queue
import threading
import weakref
from concurrent.futures import Future
from itertools import count, repeat
from time import monotonic, perf_counter
from typing import Sequence

import numpy as np

from repro.core.scoring import (
    ServingTable,
    encode_contexts,
    offsets_from_lengths,
    score_stacked,
)
from repro.service.gateway import AuthenticationGateway, PlaneMismatchError
from repro.service.protocol import (
    AuthenticateColumns,
    AuthenticateRequest,
    ColumnarAuthResult,
    ErrorResponse,
    Request,
    Response,
    ThrottledResponse,
    is_control_plane,
    is_data_plane,
    request_kind,
)
from repro.service.telemetry import TelemetryHub
from repro.service.tracing import SPAN_FUSED_PASS, SPAN_QUEUE_WAIT


class ServiceFrontend:
    """Validates, routes and micro-batches protocol requests to a gateway.

    Every authenticate pass reads its models through one **serving table**
    (:class:`~repro.core.scoring.ServingTable`): every registry user's
    newest active version, with its fused parameter rows, built on the
    first pass after the registry's generation or the gateway's
    ``use_context`` moves and checked under the pass's user locks.  A pass
    resolves each request to its row with one dict lookup; a pinned
    version's row is appended on first use, never by a rebuild, and a user
    the table does not know is resolved through
    :meth:`~repro.service.gateway.AuthenticationGateway.scorer_for`, whose
    error answers that request alone.  Each build also keeps the registry
    users' per-user locks alive, so frames reuse them.

    Parameters
    ----------
    gateway:
        Optional pre-configured backend gateway (a fresh one is created
        when omitted).
    telemetry:
        Optional telemetry hub for frontend metrics; defaults to the
        gateway's hub so frontend and backend metrics land in one snapshot.

    Attributes
    ----------
    table_hits, table_misses:
        Authenticate passes served by the current serving table, and
        serving-table builds (the ``frontend.stack_cache.hits`` /
        ``.misses`` counters count the same events).
    """

    def __init__(
        self,
        gateway: AuthenticationGateway | None = None,
        telemetry: TelemetryHub | None = None,
    ) -> None:
        self.gateway = gateway if gateway is not None else AuthenticationGateway()
        self.telemetry = telemetry if telemetry is not None else self.gateway.telemetry
        # The serving table and the (registry generation, use_context) it
        # was built for; built, validated and extended under _table_lock.
        self._table: ServingTable | None = None
        self._table_key: tuple[int, bool] | None = None
        self._table_lock = threading.Lock()
        self.table_hits = 0
        self.table_misses = 0
        # Set by the transport / fleet when request tracing is enabled;
        # ``None`` keeps the scoring hot path byte-identical to untraced.
        self.tracer = None
        # Monotonic flush ids tag which coalesced pass served each traced
        # request (batch-membership attribution across concurrent flushes).
        self._flush_ids = count(1)
        # Weak-valued, so the table stays bounded by *in-flight* users
        # rather than growing one entry per user id ever seen (including
        # attacker-controlled ids that only ever produce ErrorResponses):
        # callers hold a strong reference to their lock for the duration of
        # a dispatch, so concurrent requests for one user still share one
        # lock, and entries vanish once no request is using them.
        self._locks: "weakref.WeakValueDictionary[str, threading.Lock]" = (
            weakref.WeakValueDictionary()
        )
        self._locks_guard = threading.Lock()
        # Strong references to the locks of the serving table's users,
        # replaced with each build: frames for registry users reuse their
        # lock objects instead of allocating one per request.  Unknown
        # (possibly attacker-chosen) ids never get one.
        self._user_locks: dict[str, threading.Lock] = {}

    # ------------------------------------------------------------------ #
    # middleware plumbing
    # ------------------------------------------------------------------ #

    def _lock_for(self, user_id: str) -> threading.Lock:
        with self._locks_guard:
            lock = self._locks.get(user_id)
            if lock is None:
                lock = threading.Lock()
                self._locks[user_id] = lock
            return lock

    def _serving_table(self) -> tuple[ServingTable, bool]:
        """The serving table for the current registry state, and whether
        this call built it.

        Rebuilt when the registry's generation or the gateway's
        ``use_context`` moved since the last build; the new table serves
        every registry user's newest active version, keyed
        ``(user_id, None)``.  The caller holds ``_table_lock``.
        """
        gateway = self.gateway
        # Read before building: a publish racing the build leaves a stale
        # key behind, so the next pass rebuilds rather than missing it.
        key = (gateway.registry.generation, gateway.use_context)
        if self._table is not None and self._table_key == key:
            return self._table, False
        users, scorers = [], []
        for user in gateway.registry.users():
            try:
                scorers.append(gateway.scorer_for(user))
            except Exception:
                # E.g. every version retired: left out, so each of its
                # requests meets the same error alone on a table miss.
                continue
            users.append(user)
        table = ServingTable(scorers)
        table.rows = {
            (user, None): table.add(scorer) for user, scorer in zip(users, scorers)
        }
        self._user_locks = {user: self._lock_for(user) for user in users}
        self._table, self._table_key = table, key
        return table, True

    def _error(self, kind: str, error: Exception, user_id: str | None) -> ErrorResponse:
        self.telemetry.increment("frontend.errors")
        return ErrorResponse(
            request_kind=kind,
            error=type(error).__name__,
            message=str(error),
            user_id=user_id,
        )

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #

    def submit(self, request: Request) -> Response:
        """Dispatch one protocol request through the full middleware stack.

        Returns
        -------
        Response
            The request's typed response; backend failures come back as
            :class:`~repro.service.protocol.ErrorResponse`, they do not
            raise.

        Raises
        ------
        TypeError
            If *request* is not a protocol request.
        """
        return self.submit_many([request])[0]

    def submit_control(self, request: Request) -> Response:
        """Dispatch one control-plane request through the middleware stack.

        The admin door: same telemetry / error-mapping / per-user-lock
        middleware as :meth:`submit`, but restricted to the control plane's
        typed request set — the v2 admin endpoint dispatches through here,
        so a data-plane operation can never ride in on it.

        Raises
        ------
        PlaneMismatchError
            If *request* is a data-plane operation.
        TypeError
            If *request* is not a protocol request.
        """
        if not is_control_plane(request):
            request_kind(request)  # raises TypeError on non-protocol input
            raise PlaneMismatchError(request, plane="control", expected="data")
        return self._submit_one(request)

    def submit_many(self, requests: Sequence[Request]) -> list[Response]:
        """Dispatch a batch of requests, coalescing authenticate runs.

        Requests are applied in order; every maximal run of consecutive
        :class:`AuthenticateRequest`\\ s is scored in one coalesced
        vectorized pass.  Each request independently maps to its response
        (or :class:`ErrorResponse`), in the same order as submitted.

        Raises
        ------
        TypeError
            If any entry is not a protocol request (checked up front, so a
            bad entry never fails its neighbours mid-batch).
        """
        for request in requests:
            request_kind(request)  # raises TypeError on non-protocol input
        responses: list[Response | None] = [None] * len(requests)
        index = 0
        while index < len(requests):
            if isinstance(requests[index], AuthenticateRequest):
                end = index
                while end < len(requests) and isinstance(
                    requests[end], AuthenticateRequest
                ):
                    end += 1
                responses[index:end] = self._authenticate_run(
                    requests[index:end]  # type: ignore[arg-type]
                )
                index = end
            else:
                responses[index] = self._submit_one(requests[index])
                index += 1
        return responses  # type: ignore[return-value]

    def _submit_one(self, request: Request) -> Response:
        kind = request_kind(request)
        user_id = getattr(request, "user_id", None)
        self.telemetry.increment("frontend.requests")
        with self.telemetry.timer(f"frontend.{kind}"):
            try:
                if user_id is not None:
                    with self._lock_for(user_id):
                        return self.gateway.handle(request)
                return self.gateway.handle(request)
            except Exception as error:
                return self._error(kind, error, user_id)

    # ------------------------------------------------------------------ #
    # the authenticate pass: one columnar path behind both doors
    # ------------------------------------------------------------------ #

    def submit_columns(self, columns: AuthenticateColumns) -> ColumnarAuthResult:
        """Dispatch a columnar authenticate batch through the middleware stack.

        The binary frame's door into the authenticate pass that
        :meth:`submit_many` runs its authenticate requests through too:
        same telemetry, same per-user locks, same error isolation (a
        request that cannot be served answers a typed
        :class:`~repro.service.protocol.ErrorResponse` in the result's
        sparse error map without costing its neighbours).  The feature
        block travels straight from the wire decode into the fused scoring
        pass (:func:`~repro.core.scoring.score_stacked`) with no
        per-request protocol objects anywhere; a batch without context
        codes has every window's context detected server-side.

        Raises
        ------
        TypeError
            If *columns* is not an
            :class:`~repro.service.protocol.AuthenticateColumns`.
        """
        if not isinstance(columns, AuthenticateColumns):
            raise TypeError(
                f"submit_columns expects AuthenticateColumns, got "
                f"{type(columns).__name__}"
            )
        # The batch was rebuilt from wire bytes, so its trace (if any)
        # travels as an id field rather than an object binding.
        tracer = self.tracer
        trace = tracer.lookup(columns.trace_id) if tracer is not None else None
        detect = np.full(columns.n_requests, columns.context_codes is None)
        traces = [] if trace is None else [trace]
        return self._authenticate([(columns, detect, traces)])[0]

    def _authenticate_run(self, batch: Sequence[AuthenticateRequest]) -> list[Response]:
        """Score a run of authenticate requests through the columnar pass.

        The run is stacked into :class:`AuthenticateColumns` and the
        responses fan back out in request order.  Only malformed input
        mixes feature widths in one run; such a run stacks one block per
        width, so every request still answers its own typed response.  A
        zero-window request has no width of its own and rides in the
        run's first block.  Object requests carry traces by identity
        binding (they cross the micro-batch queue as the same frozen
        object).
        """
        first_width = next(
            (request.features.shape[1] for request in batch if len(request.features)),
            0,
        )
        members_by_width: dict[int, list[int]] = {}
        for index, request in enumerate(batch):
            width = request.features.shape[1] if len(request.features) else first_width
            members_by_width.setdefault(width, []).append(index)
        tracer = self.tracer
        blocks = []
        for width, members in members_by_width.items():
            requests = [batch[index] for index in members]
            detect = np.array([request.contexts is None for request in requests])
            # Rows still to be detected hold placeholder codes until the
            # pass labels them.
            codes = None if detect.all() else np.concatenate(
                [
                    np.zeros(len(request.features), dtype=np.int8)
                    if request.contexts is None
                    else request.context_codes
                    for request in requests
                ]
            )
            columns = AuthenticateColumns(
                user_ids=tuple(request.user_id for request in requests),
                features=np.concatenate(
                    [
                        request.features.reshape(len(request.features), width)
                        for request in requests
                    ]
                ),
                lengths=[len(request.features) for request in requests],
                context_codes=codes,
                versions=tuple(request.version for request in requests),
            )
            traces = (
                []
                if tracer is None
                else [
                    trace
                    for trace in map(tracer.trace_for, requests)
                    if trace is not None
                ]
            )
            blocks.append((columns, detect, traces))
        responses: list[Response | None] = [None] * len(batch)
        results = self._authenticate(blocks)
        for members, result in zip(members_by_width.values(), results):
            for index, response in zip(members, result.responses()):
                responses[index] = response
        return responses  # type: ignore[return-value]

    def _authenticate(
        self, blocks: list[tuple[AuthenticateColumns, np.ndarray, list]]
    ) -> list[ColumnarAuthResult]:
        """Score columnar blocks under one counter, timer and set of user locks."""
        self.telemetry.increment(
            "frontend.requests", sum(columns.n_requests for columns, _, _ in blocks)
        )
        with self.telemetry.timer("frontend.authenticate"):
            users = set().union(*(columns.user_ids for columns, _, _ in blocks))
            held = self._user_locks
            locks = [held.get(user) or self._lock_for(user) for user in sorted(users)]
            for lock in locks:
                lock.acquire()
            try:
                return [self._score_columns(*block) for block in blocks]
            finally:
                for lock in reversed(locks):
                    lock.release()

    def _score_columns(
        self, columns: AuthenticateColumns, detect: np.ndarray, traces: list
    ) -> ColumnarAuthResult:
        """The authenticate pass over one columnar block.

        *detect* flags the requests that reported no contexts; *traces*
        each receive the pass's ``fused_pass`` span.
        """
        n_requests = columns.n_requests
        user_ids = columns.user_ids
        lengths = columns.lengths
        offsets = offsets_from_lengths(lengths)
        errors: dict[int, ErrorResponse] = {}

        # 1. Context detection over the rows of every request that reported
        #    none, in ONE vectorized pass; if the shared pass fails, fall
        #    back per request (on block slices) so only the offending
        #    requests are rejected.
        codes = columns.context_codes
        if detect.any():
            try:
                if detect.all():
                    codes = self.gateway.detect_context_codes(columns.features)
                else:
                    detected = np.repeat(detect, lengths)
                    codes = codes.copy()
                    codes[detected] = self.gateway.detect_context_codes(
                        columns.features[detected]
                    )
            except Exception:
                codes = (
                    np.zeros(columns.n_windows, dtype=np.int8)
                    if columns.context_codes is None
                    else columns.context_codes.copy()
                )
                for index in np.flatnonzero(detect).tolist():
                    start, stop = int(offsets[index]), int(offsets[index + 1])
                    try:
                        codes[start:stop] = self.gateway.detect_context_codes(
                            columns.features[start:stop]
                        )
                    except Exception as error:
                        errors[index] = self._error(
                            "authenticate", error, user_ids[index]
                        )

        # 2. Look up each surviving request's row in the serving table,
        #    validated here, under the pass's user locks, so no user of the
        #    pass can publish before it is scored.  A request the table has
        #    no row for (a pinned version's first use, an unknown user)
        #    resolves through the gateway: a new row is appended, or the
        #    KeyError rejects that request alone.
        keys = list(zip(user_ids, columns.versions or repeat(None, n_requests)))
        with self._table_lock:
            table, built = self._serving_table()
            rows = list(map(table.rows.get, keys))
            if None in rows:
                for index, key in enumerate(keys):
                    if rows[index] is not None or index in errors:
                        continue
                    try:
                        row = table.add(self.gateway.scorer_for(*key))
                    except Exception as error:
                        errors[index] = self._error("authenticate", error, key[0])
                        continue
                    rows[index] = table.rows[key] = row
            cache_hits, cache_misses = int(not built), int(built)
            self.table_hits += cache_hits
            self.table_misses += cache_misses
        self.telemetry.increment("frontend.stack_cache.hits", cache_hits)
        self.telemetry.increment("frontend.stack_cache.misses", cache_misses)

        scored_lengths = np.zeros(n_requests, dtype=np.intp)
        model_versions = np.zeros(n_requests, dtype=np.int64)
        if len(errors) == n_requests:
            return ColumnarAuthResult(
                user_ids=user_ids,
                scores=np.empty(0),
                accepted=np.empty(0, dtype=bool),
                model_context_codes=np.empty(0, dtype=np.int8),
                lengths=scored_lengths,
                model_versions=model_versions,
                errors=errors,
            )

        if not errors:
            # The hot common case: every request survives, so the wire
            # block feeds the fused pass as-is — zero copies.
            live = list(range(n_requests))
            stacked, live_lengths, live_codes = columns.features, lengths, codes
        else:
            live = [index for index in range(n_requests) if index not in errors]
            rows = [rows[index] for index in live]
            keep = np.zeros(columns.n_windows, dtype=bool)
            for index in live:
                keep[offsets[index] : offsets[index + 1]] = True
            stacked = columns.features[keep]
            live_lengths = lengths[live]
            live_codes = codes[keep]

        # 3. One coalesced scoring pass over every surviving request; if
        #    the shared pass fails (e.g. one request's rows do not match
        #    its model's width), score each request individually so one
        #    bad request cannot poison its neighbours.
        fused_started = perf_counter() if traces else 0.0
        fused = True
        try:
            with self.telemetry.timer("authenticate"):
                stacked_result = score_stacked(
                    table, rows, stacked, live_lengths, live_codes
                )
        except Exception:
            fused = False
            kept = []
            live_offsets = offsets_from_lengths(live_lengths)
            for position, index in enumerate(live):
                start, stop = live_offsets[position], live_offsets[position + 1]
                try:
                    with self.telemetry.timer("authenticate"):
                        result = table.scorer(rows[position]).score(
                            stacked[start:stop], live_codes[start:stop]
                        )
                except Exception as error:
                    errors[index] = self._error("authenticate", error, user_ids[index])
                    continue
                kept.append(result)
                scored_lengths[index] = len(result)
                model_versions[index] = result.model_version
            scores = np.concatenate([r.scores for r in kept] or [np.empty(0)])
            accepted = np.concatenate(
                [r.accepted for r in kept] or [np.empty(0, dtype=bool)]
            )
            model_codes = encode_contexts(
                [context for r in kept for context in r.model_contexts]
            )
        else:
            scores = stacked_result.scores
            accepted = stacked_result.accepted
            model_codes = stacked_result.model_context_codes
            scored_lengths[live] = live_lengths
            model_versions[live] = stacked_result.model_versions
            self.telemetry.increment("frontend.coalesced_batches")
            self.telemetry.increment("frontend.coalesced_windows", len(scores))
        if traces:
            fused_s = perf_counter() - fused_started
            flush_id = next(self._flush_ids)
            for trace in traces:
                trace.add_span(
                    SPAN_FUSED_PASS,
                    fused_s,
                    flush_id=flush_id,
                    batch_size=len(live),
                    windows=int(len(scores)),
                    coalesced=fused,
                    cache_hits=cache_hits,
                    cache_misses=cache_misses,
                )
        self.gateway.record_decision_counts(
            len(scores), int(np.count_nonzero(accepted))
        )
        return ColumnarAuthResult(
            user_ids=user_ids,
            scores=scores,
            accepted=accepted,
            model_context_codes=model_codes,
            lengths=scored_lengths,
            model_versions=model_versions,
            errors=errors,
        )


# --------------------------------------------------------------------- #
# asynchronous micro-batching queue
# --------------------------------------------------------------------- #

_SENTINEL = object()


class MicroBatchQueue:
    """Coalesces concurrently submitted requests into frontend batches.

    Callers :meth:`submit` individual protocol requests and receive
    :class:`~concurrent.futures.Future`\\ s; a background worker drains the
    queue — waiting at most ``max_delay_s`` after the first pending request
    and taking at most ``max_batch`` requests — and dispatches each slice
    through :meth:`ServiceFrontend.submit_many`, where consecutive
    authenticate requests coalesce into single vectorized passes.

    **Admission control.**  ``max_depth`` bounds how many accepted requests
    may be pending at once; without it a slow backend lets callers enqueue
    unbounded work (and memory).  When the bound is hit, the ``overflow``
    policy decides what a new submission does:

    * ``"reject"`` (default) — the returned future resolves immediately to
      a typed :class:`~repro.service.protocol.ThrottledResponse` carrying
      the queue state and a retry hint; nothing is enqueued.
    * ``"block"`` — the submitting thread waits until the worker drains a
      slot (or the queue stops, which raises ``RuntimeError``), applying
      backpressure to the caller instead of the queue.

    Every dispatched request's time-in-queue lands in the frontend
    telemetry's ``frontend.queue_wait`` latency recorder; rejections count
    in the ``frontend.throttled`` counter.

    Use as a context manager, or call :meth:`start`/:meth:`stop`.

    Parameters
    ----------
    frontend:
        The frontend whose :meth:`~ServiceFrontend.submit_many` dispatches
        each drained slice (and whose telemetry hub records queue metrics).
    max_batch:
        Most requests dispatched in one slice (>= 1).
    max_delay_s:
        Longest the worker waits after the first pending request before
        dispatching a partial slice (>= 0).
    max_depth:
        Bound on pending (accepted but not yet dispatched) requests;
        ``None`` (default) keeps the queue unbounded.
    overflow:
        ``"reject"`` or ``"block"`` — what :meth:`submit` does when
        ``max_depth`` pending requests already wait.

    Raises
    ------
    ValueError
        If any knob is out of range or ``overflow`` names no policy.
    """

    #: Valid ``overflow`` policies.
    OVERFLOW_POLICIES = ("reject", "block")

    def __init__(
        self,
        frontend: ServiceFrontend,
        max_batch: int = 256,
        max_delay_s: float = 0.005,
        max_depth: int | None = None,
        overflow: str = "reject",
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_s < 0.0:
            raise ValueError(f"max_delay_s must be >= 0, got {max_delay_s}")
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1 (or None), got {max_depth}")
        if overflow not in self.OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow must be one of {self.OVERFLOW_POLICIES}, got {overflow!r}"
            )
        self.frontend = frontend
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.max_depth = max_depth
        self.overflow = overflow
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._worker: threading.Thread | None = None
        # submit() enqueues under this lock and stop() flips _closed under
        # it before posting the sentinel, so every accepted request is
        # ordered ahead of the sentinel and gets processed — a concurrent
        # submit/stop race can never strand a future unresolved.
        self._submit_guard = threading.Lock()
        # Pending-request count, guarded by its own condition: the worker
        # decrements (and wakes blocked submitters) without ever touching
        # the submit guard, which stop() holds while joining the worker.
        self._depth_cond = threading.Condition()
        self._depth = 0
        self._closed = True

    @property
    def depth(self) -> int:
        """Accepted requests still waiting to be dispatched."""
        with self._depth_cond:
            return self._depth

    # ------------------------------------------------------------------ #

    def start(self) -> "MicroBatchQueue":
        """Start the background batching worker (idempotent).

        Runs entirely under the submit guard, so concurrent start/stop
        calls serialize: a start can neither observe a worker that a
        racing stop is about to join (and wrongly report a dead queue as
        running) nor double-spawn workers.
        """
        with self._submit_guard:
            if self._worker is None or not self._worker.is_alive():
                self._worker = threading.Thread(
                    target=self._run, name="micro-batch-queue", daemon=True
                )
                self._closed = False
                self._worker.start()
        return self

    def stop(self) -> None:
        """Drain pending requests and stop the worker.

        Also serialized under the submit guard; the worker never takes the
        guard, so joining it while holding the guard cannot deadlock.
        """
        with self._submit_guard:
            worker = self._worker
            if worker is not None and worker.is_alive():
                if not self._closed:
                    self._closed = True
                    self._queue.put(_SENTINEL)
                # Submitters blocked on a full queue must observe the close
                # and bail out instead of waiting for capacity forever.
                with self._depth_cond:
                    self._depth_cond.notify_all()
                worker.join()
            self._closed = True
            self._worker = None

    def __enter__(self) -> "MicroBatchQueue":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #

    def submit(self, request: Request) -> "Future[Response]":
        """Enqueue one request; the future resolves to its response.

        Non-protocol objects are rejected here, synchronously, so an
        invalid submission can never reach a batch slice and fail its
        neighbours' futures.  When ``max_depth`` pending requests already
        wait, the configured ``overflow`` policy applies: ``"reject"``
        resolves the returned future immediately to a
        :class:`~repro.service.protocol.ThrottledResponse`, ``"block"``
        waits for a free slot.

        Returns
        -------
        concurrent.futures.Future
            Resolves to the request's protocol response (which may be a
            :class:`~repro.service.protocol.ThrottledResponse` under the
            reject policy).

        Raises
        ------
        TypeError
            If *request* is not a protocol request, or is a control-plane
            operation — the queue admits only the hot data path (enroll /
            authenticate / drift-report); admin operations dispatch through
            :meth:`ServiceFrontend.submit_control`.
        RuntimeError
            If the queue is not running, or stops while this submission is
            blocked waiting for capacity.
        """
        kind = request_kind(request)  # raises TypeError on non-protocol input
        if not is_data_plane(request):
            raise TypeError(
                f"the micro-batch queue admits only data-plane requests "
                f"(enroll / authenticate / drift-report); {kind!r} is a "
                "control-plane operation — dispatch it through "
                "ServiceFrontend.submit_control()"
            )
        while True:
            with self._submit_guard:
                if self._closed or self._worker is None or not self._worker.is_alive():
                    raise RuntimeError(
                        "MicroBatchQueue is not running; call start() first"
                    )
                with self._depth_cond:
                    if self.max_depth is None or self._depth < self.max_depth:
                        self._depth += 1
                        future: "Future[Response]" = Future()
                        self._queue.put((request, future, monotonic()))
                        return future
                    if self.overflow == "reject":
                        self.frontend.telemetry.increment("frontend.throttled")
                        throttled: "Future[Response]" = Future()
                        throttled.set_result(
                            ThrottledResponse(
                                request_kind=kind,
                                reason="queue-full",
                                queue_depth=self._depth,
                                max_depth=self.max_depth,
                                retry_after_s=self.max_delay_s,
                                user_id=getattr(request, "user_id", None),
                            )
                        )
                        return throttled
            # Block policy: wait for capacity OUTSIDE the submit guard so a
            # concurrent stop() (which holds the guard while joining the
            # worker) can still proceed and wake us up to fail cleanly.
            with self._depth_cond:
                self._depth_cond.wait_for(
                    lambda: self._closed
                    or self.max_depth is None
                    or self._depth < self.max_depth
                )

    def _release_slot(self) -> None:
        """Free one depth slot and wake a submitter blocked on capacity."""
        with self._depth_cond:
            self._depth -= 1
            self._depth_cond.notify()

    def _run(self) -> None:
        stopping = False
        while not stopping:
            item = self._queue.get()
            if item is _SENTINEL:
                break
            self._release_slot()
            pending = [item]
            deadline = monotonic() + self.max_delay_s
            while len(pending) < self.max_batch:
                remaining = deadline - monotonic()
                if remaining <= 0.0:
                    break
                try:
                    item = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if item is _SENTINEL:
                    stopping = True
                    break
                self._release_slot()
                pending.append(item)
            # Claim every future before dispatching: one that was cancelled
            # while pending is dropped here, and can no longer be cancelled
            # mid-dispatch — so the set_result below cannot raise and kill
            # the worker, stranding the other futures in the slice.
            claimed = [
                (request, future, enqueued_at)
                for request, future, enqueued_at in pending
                if future.set_running_or_notify_cancel()
            ]
            if not claimed:
                continue
            drained_at = monotonic()
            tracer = self.frontend.tracer
            for request, _, enqueued_at in claimed:
                wait_s = drained_at - enqueued_at
                self.frontend.telemetry.record("frontend.queue_wait", wait_s)
                if tracer is not None:
                    trace = tracer.trace_for(request)
                    if trace is not None:
                        trace.add_span(
                            SPAN_QUEUE_WAIT, wait_s, batch_size=len(claimed)
                        )
            try:
                responses = self.frontend.submit_many(
                    [request for request, _, _ in claimed]
                )
            except Exception as error:  # defensive: submit_many maps errors
                for _, future, _ in claimed:
                    future.set_exception(error)
            else:
                for (_, future, _), response in zip(claimed, responses):
                    future.set_result(response)
