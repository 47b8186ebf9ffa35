"""Versioned request envelopes and authenticated callers (the v2 API).

The v1 protocol authenticates *users* (that is the paper's whole point) but
not *callers*: anyone who can reach the socket can enroll, roll back or
retrain anyone.  The v2 API wraps every protocol request in a frozen
:class:`Envelope` carrying:

* ``api_version`` — the protocol revision the caller speaks;
* ``request_id`` — echoed on the response, so concurrent callers can
  correlate answers (and retries can be detected in logs);
* ``idempotency_key`` — optional; two envelopes from one caller sharing a
  key execute the operation once, the second receives the recorded
  response (``replayed=True``), which makes non-idempotent operations
  (enroll, drift retrain) safe to retry over a flaky transport;
* ``api_key`` — the caller credential a :class:`CallerRegistry` authorizes
  against per-caller *scopes*.

Two scopes split the API into the planes production serving systems use:
``data:write`` admits the hot device path (enroll / authenticate /
drift-report — the :class:`~repro.service.gateway.DataPlane`), ``admin``
admits the rare operator path (rollback / snapshot / eviction / detector
training — the :class:`~repro.service.gateway.ControlPlane`).  The
:class:`EnvelopeProcessor` authorizes every envelope *before* dispatch: a
missing, unknown or under-scoped key yields a typed :class:`DeniedResponse`
(mapped to HTTP 401/403 by the transport) and the wrapped request never
reaches the gateway.

:class:`EnvelopeChannel` adapts a processor to the
:class:`~repro.service.fleet.RequestChannel` protocol, so the fleet
simulator (and any in-process caller) speaks v2 envelopes without a socket.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import threading
import uuid

try:  # POSIX advisory file locks back the cross-process quota store.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from time import monotonic, perf_counter
from typing import Any, Callable, Mapping, Sequence

from repro.service.frontend import ServiceFrontend
from repro.service.tracing import SPAN_ADMISSION, TraceContext
from repro.service.protocol import (
    ErrorResponse,
    Request,
    Response,
    ThrottledResponse,
    is_control_plane,
    is_data_plane,
    request_from_payload,
    request_kind,
    request_to_payload,
    response_from_payload,
    response_to_payload,
)
from repro.service.telemetry import TelemetryHub
from repro.utils import serialization

# --------------------------------------------------------------------- #
# scopes and typed error codes
# --------------------------------------------------------------------- #

#: The protocol revision this module implements.
API_VERSION = 2

#: Scope admitting the hot data plane (enroll / authenticate / drift).
SCOPE_DATA_WRITE = "data:write"

#: Scope admitting the control plane (rollback / snapshot / evict / train).
SCOPE_ADMIN = "admin"

#: Every scope the caller registry accepts.
KNOWN_SCOPES = frozenset({SCOPE_DATA_WRITE, SCOPE_ADMIN})

#: Typed caller-rejection codes (the transport maps them to HTTP statuses).
CODE_MISSING_KEY = "missing-api-key"
CODE_UNKNOWN_KEY = "unknown-api-key"
CODE_INSUFFICIENT_SCOPE = "insufficient-scope"
CODE_UNSUPPORTED_VERSION = "unsupported-api-version"
CODE_WRONG_PLANE = "wrong-plane"

#: HTTP status for each typed rejection code: missing/unknown credentials
#: are 401 (unauthenticated), a known caller without the required scope —
#: or on the wrong plane — is 403 (forbidden), an unsupported protocol
#: revision is the caller's own 400.
STATUS_BY_CODE = {
    CODE_MISSING_KEY: 401,
    CODE_UNKNOWN_KEY: 401,
    CODE_INSUFFICIENT_SCOPE: 403,
    CODE_WRONG_PLANE: 403,
    CODE_UNSUPPORTED_VERSION: 400,
}


def new_request_id() -> str:
    """A fresh unique request id (32 hex chars)."""
    return uuid.uuid4().hex


# --------------------------------------------------------------------- #
# envelope types
# --------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class Envelope:
    """One versioned, authenticated protocol request.

    ``eq=False`` because the wrapped request may hold NumPy arrays (see
    :class:`~repro.service.protocol.EnrollRequest`).

    Attributes
    ----------
    request:
        The wrapped :mod:`repro.service.protocol` request.
    api_key:
        Caller credential; ``None`` is rejected with a typed 401.
    request_id:
        Correlation id echoed by the response (generated when omitted).
    idempotency_key:
        Optional replay guard: envelopes from one caller sharing a key
        execute once.
    api_version:
        The protocol revision the caller speaks (currently only ``2``).
    trace_id:
        Optional client-supplied trace id: a caller that wants its request
        traced end-to-end supplies one here (or via the ``X-Trace-Id``
        header on HTTP) and gets it echoed on the sealed response.
    """

    request: Request
    api_key: str | None = None
    request_id: str = field(default_factory=new_request_id)
    idempotency_key: str | None = None
    api_version: int = API_VERSION
    trace_id: str | None = None

    def __post_init__(self) -> None:
        request_kind(self.request)  # raises TypeError on non-protocol input
        if not isinstance(self.request_id, str) or not self.request_id:
            raise ValueError(
                f"request_id must be a non-empty string, got {self.request_id!r}"
            )
        if not isinstance(self.api_version, int) or isinstance(self.api_version, bool):
            raise ValueError(
                f"api_version must be an int, got {self.api_version!r}"
            )


@dataclass(frozen=True)
class DeniedResponse:
    """A request rejected before dispatch: the caller was not authorized.

    Unlike :class:`~repro.service.protocol.ErrorResponse` this is not a
    failure of the operation — the operation never ran.  ``code`` is one of
    the typed rejection codes above; the transport maps it to 401/403/400
    via :data:`STATUS_BY_CODE`.
    """

    request_kind: str
    code: str
    message: str
    required_scope: str | None = None

    @property
    def http_status(self) -> int:
        """The HTTP status this rejection answers with."""
        return STATUS_BY_CODE.get(self.code, 403)


def unsupported_version(kind: str, api_version: int) -> DeniedResponse:
    """The denial of a *kind* request (or frame) speaking *api_version*,
    which is not :data:`API_VERSION`."""
    return DeniedResponse(
        request_kind=kind,
        code=CODE_UNSUPPORTED_VERSION,
        message=f"api_version {api_version} is not supported; this service "
        f"speaks v{API_VERSION} (and the legacy /v1 endpoint)",
    )


@dataclass(frozen=True, eq=False)
class SealedResponse:
    """A response sealed back into the v2 envelope contract.

    ``eq=False`` because the wrapped response may hold NumPy arrays.

    Attributes
    ----------
    response:
        The inner protocol response — or a :class:`DeniedResponse` when
        the envelope never passed authorization.
    request_id:
        Echo of the originating envelope's ``request_id``.
    api_version:
        The protocol revision of the exchange.
    caller_id:
        The authorized caller (``None`` when the envelope was denied).
    replayed:
        True when this response was served from the idempotency record of
        an earlier envelope sharing the same key.
    trace_id:
        The trace covering this exchange, echoed so the caller can match
        its own records against the server-side trace events (``None``
        when the request was untraced).
    """

    response: Response | DeniedResponse
    request_id: str
    api_version: int = API_VERSION
    caller_id: str | None = None
    replayed: bool = False
    trace_id: str | None = None

    @property
    def denied(self) -> bool:
        """True when the envelope was rejected before dispatch."""
        return isinstance(self.response, DeniedResponse)


# --------------------------------------------------------------------- #
# caller registry
# --------------------------------------------------------------------- #


#: The typed :class:`~repro.service.protocol.ThrottledResponse` reason a
#: per-caller rate limit rejects with (the transport maps it to HTTP 429
#: with a ``Retry-After`` header, exactly like queue-full throttling).
REASON_RATE_LIMITED = "rate-limited"

#: The typed throttle reason for a batch/frame charging more tokens than
#: the caller's bucket can ever hold: waiting cannot help — the caller
#: must split the batch (or the operator must raise the burst).
REASON_BATCH_EXCEEDS_BURST = "batch-exceeds-burst"


class TokenBucket:
    """Thread-safe token bucket: ``rate_per_s`` refill up to ``burst``.

    The standard shape for per-caller quotas: sustained request rate is
    bounded by the refill rate while short bursts up to the bucket size
    pass untouched.  Time comes from the monotonic clock, so wall-clock
    jumps cannot mint or destroy tokens.

    Parameters
    ----------
    rate_per_s:
        Sustained requests per second granted to the caller.
    burst:
        Bucket capacity (defaults to ``rate_per_s``); a batch larger than
        this can never be granted in one piece, so size it above the
        largest legitimate batch.

    Raises
    ------
    ValueError
        If either knob is not positive.
    """

    def __init__(self, rate_per_s: float, burst: float | None = None) -> None:
        if rate_per_s <= 0.0:
            raise ValueError(f"rate_per_s must be > 0, got {rate_per_s}")
        burst = float(rate_per_s) if burst is None else float(burst)
        if burst <= 0.0:
            raise ValueError(f"burst must be > 0, got {burst}")
        self.rate_per_s = float(rate_per_s)
        self.burst = burst
        self._tokens = burst
        self._stamp = monotonic()
        self._lock = threading.Lock()

    def acquire(self, tokens: int = 1) -> float:
        """Try to take *tokens*; returns 0.0 on grant, else the suggested
        back-off in seconds until enough tokens will have refilled."""
        with self._lock:
            now = monotonic()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate_per_s
            )
            self._stamp = now
            if tokens <= self._tokens:
                self._tokens -= tokens
                return 0.0
            return (tokens - self._tokens) / self.rate_per_s

    def refund(self, tokens: float) -> None:
        """Return *tokens* to the bucket, capped at ``burst``.

        The undo for a charge whose work was never done (the shard router
        charges a whole frame up front and refunds when every sub-frame
        failed).  Refunds never mint tokens beyond the bucket size.
        """
        if tokens <= 0.0:
            return
        with self._lock:
            self._tokens = min(self.burst, self._tokens + tokens)


class SharedTokenBucket:
    """A file-backed token bucket shared by every process that opens it.

    The cluster's fleet-wide quota store: N sharded workers each attach an
    instance pointing at the *same* state file (via
    :meth:`CallerRegistry.attach_rate_limit`), so a caller whose batches
    are split across shards is throttled at one aggregate rate — exactly
    as if a single process served it.

    The state file holds ``{"tokens": float, "stamp": float}`` as JSON; a
    POSIX advisory lock (``fcntl.lockf``) serializes the read-refill-write
    cycle across processes, and a process-local mutex serializes the
    transport's handler threads within one process.  Stamps come from
    ``time.monotonic()`` — ``CLOCK_MONOTONIC`` is machine-wide on Linux,
    so every worker refills against the same clock.  A missing or corrupt
    state file re-initializes to a full bucket (fail-open: a torn write
    can only ever *grant* a little extra burst, never wedge the fleet).

    The surface mirrors :class:`TokenBucket` (``rate_per_s``, ``burst``,
    ``acquire``) so :meth:`CallerRegistry.acquire_rate` and the per-caller
    telemetry snapshots work unchanged.

    Parameters
    ----------
    path:
        The shared state file (created on first use).
    rate_per_s, burst:
        As for :class:`TokenBucket`; every process must be configured with
        the same values (the file holds only the token level).

    Raises
    ------
    ValueError
        If either knob is not positive.
    """

    def __init__(
        self, path: str | os.PathLike, rate_per_s: float, burst: float | None = None
    ) -> None:
        if rate_per_s <= 0.0:
            raise ValueError(f"rate_per_s must be > 0, got {rate_per_s}")
        burst = float(rate_per_s) if burst is None else float(burst)
        if burst <= 0.0:
            raise ValueError(f"burst must be > 0, got {burst}")
        self.path = os.fspath(path)
        self.rate_per_s = float(rate_per_s)
        self.burst = burst
        self._lock = threading.Lock()

    def acquire(self, tokens: int = 1) -> float:
        """Try to take *tokens* fleet-wide; returns 0.0 on grant, else the
        suggested back-off in seconds until enough will have refilled."""
        with self._lock:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o600)
            try:
                if fcntl is not None:
                    fcntl.lockf(fd, fcntl.LOCK_EX)
                try:
                    now = monotonic()
                    level, stamp = self._read_state(fd, now)
                    level = min(self.burst, level + (now - stamp) * self.rate_per_s)
                    if tokens <= level:
                        level -= tokens
                        retry_after = 0.0
                    else:
                        retry_after = (tokens - level) / self.rate_per_s
                    state = json.dumps({"tokens": level, "stamp": now})
                    os.lseek(fd, 0, os.SEEK_SET)
                    os.truncate(fd, 0)
                    os.write(fd, state.encode("utf-8"))
                    return retry_after
                finally:
                    if fcntl is not None:
                        fcntl.lockf(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def refund(self, tokens: float) -> None:
        """Return *tokens* fleet-wide, capped at ``burst``.

        Same read-refill-write cycle as :meth:`acquire` under the same
        advisory lock, so a refund races safely with concurrent charges
        from other processes.
        """
        if tokens <= 0.0:
            return
        with self._lock:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o600)
            try:
                if fcntl is not None:
                    fcntl.lockf(fd, fcntl.LOCK_EX)
                try:
                    now = monotonic()
                    level, stamp = self._read_state(fd, now)
                    level = min(self.burst, level + (now - stamp) * self.rate_per_s)
                    level = min(self.burst, level + tokens)
                    state = json.dumps({"tokens": level, "stamp": now})
                    os.lseek(fd, 0, os.SEEK_SET)
                    os.truncate(fd, 0)
                    os.write(fd, state.encode("utf-8"))
                finally:
                    if fcntl is not None:
                        fcntl.lockf(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def _read_state(self, fd: int, now: float) -> tuple[float, float]:
        """The persisted ``(tokens, stamp)``, or a full bucket when the
        file is new, torn or unreadable."""
        try:
            os.lseek(fd, 0, os.SEEK_SET)
            raw = os.read(fd, 4096)
            state = json.loads(raw.decode("utf-8"))
            return float(state["tokens"]), float(state["stamp"])
        except (ValueError, KeyError, TypeError, OSError):
            return self.burst, now


@dataclass
class CallerRecord:
    """One registered caller: hashed credential, scopes and telemetry."""

    caller_id: str
    key_hash: str
    scopes: frozenset[str]
    requests: int = 0
    denied: int = 0
    throttled: int = 0
    bucket: TokenBucket | SharedTokenBucket | None = None

    def snapshot(self) -> dict[str, Any]:
        """Plain-type per-caller telemetry (no credential material)."""
        snapshot = {
            "scopes": sorted(self.scopes),
            "requests": self.requests,
            "denied": self.denied,
            "throttled": self.throttled,
        }
        if self.bucket is not None:
            snapshot["rate_limit"] = {
                "requests_per_s": self.bucket.rate_per_s,
                "burst": self.bucket.burst,
            }
        return snapshot


class CallerRegistry:
    """Authorizes API callers by hashed key, with per-caller telemetry.

    Plaintext keys are never stored: :meth:`register` returns the key once
    and keeps only its SHA-256 digest, so a leaked registry snapshot (or a
    telemetry dump) cannot be replayed as a credential.  All entry points
    are thread-safe — the threaded HTTP transport authorizes concurrent
    envelopes against one shared registry.

    Parameters
    ----------
    telemetry:
        Optional hub; authorization outcomes land in ``callers.*`` counters
        next to the rest of the service metrics.
    """

    def __init__(self, telemetry: TelemetryHub | None = None) -> None:
        self.telemetry = telemetry if telemetry is not None else TelemetryHub()
        self._by_hash: dict[str, CallerRecord] = {}
        self._by_id: dict[str, CallerRecord] = {}
        self._lock = threading.Lock()

    @staticmethod
    def hash_key(api_key: str) -> str:
        """The stored form of a credential (SHA-256 hex digest)."""
        return hashlib.sha256(api_key.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #

    def register(
        self,
        caller_id: str,
        scopes: Sequence[str] | frozenset[str],
        api_key: str | None = None,
    ) -> str:
        """Register a caller and return its API key (the only time it exists
        in plaintext here — hand it to the caller and drop it).

        Parameters
        ----------
        caller_id:
            Unique caller name (shows up in telemetry).
        scopes:
            Subset of :data:`KNOWN_SCOPES` this caller may exercise.
        api_key:
            Explicit credential (tests, key rotation); a cryptographically
            random one is generated when omitted.

        Raises
        ------
        ValueError
            If the caller id is empty or taken, a scope is unknown, or the
            explicit key collides with a registered one.
        """
        if not isinstance(caller_id, str) or not caller_id:
            raise ValueError(f"caller_id must be a non-empty string, got {caller_id!r}")
        scopes = frozenset(scopes)
        unknown = scopes - KNOWN_SCOPES
        if unknown:
            raise ValueError(
                f"unknown scopes {sorted(unknown)}; known: {sorted(KNOWN_SCOPES)}"
            )
        if api_key is None:
            api_key = secrets.token_urlsafe(24)
        key_hash = self.hash_key(api_key)
        with self._lock:
            if caller_id in self._by_id:
                raise ValueError(f"caller {caller_id!r} is already registered")
            if key_hash in self._by_hash:
                raise ValueError("api_key is already registered to another caller")
            record = CallerRecord(caller_id=caller_id, key_hash=key_hash, scopes=scopes)
            self._by_id[caller_id] = record
            self._by_hash[key_hash] = record
        return api_key

    def revoke(self, caller_id: str) -> bool:
        """Remove a caller; returns whether it existed."""
        with self._lock:
            record = self._by_id.pop(caller_id, None)
            if record is None:
                return False
            self._by_hash.pop(record.key_hash, None)
            return True

    def rotate_key(self, caller_id: str, api_key: str | None = None) -> str:
        """Replace a caller's credential, returning the new key once.

        The old key stops authorizing the moment this returns: concurrent
        requests still carrying it get the typed ``unknown-api-key`` 401,
        never an exception — rotation under live load degrades exactly
        like a revocation.  Scopes, rate limits and telemetry counters all
        survive the rotation (the caller is the same, only its credential
        changed).

        Parameters
        ----------
        caller_id:
            A registered caller.
        api_key:
            Explicit replacement credential (tests); a cryptographically
            random one is generated when omitted.

        Raises
        ------
        KeyError
            If no such caller is registered.
        ValueError
            If the explicit key already belongs to a different caller.
        """
        if api_key is None:
            api_key = secrets.token_urlsafe(24)
        key_hash = self.hash_key(api_key)
        with self._lock:
            record = self._by_id.get(caller_id)
            if record is None:
                raise KeyError(f"no registered caller {caller_id!r}")
            existing = self._by_hash.get(key_hash)
            if existing is not None and existing is not record:
                raise ValueError("api_key is already registered to another caller")
            self._by_hash.pop(record.key_hash, None)
            record.key_hash = key_hash
            self._by_hash[key_hash] = record
        self.telemetry.increment("callers.rotated")
        return api_key

    def callers(self) -> list[str]:
        """Every registered caller id (sorted)."""
        with self._lock:
            return sorted(self._by_id)

    def scopes_for(self, caller_id: str) -> frozenset[str]:
        """A registered caller's scopes.

        Raises
        ------
        KeyError
            If no such caller is registered.
        """
        with self._lock:
            return self._by_id[caller_id].scopes

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Per-caller telemetry as plain types (no credential material)."""
        with self._lock:
            return {
                caller_id: record.snapshot()
                for caller_id, record in sorted(self._by_id.items())
            }

    # ------------------------------------------------------------------ #
    # per-caller rate limits (token buckets over the same records)
    # ------------------------------------------------------------------ #

    def set_rate_limit(
        self,
        caller_id: str,
        requests_per_s: float,
        burst: float | None = None,
    ) -> None:
        """Attach (or replace) a token-bucket quota on a registered caller.

        Every authorized request consumes one token; a batch or binary
        frame consumes one per request it carries.  Exhausted buckets
        answer a typed ``rate-limited``
        :class:`~repro.service.protocol.ThrottledResponse` (HTTP 429 with
        ``Retry-After``) *before* dispatch — the operation never runs.

        Parameters
        ----------
        caller_id:
            A registered caller.
        requests_per_s:
            Sustained per-second budget.
        burst:
            Bucket capacity (defaults to ``requests_per_s``); size it above
            the caller's largest legitimate batch.

        Raises
        ------
        KeyError
            If no such caller is registered.
        ValueError
            If a knob is not positive.
        """
        bucket = TokenBucket(requests_per_s, burst)
        with self._lock:
            self._by_id[caller_id].bucket = bucket

    def attach_rate_limit(
        self, caller_id: str, bucket: TokenBucket | SharedTokenBucket
    ) -> None:
        """Attach an externally built bucket to a registered caller.

        The cluster entry point: every worker attaches the *same*
        :class:`SharedTokenBucket` state file here, making the caller's
        quota fleet-wide.  Any object exposing ``rate_per_s``, ``burst``
        and ``acquire(count) -> float`` works — :meth:`acquire_rate` and
        the telemetry snapshot only use that surface.

        Raises
        ------
        KeyError
            If no such caller is registered.
        TypeError
            If *bucket* lacks the token-bucket surface.
        """
        for attr in ("rate_per_s", "burst", "acquire"):
            if not hasattr(bucket, attr):
                raise TypeError(
                    f"bucket must expose {attr!r} (a TokenBucket-shaped "
                    f"object), got {type(bucket).__name__}"
                )
        with self._lock:
            self._by_id[caller_id].bucket = bucket

    def clear_rate_limit(self, caller_id: str) -> None:
        """Remove a caller's quota (KeyError if no such caller)."""
        with self._lock:
            self._by_id[caller_id].bucket = None

    def acquire_rate(
        self, record: CallerRecord, count: int = 1
    ) -> tuple[str, float] | None:
        """Charge *count* requests against a caller's quota.

        Returns ``None`` when granted (or the caller has no quota), else a
        ``(reason, retry_after_s)`` rejection: :data:`REASON_RATE_LIMITED`
        when waiting will help, or :data:`REASON_BATCH_EXCEEDS_BURST` when
        *count* exceeds the bucket's capacity outright — no amount of
        waiting can ever grant it, so the caller must split the batch
        instead of retrying (``retry_after_s`` is then the full-bucket
        refill time, after which a burst-sized batch succeeds).
        Rejections land in the ``callers.rate_limited`` counters and the
        per-caller ``throttled`` tally.
        """
        bucket = record.bucket
        if bucket is None:
            return None
        if count > bucket.burst:
            rejection = (REASON_BATCH_EXCEEDS_BURST, bucket.burst / bucket.rate_per_s)
        else:
            retry_after = bucket.acquire(count)
            if retry_after == 0.0:
                return None
            rejection = (REASON_RATE_LIMITED, retry_after)
        with self._lock:
            record.throttled += count
        self.telemetry.increment("callers.rate_limited", count)
        self.telemetry.increment(f"callers.{record.caller_id}.rate_limited", count)
        return rejection

    # ------------------------------------------------------------------ #

    def record_usage(self, record: CallerRecord, count: int = 1) -> None:
        """Fold *count* authorized requests into a caller's telemetry."""
        if count <= 0:
            return
        with self._lock:
            record.requests += count
        self.telemetry.increment("callers.requests", count)
        self.telemetry.increment(f"callers.{record.caller_id}.requests", count)

    def record_denied(self, record: CallerRecord | None = None, count: int = 1) -> None:
        """Fold *count* denials into the (per-caller, when known) telemetry."""
        if count <= 0:
            return
        self.telemetry.increment("callers.denied", count)
        if record is not None:
            with self._lock:
                record.denied += count
            self.telemetry.increment(f"callers.{record.caller_id}.denied", count)

    def authorize(
        self, api_key: str | None, required_scope: str, kind: str
    ) -> CallerRecord | DeniedResponse:
        """Authorize one request: its caller and the scope it needs.

        Returns the authorized :class:`CallerRecord` — or a typed
        :class:`DeniedResponse` (never an exception: the caller of this
        method always has a response to send back).  Outcomes land in the
        per-caller counters and the shared telemetry hub.
        """
        if api_key is None or api_key == "":
            self.record_denied()
            return DeniedResponse(
                request_kind=kind,
                code=CODE_MISSING_KEY,
                message="the envelope carries no api_key; v2 requests must "
                "be authenticated",
                required_scope=required_scope,
            )
        # O(1) digest lookup: keys are high-entropy random tokens, so their
        # SHA-256 digests carry no attacker-predictable structure a hash
        # lookup's timing could leak — no constant-time scan needed.
        key_hash = self.hash_key(api_key)
        with self._lock:
            record = self._by_hash.get(key_hash)
        if record is None:
            self.record_denied()
            return DeniedResponse(
                request_kind=kind,
                code=CODE_UNKNOWN_KEY,
                message="the envelope's api_key matches no registered caller",
                required_scope=required_scope,
            )
        if required_scope not in record.scopes:
            self.record_denied(record)
            return DeniedResponse(
                request_kind=kind,
                code=CODE_INSUFFICIENT_SCOPE,
                message=f"caller {record.caller_id!r} lacks the "
                f"{required_scope!r} scope required by {kind!r}",
                required_scope=required_scope,
            )
        self.record_usage(record)
        return record

    def authorize_many(
        self, api_key: str | None, required_scope: str, kind: str, count: int
    ) -> CallerRecord | DeniedResponse:
        """Authorize *count* same-credential requests with one key check.

        The columnar-frame form of :meth:`authorize`: the outcome of one
        hash-and-scope check covers every request in the frame, and
        :meth:`record_repeats` folds in the remaining ``count - 1``.
        """
        outcome = self.authorize(api_key, required_scope, kind)
        self.record_repeats(api_key, outcome, count - 1)
        return outcome

    def record_repeats(
        self,
        api_key: str | None,
        outcome: CallerRecord | DeniedResponse,
        count: int,
    ) -> None:
        """Fold *count* more requests that share one authorization *outcome*.

        The batch doors authorize an ``(api_key, scope)`` pair once and
        fold its repeats in here, so the per-caller counters stay
        per-request accurate — including the ``denied`` tally of a known
        caller rejected for insufficient scope.
        """
        if count <= 0:
            return
        if not isinstance(outcome, DeniedResponse):
            self.record_usage(outcome, count)
            return
        record = None
        if outcome.code == CODE_INSUFFICIENT_SCOPE and api_key:
            key_hash = self.hash_key(api_key)
            with self._lock:
                record = self._by_hash.get(key_hash)
        self.record_denied(record, count)


# --------------------------------------------------------------------- #
# the envelope processor
# --------------------------------------------------------------------- #


class EnvelopeProcessor:
    """Authorizes versioned envelopes and dispatches them onto the planes.

    The v2 front door, transport-agnostic: the HTTP transport feeds it
    parsed wire envelopes, :class:`EnvelopeChannel` feeds it in-process
    ones, and both get identical behaviour:

    1. **version check** — only :data:`API_VERSION` is accepted;
    2. **plane check** — when the entry point pins a plane (the two v2
       endpoints do), a request of the other plane is rejected with the
       typed ``wrong-plane`` code *before* authorization work happens;
    3. **authorization** — the :class:`CallerRegistry` resolves the API
       key and checks the scope the operation requires (``data:write`` or
       ``admin``); failures yield typed :class:`DeniedResponse`\\ s and the
       request never reaches the gateway;
    4. **idempotency** — an envelope repeating a caller's idempotency key
       answers with the recorded response (``replayed=True``);
    5. **dispatch** — admitted data-plane requests go through the
       *channel* (the micro-batching frontend in process; the transport
       passes a queue-aware adapter so single HTTP requests keep
       cross-connection coalescing), control-plane requests through the
       frontend's control door; every batch keeps submission order.

    :meth:`process` and :meth:`process_many` run one body; they differ
    only in how the admitted requests dispatch.  Each request's trace is
    passed down the dispatch call next to it.  A caller that traces its
    requests passes their traces in and finishes them: the HTTP door
    does, so a server draws one trace per request.  The processor mints a
    trace only for an envelope arriving without one while it has a
    :attr:`tracer` of its own, as in process
    (:class:`~repro.service.fleet.FleetSimulator`).

    Parameters
    ----------
    frontend:
        The service frontend whose gateway owns the planes.
    callers:
        The registry authorizing envelopes (a fresh, *empty* one — which
        rejects everything — when omitted).
    channel:
        Optional dispatch override for admitted data-plane requests: any
        object with ``submit(request, trace)`` and
        ``submit_many(requests, traces)`` (defaults to *frontend*).  A
        trace argument is ``None`` for an untraced request, and *traces*
        is ``None`` when no request of the batch is traced.
    idempotency_capacity:
        Bound on remembered ``(caller, idempotency_key)`` responses
        (least recently used evicted).
    """

    def __init__(
        self,
        frontend: ServiceFrontend,
        callers: CallerRegistry | None = None,
        channel: Any | None = None,
        idempotency_capacity: int = 1024,
    ) -> None:
        if idempotency_capacity < 1:
            raise ValueError(
                f"idempotency_capacity must be >= 1, got {idempotency_capacity}"
            )
        self.frontend = frontend
        self.callers = (
            callers
            if callers is not None
            else CallerRegistry(telemetry=frontend.telemetry)
        )
        self.channel = channel if channel is not None else frontend
        self.telemetry = frontend.telemetry
        # Set in process (the fleet simulator) when request tracing is
        # enabled: it mints the traces of envelopes that arrive without
        # one.  A server leaves it unset, as its HTTP door mints every
        # trace.  ``None`` keeps admission byte-identical to the untraced
        # path.
        self.tracer: Any | None = None
        self.idempotency_capacity = idempotency_capacity
        self._idempotent: "OrderedDict[tuple[str, str], Response]" = OrderedDict()
        # Keys whose operation is currently executing: a concurrent retry
        # waits for the owner instead of executing the operation a second
        # time (the whole point of an idempotency key).
        self._inflight: dict[tuple[str, str], threading.Event] = {}
        self._idempotent_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # admission (version, plane, caller, idempotency)
    # ------------------------------------------------------------------ #

    @staticmethod
    def required_scope(request: Request) -> str:
        """The caller scope *request*'s operation demands."""
        return SCOPE_DATA_WRITE if is_data_plane(request) else SCOPE_ADMIN

    def authorize_frame(
        self, api_key: str | None, kind: str, count: int, charge: bool = True
    ) -> CallerRecord | DeniedResponse | ThrottledResponse:
        """Authorize a columnar frame of *count* data-plane requests at once.

        The binary codec's admission door: a whole frame travels under one
        caller credential, so authorization (key hash, scope check) runs
        **once** and its outcome covers every request — no per-envelope
        object construction anywhere.  Per-caller telemetry stays
        per-request accurate (the remaining ``count - 1`` grants or
        denials are folded in), and the caller's rate-limit bucket is
        charged *count* tokens atomically.

        *charge=False* skips only the bucket charge (key and scope checks
        still run): the door for router-prepaid sub-frames, whose quota was
        already charged once at the shard router before the split — a
        worker charging again would bill the frame per shard.

        Returns the authorized record, a typed :class:`DeniedResponse`
        (401/403) or a ``rate-limited``
        :class:`~repro.service.protocol.ThrottledResponse` (429) for the
        frame as a whole.
        """
        outcome = self.callers.authorize_many(api_key, SCOPE_DATA_WRITE, kind, count)
        if isinstance(outcome, DeniedResponse):
            self.telemetry.increment("envelope.denied", count)
            return outcome
        if not charge:
            return outcome
        rejection = self.callers.acquire_rate(outcome, count)
        if rejection is not None:
            return self._rate_limited(kind, outcome, rejection)
        return outcome

    def _admit(
        self,
        envelope: Envelope,
        plane: str | None,
        authorize: Callable[[str | None, str, str], CallerRecord | DeniedResponse],
    ) -> tuple[SealedResponse | None, CallerRecord | None]:
        """Run admission (version, plane, caller); non-``None`` sealed
        short-circuits.  *authorize* is the caller-authorization callable
        (a per-call memoizing wrapper of :meth:`CallerRegistry.authorize`)."""
        kind = request_kind(envelope.request)
        if envelope.api_version != API_VERSION:
            self.telemetry.increment("envelope.denied")
            return (
                SealedResponse(
                    response=unsupported_version(kind, envelope.api_version),
                    request_id=envelope.request_id,
                    api_version=envelope.api_version,
                ),
                None,
            )
        if plane == "data" and not is_data_plane(envelope.request):
            return self._wrong_plane(envelope, kind, "data"), None
        if plane == "control" and not is_control_plane(envelope.request):
            return self._wrong_plane(envelope, kind, "control"), None
        outcome = authorize(
            envelope.api_key, self.required_scope(envelope.request), kind
        )
        if isinstance(outcome, DeniedResponse):
            self.telemetry.increment("envelope.denied")
            return (
                SealedResponse(response=outcome, request_id=envelope.request_id),
                None,
            )
        rejection = self.callers.acquire_rate(outcome)
        if rejection is not None:
            return (
                SealedResponse(
                    response=self._rate_limited(
                        kind, outcome, rejection, envelope.request
                    ),
                    request_id=envelope.request_id,
                    caller_id=outcome.caller_id,
                ),
                None,
            )
        return None, outcome

    @staticmethod
    def _rate_limited(
        kind: str,
        caller: CallerRecord,
        rejection: tuple[str, float],
        request: Request | None = None,
    ) -> ThrottledResponse:
        """The typed 429 a caller's exhausted token bucket answers with."""
        reason, retry_after = rejection
        bucket = caller.bucket
        return ThrottledResponse(
            request_kind=kind,
            reason=reason,
            queue_depth=0,
            max_depth=int(bucket.burst) if bucket is not None else 0,
            retry_after_s=retry_after,
            user_id=getattr(request, "user_id", None),
        )

    def _wrong_plane(self, envelope: Envelope, kind: str, plane: str) -> SealedResponse:
        other = "control" if plane == "data" else "data"
        self.telemetry.increment("envelope.denied")
        return SealedResponse(
            response=DeniedResponse(
                request_kind=kind,
                code=CODE_WRONG_PLANE,
                message=f"{kind!r} is a {other}-plane operation and is "
                f"unreachable from the {plane} plane",
            ),
            request_id=envelope.request_id,
        )

    def _reserve(self, key: tuple[str, str]) -> Response | None:
        """Claim *key* for execution, or return its recorded response.

        Returns the recorded response when the operation already ran to a
        recordable outcome (replay it); returns ``None`` when this caller
        now *owns* the key and must execute the operation, then release it
        with :meth:`_finish`.  A concurrent envelope sharing the key blocks
        here until the owner finishes — two threads can never both execute
        one idempotent operation.
        """
        while True:
            with self._idempotent_lock:
                response = self._idempotent.get(key)
                if response is not None:
                    self._idempotent.move_to_end(key)
                    return response
                event = self._inflight.get(key)
                if event is None:
                    self._inflight[key] = threading.Event()
                    return None
            # Wait OUTSIDE the lock for the owner to finish, then re-check:
            # either its response was recorded (replay) or it ended in a
            # non-recordable outcome (this retry becomes the new owner).
            event.wait()

    def _finish(self, key: tuple[str, str], response: Response | None) -> None:
        """Release *key*, recording *response* when it should replay.

        Only successful outcomes are recorded: a throttled rejection or a
        middleware-mapped :class:`~repro.service.protocol.ErrorResponse`
        (possibly transient — detector not yet published, registry race)
        must *execute* on retry, not replay the failure forever.
        """
        record = response is not None and not isinstance(
            response, (ThrottledResponse, ErrorResponse)
        )
        with self._idempotent_lock:
            if record:
                self._idempotent[key] = response
                while len(self._idempotent) > self.idempotency_capacity:
                    self._idempotent.popitem(last=False)
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    # ------------------------------------------------------------------ #
    # tracing hooks
    # ------------------------------------------------------------------ #

    def _start_trace(
        self, envelope: Envelope, trace: TraceContext | None
    ) -> tuple[TraceContext | None, bool]:
        """``(trace, owned)`` for one envelope entering the processor.

        A *trace* passed in by the caller (the transport's) is used as is
        and the caller finishes it; otherwise one is minted here —
        adopting the envelope's client-supplied ``trace_id`` when present —
        and this processor owns finishing it.
        """
        if trace is not None:
            return trace, False
        tracer = self.tracer
        if tracer is None:
            return None, False
        trace = tracer.start(
            "envelope",
            trace_id=envelope.trace_id,
            request_id=envelope.request_id,
            user_id=getattr(envelope.request, "user_id", None),
        )
        return trace, trace is not None

    def _admit_traced(
        self,
        envelope: Envelope,
        plane: str | None,
        trace: TraceContext | None,
        authorize: Callable[[str | None, str, str], CallerRecord | DeniedResponse],
    ) -> tuple[SealedResponse | None, CallerRecord | None]:
        """:meth:`_admit` with the admission span recorded on *trace*."""
        if trace is None:
            return self._admit(envelope, plane, authorize)
        started = perf_counter()
        sealed, caller = self._admit(envelope, plane, authorize)
        trace.add_span(SPAN_ADMISSION, perf_counter() - started)
        if caller is not None:
            trace.caller_id = caller.caller_id
        return sealed, caller

    @staticmethod
    def _seal_outcome(
        sealed: SealedResponse, trace: TraceContext | None
    ) -> SealedResponse:
        """Annotate *trace* with the sealed outcome and echo its id."""
        if trace is None:
            return sealed
        if sealed.caller_id is not None:
            trace.caller_id = sealed.caller_id
        response = sealed.response
        if isinstance(response, DeniedResponse):
            trace.annotate(error=response.code)
        elif isinstance(response, ErrorResponse):
            trace.annotate(error=response.error)
        elif isinstance(response, ThrottledResponse):
            trace.annotate(error=response.reason)
        if sealed.replayed:
            trace.annotate(replayed=True)
        if sealed.trace_id is None:
            sealed = replace(sealed, trace_id=trace.trace_id)
        return sealed

    # ------------------------------------------------------------------ #
    # processing
    # ------------------------------------------------------------------ #

    def process(
        self,
        envelope: Envelope,
        plane: str | None = None,
        trace: TraceContext | None = None,
    ) -> SealedResponse:
        """Authorize and dispatch one envelope; always returns sealed.

        The admitted request dispatches alone: a data-plane request
        through the channel's single-request door (the transport's channel
        queues it for cross-connection coalescing), a control-plane
        request through the frontend's control door.

        Parameters
        ----------
        envelope:
            The versioned request.
        plane:
            ``"data"`` / ``"control"`` to enforce an endpoint's plane
            restriction, ``None`` to infer from the request type (the
            in-process channel's behaviour).
        trace:
            The caller's trace of this request, which the caller finishes;
            ``None`` mints one here when a tracer is attached.
        """
        return self._process([envelope], plane, self._dispatch, [trace])[0]

    def process_many(
        self,
        envelopes: Sequence[Envelope],
        plane: str | None = None,
        traces: Sequence[TraceContext | None] | None = None,
    ) -> list[SealedResponse]:
        """Authorize and dispatch a batch, preserving submission order.

        Admitted requests dispatch in one ``submit_many`` pass, so
        consecutive authenticate envelopes coalesce into fused scoring
        exactly as bare v1 batches do; denied envelopes answer in place
        without costing their neighbours anything.  Idempotency keys apply
        exactly as on the single path — a key repeated *within* one batch
        executes once, with the later occurrence replaying the first's
        response.  Each envelope gets its own trace: *traces* holds the
        caller's trace of each envelope, which the caller finishes; a
        ``None`` entry (or ``None`` for all) mints one here when a tracer
        is attached.
        """
        return self._process(envelopes, plane, self.channel.submit_many, traces)

    def _dispatch(
        self,
        requests: Sequence[Request],
        traces: Sequence[TraceContext | None] | None,
    ) -> list[Response]:
        """:meth:`process`'s dispatch of its one admitted request."""
        (request,) = requests
        trace = None if traces is None else traces[0]
        if is_data_plane(request):
            return [self.channel.submit(request, trace)]
        return [self.frontend.submit_control(request, trace)]

    def _process(
        self,
        envelopes: Sequence[Envelope],
        plane: str | None,
        dispatch: Callable[..., list[Response]],
        traces: Sequence[TraceContext | None] | None,
    ) -> list[SealedResponse]:
        """Admission, idempotency and dispatch: the one body of both doors.

        *traces* holds the caller's trace of each envelope (``None``
        entries, or ``None`` for all, mint one per envelope).  *dispatch*
        takes the admitted requests and their traces (``None`` when none is
        traced) and answers their responses in order.
        """
        sealed: list[SealedResponse | None] = [None] * len(envelopes)
        admitted: list[tuple[int, Envelope, CallerRecord]] = []
        owners: dict[tuple[str, str], int] = {}  # key -> owner position
        duplicates: list[tuple[int, Envelope, CallerRecord, int]] = []
        responses_by_index: dict[int, Response] = {}
        trace_at: dict[int, TraceContext] = {}
        minted: list[TraceContext] = []

        # A fleet batch is typically hundreds of envelopes under ONE
        # credential: authorize each (api_key, scope) pair once, replay the
        # outcome for its siblings, and fold their counts back into the
        # per-caller telemetry so counters stay per-request accurate.
        auth_cache: dict[tuple[str | None, str], CallerRecord | DeniedResponse] = {}
        reuse_counts: dict[tuple[str | None, str], int] = {}

        def batch_authorize(
            api_key: str | None, required_scope: str, kind: str
        ) -> CallerRecord | DeniedResponse:
            cache_key = (api_key, required_scope)
            outcome = auth_cache.get(cache_key)
            if outcome is None:
                outcome = self.callers.authorize(api_key, required_scope, kind)
                auth_cache[cache_key] = outcome
                return outcome
            reuse_counts[cache_key] = reuse_counts.get(cache_key, 0) + 1
            if isinstance(outcome, DeniedResponse):
                # Re-tag with this envelope's kind; the denial is the same.
                return DeniedResponse(
                    request_kind=kind,
                    code=outcome.code,
                    message=outcome.message,
                    required_scope=outcome.required_scope,
                )
            return outcome

        try:
            for index, envelope in enumerate(envelopes):
                trace, owned = self._start_trace(
                    envelope, None if traces is None else traces[index]
                )
                if trace is not None:
                    trace_at[index] = trace
                    if owned:
                        minted.append(trace)
                short_circuit, caller = self._admit_traced(
                    envelope, plane, trace, batch_authorize
                )
                if short_circuit is not None:
                    sealed[index] = self._seal_outcome(short_circuit, trace)
                    continue
                if envelope.idempotency_key is None:
                    admitted.append((index, envelope, caller))
                    continue
                key = (caller.caller_id, envelope.idempotency_key)
                if key in owners:
                    # Same key twice in one batch: defer to the in-batch
                    # owner (waiting on it here would deadlock this very
                    # thread).
                    duplicates.append((index, envelope, caller, owners[key]))
                    continue
                recorded = self._reserve(key)
                if recorded is not None:
                    self.telemetry.increment("envelope.replayed")
                    sealed[index] = self._seal_outcome(
                        SealedResponse(
                            response=recorded,
                            request_id=envelope.request_id,
                            caller_id=caller.caller_id,
                            replayed=True,
                        ),
                        trace,
                    )
                    continue
                owners[key] = index
                admitted.append((index, envelope, caller))
            if admitted:
                responses = dispatch(
                    [envelope.request for _, envelope, _ in admitted],
                    [trace_at.get(index) for index, _, _ in admitted]
                    if trace_at
                    else None,
                )
                for (index, envelope, caller), response in zip(admitted, responses):
                    responses_by_index[index] = response
                    sealed[index] = self._seal_outcome(
                        SealedResponse(
                            response=response,
                            request_id=envelope.request_id,
                            caller_id=caller.caller_id,
                        ),
                        trace_at.get(index),
                    )
            for index, envelope, caller, owner_index in duplicates:
                response = responses_by_index[owner_index]
                self.telemetry.increment("envelope.replayed")
                sealed[index] = self._seal_outcome(
                    SealedResponse(
                        response=response,
                        request_id=envelope.request_id,
                        caller_id=caller.caller_id,
                        replayed=True,
                    ),
                    trace_at.get(index),
                )
        finally:
            # Release every owned key whether dispatch succeeded or not; a
            # key whose operation never produced a response is released
            # unrecorded, so a retry executes.
            for key, index in owners.items():
                self._finish(key, responses_by_index.get(index))
            # Fold the cache-replayed authorizations into the telemetry.
            for (api_key, scope), count in reuse_counts.items():
                self.callers.record_repeats(
                    api_key, auth_cache[(api_key, scope)], count
                )
            for trace in minted:
                self.tracer.finish(trace)
        return sealed  # type: ignore[return-value]


def verify_echo(envelope: Envelope, sealed: SealedResponse) -> SealedResponse:
    """*sealed*, once checked to echo *envelope*'s request id.

    Raises
    ------
    ValueError
        If *sealed* echoes a different ``request_id`` than *envelope* (a
        transport bug, never a caller-visible outcome).
    """
    if sealed.request_id != envelope.request_id:
        raise ValueError(
            f"response echoes request_id {sealed.request_id!r}, "
            f"expected {envelope.request_id!r}"
        )
    return sealed


def unseal(envelope: Envelope, sealed: SealedResponse) -> Response:
    """Verify the echoed request id and unwrap one sealed response.

    The single definition of the caller-side v2 contract, shared by the
    in-process :class:`EnvelopeChannel` and the HTTP
    :class:`~repro.service.transport.ServiceClient`; their sealed doors
    stop after :func:`verify_echo`.

    Raises
    ------
    ValueError
        If *sealed* echoes a different ``request_id`` than *envelope*.
    PermissionError
        If the server rejected the envelope's caller (the in-process
        analogue of an HTTP 401/403), with the typed code in the message.
    """
    response = verify_echo(envelope, sealed).response
    if isinstance(response, DeniedResponse):
        raise PermissionError(f"{response.code}: {response.message}")
    return response


class EnvelopeChannel:
    """A :class:`~repro.service.fleet.RequestChannel` speaking v2 envelopes.

    Wraps every submitted protocol request in an :class:`Envelope` under
    one caller's credential, processes it in-process, verifies the echoed
    request id and unwraps the inner response — so the fleet simulator
    (and anything else built on the channel protocol) runs on the v2 API
    without touching a socket.

    Raises
    ------
    PermissionError
        From ``submit``/``submit_many``, when the processor denies the
        wrapped request (the in-process analogue of an HTTP 401/403).
    """

    def __init__(self, processor: EnvelopeProcessor, api_key: str) -> None:
        self.processor = processor
        self.api_key = api_key

    def _wrap(
        self, request: Request, idempotency_key: str | None = None
    ) -> Envelope:
        return Envelope(
            request=request, api_key=self.api_key, idempotency_key=idempotency_key
        )

    def submit(self, request: Request) -> Response:
        """Envelope-wrap and dispatch one request; returns the inner response."""
        envelope = self._wrap(request)
        return unseal(envelope, self.processor.process(envelope))

    def submit_sealed(
        self, request: Request, idempotency_key: str | None = None
    ) -> SealedResponse:
        """Dispatch one request and return the **sealed** response.

        Unlike :meth:`submit` this never raises on a caller rejection —
        the typed :class:`DeniedResponse` comes back inside the seal, and
        the envelope-level metadata (``replayed``, ``caller_id``) stays
        visible.  The adversarial fleet and the chaos harness use this
        door to observe exactly what a wire caller would see.

        Raises
        ------
        ValueError
            If the echoed ``request_id`` does not match (a transport bug,
            never a caller-visible outcome).
        """
        envelope = self._wrap(request, idempotency_key=idempotency_key)
        return verify_echo(envelope, self.processor.process(envelope))

    def submit_many(self, requests: Sequence[Request]) -> list[Response]:
        """Envelope-wrap and dispatch a batch; responses in order."""
        envelopes = [self._wrap(request) for request in requests]
        return [
            unseal(envelope, sealed)
            for envelope, sealed in zip(
                envelopes, self.processor.process_many(envelopes)
            )
        ]


# --------------------------------------------------------------------- #
# wire codec
# --------------------------------------------------------------------- #

#: Wire kind tags of the envelope layer.
ENVELOPE_KIND = "envelope"
SEALED_KIND = "sealed-response"
DENIED_KIND = "denied-response"


def envelope_to_payload(envelope: Envelope) -> dict[str, Any]:
    """Serialise an envelope into a plain tagged structure.

    ``trace_id`` is emitted only when set: readers tolerate the extra key,
    and untraced envelopes stay byte-identical to the pre-tracing wire
    form (pinned golden fixtures).
    """
    payload = {
        "kind": ENVELOPE_KIND,
        "api_version": int(envelope.api_version),
        "request_id": envelope.request_id,
        "idempotency_key": envelope.idempotency_key,
        "api_key": envelope.api_key,
        "request": request_to_payload(envelope.request),
    }
    if envelope.trace_id is not None:
        payload["trace_id"] = envelope.trace_id
    return payload


def envelope_from_payload(payload: Mapping[str, Any]) -> Envelope:
    """Rebuild an envelope from :func:`envelope_to_payload` output.

    Raises
    ------
    ValueError
        If *payload* is not a mapping, is not tagged as an envelope, lacks
        a required field, or its wrapped request is malformed.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"envelope payload must be a mapping, got {type(payload).__name__}"
        )
    kind = payload.get("kind", ENVELOPE_KIND)
    if kind != ENVELOPE_KIND:
        raise ValueError(f"payload does not describe an envelope: kind={kind!r}")
    try:
        api_version = payload["api_version"]
        request_id = payload["request_id"]
        request_payload = payload["request"]
    except KeyError as error:
        raise ValueError(
            f"envelope payload is missing required field {error.args[0]!r}"
        ) from None
    if not isinstance(api_version, int) or isinstance(api_version, bool):
        raise ValueError(f"api_version must be an int, got {api_version!r}")
    return Envelope(
        request=request_from_payload(request_payload),
        api_key=payload.get("api_key"),
        request_id=request_id,
        idempotency_key=payload.get("idempotency_key"),
        api_version=api_version,
        trace_id=payload.get("trace_id"),
    )


def sealed_to_payload(sealed: SealedResponse) -> dict[str, Any]:
    """Serialise a sealed response into a plain tagged structure."""
    if isinstance(sealed.response, DeniedResponse):
        inner: dict[str, Any] = {
            "kind": DENIED_KIND,
            "request_kind": sealed.response.request_kind,
            "code": sealed.response.code,
            "message": sealed.response.message,
            "required_scope": sealed.response.required_scope,
        }
    else:
        inner = response_to_payload(sealed.response)
    payload = {
        "kind": SEALED_KIND,
        "api_version": int(sealed.api_version),
        "request_id": sealed.request_id,
        "caller_id": sealed.caller_id,
        "replayed": bool(sealed.replayed),
        "response": inner,
    }
    if sealed.trace_id is not None:
        payload["trace_id"] = sealed.trace_id
    return payload


def sealed_from_payload(payload: Mapping[str, Any]) -> SealedResponse:
    """Rebuild a sealed response from :func:`sealed_to_payload` output.

    Raises
    ------
    ValueError
        If *payload* is not a sealed-response mapping or lacks a required
        field.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"sealed payload must be a mapping, got {type(payload).__name__}"
        )
    if payload.get("kind") != SEALED_KIND:
        raise ValueError(
            f"payload does not describe a sealed response: kind={payload.get('kind')!r}"
        )
    try:
        request_id = payload["request_id"]
        inner_payload = payload["response"]
    except KeyError as error:
        raise ValueError(
            f"sealed payload is missing required field {error.args[0]!r}"
        ) from None
    if isinstance(inner_payload, Mapping) and inner_payload.get("kind") == DENIED_KIND:
        inner: Response | DeniedResponse = DeniedResponse(
            request_kind=inner_payload.get("request_kind", "unknown"),
            code=inner_payload["code"],
            message=inner_payload.get("message", ""),
            required_scope=inner_payload.get("required_scope"),
        )
    else:
        inner = response_from_payload(inner_payload)
    return SealedResponse(
        response=inner,
        request_id=request_id,
        api_version=int(payload.get("api_version", API_VERSION)),
        caller_id=payload.get("caller_id"),
        replayed=bool(payload.get("replayed", False)),
        trace_id=payload.get("trace_id"),
    )


def dumps_envelope(envelope: Envelope) -> str:
    """Serialise an envelope to its JSON wire form."""
    return serialization.dumps(envelope_to_payload(envelope))


def loads_envelope(text: str) -> Envelope:
    """Parse an envelope from its JSON wire form (ValueError on bad input)."""
    return envelope_from_payload(serialization.loads(text))


def dumps_sealed(sealed: SealedResponse) -> str:
    """Serialise a sealed response to its JSON wire form."""
    return serialization.dumps(sealed_to_payload(sealed))


def loads_sealed(text: str) -> SealedResponse:
    """Parse a sealed response from its JSON wire form (ValueError on bad input)."""
    return sealed_from_payload(serialization.loads(text))
