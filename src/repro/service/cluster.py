"""Multi-process sharded serving cluster: router, worker pool, fleet view.

The GIL wall, measured: one in-process thread pushes ~270k windows/s
through the binary serving path, yet 32 concurrent clients through the
threaded HTTP server aggregate a fraction of that — every handler thread
shares one interpreter.  The serving stack is already shard-local by
construction (per-user frontend locks, a stateless fused pass, a
generation-keyed serving table), so this module scales it across processes
without touching it:

* :class:`HashRing` — a deterministic consistent-hash ring (SHA-256,
  virtual nodes) mapping ``user_id`` → shard index.  Every process that
  builds a ring of the same size agrees on the mapping, so enrollments,
  feature-store windows and trained bundles for one user always land on
  one worker.
* :class:`WorkerPool` — spawns N worker processes (each a full
  :class:`~repro.service.transport.ServiceHTTPServer` over its own
  frontend), health-checks them, detects crashes and restarts them.
  Workers hold the router's stdin pipe open and exit when it reaches EOF,
  so a dying router never leaks orphan processes.
* :class:`ShardRouter` — an HTTP front door speaking the *existing* wire
  surface: binary :mod:`~repro.service.wirebin` frames are split
  per-shard (:func:`~repro.service.wirebin.encode_frame_slice`), fanned
  out to workers over keep-alive connections, and the responses are
  merged back **in request order**; JSON requests route by ``user_id``.
  ``X-Trace-Id`` is forwarded on every hop, so one trace id links the
  router's split/dispatch/merge spans with the worker-side span events.
  A dead shard answers a typed 503 ``shard-unavailable`` (or, mid-stream,
  the torn-stream abort marker) — never a hang or a stack trace.
* Fleet telemetry — ``GET /metrics`` on the router scrapes every worker
  and merges the payloads: counters sum, histogram families merge
  bucket-wise (:func:`~repro.service.telemetry.merge_histogram_snapshots`),
  and the result renders as one Prometheus view of the whole cluster.

Fleet-wide quotas ride on
:class:`~repro.service.envelope.SharedTokenBucket`: every worker attaches
the same file-backed bucket, so a caller split across shards is throttled
at one aggregate rate.  The router charges that bucket **once per frame,
before the split** — sub-frames carry a ``prepaid`` marker the workers
honor — and refunds the charge when a frame fails outright, so a frame
split across K shards costs its request count exactly once, retries
included.

The routing layer self-heals around worker churn:

* :class:`RetryPolicy` — sub-frames that meet a dead or restarting shard
  retry with capped exponential backoff + jitter, bounded by a total
  deadline (and by the client's ``X-Deadline-S`` budget); a restart that
  lands inside the budget answers a normal 200 instead of a 503.
  Failures after dispatch retry only for idempotent (authenticate)
  operations.
* Graceful drain — the ``drain-shard`` admin envelope (router-resident)
  flips a shard out of the routing set: new sub-frames rebalance onto
  the remaining shards via the ring's deterministic exclude-walk while
  in-flight requests complete; ``undrain`` restores the original
  bit-for-bit mapping.

Run a 4-worker cluster over a persisted registry::

    python -m repro.service.cluster router --workers 4 \\
        --registry-root /var/lib/repro/registry

or spawn one worker by hand (the pool does this for you)::

    python -m repro.service.cluster worker --shard-index 0 --n-shards 4
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import subprocess
import sys
import tempfile
import threading
from bisect import bisect_right
from dataclasses import dataclass
from hashlib import sha256
from http.client import HTTPConnection, HTTPException
from http.server import ThreadingHTTPServer
from random import random
from time import monotonic, perf_counter, sleep, time
from typing import Any, Mapping, Sequence

import numpy as np

from repro.core.scoring import gather_rows, offsets_from_lengths
from repro.service import wirebin
from repro.service.envelope import (
    CODE_UNKNOWN_KEY,
    REASON_BATCH_EXCEEDS_BURST,
    REASON_RATE_LIMITED,
    SCOPE_ADMIN,
    SCOPE_DATA_WRITE,
    DeniedResponse,
    SealedResponse,
    SharedTokenBucket,
    sealed_to_payload,
)
from repro.service.protocol import (
    ColumnarAuthResult,
    DrainShardRequest,
    DrainShardResponse,
    ErrorResponse,
    ThrottledResponse,
    dumps_response,
    request_from_payload,
    response_from_payload,
    response_to_payload,
)
from repro.service.telemetry import (
    TelemetryHub,
    merge_histogram_snapshots,
    merged_hub,
)
from repro.service.tracing import (
    SPAN_SHARD_DISPATCH,
    SPAN_SHARD_MERGE,
    SPAN_SHARD_SPLIT,
    TRACE_HEADER,
    Tracer,
)
from repro.service.transport import (
    DEADLINE_HEADER,
    HEALTH_PATH,
    HISTOGRAMS_PATH,
    METRICS_PATH,
    REQUESTS_PATH,
    V2_ADMIN_PATH,
    V2_REQUESTS_PATH,
    ProtocolRequestHandler,
)
from repro.utils import serialization

#: Environment variable carrying the shared cluster API key from the pool
#: manager to its workers (kept off the command line, which is visible to
#: every process on the machine).
CLUSTER_API_KEY_ENV = "REPRO_CLUSTER_API_KEY"

#: The caller id the pool provisions on every worker (one credential, one
#: fleet-wide identity — and one shared quota, when a rate is set).
CLUSTER_CALLER_ID = "cluster-operator"

#: Virtual nodes per shard on the hash ring.  More replicas smooth the
#: key-space split (64 keeps the largest/smallest shard within a few
#: percent of each other at 4 shards) at O(n_shards * replicas) ring size.
RING_REPLICAS = 64


class ShardUnavailable(ConnectionError):
    """A request needed a shard whose worker is down (typed 503).

    Raised by the router's forwarding layer when a worker cannot be
    reached (process dead, connect refused, socket torn mid-exchange).
    The pool's health loop restarts crashed workers, so the condition is
    transient: clients should back off briefly and retry.
    """

    def __init__(self, shard: int, reason: str, dispatched: bool = False) -> None:
        super().__init__(
            f"shard-unavailable: shard {shard} ({reason}); crashed workers "
            "are restarted automatically — retry shortly"
        )
        self.shard = shard
        #: True when the request may have reached the worker before the
        #: failure.  The router's retry layer re-sends freely while this
        #: is False (nothing was dispatched, so nothing can double-run);
        #: once True, only idempotent operations are retried.
        self.dispatched = dispatched


class _WorkerFault(Exception):
    """A worker answered a non-frame (JSON) fault; relay status + body."""

    def __init__(self, shard: int, status: int, body: bytes) -> None:
        message = body.decode("utf-8", "replace")
        try:
            message = str(json.loads(message).get("message", message))
        except (ValueError, AttributeError):
            pass
        super().__init__(f"shard {shard} answered {status}: {message}")
        self.shard = shard
        self.status = status
        self.body = body


class _FrameRejected(Exception):
    """Internal unwind: a worker rejected the frame (denied/throttled).

    Routed through the frame-charge error path so the router refunds its
    pre-split quota charge — the operation never ran — before answering
    the typed rejection; never escapes :meth:`ShardRouter.route_frame`.
    """

    def __init__(
        self, body: bytes, rejection: "DeniedResponse | ThrottledResponse"
    ) -> None:
        super().__init__(rejection.request_kind)
        self.body = body
        self.rejection = rejection


@dataclass(frozen=True)
class RetryPolicy:
    """Router-side retry budget for shard exchanges (backoff + deadline).

    The pool's health loop restarts a crashed worker within a second or
    two, so a sub-frame that meets a dead shard usually succeeds if the
    router simply re-resolves the endpoint and tries again.  Retries use
    capped exponential backoff with full jitter and stop at whichever
    comes first: the attempt cap, the policy deadline, or the client's
    own ``X-Deadline-S`` budget.

    A failure whose request may already have reached a worker
    (``ShardUnavailable.dispatched``) is retried only for idempotent
    operations — authenticate reads nothing and writes nothing, so
    re-scoring a window is always safe; enroll and drift-report are not
    re-sent once dispatched.

    The defaults are deliberately snappy (covers transient socket blips
    and fast respawns without stalling callers); crash-storm tolerance
    wants a bigger budget, e.g. ``RetryPolicy(max_attempts=30,
    deadline_s=30.0)``.
    """

    max_attempts: int = 4
    initial_backoff_s: float = 0.05
    max_backoff_s: float = 0.5
    multiplier: float = 2.0
    jitter: float = 0.5
    deadline_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.initial_backoff_s <= 0.0 or self.max_backoff_s <= 0.0:
            raise ValueError("backoff bounds must be > 0")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")
        if self.deadline_s <= 0.0:
            raise ValueError(f"deadline_s must be > 0, got {self.deadline_s}")

    def backoff_s(self, attempt: int) -> float:
        """The wait before retry number *attempt* (0-based), jittered."""
        base = min(
            self.max_backoff_s, self.initial_backoff_s * self.multiplier**attempt
        )
        return base * (1.0 + self.jitter * random())


# --------------------------------------------------------------------- #
# consistent-hash ring
# --------------------------------------------------------------------- #


class HashRing:
    """Consistent-hash ring over shard indices (deterministic everywhere).

    Hashing is SHA-256 (never Python's salted ``hash()``), so every
    process — router, workers, offline tooling — that builds a ring of
    the same ``n_shards`` maps each ``user_id`` to the same shard.  Each
    shard owns :data:`RING_REPLICAS` virtual nodes, which keeps the
    key-space split even and, when the ring grows by one shard, moves
    only ~``1/n`` of the users.

    Raises
    ------
    ValueError
        If *n_shards* or *replicas* is not positive.
    """

    def __init__(self, n_shards: int, replicas: int = RING_REPLICAS) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.n_shards = int(n_shards)
        self.replicas = int(replicas)
        points: list[tuple[int, int]] = []
        for shard in range(self.n_shards):
            for replica in range(self.replicas):
                digest = sha256(f"shard-{shard}/{replica}".encode("utf-8")).digest()
                points.append((int.from_bytes(digest[:8], "big"), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._shards = [shard for _, shard in points]

    def shard_for(self, user_id: str, exclude: Sequence[int] = ()) -> int:
        """The shard owning *user_id* (stable across processes and runs).

        *exclude* removes shards from consideration (draining, for live
        resharding): the lookup walks clockwise from the user's ring
        point to the first virtual node of a non-excluded shard.  With no
        exclusions the walk stops at step zero, so decisions are
        bit-for-bit identical to the plain lookup — and users whose
        owning shard is *not* excluded never move at all.

        Raises
        ------
        ValueError
            If *exclude* covers every shard.
        """
        digest = sha256(user_id.encode("utf-8")).digest()
        point = int.from_bytes(digest[:8], "big")
        index = bisect_right(self._points, point) % len(self._points)
        if not exclude:
            return self._shards[index]
        excluded = frozenset(exclude)
        for step in range(len(self._points)):
            shard = self._shards[(index + step) % len(self._points)]
            if shard not in excluded:
                return shard
        raise ValueError(
            f"every shard is excluded ({sorted(excluded)}): the ring has "
            "nowhere left to place users"
        )

    def split(
        self, user_ids: Sequence[str], exclude: Sequence[int] = ()
    ) -> dict[int, list[int]]:
        """Group positions of *user_ids* by owning shard (order preserved)."""
        groups: dict[int, list[int]] = {}
        excluded = frozenset(exclude)
        for index, user_id in enumerate(user_ids):
            groups.setdefault(self.shard_for(user_id, excluded), []).append(index)
        return groups


# --------------------------------------------------------------------- #
# frame merge
# --------------------------------------------------------------------- #


def merge_columns(
    frame: wirebin.RequestFrame,
    groups: Mapping[int, Sequence[int]],
    results: Mapping[int, wirebin.ResponseFrame],
    caller_id: str | None,
) -> bytes:
    """Reassemble per-shard columnar results in original request order.

    *groups* maps each shard to the original positions of the requests
    its sub-frame carried (in sub-frame order), and *results* maps it to
    the shard's decoded response frame; the answer is the response frame
    the unsplit frame would have produced.
    """
    n_requests = frame.n_requests
    lengths = np.zeros(n_requests, dtype=np.int64)
    versions = np.zeros(n_requests, dtype=np.int64)
    # Where each request's rows start in the shards' concatenated columns.
    starts = np.zeros(n_requests, dtype=np.intp)
    errors: dict[int, ErrorResponse] = {}
    shard_columns: list[ColumnarAuthResult] = []
    base = 0
    for shard, indices in groups.items():
        columns = results[shard].columns
        if columns is None:
            raise ValueError(
                f"shard {shard} answered a non-columnar frame for an "
                "authenticate dispatch"
            )
        if columns.n_requests != len(indices):
            raise ValueError(
                f"shard {shard} answered {columns.n_requests} result(s) for "
                f"{len(indices)} request(s)"
            )
        originals = np.asarray(indices, dtype=np.intp)
        lengths[originals] = columns.lengths
        versions[originals] = columns.model_versions
        starts[originals] = offsets_from_lengths(columns.lengths)[:-1] + base
        base += len(columns.scores)
        for position, error in columns.errors.items():
            if not 0 <= position < len(originals):
                raise ValueError(
                    f"shard {shard} answered an error for request position "
                    f"{position} of {len(originals)}"
                )
            errors[int(originals[position])] = error
        shard_columns.append(columns)
    rows = gather_rows(starts, lengths)
    merged = ColumnarAuthResult(
        user_ids=frame.user_ids,
        scores=np.concatenate([c.scores for c in shard_columns])[rows],
        accepted=np.concatenate([c.accepted for c in shard_columns])[rows],
        model_context_codes=np.concatenate(
            [c.model_context_codes for c in shard_columns]
        )[rows],
        lengths=lengths,
        model_versions=versions,
        errors=errors,
    )
    return wirebin.encode_columnar_response(merged, frame.frame_id, caller_id)


# --------------------------------------------------------------------- #
# worker pool
# --------------------------------------------------------------------- #


class StaticEndpoints:
    """A fixed set of already-running shard servers (no child processes).

    The pool interface over servers something else owns — in-process
    :class:`~repro.service.transport.ServiceHTTPServer` instances in unit
    tests, or an externally orchestrated fleet.  There is nothing to
    spawn, restart or reap; a dead endpoint simply keeps failing until
    its owner revives it.
    """

    def __init__(self, endpoints: Sequence[tuple[str, int]]) -> None:
        if not endpoints:
            raise ValueError("endpoints must name at least one shard server")
        self._endpoints = [(str(host), int(port)) for host, port in endpoints]

    @property
    def n_shards(self) -> int:
        return len(self._endpoints)

    def start(self) -> "StaticEndpoints":
        return self

    def stop(self) -> None:
        pass

    def endpoint(self, shard: int) -> tuple[str, int] | None:
        return self._endpoints[shard]

    def report_failure(self, shard: int, reason: str) -> None:
        pass

    def health(self) -> dict[str, dict[str, Any]]:
        return {
            str(shard): {
                "alive": True,
                "host": host,
                "port": port,
                "pid": None,
                "restarts": 0,
                "last_crash_ts": None,
                "last_error": None,
            }
            for shard, (host, port) in enumerate(self._endpoints)
        }


class _WorkerHandle:
    """Mutable per-shard state of one pooled worker process."""

    __slots__ = (
        "shard",
        "process",
        "port",
        "restarts",
        "alive",
        "last_error",
        "last_crash_ts",
    )

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.process: subprocess.Popen | None = None
        self.port = 0
        self.restarts = 0
        self.alive = False
        self.last_error: str | None = None
        self.last_crash_ts: float | None = None


class WorkerPool:
    """Spawns, health-checks and restarts N shard worker processes.

    Each worker is ``python -m repro.service.cluster worker`` serving the
    full transport stack on a free port; the pool learns the port from
    the worker's ``READY <port>`` line.  A background health loop polls
    the processes and respawns any that die (unless *restart* is off —
    tests pin crash semantics that way).  Workers inherit the pool's
    stdin pipe and exit on EOF, so no orphans survive the owning process,
    however it dies.

    Parameters
    ----------
    n_workers:
        Shard count; must match the router's ring size (the router builds
        its ring from this pool, so that is automatic).
    registry_root:
        Optional persisted :class:`~repro.service.registry.ModelRegistry`
        directory every worker loads at startup — all shards then serve
        the same model snapshot.
    api_key:
        The shared cluster credential (generated when omitted; read it
        back from :attr:`api_key`).  Handed to workers via the
        :data:`CLUSTER_API_KEY_ENV` environment variable.
    caller_rate, caller_burst:
        Fleet-wide quota for the cluster caller: when a rate is set, every
        worker attaches one :class:`~repro.service.envelope.SharedTokenBucket`
        over the same state file (*quota_path*), so the limit holds across
        shards in aggregate.
    quota_path:
        The shared quota state file (a temporary one per pool when
        omitted and a rate is set).
    restart:
        Respawn crashed workers (default).  In-flight requests to a dead
        shard still answer 503; the restarted worker serves what the
        registry root persisted.
    no_queue:
        Disable the workers' micro-batch queues (binary frames bypass
        them either way).
    health_interval_s, spawn_timeout_s:
        Health-poll cadence and the per-worker READY deadline.
    worker_args:
        Extra CLI arguments appended to every worker command line (e.g.
        ``["--trace-sample-rate", "0.1"]``).
    """

    def __init__(
        self,
        n_workers: int,
        registry_root: str | os.PathLike | None = None,
        host: str = "127.0.0.1",
        api_key: str | None = None,
        caller_id: str = CLUSTER_CALLER_ID,
        caller_scopes: Sequence[str] = (SCOPE_DATA_WRITE, SCOPE_ADMIN),
        caller_rate: float = 0.0,
        caller_burst: float = 0.0,
        quota_path: str | os.PathLike | None = None,
        restart: bool = True,
        no_queue: bool = False,
        health_interval_s: float = 0.25,
        spawn_timeout_s: float = 120.0,
        worker_args: Sequence[str] = (),
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        self.registry_root = None if registry_root is None else os.fspath(registry_root)
        self.host = host
        self.api_key = api_key if api_key is not None else wirebin.new_frame_id()
        self.caller_id = caller_id
        self.caller_scopes = tuple(caller_scopes)
        self.caller_rate = float(caller_rate)
        self.caller_burst = float(caller_burst)
        self.restart = restart
        self.no_queue = no_queue
        self.health_interval_s = float(health_interval_s)
        self.spawn_timeout_s = float(spawn_timeout_s)
        self.worker_args = tuple(worker_args)
        self._quota_dir: tempfile.TemporaryDirectory | None = None
        if quota_path is None and self.caller_rate > 0.0:
            self._quota_dir = tempfile.TemporaryDirectory(prefix="repro-quota-")
            quota_path = os.path.join(self._quota_dir.name, "cluster-quota.json")
        self.quota_path = None if quota_path is None else os.fspath(quota_path)
        self._workers = [_WorkerHandle(shard) for shard in range(self.n_workers)]
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._health_thread: threading.Thread | None = None

    @property
    def n_shards(self) -> int:
        return self.n_workers

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "WorkerPool":
        """Spawn every worker, await READY, start the health loop."""
        for handle in self._workers:
            self._spawn(handle)
        self._stopping.clear()
        self._health_thread = threading.Thread(
            target=self._health_loop, name="worker-pool-health", daemon=True
        )
        self._health_thread.start()
        return self

    def stop(self) -> None:
        """Stop every worker gracefully (EOF on stdin, then escalate)."""
        self._stopping.set()
        if self._health_thread is not None:
            self._health_thread.join()
            self._health_thread = None
        for handle in self._workers:
            process = handle.process
            handle.alive = False
            if process is None or process.poll() is not None:
                continue
            try:
                if process.stdin is not None:
                    process.stdin.close()
                process.wait(timeout=5.0)
            except (OSError, subprocess.TimeoutExpired):
                process.terminate()
                try:
                    process.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait()
        if self._quota_dir is not None:
            self._quota_dir.cleanup()
            self._quota_dir = None

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # spawning
    # ------------------------------------------------------------------ #

    def _command(
        self,
        shard: int,
        restarts: int = 0,
        last_crash_ts: float | None = None,
    ) -> list[str]:
        command = [
            sys.executable,
            "-m",
            "repro.service.cluster",
            "worker",
            "--shard-index",
            str(shard),
            "--n-shards",
            str(self.n_workers),
            "--host",
            self.host,
            "--port",
            "0",
            "--caller-id",
            self.caller_id,
            "--caller-scopes",
            ",".join(self.caller_scopes),
        ]
        if self.registry_root is not None:
            command += ["--registry-root", self.registry_root]
        if self.caller_rate > 0.0:
            command += ["--caller-rate", str(self.caller_rate)]
            if self.caller_burst > 0.0:
                command += ["--caller-burst", str(self.caller_burst)]
            if self.quota_path is not None:
                command += ["--quota-path", self.quota_path]
                # The router charges the shared bucket once per frame
                # before the split; workers it spawns honor the prepaid
                # marker on sub-frames instead of charging again.
                command.append("--trust-prepaid")
        if self.no_queue:
            command.append("--no-queue")
        if restarts:
            # Restart lineage rides into the respawned worker so its own
            # /healthz reports how many lives this shard has burned.
            command += ["--restarts", str(restarts)]
            if last_crash_ts is not None:
                command += ["--last-crash-ts", repr(last_crash_ts)]
        command.extend(self.worker_args)
        return command

    def _environment(self) -> dict[str, str]:
        environment = dict(os.environ)
        environment[CLUSTER_API_KEY_ENV] = self.api_key
        # The worker must import this very ``repro`` package regardless of
        # how the parent found it (installed, PYTHONPATH, editable).
        package_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        existing = environment.get("PYTHONPATH", "")
        paths = [package_root] + ([existing] if existing else [])
        environment["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
        return environment

    def _spawn(self, handle: _WorkerHandle) -> None:
        process = subprocess.Popen(
            self._command(handle.shard, handle.restarts, handle.last_crash_ts),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=self._environment(),
            text=True,
        )
        try:
            port = self._await_ready(process)
        except Exception:
            process.kill()
            process.wait()
            raise
        with self._lock:
            handle.process = process
            handle.port = port
            handle.alive = True
            handle.last_error = None
        threading.Thread(
            target=self._drain_stdout, args=(process.stdout,), daemon=True
        ).start()

    def _await_ready(self, process: subprocess.Popen) -> int:
        """The port from the worker's ``READY <port>`` startup line."""
        assert process.stdout is not None
        deadline = monotonic() + self.spawn_timeout_s
        while True:
            if process.poll() is not None:
                raise RuntimeError(
                    f"worker exited with status {process.returncode} before "
                    "printing READY"
                )
            remaining = deadline - monotonic()
            if remaining <= 0.0:
                raise RuntimeError(
                    f"worker not READY within {self.spawn_timeout_s:.0f}s"
                )
            readable, _, _ = select.select(
                [process.stdout], [], [], min(remaining, 0.5)
            )
            if not readable:
                continue
            line = process.stdout.readline()
            if line.startswith("READY "):
                return int(line.split()[1])

    @staticmethod
    def _drain_stdout(stream: Any) -> None:
        """Keep reading a worker's stdout so its pipe can never fill."""
        try:
            while stream.readline():
                pass
        except (OSError, ValueError):
            pass

    # ------------------------------------------------------------------ #
    # health + discovery
    # ------------------------------------------------------------------ #

    def _health_loop(self) -> None:
        while not self._stopping.wait(self.health_interval_s):
            for handle in self._workers:
                process = handle.process
                if process is None:
                    continue
                returncode = process.poll()
                if returncode is None:
                    continue
                handle.alive = False
                handle.last_error = f"worker process exited with status {returncode}"
                handle.last_crash_ts = time()
                if not self.restart or self._stopping.is_set():
                    continue
                handle.restarts += 1
                try:
                    self._spawn(handle)
                except Exception as error:  # spawn failed; retry next tick
                    handle.last_error = (
                        f"restart failed: {type(error).__name__}: {error}"
                    )

    def endpoint(self, shard: int) -> tuple[str, int] | None:
        """The live ``(host, port)`` of *shard*, or ``None`` while down."""
        handle = self._workers[shard]
        if not handle.alive:
            return None
        return (self.host, handle.port)

    def report_failure(self, shard: int, reason: str) -> None:
        """Router feedback: an exchange with *shard* failed.

        Only a dead process marks the shard down (the health loop then
        restarts it); a transient socket error against a live process
        leaves it in rotation.
        """
        handle = self._workers[shard]
        process = handle.process
        if process is not None and process.poll() is not None:
            handle.alive = False
            handle.last_error = reason
            handle.last_crash_ts = time()

    def pids(self) -> dict[int, int | None]:
        """Current worker pid per shard (``None`` while down)."""
        return {
            handle.shard: (
                handle.process.pid
                if handle.process is not None and handle.process.poll() is None
                else None
            )
            for handle in self._workers
        }

    def health(self) -> dict[str, dict[str, Any]]:
        """Per-shard liveness for the router's ``/healthz``."""
        report: dict[str, dict[str, Any]] = {}
        for handle in self._workers:
            process = handle.process
            report[str(handle.shard)] = {
                "alive": handle.alive,
                "host": self.host,
                "port": handle.port,
                "pid": (
                    process.pid
                    if process is not None and process.poll() is None
                    else None
                ),
                "restarts": handle.restarts,
                "last_crash_ts": handle.last_crash_ts,
                "last_error": handle.last_error,
            }
        return report


# --------------------------------------------------------------------- #
# shard router
# --------------------------------------------------------------------- #


class _RouterRequestHandler(ProtocolRequestHandler):
    """The router's door: JSON relays by ``user_id``, frames split per shard."""

    server: "ShardRouter"
    counter_prefix = "router"
    # JSON bodies are relayed, not interpreted: plain JSON keeps the
    # forwarded payloads exactly as the client sent them.
    parse_json = staticmethod(json.loads)

    def _send_unavailable(
        self, kind: str, error: ShardUnavailable, payload: Any = None
    ) -> None:
        """Answer a typed 503, sealed when the failed exchange was enveloped.

        A v2 caller expects every JSON answer sealed (the client's unseal
        verifies the request-id echo); handing it the bare v1 error shape
        would turn a typed shard outage into a client-side parse error.
        *payload* is the already-decoded request body — an envelope dict
        (v2 single/admin), a list of envelopes (v2 batch, answered
        per-envelope), or ``None`` for the legacy plane.
        """
        self._count("unavailable")
        response = ErrorResponse(
            request_kind=kind, error="ShardUnavailable", message=str(error)
        )
        headers = {"Retry-After": "1"}

        def _sealed(item: Any) -> dict:
            request_id = (
                str(item.get("request_id", "")) if isinstance(item, dict) else ""
            )
            return sealed_to_payload(
                SealedResponse(response=response, request_id=request_id)
            )

        if isinstance(payload, dict):
            self._send_json(503, serialization.dumps(_sealed(payload)), headers)
        elif isinstance(payload, list):
            self._send_json(
                503,
                serialization.dumps([_sealed(item) for item in payload]),
                headers,
            )
        else:
            self._send_json(503, dumps_response(response), headers)

    # ------------------------------------------------------------------ #
    # door hooks
    # ------------------------------------------------------------------ #

    def _metrics_snapshot(self) -> dict[str, Any]:
        return self.server.fleet_metrics()

    def _metrics_hub(self) -> TelemetryHub:
        view = self.server.fleet_metrics()
        return merged_hub(view["counters"], view["histograms"])

    def _dispatch_json(self, payload: dict | list, raw: bytes) -> None:
        try:
            if self.path == V2_ADMIN_PATH:
                self._handle_admin(payload, raw)
            elif isinstance(payload, list):
                self._handle_json_batch(payload)
            else:
                self._handle_json_single(payload, raw)
        except ShardUnavailable as error:
            self._send_unavailable(
                "transport",
                error,
                None if self.path == REQUESTS_PATH else payload,
            )
        except _WorkerFault as fault:
            self._send_raw(fault.status, fault.body)

    def _dispatch_frame(
        self, frame: wirebin.RequestFrame, trace_id: str | None
    ) -> tuple[bytes, DeniedResponse | ThrottledResponse | None]:
        return self.server.route_frame(
            frame, trace_id=trace_id, deadline_s=self._deadline_s()
        )

    def _echoes_trace(self) -> bool:
        # The id was forwarded to the workers, which may have traced it.
        return True

    def _abort_marker(self, error: Exception) -> str | None:
        if isinstance(error, ShardUnavailable):
            # Torn-stream semantics across the process boundary: the shard
            # died mid-stream, so the caller gets every completed frame
            # plus a typed abort marker telling it exactly how many ran.
            self._count("stream_aborts")
            return "ShardUnavailable"
        if isinstance(error, _WorkerFault):
            return "RuntimeError"
        return super()._abort_marker(error)

    def _send_failure(self, error: Exception, status: int | None = None) -> None:
        if isinstance(error, ShardUnavailable):
            self._send_unavailable("binary-frame", error)
        elif isinstance(error, _WorkerFault):
            self._send_raw(error.status, error.body)
        else:
            super()._send_failure(error, status=500)

    # ------------------------------------------------------------------ #
    # JSON routing
    # ------------------------------------------------------------------ #

    def _route_user_id(self, payload: Any) -> str | None:
        """The routing key of one JSON request/envelope payload."""
        if not isinstance(payload, dict):
            return None
        request = payload.get("request")
        if isinstance(request, dict):  # v2 envelope
            user_id = request.get("user_id")
        else:  # v1 bare request
            user_id = payload.get("user_id")
        return user_id if isinstance(user_id, str) and user_id else None

    def _request_kind(self, payload: Any) -> str | None:
        """The wire kind of one JSON request/envelope payload."""
        if not isinstance(payload, dict):
            return None
        request = payload.get("request")
        source = request if isinstance(request, dict) else payload
        kind = source.get("kind")
        return kind if isinstance(kind, str) else None

    def _deadline_s(self) -> float | None:
        """The client's total-request budget from ``X-Deadline-S``."""
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            return None
        return value if value > 0.0 else None

    def _forward_headers(self) -> dict[str, str]:
        forwarded = {}
        for name in (TRACE_HEADER, DEADLINE_HEADER):
            value = self.headers.get(name)
            if value:
                forwarded[name] = value
        return forwarded

    def _relay(self, status: int, data: bytes, headers: Mapping[str, str]) -> None:
        """Answer with a worker's response, verbatim."""
        relayed = {
            name: headers[name]
            for name in ("Retry-After", TRACE_HEADER)
            if name in headers
        }
        self._send_raw(
            status,
            data,
            headers.get("Content-Type", "application/json"),
            relayed,
        )

    def _handle_json_single(self, payload: dict, raw: bytes) -> None:
        user_id = self._route_user_id(payload)
        if user_id is None:
            self._reject(
                "transport",
                ValueError("cannot route: the request carries no user_id"),
            )
            return
        shard = self.server.ring.shard_for(user_id, exclude=self.server.draining())
        status, data, headers = self.server.reliable_exchange(
            shard,
            "POST",
            self.path,
            raw,
            "application/json",
            self._forward_headers(),
            idempotent=self._request_kind(payload) == "authenticate",
            deadline_s=self._deadline_s(),
        )
        self._relay(status, data, headers)

    def _handle_json_batch(self, payloads: list) -> None:
        """Split a JSON batch by ``user_id`` and merge answers by position."""
        legacy = self.path == REQUESTS_PATH
        answers: list[Any] = [None] * len(payloads)
        groups: dict[int, list[int]] = {}
        for index, item in enumerate(payloads):
            user_id = self._route_user_id(item)
            if user_id is None:
                # Unroutable items answer in place with a typed error (the
                # worker transport does the same for malformed ones).
                error = ErrorResponse(
                    request_kind="envelope" if not legacy else "transport",
                    error="ValueError",
                    message="cannot route: the request carries no user_id",
                )
                if legacy:
                    answers[index] = response_to_payload(error)
                else:
                    request_id = (
                        str(item.get("request_id", ""))
                        if isinstance(item, dict)
                        else ""
                    )
                    answers[index] = sealed_to_payload(
                        SealedResponse(response=error, request_id=request_id)
                    )
                continue
            groups.setdefault(
                self.server.ring.shard_for(user_id, exclude=self.server.draining()),
                [],
            ).append(index)
        headers = self._forward_headers()
        deadline_s = self._deadline_s()
        for shard in sorted(groups):
            indices = groups[shard]
            body = serialization.dumps([payloads[index] for index in indices])
            status, data, _ = self.server.reliable_exchange(
                shard,
                "POST",
                self.path,
                body.encode("utf-8"),
                "application/json",
                headers,
                idempotent=all(
                    self._request_kind(payloads[index]) == "authenticate"
                    for index in indices
                ),
                deadline_s=deadline_s,
            )
            if status != 200:
                # Whole-batch rejections (batch-too-large throttles) relay
                # as the whole request's answer.
                raise _WorkerFault(shard, status, data)
            merged = json.loads(data.decode("utf-8"))
            if not isinstance(merged, list) or len(merged) != len(indices):
                raise _WorkerFault(shard, 502, data)
            for position, index in enumerate(indices):
                answers[index] = merged[position]
        self._send_json(200, serialization.dumps(answers))

    def _handle_admin(self, payload: dict, raw: bytes) -> None:
        """Route one admin envelope: per-user ops to the owning shard,
        fleet-wide ops (snapshot, evict, detector training) to every shard.

        A broadcast succeeds only when every live shard accepts it; the
        lowest shard's sealed response answers for the fleet (per-shard
        outcomes differ only in shard-local statistics), and the first
        failure relays verbatim instead.
        """
        if self._request_kind(payload) == "drain-shard":
            # The one admin op the router answers itself: only it owns a
            # ring to rebalance (workers reject it with a typed 400).
            self._handle_drain(payload)
            return
        user_id = self._route_user_id(payload)
        headers = self._forward_headers()
        deadline_s = self._deadline_s()
        if user_id is not None:
            shard = self.server.ring.shard_for(
                user_id, exclude=self.server.draining()
            )
            status, data, response_headers = self.server.reliable_exchange(
                shard,
                "POST",
                self.path,
                raw,
                "application/json",
                headers,
                deadline_s=deadline_s,
            )
            self._relay(status, data, response_headers)
            return
        self.server.telemetry.increment("router.admin_broadcasts")
        first: tuple[int, bytes, Mapping[str, str]] | None = None
        failure: tuple[int, bytes, Mapping[str, str]] | None = None
        for shard in range(self.server.pool.n_shards):
            status, data, response_headers = self.server.reliable_exchange(
                shard,
                "POST",
                self.path,
                raw,
                "application/json",
                headers,
                deadline_s=deadline_s,
            )
            if status >= 400 and failure is None:
                failure = (status, data, response_headers)
            if first is None:
                first = (status, data, response_headers)
        answer = failure if failure is not None else first
        assert answer is not None  # n_shards >= 1
        self._relay(*answer)

    def _handle_drain(self, payload: dict) -> None:
        """Execute a ``drain-shard`` envelope against the router's ring.

        Requires the cluster operator credential (the pool's API key);
        draining flips the shard out of the routing set atomically, so
        every decision after the 200 excludes it — in-flight exchanges
        complete untouched.  The sealed response reports the resulting
        active set for the operator's runbook.
        """
        request_id = str(payload.get("request_id", ""))

        def _answer(status: int, response: Any) -> None:
            sealed = SealedResponse(response=response, request_id=request_id)
            self._send_json(status, serialization.dumps(sealed_to_payload(sealed)))

        expected = self.server.admin_api_key
        if expected is None or payload.get("api_key") != expected:
            self.server.telemetry.increment("router.drain_denied")
            denied = DeniedResponse(
                request_kind="drain-shard",
                code=CODE_UNKNOWN_KEY,
                message="drain-shard requires the cluster operator credential",
            )
            _answer(denied.http_status, denied)
            return
        try:
            request = request_from_payload(payload["request"])
            if not isinstance(request, DrainShardRequest):
                raise TypeError(
                    f"expected a drain-shard request, got "
                    f"{type(request).__name__}"
                )
            active = self.server.set_draining(
                request.shard, undrain=request.undrain
            )
        except (KeyError, TypeError, ValueError) as error:
            _answer(400, self._client_error("drain-shard", error))
            return
        _answer(
            200,
            DrainShardResponse(
                shard=request.shard,
                draining=not request.undrain,
                active_shards=active,
            ),
        )


class ShardRouter(ThreadingHTTPServer):
    """The cluster's front door: one HTTP endpoint over N shard workers.

    Speaks the worker transport's exact wire surface — ``/v1/requests``,
    ``/v2/requests`` (JSON and binary), ``/v2/admin``, ``/healthz``,
    ``/metrics`` — through the same handler base
    (:class:`~repro.service.transport.ProtocolRequestHandler`), so any
    :class:`~repro.service.transport.ServiceClient` points at the router
    unchanged and malformed input answers exactly as at a worker.
    Requests route by consistent-hashed ``user_id``; multi-request frames
    and JSON batches are split per-shard, fanned out concurrently over
    keep-alive connections, and merged back in request order.

    Parameters
    ----------
    pool:
        A :class:`WorkerPool` (or :class:`StaticEndpoints`) naming the
        shard servers; the router's hash ring takes its size from it.
    tracer:
        Optional router-side tracer: each binary frame gets one trace
        with split/dispatch/merge spans, and its id is forwarded to the
        workers so worker-side events share it.
    timeout_s:
        Per-exchange socket timeout towards workers.
    retry_policy:
        Retry budget for shard exchanges (:class:`RetryPolicy`; ``None``
        disables retries entirely).  Default: the snappy
        ``RetryPolicy()`` — transient worker blips and fast respawns heal
        invisibly, bounded by the client's ``X-Deadline-S`` when sent.
    admin_api_key:
        Credential required by the router-resident ``drain-shard`` admin
        operation (defaults to the pool's cluster API key; ``None`` if
        the pool has none — drain requests are then denied).

    When the pool carries a fleet quota (``caller_rate`` over a
    ``quota_path``), the router charges that shared bucket **once per
    binary frame, before the split**, stamps every sub-frame ``prepaid``
    (workers spawned with ``--trust-prepaid`` skip their own charge) and
    refunds the charge when the frame fails outright — so a frame split
    across K shards, retried or not, costs exactly its request count.
    """

    daemon_threads = True
    allow_reuse_address = True
    # Dozens of client pool threads connect at once; the stdlib default
    # backlog of 5 drops the burst under load.
    request_queue_size = 128

    def __init__(
        self,
        pool: WorkerPool | StaticEndpoints,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout_s: float = 30.0,
        tracer: Tracer | None = None,
        retry_policy: RetryPolicy | None = RetryPolicy(),
        admin_api_key: str | None = None,
    ) -> None:
        super().__init__((host, port), _RouterRequestHandler)
        self.pool = pool
        self.ring = HashRing(pool.n_shards)
        self.timeout_s = float(timeout_s)
        self.tracer = tracer
        self.retry_policy = retry_policy
        self.admin_api_key = (
            admin_api_key
            if admin_api_key is not None
            else getattr(pool, "api_key", None)
        )
        # Exactly-once quota: the router's own handle on the pool's
        # fleet-wide bucket (None when the pool enforces no quota — the
        # workers then charge per sub-frame exactly as before).
        quota_path = getattr(pool, "quota_path", None)
        quota_rate = float(getattr(pool, "caller_rate", 0.0) or 0.0)
        quota_burst = float(getattr(pool, "caller_burst", 0.0) or 0.0)
        self.frame_quota = (
            SharedTokenBucket(quota_path, quota_rate, quota_burst or None)
            if quota_path is not None and quota_rate > 0.0
            else None
        )
        self.telemetry = TelemetryHub()
        self.started_at = monotonic()
        self._draining: set[int] = set()
        self._draining_lock = threading.Lock()
        self._serve_thread: threading.Thread | None = None
        self._connections: dict[tuple[str, int], list[HTTPConnection]] = {}
        self._connections_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # worker connections (keep-alive, keyed by endpoint so restarts
    # naturally retire stale sockets)
    # ------------------------------------------------------------------ #

    def _checkout(
        self, endpoint: tuple[str, int]
    ) -> tuple[HTTPConnection, bool]:
        with self._connections_lock:
            stack = self._connections.get(endpoint)
            if stack:
                return stack.pop(), True
        return HTTPConnection(endpoint[0], endpoint[1], timeout=self.timeout_s), False

    def _checkin(self, endpoint: tuple[str, int], conn: HTTPConnection) -> None:
        with self._connections_lock:
            self._connections.setdefault(endpoint, []).append(conn)

    def _close_connections(self) -> None:
        with self._connections_lock:
            stacks = list(self._connections.values())
            self._connections.clear()
        for stack in stacks:
            for conn in stack:
                conn.close()

    def worker_exchange(
        self,
        shard: int,
        method: str,
        path: str,
        body: bytes | None = None,
        content_type: str | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, bytes, dict[str, str]]:
        """One HTTP exchange with *shard*'s worker.

        Send-phase failures on a reused keep-alive socket retry once on a
        fresh connection (nothing was dispatched); a failure after the
        request went out does **not** retry — the worker may have executed
        a non-idempotent operation — and raises :class:`ShardUnavailable`.

        Raises
        ------
        ShardUnavailable
            If the shard is marked down or cannot be exchanged with.
        """
        endpoint = self.pool.endpoint(shard)
        if endpoint is None:
            self.telemetry.increment("router.shard_errors")
            raise ShardUnavailable(shard, "worker process is down")
        extra = dict(headers or {})
        if content_type is not None:
            extra["Content-Type"] = content_type
        attempts = 0
        while True:
            conn, reused = self._checkout(endpoint)
            attempts += 1
            try:
                conn.request(method, path, body=body, headers=extra)
            except (OSError, HTTPException) as error:
                conn.close()
                if reused and attempts == 1:
                    continue  # stale keep-alive socket; nothing dispatched
                self._report_failure(shard, error)
                raise ShardUnavailable(
                    shard, f"{type(error).__name__}: {error}", dispatched=False
                ) from error
            try:
                response = conn.getresponse()
                data = response.read()
            except (OSError, HTTPException) as error:
                conn.close()
                self._report_failure(shard, error)
                raise ShardUnavailable(
                    shard, f"{type(error).__name__}: {error}", dispatched=True
                ) from error
            self._checkin(endpoint, conn)
            return response.status, data, dict(response.getheaders())

    def _report_failure(self, shard: int, error: Exception) -> None:
        self.telemetry.increment("router.shard_errors")
        self.pool.report_failure(shard, f"{type(error).__name__}: {error}")

    def reliable_exchange(
        self,
        shard: int,
        method: str,
        path: str,
        body: bytes | None = None,
        content_type: str | None = None,
        headers: Mapping[str, str] | None = None,
        idempotent: bool = False,
        deadline_s: float | None = None,
    ) -> tuple[int, bytes, dict[str, str]]:
        """:meth:`worker_exchange` under the router's retry policy.

        A failure before dispatch always retries (the request never
        reached a worker); a failure after dispatch retries only when
        *idempotent*.  Each attempt re-resolves the shard's endpoint, so
        a worker the health loop respawned mid-backoff is picked up on
        its new port.  *deadline_s* caps the total time spent (the
        client's ``X-Deadline-S`` budget); the policy deadline applies
        either way.

        Raises
        ------
        ShardUnavailable
            When retries are disabled, disallowed, or exhausted.
        """
        policy = self.retry_policy
        if policy is None:
            return self.worker_exchange(shard, method, path, body, content_type, headers)
        budget = (
            policy.deadline_s
            if deadline_s is None
            else min(float(deadline_s), policy.deadline_s)
        )
        deadline = monotonic() + budget
        attempt = 0
        while True:
            try:
                result = self.worker_exchange(
                    shard, method, path, body, content_type, headers
                )
            except ShardUnavailable as error:
                if error.dispatched and not idempotent:
                    raise
                attempt += 1
                wait = policy.backoff_s(attempt - 1)
                if attempt >= policy.max_attempts or monotonic() + wait > deadline:
                    self.telemetry.increment("router.retry_exhausted")
                    raise
                self.telemetry.increment("router.retries")
                sleep(wait)
                continue
            if attempt:
                self.telemetry.increment("router.retry_successes")
            return result

    # ------------------------------------------------------------------ #
    # graceful drain + live resharding
    # ------------------------------------------------------------------ #

    def draining(self) -> frozenset[int]:
        """The shards currently excluded from new routing decisions."""
        with self._draining_lock:
            return frozenset(self._draining)

    def set_draining(self, shard: int, undrain: bool = False) -> tuple[int, ...]:
        """Mark *shard* draining (or restore it); returns the active set.

        Draining stops **new** sub-frames toward the shard — the ring's
        weighted walk rebalances its users onto the remaining shards —
        while in-flight exchanges complete untouched (nothing here closes
        a socket or signals a worker).  Deterministic: every router fed
        the same drain set makes bit-for-bit identical decisions.

        Raises
        ------
        ValueError
            If *shard* is out of range, or draining it would leave no
            active shard.
        """
        if not 0 <= shard < self.pool.n_shards:
            raise ValueError(
                f"shard must be in [0, {self.pool.n_shards}), got {shard}"
            )
        with self._draining_lock:
            if undrain:
                self._draining.discard(shard)
            else:
                remaining = (
                    set(range(self.pool.n_shards)) - self._draining - {shard}
                )
                if not remaining:
                    raise ValueError(
                        f"cannot drain shard {shard}: it is the last active "
                        "shard — undrain another shard first"
                    )
                self._draining.add(shard)
            draining = frozenset(self._draining)
        self.telemetry.increment(
            "router.undrains" if undrain else "router.drains"
        )
        return tuple(
            index
            for index in range(self.pool.n_shards)
            if index not in draining
        )

    # ------------------------------------------------------------------ #
    # exactly-once frame quota
    # ------------------------------------------------------------------ #

    def _charge_frame(
        self, frame: wirebin.RequestFrame
    ) -> tuple[float, ThrottledResponse | None]:
        """Charge the fleet bucket once for the whole frame, pre-split.

        Returns ``(tokens charged, None)`` on grant — sub-frames are then
        stamped ``prepaid`` so workers skip their own charge — or
        ``(0, rejection)`` when the budget rejects the frame.  Frames
        carrying any credential other than the cluster's own pass through
        uncharged (the workers' per-caller quotas judge them, exactly as
        before this layer existed).
        """
        quota = self.frame_quota
        if (
            quota is None
            or frame.api_key is None
            or frame.api_key != getattr(self.pool, "api_key", None)
        ):
            return 0.0, None
        count = frame.n_requests
        if count > quota.burst:
            rejection = ThrottledResponse(
                request_kind=frame.op,
                reason=REASON_BATCH_EXCEEDS_BURST,
                queue_depth=0,
                max_depth=int(quota.burst),
                retry_after_s=quota.burst / quota.rate_per_s,
            )
        else:
            retry_after = quota.acquire(count)
            if retry_after == 0.0:
                self.telemetry.increment("router.quota_charges")
                return float(count), None
            rejection = ThrottledResponse(
                request_kind=frame.op,
                reason=REASON_RATE_LIMITED,
                queue_depth=0,
                max_depth=int(quota.burst),
                retry_after_s=retry_after,
            )
        self.telemetry.increment("router.quota_throttled")
        return 0.0, rejection

    def _refund_frame(self, charged: float) -> None:
        """Undo a frame's pre-split charge after a total failure.

        The caller re-sends the whole frame on a 503/abort, so keeping
        the charge would bill the retry twice; the refund restores the
        exactly-once invariant (capped at burst, so refunds never mint)."""
        if charged <= 0.0 or self.frame_quota is None:
            return
        self.frame_quota.refund(charged)
        self.telemetry.increment("router.quota_refunds")

    # ------------------------------------------------------------------ #
    # binary frame routing
    # ------------------------------------------------------------------ #

    def route_frame(
        self,
        frame: wirebin.RequestFrame,
        trace_id: str | None = None,
        deadline_s: float | None = None,
    ) -> tuple[bytes, DeniedResponse | ThrottledResponse | None]:
        """Split one request frame per shard, fan out, merge in order.

        Returns ``(response frame bytes, frame-level rejection or None)``
        — the same contract as the worker transport's ``dispatch_frame``,
        so the handler maps single-frame rejections to their HTTP status
        identically.  Draining shards receive no new sub-frames (the ring
        walks their users onto the active shards); the fleet quota, when
        the pool carries one, is charged exactly once here and refunded
        if the frame fails outright.

        Raises
        ------
        ShardUnavailable
            If any involved shard is down or fails mid-exchange (after
            the retry policy's budget, when one is set).
        """
        self.telemetry.increment("router.frames")
        trace = (
            self.tracer.start("router-frame", trace_id=trace_id)
            if self.tracer is not None
            else None
        )
        try:
            charged, throttle = self._charge_frame(frame)
            if throttle is not None:
                body = wirebin.encode_rejection_frame(
                    frame.op, throttle, frame.frame_id, frame.n_requests
                )
                self.telemetry.increment("router.rejected_frames")
                return body, throttle
            try:
                return self._route_charged_frame(
                    frame, trace, trace_id, deadline_s, charged > 0.0
                )
            except _FrameRejected as rejected:
                # The workers rejected the frame before running it.
                self._refund_frame(charged)
                return rejected.body, rejected.rejection
            except BaseException:
                # Total failure: nothing merged, the caller re-sends the
                # whole frame — return its tokens so the retry is free.
                self._refund_frame(charged)
                raise
        finally:
            if trace is not None and self.tracer is not None:
                self.tracer.finish_frame(trace, frame.user_ids)

    def _route_charged_frame(
        self,
        frame: wirebin.RequestFrame,
        trace: Any,
        trace_id: str | None,
        deadline_s: float | None,
        prepaid: bool,
    ) -> tuple[bytes, DeniedResponse | ThrottledResponse | None]:
        started = perf_counter()
        groups = self.ring.split(frame.user_ids, exclude=self.draining())
        shards = sorted(groups)
        # The prepaid marker is always stamped by the router, never
        # echoed from the client frame: an unpaid frame cannot smuggle
        # the flag past the workers' own quota charge.
        payloads = {
            shard: wirebin.encode_frame_slice(
                frame, groups[shard], prepaid=prepaid
            )
            for shard in shards
        }
        if trace is not None:
            trace.add_span(SPAN_SHARD_SPLIT, perf_counter() - started)
            trace.annotate(shards=len(shards), requests=frame.n_requests)
        forward_trace_id = trace.trace_id if trace is not None else trace_id
        headers = {TRACE_HEADER: forward_trace_id} if forward_trace_id else {}
        idempotent = frame.op == "authenticate"

        started = perf_counter()
        results: dict[int, wirebin.ResponseFrame] = {}
        failures: dict[int, BaseException] = {}

        def _dispatch(shard: int) -> None:
            try:
                exchange_started = perf_counter()
                status, data, _ = self.reliable_exchange(
                    shard,
                    "POST",
                    V2_REQUESTS_PATH,
                    payloads[shard],
                    wirebin.CONTENT_TYPE,
                    headers,
                    idempotent=idempotent,
                    deadline_s=deadline_s,
                )
                self.telemetry.record(
                    "router.exchange", perf_counter() - exchange_started
                )
                if not data.startswith(wirebin.MAGIC):
                    raise _WorkerFault(shard, status, data)
                frames = wirebin.decode_response_frames(data)
                if len(frames) != 1:
                    raise _WorkerFault(shard, status, data)
                results[shard] = frames[0]
            except BaseException as error:  # re-raised on the handler thread
                failures[shard] = error

        threads = [
            threading.Thread(target=_dispatch, args=(shard,), daemon=True)
            for shard in shards[1:]
        ]
        for thread in threads:
            thread.start()
        _dispatch(shards[0])
        for thread in threads:
            thread.join()
        if trace is not None:
            trace.add_span(SPAN_SHARD_DISPATCH, perf_counter() - started)
        for shard in shards:
            if shard in failures:
                raise failures[shard]

        started = perf_counter()
        caller_id = next(
            (
                results[shard].caller_id
                for shard in shards
                if results[shard].caller_id
            ),
            None,
        )
        # Any shard-level rejection answers for the whole frame: the
        # frame shares one credential, so a denial is unanimous, and a
        # shared-quota throttle means the aggregate budget is spent.
        for shard in shards:
            result = results[shard]
            if result.error is not None:
                raise _WorkerFault(
                    shard, 500, dumps_response(result.error).encode("utf-8")
                )
            rejection = result.denied or result.throttled
            if rejection is not None:
                body = wirebin.encode_rejection_frame(
                    frame.op, rejection, frame.frame_id, frame.n_requests
                )
                self.telemetry.increment("router.rejected_frames")
                raise _FrameRejected(body, rejection)
        if frame.op == "authenticate":
            body = merge_columns(frame, groups, results, caller_id)
        else:
            body = self._merge_payloads(frame, groups, results, caller_id)
        if trace is not None:
            trace.add_span(SPAN_SHARD_MERGE, perf_counter() - started)
        return body, None

    def _merge_payloads(
        self,
        frame: wirebin.RequestFrame,
        groups: Mapping[int, Sequence[int]],
        results: Mapping[int, wirebin.ResponseFrame],
        caller_id: str | None,
    ) -> bytes:
        """Reassemble per-shard header-borne responses (enroll / drift)."""
        responses: list[Any] = [None] * frame.n_requests
        for shard, indices in groups.items():
            payloads = results[shard].payloads or ()
            if len(payloads) != len(indices):
                raise ValueError(
                    f"shard {shard} answered {len(payloads)} response(s) for "
                    f"{len(indices)} request(s)"
                )
            for position, original in enumerate(indices):
                responses[original] = response_from_payload(payloads[position])
        return wirebin.encode_response_frame(
            frame.op, responses, frame.frame_id, caller_id
        )

    # ------------------------------------------------------------------ #
    # fleet telemetry + health
    # ------------------------------------------------------------------ #

    def fleet_metrics(self) -> dict[str, Any]:
        """Scrape every live worker and merge: the cluster's one view.

        One ``GET /metrics/histograms`` per worker carries its counters,
        caller table and histogram bucket counts.  Counters sum (including
        the per-caller ``callers.*`` series), histogram families merge
        bucket-wise — exactly equivalent to the union of the worker
        streams, so the merged counts carry the fleet quantiles — and the
        router's own ``router.*`` counters ride along.
        """
        counters: dict[str, int] = {}
        callers: dict[str, dict[str, Any]] = {}
        histogram_maps: list[Mapping[str, Mapping]] = []
        scraped: list[int] = []
        for shard in range(self.pool.n_shards):
            try:
                _, data, _ = self.worker_exchange(shard, "GET", HISTOGRAMS_PATH)
            except ShardUnavailable:
                continue
            snapshot = json.loads(data.decode("utf-8"))
            for name, value in snapshot.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + int(value)
            for caller_id, payload in snapshot.get("callers", {}).items():
                merged = callers.setdefault(
                    caller_id, {key: 0 for key in ("requests", "denied", "throttled")}
                )
                for key in ("requests", "denied", "throttled"):
                    merged[key] += int(payload.get(key, 0))
                for key in ("scopes", "rate_limit"):
                    if key in payload:
                        merged[key] = payload[key]
            histogram_maps.append(snapshot.get("histograms", {}))
            scraped.append(shard)
        for name, value in self.telemetry.counters_snapshot().items():
            counters[name] = counters.get(name, 0) + int(value)
        return {
            "counters": counters,
            "callers": callers,
            "histograms": merge_histogram_snapshots(histogram_maps),
            "shards_scraped": scraped,
            "n_shards": self.pool.n_shards,
        }

    def health(self) -> dict[str, Any]:
        """Readiness: router liveness plus per-shard worker liveness.

        Carries the single-process ``/healthz`` keys too
        (``frontend_requests``, ``transport_requests``, ``queue_depth``
        summed across live workers) so health tooling written against
        one ``ServiceHTTPServer`` reads the cluster unchanged.  Each
        live worker's own health document rides along under its shard's
        ``shards`` entry; a worker that cannot be scraped keeps the
        pool's process-level view only.
        """
        shards = self.pool.health()
        totals = {"frontend_requests": 0, "transport_requests": 0, "queue_depth": 0}
        for shard_id, report in shards.items():
            if not report.get("alive"):
                continue
            try:
                _, data, _ = self.worker_exchange(int(shard_id), "GET", HEALTH_PATH)
            except ShardUnavailable:
                continue
            worker_health = json.loads(data.decode("utf-8"))
            report["worker"] = worker_health
            for key in totals:
                totals[key] += int(worker_health.get(key, 0))
        alive = sum(1 for report in shards.values() if report.get("alive"))
        draining = sorted(self.draining())
        crash_stamps = [
            report["last_crash_ts"]
            for report in shards.values()
            if report.get("last_crash_ts")
        ]
        return {
            "status": "ok" if alive == self.pool.n_shards else "degraded",
            "ready": alive == self.pool.n_shards,
            "uptime_s": monotonic() - self.started_at,
            "router_requests": self.telemetry.counter_value("router.requests"),
            **totals,
            "n_shards": self.pool.n_shards,
            "shards_alive": alive,
            "draining": draining,
            "restarts": sum(
                int(report.get("restarts", 0) or 0) for report in shards.values()
            ),
            "last_crash_ts": max(crash_stamps) if crash_stamps else None,
            "shards": shards,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return self.server_address[1]

    def serve_background(self) -> "ShardRouter":
        """Start serving on a daemon thread; returns ``self`` (idempotent)."""
        if self._serve_thread is None or not self._serve_thread.is_alive():
            self._serve_thread = threading.Thread(
                target=self.serve_forever, name="shard-router", daemon=True
            )
            self._serve_thread.start()
        return self

    def shutdown(self) -> None:
        """Stop serving and join the background thread."""
        super().shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join()
            self._serve_thread = None

    def server_close(self) -> None:
        super().server_close()
        self._close_connections()

    def __enter__(self) -> "ShardRouter":
        return self.serve_background()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()
        self.server_close()


# --------------------------------------------------------------------- #
# CLI: worker + router subcommands
# --------------------------------------------------------------------- #


def _watch_stdin(stop: threading.Event) -> None:
    """Signal *stop* when stdin reaches EOF (the spawning router died).

    The pool hands every worker a pipe it never writes to; the pipe
    closes when the router exits — gracefully or by SIGKILL — so workers
    can never outlive it as orphans.  Reads the raw descriptor (not the
    buffered ``sys.stdin``) so this daemon thread can never hold the
    buffer lock the interpreter needs during finalization.
    """
    try:
        fd = sys.stdin.fileno()
        while os.read(fd, 4096):
            pass
    except (OSError, ValueError):
        pass
    stop.set()


def _install_stop_handlers(stop: threading.Event) -> None:
    def _graceful(signum: int, frame: Any) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)


def _run_worker(args: argparse.Namespace) -> int:
    from repro.service.frontend import MicroBatchQueue, ServiceFrontend
    from repro.service.transport import ServiceHTTPServer

    if args.registry_root is not None:
        from repro.service.gateway import AuthenticationGateway
        from repro.service.registry import ModelRegistry

        registry = ModelRegistry(root=args.registry_root)
        loaded = registry.load()
        print(
            f"shard {args.shard_index}/{args.n_shards}: loaded {loaded} "
            f"item(s) from {args.registry_root}",
            flush=True,
        )
        frontend = ServiceFrontend(AuthenticationGateway(registry=registry))
    else:
        frontend = ServiceFrontend()

    queue = (
        None
        if args.no_queue
        else MicroBatchQueue(frontend, max_depth=args.max_depth or None)
    )
    tracer = (
        Tracer(
            sample_rate=args.trace_sample_rate,
            jsonl_path=args.trace_jsonl,
            telemetry=frontend.telemetry,
        )
        if args.trace_sample_rate > 0.0 or args.trace_jsonl
        else None
    )
    api_key = os.environ.get(CLUSTER_API_KEY_ENV) or wirebin.new_frame_id()
    scopes = tuple(
        scope.strip() for scope in args.caller_scopes.split(",") if scope.strip()
    )
    stop = threading.Event()
    with ServiceHTTPServer(
        frontend,
        host=args.host,
        port=args.port,
        queue=queue,
        tracer=tracer,
        trust_prepaid_frames=args.trust_prepaid,
        restarts=args.restarts,
        last_crash_ts=args.last_crash_ts,
    ) as server:
        server.callers.register(args.caller_id, scopes, api_key=api_key)
        if args.caller_rate > 0.0:
            if args.quota_path:
                # The fleet-wide quota: every shard charges the same
                # file-backed bucket, so the caller's aggregate rate is
                # what a single process would have enforced.
                server.callers.attach_rate_limit(
                    args.caller_id,
                    SharedTokenBucket(
                        args.quota_path,
                        args.caller_rate,
                        args.caller_burst or None,
                    ),
                )
            else:
                server.callers.set_rate_limit(
                    args.caller_id, args.caller_rate, args.caller_burst or None
                )
        _install_stop_handlers(stop)
        threading.Thread(target=_watch_stdin, args=(stop,), daemon=True).start()
        print(f"READY {server.port}", flush=True)
        try:
            stop.wait()
        except KeyboardInterrupt:
            pass
        print(
            f"shard {args.shard_index}: draining and shutting down...", flush=True
        )
    return 0


def _run_router(args: argparse.Namespace) -> int:
    pool = WorkerPool(
        args.workers,
        registry_root=args.registry_root,
        host=args.host,
        caller_id=args.caller_id,
        caller_rate=args.caller_rate,
        caller_burst=args.caller_burst,
        quota_path=args.quota_path,
        restart=not args.no_restart,
        no_queue=args.no_queue,
    )
    stop = threading.Event()
    print(f"spawning {args.workers} shard worker(s)...", flush=True)
    pool.start()
    try:
        tracer = (
            Tracer(
                sample_rate=args.trace_sample_rate,
                jsonl_path=args.trace_jsonl,
            )
            if args.trace_sample_rate > 0.0 or args.trace_jsonl
            else None
        )
        retry_policy = (
            None
            if args.no_retry
            else RetryPolicy(
                max_attempts=args.retry_attempts,
                deadline_s=args.retry_deadline_s,
            )
        )
        with ShardRouter(
            pool,
            host=args.host,
            port=args.port,
            tracer=tracer,
            retry_policy=retry_policy,
        ) as router:
            _install_stop_handlers(stop)
            print(f"READY {router.port}", flush=True)
            print(
                f"routing {V2_REQUESTS_PATH} (JSON + binary), {REQUESTS_PATH} "
                f"and {V2_ADMIN_PATH} on http://{args.host}:{router.port} "
                f"across {args.workers} shard(s) "
                f"(healthz: {HEALTH_PATH}, merged metrics: {METRICS_PATH})",
                flush=True,
            )
            print(
                f"cluster caller {args.caller_id!r} API key: {pool.api_key}",
                flush=True,
            )
            try:
                stop.wait()
            except KeyboardInterrupt:
                pass
            print("\nshutting down (draining, then closing the pool)...", flush=True)
    finally:
        pool.stop()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point: run a shard worker or the router + pool."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.cluster",
        description="Multi-process sharded serving: shard router + workers.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    worker = commands.add_parser("worker", help="serve one shard")
    worker.add_argument("--shard-index", type=int, required=True)
    worker.add_argument("--n-shards", type=int, required=True)
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument("--port", type=int, default=0)
    worker.add_argument(
        "--registry-root",
        default=None,
        help="persisted ModelRegistry directory to load and serve",
    )
    worker.add_argument("--caller-id", default=CLUSTER_CALLER_ID)
    worker.add_argument("--caller-scopes", default="data:write,admin")
    worker.add_argument("--caller-rate", type=float, default=0.0)
    worker.add_argument("--caller-burst", type=float, default=0.0)
    worker.add_argument(
        "--quota-path",
        default=None,
        help="shared token-bucket state file (fleet-wide quota)",
    )
    worker.add_argument("--max-depth", type=int, default=1024)
    worker.add_argument("--no-queue", action="store_true")
    worker.add_argument(
        "--trust-prepaid",
        action="store_true",
        help="honor the router's prepaid marker on sub-frames (skip the "
        "worker-side quota charge; only safe behind a charging router)",
    )
    worker.add_argument(
        "--restarts",
        type=int,
        default=0,
        help="restart count inherited from the pool (reported on /healthz)",
    )
    worker.add_argument(
        "--last-crash-ts",
        type=float,
        default=None,
        help="wall-clock time of this shard's last crash (for /healthz)",
    )
    worker.add_argument("--trace-sample-rate", type=float, default=0.0)
    worker.add_argument("--trace-jsonl", default=None)
    worker.set_defaults(run=_run_worker)

    router = commands.add_parser("router", help="spawn a pool and route to it")
    router.add_argument("--workers", type=int, default=4)
    router.add_argument("--host", default="127.0.0.1")
    router.add_argument("--port", type=int, default=8415)
    router.add_argument("--registry-root", default=None)
    router.add_argument("--caller-id", default=CLUSTER_CALLER_ID)
    router.add_argument("--caller-rate", type=float, default=0.0)
    router.add_argument("--caller-burst", type=float, default=0.0)
    router.add_argument("--quota-path", default=None)
    router.add_argument("--no-queue", action="store_true")
    router.add_argument(
        "--no-restart",
        action="store_true",
        help="do not respawn crashed workers (crash-semantics testing)",
    )
    router.add_argument(
        "--no-retry",
        action="store_true",
        help="disable router-side retries (a dead shard answers 503 "
        "immediately)",
    )
    router.add_argument(
        "--retry-attempts",
        type=int,
        default=RetryPolicy.max_attempts,
        help="max exchange attempts per sub-frame (default %(default)s)",
    )
    router.add_argument(
        "--retry-deadline-s",
        type=float,
        default=RetryPolicy.deadline_s,
        help="total retry budget per request in seconds; the client's "
        "X-Deadline-S header can only shrink it (default %(default)s)",
    )
    router.add_argument("--trace-sample-rate", type=float, default=0.0)
    router.add_argument("--trace-jsonl", default=None)
    router.set_defaults(run=_run_router)

    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
