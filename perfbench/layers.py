"""Per-layer timing wrappers, installed from outside the serving code.

Each wrapped callable records its **self time**: the call's duration minus
the time its wrapped child calls on the same thread cover.  Wrappers are
installed by patching the public callables of each layer (class attributes
and every ``repro.*`` module binding of a module-level function), so the
program under test carries no tracing code of its own.  A wrapper is a
single flag test while its :class:`Recorder` is disabled.

A server process toggles recording with signals: ``SIGUSR1`` clears and
enables the recorder, ``SIGUSR2`` disables it and writes its samples to
``<dump_dir>/layers-<pid>.json``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import signal
import sys
import threading
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

#: Outermost server-side calls: their inclusive duration, at stack depth 0
#: in the process a client talks to, is ``transport.server_ms``.
SERVER_ENTRY = "transport.server_ms"

#: Telemetry counters captured at their source (``TelemetryHub.increment``).
COUNTER_NAMES = {
    "frontend.stack_cache.hits": "scoring.stack_cache_hits",
    "frontend.stack_cache.misses": "scoring.stack_cache_misses",
    "router.retries": "cluster.retries",
}
#: Telemetry latencies captured at their source (``TelemetryHub.record``).
LATENCY_NAMES = {"frontend.queue_wait": "frontend.queue_wait_ms"}


class Recorder:
    """Thread-safe store of self times, sampled values and counts."""

    def __init__(self, front: bool = True) -> None:
        self.front = front
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.times: dict[str, list[float]] = defaultdict(list)
            self.values: dict[str, list[float]] = defaultdict(list)
            self.counts: dict[str, float] = defaultdict(float)

    def stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def time(self, name: str, seconds: float) -> None:
        with self._lock:
            self.times[name].append(seconds)

    def value(self, name: str, value: float) -> None:
        with self._lock:
            self.values[name].append(float(value))

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += amount

    def samples(self) -> dict[str, Any]:
        with self._lock:
            return {
                "times": {k: list(v) for k, v in self.times.items()},
                "values": {k: list(v) for k, v in self.values.items()},
                "counts": dict(self.counts),
            }


def timed(
    recorder: Recorder,
    name: str | Callable[..., str | None],
    fn: Callable[..., Any],
    entry: bool = False,
    after: Callable[[Recorder, tuple, Any], None] | None = None,
) -> Callable[..., Any]:
    """*fn* wrapped to record its self time under *name*.

    *name* may be a function of the call's arguments returning the metric
    name, or ``None`` to leave the call unrecorded.  With *entry*, a call
    at stack depth 0 also records its inclusive time as
    :data:`SERVER_ENTRY` (front process only).  *after* sees the result.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not recorder.enabled:
            return fn(*args, **kwargs)
        metric = name(*args, **kwargs) if callable(name) else name
        if metric is None:
            return fn(*args, **kwargs)
        stack = recorder.stack()
        stack.append(0.0)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            children = stack.pop()
            if stack:
                stack[-1] += elapsed
            recorder.time(metric, elapsed - children)
            if entry and not stack and recorder.front:
                recorder.time(SERVER_ENTRY, elapsed)
        if after is not None:
            after(recorder, args, result)
        return result

    wrapper.__perfbench_wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def patch_method(cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace ``cls.attr`` with ``make(original)`` (classmethods kept)."""
    original = cls.__dict__[attr]
    if isinstance(original, classmethod):
        setattr(cls, attr, classmethod(make(original.__func__)))
    else:
        setattr(cls, attr, make(original))


def patch_function(module: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    """Replace a module function everywhere a ``repro`` module binds it."""
    original = getattr(module, attr)
    wrapped = make(original)
    for loaded in list(sys.modules.values()):
        if getattr(loaded, "__name__", "").startswith("repro") and (
            getattr(loaded, attr, None) is original
        ):
            setattr(loaded, attr, wrapped)


def _write_kind(self: Any, request: Any, *args: Any, **kwargs: Any) -> str | None:
    kind = type(request).__name__
    return "gateway.handle_write_ms" if kind in ("EnrollRequest", "DriftReport") else None


def _queued(channel: Any, request: Any, *args: Any, **kwargs: Any) -> str | None:
    from repro.service.protocol import is_data_plane

    if is_data_plane(request) and channel.server.queue is not None:
        return "frontend.queue_roundtrip_ms"
    return None


def _note_rejection(recorder: Recorder, args: tuple, result: Any) -> None:
    outcomes = result if isinstance(result, list) else [result]
    for outcome in outcomes:
        inner = getattr(outcome, "response", outcome)
        if type(inner).__name__ in ("DeniedResponse", "ThrottledResponse"):
            recorder.count("envelope.rejections")


def _note_parse(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.value("wirebin.request_bytes", len(args[1]))


def _note_split(recorder: Recorder, args: tuple, result: Any) -> None:
    if isinstance(result, dict):
        recorder.value("cluster.subframes_per_frame", len(result))


def _note_pass(recorder: Recorder, args: tuple, result: Any) -> None:
    scores = getattr(result, "scores", None)
    if scores is not None:
        recorder.value("frontend.windows_per_pass", len(scores))


def _note_publish(recorder: Recorder, args: tuple, result: Any) -> None:
    recorder.count("registry.publishes")


def install_server(recorder: Recorder) -> None:
    """Wrap every server-side layer boundary of the serving stack."""
    for name in (
        "repro.service",
        "repro.service.transport",
        "repro.service.cluster",
        "repro.service.fleet",
    ):
        importlib.import_module(name)
    from repro.core import scoring
    from repro.devices.store import FeatureStore
    from repro.service import cluster, wirebin
    from repro.service.envelope import EnvelopeProcessor
    from repro.service.frontend import ServiceFrontend
    from repro.service.gateway import AuthenticationGateway
    from repro.service.registry import ModelRegistry
    from repro.service.telemetry import TelemetryHub
    from repro.service.transport import ServiceHTTPServer, _ServerChannel

    def t(name: Any, entry: bool = False, after: Any = None) -> Callable:
        return lambda fn: timed(recorder, name, fn, entry=entry, after=after)

    # transport / envelope: the outermost server calls
    patch_method(ServiceHTTPServer, "dispatch_frame", t("transport.dispatch_frame_ms", True))
    patch_method(EnvelopeProcessor, "process", t("envelope.process_ms", True, _note_rejection))
    patch_method(EnvelopeProcessor, "process_many", t("envelope.process_ms", True, _note_rejection))
    patch_method(
        EnvelopeProcessor,
        "authorize_frame",
        t("envelope.authorize_frame_ms", after=_note_rejection),
    )
    # wirebin
    patch_function(wirebin, "parse_request_frame", t("wirebin.parse_ms", after=_note_parse))
    patch_function(wirebin, "encode_columnar_response", t("wirebin.encode_ms"))
    patch_function(wirebin, "encode_response_frame", t("wirebin.encode_ms"))
    # frontend
    patch_method(ServiceFrontend, "submit_columns", t("frontend.submit_columns_ms"))
    patch_method(ServiceFrontend, "submit_many", t("frontend.submit_many_ms"))
    # A queued single request: the HTTP handler thread blocks here while the
    # queue's thread runs the fused pass.  Timing the wait as its own call
    # keeps it out of the envelope's self time.
    patch_method(_ServerChannel, "submit", t(_queued))
    # gateway
    patch_method(AuthenticationGateway, "detect_context_codes", t("gateway.detect_ms"))
    patch_method(AuthenticationGateway, "handle", t(_write_kind))
    patch_method(AuthenticationGateway, "train", t("gateway.train_ms"))
    # store
    patch_method(FeatureStore, "append", t("store.append_ms"))
    patch_method(FeatureStore, "sample_negatives", t("store.sample_negatives_ms"))
    # registry
    patch_method(ModelRegistry, "publish", t("registry.publish_ms", after=_note_publish))
    # scoring
    patch_function(scoring, "score_stacked", t("scoring.score_stacked_ms", after=_note_pass))
    patch_function(scoring, "score_requests", t("scoring.score_requests_ms"))
    patch_method(scoring.FusedStacks, "build", t("scoring.stack_build_ms"))
    # cluster
    patch_method(cluster.ShardRouter, "route_frame", t("cluster.route_frame_ms", True))
    patch_method(cluster.HashRing, "split", t("cluster.split_ms", after=_note_split))
    patch_function(wirebin, "encode_frame_slice", t("cluster.split_ms"))
    patch_method(cluster.ShardRouter, "reliable_exchange", t("cluster.exchange_ms"))
    # The router relays JSON requests to a worker straight from its HTTP
    # handler; that handler call is the router's outermost server call.
    for attr in ("_handle_json_single", "_handle_json_batch"):
        patch_method(
            cluster._RouterRequestHandler, attr, t("cluster.forward_json_ms", True)
        )

    # counters and latencies the program already reports, read at source
    increment = TelemetryHub.increment
    record = TelemetryHub.record

    @functools.wraps(increment)
    def counting(self: Any, name: str, amount: int = 1, *args: Any, **kwargs: Any) -> Any:
        if recorder.enabled and name in COUNTER_NAMES:
            recorder.count(COUNTER_NAMES[name], amount)
        return increment(self, name, amount, *args, **kwargs)

    @functools.wraps(record)
    def recording(self: Any, name: str, seconds: float, *args: Any, **kwargs: Any) -> Any:
        if recorder.enabled and name in LATENCY_NAMES:
            recorder.time(LATENCY_NAMES[name], seconds)
        return record(self, name, seconds, *args, **kwargs)

    TelemetryHub.increment = counting  # type: ignore[method-assign]
    TelemetryHub.record = recording  # type: ignore[method-assign]


def install_client(recorder: Recorder) -> None:
    """Wrap the client's round trips (the load generator's side)."""
    from repro.service.transport import ServiceClient

    for attr in ("submit", "submit_many"):
        patch_method(
            ServiceClient,
            attr,
            lambda fn: timed(recorder, "transport.client_rtt_ms", fn),
        )


def serve_signals(recorder: Recorder, dump_dir: str) -> None:
    """SIGUSR1 clears and enables *recorder*; SIGUSR2 stops and dumps it."""

    def start(signum: int, frame: Any) -> None:
        recorder.reset()
        recorder.enabled = True

    def dump(signum: int, frame: Any) -> None:
        recorder.enabled = False
        path = os.path.join(dump_dir, f"layers-{os.getpid()}.json")
        with open(path + ".tmp", "w") as handle:
            json.dump(recorder.samples(), handle)
        os.replace(path + ".tmp", path)

    signal.signal(signal.SIGUSR1, start)
    signal.signal(signal.SIGUSR2, dump)
