"""Characterization of the worker's JSON doors.

Pins what a worker answers to fixed JSON bodies at each of its five JSON
doors: ``/v1/requests`` single and batch, ``/v2/requests`` single and
batch, and ``/v2/admin`` single.  For every case the golden file
``tests/fixtures/json_door.json`` records the status, ``Content-Type``,
``Retry-After`` and ``Connection`` headers, the exact body bytes, and the
deltas of the ``transport.*``, ``envelope.*`` and ``callers.*`` counters
and of each caller's request/denied/throttled counts.

Every case runs against a fresh, untraced server with a micro-batch queue,
over a raw ``http.client`` connection, with explicit ``request_id``\\ s.
How the doors are implemented may change; what they answer may not.

Regenerating (only for a *deliberate*, documented change of the doors)::

    PYTHONPATH=src python tests/unit/test_service_json_door.py --regenerate
"""

import json
import threading
from http.client import HTTPConnection
from pathlib import Path

import numpy as np
import pytest

from repro.features.vector import FeatureMatrix
from repro.sensors.types import CoarseContext
from repro.service.frontend import MicroBatchQueue, ServiceFrontend
from repro.service.gateway import AuthenticationGateway
from repro.service.protocol import AuthenticateRequest, EnrollRequest, request_to_payload
from repro.service.transport import (
    REQUESTS_PATH,
    V2_ADMIN_PATH,
    V2_REQUESTS_PATH,
    ServiceHTTPServer,
)
from repro.utils import serialization

GOLDEN = Path(__file__).resolve().parent.parent / "fixtures" / "json_door.json"

CALLER_ID = "door-op"
API_KEY = "door-op-key"
COUNTER_PREFIXES = ("transport.", "envelope.", "callers.")

AUTH = request_to_payload(
    AuthenticateRequest(
        user_id="alice",
        features=np.array(
            [[0.25, -0.5, 1.0, 0.0, 0.75], [-1.0, 0.5, 0.25, 1.5, -0.25]]
        ),
        contexts=(CoarseContext.STATIONARY, CoarseContext.MOVING),
    )
)
UNKNOWN_USER = {**AUTH, "user_id": "nobody"}
MISSING_FIELD = {"kind": "authenticate", "user_id": "alice"}
SNAPSHOT = {"kind": "snapshot"}
ROLLBACK_UNKNOWN = {"kind": "rollback", "user_id": "nobody"}
# A snapshot answer carries latency figures, so the pinned admin success
# is an eviction.
EVICT = {"kind": "evict", "max_versions": 2, "policy": "max_versions", "user_id": "alice"}


def envelope(request, request_id, api_key=API_KEY, api_version=2):
    payload = {
        "kind": "envelope",
        "api_version": api_version,
        "request_id": request_id,
        "idempotency_key": None,
        "request": request,
    }
    if api_key is not None:
        payload["api_key"] = api_key
    return payload


def revoke_legacy(server, monkeypatch):
    assert server.callers.revoke(server.LEGACY_CALLER_ID)


def cap_batches_at_two(server, monkeypatch):
    server.max_batch_items = 2


def _boom(*args, **kwargs):
    raise RuntimeError("processor exploded")


def process_raises(server, monkeypatch):
    monkeypatch.setattr(server.processor, "process", _boom)


def process_many_raises(server, monkeypatch):
    monkeypatch.setattr(server.processor, "process_many", _boom)


#: name -> (path, body, setup)
CASES = {
    # /v1 single
    "v1-single-authenticate": (REQUESTS_PATH, AUTH, None),
    "v1-single-unknown-user": (REQUESTS_PATH, UNKNOWN_USER, None),
    "v1-single-missing-field": (REQUESTS_PATH, MISSING_FIELD, None),
    "v1-single-revoked-caller": (REQUESTS_PATH, SNAPSHOT, revoke_legacy),
    "v1-single-process-raises": (REQUESTS_PATH, AUTH, process_raises),
    # /v1 batch
    "v1-batch-authenticate": (REQUESTS_PATH, [AUTH, AUTH], None),
    "v1-batch-unknown-user": (REQUESTS_PATH, [UNKNOWN_USER, AUTH], None),
    "v1-batch-missing-field": (REQUESTS_PATH, [MISSING_FIELD, AUTH], None),
    "v1-batch-non-object-item": (REQUESTS_PATH, [AUTH, 7, "x"], None),
    "v1-batch-empty": (REQUESTS_PATH, [], None),
    "v1-batch-revoked-caller": (REQUESTS_PATH, [SNAPSHOT, AUTH], revoke_legacy),
    "v1-batch-oversized": (REQUESTS_PATH, [AUTH, AUTH, AUTH], cap_batches_at_two),
    "v1-batch-process-raises": (
        REQUESTS_PATH,
        [AUTH, MISSING_FIELD, SNAPSHOT],
        process_many_raises,
    ),
    # /v2/requests single
    "v2-single-authenticate": (V2_REQUESTS_PATH, envelope(AUTH, "r-1"), None),
    "v2-single-unknown-user": (V2_REQUESTS_PATH, envelope(UNKNOWN_USER, "r-1"), None),
    "v2-single-missing-field": (V2_REQUESTS_PATH, envelope(MISSING_FIELD, "r-1"), None),
    "v2-single-missing-request-id": (
        V2_REQUESTS_PATH,
        {key: value for key, value in envelope(AUTH, "r-1").items() if key != "request_id"},
        None,
    ),
    "v2-single-api-version-3": (
        V2_REQUESTS_PATH,
        envelope(AUTH, "r-1", api_version=3),
        None,
    ),
    "v2-single-wrong-plane": (V2_REQUESTS_PATH, envelope(SNAPSHOT, "r-1"), None),
    "v2-single-missing-key": (
        V2_REQUESTS_PATH,
        envelope(AUTH, "r-1", api_key=None),
        None,
    ),
    "v2-single-process-raises": (
        V2_REQUESTS_PATH,
        envelope(AUTH, "r-1"),
        process_raises,
    ),
    # /v2/requests batch
    "v2-batch-authenticate": (
        V2_REQUESTS_PATH,
        [envelope(AUTH, "r-1"), envelope(AUTH, "r-2")],
        None,
    ),
    "v2-batch-unknown-user": (
        V2_REQUESTS_PATH,
        [envelope(UNKNOWN_USER, "r-1"), envelope(AUTH, "r-2")],
        None,
    ),
    "v2-batch-missing-field": (
        V2_REQUESTS_PATH,
        [envelope(MISSING_FIELD, "r-1"), envelope(AUTH, "r-2")],
        None,
    ),
    "v2-batch-non-object-item": (
        V2_REQUESTS_PATH,
        [envelope(AUTH, "r-1"), 7, "x"],
        None,
    ),
    "v2-batch-empty": (V2_REQUESTS_PATH, [], None),
    "v2-batch-api-version-3": (
        V2_REQUESTS_PATH,
        [envelope(AUTH, "r-1", api_version=3), envelope(AUTH, "r-2")],
        None,
    ),
    "v2-batch-wrong-plane": (
        V2_REQUESTS_PATH,
        [envelope(SNAPSHOT, "r-1"), envelope(AUTH, "r-2")],
        None,
    ),
    "v2-batch-missing-key": (
        V2_REQUESTS_PATH,
        [envelope(AUTH, "r-1", api_key=None), envelope(AUTH, "r-2", api_key=None)],
        None,
    ),
    "v2-batch-oversized": (
        V2_REQUESTS_PATH,
        [envelope(AUTH, f"r-{index}") for index in range(3)],
        cap_batches_at_two,
    ),
    "v2-batch-process-raises": (
        V2_REQUESTS_PATH,
        [envelope(AUTH, "r-1"), envelope(MISSING_FIELD, "r-2"), envelope(AUTH, "r-3")],
        process_many_raises,
    ),
    # /v2/admin single
    "v2-admin-evict": (V2_ADMIN_PATH, envelope(EVICT, "a-1"), None),
    "v2-admin-unknown-user": (V2_ADMIN_PATH, envelope(ROLLBACK_UNKNOWN, "a-1"), None),
    "v2-admin-missing-field": (
        V2_ADMIN_PATH,
        envelope({"kind": "rollback"}, "a-1"),
        None,
    ),
    "v2-admin-api-version-3": (
        V2_ADMIN_PATH,
        envelope(SNAPSHOT, "a-1", api_version=3),
        None,
    ),
    "v2-admin-wrong-plane": (V2_ADMIN_PATH, envelope(AUTH, "a-1"), None),
    "v2-admin-missing-key": (
        V2_ADMIN_PATH,
        envelope(SNAPSHOT, "a-1", api_key=None),
        None,
    ),
    "v2-admin-process-raises": (
        V2_ADMIN_PATH,
        envelope(SNAPSHOT, "a-1"),
        process_raises,
    ),
}


def matrix(uid, mean, n=15, d=5, context="stationary", seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(
        values=rng.normal(mean, 1.0, size=(n, d)),
        feature_names=[f"f{i}" for i in range(d)],
        user_ids=[uid] * n,
        contexts=[context] * n,
    )


def make_frontend():
    frontend = ServiceFrontend(AuthenticationGateway(min_windows_to_train=20))
    for uid, mean, seed in (("bg1", 4.0, 1), ("bg2", 6.0, 2), ("alice", 0.0, 3)):
        for context in ("stationary", "moving"):
            frontend.submit(
                EnrollRequest(
                    user_id=uid,
                    matrix=matrix(uid, mean, context=context, seed=seed),
                    train=False,
                )
            )
    frontend.gateway.train("alice")
    return frontend


def counter_deltas(before, after):
    return {
        name: value - before.get(name, 0)
        for name, value in sorted(after.items())
        if name.startswith(COUNTER_PREFIXES) and value != before.get(name, 0)
    }


def caller_counts(server):
    return {
        caller_id: [record["requests"], record["denied"], record["throttled"]]
        for caller_id, record in server.callers.snapshot().items()
    }


def caller_deltas(before, after):
    deltas = {}
    for caller_id in sorted(set(before) | set(after)):
        old = before.get(caller_id, [0, 0, 0])
        new = after.get(caller_id, old)
        if new != old:
            deltas[caller_id] = [b - a for a, b in zip(old, new)]
    return deltas


def observe(name, monkeypatch):
    """Run case *name* on a fresh server; its answer and counter deltas."""
    path, body, setup = CASES[name]
    frontend = make_frontend()
    queue = MicroBatchQueue(frontend, max_batch=32)
    server = ServiceHTTPServer(frontend, queue=queue)
    queue.start()
    try:
        server.callers.register(CALLER_ID, ("data:write", "admin"), api_key=API_KEY)
        if setup is not None:
            setup(server, monkeypatch)
        counters = server.telemetry.counters_snapshot()
        callers = caller_counts(server)
        # One exchange: accept it on a thread instead of a serve loop,
        # whose shutdown poll would cost half a second per case.
        threading.Thread(target=server.handle_request, daemon=True).start()
        connection = HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            connection.request(
                "POST",
                path,
                body=serialization.dumps(body).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            data = response.read()
        finally:
            connection.close()
        return {
            "status": response.status,
            "content_type": response.getheader("Content-Type"),
            "retry_after": response.getheader("Retry-After"),
            "connection": response.getheader("Connection"),
            "body": data.decode("utf-8"),
            "counters": counter_deltas(counters, server.telemetry.counters_snapshot()),
            "callers": caller_deltas(callers, caller_counts(server)),
        }
    finally:
        queue.stop()
        server.server_close()


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_door_answer_is_pinned(name, golden, monkeypatch):
    assert observe(name, monkeypatch) == golden[name]


def _regenerate() -> None:
    observed = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in sorted(CASES):
            observed[name] = observe(name, monkeypatch)
            monkeypatch.undo()
    GOLDEN.write_text(
        json.dumps(observed, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(observed)} cases to {GOLDEN}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv[1:]:
        _regenerate()
    else:
        print(__doc__)
