"""Unit tests for the HTTP transport (server, client, status mapping)."""

import json
import socket
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.features.vector import FeatureMatrix
from repro.sensors.types import CoarseContext
from repro.service.envelope import TokenBucket
from repro.service.frontend import MicroBatchQueue, ServiceFrontend
from repro.service.gateway import AuthenticationGateway
from repro.service.protocol import (
    AuthenticateRequest,
    AuthenticationResponse,
    EnrollRequest,
    EnrollResponse,
    ErrorResponse,
    RollbackRequest,
    SnapshotRequest,
    SnapshotResponse,
    ThrottledResponse,
)
from repro.service.transport import (
    DEADLINE_HEADER,
    HEALTH_PATH,
    METRICS_PATH,
    REQUESTS_PATH,
    DeadlineExceeded,
    ServiceClient,
    ServiceHTTPServer,
    status_for_response,
)


def matrix(uid, mean, n=15, d=5, context="stationary", seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(
        values=rng.normal(mean, 1.0, size=(n, d)),
        feature_names=[f"f{i}" for i in range(d)],
        user_ids=[uid] * n,
        contexts=[context] * n,
    )


@pytest.fixture()
def frontend():
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


@pytest.fixture()
def server(frontend):
    with ServiceHTTPServer(frontend) as server:
        yield server


@pytest.fixture()
def client(server):
    with ServiceClient(port=server.port) as client:
        yield client


def raw_post(server, body, path=REQUESTS_PATH):
    """POST raw bytes, returning (status, parsed JSON body)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=body.encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


class TestStatusMapping:
    def test_success_is_200(self):
        assert status_for_response(SnapshotResponse(snapshot={})) == 200

    def test_missing_resource_is_404(self):
        error = ErrorResponse(request_kind="authenticate", error="KeyError", message="x")
        assert status_for_response(error) == 404

    def test_validation_failures_are_400(self):
        for name in ("ValueError", "TypeError", "JSONDecodeError"):
            error = ErrorResponse(request_kind="enroll", error=name, message="x")
            assert status_for_response(error) == 400

    def test_unexpected_errors_are_500(self):
        error = ErrorResponse(request_kind="drift-report", error="RuntimeError", message="x")
        assert status_for_response(error) == 500

    def test_throttled_is_429(self):
        throttled = ThrottledResponse(
            request_kind="authenticate", reason="queue-full", queue_depth=1, max_depth=1
        )
        assert status_for_response(throttled) == 429


class TestEndpoints:
    def test_healthz_reports_ok(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0.0

    def test_metrics_serves_the_telemetry_snapshot(self, client):
        client.submit(SnapshotRequest())
        snapshot = client.metrics()
        assert "counters" in snapshot and "latencies" in snapshot
        assert snapshot["counters"]["transport.requests"] >= 1

    def test_unknown_paths_answer_404(self, server):
        status, payload = raw_post(server, "{}", path="/v2/nothing")
        assert status == 404
        assert payload["kind"] == "error-response"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"http://127.0.0.1:{server.port}/nope")
        assert excinfo.value.code == 404

    def test_malformed_json_answers_400(self, server):
        status, payload = raw_post(server, "{this is not json")
        assert status == 400
        assert payload["kind"] == "error-response"
        assert payload["error"] == "JSONDecodeError"

    def test_non_request_json_answers_400(self, server):
        status, payload = raw_post(server, '"just a string"')
        assert status == 400
        assert payload["error"] == "TypeError"
        status, payload = raw_post(server, '{"kind": "teleport"}')
        assert status == 400
        assert payload["error"] == "ValueError"

    def test_missing_required_field_answers_400(self, server):
        status, payload = raw_post(server, '{"kind": "authenticate"}')
        assert status == 400
        assert payload["error"] == "ValueError"
        assert "missing required field" in payload["message"]
        assert payload["request_kind"] == "authenticate"


class TestLifecycle:
    def test_an_idle_server_shuts_down_promptly(self, frontend):
        started = time.perf_counter()
        with ServiceHTTPServer(frontend):
            pass
        assert time.perf_counter() - started < 0.2


class TestSingleRequests:
    def test_authenticate_round_trips_bit_for_bit(self, frontend, client):
        own = matrix("alice", 0.0, n=4, seed=9)
        response = client.submit(
            AuthenticateRequest(
                user_id="alice",
                features=own.values,
                contexts=(CoarseContext.STATIONARY,) * 4,
            )
        )
        assert isinstance(response, AuthenticationResponse)
        expected = frontend.gateway.scorer_for("alice").score(
            own.values, [CoarseContext.STATIONARY] * 4
        )
        np.testing.assert_array_equal(response.scores, expected.scores)
        np.testing.assert_array_equal(response.accepted, expected.accepted)
        assert response.result.model_contexts == expected.model_contexts

    def test_unknown_user_maps_to_404_with_typed_error(self, server, client):
        response = client.submit(
            AuthenticateRequest(
                user_id="ghost",
                features=np.zeros((1, 5)),
                contexts=(CoarseContext.STATIONARY,),
            )
        )
        assert isinstance(response, ErrorResponse)
        assert response.error == "KeyError"
        # And the raw HTTP exchange used the mapped status code.
        status, _ = raw_post(
            server,
            json.dumps(
                {
                    "kind": "authenticate",
                    "user_id": "ghost",
                    "features": [[0.0] * 5],
                    "contexts": ["stationary"],
                }
            ),
        )
        assert status == 404

    def test_enroll_then_authenticate_over_the_wire(self, client):
        response = client.submit(
            EnrollRequest(user_id="dora", matrix=matrix("dora", 2.0, seed=11), train=False)
        )
        assert isinstance(response, EnrollResponse)
        assert response.status == "buffered"


class TestBatchRequests:
    def test_batch_preserves_order_and_isolates_failures(self, client):
        own = matrix("alice", 0.0, n=3, seed=12)
        responses = client.submit_many(
            [
                SnapshotRequest(),
                AuthenticateRequest(
                    user_id="alice",
                    features=own.values,
                    contexts=(CoarseContext.STATIONARY,) * 3,
                ),
                RollbackRequest(user_id="ghost"),
            ]
        )
        assert isinstance(responses[0], SnapshotResponse)
        assert isinstance(responses[1], AuthenticationResponse)
        assert isinstance(responses[2], ErrorResponse)

    def test_batch_with_malformed_item_answers_per_item(self, server):
        body = json.dumps(
            [
                {"kind": "snapshot"},
                {"kind": "teleport"},
                "not even an object",
                {
                    "kind": "authenticate",
                    "user_id": "ghost",
                    "features": [[0.0] * 5],
                    "contexts": ["stationary"],
                },
            ]
        )
        status, payload = raw_post(server, body)
        assert status == 200  # batch: per-item outcomes, not a single status
        kinds = [item["kind"] for item in payload]
        assert kinds == [
            "snapshot-response",
            "error-response",
            "error-response",
            "error-response",
        ]
        assert payload[1]["error"] == "ValueError"
        assert payload[2]["error"] == "TypeError"
        assert payload[3]["error"] == "KeyError"

    def test_empty_batch_answers_empty_array(self, server, client):
        assert client.submit_many([]) == []
        status, payload = raw_post(server, "[]")
        assert status == 200
        assert payload == []

    def test_oversized_batch_is_throttled_not_dispatched(self, frontend):
        with ServiceHTTPServer(frontend, max_batch_items=3) as server:
            requests_before = frontend.telemetry.counter_value("frontend.requests")
            body = json.dumps([{"kind": "snapshot"}] * 4)
            status, payload = raw_post(server, body)
            assert status == 429
            assert payload["kind"] == "throttled-response"
            assert payload["reason"] == "batch-too-large"
            assert payload["queue_depth"] == 4
            assert payload["max_depth"] == 3
            # Nothing reached the frontend; a within-bound batch still works.
            assert frontend.telemetry.counter_value("frontend.requests") == requests_before
            status, payload = raw_post(server, json.dumps([{"kind": "snapshot"}] * 3))
            assert status == 200
            assert len(payload) == 3

    def test_rejects_degenerate_batch_bound(self, frontend):
        with pytest.raises(ValueError, match="max_batch_items"):
            ServiceHTTPServer(frontend, max_batch_items=0)


class TestThrottlingOverTheWire:
    def test_queue_full_answers_429_with_retry_after(self, frontend):
        entered, release = threading.Event(), threading.Event()
        original = frontend.gateway.handle

        def slow_handle(request, trace=None):
            entered.set()
            assert release.wait(timeout=10)
            return original(request, trace)

        frontend.gateway.handle = slow_handle
        queue = MicroBatchQueue(frontend, max_batch=1, max_depth=1)
        with ServiceHTTPServer(frontend, queue=queue) as server:
            results = {}

            def post(name, seed):
                with ServiceClient(port=server.port) as client:
                    results[name] = client.submit(
                        EnrollRequest(
                            user_id=f"slow-{name}",
                            matrix=matrix(f"slow-{name}", 1.0, n=1, seed=seed),
                            train=False,
                        )
                    )

            first = threading.Thread(target=post, args=("first", 31))
            first.start()
            assert entered.wait(timeout=5)  # worker is stuck dispatching
            second = threading.Thread(target=post, args=("second", 32))
            second.start()
            deadline = threading.Event()
            for _ in range(100):  # wait until the slot is actually occupied
                if queue.depth == 1:
                    break
                deadline.wait(0.01)
            assert queue.depth == 1
            # A third concurrent data-plane request finds the queue full:
            # typed 429.
            body = json.dumps(
                {
                    "kind": "authenticate",
                    "user_id": "ghost",
                    "features": [[0.0] * 5],
                    "contexts": ["stationary"],
                }
            )
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}{REQUESTS_PATH}",
                data=body.encode("utf-8"),
                method="POST",
            )
            try:
                with urllib.request.urlopen(request) as response:
                    raise AssertionError(f"expected 429, got {response.status}")
            except urllib.error.HTTPError as error:
                assert error.code == 429
                assert error.headers["Retry-After"] is not None
                payload = json.loads(error.read().decode("utf-8"))
            assert payload["kind"] == "throttled-response"
            assert payload["reason"] == "queue-full"
            assert payload["max_depth"] == 1
            release.set()
            first.join(timeout=10)
            second.join(timeout=10)
            assert isinstance(results["first"], EnrollResponse)
            assert isinstance(results["second"], EnrollResponse)


class TestV2Endpoints:
    """The enveloped endpoints: caller auth, plane split, status codes."""

    def _keys(self, server):
        data_key = server.callers.register("device-gw", ("data:write",))
        admin_key = server.callers.register("operator", ("admin",))
        full_key = server.callers.register("fleet", ("data:write", "admin"))
        return data_key, admin_key, full_key

    def _envelope_body(self, request_payload, api_key, request_id="req-1", **extra):
        return json.dumps(
            {
                "kind": "envelope",
                "api_version": 2,
                "request_id": request_id,
                "api_key": api_key,
                "request": request_payload,
                **extra,
            }
        )

    AUTH_PAYLOAD = {
        "kind": "authenticate",
        "user_id": "alice",
        "features": [[0.0] * 5],
        "contexts": ["stationary"],
    }

    def test_missing_api_key_answers_401_and_never_reaches_the_gateway(self, frontend, server):
        calls = []
        original = frontend.gateway.handle
        frontend.gateway.handle = lambda request, trace=None: (
            calls.append(request) or original(request, trace)
        )
        status, payload = raw_post(
            server, self._envelope_body(self.AUTH_PAYLOAD, None), path="/v2/requests"
        )
        assert status == 401
        assert payload["kind"] == "sealed-response"
        assert payload["response"]["kind"] == "denied-response"
        assert payload["response"]["code"] == "missing-api-key"
        assert payload["request_id"] == "req-1"
        assert calls == []

    def test_unknown_api_key_answers_401(self, server):
        status, payload = raw_post(
            server, self._envelope_body(self.AUTH_PAYLOAD, "bogus"), path="/v2/requests"
        )
        assert status == 401
        assert payload["response"]["code"] == "unknown-api-key"

    def test_insufficient_scope_answers_403(self, frontend, server):
        data_key, admin_key, _ = self._keys(server)
        calls = []
        original = frontend.gateway.handle
        frontend.gateway.handle = lambda request, trace=None: (
            calls.append(request) or original(request, trace)
        )
        # A data-scoped caller cannot roll back...
        status, payload = raw_post(
            server,
            self._envelope_body({"kind": "rollback", "user_id": "alice"}, data_key),
            path="/v2/admin",
        )
        assert status == 403
        assert payload["response"]["code"] == "insufficient-scope"
        assert payload["response"]["required_scope"] == "admin"
        # ...and an admin-scoped caller cannot authenticate.
        status, payload = raw_post(
            server,
            self._envelope_body(self.AUTH_PAYLOAD, admin_key),
            path="/v2/requests",
        )
        assert status == 403
        assert payload["response"]["code"] == "insufficient-scope"
        assert calls == []

    def test_control_ops_unreachable_from_the_data_endpoint(self, server):
        """Even full scopes cannot reach rollback through /v2/requests."""
        _, _, full_key = self._keys(server)
        status, payload = raw_post(
            server,
            self._envelope_body({"kind": "rollback", "user_id": "alice"}, full_key),
            path="/v2/requests",
        )
        assert status == 403
        assert payload["response"]["code"] == "wrong-plane"

    def test_data_ops_unreachable_from_the_admin_endpoint(self, server):
        _, _, full_key = self._keys(server)
        status, payload = raw_post(
            server,
            self._envelope_body(self.AUTH_PAYLOAD, full_key),
            path="/v2/admin",
        )
        assert status == 403
        assert payload["response"]["code"] == "wrong-plane"

    def test_unsupported_api_version_answers_400(self, server):
        _, _, full_key = self._keys(server)
        body = json.dumps(
            {
                "kind": "envelope",
                "api_version": 9,
                "request_id": "req-9",
                "api_key": full_key,
                "request": self.AUTH_PAYLOAD,
            }
        )
        status, payload = raw_post(server, body, path="/v2/requests")
        assert status == 400
        assert payload["response"]["code"] == "unsupported-api-version"

    def test_admitted_envelope_echoes_request_id(self, frontend, server):
        data_key, _, _ = self._keys(server)
        status, payload = raw_post(
            server,
            self._envelope_body(self.AUTH_PAYLOAD, data_key, request_id="corr-42"),
            path="/v2/requests",
        )
        assert status == 200
        assert payload["request_id"] == "corr-42"
        assert payload["caller_id"] == "device-gw"
        assert payload["response"]["kind"] == "authenticate-response"

    def test_v2_batch_answers_sealed_array(self, server):
        data_key, _, _ = self._keys(server)
        body = json.dumps(
            [
                json.loads(self._envelope_body(self.AUTH_PAYLOAD, data_key, request_id=f"b-{i}"))
                for i in range(3)
            ]
        )
        status, payload = raw_post(server, body, path="/v2/requests")
        assert status == 200
        assert [item["request_id"] for item in payload] == ["b-0", "b-1", "b-2"]
        assert all(item["kind"] == "sealed-response" for item in payload)

    def test_admin_endpoint_refuses_batches(self, server):
        _, admin_key, _ = self._keys(server)
        body = json.dumps(
            [json.loads(self._envelope_body({"kind": "snapshot"}, admin_key))]
        )
        status, payload = raw_post(server, body, path="/v2/admin")
        assert status == 400
        assert payload["kind"] == "error-response"

    def test_malformed_envelope_answers_400(self, server):
        status, payload = raw_post(server, '{"kind": "envelope"}', path="/v2/requests")
        assert status == 400
        assert payload["kind"] == "error-response"
        assert payload["error"] == "ValueError"


class TestV2Client:
    def test_v2_client_authenticates_and_routes_planes(self, frontend, server):
        api_key = server.callers.register("fleet", ("data:write", "admin"))
        with ServiceClient(port=server.port, api_key=api_key) as client:
            assert client.api_version == 2
            own = matrix("alice", 0.0, n=4, seed=9)
            response = client.submit(
                AuthenticateRequest(
                    user_id="alice",
                    features=own.values,
                    contexts=(CoarseContext.STATIONARY,) * 4,
                )
            )
            assert isinstance(response, AuthenticationResponse)
            expected = frontend.gateway.scorer_for("alice").score(
                own.values, [CoarseContext.STATIONARY] * 4
            )
            np.testing.assert_array_equal(response.scores, expected.scores)
            # Control op: the client routes it to /v2/admin transparently.
            snapshot = client.submit(SnapshotRequest())
            assert isinstance(snapshot, SnapshotResponse)

    def test_v2_client_denied_raises_permission_error(self, server):
        data_key = server.callers.register("device-gw", ("data:write",))
        with ServiceClient(port=server.port, api_key=data_key) as client:
            with pytest.raises(PermissionError, match="insufficient-scope"):
                client.submit(RollbackRequest(user_id="alice"))
        with ServiceClient(port=server.port, api_key="bogus") as client:
            with pytest.raises(PermissionError, match="unknown-api-key"):
                client.submit(SnapshotRequest())

    def test_v2_batch_matches_v1_batch_bit_for_bit(self, frontend, server):
        api_key = server.callers.register("fleet", ("data:write",))
        own = matrix("alice", 0.0, n=6, seed=13)
        requests = [
            AuthenticateRequest(
                user_id="alice",
                features=own.values[index : index + 2],
                contexts=(CoarseContext.STATIONARY,) * 2,
            )
            for index in range(0, 6, 2)
        ]
        with ServiceClient(port=server.port) as v1_client:
            v1_responses = v1_client.submit_many(requests)
        with ServiceClient(port=server.port, api_key=api_key) as v2_client:
            v2_responses = v2_client.submit_many(requests)
        for v1_response, v2_response in zip(v1_responses, v2_responses):
            np.testing.assert_array_equal(v2_response.scores, v1_response.scores)
            np.testing.assert_array_equal(v2_response.accepted, v1_response.accepted)

    def test_v2_batch_refuses_control_ops(self, server):
        api_key = server.callers.register("fleet", ("data:write", "admin"))
        with ServiceClient(port=server.port, api_key=api_key) as client:
            with pytest.raises(ValueError, match="control-plane"):
                client.submit_many([SnapshotRequest()])

    def test_idempotent_retry_replays_over_the_wire(self, frontend, server):
        api_key = server.callers.register("fleet", ("data:write",))
        with ServiceClient(port=server.port, api_key=api_key) as client:
            first = client.submit(
                EnrollRequest(
                    user_id="dora", matrix=matrix("dora", 2.0, n=5, seed=21), train=False
                ),
                idempotency_key="upload-1",
            )
            stored = frontend.gateway.server.stored_window_count("dora")
            second = client.submit(
                EnrollRequest(
                    user_id="dora", matrix=matrix("dora", 2.0, n=5, seed=22), train=False
                ),
                idempotency_key="upload-1",
            )
        assert isinstance(first, EnrollResponse)
        assert isinstance(second, EnrollResponse)
        assert second.windows_stored == first.windows_stored
        assert frontend.gateway.server.stored_window_count("dora") == stored

    def test_v1_client_rejects_idempotency_keys(self, server):
        with ServiceClient(port=server.port) as client:
            with pytest.raises(ValueError, match="v2"):
                client.submit(SnapshotRequest(), idempotency_key="nope")

    def test_metrics_report_per_caller_telemetry(self, server):
        api_key = server.callers.register("device-gw", ("data:write",))
        with ServiceClient(port=server.port, api_key=api_key) as client:
            with pytest.raises(PermissionError):
                client.submit(RollbackRequest(user_id="alice"))
            metrics = client.metrics()
        assert metrics["callers"]["device-gw"]["denied"] == 1
        assert "legacy-v1" in metrics["callers"]


class TestTraceSampling:
    @pytest.mark.parametrize("versioned", [False, True], ids=["v1", "v2"])
    def test_each_json_request_consumes_one_sampling_draw(self, frontend, versioned):
        """An unsampled request stays unsampled: the HTTP door draws once,
        and nothing downstream draws again for the same request."""
        from repro.service.tracing import Tracer

        tracer = Tracer(sample_rate=0.5, telemetry=frontend.telemetry)
        with ServiceHTTPServer(frontend, tracer=tracer) as server:
            api_key = server.callers.register("sampled", ("data:write",)) if versioned else None
            with ServiceClient(port=server.port, api_key=api_key) as client:
                for request in _auth_requests() * 3 + _auth_requests()[:1]:
                    assert isinstance(client.submit(request), AuthenticationResponse)
        events = tracer.events()
        assert len(events) == 5
        for event in events:
            assert event["kind"] == "http"
            assert "response_framing" in [span["name"] for span in event["spans"]]
        telemetry = frontend.telemetry
        assert (
            telemetry.counter_value("trace.started")
            + telemetry.counter_value("trace.unsampled")
            == 10
        )


class TestRevokedLegacyCaller:
    def test_v1_answers_typed_403_after_the_legacy_caller_is_revoked(self, server):
        """Switching the unauthenticated surface off is a typed denial, not
        a crashed handler thread."""
        assert server.callers.revoke(server.LEGACY_CALLER_ID) is True
        status, payload = raw_post(server, '{"kind": "snapshot"}')
        assert status == 403
        assert payload["kind"] == "error-response"
        assert payload["error"] == "PermissionError"
        # Batches degrade the same way, per item.
        status, payload = raw_post(server, '[{"kind": "snapshot"}]')
        assert status == 200
        assert payload[0]["kind"] == "error-response"
        assert payload[0]["error"] == "PermissionError"


class TestClientConnection:
    def test_connection_is_reused_across_calls(self, server, client):
        client.health()
        connection = client._connection
        assert connection is not None
        client.submit(SnapshotRequest())
        assert client._connection is connection

    def test_client_reconnects_after_a_drop(self, server, client):
        assert client.health()["status"] == "ok"
        client._connection.close()  # simulate the server dropping keep-alive
        assert client.health()["status"] == "ok"

    def test_unreachable_server_raises_connection_error(self):
        with ServiceClient(port=1, timeout_s=0.2) as client:
            with pytest.raises(ConnectionError):
                client.submit(SnapshotRequest())


# --------------------------------------------------------------------- #
# client resilience: typed deadlines and Retry-After honouring
# --------------------------------------------------------------------- #


class TestClientResilience:
    def test_unresponsive_server_raises_typed_deadline(self):
        # A socket that listens but never answers: the read times out and
        # must surface as the typed DeadlineExceeded, not a bare
        # socket.timeout — and still a ConnectionError for old handlers.
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            port = listener.getsockname()[1]
            with ServiceClient(port=port, timeout_s=0.3) as client:
                with pytest.raises(DeadlineExceeded) as excinfo:
                    client.submit(SnapshotRequest())
        assert isinstance(excinfo.value, ConnectionError)
        assert excinfo.value.timeout_s == pytest.approx(0.3)

    def test_deadline_header_is_advertised_on_the_wire(self):
        # A one-shot raw responder captures the request bytes so the test
        # can pin the X-Deadline-S header the shard router budgets by.
        captured = {}
        from repro.service.protocol import dumps_response

        body = dumps_response(
            ErrorResponse(
                request_kind="snapshot", error="KeyError", message="nope"
            )
        ).encode("utf-8")

        def respond(listener):
            conn, _ = listener.accept()
            with conn:
                captured["request"] = conn.recv(65536)
                conn.sendall(
                    b"HTTP/1.1 404 Not Found\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )

        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            responder = threading.Thread(
                target=respond, args=(listener,), daemon=True
            )
            responder.start()
            client = ServiceClient(
                port=listener.getsockname()[1], timeout_s=5.0, deadline_s=2.5
            )
            with client:
                response = client.submit(SnapshotRequest())
            responder.join(timeout=5.0)
        assert isinstance(response, ErrorResponse)
        assert f"{DEADLINE_HEADER}: 2.5".encode() in captured["request"]

    def test_client_rejects_invalid_resilience_knobs(self):
        with pytest.raises(ValueError, match="max_retry_wait"):
            ServiceClient(max_retry_wait=-1.0)
        with pytest.raises(ValueError, match="deadline_s"):
            ServiceClient(deadline_s=0.0)

    def test_retry_after_honoured_only_within_the_opt_in_budget(
        self, frontend
    ):
        with ServiceHTTPServer(frontend) as server:
            api_key = server.callers.register("limited", ("data:write", "admin"))
            server.callers.attach_rate_limit(
                "limited", TokenBucket(rate_per_s=2.0, burst=1.0)
            )
            # Without the opt-in, the throttle surfaces immediately, typed.
            with ServiceClient(port=server.port, api_key=api_key) as client:
                assert isinstance(client.submit(SnapshotRequest()), SnapshotResponse)
                throttled = client.submit(SnapshotRequest())
                assert isinstance(throttled, ThrottledResponse)
                assert throttled.retry_after_s > 0.0
            # With a wait budget, the client sleeps the advertised
            # Retry-After and the retried exchange succeeds.
            with ServiceClient(
                port=server.port, api_key=api_key, max_retry_wait=10.0
            ) as patient:
                assert isinstance(
                    patient.submit(SnapshotRequest()), SnapshotResponse
                )
                started = time.monotonic()
                second = patient.submit(SnapshotRequest())
                waited = time.monotonic() - started
                assert isinstance(second, SnapshotResponse)
                assert waited >= 0.4  # actually slept toward the refill

    def test_healthz_surfaces_injected_crash_history(self, frontend):
        with ServiceHTTPServer(
            frontend, restarts=3, last_crash_ts=12345.0
        ) as server:
            with ServiceClient(port=server.port) as client:
                health = client.health()
        assert health["restarts"] == 3
        assert health["last_crash_ts"] == 12345.0


# --------------------------------------------------------------------- #
# the binary columnar codec over a live socket
# --------------------------------------------------------------------- #


@pytest.fixture()
def v2(frontend):
    with ServiceHTTPServer(frontend) as server:
        api_key = server.callers.register("binary-op", ("data:write", "admin"))
        yield server, api_key


def _auth_requests(n_rows=4):
    rng = np.random.default_rng(11)
    return [
        AuthenticateRequest(
            user_id="alice",
            features=rng.normal(0.0, 1.0, size=(n_rows, 5)),
            contexts=(CoarseContext.STATIONARY, CoarseContext.MOVING) * (n_rows // 2),
        )
        for _ in range(3)
    ]


class TestBinaryCodec:
    def test_binary_and_json_answers_are_bit_for_bit_identical(self, frontend, v2):
        server, api_key = v2
        requests = _auth_requests()
        local = frontend.submit_many(requests)
        with ServiceClient(
            port=server.port, api_key=api_key, codec="binary"
        ) as binary, ServiceClient(port=server.port, api_key=api_key) as jsonc:
            remote_binary = binary.submit_many(requests)
            remote_json = jsonc.submit_many(requests)
        for reference, b, j in zip(local, remote_binary, remote_json):
            assert isinstance(b, AuthenticationResponse)
            np.testing.assert_array_equal(b.scores, reference.scores)
            np.testing.assert_array_equal(b.accepted, reference.accepted)
            np.testing.assert_array_equal(b.scores, j.scores)
            assert b.result.model_contexts == reference.result.model_contexts
            assert b.model_version == reference.model_version

    def test_binary_enroll_stores_windows_like_json(self, v2):
        server, api_key = v2
        with ServiceClient(port=server.port, api_key=api_key, codec="binary") as client:
            (response,) = client.submit_many(
                [
                    EnrollRequest(
                        user_id="newbie",
                        matrix=matrix("newbie", 1.0, n=12, seed=9),
                        train=False,
                    )
                ]
            )
        assert isinstance(response, EnrollResponse)
        assert response.status == "buffered"
        assert response.windows_stored == 12

    def test_response_content_type_is_negotiated(self, v2):
        from repro.service import wirebin

        server, api_key = v2
        body = wirebin.encode_request_frame(
            _auth_requests(), api_key=api_key, frame_id="f-1"
        )
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v2/requests",
            data=body,
            headers={"Content-Type": wirebin.CONTENT_TYPE},
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
            assert response.headers.get("Content-Type") == wirebin.CONTENT_TYPE
            frames = wirebin.decode_response_frames(response.read())
        assert len(frames) == 1 and frames[0].frame_id == "f-1"

    def test_corrupt_frame_answers_typed_400_never_a_stack_trace(self, v2):
        from repro.service import wirebin

        server, _ = v2
        for body in (b"RBC1" + b"\x00" * 20, b"garbage", b"RBC1\xff\xff\xff\xff" + b"\x00" * 64):
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}/v2/requests",
                data=body,
                headers={"Content-Type": wirebin.CONTENT_TYPE},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400
            payload = json.loads(excinfo.value.read().decode("utf-8"))
            assert payload["kind"] == "error-response"
            assert payload["error"] == "ValueError"

    def test_binary_frames_are_rejected_on_other_endpoints(self, v2):
        from repro.service import wirebin

        server, api_key = v2
        body = wirebin.encode_request_frame(_auth_requests(), api_key=api_key)
        for path in ("/v1/requests", "/v2/admin"):
            request = urllib.request.Request(
                f"http://127.0.0.1:{server.port}{path}",
                data=body,
                headers={"Content-Type": wirebin.CONTENT_TYPE},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 400
            payload = json.loads(excinfo.value.read().decode("utf-8"))
            assert "only at /v2/requests" in payload["message"]

    def test_unknown_key_raises_permission_error(self, v2):
        server, _ = v2
        with ServiceClient(
            port=server.port, api_key="wrong-key", codec="binary"
        ) as client:
            with pytest.raises(PermissionError, match="unknown-api-key"):
                client.submit_many(_auth_requests())

    def test_rate_limited_frame_answers_typed_throttles(self, v2):
        server, api_key = v2
        server.callers.set_rate_limit("binary-op", 1.0, burst=4.0)
        requests = _auth_requests()  # 3 requests per frame, 4-token burst
        with ServiceClient(port=server.port, api_key=api_key, codec="binary") as client:
            first = client.submit_many(requests)   # 3 tokens: granted
            second = client.submit_many(requests)  # 1 token left: throttled
        assert all(isinstance(r, AuthenticationResponse) for r in first)
        assert all(isinstance(r, ThrottledResponse) for r in second)
        assert second[0].reason == "rate-limited"
        assert second[0].retry_after_s > 0.0

    def test_rate_limited_single_frame_answers_http_429(self, v2):
        from repro.service import wirebin

        server, api_key = v2
        server.callers.set_rate_limit("binary-op", 1.0, burst=1.0)
        body = wirebin.encode_request_frame(
            _auth_requests()[:1], api_key=api_key, frame_id="f-429"
        )
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v2/requests",
            data=body,
            headers={"Content-Type": wirebin.CONTENT_TYPE},
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 200  # the burst token
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 429
        assert excinfo.value.headers.get("Retry-After") is not None
        (frame,) = wirebin.decode_response_frames(excinfo.value.read())
        assert frame.throttled is not None
        assert frame.throttled.reason == "rate-limited"

    def test_frame_larger_than_burst_is_typed_unsatisfiable(self, v2):
        """count > burst can never be granted — the caller must split."""
        server, api_key = v2
        server.callers.set_rate_limit("binary-op", 1.0, burst=2.0)
        requests = _auth_requests()  # 3 requests > 2-token capacity
        with ServiceClient(port=server.port, api_key=api_key, codec="binary") as client:
            responses = client.submit_many(requests)
        assert all(isinstance(r, ThrottledResponse) for r in responses)
        assert responses[0].reason == "batch-exceeds-burst"
        # Splitting below the burst succeeds (after the advertised wait).
        assert responses[0].retry_after_s == pytest.approx(2.0)

    def test_binary_codec_requires_api_key_and_known_codec(self):
        with pytest.raises(ValueError, match="api_key"):
            ServiceClient(codec="binary")
        with pytest.raises(ValueError, match="codec"):
            ServiceClient(codec="msgpack")

    def test_mixed_batches_fall_back_to_json_transparently(self, v2):
        server, api_key = v2
        with ServiceClient(port=server.port, api_key=api_key, codec="binary") as client:
            responses = client.submit_many(
                [
                    EnrollRequest(
                        user_id="mix", matrix=matrix("mix", 0.5, n=12, seed=5), train=False
                    ),
                    _auth_requests()[0],
                ]
            )
        assert isinstance(responses[0], EnrollResponse)
        assert isinstance(responses[1], AuthenticationResponse)


class TestBinaryStreaming:
    def test_streamed_upload_matches_submit_many(self, frontend, v2):
        server, api_key = v2
        requests = _auth_requests()
        local = frontend.submit_many(requests)
        with ServiceClient(port=server.port, api_key=api_key, codec="binary") as client:
            streamed = client.submit_stream(iter(requests), chunk_windows=4)
        assert len(streamed) == len(requests)
        for reference, response in zip(local, streamed):
            np.testing.assert_array_equal(response.scores, reference.scores)
            np.testing.assert_array_equal(response.accepted, reference.accepted)

    def test_stream_cuts_frames_on_operation_change(self, v2):
        server, api_key = v2
        requests = [
            EnrollRequest(
                user_id="s1", matrix=matrix("s1", 0.0, n=12, seed=6), train=False
            ),
            _auth_requests()[0],
        ]
        with ServiceClient(port=server.port, api_key=api_key, codec="binary") as client:
            responses = client.submit_stream(iter(requests), chunk_windows=1000)
        assert isinstance(responses[0], EnrollResponse)
        assert isinstance(responses[1], AuthenticationResponse)

    def test_server_dispatches_frames_before_the_upload_completes(self, v2):
        """Bounded server memory: frame 1 dispatches while frame 2 is unsent."""
        server, api_key = v2
        requests = _auth_requests()
        dispatched_early = []

        class Watching:
            def __iter__(self):
                # The frame holding request 0 is encoded and sent once
                # request 1 is pulled (the chunk boundary), so by the time
                # request 1 has been yielded the server holds a complete
                # frame while the upload is still in flight.
                for index, request in enumerate(requests):
                    yield request
                    if index == 1:
                        deadline = 100
                        while deadline:
                            if server.telemetry.counter_value(
                                "transport.binary_frames"
                            ) >= 1:
                                dispatched_early.append(True)
                                break
                            deadline -= 1
                            threading.Event().wait(0.02)

        with ServiceClient(port=server.port, api_key=api_key, codec="binary") as client:
            responses = client.submit_stream(Watching(), chunk_windows=4)
        assert len(responses) == len(requests)
        assert dispatched_early == [True]

    def test_stream_requires_binary_codec(self, v2):
        server, api_key = v2
        with ServiceClient(port=server.port, api_key=api_key) as client:
            with pytest.raises(ValueError, match="binary"):
                client.submit_stream(iter(_auth_requests()))


class TestConnectionPool:
    def test_pooled_client_serves_concurrent_submitters(self, frontend, v2):
        server, api_key = v2
        requests = _auth_requests()
        local = frontend.submit_many(requests)
        results = {}
        with ServiceClient(
            port=server.port, api_key=api_key, codec="binary", pool_size=4
        ) as client:
            def work(slot):
                results[slot] = client.submit_many(requests)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(client._idle) >= 2  # the pool actually fanned out
        for slot in range(8):
            for reference, response in zip(local, results[slot]):
                np.testing.assert_array_equal(response.scores, reference.scores)

    def test_pool_size_validated(self):
        with pytest.raises(ValueError, match="pool_size"):
            ServiceClient(pool_size=0)


class TestChunkedBodyReader:
    def _read_all(self, reader):
        parts = []
        while True:
            chunk = reader.read(65536)
            if not chunk:
                return b"".join(parts)
            parts.append(chunk)

    def test_complete_chunked_body_decodes(self):
        import io

        from repro.service.transport import _ChunkedBodyReader

        body = b"5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"
        reader = _ChunkedBodyReader(io.BytesIO(body))
        assert self._read_all(reader) == b"hello world"

    def test_truncation_at_a_chunk_boundary_raises(self):
        """A stream missing its terminal 0-chunk is torn, not complete."""
        import io

        from repro.service.transport import _ChunkedBodyReader

        reader = _ChunkedBodyReader(io.BytesIO(b"5\r\nhello\r\n"))
        assert reader.read(65536) == b"hello"
        with pytest.raises(ValueError, match="terminal chunk"):
            reader.read(65536)

    def test_truncation_inside_a_chunk_raises(self):
        import io

        from repro.service.transport import _ChunkedBodyReader

        reader = _ChunkedBodyReader(io.BytesIO(b"ff\r\nshort"))
        with pytest.raises(ValueError, match="truncated chunk"):
            self._read_all(reader)


class TestStreamAbort:
    def test_tear_after_executed_frames_delivers_their_responses(self, v2):
        """A mid-stream tear must not lose responses of dispatched frames."""
        import http.client

        from repro.service import wirebin

        server, api_key = v2
        frame = wirebin.encode_request_frame(
            _auth_requests()[:1], api_key=api_key, frame_id="f-tear"
        )
        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        connection.putrequest("POST", "/v2/requests")
        connection.putheader("Content-Type", wirebin.CONTENT_TYPE)
        connection.putheader("Transfer-Encoding", "chunked")
        connection.endheaders()
        connection.send(f"{len(frame):X}\r\n".encode() + frame + b"\r\n")
        connection.sock.shutdown(1)  # die before the terminal chunk
        response = connection.getresponse()
        assert response.status == 200
        frames = wirebin.decode_response_frames(response.read())
        assert len(frames) == 2
        assert frames[0].frame_id == "f-tear"
        assert all(
            isinstance(r, AuthenticationResponse) for r in frames[0].to_responses()
        )
        assert frames[1].error is not None
        assert "aborted after 1 dispatched frame" in frames[1].error.message
        connection.close()

    def test_tear_before_any_frame_stays_a_typed_400(self, v2):
        import http.client

        from repro.service import wirebin

        server, _ = v2
        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        connection.putrequest("POST", "/v2/requests")
        connection.putheader("Content-Type", wirebin.CONTENT_TYPE)
        connection.putheader("Transfer-Encoding", "chunked")
        connection.endheaders()
        connection.send(b"4\r\nRBC1\r\n")  # a torn prelude, then death
        connection.sock.shutdown(1)
        response = connection.getresponse()
        assert response.status == 400
        payload = json.loads(response.read().decode("utf-8"))
        assert payload["kind"] == "error-response"
        connection.close()


class TestPoolDraining:
    def test_close_also_drops_connections_returned_by_inflight_calls(self):
        class FakeConnection:
            closed = False

            def close(self):
                self.closed = True

        client = ServiceClient(pool_size=2)
        inflight = FakeConnection()
        client.close()
        client._push_idle(inflight)  # an exchange returning after close()
        assert inflight.closed
        assert client._connection is None


# --------------------------------------------------------------------- #
# end-to-end request tracing
# --------------------------------------------------------------------- #


@pytest.fixture()
def traced(frontend):
    from repro.service.tracing import Tracer

    tracer = Tracer(sample_rate=1.0, telemetry=frontend.telemetry)
    queue = MicroBatchQueue(frontend, max_batch=32)
    with ServiceHTTPServer(frontend, queue=queue, tracer=tracer) as server:
        api_key = server.callers.register("traced-op", ("data:write", "admin"))
        yield server, api_key, tracer


class TestTracing:
    STAGES = ("admission", "queue_wait", "fused_pass", "response_framing")

    def test_binary_batch_produces_per_request_traces(self, traced):
        server, api_key, tracer = traced
        requests = _auth_requests()
        with ServiceClient(
            port=server.port, api_key=api_key, codec="binary"
        ) as client:
            responses = client.submit_many(requests)
        assert all(isinstance(r, AuthenticationResponse) for r in responses)
        events = [e for e in tracer.events() if e["kind"] == "binary-frame"]
        assert len(events) == len(requests)
        assert [e["user_id"] for e in events] == ["alice"] * len(requests)
        assert [e["request_index"] for e in events] == list(range(len(requests)))
        for event in events:
            names = [span["name"] for span in event["spans"]]
            assert names == list(self.STAGES)
            span_sum = sum(span["duration_s"] for span in event["spans"])
            assert 0.0 <= span_sum <= event["total_s"]
            assert event["caller_id"] == "traced-op"
        fused = events[0]["spans"][2]
        assert fused["batch_size"] >= 1
        assert fused["flush_id"] >= 1
        assert "cache_hits" in fused and "cache_misses" in fused

    def test_single_v2_request_is_traced_through_the_queue(self, traced):
        server, api_key, tracer = traced
        with ServiceClient(port=server.port, api_key=api_key) as client:
            response = client.submit(_auth_requests()[0])
        assert isinstance(response, AuthenticationResponse)
        events = [e for e in tracer.events() if e["kind"] == "http"]
        assert len(events) == 1
        names = [span["name"] for span in events[0]["spans"]]
        assert names == list(self.STAGES)
        assert sum(s["duration_s"] for s in events[0]["spans"]) <= events[0]["total_s"]
        assert events[0]["user_id"] == "alice"

    def test_queued_json_and_binary_frame_share_one_fused_pass_span_shape(
        self, traced
    ):
        server, api_key, tracer = traced
        requests = _auth_requests()
        with ServiceClient(port=server.port, api_key=api_key) as client:
            client.submit(requests[0])
        with ServiceClient(
            port=server.port, api_key=api_key, codec="binary"
        ) as client:
            client.submit_many(requests)
        fused = {}
        for event in tracer.events():
            for span in event["spans"]:
                if span["name"] == "fused_pass":
                    fused.setdefault(event["kind"], span)
        assert set(fused) == {"http", "binary-frame"}
        assert set(fused["http"]) == set(fused["binary-frame"])
        assert fused["http"]["windows"] == len(requests[0].features)
        assert fused["binary-frame"]["windows"] == sum(
            len(request.features) for request in requests
        )

    def test_client_supplied_trace_id_is_adopted_and_echoed(self, traced):
        from repro.service.tracing import TRACE_HEADER

        server, api_key, tracer = traced
        body = json.dumps(
            {
                "kind": "envelope",
                "api_version": 2,
                "api_key": api_key,
                "request_id": "r-42",
                "request": {"kind": "snapshot"},
            }
        )
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v2/admin",
            data=body.encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                TRACE_HEADER: "trace-from-client",
            },
            method="POST",
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
            assert response.headers.get(TRACE_HEADER) == "trace-from-client"
            payload = json.loads(response.read().decode("utf-8"))
        assert payload.get("trace_id") == "trace-from-client"
        assert any(
            e["trace_id"] == "trace-from-client" for e in tracer.events()
        )

    def test_rejected_frame_trace_records_the_error(self, traced):
        from repro.service import wirebin

        server, _, tracer = traced
        body = wirebin.encode_request_frame(
            _auth_requests(), api_key="bogus-key", frame_id="f-denied"
        )
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/v2/requests",
            data=body,
            headers={"Content-Type": wirebin.CONTENT_TYPE},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 401
        events = [e for e in tracer.events() if e["kind"] == "binary-frame"]
        assert len(events) == 1  # one event: admission rejected the frame
        assert events[0]["attrs"]["error"] == "unknown-api-key"

    def test_untraced_server_exports_nothing(self, frontend):
        with ServiceHTTPServer(frontend) as server:
            api_key = server.callers.register("plain-op", ("data:write",))
            with ServiceClient(
                port=server.port, api_key=api_key, codec="binary"
            ) as client:
                client.submit_many(_auth_requests())
            assert server.tracer is None
            assert server.telemetry.counter_value("trace.started") == 0

    def test_metrics_content_negotiation(self, traced):
        server, api_key, _ = traced
        with ServiceClient(port=server.port, api_key=api_key) as client:
            client.submit(_auth_requests()[0])
            snapshot = client.metrics()
            text = client.metrics_text()
        # JSON default: same shape as ever, no histogram keys leaked in.
        assert set(snapshot) == {"counters", "latencies", "callers"}
        # Prometheus: valid exposition with HELP/TYPE and trace counters.
        assert "# TYPE repro_transport_requests_total counter" in text
        assert "repro_trace_started_total" in text
        assert "# TYPE repro_frontend_authenticate_seconds histogram" in text

    def test_prometheus_content_type_over_the_wire(self, traced):
        from repro.service.telemetry import PROMETHEUS_CONTENT_TYPE

        server, _, _ = traced
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}{METRICS_PATH}",
            headers={"Accept": "text/plain"},
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
            assert response.headers.get("Content-Type") == PROMETHEUS_CONTENT_TYPE
            body = response.read().decode("utf-8")
        assert body.endswith("\n")

    def test_json_metrics_stay_default_without_accept(self, traced):
        server, _, _ = traced
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}{METRICS_PATH}"
        ) as response:
            assert "application/json" in response.headers.get("Content-Type", "")
            payload = json.loads(response.read().decode("utf-8"))
        assert set(payload) == {"counters", "latencies", "callers"}
