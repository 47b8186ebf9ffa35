"""Unit tests for the v2 envelope layer: callers, scopes, planes, codec."""

import threading

import numpy as np
import pytest

from repro.features.vector import FeatureMatrix
from repro.sensors.types import CoarseContext
from repro.service.envelope import (
    API_VERSION,
    CODE_INSUFFICIENT_SCOPE,
    CODE_MISSING_KEY,
    CODE_UNKNOWN_KEY,
    CODE_UNSUPPORTED_VERSION,
    CODE_WRONG_PLANE,
    SCOPE_ADMIN,
    SCOPE_DATA_WRITE,
    CallerRegistry,
    DeniedResponse,
    Envelope,
    EnvelopeChannel,
    EnvelopeProcessor,
    SealedResponse,
    dumps_envelope,
    dumps_sealed,
    envelope_from_payload,
    envelope_to_payload,
    loads_envelope,
    loads_sealed,
    sealed_from_payload,
    sealed_to_payload,
)
from repro.service.fleet import FleetSimulator
from repro.service.frontend import ServiceFrontend
from repro.service.gateway import AuthenticationGateway
from repro.service.protocol import (
    AuthenticateRequest,
    AuthenticationResponse,
    DriftReport,
    EnrollRequest,
    EnrollResponse,
    ErrorResponse,
    EvictRequest,
    RollbackRequest,
    SnapshotRequest,
    SnapshotResponse,
)
from repro.service.tracing import Tracer


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
def callers(frontend):
    return CallerRegistry(telemetry=frontend.telemetry)


@pytest.fixture()
def processor(frontend, callers):
    return EnvelopeProcessor(frontend, callers=callers)


def auth_request(n=2):
    return AuthenticateRequest(
        user_id="alice",
        features=np.zeros((n, 5)),
        contexts=(CoarseContext.STATIONARY,) * n,
    )


class TestCallerRegistry:
    def test_register_returns_key_and_stores_only_the_hash(self, callers):
        key = callers.register("device-gw", (SCOPE_DATA_WRITE,))
        assert isinstance(key, str) and len(key) >= 24
        snapshot = callers.snapshot()
        assert snapshot["device-gw"]["scopes"] == [SCOPE_DATA_WRITE]
        # No plaintext credential anywhere in the snapshot.
        assert key not in str(snapshot)
        assert callers.scopes_for("device-gw") == frozenset({SCOPE_DATA_WRITE})

    def test_duplicate_caller_or_key_rejected(self, callers):
        key = callers.register("a", (SCOPE_DATA_WRITE,))
        with pytest.raises(ValueError, match="already registered"):
            callers.register("a", (SCOPE_DATA_WRITE,))
        with pytest.raises(ValueError, match="already registered"):
            callers.register("b", (SCOPE_DATA_WRITE,), api_key=key)

    def test_unknown_scope_rejected(self, callers):
        with pytest.raises(ValueError, match="unknown scopes"):
            callers.register("a", ("root",))

    def test_revoked_caller_no_longer_authorizes(self, callers):
        key = callers.register("a", (SCOPE_DATA_WRITE,))
        assert callers.revoke("a") is True
        assert callers.revoke("a") is False
        outcome = callers.authorize(key, SCOPE_DATA_WRITE, "authenticate")
        assert isinstance(outcome, DeniedResponse)
        assert outcome.code == CODE_UNKNOWN_KEY

    def test_authorize_counts_per_caller_telemetry(self, callers, frontend):
        key = callers.register("a", (SCOPE_DATA_WRITE,))
        callers.authorize(key, SCOPE_DATA_WRITE, "authenticate")
        denied = callers.authorize(key, SCOPE_ADMIN, "rollback")
        assert isinstance(denied, DeniedResponse)
        assert denied.code == CODE_INSUFFICIENT_SCOPE
        snapshot = callers.snapshot()["a"]
        assert snapshot["requests"] == 1
        assert snapshot["denied"] == 1
        assert frontend.telemetry.counter_value("callers.a.requests") == 1
        assert frontend.telemetry.counter_value("callers.a.denied") == 1


class TestEnvelopeValidation:
    def test_envelope_generates_a_request_id(self):
        first = Envelope(request=SnapshotRequest())
        second = Envelope(request=SnapshotRequest())
        assert first.request_id and second.request_id
        assert first.request_id != second.request_id
        assert first.api_version == API_VERSION

    def test_non_protocol_request_rejected(self):
        with pytest.raises(TypeError, match="not a protocol request"):
            Envelope(request="authenticate alice")  # type: ignore[arg-type]

    def test_empty_request_id_rejected(self):
        with pytest.raises(ValueError, match="request_id"):
            Envelope(request=SnapshotRequest(), request_id="")


class TestAuthorization:
    def test_missing_key_denied_401_and_never_reaches_the_gateway(
        self, frontend, processor
    ):
        calls = []
        original = frontend.gateway.handle
        frontend.gateway.handle = lambda request, trace=None: (
            calls.append(request) or original(request, trace)
        )
        sealed = processor.process(Envelope(request=auth_request()))
        assert sealed.denied
        assert sealed.response.code == CODE_MISSING_KEY
        assert sealed.response.http_status == 401
        assert calls == []

    def test_unknown_key_denied_401(self, processor):
        sealed = processor.process(
            Envelope(request=auth_request(), api_key="not-a-real-key")
        )
        assert sealed.denied
        assert sealed.response.code == CODE_UNKNOWN_KEY
        assert sealed.response.http_status == 401

    def test_insufficient_scope_denied_403_and_never_reaches_the_gateway(
        self, frontend, callers, processor
    ):
        data_key = callers.register("device-gw", (SCOPE_DATA_WRITE,))
        calls = []
        original = frontend.gateway.handle
        frontend.gateway.handle = lambda request, trace=None: (
            calls.append(request) or original(request, trace)
        )
        sealed = processor.process(
            Envelope(request=RollbackRequest(user_id="alice"), api_key=data_key)
        )
        assert sealed.denied
        assert sealed.response.code == CODE_INSUFFICIENT_SCOPE
        assert sealed.response.http_status == 403
        assert sealed.response.required_scope == SCOPE_ADMIN
        assert calls == []

    def test_admin_scope_admits_control_ops(self, callers, processor):
        admin_key = callers.register("operator", (SCOPE_ADMIN,))
        sealed = processor.process(
            Envelope(request=SnapshotRequest(), api_key=admin_key)
        )
        assert not sealed.denied
        assert isinstance(sealed.response, SnapshotResponse)
        assert sealed.caller_id == "operator"

    def test_admin_scope_does_not_imply_data_scope(self, callers, processor):
        admin_key = callers.register("operator", (SCOPE_ADMIN,))
        sealed = processor.process(
            Envelope(request=auth_request(), api_key=admin_key)
        )
        assert sealed.denied
        assert sealed.response.code == CODE_INSUFFICIENT_SCOPE

    def test_unsupported_api_version_denied_400(self, callers, processor):
        key = callers.register("device-gw", (SCOPE_DATA_WRITE,))
        sealed = processor.process(
            Envelope(request=auth_request(), api_key=key, api_version=3)
        )
        assert sealed.denied
        assert sealed.response.code == CODE_UNSUPPORTED_VERSION
        assert sealed.response.http_status == 400


class TestPlaneEnforcement:
    def test_control_op_unreachable_from_the_data_plane(
        self, frontend, callers, processor
    ):
        """Even a full-scope caller cannot reach rollback via the data door."""
        key = callers.register("operator", (SCOPE_DATA_WRITE, SCOPE_ADMIN))
        calls = []
        original = frontend.gateway.handle
        frontend.gateway.handle = lambda request, trace=None: (
            calls.append(request) or original(request, trace)
        )
        for request in (
            RollbackRequest(user_id="alice"),
            SnapshotRequest(),
            EvictRequest(),
        ):
            sealed = processor.process(
                Envelope(request=request, api_key=key), plane="data"
            )
            assert sealed.denied
            assert sealed.response.code == CODE_WRONG_PLANE
            assert sealed.response.http_status == 403
        assert calls == []

    def test_data_op_unreachable_from_the_control_plane(self, callers, processor):
        key = callers.register("operator", (SCOPE_DATA_WRITE, SCOPE_ADMIN))
        sealed = processor.process(
            Envelope(request=auth_request(), api_key=key), plane="control"
        )
        assert sealed.denied
        assert sealed.response.code == CODE_WRONG_PLANE


class TestDispatchAndIdempotency:
    def test_response_echoes_the_request_id(self, callers, processor):
        key = callers.register("device-gw", (SCOPE_DATA_WRITE,))
        envelope = Envelope(request=auth_request(), api_key=key, request_id="req-77")
        sealed = processor.process(envelope)
        assert sealed.request_id == "req-77"
        assert isinstance(sealed.response, AuthenticationResponse)

    def test_batch_preserves_order_and_denies_in_place(self, callers, processor):
        data_key = callers.register("device-gw", (SCOPE_DATA_WRITE,))
        batch = [
            Envelope(request=auth_request(), api_key=data_key),
            Envelope(request=auth_request(), api_key=None),  # denied
            Envelope(request=auth_request(), api_key=data_key),
        ]
        sealed = processor.process_many(batch)
        assert isinstance(sealed[0].response, AuthenticationResponse)
        assert sealed[1].denied
        assert isinstance(sealed[2].response, AuthenticationResponse)
        assert [item.request_id for item in sealed] == [
            envelope.request_id for envelope in batch
        ]

    def test_batch_memoized_authorization_keeps_counters_accurate(
        self, frontend, callers, processor
    ):
        """One credential, many envelopes: authorize once, count each."""
        key = callers.register("device-gw", (SCOPE_DATA_WRITE,))
        processor.process_many(
            [Envelope(request=auth_request(), api_key=key) for _ in range(5)]
            + [Envelope(request=auth_request(), api_key="bogus") for _ in range(3)]
        )
        assert callers.snapshot()["device-gw"]["requests"] == 5
        assert frontend.telemetry.counter_value("callers.device-gw.requests") == 5
        assert frontend.telemetry.counter_value("callers.denied") == 3

    def test_batch_coalesces_admitted_authenticates(self, frontend, callers, processor):
        key = callers.register("device-gw", (SCOPE_DATA_WRITE,))
        before = frontend.telemetry.counter_value("frontend.coalesced_batches")
        processor.process_many(
            [Envelope(request=auth_request(), api_key=key) for _ in range(4)]
        )
        assert frontend.telemetry.counter_value("frontend.coalesced_batches") == before + 1

    def test_idempotency_key_executes_once_and_replays(self, frontend, callers, processor):
        key = callers.register("device-gw", (SCOPE_DATA_WRITE,))
        enroll = EnrollRequest(
            user_id="dora", matrix=matrix("dora", 2.0, n=5, seed=9), train=False
        )
        first = processor.process(
            Envelope(request=enroll, api_key=key, idempotency_key="upload-1")
        )
        stored_after_first = frontend.gateway.server.stored_window_count("dora")
        retry = EnrollRequest(
            user_id="dora", matrix=matrix("dora", 2.0, n=5, seed=9), train=False
        )
        second = processor.process(
            Envelope(request=retry, api_key=key, idempotency_key="upload-1")
        )
        # The retry did NOT store windows again; the recorded response came back.
        assert frontend.gateway.server.stored_window_count("dora") == stored_after_first
        assert second.replayed and not first.replayed
        assert isinstance(second.response, EnrollResponse)
        assert second.response.windows_stored == first.response.windows_stored

    def test_idempotency_keys_are_scoped_per_caller(self, frontend, callers, processor):
        key_a = callers.register("a", (SCOPE_DATA_WRITE,))
        key_b = callers.register("b", (SCOPE_DATA_WRITE,))
        enroll = lambda seed: EnrollRequest(  # noqa: E731
            user_id="erin", matrix=matrix("erin", 2.0, n=5, seed=seed), train=False
        )
        processor.process(
            Envelope(request=enroll(1), api_key=key_a, idempotency_key="k")
        )
        second = processor.process(
            Envelope(request=enroll(2), api_key=key_b, idempotency_key="k")
        )
        assert not second.replayed  # a different caller's key is a different op

    def test_error_outcomes_are_not_recorded_for_replay(self, frontend, callers, processor):
        """A transient failure must execute (not replay) on retry."""
        key = callers.register("device-gw", (SCOPE_DATA_WRITE,))
        # No detector published -> server-side detection fails with KeyError,
        # mapped to ErrorResponse by the frontend middleware.
        failing = AuthenticateRequest(user_id="alice", features=np.zeros((1, 5)))
        first = processor.process(
            Envelope(request=failing, api_key=key, idempotency_key="probe-1")
        )
        assert isinstance(first.response, ErrorResponse)
        # Publish the detector; the retry with the same key must execute.
        training = matrix("alice", 0.0, n=40, context="stationary", seed=70).concatenate(
            matrix("alice", 5.0, n=40, context="moving", seed=71)
        )
        frontend.gateway.train_context_detector(training)
        second = processor.process(
            Envelope(request=failing, api_key=key, idempotency_key="probe-1")
        )
        assert not second.replayed
        assert isinstance(second.response, AuthenticationResponse)

    def test_concurrent_same_key_envelopes_execute_once(self, frontend, callers, processor):
        """Two threads racing one idempotency key: one executes, one replays."""
        key = callers.register("device-gw", (SCOPE_DATA_WRITE,))
        started = threading.Event()
        release = threading.Event()
        original = frontend.gateway.handle

        def slow_handle(request, trace=None):
            started.set()
            assert release.wait(timeout=10)
            return original(request, trace)

        frontend.gateway.handle = slow_handle
        sealed: dict[str, object] = {}

        def submit(name, seed):
            sealed[name] = processor.process(
                Envelope(
                    request=EnrollRequest(
                        user_id="race",
                        matrix=matrix("race", 2.0, n=5, seed=seed),
                        train=False,
                    ),
                    api_key=key,
                    idempotency_key="race-1",
                )
            )

        first = threading.Thread(target=submit, args=("first", 1))
        second = threading.Thread(target=submit, args=("second", 2))
        first.start()
        assert started.wait(timeout=5)  # the owner is mid-dispatch
        second.start()
        second.join(timeout=0.3)
        assert second.is_alive()  # the retry waits instead of executing
        release.set()
        first.join(timeout=10)
        second.join(timeout=10)
        frontend.gateway.handle = original
        # Exactly one execution: 5 windows stored, not 10; one replay flag.
        assert frontend.gateway.server.stored_window_count("race") == 5
        assert {sealed["first"].replayed, sealed["second"].replayed} == {True, False}

    def test_duplicate_key_within_one_batch_executes_once(self, frontend, callers, processor):
        key = callers.register("device-gw", (SCOPE_DATA_WRITE,))
        enroll = lambda seed: EnrollRequest(  # noqa: E731
            user_id="batchy", matrix=matrix("batchy", 2.0, n=5, seed=seed), train=False
        )
        sealed = processor.process_many(
            [
                Envelope(request=enroll(1), api_key=key, idempotency_key="dup"),
                Envelope(request=enroll(2), api_key=key, idempotency_key="dup"),
            ]
        )
        assert frontend.gateway.server.stored_window_count("batchy") == 5
        assert not sealed[0].replayed and sealed[1].replayed
        assert sealed[1].response.windows_stored == sealed[0].response.windows_stored

    def test_idempotency_record_is_bounded(self, frontend, callers):
        processor = EnvelopeProcessor(
            frontend,
            callers=callers,
            idempotency_capacity=2,
        )
        key = callers.register("device-gw", (SCOPE_DATA_WRITE,))
        for index in range(3):
            processor.process(
                Envelope(
                    request=auth_request(),
                    api_key=key,
                    idempotency_key=f"k{index}",
                )
            )
        # The oldest record was evicted: replaying k0 executes again.
        replay = processor.process(
            Envelope(request=auth_request(), api_key=key, idempotency_key="k0")
        )
        assert not replay.replayed


class TestEnvelopeChannel:
    def test_channel_runs_the_data_plane_in_process(self, frontend, callers, processor):
        key = callers.register("fleet", (SCOPE_DATA_WRITE, SCOPE_ADMIN))
        channel = EnvelopeChannel(processor, key)
        response = channel.submit(auth_request())
        assert isinstance(response, AuthenticationResponse)
        responses = channel.submit_many([auth_request(), auth_request()])
        assert all(isinstance(item, AuthenticationResponse) for item in responses)

    def test_channel_raises_permission_error_when_denied(self, processor):
        channel = EnvelopeChannel(processor, "bogus-key")
        with pytest.raises(PermissionError, match=CODE_UNKNOWN_KEY):
            channel.submit(auth_request())


class TestTracing:
    def test_equal_requests_in_one_batch_get_a_trace_each(self, frontend):
        # SnapshotRequest() instances compare (and hash) equal; each
        # envelope's trace must still be its own.
        simulator = FleetSimulator(frontend=frontend, tracer=Tracer(sample_rate=1.0))
        sealed = simulator.processor.process_many(
            [
                Envelope(request=SnapshotRequest(), api_key=simulator.api_key)
                for _ in range(2)
            ]
        )
        assert all(isinstance(item.response, SnapshotResponse) for item in sealed)
        assert sealed[0].trace_id != sealed[1].trace_id
        events = simulator.tracer.events()
        assert [event["trace_id"] for event in events] == [
            item.trace_id for item in sealed
        ]
        for event in events:
            assert [span["name"] for span in event["spans"]] == [
                "admission",
                "gateway",
            ]


class TestWireCodec:
    def test_envelope_round_trips_losslessly(self):
        envelope = Envelope(
            request=auth_request(3),
            api_key="secret-key",
            request_id="req-1",
            idempotency_key="idem-1",
        )
        rebuilt = loads_envelope(dumps_envelope(envelope))
        assert rebuilt.api_key == "secret-key"
        assert rebuilt.request_id == "req-1"
        assert rebuilt.idempotency_key == "idem-1"
        assert rebuilt.api_version == API_VERSION
        assert isinstance(rebuilt.request, AuthenticateRequest)
        np.testing.assert_array_equal(
            rebuilt.request.features, envelope.request.features
        )
        assert rebuilt.request.contexts == envelope.request.contexts

    def test_sealed_round_trips_success_and_denied(self):
        sealed = SealedResponse(
            response=SnapshotResponse(snapshot={"counters": {}}),
            request_id="req-2",
            caller_id="operator",
        )
        rebuilt = loads_sealed(dumps_sealed(sealed))
        assert rebuilt.request_id == "req-2"
        assert rebuilt.caller_id == "operator"
        assert isinstance(rebuilt.response, SnapshotResponse)
        denied = SealedResponse(
            response=DeniedResponse(
                request_kind="rollback",
                code=CODE_INSUFFICIENT_SCOPE,
                message="nope",
                required_scope=SCOPE_ADMIN,
            ),
            request_id="req-3",
        )
        rebuilt = loads_sealed(dumps_sealed(denied))
        assert rebuilt.denied
        assert rebuilt.response.code == CODE_INSUFFICIENT_SCOPE
        assert rebuilt.response.required_scope == SCOPE_ADMIN

    def test_malformed_envelope_payloads_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            envelope_from_payload("nope")  # type: ignore[arg-type]
        with pytest.raises(ValueError, match="missing required field"):
            envelope_from_payload({"kind": "envelope", "api_version": 2})
        with pytest.raises(ValueError, match="api_version"):
            envelope_from_payload(
                {
                    "kind": "envelope",
                    "api_version": "two",
                    "request_id": "r",
                    "request": {"kind": "snapshot"},
                }
            )
        payload = envelope_to_payload(Envelope(request=SnapshotRequest()))
        payload["kind"] = "letter"
        with pytest.raises(ValueError, match="does not describe an envelope"):
            envelope_from_payload(payload)

    def test_malformed_sealed_payloads_rejected(self):
        with pytest.raises(ValueError, match="does not describe a sealed"):
            sealed_from_payload({"kind": "envelope"})
        with pytest.raises(ValueError, match="missing required field"):
            sealed_from_payload({"kind": "sealed-response"})

    def test_unknown_envelope_fields_are_tolerated(self):
        payload = envelope_to_payload(Envelope(request=SnapshotRequest(), api_key="k"))
        payload["future-extension"] = {"x": 1}
        rebuilt = envelope_from_payload(payload)
        assert rebuilt.api_key == "k"


class TestConcurrentAuthorization:
    def test_parallel_envelopes_authorize_safely(self, frontend, callers, processor):
        key = callers.register("device-gw", (SCOPE_DATA_WRITE,))
        errors = []

        def worker():
            try:
                for _ in range(50):
                    sealed = processor.process(
                        Envelope(request=auth_request(1), api_key=key)
                    )
                    assert not sealed.denied
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert callers.snapshot()["device-gw"]["requests"] == 200


class TestRateLimits:
    def test_token_bucket_grants_burst_then_meters(self):
        from repro.service.envelope import TokenBucket

        bucket = TokenBucket(rate_per_s=1000.0, burst=3.0)
        assert bucket.acquire() == 0.0
        assert bucket.acquire(2) == 0.0
        retry = bucket.acquire(2)
        assert retry > 0.0  # the bucket is empty
        assert retry <= 2 / 1000.0 + 1e-6

    def test_token_bucket_validates_knobs(self):
        from repro.service.envelope import TokenBucket

        with pytest.raises(ValueError, match="rate_per_s"):
            TokenBucket(rate_per_s=0.0)
        with pytest.raises(ValueError, match="burst"):
            TokenBucket(rate_per_s=1.0, burst=-1.0)

    def test_set_rate_limit_requires_a_registered_caller(self, callers):
        with pytest.raises(KeyError):
            callers.set_rate_limit("nobody", 10.0)

    def test_rate_limited_envelope_answers_typed_429_before_dispatch(
        self, frontend, callers, processor
    ):
        key = callers.register("metered", (SCOPE_DATA_WRITE,))
        callers.set_rate_limit("metered", 1.0, burst=2.0)
        sealed = [
            processor.process(Envelope(request=auth_request(), api_key=key))
            for _ in range(4)
        ]
        kinds = [type(item.response).__name__ for item in sealed]
        assert kinds[:2] == ["AuthenticationResponse", "AuthenticationResponse"]
        from repro.service.protocol import ThrottledResponse

        assert all(isinstance(item.response, ThrottledResponse) for item in sealed[2:])
        throttled = sealed[2].response
        assert throttled.reason == "rate-limited"
        assert throttled.retry_after_s > 0.0
        assert throttled.max_depth == 2  # the bucket's burst
        assert throttled.user_id == "alice"
        # The typed throttle rides the same 429 mapping as queue overflow.
        from repro.service.transport import status_for_sealed

        assert status_for_sealed(sealed[2]) == 429
        snapshot = callers.snapshot()["metered"]
        assert snapshot["throttled"] == 2
        assert snapshot["rate_limit"] == {"requests_per_s": 1.0, "burst": 2.0}
        assert frontend.telemetry.counter_value("callers.metered.rate_limited") == 2

    def test_batch_envelopes_are_charged_per_request(self, callers, processor):
        key = callers.register("metered", (SCOPE_DATA_WRITE,))
        callers.set_rate_limit("metered", 1.0, burst=3.0)
        sealed = processor.process_many(
            [Envelope(request=auth_request(), api_key=key) for _ in range(5)]
        )
        from repro.service.protocol import ThrottledResponse

        outcomes = [isinstance(item.response, ThrottledResponse) for item in sealed]
        assert outcomes == [False, False, False, True, True]

    def test_authorize_frame_charges_the_whole_frame_atomically(
        self, callers, processor
    ):
        from repro.service.envelope import CallerRecord
        from repro.service.protocol import ThrottledResponse

        key = callers.register("framed", (SCOPE_DATA_WRITE,))
        callers.set_rate_limit("framed", 1.0, burst=10.0)
        outcome = processor.authorize_frame(key, "authenticate", count=8)
        assert isinstance(outcome, CallerRecord)
        throttled = processor.authorize_frame(key, "authenticate", count=8)
        assert isinstance(throttled, ThrottledResponse)
        assert throttled.reason == "rate-limited"
        assert callers.snapshot()["framed"]["requests"] == 16

    def test_authorize_frame_denies_with_per_request_telemetry(
        self, callers, processor
    ):
        outcome = processor.authorize_frame("unknown-key", "authenticate", count=5)
        assert isinstance(outcome, DeniedResponse)
        assert outcome.code == CODE_UNKNOWN_KEY
        assert callers.telemetry.counter_value("callers.denied") == 5

    def test_clear_rate_limit_restores_unlimited_service(self, callers, processor):
        key = callers.register("metered", (SCOPE_DATA_WRITE,))
        callers.set_rate_limit("metered", 1.0, burst=1.0)
        processor.process(Envelope(request=auth_request(), api_key=key))
        callers.clear_rate_limit("metered")
        sealed = processor.process(Envelope(request=auth_request(), api_key=key))
        assert isinstance(sealed.response, AuthenticationResponse)

    def test_authorize_frame_scope_denial_counts_per_caller(
        self, callers, processor
    ):
        """A known under-scoped caller's denied tally covers the whole frame."""
        key = callers.register("scoped-down", (SCOPE_ADMIN,))
        outcome = processor.authorize_frame(key, "authenticate", count=7)
        assert isinstance(outcome, DeniedResponse)
        assert outcome.code == CODE_INSUFFICIENT_SCOPE
        assert callers.snapshot()["scoped-down"]["denied"] == 7
        assert callers.telemetry.counter_value("callers.scoped-down.denied") == 7
