"""Characterization of the trace every serving door exports.

Pins, per door, each exported trace event's ``kind`` and its ordered span
names: the JSON single and batch endpoints of both API versions, the
binary frame door (authenticate and enroll), and the in-process
:class:`~repro.service.envelope.EnvelopeChannel`.  How a trace travels
between layers may change; what each door records may not.
"""

import numpy as np
import pytest

from repro.features.vector import FeatureMatrix
from repro.sensors.types import CoarseContext
from repro.service.fleet import FleetSimulator
from repro.service.frontend import MicroBatchQueue, ServiceFrontend
from repro.service.gateway import AuthenticationGateway
from repro.service.protocol import (
    AuthenticateRequest,
    AuthenticationResponse,
    EnrollRequest,
    EnrollResponse,
    SnapshotRequest,
    SnapshotResponse,
)
from repro.service.tracing import Tracer
from repro.service.transport import ServiceClient, ServiceHTTPServer

QUEUED_AUTH = ["admission", "queue_wait", "fused_pass", "response_framing"]
QUEUED_WRITE = ["admission", "queue_wait", "gateway", "response_framing"]
BATCH_AUTH = ["admission", "fused_pass"]


def matrix(uid, mean, n=15, d=5, context="stationary", seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(
        values=rng.normal(mean, 1.0, size=(n, d)),
        feature_names=[f"f{i}" for i in range(d)],
        user_ids=[uid] * n,
        contexts=[context] * n,
    )


def auth_requests(n=2):
    rng = np.random.default_rng(11)
    return [
        AuthenticateRequest(
            user_id="alice",
            features=rng.normal(0.0, 1.0, size=(4, 5)),
            contexts=(CoarseContext.STATIONARY, CoarseContext.MOVING) * 2,
        )
        for _ in range(n)
    ]


def enroll_requests(n=2):
    return [
        EnrollRequest(
            user_id=f"carol{index}",
            matrix=matrix(f"carol{index}", 2.0, n=3, seed=index),
            train=False,
        )
        for index in range(n)
    ]


def shapes(tracer):
    """``(kind, [span names])`` of every exported event, in export order."""
    return [
        (event["kind"], [span["name"] for span in event["spans"]])
        for event in tracer.events()
    ]


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
def traced(frontend):
    tracer = Tracer(sample_rate=1.0)
    queue = MicroBatchQueue(frontend, max_batch=32, max_delay_s=0.002)
    with ServiceHTTPServer(frontend, queue=queue, tracer=tracer) as server:
        api_key = server.callers.register("traced-op", ("data:write", "admin"))
        yield server, api_key, tracer


class TestDoorSpans:
    def test_v1_single_authenticate_and_enroll_ride_the_queue(self, traced):
        server, _, tracer = traced
        with ServiceClient(port=server.port) as client:
            assert isinstance(client.submit(auth_requests(1)[0]), AuthenticationResponse)
            assert isinstance(client.submit(enroll_requests(1)[0]), EnrollResponse)
        assert shapes(tracer) == [("http", QUEUED_AUTH), ("http", QUEUED_WRITE)]

    def test_v2_single_authenticate_and_admin_snapshot(self, traced):
        server, api_key, tracer = traced
        with ServiceClient(port=server.port, api_key=api_key) as client:
            assert isinstance(client.submit(auth_requests(1)[0]), AuthenticationResponse)
            assert isinstance(client.submit(SnapshotRequest()), SnapshotResponse)
        assert shapes(tracer) == [
            ("http", QUEUED_AUTH),
            ("http", ["admission", "gateway", "response_framing"]),
        ]

    def test_v2_and_v1_json_batches_trace_each_envelope(self, traced):
        server, api_key, tracer = traced
        with ServiceClient(port=server.port, api_key=api_key) as client:
            client.submit_many(auth_requests(2) + enroll_requests(1))
        with ServiceClient(port=server.port) as client:
            client.submit_many(auth_requests(2))
        assert shapes(tracer) == [
            ("envelope", BATCH_AUTH),
            ("envelope", BATCH_AUTH),
            ("envelope", ["admission", "gateway"]),
            ("envelope", BATCH_AUTH),
            ("envelope", BATCH_AUTH),
        ]

    def test_binary_frames_fan_out_one_event_per_request(self, traced):
        server, api_key, tracer = traced
        with ServiceClient(port=server.port, api_key=api_key, codec="binary") as client:
            client.submit_many(auth_requests(2))
            client.submit_many(enroll_requests(2))
        # An enroll frame is one trace whose requests each add a gateway
        # span, so every fanned-out event carries both.
        write = ["admission", "queue_wait", "gateway", "gateway", "response_framing"]
        assert shapes(tracer) == [
            ("binary-frame", QUEUED_AUTH),
            ("binary-frame", QUEUED_AUTH),
            ("binary-frame", write),
            ("binary-frame", write),
        ]


class TestInProcessChannel:
    @pytest.fixture()
    def simulator(self, frontend):
        return FleetSimulator(frontend=frontend, tracer=Tracer(sample_rate=1.0))

    def test_submit_traces_one_envelope(self, simulator):
        channel = simulator.channel
        assert isinstance(channel.submit(auth_requests(1)[0]), AuthenticationResponse)
        assert isinstance(channel.submit(enroll_requests(1)[0]), EnrollResponse)
        assert shapes(simulator.tracer) == [
            ("envelope", BATCH_AUTH),
            ("envelope", ["admission", "gateway"]),
        ]

    def test_submit_many_traces_each_envelope(self, simulator):
        simulator.channel.submit_many(auth_requests(2) + enroll_requests(1))
        assert shapes(simulator.tracer) == [
            ("envelope", BATCH_AUTH),
            ("envelope", BATCH_AUTH),
            ("envelope", ["admission", "gateway"]),
        ]
