"""Transport/API equivalence: /v1, /v2 and in-process decisions agree.

The ISSUE 3 acceptance bar: for a 500-user fleet, authentication decisions
served over the HTTP transport must be bit-for-bit identical to dispatching
the same requests in process — through ``AuthenticationGateway.handle()``
and through the coalescing ``ServiceFrontend.submit_many()`` alike — and
the whole fleet lifecycle must be able to run over real sockets.

The ISSUE 4 acceptance bar extends it across API revisions: the same
fleet's decisions must be bit-for-bit identical over the legacy ``/v1``
endpoint, the enveloped ``/v2`` endpoints (authenticated caller, sealed
responses) and in-process dispatch — and the whole lifecycle must produce
identical reports over all three doors.
"""

import numpy as np
import pytest

from repro.sensors.types import CoarseContext
from repro.service.fleet import FleetConfig, FleetSimulator
from repro.service.frontend import MicroBatchQueue
from repro.service.protocol import AuthenticateRequest, AuthenticationResponse
from repro.service.transport import ServiceClient, ServiceHTTPServer

FLEET_USERS = 500


@pytest.fixture(scope="module")
def fleet():
    """An enrolled-and-trained 500-user fleet (shared across tests)."""
    simulator = FleetSimulator(FleetConfig(n_users=FLEET_USERS, seed=11))
    simulator.build_users()
    simulator.enroll_fleet()
    return simulator


@pytest.fixture(scope="module")
def probes(fleet):
    """Per-user probe requests: half detected contexts, half device-reported."""
    rng = np.random.default_rng(99)
    requests = []
    for index, user in enumerate(fleet.users):
        probe = user.sample_windows(3, fleet.config.window_noise, rng, fleet.feature_names)
        if index % 2:
            contexts = tuple(CoarseContext(label) for label in probe.contexts)
        else:
            contexts = None  # the service detects these server-side
        requests.append(
            AuthenticateRequest(
                user_id=user.user_id, features=probe.values, contexts=contexts
            )
        )
    return requests


class TestTransportEquivalence:
    def test_wire_decisions_bit_for_bit_identical_to_in_process(self, fleet, probes):
        in_process = fleet.frontend.submit_many(probes)
        with ServiceHTTPServer(fleet.frontend) as server:
            with ServiceClient(port=server.port) as client:
                over_the_wire = client.submit_many(probes)
        assert len(over_the_wire) == FLEET_USERS
        for request, local, remote in zip(probes, in_process, over_the_wire):
            assert isinstance(remote, AuthenticationResponse)
            assert remote.user_id == request.user_id
            np.testing.assert_array_equal(remote.scores, local.scores)
            np.testing.assert_array_equal(remote.accepted, local.accepted)
            assert remote.result.model_contexts == local.result.model_contexts
            assert remote.model_version == local.model_version

    def test_wire_decisions_match_gateway_handle_per_request(self, fleet, probes):
        """Transport == the untouched backend dispatcher, one user at a time."""
        sample = probes[::50]  # every 50th user keeps the HTTP round-trips sane
        with ServiceHTTPServer(fleet.frontend) as server:
            with ServiceClient(port=server.port) as client:
                for request in sample:
                    local = fleet.gateway.handle(request)
                    remote = client.submit(request)
                    assert isinstance(remote, AuthenticationResponse)
                    np.testing.assert_array_equal(remote.scores, local.scores)
                    np.testing.assert_array_equal(remote.accepted, local.accepted)

    def test_wire_decisions_identical_through_the_microbatch_queue(self, fleet, probes):
        """Cross-connection coalescing must not change a single bit either."""
        sample = probes[::25]
        in_process = fleet.frontend.submit_many(sample)
        queue = MicroBatchQueue(fleet.frontend, max_batch=64)
        with ServiceHTTPServer(fleet.frontend, queue=queue) as server:
            with ServiceClient(port=server.port) as client:
                for request, local in zip(sample, in_process):
                    remote = client.submit(request)
                    np.testing.assert_array_equal(remote.scores, local.scores)
                    np.testing.assert_array_equal(remote.accepted, local.accepted)


class TestV1V2Equivalence:
    def test_500_user_decisions_identical_over_v1_v2_and_in_process(self, fleet, probes):
        """The ISSUE 4 acceptance shape: three doors, zero bit differences."""
        in_process = fleet.frontend.submit_many(probes)
        with ServiceHTTPServer(fleet.frontend, callers=fleet.callers) as server:
            with ServiceClient(port=server.port) as v1_client:
                over_v1 = v1_client.submit_many(probes)
            with ServiceClient(port=server.port, api_key=fleet.api_key) as v2_client:
                over_v2 = v2_client.submit_many(probes)
        assert len(over_v1) == len(over_v2) == FLEET_USERS
        for local, v1_response, v2_response in zip(in_process, over_v1, over_v2):
            assert isinstance(v1_response, AuthenticationResponse)
            assert isinstance(v2_response, AuthenticationResponse)
            for remote in (v1_response, v2_response):
                np.testing.assert_array_equal(remote.scores, local.scores)
                np.testing.assert_array_equal(remote.accepted, local.accepted)
                assert remote.result.model_contexts == local.result.model_contexts
                assert remote.model_version == local.model_version

    def test_lifecycle_reports_identical_over_all_three_doors(self):
        """Same seed, three channels — the aggregate decisions match exactly."""
        reports = {}
        for door in ("in-process", "v1", "v2"):
            simulator = FleetSimulator(FleetConfig(n_users=60, seed=23))
            if door == "in-process":
                simulator.channel = simulator.frontend
                reports[door] = simulator.run()
                continue
            with ServiceHTTPServer(
                simulator.frontend, callers=simulator.callers
            ) as server:
                api_key = simulator.api_key if door == "v2" else None
                with ServiceClient(port=server.port, api_key=api_key) as client:
                    simulator.channel = client
                    reports[door] = simulator.run()
        baseline = reports["in-process"]
        for door in ("v1", "v2"):
            report = reports[door]
            assert report.legitimate_accept_rate == baseline.legitimate_accept_rate
            assert report.attack_reject_rate == baseline.attack_reject_rate
            assert (
                report.drifted_accept_rate_before_retrain
                == baseline.drifted_accept_rate_before_retrain
            )
            assert (
                report.drifted_accept_rate_after_retrain
                == baseline.drifted_accept_rate_after_retrain
            )
            assert report.trained_versions == baseline.trained_versions


class TestFleetLifecycleOverSockets:
    def test_full_lifecycle_runs_over_the_wire(self):
        """A (smaller) fleet's whole lifecycle driven through ServiceClient."""
        simulator = FleetSimulator(FleetConfig(n_users=60, seed=23))
        with ServiceHTTPServer(simulator.frontend) as server:
            with ServiceClient(port=server.port) as client:
                simulator.channel = client
                report = simulator.run()
        assert report.enrolled_users == 60
        assert report.legitimate_accept_rate > 0.85
        assert report.attack_reject_rate > 0.85
        assert report.drifted_accept_rate_after_retrain > report.drifted_accept_rate_before_retrain
        counters = report.telemetry["counters"]
        # Every protocol request crossed the transport.
        assert counters["transport.requests"] >= 5
        assert counters["frontend.coalesced_batches"] >= 1


class TestBinaryCodecEquivalence:
    """The ISSUE 5 acceptance bar: binary-HTTP decisions are bit-for-bit
    identical to JSON-HTTP and in-process dispatch, batched and streamed."""

    def test_500_user_decisions_identical_over_binary_http(self, fleet, probes):
        # A frame is homogeneous (one context mode); mixed batches fall
        # back to JSON, so split the probes into their two modes and check
        # both binary frames against the in-process reference.
        detected = [probe for probe in probes if probe.contexts is None]
        reported = [probe for probe in probes if probe.contexts is not None]
        with ServiceHTTPServer(fleet.frontend, callers=fleet.callers) as server:
            with ServiceClient(
                port=server.port, api_key=fleet.api_key, codec="binary"
            ) as client:
                for subset in (detected, reported):
                    in_process = fleet.frontend.submit_many(subset)
                    over_binary = client.submit_many(subset)
                    streamed = client.submit_stream(iter(subset), chunk_windows=64)
                    for local, remote, piped in zip(in_process, over_binary, streamed):
                        assert isinstance(remote, AuthenticationResponse)
                        for answer in (remote, piped):
                            np.testing.assert_array_equal(answer.scores, local.scores)
                            np.testing.assert_array_equal(
                                answer.accepted, local.accepted
                            )
                            assert (
                                answer.result.model_contexts
                                == local.result.model_contexts
                            )
                            assert answer.model_version == local.model_version

    def test_lifecycle_report_identical_over_the_binary_codec(self):
        """Same seed, binary channel — aggregate decisions match in-process."""
        baseline = FleetSimulator(FleetConfig(n_users=60, seed=23))
        baseline.channel = baseline.frontend
        baseline_report = baseline.run()

        simulator = FleetSimulator(FleetConfig(n_users=60, seed=23))
        with ServiceHTTPServer(simulator.frontend, callers=simulator.callers) as server:
            with ServiceClient(
                port=server.port, api_key=simulator.api_key, codec="binary"
            ) as client:
                simulator.channel = client
                report = simulator.run()
        assert report.legitimate_accept_rate == baseline_report.legitimate_accept_rate
        assert report.attack_reject_rate == baseline_report.attack_reject_rate
        assert (
            report.drifted_accept_rate_before_retrain
            == baseline_report.drifted_accept_rate_before_retrain
        )
        assert (
            report.drifted_accept_rate_after_retrain
            == baseline_report.drifted_accept_rate_after_retrain
        )
        assert report.trained_versions == baseline_report.trained_versions
        # The hot phases actually used binary frames, not a JSON fallback.
        counters = report.telemetry["counters"]
        assert counters.get("transport.binary_frames", 0) >= 4
