"""Unit tests for the sharded serving cluster (ring, slicing, quota, router).

The worker pool's subprocess mechanics are covered by the integration
suite; here the router runs over in-process worker servers
(:class:`~repro.service.cluster.StaticEndpoints`) so every routing,
splitting, merging and failure path is exercised without process spawns.
"""

import http.client
import json
import socket
import time
import urllib.error
import urllib.request
from collections import Counter

import numpy as np
import pytest

from repro.sensors.types import CoarseContext
from repro.service import wirebin
from repro.service.cluster import (
    HashRing,
    RetryPolicy,
    ShardRouter,
    ShardUnavailable,
    StaticEndpoints,
    merge_columns,
)
from repro.service.envelope import (
    SCOPE_ADMIN,
    SCOPE_DATA_WRITE,
    CallerRegistry,
    Envelope,
    SharedTokenBucket,
    dumps_envelope,
    loads_sealed,
)
from repro.service.fleet import FleetConfig, FleetSimulator
from repro.service.frontend import ServiceFrontend
from repro.service.gateway import AuthenticationGateway
from repro.service.protocol import (
    AuthenticateRequest,
    AuthenticationResponse,
    ColumnarAuthResult,
    DrainShardRequest,
    DrainShardResponse,
    ErrorResponse,
    SnapshotRequest,
    SnapshotResponse,
    ThrottledResponse,
)
from repro.service.registry import ModelRegistry
from repro.service.transport import (
    HEALTH_PATH,
    METRICS_PATH,
    REQUESTS_PATH,
    V2_ADMIN_PATH,
    V2_REQUESTS_PATH,
    ServiceClient,
    ServiceHTTPServer,
)

API_KEY = "cluster-unit-test-key"
N_USERS = 24


# --------------------------------------------------------------------- #
# hash ring
# --------------------------------------------------------------------- #


class TestHashRing:
    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError, match="n_shards"):
            HashRing(0)
        with pytest.raises(ValueError, match="replicas"):
            HashRing(2, replicas=0)

    def test_deterministic_across_instances(self):
        ids = [f"user-{i:04d}" for i in range(300)]
        first, second = HashRing(4), HashRing(4)
        assert [first.shard_for(u) for u in ids] == [
            second.shard_for(u) for u in ids
        ]

    def test_all_shards_in_range_and_used(self):
        ring = HashRing(4)
        counts = Counter(ring.shard_for(f"user-{i:04d}") for i in range(400))
        assert set(counts) == {0, 1, 2, 3}
        # Virtual nodes keep the split roughly even: no shard may own more
        # than half or fewer than a twentieth of a 400-key population.
        assert all(20 <= n <= 200 for n in counts.values())

    def test_single_shard_owns_everything(self):
        ring = HashRing(1)
        assert {ring.shard_for(f"u{i}") for i in range(50)} == {0}

    def test_split_preserves_order_and_covers_all_positions(self):
        ring = HashRing(3)
        user_ids = [f"user-{i:03d}" for i in range(40)]
        groups = ring.split(user_ids)
        flat = sorted(index for indices in groups.values() for index in indices)
        assert flat == list(range(len(user_ids)))
        for shard, indices in groups.items():
            assert indices == sorted(indices)
            assert all(ring.shard_for(user_ids[i]) == shard for i in indices)


# --------------------------------------------------------------------- #
# frame slicing
# --------------------------------------------------------------------- #


def _auth_requests(n, windows=3, features=4):
    rng = np.random.default_rng(7)
    return [
        AuthenticateRequest(
            user_id=f"user-{i:03d}",
            features=rng.normal(size=(windows + (i % 2), features)),
            contexts=tuple(
                CoarseContext("stationary" if j % 2 else "moving")
                for j in range(windows + (i % 2))
            ),
        )
        for i in range(n)
    ]


class TestEncodeFrameSlice:
    def test_slice_round_trips_to_original_requests(self):
        requests = _auth_requests(6)
        frame = wirebin.decode_request_frame(
            wirebin.encode_request_frame(requests, api_key=API_KEY)
        )
        indices = [4, 1, 5]
        sliced = wirebin.decode_request_frame(
            wirebin.encode_frame_slice(frame, indices)
        )
        assert sliced.api_key == API_KEY
        assert list(sliced.user_ids) == [requests[i].user_id for i in indices]
        for rebuilt, index in zip(sliced.to_requests(), indices):
            np.testing.assert_array_equal(
                rebuilt.features, requests[index].features
            )
            assert rebuilt.contexts == requests[index].contexts

    def test_slice_of_everything_equals_reencoding(self):
        requests = _auth_requests(5)
        frame = wirebin.decode_request_frame(
            wirebin.encode_request_frame(requests, api_key=API_KEY, frame_id="f-1")
        )
        full = wirebin.encode_frame_slice(
            frame, range(len(requests)), frame_id="f-1"
        )
        again = wirebin.decode_request_frame(full)
        assert list(again.user_ids) == list(frame.user_ids)
        np.testing.assert_array_equal(again.features, frame.features)
        np.testing.assert_array_equal(again.lengths, frame.lengths)

    def test_empty_and_out_of_range_slices_are_rejected(self):
        frame = wirebin.decode_request_frame(
            wirebin.encode_request_frame(_auth_requests(3), api_key=API_KEY)
        )
        with pytest.raises(ValueError, match="zero requests"):
            wirebin.encode_frame_slice(frame, [])
        with pytest.raises(ValueError, match="out of range"):
            wirebin.encode_frame_slice(frame, [3])

    def test_prepaid_stamp_is_explicit_and_round_trips(self):
        frame = wirebin.decode_request_frame(
            wirebin.encode_request_frame(_auth_requests(4), api_key=API_KEY)
        )
        assert frame.prepaid is False
        paid = wirebin.decode_request_frame(
            wirebin.encode_frame_slice(frame, [0, 2], prepaid=True)
        )
        assert paid.prepaid is True
        # The router always stamps explicitly; clearing wins over the
        # parent's flag, so a client-smuggled marker never propagates.
        cleared = wirebin.decode_request_frame(
            wirebin.encode_frame_slice(paid, [0], prepaid=False)
        )
        assert cleared.prepaid is False
        # Omitting the argument echoes the parent (wirebin-level default).
        echoed = wirebin.decode_request_frame(
            wirebin.encode_frame_slice(paid, [0])
        )
        assert echoed.prepaid is True


class TestMergeColumns:
    """A shard answer that disagrees with its sub-frame is refused."""

    @staticmethod
    def _shard_answer(n_requests, errors=None):
        result = ColumnarAuthResult(
            user_ids=tuple(f"user-{i:03d}" for i in range(n_requests)),
            scores=np.zeros(n_requests),
            accepted=np.zeros(n_requests, dtype=bool),
            model_context_codes=np.zeros(n_requests, dtype=np.int8),
            lengths=np.ones(n_requests, dtype=np.int64),
            model_versions=np.ones(n_requests, dtype=np.int64),
            errors=errors or {},
        )
        (frame,) = wirebin.decode_response_frames(
            wirebin.encode_columnar_response(result, "f", "c")
        )
        return frame

    def test_a_wrong_request_count_is_refused(self):
        frame = wirebin.decode_request_frame(
            wirebin.encode_request_frame(_auth_requests(3), api_key=API_KEY)
        )
        answers = {0: self._shard_answer(1), 1: self._shard_answer(1)}
        with pytest.raises(ValueError, match="1 result"):
            merge_columns(frame, {0: [0, 2], 1: [1]}, answers, "c")

    def test_an_out_of_range_error_position_is_refused(self):
        frame = wirebin.decode_request_frame(
            wirebin.encode_request_frame(_auth_requests(2), api_key=API_KEY)
        )
        error = ErrorResponse(
            request_kind="authenticate", error="KeyError", message="x"
        )
        with pytest.raises(ValueError, match="request position -1"):
            merge_columns(
                frame, {0: [0, 1]}, {0: self._shard_answer(2, {-1: error})}, "c"
            )


# --------------------------------------------------------------------- #
# shared token bucket
# --------------------------------------------------------------------- #


class TestSharedTokenBucket:
    def test_rejects_non_positive_rate_or_burst(self, tmp_path):
        path = tmp_path / "quota.json"
        with pytest.raises(ValueError):
            SharedTokenBucket(path, 0.0)
        with pytest.raises(ValueError):
            SharedTokenBucket(path, 1.0, burst=0.0)

    def test_two_instances_share_one_budget(self, tmp_path):
        path = tmp_path / "quota.json"
        first = SharedTokenBucket(path, rate_per_s=1.0, burst=4.0)
        second = SharedTokenBucket(path, rate_per_s=1.0, burst=4.0)
        # Four grants drawn alternately from two handles drain one budget.
        assert first.acquire(2) == 0.0
        assert second.acquire(2) == 0.0
        retry = second.acquire(1)
        assert retry > 0.0
        assert first.acquire(1) > 0.0

    def test_retry_after_scales_with_deficit(self, tmp_path):
        bucket = SharedTokenBucket(tmp_path / "q.json", rate_per_s=2.0, burst=2.0)
        assert bucket.acquire(2) == 0.0
        retry = bucket.acquire(4)
        assert retry == pytest.approx(4 / 2.0, rel=0.25)

    def test_corrupt_state_file_fails_open(self, tmp_path):
        path = tmp_path / "quota.json"
        bucket = SharedTokenBucket(path, rate_per_s=1.0, burst=3.0)
        assert bucket.acquire(1) == 0.0
        path.write_text("{not json")
        # A mangled state file resets to a full bucket instead of raising.
        assert bucket.acquire(3) == 0.0

    def test_attaches_behind_caller_registry_rate_interface(self, tmp_path):
        registry = CallerRegistry()
        registry.register("edge", (SCOPE_DATA_WRITE,))
        registry.attach_rate_limit(
            "edge", SharedTokenBucket(tmp_path / "q.json", 1.0, burst=2.0)
        )
        record = registry._by_id["edge"]
        assert registry.acquire_rate(record, 2) is None
        outcome = registry.acquire_rate(record, 1)
        assert outcome is not None
        reason, retry_after = outcome
        assert reason == "rate-limited"
        assert retry_after > 0.0

    def test_refund_returns_tokens_capped_at_burst(self, tmp_path):
        bucket = SharedTokenBucket(
            tmp_path / "q.json", rate_per_s=0.001, burst=4.0
        )
        assert bucket.acquire(4) == 0.0
        assert bucket.acquire(3) > 0.0  # drained
        bucket.refund(3.0)
        assert bucket.acquire(3) == 0.0  # the refund restored the charge
        bucket.refund(100.0)  # refunds never mint beyond the bucket size
        assert bucket.acquire(4) == 0.0
        assert bucket.acquire(1) > 0.0
        bucket.refund(-5.0)  # non-positive refunds are no-ops
        assert bucket.acquire(1) > 0.0

    def test_attach_rejects_non_bucket_objects(self):
        registry = CallerRegistry()
        registry.register("edge", (SCOPE_DATA_WRITE,))
        with pytest.raises(TypeError, match="TokenBucket-shaped"):
            registry.attach_rate_limit("edge", object())
        with pytest.raises(KeyError):
            registry.attach_rate_limit("ghost", SharedTokenBucket("/tmp/x", 1.0))


# --------------------------------------------------------------------- #
# router over in-process workers
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    """A small enrolled fleet persisting its models to a registry root."""
    root = tmp_path_factory.mktemp("cluster-registry")
    simulator = FleetSimulator(
        FleetConfig(n_users=N_USERS, seed=5, server_side_contexts=False),
        registry_root=root,
    )
    simulator.build_users()
    simulator.enroll_fleet()
    return simulator


@pytest.fixture(scope="module")
def probes(fleet):
    rng = np.random.default_rng(23)
    requests = []
    for user in fleet.users:
        probe = user.sample_windows(
            2, fleet.config.window_noise, rng, fleet.feature_names
        )
        requests.append(
            AuthenticateRequest(
                user_id=user.user_id,
                features=probe.values,
                contexts=tuple(CoarseContext(label) for label in probe.contexts),
            )
        )
    return requests


@pytest.fixture(scope="module")
def reference(fleet, probes):
    return fleet.frontend.submit_many(probes)


@pytest.fixture(scope="module")
def cluster(fleet):
    """Two in-process shard workers behind a router (module lifetime)."""
    servers = []
    for _ in range(2):
        registry = ModelRegistry(root=fleet.frontend.gateway.registry.root)
        registry.load()
        frontend = ServiceFrontend(AuthenticationGateway(registry=registry))
        server = ServiceHTTPServer(frontend, port=0)
        server.callers.register(
            "cluster-operator", (SCOPE_DATA_WRITE, SCOPE_ADMIN), api_key=API_KEY
        )
        server.serve_background()
        servers.append(server)
    pool = StaticEndpoints([("127.0.0.1", server.port) for server in servers])
    router = ShardRouter(pool).serve_background()
    yield router, servers
    router.shutdown()
    router.server_close()
    for server in servers:
        server.shutdown()
        server.server_close()


def _get(port, path, accept=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        headers={"Accept": accept} if accept else {},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, response.read()


class TestShardRouter:
    def test_binary_frame_split_merge_matches_in_process(
        self, cluster, probes, reference
    ):
        router, _ = cluster
        client = ServiceClient(port=router.port, api_key=API_KEY, codec="binary")
        remote = client.submit_many(probes)
        assert len(remote) == len(reference)
        for got, want in zip(remote, reference):
            assert isinstance(got, AuthenticationResponse)
            np.testing.assert_array_equal(got.scores, want.scores)
            np.testing.assert_array_equal(got.accepted, want.accepted)
            assert got.model_version == want.model_version
        # The batch really crossed shards: both workers saw requests.
        assert router.ring.split([p.user_id for p in probes]).keys() == {0, 1}

    def test_json_single_and_batch_route_by_user(self, cluster, probes, reference):
        router, _ = cluster
        client = ServiceClient(port=router.port, api_key=API_KEY, codec="json")
        got = client.submit(probes[0])
        np.testing.assert_array_equal(got.scores, reference[0].scores)
        batch = client.submit_many(probes[:7])
        for got, want in zip(batch, reference[:7]):
            np.testing.assert_array_equal(got.scores, want.scores)

    def test_unknown_user_answers_typed_not_found(self, cluster, fleet):
        router, _ = cluster
        client = ServiceClient(port=router.port, api_key=API_KEY, codec="json")
        response = client.submit(
            AuthenticateRequest(
                user_id="nobody-here",
                features=np.zeros((1, len(fleet.feature_names))),
                contexts=(CoarseContext("stationary"),),
            )
        )
        assert isinstance(response, ErrorResponse)
        assert response.error == "KeyError"

    def test_admin_snapshot_broadcasts_to_every_shard(self, cluster):
        router, servers = cluster
        client = ServiceClient(port=router.port, api_key=API_KEY, codec="json")
        before = [
            server.telemetry.counter_value("transport.requests")
            for server in servers
        ]
        response = client.submit(SnapshotRequest())
        assert isinstance(response, SnapshotResponse)
        after = [
            server.telemetry.counter_value("transport.requests")
            for server in servers
        ]
        assert all(b > a for b, a in zip(after, before))

    def test_healthz_reports_per_shard_liveness(self, cluster):
        router, _ = cluster
        status, body = _get(router.port, HEALTH_PATH)
        report = json.loads(body)
        assert status == 200
        assert report["ready"] is True
        assert report["n_shards"] == 2
        assert set(report["shards"]) == {"0", "1"}
        assert all(shard["alive"] for shard in report["shards"].values())

    def test_merged_metrics_equal_union_of_worker_streams(self, cluster):
        router, servers = cluster
        _, body = _get(router.port, METRICS_PATH)
        view = json.loads(body)
        worker_counters = [s.telemetry.snapshot()["counters"] for s in servers]
        for name, value in view["counters"].items():
            if name.startswith("router."):
                continue
            assert value == sum(c.get(name, 0) for c in worker_counters), name
        worker_histograms = [s.telemetry.histograms_snapshot() for s in servers]
        for name, payload in view["histograms"].items():
            assert payload["count"] == sum(
                h.get(name, {}).get("count", 0) for h in worker_histograms
            ), name
            assert payload["counts"] == [
                sum(counts)
                for counts in zip(
                    *(
                        h.get(name, {"counts": [0] * len(payload["counts"])})[
                            "counts"
                        ]
                        for h in worker_histograms
                    )
                )
            ], name

    def test_prometheus_view_renders_merged_families(self, cluster):
        router, _ = cluster
        status, body = _get(router.port, METRICS_PATH, accept="text/plain")
        text = body.decode()
        assert status == 200
        assert "# TYPE repro_transport_request_seconds histogram" in text
        assert "repro_router_requests_total" in text

    def test_unknown_paths_answer_typed_404(self, cluster):
        router, _ = cluster
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(router.port, "/nope")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"] == "KeyError"

    def test_dead_shard_answers_typed_503(self, fleet):
        # One live worker plus one endpoint nobody listens on.
        registry = ModelRegistry(root=fleet.frontend.gateway.registry.root)
        registry.load()
        server = ServiceHTTPServer(
            ServiceFrontend(AuthenticationGateway(registry=registry)), port=0
        )
        server.callers.register(
            "cluster-operator", (SCOPE_DATA_WRITE, SCOPE_ADMIN), api_key=API_KEY
        )
        server.serve_background()
        with socket.socket() as probe_socket:
            probe_socket.bind(("127.0.0.1", 0))
            dead_port = probe_socket.getsockname()[1]
        pool = StaticEndpoints(
            [("127.0.0.1", server.port), ("127.0.0.1", dead_port)]
        )
        router = ShardRouter(pool).serve_background()
        try:
            ring = router.ring
            # A user owned by the dead shard 1 answers 503, typed.
            victim = next(
                f"user-{i}" for i in range(1000) if ring.shard_for(f"user-{i}") == 1
            )
            body = json.dumps(
                {"type": "authenticate", "user_id": victim, "features": [[0.0]]}
            ).encode()
            request = urllib.request.Request(
                f"http://127.0.0.1:{router.port}/v1/requests",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            assert excinfo.value.code == 503
            payload = json.loads(excinfo.value.read())
            assert payload["error"] == "ShardUnavailable"
            assert "shard-unavailable" in payload["message"]
        finally:
            router.shutdown()
            router.server_close()
            server.shutdown()
            server.server_close()

    def test_static_endpoints_validates_and_reports(self):
        with pytest.raises(ValueError):
            StaticEndpoints([])
        pool = StaticEndpoints([("127.0.0.1", 1234)])
        assert pool.n_shards == 1
        assert pool.endpoint(0) == ("127.0.0.1", 1234)
        pool.report_failure(0, "ignored")
        assert pool.health()["0"]["alive"] is True

    def test_shard_unavailable_is_a_connection_error(self):
        error = ShardUnavailable(3, "worker process is down")
        assert isinstance(error, ConnectionError)
        assert error.shard == 3
        assert "shard-unavailable" in str(error)
        # The dispatch marker gates retries of non-idempotent operations.
        assert error.dispatched is False
        assert ShardUnavailable(3, "read failed", dispatched=True).dispatched


# --------------------------------------------------------------------- #
# live resharding: the ring's exclusion walk
# --------------------------------------------------------------------- #


class TestHashRingExclude:
    IDS = [f"user-{i:04d}" for i in range(300)]

    def test_empty_exclude_is_bit_for_bit_the_plain_lookup(self):
        ring = HashRing(4)
        assert [ring.shard_for(u, exclude=()) for u in self.IDS] == [
            ring.shard_for(u) for u in self.IDS
        ]

    def test_exclusion_moves_only_the_drained_shards_users(self):
        ring = HashRing(4)
        before = {u: ring.shard_for(u) for u in self.IDS}
        during = {u: ring.shard_for(u, exclude=(2,)) for u in self.IDS}
        assert any(shard == 2 for shard in before.values())
        for user, shard in before.items():
            if shard == 2:
                assert during[user] != 2  # rerouted off the drained shard
            else:
                assert during[user] == shard  # everyone else never moves

    def test_exclusion_decisions_are_deterministic_across_instances(self):
        exclude = (1, 3)
        first = {u: HashRing(4).shard_for(u, exclude) for u in self.IDS}
        second = {u: HashRing(4).shard_for(u, exclude) for u in self.IDS}
        assert first == second
        assert set(first.values()) <= {0, 2}

    def test_excluding_every_shard_raises(self):
        ring = HashRing(2)
        with pytest.raises(ValueError, match="every shard is excluded"):
            ring.shard_for("user-0001", exclude=(0, 1))

    def test_split_with_exclude_covers_all_positions(self):
        ring = HashRing(3)
        groups = ring.split(self.IDS, exclude=(1,))
        assert 1 not in groups
        positions = sorted(i for group in groups.values() for i in group)
        assert positions == list(range(len(self.IDS)))


JSON = "application/json"
BINARY = wirebin.CONTENT_TYPE

#: Malformed inputs both doors must answer alike:
#: (case, path, Content-Type, body, Content-Length header, status, Connection).
MALFORMED = [
    ("unknown-path", "/v1/nope", JSON, b"{}", None, 404, "close"),
    ("binary-on-v1", REQUESTS_PATH, BINARY, b"\0" * 8, None, 400, "close"),
    ("malformed-json", V2_REQUESTS_PATH, JSON, b"{not json", None, 400, None),
    ("non-utf8-v1", REQUESTS_PATH, JSON, b"\xff\xfe{}", None, 400, None),
    ("non-utf8-v2", V2_REQUESTS_PATH, JSON, b"\xff\xfe{}", None, 400, None),
    ("negative-length-v1", REQUESTS_PATH, JSON, b"{}", "-1", 400, "close"),
    ("negative-length-v2", V2_REQUESTS_PATH, JSON, b"{}", "-1", 400, "close"),
    ("negative-length-binary", V2_REQUESTS_PATH, BINARY, b"", "-1", 400, "close"),
    ("non-integer-length", V2_REQUESTS_PATH, JSON, b"{}", "ten", 400, "close"),
    ("huge-length", V2_REQUESTS_PATH, JSON, b"{}", "9" * 5000, 400, "close"),
    ("non-object-v1", REQUESTS_PATH, JSON, b"42", None, 400, None),
    ("non-object-v2", V2_REQUESTS_PATH, JSON, b'"x"', None, 400, None),
    ("non-object-admin", V2_ADMIN_PATH, JSON, b"42", None, 400, None),
    ("batched-admin", V2_ADMIN_PATH, JSON, b"[]", None, 400, None),
]


def _raw_post(port, path, content_type, body, content_length):
    """One POST over a fresh keep-alive socket with a hand-written
    Content-Length; returns (status, Content-Type, kind, Connection)."""
    length = str(len(body)) if content_length is None else content_length
    head = (
        f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: {content_type}\r\nContent-Length: {length}\r\n\r\n"
    ).encode("ascii")
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(head + body)
        response = http.client.HTTPResponse(sock)
        response.begin()
        payload = json.loads(response.read())
        return (
            response.status,
            response.getheader("Content-Type"),
            payload.get("kind"),
            response.getheader("Connection"),
        )


class TestDoorParity:
    """A worker and the router over it share one HTTP door."""

    @pytest.mark.parametrize(
        "case, path, content_type, body, length, status, connection",
        MALFORMED,
        ids=[row[0] for row in MALFORMED],
    )
    def test_worker_and_router_answer_malformed_input_alike(
        self, cluster, case, path, content_type, body, length, status, connection
    ):
        router, servers = cluster
        expected = (status, JSON, "error-response", connection)
        worker = _raw_post(servers[0].port, path, content_type, body, length)
        routed = _raw_post(router.port, path, content_type, body, length)
        assert worker == expected
        assert routed == expected

    @pytest.mark.parametrize(
        "path, content_type, encoding",
        [
            (REQUESTS_PATH, JSON, "chunked"),
            (V2_REQUESTS_PATH, JSON, "chunked"),
            (V2_ADMIN_PATH, JSON, "chunked"),
            (V2_REQUESTS_PATH, BINARY, "gzip, chunked"),
        ],
    )
    def test_an_unreadable_transfer_encoding_answers_400_and_closes(
        self, cluster, path, content_type, encoding
    ):
        # Only a chunked binary stream is read chunk by chunk.  Any other
        # body's leftover bytes and a pipelined GET must not be parsed as
        # further requests: exactly one typed answer, then EOF.
        router, servers = cluster
        sent = (
            f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: {content_type}\r\nTransfer-Encoding: {encoding}\r\n\r\n"
            "2\r\n{}\r\n0\r\n\r\n"
            f"GET {HEALTH_PATH} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n"
        ).encode("ascii")
        for port in (servers[0].port, router.port):
            with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
                sock.sendall(sent)
                received = b""
                while chunk := sock.recv(65536):
                    received += chunk
            head, _, body = received.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400")
            assert b"\r\nConnection: close" in head
            length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
            assert len(body) == length  # nothing follows the one answer
            payload = json.loads(body)
            assert payload["kind"] == "error-response"
            assert "Content-Length" in payload["message"]

    def test_a_negative_length_does_not_stall_the_handler(self, cluster):
        router, servers = cluster
        for port in (servers[0].port, router.port):
            started = time.monotonic()
            assert _raw_post(port, REQUESTS_PATH, JSON, b"", "-1")[0] == 400
            assert time.monotonic() - started < 2.0


# --------------------------------------------------------------------- #
# retry policy
# --------------------------------------------------------------------- #


class TestRetryPolicy:
    def test_validates_every_bound(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(initial_backoff_s=0.0)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(max_backoff_s=0.0)
        with pytest.raises(ValueError, match="multiplier"):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="deadline_s"):
            RetryPolicy(deadline_s=0.0)

    def test_backoff_is_exponential_and_capped_without_jitter(self):
        policy = RetryPolicy(
            initial_backoff_s=0.1, max_backoff_s=0.4, multiplier=2.0, jitter=0.0
        )
        assert policy.backoff_s(0) == pytest.approx(0.1)
        assert policy.backoff_s(1) == pytest.approx(0.2)
        assert policy.backoff_s(2) == pytest.approx(0.4)
        assert policy.backoff_s(7) == pytest.approx(0.4)  # capped

    def test_jitter_bounds_the_wait_between_base_and_base_plus_jitter(self):
        policy = RetryPolicy(
            initial_backoff_s=0.1, max_backoff_s=0.1, multiplier=2.0, jitter=1.0
        )
        waits = [policy.backoff_s(0) for _ in range(200)]
        assert all(0.1 <= wait <= 0.2 for wait in waits)
        assert max(waits) > min(waits)  # actually jittered


# --------------------------------------------------------------------- #
# graceful drain on the router
# --------------------------------------------------------------------- #


def _post_admin(port, body):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/v2/admin",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _drain_over_wire(router, api_key, shard, undrain=False):
    envelope = Envelope(
        request=DrainShardRequest(shard=shard, undrain=undrain), api_key=api_key
    )
    status, body = _post_admin(router.port, dumps_envelope(envelope).encode())
    return status, loads_sealed(body.decode("utf-8"))


class TestGracefulDrain:
    @pytest.fixture()
    def drain_router(self, cluster):
        _, servers = cluster
        pool = StaticEndpoints(
            [("127.0.0.1", server.port) for server in servers]
        )
        router = ShardRouter(pool, admin_api_key=API_KEY).serve_background()
        yield router
        router.shutdown()
        router.server_close()

    def test_set_draining_validates_and_refuses_the_last_shard(
        self, drain_router
    ):
        with pytest.raises(ValueError, match="shard must be in"):
            drain_router.set_draining(5)
        assert drain_router.set_draining(1) == (0,)
        assert drain_router.draining() == frozenset({1})
        with pytest.raises(ValueError, match="last active shard"):
            drain_router.set_draining(0)
        assert drain_router.set_draining(1, undrain=True) == (0, 1)
        assert drain_router.draining() == frozenset()
        assert drain_router.telemetry.counter_value("router.drains") == 1
        assert drain_router.telemetry.counter_value("router.undrains") == 1

    def test_drain_admin_op_round_trips_and_reroutes(
        self, drain_router, probes, reference
    ):
        status, sealed = _drain_over_wire(drain_router, API_KEY, 0)
        assert status == 200
        assert isinstance(sealed.response, DrainShardResponse)
        assert sealed.response.draining is True
        assert sealed.response.active_shards == (1,)
        # Routed traffic while draining serves every user from shard 1 —
        # and the answers are the in-process reference, bit-for-bit.
        client = ServiceClient(port=drain_router.port, api_key=API_KEY)
        got = client.submit(probes[0])
        np.testing.assert_array_equal(got.scores, reference[0].scores)
        exclude = drain_router.draining()
        for probe in probes:
            assert drain_router.ring.shard_for(probe.user_id, exclude) == 1
        status, sealed = _drain_over_wire(drain_router, API_KEY, 0, undrain=True)
        assert status == 200
        assert sealed.response.draining is False
        assert sealed.response.active_shards == (0, 1)

    def test_drain_with_wrong_credential_answers_typed_401(self, drain_router):
        status, sealed = _drain_over_wire(drain_router, "wrong-key", 0)
        assert status == 401
        assert sealed.denied
        assert drain_router.draining() == frozenset()

    def test_drain_of_last_active_shard_answers_typed_400(self, drain_router):
        assert _drain_over_wire(drain_router, API_KEY, 1)[0] == 200
        status, sealed = _drain_over_wire(drain_router, API_KEY, 0)
        assert status == 400
        assert isinstance(sealed.response, ErrorResponse)
        assert "last active shard" in sealed.response.message
        assert _drain_over_wire(drain_router, API_KEY, 1, undrain=True)[0] == 200

    def test_worker_refuses_a_direct_drain_request(self, cluster):
        # The operation belongs to the router; a worker has no ring.
        _, servers = cluster
        envelope = Envelope(request=DrainShardRequest(shard=0), api_key=API_KEY)
        status, body = _post_admin(
            servers[0].port, dumps_envelope(envelope).encode()
        )
        assert status == 400
        sealed = loads_sealed(body.decode("utf-8"))
        assert isinstance(sealed.response, ErrorResponse)
        assert "shard-router operation" in sealed.response.message
