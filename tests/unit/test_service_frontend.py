"""Unit tests for the micro-batching service frontend."""

import threading
import time

import numpy as np
import pytest

from repro.features.vector import FeatureMatrix
from repro.sensors.types import CoarseContext
from repro.service.frontend import MicroBatchQueue, ServiceFrontend
from repro.service.gateway import AuthenticationGateway
from repro.service.protocol import (
    AuthenticateRequest,
    AuthenticationResponse,
    DriftReport,
    DriftResponse,
    EnrollRequest,
    EnrollResponse,
    ErrorResponse,
    RollbackRequest,
    RollbackResponse,
    SnapshotRequest,
    SnapshotResponse,
    ThrottledResponse,
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
    for uid, mean, seed in (("bg1", 4.0, 1), ("bg2", 6.0, 2)):
        for context in ("stationary", "moving"):
            frontend.submit(
                EnrollRequest(
                    user_id=uid, matrix=matrix(uid, mean, context=context, seed=seed),
                    train=False,
                )
            )
    return frontend


_PROBE_COUNTER = iter(range(10**6))


def probe():
    """A cheap data-plane request for queue plumbing tests (buffers 1 window).

    The micro-batch queue admits only data-plane operations, so queue tests
    probe it with tiny enrollments (``train=False`` → always ``buffered``).
    """
    seed = next(_PROBE_COUNTER)
    return EnrollRequest(
        user_id="queue-probe",
        matrix=matrix("queue-probe", 1.0, n=1, seed=seed),
        train=False,
    )


def train_alice(frontend):
    for context in ("stationary", "moving"):
        frontend.submit(
            EnrollRequest(
                user_id="alice",
                matrix=matrix("alice", 0.0, context=context, seed=3),
                train=False,
            )
        )
    frontend.gateway.train("alice")


class TestDispatch:
    def test_every_request_kind_routes_to_its_response(self, frontend):
        enroll = frontend.submit(
            EnrollRequest(user_id="alice", matrix=matrix("alice", 0.0, seed=3), train=False)
        )
        assert isinstance(enroll, EnrollResponse)
        assert enroll.status == "buffered"
        train_alice(frontend)
        own = matrix("alice", 0.0, n=4, seed=4)
        auth = frontend.submit(
            AuthenticateRequest(
                user_id="alice",
                features=own.values,
                contexts=(CoarseContext.STATIONARY,) * 4,
            )
        )
        assert isinstance(auth, AuthenticationResponse)
        assert len(auth.result) == 4
        drift = frontend.submit(
            DriftReport(user_id="alice", matrix=matrix("alice", 0.4, n=30, seed=5))
        )
        assert isinstance(drift, DriftResponse)
        rollback = frontend.submit(RollbackRequest(user_id="alice"))
        assert isinstance(rollback, RollbackResponse)
        assert rollback.serving_version == drift.previous_version
        snapshot = frontend.submit(SnapshotRequest())
        assert isinstance(snapshot, SnapshotResponse)
        assert snapshot.snapshot["counters"]["frontend.requests"] >= 5

    def test_empty_batch_yields_empty_result(self, frontend):
        train_alice(frontend)
        response = frontend.submit(
            AuthenticateRequest(user_id="alice", features=np.array([]), contexts=())
        )
        assert isinstance(response, AuthenticationResponse)
        assert len(response.result) == 0
        assert response.accept_rate == 0.0
        # In a run of 5-wide requests the empty one rides in their fused
        # pass instead of forming a width-0 pass of its own.
        counter = frontend.telemetry.counter_value
        batches_before = counter("frontend.coalesced_batches")
        windows_before = counter("frontend.coalesced_windows")
        own = matrix("alice", 0.0, n=3, seed=27)
        responses = frontend.submit_many(
            [
                AuthenticateRequest(
                    user_id="alice",
                    features=own.values,
                    contexts=(CoarseContext.STATIONARY,) * 3,
                ),
                AuthenticateRequest(user_id="alice", features=np.array([]), contexts=()),
            ]
        )
        assert [len(response.result) for response in responses] == [3, 0]
        assert counter("frontend.coalesced_batches") - batches_before == 1
        assert counter("frontend.coalesced_windows") - windows_before == 3

    def test_user_lock_table_stays_bounded(self, frontend):
        import gc

        for index in range(200):
            response = frontend.submit(
                AuthenticateRequest(
                    user_id=f"ghost-{index}",
                    features=np.zeros((1, 5)),
                    contexts=(CoarseContext.STATIONARY,),
                )
            )
            assert isinstance(response, ErrorResponse)
        gc.collect()
        # Locks for finished requests have been reclaimed; only (at most)
        # stragglers whose weakrefs have not been cleared yet remain.
        assert len(frontend._locks) < 200

    def test_non_protocol_input_raises(self, frontend):
        with pytest.raises(TypeError, match="not a protocol request"):
            frontend.submit("authenticate alice")  # type: ignore[arg-type]

    def test_responses_keep_submission_order(self, frontend):
        train_alice(frontend)
        own = matrix("alice", 0.0, n=2, seed=6)
        responses = frontend.submit_many(
            [
                SnapshotRequest(),
                AuthenticateRequest(
                    user_id="alice",
                    features=own.values,
                    contexts=(CoarseContext.STATIONARY,) * 2,
                ),
                RollbackRequest(user_id="ghost"),
                SnapshotRequest(),
            ]
        )
        assert isinstance(responses[0], SnapshotResponse)
        assert isinstance(responses[1], AuthenticationResponse)
        assert isinstance(responses[2], ErrorResponse)
        assert isinstance(responses[3], SnapshotResponse)


class TestErrorMiddleware:
    def test_unknown_user_maps_to_error_response(self, frontend):
        response = frontend.submit(
            AuthenticateRequest(
                user_id="ghost",
                features=np.zeros((1, 5)),
                contexts=(CoarseContext.STATIONARY,),
            )
        )
        assert isinstance(response, ErrorResponse)
        assert response.request_kind == "authenticate"
        assert response.error == "KeyError"
        assert response.user_id == "ghost"

    def test_bad_request_does_not_poison_the_batch(self, frontend):
        train_alice(frontend)
        own = matrix("alice", 0.0, n=3, seed=7)
        good = AuthenticateRequest(
            user_id="alice",
            features=own.values,
            contexts=(CoarseContext.STATIONARY,) * 3,
        )
        bad = AuthenticateRequest(
            user_id="ghost",
            features=np.zeros((2, 5)),
            contexts=(CoarseContext.STATIONARY,) * 2,
        )
        responses = frontend.submit_many([bad, good, bad])
        assert isinstance(responses[0], ErrorResponse)
        assert isinstance(responses[2], ErrorResponse)
        expected = frontend.gateway.scorer_for("alice").score(
            own.values, [CoarseContext.STATIONARY] * 3
        )
        np.testing.assert_array_equal(responses[1].scores, expected.scores)
        assert frontend.telemetry.counter_value("frontend.errors") == 2

    def test_malformed_width_does_not_poison_coalesced_neighbours(self, frontend):
        """One request with the wrong feature width fails alone."""
        train_alice(frontend)
        own = matrix("alice", 0.0, n=3, seed=23)
        good = AuthenticateRequest(
            user_id="alice",
            features=own.values,
            contexts=(CoarseContext.STATIONARY,) * 3,
        )
        narrow = AuthenticateRequest(
            user_id="alice",
            features=np.zeros((2, 3)),  # model expects 5 columns
            contexts=(CoarseContext.STATIONARY,) * 2,
        )
        counter = frontend.telemetry.counter_value
        batches_before = counter("frontend.coalesced_batches")
        windows_before = counter("frontend.coalesced_windows")
        responses = frontend.submit_many([good, narrow, good])
        assert isinstance(responses[1], ErrorResponse)
        assert responses[1].error == "ValueError"
        expected = frontend.gateway.scorer_for("alice").score(
            own.values, [CoarseContext.STATIONARY] * 3
        )
        for survivor in (responses[0], responses[2]):
            assert isinstance(survivor, AuthenticationResponse)
            np.testing.assert_array_equal(survivor.scores, expected.scores)
        # The well-formed width is one fused pass over its 6 windows; the
        # malformed request's failed pass adds nothing.
        assert counter("frontend.coalesced_batches") - batches_before == 1
        assert counter("frontend.coalesced_windows") - windows_before == 6

    def test_malformed_width_does_not_poison_detection_neighbours(self, frontend):
        """Width mismatches must not break the shared detection pass either."""
        train_alice(frontend)
        training = matrix("alice", 0.0, n=40, context="stationary", seed=24).concatenate(
            matrix("alice", 5.0, n=40, context="moving", seed=25)
        )
        frontend.gateway.train_context_detector(training)
        own = matrix("alice", 0.0, n=3, seed=26)
        responses = frontend.submit_many(
            [
                AuthenticateRequest(user_id="alice", features=own.values),
                AuthenticateRequest(user_id="alice", features=np.zeros((2, 3))),
            ]
        )
        assert isinstance(responses[0], AuthenticationResponse)
        assert isinstance(responses[1], ErrorResponse)

    def test_broadcastable_width_mismatch_rejected_not_accepted(self, frontend):
        """A width-1 probe must be rejected, never broadcast-scored."""
        train_alice(frontend)
        response = frontend.submit(
            AuthenticateRequest(
                user_id="alice",
                features=np.ones((4, 1)),  # broadcastable against 5-wide models
                contexts=(CoarseContext.STATIONARY,) * 4,
            )
        )
        assert isinstance(response, ErrorResponse)
        assert response.error == "ValueError"

    def test_enroll_schema_mismatch_maps_to_error(self, frontend):
        response = frontend.submit(
            EnrollRequest(user_id="alice", matrix=matrix("alice", 0.0, d=3, seed=8))
        )
        assert isinstance(response, ErrorResponse)
        assert response.error == "ValueError"
        assert "feature_names mismatch" in response.message


class TestCoalescing:
    def test_coalesced_batch_matches_per_request_gateway_calls(self, frontend):
        train_alice(frontend)
        for uid, mean, seed in (("bg1", 4.0, 9), ("bg2", 6.0, 10)):
            frontend.gateway.train(uid)
        probes = {
            uid: matrix(uid, mean, n=6, seed=seed)
            for uid, mean, seed in (
                ("alice", 0.0, 11),
                ("bg1", 4.0, 12),
                ("bg2", 6.0, 13),
            )
        }
        contexts = (CoarseContext.STATIONARY, CoarseContext.MOVING) * 3
        requests = [
            AuthenticateRequest(user_id=uid, features=probe.values, contexts=contexts)
            for uid, probe in probes.items()
        ]
        # Two extra requests for the same user coalesce with the first.
        requests.append(
            AuthenticateRequest(
                user_id="alice", features=probes["alice"].values[:2], contexts=contexts[:2]
            )
        )
        coalesced = frontend.submit_many(requests)
        assert frontend.telemetry.counter_value("frontend.coalesced_batches") == 1
        for request, response in zip(requests, coalesced):
            expected = frontend.gateway.scorer_for(request.user_id).score(
                request.features, list(request.contexts)
            )
            np.testing.assert_array_equal(response.scores, expected.scores)
            np.testing.assert_array_equal(response.accepted, expected.accepted)
            assert response.result.model_contexts == expected.model_contexts
            assert response.model_version == expected.model_version

    def test_auth_counters_match_per_request_path(self, frontend):
        train_alice(frontend)
        own = matrix("alice", 0.0, n=8, seed=14)
        contexts = (CoarseContext.STATIONARY,) * 8
        frontend.submit_many(
            [
                AuthenticateRequest(user_id="alice", features=own.values[:5], contexts=contexts[:5]),
                AuthenticateRequest(user_id="alice", features=own.values[5:], contexts=contexts[5:]),
            ]
        )
        counters = frontend.gateway.snapshot()["counters"]
        assert counters["auth.windows"] == 8
        assert counters["auth.accepted"] + counters["auth.rejected"] == 8
        assert counters["frontend.coalesced_windows"] == 8


class TestServerSideContextDetection:
    def test_without_detector_maps_to_error(self, frontend):
        train_alice(frontend)
        response = frontend.submit(
            AuthenticateRequest(user_id="alice", features=np.zeros((2, 5)))
        )
        assert isinstance(response, ErrorResponse)
        assert response.error == "KeyError"
        assert "context detector" in response.message

    def test_detected_contexts_match_device_reported_truth(self, frontend):
        train_alice(frontend)
        # Distinct, well-separated context clusters so detection is exact.
        labelled = matrix("alice", 0.0, n=40, context="stationary", seed=15)
        moving = matrix("alice", 5.0, n=40, context="moving", seed=16)
        training = labelled.concatenate(moving)
        version = frontend.gateway.train_context_detector(training)
        assert version == 1
        assert frontend.gateway.registry.context_detector_versions() == [1]
        probe = np.vstack([labelled.values[:3], moving.values[:3]])
        truth = (CoarseContext.STATIONARY,) * 3 + (CoarseContext.MOVING,) * 3
        detected = frontend.submit(
            AuthenticateRequest(user_id="alice", features=probe)
        )
        reported = frontend.submit(
            AuthenticateRequest(user_id="alice", features=probe, contexts=truth)
        )
        assert isinstance(detected, AuthenticationResponse)
        np.testing.assert_array_equal(detected.scores, reported.scores)
        np.testing.assert_array_equal(detected.accepted, reported.accepted)
        assert detected.result.model_contexts == truth
        assert frontend.telemetry.counter_value("context.detections") == 6

    def test_detection_shares_one_pass_across_requests(self, frontend):
        train_alice(frontend)
        training = matrix("alice", 0.0, n=40, context="stationary", seed=17).concatenate(
            matrix("alice", 5.0, n=40, context="moving", seed=18)
        )
        frontend.gateway.train_context_detector(training)
        probe = matrix("alice", 0.0, n=4, seed=19)
        responses = frontend.submit_many(
            [
                AuthenticateRequest(user_id="alice", features=probe.values[:2]),
                AuthenticateRequest(user_id="alice", features=probe.values[2:]),
            ]
        )
        assert all(isinstance(r, AuthenticationResponse) for r in responses)
        # Both requests' rows were labelled by one detector call inside the
        # coalesced pass; the detection counter covers all 4 windows.
        assert frontend.telemetry.counter_value("context.detections") == 4


class TestControlDoor:
    def test_submit_control_dispatches_with_error_mapping(self, frontend):
        response = frontend.submit_control(RollbackRequest(user_id="ghost"))
        assert isinstance(response, ErrorResponse)
        assert response.error == "ValueError"  # nothing to roll back to
        snapshot = frontend.submit_control(SnapshotRequest())
        assert isinstance(snapshot, SnapshotResponse)

    def test_submit_control_rejects_data_plane_requests(self, frontend):
        from repro.service.gateway import PlaneMismatchError

        with pytest.raises(PlaneMismatchError, match="unreachable"):
            frontend.submit_control(
                AuthenticateRequest(
                    user_id="alice",
                    features=np.zeros((1, 5)),
                    contexts=(CoarseContext.STATIONARY,),
                )
            )
        with pytest.raises(TypeError, match="not a protocol request"):
            frontend.submit_control("snapshot")  # type: ignore[arg-type]

    def test_queue_admits_only_the_data_plane(self, frontend):
        with MicroBatchQueue(frontend, max_batch=4, max_delay_s=0.01) as queue:
            accepted = queue.submit(probe())
            with pytest.raises(TypeError, match="data-plane"):
                queue.submit(SnapshotRequest())
            with pytest.raises(TypeError, match="data-plane"):
                queue.submit(RollbackRequest(user_id="alice"))
            assert isinstance(accepted.result(timeout=5), EnrollResponse)


class TestMicroBatchQueue:
    def test_concurrent_submissions_coalesce_and_fan_out(self, frontend):
        train_alice(frontend)
        for uid in ("bg1", "bg2"):
            frontend.gateway.train(uid)
        probes = {
            "alice": matrix("alice", 0.0, n=4, seed=20),
            "bg1": matrix("bg1", 4.0, n=4, seed=21),
            "bg2": matrix("bg2", 6.0, n=4, seed=22),
        }
        contexts = (CoarseContext.STATIONARY,) * 4
        with MicroBatchQueue(frontend, max_batch=64, max_delay_s=0.02) as queue:
            barrier = threading.Barrier(len(probes))
            futures = {}

            def submit(uid):
                barrier.wait()
                futures[uid] = queue.submit(
                    AuthenticateRequest(
                        user_id=uid, features=probes[uid].values, contexts=contexts
                    )
                )

            threads = [
                threading.Thread(target=submit, args=(uid,)) for uid in probes
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for uid, future in futures.items():
                response = future.result(timeout=5)
                assert isinstance(response, AuthenticationResponse)
                assert response.user_id == uid
                expected = frontend.gateway.scorer_for(uid).score(
                    probes[uid].values, list(contexts)
                )
                np.testing.assert_array_equal(response.scores, expected.scores)

    def test_submit_requires_running_worker(self, frontend):
        queue = MicroBatchQueue(frontend)
        with pytest.raises(RuntimeError, match="not running"):
            queue.submit(probe())

    def test_submit_after_stop_raises_instead_of_hanging(self, frontend):
        queue = MicroBatchQueue(frontend)
        queue.start()
        queue.stop()
        with pytest.raises(RuntimeError, match="not running"):
            queue.submit(probe())
        # Restart works and serves again.
        with queue:
            assert isinstance(
                queue.submit(probe()).result(timeout=5), EnrollResponse
            )

    def test_cancelled_future_does_not_kill_the_worker(self, frontend):
        with MicroBatchQueue(frontend, max_batch=4, max_delay_s=0.05) as queue:
            first = queue.submit(probe())
            first.cancel()  # may or may not win the race with the worker
            second = queue.submit(probe())
            assert isinstance(second.result(timeout=5), EnrollResponse)
            # The worker survived whichever way the cancellation raced.
            third = queue.submit(probe())
            assert isinstance(third.result(timeout=5), EnrollResponse)
            if not first.cancelled():
                assert isinstance(first.result(timeout=5), EnrollResponse)

    def test_non_protocol_submission_rejected_before_enqueue(self, frontend):
        """Invalid input fails synchronously, never poisoning a batch slice."""
        with MicroBatchQueue(frontend, max_batch=8, max_delay_s=0.05) as queue:
            good = queue.submit(probe())
            with pytest.raises(TypeError, match="not a protocol request"):
                queue.submit("junk")  # type: ignore[arg-type]
            assert isinstance(good.result(timeout=5), EnrollResponse)

    def test_stop_drains_pending_requests(self, frontend):
        queue = MicroBatchQueue(frontend, max_batch=8, max_delay_s=0.2)
        queue.start()
        futures = [queue.submit(probe()) for _ in range(5)]
        queue.stop()
        for future in futures:
            assert isinstance(future.result(timeout=1), EnrollResponse)

    def test_rejects_degenerate_parameters(self, frontend):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatchQueue(frontend, max_batch=0)
        with pytest.raises(ValueError, match="max_delay_s"):
            MicroBatchQueue(frontend, max_delay_s=-1.0)
        with pytest.raises(ValueError, match="max_depth"):
            MicroBatchQueue(frontend, max_depth=0)
        with pytest.raises(ValueError, match="overflow"):
            MicroBatchQueue(frontend, overflow="shed")


def _block_gateway(frontend):
    """Make the gateway block on an event; returns (entered, release)."""
    entered, release = threading.Event(), threading.Event()
    original = frontend.gateway.handle

    def slow_handle(request, trace=None):
        entered.set()
        assert release.wait(timeout=10), "test never released the gateway"
        return original(request, trace)

    frontend.gateway.handle = slow_handle
    return entered, release


class TestAdmissionControl:
    def test_full_queue_rejects_with_throttled_response(self, frontend):
        entered, release = _block_gateway(frontend)
        queue = MicroBatchQueue(
            frontend, max_batch=1, max_delay_s=0.0, max_depth=1, overflow="reject"
        )
        with queue:
            first = queue.submit(probe())  # claimed by the worker
            assert entered.wait(timeout=5)  # ...which is now stuck in dispatch
            second = queue.submit(probe())  # fills the only slot
            assert queue.depth == 1
            third = queue.submit(
                AuthenticateRequest(
                    user_id="alice",
                    features=np.zeros((1, 5)),
                    contexts=(CoarseContext.STATIONARY,),
                )
            )
            # The reject policy resolves the future immediately and typed.
            response = third.result(timeout=1)
            assert isinstance(response, ThrottledResponse)
            assert response.reason == "queue-full"
            assert response.request_kind == "authenticate"
            assert response.user_id == "alice"
            assert response.queue_depth == 1
            assert response.max_depth == 1
            assert frontend.telemetry.counter_value("frontend.throttled") == 1
            release.set()
            assert isinstance(first.result(timeout=5), EnrollResponse)
            assert isinstance(second.result(timeout=5), EnrollResponse)
        # Accepted requests were never throttled.
        assert frontend.telemetry.counter_value("frontend.throttled") == 1

    def test_block_policy_applies_backpressure_to_the_submitter(self, frontend):
        entered, release = _block_gateway(frontend)
        queue = MicroBatchQueue(
            frontend, max_batch=1, max_delay_s=0.0, max_depth=1, overflow="block"
        )
        with queue:
            first = queue.submit(probe())
            assert entered.wait(timeout=5)
            second = queue.submit(probe())
            resolved = []

            def blocked_submit():
                resolved.append(queue.submit(probe()))

            submitter = threading.Thread(target=blocked_submit)
            submitter.start()
            time.sleep(0.1)
            assert not resolved  # still waiting for a slot, nothing dropped
            release.set()
            submitter.join(timeout=5)
            assert not submitter.is_alive()
            for future in (first, second, *resolved):
                assert isinstance(future.result(timeout=5), EnrollResponse)
        assert frontend.telemetry.counter_value("frontend.throttled") == 0

    def test_stop_fails_a_blocked_submitter_cleanly(self, frontend):
        entered, release = _block_gateway(frontend)
        queue = MicroBatchQueue(
            frontend, max_batch=1, max_delay_s=0.0, max_depth=1, overflow="block"
        )
        queue.start()
        first = queue.submit(probe())
        assert entered.wait(timeout=5)
        second = queue.submit(probe())
        outcome = []

        def blocked_submit():
            try:
                outcome.append(queue.submit(probe()))
            except RuntimeError as error:
                outcome.append(error)

        submitter = threading.Thread(target=blocked_submit)
        submitter.start()
        time.sleep(0.1)
        stopper = threading.Thread(target=queue.stop)
        stopper.start()
        time.sleep(0.1)
        release.set()
        stopper.join(timeout=10)
        submitter.join(timeout=10)
        assert not stopper.is_alive() and not submitter.is_alive()
        # The blocked submission observed the shutdown (RuntimeError) rather
        # than hanging forever or being silently dropped...
        assert len(outcome) == 1 and isinstance(outcome[0], RuntimeError)
        # ...while both accepted requests were drained and answered.
        assert isinstance(first.result(timeout=5), EnrollResponse)
        assert isinstance(second.result(timeout=5), EnrollResponse)

    def test_queue_wait_telemetry_recorded_per_dispatched_request(self, frontend):
        with MicroBatchQueue(frontend, max_batch=4, max_delay_s=0.01) as queue:
            futures = [queue.submit(probe()) for _ in range(3)]
            for future in futures:
                future.result(timeout=5)
        recorder = frontend.telemetry.histogram("frontend.queue_wait")
        assert recorder.count == 3
        assert recorder.max_seconds < 5.0

    def test_unbounded_queue_never_throttles(self, frontend):
        with MicroBatchQueue(frontend, max_batch=2, max_delay_s=0.0) as queue:
            futures = [queue.submit(probe()) for _ in range(20)]
            for future in futures:
                assert isinstance(future.result(timeout=5), EnrollResponse)
        assert frontend.telemetry.counter_value("frontend.throttled") == 0


class TestFusedStackCacheIntegration:
    """The serving table: one build per registry generation, then hits.

    ``frontend.stack_cache.*`` count serving-table events: a hit is a pass
    served by the current table, a miss is a table build.
    """

    def _requests(self, frontend, seed):
        probes = {
            uid: matrix(uid, mean, n=6, seed=seed + offset)
            for offset, (uid, mean) in enumerate(
                (("alice", 0.0), ("bg1", 4.0), ("bg2", 6.0))
            )
        }
        contexts = (CoarseContext.STATIONARY, CoarseContext.MOVING) * 3
        return [
            AuthenticateRequest(user_id=uid, features=probe.values, contexts=contexts)
            for uid, probe in probes.items()
        ]

    def _trained(self, frontend):
        train_alice(frontend)
        for uid in ("bg1", "bg2"):
            frontend.gateway.train(uid)

    def test_repeated_flushes_hit_the_cache_with_identical_scores(self, frontend):
        self._trained(frontend)
        first = frontend.submit_many(self._requests(frontend, seed=40))
        assert frontend.table_misses == 1
        hits_before = frontend.table_hits
        second = frontend.submit_many(self._requests(frontend, seed=40))
        assert frontend.table_hits == hits_before + 1
        assert frontend.table_misses == 1
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.scores, b.scores)
        counters = frontend.gateway.snapshot()["counters"]
        assert counters["frontend.stack_cache.hits"] == frontend.table_hits
        assert counters["frontend.stack_cache.misses"] == frontend.table_misses

    def test_cached_flush_matches_per_request_gateway_scores(self, frontend):
        self._trained(frontend)
        requests = self._requests(frontend, seed=50)
        frontend.submit_many(requests)  # build the table
        for request, response in zip(requests, frontend.submit_many(requests)):
            expected = frontend.gateway.scorer_for(request.user_id).score(
                request.features, list(request.contexts)
            )
            np.testing.assert_array_equal(response.scores, expected.scores)
            np.testing.assert_array_equal(response.accepted, expected.accepted)

    def test_publish_invalidates_the_cache(self, frontend):
        self._trained(frontend)
        requests = self._requests(frontend, seed=60)
        frontend.submit_many(requests)
        misses_before = frontend.table_misses
        # A drift retrain publishes a new version -> generation moves.
        frontend.submit(
            DriftReport(user_id="alice", matrix=matrix("alice", 0.3, n=30, seed=61))
        )
        responses = frontend.submit_many(requests)
        assert all(isinstance(r, AuthenticationResponse) for r in responses)
        assert frontend.table_misses == misses_before + 1
        assert responses[0].model_version == 2  # alice is served the retrain

    def test_rollback_invalidates_the_cache(self, frontend):
        self._trained(frontend)
        frontend.submit(
            DriftReport(user_id="alice", matrix=matrix("alice", 0.3, n=30, seed=62))
        )
        requests = self._requests(frontend, seed=63)
        frontend.submit_many(requests)
        misses_before = frontend.table_misses
        frontend.submit(RollbackRequest(user_id="alice"))
        responses = frontend.submit_many(requests)
        assert all(isinstance(r, AuthenticationResponse) for r in responses)
        assert frontend.table_misses == misses_before + 1
        assert responses[0].model_version == 1  # alice serves v1 again


def assert_matches_reference(frontend, request, response):
    """*response* equals the per-request gateway path's answer bit for bit."""
    try:
        expected = frontend.gateway._handle_authenticate(request)
    except Exception as error:
        assert isinstance(response, ErrorResponse), response
        assert response.error == type(error).__name__
        assert response.message == str(error)
        return
    assert isinstance(response, AuthenticationResponse), response
    np.testing.assert_array_equal(response.scores, expected.scores)
    np.testing.assert_array_equal(response.accepted, expected.accepted)
    assert response.result.model_contexts == expected.result.model_contexts
    assert response.model_version == expected.model_version


def misses(frontend):
    return frontend.telemetry.counter_value("frontend.stack_cache.misses")


class TestServingTable:
    """Pinned versions, errors and invalidation through the fused pass."""

    def _fleet(self, frontend):
        """alice at v2 (v1 still published), bg1 and bg2 at v1."""
        train_alice(frontend)
        for uid in ("bg1", "bg2"):
            frontend.gateway.train(uid)
        frontend.submit(
            DriftReport(user_id="alice", matrix=matrix("alice", 0.3, n=30, seed=70))
        )

    def _mixed(self):
        rng = np.random.default_rng(71)
        contexts = (CoarseContext.STATIONARY, CoarseContext.MOVING) * 2

        def request(user_id, version=None, n=4):
            return AuthenticateRequest(
                user_id=user_id,
                features=rng.normal(0.0, 2.0, size=(n, 5)),
                contexts=contexts[:n],
                version=version,
            )

        return [
            request("alice", version=1),  # an older pinned version
            request("alice"),
            request("bg1"),
            request("alice", version=9),  # never published
            request("ghost"),  # unknown user
            request("bg2", n=0),  # zero windows
            request("alice", version=1),
            request("bg2", version=1),  # pins the serving version
        ]

    def _columns(self, requests):
        from repro.service.protocol import AuthenticateColumns

        return AuthenticateColumns(
            user_ids=tuple(r.user_id for r in requests),
            features=np.vstack([r.features.reshape(-1, 5) for r in requests]),
            lengths=np.array([len(r.features) for r in requests]),
            context_codes=np.concatenate([r.context_codes for r in requests]),
            versions=tuple(r.version for r in requests),
        )

    def test_pinned_versions_and_errors_match_the_per_request_path(self, frontend):
        self._fleet(frontend)
        requests = self._mixed()
        before = misses(frontend)
        objects = frontend.submit_many(requests)
        columnar = frontend.submit_columns(self._columns(requests)).responses()
        objects_again = frontend.submit_many(requests)
        # One build for the new generation; pinned rows are appended to it.
        assert misses(frontend) - before == 1
        assert frontend.telemetry.counter_value("frontend.coalesced_batches") == 3
        for responses in (objects, columnar, objects_again):
            for request, response in zip(requests, responses):
                assert_matches_reference(frontend, request, response)
        assert [type(r).__name__ for r in objects] == [
            "AuthenticationResponse",
            "AuthenticationResponse",
            "AuthenticationResponse",
            "ErrorResponse",
            "ErrorResponse",
            "AuthenticationResponse",
            "AuthenticationResponse",
            "AuthenticationResponse",
        ]
        assert [r.model_version for r in objects if not isinstance(r, ErrorResponse)] == [
            1, 2, 1, 1, 1, 1,
        ]

    def test_registry_users_keep_their_locks_between_passes(self, frontend):
        import gc
        import weakref

        self._fleet(frontend)
        requests = self._mixed()
        frontend.submit_many(requests)
        alice, ghost = (weakref.ref(frontend._lock_for(u)) for u in ("alice", "ghost"))
        gc.collect()
        # A registry user's lock outlives the pass, so the next frame
        # reuses it; an unknown id's lock is still reclaimed.
        assert alice() is not None and ghost() is None
        frontend.submit_many(requests)
        assert frontend._lock_for("alice") is alice()

    def _probe(self, frontend, **kwargs):
        rng = np.random.default_rng(72)
        return [
            AuthenticateRequest(
                user_id=uid,
                features=rng.normal(mean, 1.0, size=(4, 5)),
                **kwargs,
            )
            for uid, mean in (("alice", 0.0), ("bg1", 4.0), ("bg2", 6.0))
        ]

    def _one_rebuild(self, frontend, change, requests):
        frontend.submit_many(requests)
        before = misses(frontend)
        change()
        responses = frontend.submit_many(requests)
        assert misses(frontend) - before == 1
        for request, response in zip(requests, responses):
            assert_matches_reference(frontend, request, response)
        frontend.submit_many(requests)
        assert misses(frontend) - before == 1
        return responses

    def test_publish_rebuilds_once(self, frontend):
        self._fleet(frontend)
        contexts = (CoarseContext.STATIONARY,) * 4
        responses = self._one_rebuild(
            frontend,
            lambda: frontend.submit(
                DriftReport(user_id="bg1", matrix=matrix("bg1", 4.2, n=30, seed=73))
            ),
            self._probe(frontend, contexts=contexts),
        )
        assert responses[1].model_version == 2

    def test_rollback_rebuilds_once(self, frontend):
        self._fleet(frontend)
        contexts = (CoarseContext.MOVING,) * 4
        responses = self._one_rebuild(
            frontend,
            lambda: frontend.submit_control(RollbackRequest(user_id="alice")),
            self._probe(frontend, contexts=contexts),
        )
        assert responses[0].model_version == 1

    def test_fleet_wide_eviction_rebuilds_once(self, frontend):
        self._fleet(frontend)
        contexts = (CoarseContext.STATIONARY,) * 4
        requests = self._probe(frontend, contexts=contexts, version=None)
        pinned = AuthenticateRequest(
            user_id="alice",
            features=requests[0].features,
            contexts=contexts,
            version=1,
        )
        requests.append(pinned)
        assert isinstance(frontend.submit_many(requests)[-1], AuthenticationResponse)
        # Takes no user lock; drops alice's v1 while its row is in the table.
        responses = self._one_rebuild(
            frontend,
            lambda: frontend.gateway.registry.evict(max_versions=1, user_id=None),
            requests,
        )
        assert isinstance(responses[-1], ErrorResponse)
        assert responses[-1].error == "KeyError"

    def test_detector_publish_rebuilds_once(self, frontend):
        self._fleet(frontend)
        training = matrix("alice", 0.0, n=40, context="stationary", seed=74).concatenate(
            matrix("alice", 5.0, n=40, context="moving", seed=75)
        )
        frontend.gateway.train_context_detector(training)
        flipped = matrix("alice", 0.0, n=40, context="moving", seed=74).concatenate(
            matrix("alice", 5.0, n=40, context="stationary", seed=75)
        )
        before = frontend.submit_many(self._probe(frontend))
        responses = self._one_rebuild(
            frontend,
            lambda: frontend.gateway.train_context_detector(flipped),
            self._probe(frontend),
        )
        # The new detector labels the same windows the other way round.
        assert [r.result.model_contexts for r in responses] != [
            r.result.model_contexts for r in before
        ]

    def test_use_context_flip_rebuilds_once(self, frontend):
        self._fleet(frontend)
        contexts = (CoarseContext.MOVING,) * 4

        def flip():
            frontend.gateway.use_context = False

        responses = self._one_rebuild(
            frontend, flip, self._probe(frontend, contexts=contexts)
        )
        # Without contexts the stationary model scores every window.
        assert all(
            r.result.model_contexts == (CoarseContext.STATIONARY,) * 4
            for r in responses
        )


class TestColumnarDoor:
    """submit_columns: the zero-copy twin of a coalesced submit_many."""

    def _columns(self, requests):
        from repro.service.protocol import AuthenticateColumns

        return AuthenticateColumns(
            user_ids=tuple(r.user_id for r in requests),
            features=np.vstack([r.features for r in requests]),
            lengths=np.array([len(r.features) for r in requests]),
            context_codes=(
                None
                if requests[0].contexts is None
                else np.concatenate([r.context_codes for r in requests])
            ),
            versions=tuple(r.version for r in requests),
        )

    def _requests(self, frontend, contexts=True, users=("alice", "alice")):
        train_alice(frontend)
        rng = np.random.default_rng(21)
        return [
            AuthenticateRequest(
                user_id=user,
                features=rng.normal(0.0, 1.0, size=(3, 5)),
                contexts=(
                    (CoarseContext.STATIONARY, CoarseContext.MOVING,
                     CoarseContext.STATIONARY)
                    if contexts
                    else None
                ),
            )
            for user in users
        ]

    def test_columnar_results_match_submit_many_bit_for_bit(self, frontend):
        # Both doors run the same pass, so each is held against the
        # per-request gateway path rather than against the other.
        requests = self._requests(frontend)
        reference = [frontend.gateway._handle_authenticate(r) for r in requests]
        result = frontend.submit_columns(self._columns(requests))
        assert not result.errors
        for responses in (result.responses(), frontend.submit_many(requests)):
            for expected, actual in zip(reference, responses):
                assert isinstance(actual, AuthenticationResponse)
                np.testing.assert_array_equal(actual.scores, expected.scores)
                np.testing.assert_array_equal(actual.accepted, expected.accepted)
                assert actual.result.model_contexts == expected.result.model_contexts
                assert actual.model_version == expected.model_version

    def test_unknown_user_errors_in_place_without_costing_neighbours(self, frontend):
        requests = self._requests(frontend, users=("alice", "ghost", "alice"))
        result = frontend.submit_columns(self._columns(requests))
        assert set(result.errors) == {1}
        assert result.errors[1].error == "KeyError"
        assert result.lengths.tolist() == [3, 0, 3]
        responses = result.responses()
        assert isinstance(responses[0], AuthenticationResponse)
        assert isinstance(responses[1], ErrorResponse)
        assert isinstance(responses[2], AuthenticationResponse)
        reference = frontend.submit_many(requests)
        np.testing.assert_array_equal(responses[0].scores, reference[0].scores)
        np.testing.assert_array_equal(responses[2].scores, reference[2].scores)

    def test_server_side_detection_runs_once_over_the_block(self, frontend):
        train_alice(frontend)
        pool = matrix("alice", 0.0, context="stationary", seed=5).concatenate(
            matrix("alice", 0.0, context="moving", seed=6)
        )
        frontend.gateway.train_context_detector(pool)
        requests = self._requests(frontend, contexts=False)
        reference = frontend.submit_many(requests)
        before = frontend.telemetry.counter_value("context.detections")
        result = frontend.submit_columns(self._columns(requests))
        assert frontend.telemetry.counter_value("context.detections") - before == 6
        for expected, actual in zip(reference, result.responses()):
            np.testing.assert_array_equal(actual.scores, expected.scores)
            assert actual.result.model_contexts == expected.result.model_contexts

    def test_telemetry_counters_match_the_object_path(self, frontend):
        requests = self._requests(frontend)
        result_counters = {}
        for label, submit in (
            ("reference", lambda: [
                frontend.gateway._handle_authenticate(r) for r in requests
            ]),
            ("objects", lambda: frontend.submit_many(requests)),
            ("columns", lambda: frontend.submit_columns(self._columns(requests))),
        ):
            before = {
                name: frontend.telemetry.counter_value(name)
                for name in (
                    "frontend.requests",
                    "frontend.coalesced_batches",
                    "frontend.coalesced_windows",
                    "auth.windows",
                    "auth.accepted",
                    "auth.rejected",
                )
            }
            submit()
            result_counters[label] = {
                name: frontend.telemetry.counter_value(name) - value
                for name, value in before.items()
            }
        assert result_counters["objects"] == result_counters["columns"]
        # The per-request path counts the same decisions.
        for name in ("auth.windows", "auth.accepted", "auth.rejected"):
            assert result_counters["reference"][name] == result_counters["objects"][name]

    def test_type_error_on_non_columnar_input(self, frontend):
        with pytest.raises(TypeError, match="AuthenticateColumns"):
            frontend.submit_columns(AuthenticateRequest(
                user_id="alice", features=np.zeros((1, 5)),
                contexts=(CoarseContext.STATIONARY,),
            ))

    def test_columns_validation(self):
        from repro.service.protocol import AuthenticateColumns

        with pytest.raises(ValueError, match="lengths sum"):
            AuthenticateColumns(
                user_ids=("a",),
                features=np.zeros((3, 2)),
                lengths=np.array([2]),
            )
        with pytest.raises(ValueError, match="context codes"):
            AuthenticateColumns(
                user_ids=("a",),
                features=np.zeros((2, 2)),
                lengths=np.array([2]),
                context_codes=np.array([0], dtype=np.int8),
            )
