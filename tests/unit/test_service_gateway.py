"""Unit tests for the authentication gateway and service telemetry."""

import numpy as np
import pytest

from repro.features.vector import FeatureMatrix
from repro.sensors.types import CoarseContext
from repro.service.gateway import AuthenticationGateway
from repro.service.telemetry import Counter, TelemetryHub


def matrix(uid, mean, n=15, d=5, context="stationary", seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(
        values=rng.normal(mean, 1.0, size=(n, d)),
        feature_names=[f"f{i}" for i in range(d)],
        user_ids=[uid] * n,
        contexts=[context] * n,
    )


@pytest.fixture()
def gateway():
    gateway = AuthenticationGateway(min_windows_to_train=20)
    # Two background users provide the negative pool; both sit on the same
    # side of feature space so owner-versus-rest stays linearly separable
    # (as for real motion features).
    for uid, mean, seed in (("bg1", 4.0, 1), ("bg2", 6.0, 2)):
        for context in ("stationary", "moving"):
            gateway.enroll(uid, matrix(uid, mean, context=context, seed=seed), train=False)
    return gateway


class TestEnrollment:
    def test_buffers_until_threshold_then_trains(self, gateway):
        first = gateway.enroll("alice", matrix("alice", 0.0, context="stationary", seed=3))
        assert first.status == "buffered"
        assert first.model_version is None
        second = gateway.enroll("alice", matrix("alice", 0.0, context="moving", seed=4))
        assert second.status == "trained"
        assert second.model_version == 1
        assert gateway.registry.latest_version("alice") == 1

    def test_explicit_train_flag_overrides_threshold(self, gateway):
        response = gateway.enroll(
            "alice", matrix("alice", 0.0, n=30, context="stationary", seed=5), train=True
        )
        assert response.status == "trained"
        buffered = gateway.enroll(
            "alice", matrix("alice", 0.0, n=30, context="stationary", seed=6), train=False
        )
        assert buffered.status == "buffered"

    def test_schema_mismatch_propagates(self, gateway):
        with pytest.raises(ValueError, match="feature_names mismatch"):
            gateway.enroll("alice", matrix("alice", 0.0, d=3, seed=7))

    def test_auto_train_waits_for_context_negatives(self):
        """No negatives under a stored context -> buffer, don't crash."""
        gateway = AuthenticationGateway(min_windows_to_train=20)
        gateway.enroll("a", matrix("a", 3.0, n=25, context="moving", seed=40), train=False)
        response = gateway.enroll("b", matrix("b", 0.0, n=25, context="stationary", seed=41))
        assert response.status == "buffered"  # only moving negatives exist
        # Once user a contributes stationary windows too, b can train.
        gateway.enroll("a", matrix("a", 3.0, n=5, context="stationary", seed=42), train=False)
        trained = gateway.enroll("b", matrix("b", 0.0, n=1, context="stationary", seed=43))
        assert trained.status == "trained"

    def test_auto_train_mirrors_trainable_subset(self, gateway):
        """Auto-train fires as soon as any context qualifies, training it."""
        gateway.enroll("alice", matrix("alice", 0.0, n=12, context="stationary", seed=30), train=False)
        response = gateway.enroll("alice", matrix("alice", 0.0, n=8, context="moving", seed=31))
        # 20 stored and stationary qualifies -> a stationary-only v1 trains
        # (moving, still below the minimum, is filtered rather than fatal).
        assert response.status == "trained"
        assert response.model_version == 1
        bundle = gateway.registry.bundle_for("alice", 1)
        assert set(bundle.models) == {CoarseContext.STATIONARY}
        topped_up = gateway.enroll("alice", matrix("alice", 0.0, n=2, context="moving", seed=32))
        assert topped_up.status == "trained"
        assert topped_up.model_version == 2
        assert set(gateway.registry.bundle_for("alice", 2).models) == set(CoarseContext)

    def test_auto_train_waits_below_aggregate_minimum(self, gateway):
        """Below min_windows_to_train nothing trains, qualifying or not."""
        response = gateway.enroll("alice", matrix("alice", 0.0, n=15, context="stationary", seed=34))
        assert response.status == "buffered"

    def test_small_unlabelled_upload_does_not_poison_training(self, gateway):
        """A few wildcard rows must not make a data-poor context abort."""
        gateway.enroll("alice", matrix("alice", 0.0, n=30, context="stationary", seed=70), train=False)
        stray = matrix("alice", 0.0, n=5, context="stationary", seed=71)
        stray = FeatureMatrix(
            values=stray.values,
            feature_names=list(stray.feature_names),
            user_ids=list(stray.user_ids),
        )
        gateway.enroll("alice", stray, train=False)
        version = gateway.train("alice")
        bundle = gateway.registry.bundle_for("alice", version)
        # Only the stationary context met the minimum; moving (5 wildcard
        # rows) was filtered out rather than failing the whole round.
        assert set(bundle.models) == {CoarseContext.STATIONARY}

    def test_unlabelled_windows_train_every_context(self, gateway):
        """Windows without context labels count towards all contexts."""
        unlabelled = matrix("alice", 0.0, n=25, context="stationary", seed=33)
        unlabelled = FeatureMatrix(
            values=unlabelled.values,
            feature_names=list(unlabelled.feature_names),
            user_ids=list(unlabelled.user_ids),
        )
        response = gateway.enroll("alice", unlabelled)
        assert response.status == "trained"
        bundle = gateway.registry.bundle_for("alice")
        assert set(bundle.models) == set(CoarseContext)


class TestAuthentication:
    def test_owner_accepted_impostor_rejected(self, gateway):
        for context in ("stationary", "moving"):
            gateway.enroll("alice", matrix("alice", 0.0, context=context, seed=8), train=False)
        gateway.enroll("alice", matrix("alice", 0.0, n=1, context="stationary", seed=9))
        own = matrix("alice", 0.0, context="stationary", seed=10)
        response = gateway.authenticate(
            "alice", own.values, [CoarseContext.STATIONARY] * len(own)
        )
        assert response.accept_rate > 0.8
        assert response.model_version == 1
        impostor = matrix("bg1", 4.0, context="stationary", seed=11)
        attack = gateway.authenticate(
            "alice", impostor.values, [CoarseContext.STATIONARY] * len(impostor)
        )
        assert attack.accept_rate < 0.2

    def test_untrained_user_raises(self, gateway):
        with pytest.raises(KeyError):
            gateway.authenticate("ghost", np.zeros((1, 5)), [CoarseContext.STATIONARY])

    def test_telemetry_counts_windows(self, gateway):
        for context in ("stationary", "moving"):
            gateway.enroll("alice", matrix("alice", 0.0, context=context, seed=12))
        own = matrix("alice", 0.0, n=7, context="stationary", seed=13)
        gateway.authenticate("alice", own.values, [CoarseContext.STATIONARY] * 7)
        snapshot = gateway.snapshot()
        assert snapshot["counters"]["auth.windows"] == 7
        assert (
            snapshot["counters"]["auth.accepted"]
            + snapshot["counters"]["auth.rejected"]
            == 7
        )
        assert snapshot["latencies"]["authenticate"]["count"] == 1
        assert snapshot["store"]["n_users"] == 3


class TestDriftAndRollback:
    def test_drift_report_retrains_and_bumps_version(self, gateway):
        for context in ("stationary", "moving"):
            gateway.enroll("alice", matrix("alice", 0.0, context=context, seed=14))
        response = gateway.report_drift(
            "alice", matrix("alice", 1.0, n=30, context="stationary", seed=15)
        )
        assert response.previous_version == 1
        assert response.new_version == 2
        assert gateway.registry.latest_version("alice") == 2

    def test_use_context_flip_invalidates_cached_scorers(self, gateway):
        """Changing the scoring mode must rebuild scorers for all users."""
        # Distinct data per context so the two context models differ.
        gateway.enroll("alice", matrix("alice", 0.0, context="stationary", seed=63), train=False)
        gateway.enroll("alice", matrix("alice", 1.5, context="moving", seed=65))
        own = matrix("alice", 1.5, n=4, context="moving", seed=64)
        contexts = [CoarseContext.MOVING] * 4
        with_context = gateway.authenticate("alice", own.values, contexts)
        gateway.use_context = False
        without_context = gateway.authenticate("alice", own.values, contexts)
        bundle = gateway.registry.bundle_for("alice")
        from repro.core.scoring import BatchScorer

        expected = BatchScorer(bundle, use_context=False).score(own.values, contexts)
        np.testing.assert_array_equal(without_context.scores, expected.scores)
        assert not np.array_equal(with_context.scores, without_context.scores)

    def test_scorer_cache_holds_one_entry_per_user(self, gateway):
        """Retraining must replace, not accumulate, cached scorers."""
        for context in ("stationary", "moving"):
            gateway.enroll("alice", matrix("alice", 0.0, context=context, seed=60))
        own = matrix("alice", 0.0, n=2, context="stationary", seed=61)
        for round_number in range(4):
            gateway.authenticate("alice", own.values, [CoarseContext.STATIONARY] * 2)
            gateway.report_drift(
                "alice", matrix("alice", 0.1, n=30, context="stationary", seed=62 + round_number)
            )
        gateway.authenticate("alice", own.values, [CoarseContext.STATIONARY] * 2)
        assert len(gateway._scorers) == 1
        cached_version, _, _ = gateway._scorers["alice"]
        assert cached_version == gateway.registry.latest_version("alice")

    def test_drift_report_for_untrained_user_preserves_windows(self, gateway):
        gateway.enroll("alice", matrix("alice", 0.0, n=5, context="stationary", seed=80), train=False)
        fresh = matrix("alice", 0.5, n=7, context="stationary", seed=81)
        with pytest.raises(KeyError):
            gateway.report_drift("alice", fresh)
        # The uploaded windows survived the failed report.
        assert gateway.server.stored_window_count("alice") == 12

    def test_rollback_restores_previous_serving_version(self, gateway):
        for context in ("stationary", "moving"):
            gateway.enroll("alice", matrix("alice", 0.0, context=context, seed=16))
        gateway.report_drift("alice", matrix("alice", 1.0, n=30, context="stationary", seed=17))
        serving = gateway.rollback("alice")
        assert serving == 1
        own = matrix("alice", 0.0, n=4, context="stationary", seed=18)
        response = gateway.authenticate(
            "alice", own.values, [CoarseContext.STATIONARY] * 4
        )
        assert response.model_version == 1


class TestPlaneSplit:
    def _trained_alice(self, gateway):
        for context in ("stationary", "moving"):
            gateway.enroll("alice", matrix("alice", 0.0, context=context, seed=90))

    def test_handle_routes_both_planes(self, gateway):
        from repro.service.protocol import (
            EvictRequest,
            EvictResponse,
            RollbackRequest,
            SnapshotRequest,
        )

        self._trained_alice(gateway)
        assert gateway.handle(SnapshotRequest()).snapshot["counters"]
        assert isinstance(gateway.handle(EvictRequest()), EvictResponse)
        with pytest.raises(ValueError):  # single version: nothing to roll back to
            gateway.handle(RollbackRequest(user_id="alice"))

    def test_data_plane_serves_only_the_hot_path(self, gateway):
        from repro.service.gateway import PlaneMismatchError
        from repro.service.protocol import (
            AuthenticateRequest,
            DetectorTrainRequest,
            EvictRequest,
            RollbackRequest,
            SnapshotRequest,
        )

        self._trained_alice(gateway)
        own = matrix("alice", 0.0, n=2, seed=91)
        response = gateway.data_plane.handle(
            AuthenticateRequest(
                user_id="alice",
                features=own.values,
                contexts=(CoarseContext.STATIONARY,) * 2,
            )
        )
        assert len(response.result) == 2
        for control_request in (
            RollbackRequest(user_id="alice"),
            SnapshotRequest(),
            EvictRequest(),
            DetectorTrainRequest(matrix=matrix("alice", 0.0, seed=92)),
        ):
            with pytest.raises(PlaneMismatchError, match="unreachable"):
                gateway.data_plane.handle(control_request)

    def test_control_plane_rejects_the_hot_path(self, gateway):
        from repro.service.gateway import PlaneMismatchError
        from repro.service.protocol import AuthenticateRequest, EnrollRequest

        for data_request in (
            EnrollRequest(user_id="alice", matrix=matrix("alice", 0.0, seed=93)),
            AuthenticateRequest(
                user_id="alice",
                features=np.zeros((1, 5)),
                contexts=(CoarseContext.STATIONARY,),
            ),
        ):
            with pytest.raises(PlaneMismatchError, match="unreachable"):
                gateway.control_plane.handle(data_request)

    def test_non_protocol_request_raises_type_error(self, gateway):
        with pytest.raises(TypeError, match="not a protocol request"):
            gateway.handle("rollback alice")  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            gateway.data_plane.handle("rollback alice")  # type: ignore[arg-type]

    def test_plane_request_sets_cover_the_protocol(self, gateway):
        from repro.service import protocol

        data = set(gateway.data_plane.request_types)
        control = set(gateway.control_plane.request_types)
        assert data == set(protocol.DATA_PLANE_TYPES)
        assert control == set(protocol.CONTROL_PLANE_TYPES)
        assert not data & control

    def test_evict_op_drops_old_versions_and_counts(self, gateway):
        self._trained_alice(gateway)
        for round_number in range(3):
            gateway.report_drift(
                "alice",
                matrix("alice", 0.1, n=30, context="stationary", seed=94 + round_number),
            )
        assert gateway.registry.versions("alice") == [1, 2, 3, 4]
        response = gateway.evict(policy="max_versions", max_versions=2)
        assert response.evicted == {"alice": [1, 2]}
        assert response.versions_evicted == 2
        assert gateway.registry.versions("alice") == [3, 4]
        assert gateway.snapshot()["counters"]["registry.evicted"] == 2

    def test_train_detector_op_publishes_a_version(self, gateway):
        from repro.service.protocol import DetectorTrainRequest

        training = matrix("alice", 0.0, n=40, context="stationary", seed=96).concatenate(
            matrix("alice", 5.0, n=40, context="moving", seed=97)
        )
        response = gateway.handle(DetectorTrainRequest(matrix=training))
        assert response.version == 1
        assert gateway.registry.context_detector_versions() == [1]


class TestRegistryWiring:
    def test_gateway_adopts_server_registry_with_published_versions(self):
        from repro.devices.cloud import AuthenticationServer
        from repro.service.registry import ModelRegistry

        registry = ModelRegistry()
        server = AuthenticationServer(registry=registry)
        for context in ("stationary", "moving"):
            server.upload_features("a", matrix("a", 0.0, context=context, seed=50))
            server.upload_features("b", matrix("b", 4.0, context=context, seed=51))
        server.train_authentication_models("a")
        gateway = AuthenticationGateway(server=server)
        assert gateway.registry is registry
        own = matrix("a", 0.0, n=4, context="stationary", seed=52)
        response = gateway.authenticate(
            "a", own.values, [CoarseContext.STATIONARY] * 4
        )
        assert response.model_version == 1

    def test_explicit_registry_still_wins(self):
        from repro.devices.cloud import AuthenticationServer
        from repro.service.registry import ModelRegistry

        server_registry = ModelRegistry()
        explicit = ModelRegistry()
        server = AuthenticationServer(registry=server_registry)
        gateway = AuthenticationGateway(server=server, registry=explicit)
        assert gateway.registry is explicit
        assert server.registry is explicit


class TestTelemetryPrimitives:
    def test_counter_increments_and_rejects_negative(self):
        counter = Counter("c")
        assert counter.increment() == 1
        assert counter.increment(4) == 5
        with pytest.raises(ValueError):
            counter.increment(-1)

    def test_latency_histogram_statistics(self):
        hub = TelemetryHub()
        for value in (0.1, 0.2, 0.3, 0.4):
            hub.record("op", value)
        summary = hub.snapshot()["latencies"]["op"]
        assert summary["count"] == 4
        assert summary["total_s"] == pytest.approx(1.0)
        assert summary["mean_s"] == pytest.approx(0.25)
        assert summary["max_s"] == pytest.approx(0.4)
        # Interpolated percentiles stay inside the recorded range.
        assert 0.1 <= summary["p50_s"] <= summary["p95_s"] <= 0.4
        with pytest.raises(ValueError):
            hub.record("op", -0.1)
        assert hub.histogram("op").count == 4
        with pytest.raises(ValueError):
            hub.histogram("op").quantile(101.0)

    def test_latency_histogram_memory_is_bounded(self):
        hub = TelemetryHub()
        for index in range(1000):
            hub.record("op", float(index))
        histogram = hub.histogram("op")
        assert histogram.count == 1000  # lifetime stats stay exact
        assert histogram.total_seconds == pytest.approx(sum(range(1000)))
        assert histogram.max_seconds == 999.0
        # Memory is the fixed bucket counts, however many samples arrive.
        assert len(histogram.bucket_counts) == len(histogram.bounds) + 1
        assert sum(histogram.bucket_counts) == 1000
        assert histogram.quantile(100.0) == 999.0

    def test_hub_entry_points_are_thread_safe(self):
        import threading

        hub = TelemetryHub()

        def work():
            for _ in range(5000):
                hub.increment("events")
                hub.record("op", 0.001)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert hub.counter_value("events") == 20000
        assert hub.snapshot()["latencies"]["op"]["count"] == 20000

    def test_hub_timer_and_snapshot(self):
        hub = TelemetryHub()
        with hub.timer("work"):
            hub.increment("events", 3)
        assert hub.counter_value("events") == 3
        assert hub.counter_value("missing") == 0
        snapshot = hub.snapshot()
        assert snapshot["counters"] == {"events": 3}
        assert snapshot["latencies"]["work"]["count"] == 1
        assert snapshot["latencies"]["work"]["total_s"] >= 0.0
        hub.reset()
        # reset() zeroes metrics *in place*: names persist (so references
        # cached by callers stay live) but every count returns to zero.
        snapshot = hub.snapshot()
        assert set(snapshot["counters"]) == {"events"}
        assert snapshot["counters"]["events"] == 0
        assert snapshot["latencies"]["work"]["count"] == 0
        assert snapshot["latencies"]["work"]["total_s"] == 0.0

    def test_reset_keeps_cached_recorder_objects_live(self):
        hub = TelemetryHub()
        counter = hub.counter("events")
        recorder = hub.histogram("op")
        hub.increment("events", 5)
        hub.record("op", 0.25)
        hub.reset()
        assert counter.value == 0
        assert recorder.count == 0
        # The cached objects are the live ones: post-reset traffic through
        # the hub is visible through references taken before the reset.
        hub.increment("events", 2)
        hub.record("op", 0.5)
        assert counter.value == 2
        assert recorder.count == 1
        assert hub.counter("events") is counter
        assert hub.histogram("op") is recorder


class TestUnifiedContextDetectorTraining:
    """The paper path and the served publication share one entry point."""

    def _labelled(self, uid="alice", seed=30):
        return matrix(uid, 0.0, n=40, context="stationary", seed=seed).concatenate(
            matrix(uid, 5.0, n=40, context="moving", seed=seed + 1)
        )

    def test_default_factories_are_the_same_object(self):
        from repro.core.context import ContextDetector
        from repro.devices.cloud import AuthenticationServer, default_context_detector_factory

        server = AuthenticationServer()
        assert server.context_detector_factory is default_context_detector_factory
        detector = ContextDetector()
        reference = default_context_detector_factory()
        assert type(detector.classifier) is type(reference)
        assert detector.classifier.get_params() == reference.get_params()

    def test_paper_path_and_server_training_agree_bit_for_bit(self, gateway):
        from repro.core.context import ContextDetector

        training = self._labelled()
        paper = ContextDetector().fit(training)
        gateway.train_context_detector(training)
        scaler, classifier = gateway.server.download_context_detector()
        probe = np.vstack([training.values[:5], training.values[-5:]])
        np.testing.assert_array_equal(
            paper.scaler.transform(probe), scaler.transform(probe)
        )
        paper_labels = [context.value for context in paper.detect(probe)]
        served_labels = list(classifier.predict(scaler.transform(probe)))
        assert paper_labels == [str(label) for label in served_labels]

    def test_publish_a_pre_fitted_paper_detector(self, gateway):
        from repro.core.context import ContextDetector

        training = self._labelled(seed=40)
        detector = ContextDetector().fit(training)
        version = gateway.train_context_detector(detector=detector)
        assert version == 1
        # The registry and the cloud server both serve that model's
        # behaviour exactly (published as a snapshot, not by reference).
        scaler, classifier = gateway.registry.context_detector()
        probe = training.values[:6]
        np.testing.assert_array_equal(
            detector.scaler.transform(probe), scaler.transform(probe)
        )
        assert [c.value for c in detector.detect(probe)] == [
            str(label) for label in classifier.predict(scaler.transform(probe))
        ]
        assert gateway.server.download_context_detector() == (scaler, classifier)

    def test_refitting_a_published_detector_cannot_corrupt_the_registry(self, gateway):
        """The registry holds a snapshot: later refits must not leak in."""
        from repro.core.context import ContextDetector

        training = self._labelled(seed=42)
        detector = ContextDetector().fit(training)
        gateway.train_context_detector(detector=detector)
        probe = training.values[:6]
        before = gateway.detect_contexts(probe)
        # Refit the caller's object on shifted data (new scaler, classifier
        # refitted in place); the published version must be unaffected.
        shifted = matrix("alice", 50.0, n=40, context="stationary", seed=43).concatenate(
            matrix("alice", 90.0, n=40, context="moving", seed=44)
        )
        detector.fit(shifted)
        assert gateway.detect_contexts(probe) == before
        # And the rehydrated copy is detached too.
        rehydrated = gateway.context_detector()
        rehydrated.fit(shifted)
        assert gateway.detect_contexts(probe) == before

    def test_served_detector_rehydrates_as_a_paper_path_object(self, gateway):
        from repro.core.context import ContextDetector

        training = self._labelled(seed=50)
        gateway.train_context_detector(training)
        rehydrated = gateway.context_detector()
        assert isinstance(rehydrated, ContextDetector)
        probe = training.values[:6]
        assert [c.value for c in rehydrated.detect(probe)] == [
            c.value for c in gateway.detect_contexts(probe)
        ]

    def test_matrix_and_detector_arguments_are_mutually_exclusive(self, gateway):
        from repro.core.context import ContextDetector

        with pytest.raises(ValueError, match="exactly one"):
            gateway.train_context_detector()
        detector = ContextDetector().fit(self._labelled(seed=60))
        with pytest.raises(ValueError, match="exactly one"):
            gateway.train_context_detector(self._labelled(seed=61), detector=detector)

    def test_unfitted_detector_rejected(self, gateway):
        from repro.core.context import ContextDetector

        with pytest.raises(ValueError, match="fitted"):
            gateway.train_context_detector(detector=ContextDetector())
