"""Unit tests for the vectorized batch scorer."""

import numpy as np
import pytest

from repro.core.authenticator import ContextualAuthenticator
from repro.devices.cloud import AuthenticationServer
from repro.features.vector import FeatureMatrix
from repro.sensors.types import CoarseContext
from repro.core.scoring import BatchScorer, score_fleet


def matrix(uid, mean, n=30, d=6, context="stationary", seed=0):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(
        values=rng.normal(mean, 1.0, size=(n, d)),
        feature_names=[f"f{i}" for i in range(d)],
        user_ids=[uid] * n,
        contexts=[context] * n,
    )


@pytest.fixture()
def bundle():
    server = AuthenticationServer(seed=2)
    for context in ("stationary", "moving"):
        server.upload_features("owner", matrix("owner", 0.0, context=context, seed=1))
        server.upload_features("other1", matrix("other1", 3.0, context=context, seed=2))
        server.upload_features("other2", matrix("other2", 5.0, context=context, seed=3))
    return server.train_authentication_models("owner")


@pytest.fixture()
def probe_windows():
    rng = np.random.default_rng(11)
    features = rng.normal(0.0, 2.0, size=(1000, 6))
    contexts = [
        CoarseContext.MOVING if i % 3 == 0 else CoarseContext.STATIONARY
        for i in range(1000)
    ]
    return features, contexts


class TestBatchScoring:
    def test_thousand_window_batch_matches_per_window_path_exactly(
        self, bundle, probe_windows
    ):
        """Acceptance bar: one vectorized call == 1000 single-window calls."""
        features, contexts = probe_windows
        result = BatchScorer(bundle).score(features, contexts)
        assert len(result) == 1000
        authenticator = ContextualAuthenticator(bundle)
        for index in range(1000):
            decision = authenticator.authenticate(features[index], contexts[index])
            assert decision.confidence_score == result.scores[index]
            assert decision.accepted == bool(result.accepted[index])
            assert decision.context == result.model_contexts[index]

    def test_direct_context_model_calls_match_exactly(self, bundle, probe_windows):
        """Also identical to calling each ContextModel by hand per window."""
        features, contexts = probe_windows
        result = BatchScorer(bundle).score(features, contexts)
        for index in range(0, 1000, 37):
            model = bundle.models[contexts[index]]
            row = features[index : index + 1]
            assert model.decision_scores(row)[0] == result.scores[index]
            assert bool(model.predict_legitimate(row)[0]) == result.accepted[index]

    def test_separates_owner_from_impostor(self, bundle):
        scorer = BatchScorer(bundle)
        owner = matrix("owner", 0.0, seed=21).values
        impostor = matrix("other1", 3.0, seed=22).values
        contexts = [CoarseContext.STATIONARY] * 30
        assert scorer.score(owner, contexts).accept_rate > 0.8
        assert scorer.score(impostor, contexts).accept_rate < 0.2

    def test_result_metadata(self, bundle):
        scorer = BatchScorer(bundle)
        rows = matrix("owner", 0.0, n=4, seed=23).values
        result = scorer.score(rows, [CoarseContext.STATIONARY] * 4)
        assert result.model_version == bundle.version
        assert result.n_accepted == int(result.accepted.sum())
        assert result.model_contexts == (CoarseContext.STATIONARY,) * 4

    def test_empty_batch(self, bundle):
        result = BatchScorer(bundle).score(np.empty((0, 6)), [])
        assert len(result) == 0
        assert result.accept_rate == 0.0

    def test_length_mismatch_rejected(self, bundle):
        with pytest.raises(ValueError, match="context labels"):
            BatchScorer(bundle).score(np.zeros((3, 6)), [CoarseContext.STATIONARY])

    def test_empty_bundle_rejected(self, bundle):
        bundle.models.clear()
        with pytest.raises(ValueError, match="no trained models"):
            BatchScorer(bundle)


class TestAuthenticatorScorerSync:
    def test_bundle_hot_swap_rebuilds_the_scorer(self, bundle):
        server = AuthenticationServer(seed=9)
        for context in ("stationary", "moving"):
            server.upload_features("owner", matrix("owner", 0.0, context=context, seed=1))
            server.upload_features("other1", matrix("other1", 3.0, context=context, seed=2))
        retrained = server.retrain("owner", matrix("owner", 0.5, seed=7))

        authenticator = ContextualAuthenticator(bundle)
        rows = matrix("owner", 0.0, n=5, seed=8).values
        contexts = [CoarseContext.STATIONARY] * 5
        before = authenticator.confidence_scores(rows, contexts)
        authenticator.bundle = retrained
        assert authenticator.version == retrained.version
        after = authenticator.confidence_scores(rows, contexts)
        expected = BatchScorer(retrained).score(rows, contexts).scores
        np.testing.assert_array_equal(after, expected)
        assert not np.array_equal(before, after)


class TestModelSelection:
    def test_missing_context_falls_back_like_authenticator(self, bundle):
        del bundle.models[CoarseContext.MOVING]
        scorer = BatchScorer(bundle)
        authenticator = ContextualAuthenticator(bundle)
        rows = matrix("owner", 0.0, n=5, seed=24).values
        contexts = [CoarseContext.MOVING] * 5
        result = scorer.score(rows, contexts)
        for index in range(5):
            decision = authenticator.authenticate(rows[index], contexts[index])
            assert decision.confidence_score == result.scores[index]
            assert result.model_contexts[index] == CoarseContext.STATIONARY

    def test_use_context_false_uses_single_model(self, bundle):
        scorer = BatchScorer(bundle, use_context=False)
        rows = matrix("owner", 0.0, n=6, seed=25).values
        mixed = [CoarseContext.MOVING, CoarseContext.STATIONARY] * 3
        result = scorer.score(rows, mixed)
        stationary_only = scorer.score(rows, [CoarseContext.STATIONARY] * 6)
        np.testing.assert_array_equal(result.scores, stationary_only.scores)


class TestScoreFleet:
    def test_groups_requests_per_user(self, bundle):
        scorers = {"owner": BatchScorer(bundle)}
        rows = matrix("owner", 0.0, n=8, seed=26).values
        requests = [
            ("owner", rows[:5], [CoarseContext.STATIONARY] * 5),
            ("owner", rows[5:], [CoarseContext.MOVING] * 3),
        ]
        results = score_fleet(scorers, requests)
        assert set(results) == {"owner"}
        assert len(results["owner"]) == 8
        combined = scorers["owner"].score(
            rows, [CoarseContext.STATIONARY] * 5 + [CoarseContext.MOVING] * 3
        )
        np.testing.assert_array_equal(results["owner"].scores, combined.scores)

    def test_unknown_user_rejected(self, bundle):
        with pytest.raises(KeyError, match="no scorer"):
            score_fleet({}, [("ghost", np.zeros((1, 6)), [CoarseContext.STATIONARY])])

    def test_per_request_length_mismatch_rejected(self, bundle):
        """Mismatches must fail even when they cancel out across requests."""
        scorers = {"owner": BatchScorer(bundle)}
        requests = [
            ("owner", np.zeros((2, 6)), [CoarseContext.STATIONARY]),
            ("owner", np.zeros((1, 6)), [CoarseContext.MOVING, CoarseContext.MOVING]),
        ]
        with pytest.raises(ValueError, match="request 0 for user 'owner'"):
            score_fleet(scorers, requests)


class TestPredictFromDecisionHooks:
    def test_decision_thresholded_classifiers_expose_the_hook(self):
        """Every predict == threshold(decision_function) classifier must keep
        its predict_from_decision consistent with predict."""
        from repro.ml.kernel_ridge import KernelRidgeClassifier
        from repro.ml.linear import LinearRegressionClassifier, LogisticRegressionClassifier
        from repro.ml.svm import LinearSVMClassifier

        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 1, (20, 4)), rng.normal(3, 1, (20, 4))])
        y = np.array(["legitimate"] * 20 + ["other"] * 20)
        probe = rng.normal(1.5, 2.0, (30, 4))
        for classifier in (
            KernelRidgeClassifier(),
            LinearSVMClassifier(),
            LinearRegressionClassifier(),
            LogisticRegressionClassifier(),
        ):
            classifier.fit(X, y)
            raw = classifier.decision_function(probe)
            via_hook = classifier.predict_from_decision(raw)
            assert via_hook is not None, type(classifier).__name__
            np.testing.assert_array_equal(via_hook, classifier.predict(probe))

    def test_vote_based_classifiers_fall_back(self):
        from repro.ml.forest import RandomForestClassifier

        assert RandomForestClassifier().predict_from_decision(np.zeros(3)) is None


class TestContextEncoding:
    """Int-encoding of contexts: the hot path's end-to-end code form."""

    def test_round_trip_labels_and_codes(self):
        from repro.core.scoring import (
            CONTEXT_BY_CODE,
            decode_contexts,
            encode_contexts,
        )

        labels = (CoarseContext.MOVING, CoarseContext.STATIONARY)
        codes = encode_contexts(labels)
        assert codes.dtype == np.int8
        assert decode_contexts(codes) == labels
        # String labels (what a detector predicts) encode vectorized too.
        as_strings = np.asarray([context.value for context in CONTEXT_BY_CODE])
        np.testing.assert_array_equal(
            encode_contexts(as_strings), np.arange(len(CONTEXT_BY_CODE), dtype=np.int8)
        )

    def test_out_of_range_codes_rejected_even_when_they_wrap(self):
        from repro.core.scoring import encode_contexts

        with pytest.raises(ValueError, match="context codes"):
            encode_contexts(np.array([-1]))
        with pytest.raises(ValueError, match="context codes"):
            encode_contexts(np.array([7]))
        # 256 wraps to 0 under an int8 cast; it must still be rejected.
        with pytest.raises(ValueError, match="context codes"):
            encode_contexts(np.array([256]))

    def test_unknown_labels_rejected(self):
        from repro.core.scoring import encode_contexts

        with pytest.raises(ValueError, match="not a known coarse context"):
            encode_contexts(np.asarray(["driving"]))
        with pytest.raises(ValueError):
            encode_contexts(["driving"])

    def test_scorer_accepts_codes_and_labels_identically(self, bundle):
        from repro.core.scoring import encode_contexts

        scorer = BatchScorer(bundle)
        rows = np.random.default_rng(9).normal(0.0, 2.0, size=(6, 6))
        labels = [CoarseContext.STATIONARY, CoarseContext.MOVING] * 3
        by_labels = scorer.score(rows, labels)
        by_codes = scorer.score(rows, encode_contexts(labels))
        np.testing.assert_array_equal(by_labels.scores, by_codes.scores)
        np.testing.assert_array_equal(by_labels.accepted, by_codes.accepted)
        assert by_labels.model_contexts == by_codes.model_contexts


def trained_bundle(d=6, classifier_factory=None, owner="owner"):
    """A bundle for *owner*, trained like the ``bundle`` fixture."""
    server = AuthenticationServer(seed=2)
    if classifier_factory is not None:
        server = AuthenticationServer(seed=2, classifier_factory=classifier_factory)
    users = (("owner", 0.0, 1), ("other1", 3.0, 2), ("other2", 5.0, 3))
    for context in ("stationary", "moving"):
        for uid, mean, seed in users:
            server.upload_features(
                uid, matrix(uid, mean, d=d, context=context, seed=seed)
            )
    return server.train_authentication_models(owner)


class TestServingTable:
    """The fused pass's lookup arrays (:class:`ServingTable`)."""

    def _score(self, table, rows, requests):
        from repro.core.scoring import encode_contexts, score_stacked

        return score_stacked(
            table,
            rows,
            np.vstack([features for features, _ in requests]),
            [len(features) for features, _ in requests],
            np.concatenate([encode_contexts(contexts) for _, contexts in requests]),
        ).results()

    def _requests(self, n, d=6, seed=31):
        rng = np.random.default_rng(seed)
        contexts = [CoarseContext.STATIONARY, CoarseContext.MOVING] * 3
        return [(rng.normal(0.0, 2.0, size=(6, d)), contexts) for _ in range(n)]

    def _assert_matches(self, scorers, requests, results):
        for scorer, (features, contexts), result in zip(scorers, requests, results):
            expected = scorer.score(features, contexts)
            np.testing.assert_array_equal(result.scores, expected.scores)
            np.testing.assert_array_equal(result.accepted, expected.accepted)
            assert result.model_contexts == expected.model_contexts
            assert result.model_version == expected.model_version

    def test_fused_and_fallback_rows_match_each_scorer(self, bundle):
        from repro.core.scoring import ServingTable
        from repro.ml.forest import RandomForestClassifier

        linear = BatchScorer(bundle)
        forest = BatchScorer(
            trained_bundle(
                classifier_factory=lambda: RandomForestClassifier(
                    n_estimators=5, max_depth=4, random_state=3
                ),
                owner="other1",
            )
        )
        table = ServingTable([linear, forest, linear])
        assert len(table) == 2
        assert table.row_fallback.tolist() == [False, True]
        assert table.fallback[table.positions[1]].all()
        scorers = [linear, forest, linear]
        requests = self._requests(3)
        self._assert_matches(scorers, requests, self._score(table, [0, 1, 0], requests))

    def test_add_appends_a_row_without_touching_the_built_stacks(self, bundle):
        from repro.core.scoring import FusedStackCache, ServingTable

        first = BatchScorer(bundle)
        cache = FusedStackCache()
        table = ServingTable([first], stack_cache=cache)
        stacks = cache.stacks_for(
            sorted(
                (model.decision_rule() for model in bundle.models.values()), key=id
            )
        )
        means = stacks.mean.copy()
        second = BatchScorer(trained_bundle(owner="other2"))
        assert table.add(second) == 1
        assert table.add(second) == 1
        assert table.add(first) == 0
        assert not table.row_fallback[:2].any()
        np.testing.assert_array_equal(stacks.mean, means)
        requests = self._requests(2)
        self._assert_matches(
            [second, first], requests, self._score(table, [1, 0], requests)
        )

    def test_rule_of_another_width_scores_through_its_own_model(self, bundle):
        from repro.core.scoring import ServingTable

        wide = [BatchScorer(bundle), BatchScorer(trained_bundle(owner="other1"))]
        narrow = BatchScorer(trained_bundle(d=4))
        table = ServingTable(wide + [narrow])
        assert table.width == 6
        assert table.row_fallback.tolist() == [False, False, True]
        requests = self._requests(1, d=4)
        self._assert_matches([narrow], requests, self._score(table, [2], requests))
        with pytest.raises(ValueError, match="trained on 6 features"):
            self._score(table, [0], requests)
        with pytest.raises(ValueError):
            self._score(table, [2], self._requests(1))
