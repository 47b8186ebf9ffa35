"""Cloud authentication server hosting the training module (Figure 1).

Responsibilities mirrored from the paper:

* collect anonymised authentication feature vectors from all participating
  users (the "other users" pool that provides negative training examples);
* train, per usage context, a kernel-ridge-regression authentication model
  for a target user — legitimate user's vectors against the anonymised pool;
* train the user-agnostic context-detection model from all users' labelled
  context feature vectors;
* ship trained model bundles back to the smartphone and retrain them when the
  phone reports behavioural drift.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.devices.store import FeatureStore
from repro.features.vector import FeatureMatrix
from repro.ml.base import BaseClassifier, LinearDecisionRule, clone
from repro.ml.forest import RandomForestClassifier
from repro.ml.kernel_ridge import KernelRidgeClassifier
from repro.ml.preprocessing import StandardScaler
from repro.sensors.types import CoarseContext
from repro.utils.rng import RandomState, derive_rng


@runtime_checkable
class BundlePublisher(Protocol):
    """What the server needs from a model registry (structural interface).

    The concrete :class:`~repro.service.registry.ModelRegistry` lives in the
    service layer *above* this module; depending on it structurally keeps
    the dependency graph acyclic without lazy-import workarounds.
    """

    def publish(self, bundle: "TrainedModelBundle") -> object:
        """Register a freshly trained bundle version."""
        ...

    def versions(self, user_id: str) -> list[int]:
        """All published version numbers for *user_id* (ascending)."""
        ...


#: Label used for the legitimate user inside a trained binary model.
LEGITIMATE_LABEL = "legitimate"
#: Label used for the anonymised other-user pool.
OTHER_LABEL = "other"
#: Minimum positive windows a user needs under a context to train its model.
MIN_WINDOWS_PER_CONTEXT = 10


@dataclass
class ContextModel:
    """One per-context authentication model: a scaler plus a classifier."""

    context: CoarseContext
    scaler: StandardScaler
    classifier: BaseClassifier
    n_training_windows: int

    def _legitimate_sign(self) -> float:
        """+1 if the classifier's positive class is the legitimate user, else -1.

        Binary classifiers in this library treat ``classes_[1]`` as the
        positive (+1) class; because class labels are sorted alphabetically,
        "legitimate" sorts before "other" and ends up as the negative class.
        The confidence score of the paper is defined with the legitimate user
        on the positive side, so the raw decision value is sign-adjusted here.
        """
        classes = getattr(self.classifier, "classes_", None)
        if classes is not None and len(classes) == 2 and classes[1] == LEGITIMATE_LABEL:
            return 1.0
        return -1.0

    def decision_scores(self, features: np.ndarray) -> np.ndarray:
        """Confidence scores of raw feature rows (positive = legitimate)."""
        raw = self.classifier.decision_function(self.scaler.transform(features))
        return self._legitimate_sign() * raw

    def predict_legitimate(self, features: np.ndarray) -> np.ndarray:
        """Boolean mask: which rows are classified as the legitimate user."""
        predictions = self.classifier.predict(self.scaler.transform(features))
        return predictions == LEGITIMATE_LABEL

    def batch_decisions(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(confidence scores, accept mask)`` for many rows.

        Equivalent to :meth:`decision_scores` plus :meth:`predict_legitimate`
        but scales and projects the batch only once where the classifier
        allows it: classifiers whose ``predict`` is a threshold on
        ``decision_function`` expose
        :meth:`~repro.ml.base.BaseClassifier.predict_from_decision` (the
        paper's KRR does), letting the scores already computed double as the
        predictions.  Classifiers without that hook (e.g. a probability-vote
        forest) fall back to a real ``predict`` call on the shared scaled
        matrix.
        """
        transformed = self.scaler.transform(features)
        raw = self.classifier.decision_function(transformed)
        predictions = self.classifier.predict_from_decision(raw)
        if predictions is None:
            predictions = self.classifier.predict(transformed)
        return self._legitimate_sign() * raw, predictions == LEGITIMATE_LABEL

    def decision_rule(self) -> LinearDecisionRule | None:
        """This model's whole scoring pass as one affine rule, if possible.

        Combines the scaler's standardisation with the classifier's
        :meth:`~repro.ml.base.BaseClassifier.decision_projection` so the
        coalescing frontend can fuse many users' models into one batched
        projection (:func:`repro.core.scoring.score_stacked`).  Returns
        ``None`` — making callers fall back to :meth:`batch_decisions` —
        whenever the classifier has no affine form or the label layout
        cannot express accept/reject as a threshold on the raw score.
        """
        # Memoised: models are immutable once trained, and the coalescing
        # frontend asks for the rule on every flush (refitting builds a new
        # ContextModel, so the cache can never go stale in practice).
        cached = self.__dict__.get("_decision_rule_cache", False)
        if cached is not False:
            return cached
        rule: LinearDecisionRule | None = None
        projection = self.classifier.decision_projection()
        classes = getattr(self.classifier, "classes_", None)
        if (
            projection is not None
            and self.scaler.mean_ is not None
            and self.scaler.scale_ is not None
            and classes is not None
            and len(classes) == 2
            and LEGITIMATE_LABEL in classes
        ):
            x_offset, coef, y_offset = projection
            sign = self._legitimate_sign()
            # _decode_binary maps raw >= 0 to classes_[1]; acceptance
            # therefore thresholds on raw >= 0 exactly when classes_[1] is
            # the legitimate label (sign == +1).
            rule = LinearDecisionRule(
                mean=self.scaler.mean_,
                scale=self.scaler.scale_,
                x_offset=x_offset,
                coef=coef,
                y_offset=float(y_offset),
                sign=sign,
                accept_on_nonnegative=sign > 0,
            )
        self.__dict__["_decision_rule_cache"] = rule
        return rule


@dataclass
class TrainedModelBundle:
    """Everything the phone downloads after (re)training.

    Attributes
    ----------
    user_id:
        The legitimate user the bundle authenticates.
    feature_names:
        Column order expected by every contained model.
    models:
        One authentication model per coarse context.
    version:
        Monotonically increasing training round (1 = initial enrolment).
    """

    user_id: str
    feature_names: list[str]
    models: dict[CoarseContext, ContextModel]
    version: int = 1

    def model_for(self, context: CoarseContext) -> ContextModel:
        """Return the model for *context*.

        Raises
        ------
        KeyError
            If no model was trained for the requested context.
        """
        if context not in self.models:
            raise KeyError(f"no authentication model trained for context {context.value!r}")
        return self.models[context]


def default_classifier_factory() -> BaseClassifier:
    """The paper's classifier: linear-kernel KRR solved in the primal."""
    return KernelRidgeClassifier(ridge=1.0, kernel="linear", solver="auto")


def default_context_detector_factory(random_state: RandomState = 7) -> BaseClassifier:
    """The paper's user-agnostic context detector: a Section V-E random forest.

    The single source of the detector configuration — the paper-path
    :class:`~repro.core.context.ContextDetector`, this cloud server and the
    service gateway all build their detector from this factory, so the
    model a phone would run and the model the registry serves can never
    silently diverge.
    """
    return RandomForestClassifier(n_estimators=40, max_depth=12, random_state=random_state)


def fit_context_detector(
    matrix: FeatureMatrix,
    exclude_user: str | None = None,
    classifier: BaseClassifier | None = None,
    require_both_contexts: bool = False,
) -> tuple[StandardScaler, BaseClassifier]:
    """Train a user-agnostic context detector; the ONE training entry point.

    Both the paper path (:meth:`repro.core.context.ContextDetector.fit`)
    and the serving path (:meth:`AuthenticationServer.train_context_detector`,
    published to the registry by the gateway) delegate here, so scaling and
    fitting policy cannot drift between the phone-side reproduction and the
    fleet service.

    Parameters
    ----------
    matrix:
        Labelled context feature windows (``matrix.contexts`` holds the
        ground-truth coarse context per row).
    exclude_user:
        Optionally leave one user's rows out, so the detector used for a
        given user was trained only on *other* users' data (the paper's
        user-agnostic protocol).
    classifier:
        Unfitted detector classifier; defaults to
        :func:`default_context_detector_factory`.
    require_both_contexts:
        When true, reject training data whose remaining rows cover fewer
        than two distinct contexts (the paper path's policy: a detector
        that has only ever seen one context cannot discriminate).

    Returns
    -------
    tuple[StandardScaler, BaseClassifier]
        The fitted scaler and classifier pair.

    Raises
    ------
    ValueError
        If the matrix carries no context labels, no training rows remain
        after the exclusion, or (with ``require_both_contexts``) only one
        distinct context remains.
    """
    if not matrix.contexts:
        raise ValueError("matrix must carry context labels")
    values = matrix.values
    labels = np.asarray(matrix.contexts, dtype=object)
    if exclude_user is not None and matrix.user_ids:
        keep = np.array([uid != exclude_user for uid in matrix.user_ids])
        values, labels = values[keep], labels[keep]
    if len(values) == 0:
        raise ValueError("no training rows left for the context detector")
    if require_both_contexts and len(np.unique(labels)) < 2:
        raise ValueError("context training data must contain both contexts")
    scaler = StandardScaler().fit(values)
    detector = classifier if classifier is not None else default_context_detector_factory()
    detector.fit(scaler.transform(values), labels)
    return scaler, detector


class AuthenticationServer:
    """The trusted cloud server running the training module.

    Parameters
    ----------
    classifier_factory:
        Zero-argument callable returning an unfitted authentication
        classifier; defaults to the paper's KRR configuration.
    context_detector_factory:
        Callable returning the unfitted user-agnostic context detector
        (default: a random forest as in Section V-E).
    max_other_users_windows:
        Cap on the number of anonymised negative windows used per training
        run, to keep retraining cheap.
    seed:
        Seed for negative-pool subsampling.
    store:
        Optional pre-configured :class:`~repro.devices.store.FeatureStore`
        holding the anonymised window pool (a fresh unbounded-ish store is
        created when omitted).  Sharing a store between servers shares the
        negative pool.
    registry:
        Optional :class:`BundlePublisher` (in practice a
        :class:`~repro.service.registry.ModelRegistry`); when set, every
        trained bundle is published to it automatically.
    """

    def __init__(
        self,
        classifier_factory: Callable[[], BaseClassifier] = default_classifier_factory,
        context_detector_factory: Callable[[], BaseClassifier] | None = None,
        max_other_users_windows: int = 2000,
        seed: RandomState = None,
        store: FeatureStore | None = None,
        registry: BundlePublisher | None = None,
    ) -> None:
        if max_other_users_windows < 1:
            raise ValueError("max_other_users_windows must be >= 1")
        self.classifier_factory = classifier_factory
        self.context_detector_factory = (
            context_detector_factory or default_context_detector_factory
        )
        self.max_other_users_windows = max_other_users_windows
        self._seed = seed
        self.store = store if store is not None else FeatureStore()
        self.registry = registry
        self._pseudonyms: dict[str, str] = {}
        self._training_rounds: dict[str, int] = {}
        self._context_detector: BaseClassifier | None = None
        self._context_scaler: StandardScaler | None = None

    # ------------------------------------------------------------------ #
    # enrolment and data collection
    # ------------------------------------------------------------------ #

    def _pseudonym(self, user_id: str) -> str:
        """Anonymise a user id; raw identities never enter the training pool."""
        if user_id not in self._pseudonyms:
            digest = hashlib.sha256(f"smarteryou|{user_id}".encode()).hexdigest()[:12]
            self._pseudonyms[user_id] = f"anon-{digest}"
        return self._pseudonyms[user_id]

    def upload_features(self, user_id: str, matrix: FeatureMatrix) -> str:
        """Store a user's authentication feature vectors under a pseudonym.

        Returns the pseudonym, which is what appears in the training pool.

        Raises
        ------
        ValueError
            If the matrix is empty, or its ``feature_names`` do not match
            the schema established by earlier uploads (mixing layouts would
            silently poison the shared negative pool).
        """
        pseudonym = self._pseudonym(user_id)
        self.store.append(pseudonym, matrix)
        return pseudonym

    def enrolled_users(self) -> list[str]:
        """Pseudonyms of every user with stored data."""
        return sorted(self.store.users())

    def stored_window_count(self, user_id: str) -> int:
        """Number of stored feature windows for *user_id*."""
        return self.store.window_count(self._pseudonym(user_id))

    def contexts_for(self, user_id: str) -> tuple[CoarseContext, ...]:
        """Coarse contexts under which *user_id* has stored windows.

        Windows uploaded without per-row context labels count towards every
        context, so a user with only unlabelled data reports all contexts.
        """
        pseudonym = self._pseudonym(user_id)
        if self.store.unlabelled_count(pseudonym):
            return tuple(CoarseContext)
        stored = self.store.contexts_for(pseudonym)
        return tuple(
            context for context in CoarseContext if context.value in stored
        )

    def context_window_counts(self, user_id: str) -> dict[CoarseContext, int]:
        """Stored window count per trainable context of *user_id*.

        Counts include unlabelled (wildcard) windows, exactly as training's
        positive-row collection does.
        """
        pseudonym = self._pseudonym(user_id)
        return {
            context: self.store.window_count(pseudonym, context.value)
            for context in self.contexts_for(user_id)
        }

    def negative_window_counts(self, user_id: str) -> dict[CoarseContext, int]:
        """Other-user pool size per context *user_id* would train under."""
        pseudonym = self._pseudonym(user_id)
        return {
            context: self.store.negative_pool_size(pseudonym, context.value)
            for context in self.contexts_for(user_id)
        }

    # ------------------------------------------------------------------ #
    # context-detection model (user-agnostic)
    # ------------------------------------------------------------------ #

    def train_context_detector(
        self, matrix: FeatureMatrix, exclude_user: str | None = None
    ) -> BaseClassifier:
        """Train the user-agnostic context detector from labelled windows.

        Delegates to :func:`fit_context_detector` — the same entry point
        the paper-path :class:`~repro.core.context.ContextDetector` trains
        through — with this server's ``context_detector_factory`` supplying
        the unfitted classifier.

        Parameters
        ----------
        matrix:
            Labelled context feature vectors (``matrix.contexts`` holds the
            ground-truth coarse context per row).
        exclude_user:
            Optionally leave one user's rows out, so the detector used for a
            given user was trained only on *other* users' data (the paper's
            user-agnostic protocol).

        Returns
        -------
        BaseClassifier
            The fitted detector (also retained for
            :meth:`download_context_detector`).

        Raises
        ------
        ValueError
            If the matrix carries no context labels, or no rows remain
            after the exclusion.
        """
        scaler, detector = fit_context_detector(
            matrix, exclude_user=exclude_user, classifier=self.context_detector_factory()
        )
        self._context_detector = detector
        self._context_scaler = scaler
        return detector

    def install_context_detector(
        self, scaler: StandardScaler, classifier: BaseClassifier
    ) -> None:
        """Adopt an externally trained ``(scaler, classifier)`` detector pair.

        Lets the service gateway train a detector through the paper-path
        :class:`~repro.core.context.ContextDetector` (or rehydrate one from
        the registry) and make this server serve exactly that model.

        Raises
        ------
        ValueError
            If either part is of the wrong type.
        """
        if not isinstance(scaler, StandardScaler):
            raise ValueError("scaler must be a fitted StandardScaler")
        if not isinstance(classifier, BaseClassifier):
            raise ValueError("classifier must be a fitted BaseClassifier")
        self._context_scaler = scaler
        self._context_detector = classifier

    def download_context_detector(self) -> tuple[StandardScaler, BaseClassifier]:
        """Return the trained context detector for deployment on a phone.

        Raises
        ------
        RuntimeError
            If no detector has been trained or installed yet.
        """
        if self._context_detector is None or self._context_scaler is None:
            raise RuntimeError("the context detector has not been trained yet")
        return self._context_scaler, self._context_detector

    # ------------------------------------------------------------------ #
    # authentication models (per user, per context)
    # ------------------------------------------------------------------ #

    def train_authentication_models(
        self,
        user_id: str,
        contexts: tuple[CoarseContext, ...] = tuple(CoarseContext),
    ) -> TrainedModelBundle:
        """Train (or retrain) the per-context models for *user_id*.

        The legitimate user's windows are the positive class; a subsample of
        every other enrolled pseudonym's windows forms the negative class.

        Raises
        ------
        ValueError
            If the user has no stored data for a requested context, or no
            other users are enrolled to provide negative examples.
        """
        pseudonym = self._pseudonym(user_id)
        if pseudonym not in self.store:
            raise ValueError(f"user {user_id!r} has no uploaded feature data")
        if len(self.store.users()) < 2:
            raise ValueError("cannot train: no other users enrolled to provide negatives")
        models: dict[CoarseContext, ContextModel] = {}
        feature_names = self.store.feature_names
        previous_round = self._training_rounds.get(pseudonym, 0)
        if self.registry is not None:
            # After a restart the in-memory counter starts over while the
            # registry may already hold persisted versions; resume above the
            # highest published one so publish() never collides.
            published = self.registry.versions(user_id)
            if published:
                previous_round = max(previous_round, published[-1])
        round_number = previous_round + 1
        for context in contexts:
            positive = self.store.rows_for(pseudonym, context.value)
            if len(positive) < MIN_WINDOWS_PER_CONTEXT:
                raise ValueError(
                    f"user {user_id!r} has only {len(positive)} windows under "
                    f"context {context.value!r}; need at least "
                    f"{MIN_WINDOWS_PER_CONTEXT}"
                )
            rng = derive_rng(self._seed, "negative-pool", pseudonym, context.value, round_number)
            negative = self.store.sample_negatives(
                pseudonym, context.value, self.max_other_users_windows, rng
            )
            if len(negative) == 0:
                raise ValueError(
                    f"no other-user data available under context {context.value!r}"
                )
            X = np.vstack([positive, negative])
            y = np.array([LEGITIMATE_LABEL] * len(positive) + [OTHER_LABEL] * len(negative))
            scaler = StandardScaler().fit(X)
            classifier = clone(self.classifier_factory())
            classifier.fit(scaler.transform(X), y)
            models[context] = ContextModel(
                context=context,
                scaler=scaler,
                classifier=classifier,
                n_training_windows=len(X),
            )
        self._training_rounds[pseudonym] = round_number
        bundle = TrainedModelBundle(
            user_id=user_id,
            feature_names=feature_names,
            models=models,
            version=round_number,
        )
        if self.registry is not None:
            self.registry.publish(bundle)
        return bundle

    def retrain(self, user_id: str, new_data: FeatureMatrix) -> TrainedModelBundle:
        """Accept fresh feature vectors after behavioural drift and retrain."""
        self.upload_features(user_id, new_data)
        return self.train_authentication_models(user_id)
