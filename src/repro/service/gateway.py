"""Request-level authentication service API (enroll / authenticate / drift).

The :class:`AuthenticationGateway` is the service's backend dispatcher: it
owns the cloud :class:`~repro.devices.cloud.AuthenticationServer` (whose
windows live in a sharded :class:`~repro.devices.store.FeatureStore`), a
versioned :class:`~repro.service.registry.ModelRegistry`, per-user cached
:class:`~repro.core.scoring.BatchScorer`\\ s and a
:class:`~repro.service.telemetry.TelemetryHub`.  Every operation is a typed
:mod:`repro.service.protocol` request routed through :meth:`handle` — the
convenience methods (:meth:`enroll`, :meth:`authenticate`, …) are thin
wrappers that build the protocol request and dispatch it, so the
per-method API, the micro-batching
:class:`~repro.service.frontend.ServiceFrontend` and the HTTP transport
(:mod:`repro.service.transport`) all share one front door.
"""

from __future__ import annotations

import copy
from typing import Callable, Sequence

import numpy as np

from repro.core.context import ContextDetector
from repro.core.scoring import (
    BatchScorer,
    canonicalize_rows,
    decode_contexts,
    encode_contexts,
)
from repro.devices.cloud import MIN_WINDOWS_PER_CONTEXT, AuthenticationServer
from repro.features.vector import FeatureMatrix
from repro.sensors.types import CoarseContext
from repro.service.protocol import (
    AuthenticateRequest,
    AuthenticationResponse,
    DetectorTrainRequest,
    DetectorTrainResponse,
    DrainShardRequest,
    DriftReport,
    DriftResponse,
    EnrollRequest,
    EnrollResponse,
    EvictRequest,
    EvictResponse,
    Request,
    Response,
    RollbackRequest,
    RollbackResponse,
    SnapshotRequest,
    SnapshotResponse,
    request_kind,
)
from repro.service.registry import ModelRegistry
from repro.service.telemetry import TelemetryHub

__all__ = [
    "AuthenticationGateway",
    "ControlPlane",
    "DataPlane",
    "PlaneMismatchError",
    # Response types historically lived here; re-exported for compatibility.
    "EnrollResponse",
    "AuthenticationResponse",
    "DriftResponse",
]


class PlaneMismatchError(TypeError):
    """A protocol request was dispatched to the wrong plane.

    Raised when a control-plane operation (rollback, snapshot, eviction,
    detector training) reaches the :class:`DataPlane` — or a hot-path
    operation reaches the :class:`ControlPlane`.  Carries the typed wire
    error code the transport maps to an HTTP status.
    """

    #: Typed error code surfaced on the wire.
    code = "wrong-plane"

    def __init__(self, request: Request, plane: str, expected: str) -> None:
        super().__init__(
            f"{type(request).__name__} ({request_kind(request)!r}) is a "
            f"{expected}-plane operation and is unreachable from the "
            f"{plane} plane"
        )


class Plane:
    """One dispatch plane: a named, typed subset of the gateway's API.

    A request of the *other* plane dispatched here raises
    :class:`PlaneMismatchError` — the planes are structurally sealed off
    from each other.
    """

    #: This plane's name ("data" / "control").
    name: str
    #: The other plane's name (for the mismatch error message).
    other: str

    def __init__(
        self,
        gateway: "AuthenticationGateway",
        handlers: dict[type, Callable[[Request], Response]],
    ) -> None:
        self.gateway = gateway
        self._handlers = handlers

    @property
    def request_types(self) -> tuple[type, ...]:
        """The typed request set this plane serves."""
        return tuple(self._handlers)

    def handle(self, request: Request) -> Response:
        """Dispatch one of this plane's requests.

        Raises
        ------
        PlaneMismatchError
            If *request* belongs to the other plane (or is any protocol
            request this plane does not serve).
        TypeError
            If *request* is not a protocol request at all.
        """
        handler = self._handlers.get(type(request))
        if handler is None:
            raise PlaneMismatchError(request, plane=self.name, expected=self.other)
        return handler(request)


class DataPlane(Plane):
    """The hot-path dispatcher: enroll / authenticate / drift-report only.

    The only operations the micro-batching frontend coalesces, the
    micro-batch queue admits, and ``POST /v2/requests`` accepts.
    """

    name = "data"
    other = "control"

    def __init__(self, gateway: "AuthenticationGateway") -> None:
        super().__init__(
            gateway,
            {
                EnrollRequest: gateway._handle_enroll,
                AuthenticateRequest: gateway._handle_authenticate,
                DriftReport: gateway._handle_drift,
            },
        )


class ControlPlane(Plane):
    """The admin dispatcher: rollback / snapshot / evict / detector training.

    Rare, operator-initiated operations with their own typed request set
    and the ``admin`` caller scope; served at ``POST /v2/admin``, never
    coalesced and never admitted by the micro-batch queue.
    """

    name = "control"
    other = "data"

    def __init__(self, gateway: "AuthenticationGateway") -> None:
        super().__init__(
            gateway,
            {
                RollbackRequest: gateway._handle_rollback,
                SnapshotRequest: gateway._handle_snapshot,
                EvictRequest: gateway._handle_evict,
                DetectorTrainRequest: gateway._handle_train_detector,
                DrainShardRequest: gateway._handle_drain_shard,
            },
        )


class AuthenticationGateway:
    """Fleet-facing facade over storage, training, registry and scoring.

    Parameters
    ----------
    server:
        Optional pre-configured cloud server.  When omitted, one is created
        with a fresh :class:`~repro.devices.store.FeatureStore`; either way
        the gateway wires its registry into the server so every training
        round is published automatically.
    registry:
        Optional pre-configured model registry.  When omitted, a server
        that already has a registry keeps it (published versions stay
        servable); otherwise a fresh in-memory registry is created.  An
        explicitly passed registry always wins and is wired into the
        server.
    telemetry:
        Optional shared telemetry hub.
    min_windows_to_train:
        :meth:`enroll` with ``train=None`` automatically trains once the
        user has at least this many stored windows (and at least one other
        enrolled user to provide negatives).
    use_context:
        Whether scoring selects per-context models (the paper's default).
    """

    def __init__(
        self,
        server: AuthenticationServer | None = None,
        registry: ModelRegistry | None = None,
        telemetry: TelemetryHub | None = None,
        min_windows_to_train: int = 20,
        use_context: bool = True,
    ) -> None:
        if min_windows_to_train < 1:
            raise ValueError("min_windows_to_train must be >= 1")
        self.server = server if server is not None else AuthenticationServer()
        if registry is not None:
            self.registry = registry
        elif self.server.registry is not None:
            # Keep the server's registry: it may already hold published
            # versions the fleet expects to keep serving.
            self.registry = self.server.registry
        else:
            self.registry = ModelRegistry()
        self.server.registry = self.registry
        self.telemetry = telemetry if telemetry is not None else TelemetryHub()
        self.min_windows_to_train = min_windows_to_train
        self.use_context = use_context
        # One cached scorer per user, keyed by the (version, use_context)
        # it was built for, so memory stays bounded by fleet size and a
        # mode flip or retrain invalidates stale entries.
        self._scorers: dict[str, tuple[int, bool, BatchScorer]] = {}
        # The two dispatch planes: the hot device path and the rare admin
        # path, each with its own typed request set.  Versioned (v2)
        # callers reach exactly one of them per endpoint; handle() below
        # remains the plane-agnostic in-process facade.
        self.data_plane = DataPlane(self)
        self.control_plane = ControlPlane(self)
        # Set by the transport / fleet when request tracing is enabled;
        # ``None`` keeps dispatch byte-identical to the untraced path.
        self.tracer = None

    # ------------------------------------------------------------------ #
    # protocol dispatch
    # ------------------------------------------------------------------ #

    def plane_for(self, request: Request) -> DataPlane | ControlPlane:
        """The plane serving *request*'s operation.

        Raises
        ------
        TypeError
            If *request* is not a protocol request.
        """
        if type(request) in self.data_plane._handlers:
            return self.data_plane
        if type(request) in self.control_plane._handlers:
            return self.control_plane
        raise TypeError(
            f"not a protocol request: {type(request).__name__!r}; expected "
            "one of EnrollRequest, AuthenticateRequest, DriftReport, "
            "RollbackRequest, SnapshotRequest, EvictRequest, "
            "DetectorTrainRequest, DrainShardRequest"
        )

    def handle(self, request: Request) -> Response:
        """Route one typed protocol request to its operation.

        This is the gateway's plane-agnostic in-process entry point: the
        convenience methods below and the micro-batching frontend dispatch
        through it, and it routes to whichever plane serves the request.
        (Versioned API callers go through the planes directly — a data
        endpoint can never reach a control operation.)  Errors propagate as
        exceptions; mapping them to
        :class:`~repro.service.protocol.ErrorResponse` is the frontend
        middleware's job.
        """
        tracer = self.tracer
        if tracer is not None:
            trace = tracer.trace_for(request)
            if trace is not None:
                with trace.span("gateway", kind=request_kind(request)):
                    return self.plane_for(request).handle(request)
        return self.plane_for(request).handle(request)

    # ------------------------------------------------------------------ #
    # enrollment
    # ------------------------------------------------------------------ #

    def enroll(
        self, user_id: str, matrix: FeatureMatrix, train: bool | None = None
    ) -> EnrollResponse:
        """Store a user's feature windows, optionally training their models.

        Parameters
        ----------
        train:
            ``True`` forces a training round, ``False`` only buffers the
            windows, ``None`` (default) trains automatically once
            ``min_windows_to_train`` windows are stored and another user is
            enrolled to provide negatives.
        """
        return self.handle(EnrollRequest(user_id=user_id, matrix=matrix, train=train))

    def _handle_enroll(self, request: EnrollRequest) -> EnrollResponse:
        user_id, matrix, train = request.user_id, request.matrix, request.train
        with self.telemetry.timer("enroll"):
            self.server.upload_features(user_id, matrix)
            self.telemetry.increment("enroll.windows", len(matrix))
            stored = self.server.stored_window_count(user_id)
            if train is not None:
                should_train = train
            else:
                # Auto-train only once a round can actually succeed,
                # mirroring train(): at least one context meets the
                # per-context minimum and has other-user negatives.  The
                # cheap aggregate checks run first; the negative-pool scan
                # only happens once this user is otherwise ready.
                should_train = (
                    stored >= self.min_windows_to_train
                    and len(self.server.enrolled_users()) >= 2
                )
                if should_train:
                    qualifying = self._qualifying_contexts(user_id)
                    should_train = bool(qualifying)
                if should_train:
                    negatives = self.server.negative_window_counts(user_id)
                    should_train = all(
                        negatives.get(context, 0) > 0 for context in qualifying
                    )
            if not should_train:
                return EnrollResponse(
                    user_id=user_id, status="buffered", windows_stored=stored
                )
            version = self.train(user_id)
        return EnrollResponse(
            user_id=user_id,
            status="trained",
            windows_stored=stored,
            model_version=version,
        )

    def _qualifying_contexts(self, user_id: str) -> tuple[CoarseContext, ...]:
        """Contexts whose stored windows meet the server's training minimum."""
        return tuple(
            context
            for context, count in self.server.context_window_counts(user_id).items()
            if count >= MIN_WINDOWS_PER_CONTEXT
        )

    def train(self, user_id: str) -> int:
        """Run one training round for *user_id*; returns the new version.

        Only contexts meeting the server's per-context window minimum are
        trained (a few unlabelled windows must not make an otherwise
        data-poor context abort the whole round); if no context qualifies,
        the server raises its usual informative error.
        """
        with self.telemetry.timer("train"):
            contexts = self._qualifying_contexts(user_id)
            if not contexts:
                contexts = self.server.contexts_for(user_id) or tuple(CoarseContext)
            bundle = self.server.train_authentication_models(user_id, contexts=contexts)
            self.telemetry.increment("train.rounds")
        return bundle.version

    # ------------------------------------------------------------------ #
    # context detection (registry-served, user-agnostic)
    # ------------------------------------------------------------------ #

    def train_context_detector(
        self,
        matrix: FeatureMatrix | None = None,
        exclude_user: str | None = None,
        detector: ContextDetector | None = None,
    ) -> int:
        """Train (or adopt) the user-agnostic context detector and publish it.

        Training runs through the single shared entry point
        (:func:`repro.devices.cloud.fit_context_detector`) the paper-path
        :class:`~repro.core.context.ContextDetector` uses, so what the
        registry serves is exactly what the phone-side reproduction would
        run.  The trained ``(scaler, classifier)`` pair is installed on the
        cloud server and published to the model registry, versioned exactly
        like authentication bundles, so every serving path — gateway and
        micro-batching frontend alike — scores detection from the registry
        instead of trusting device-reported contexts.

        Parameters
        ----------
        matrix:
            Labelled context windows to train from (required unless a
            pre-fitted *detector* is supplied).
        exclude_user:
            Optionally leave one user's rows out of training.
        detector:
            A pre-fitted paper-path detector to publish verbatim instead
            of training a new one.

        Returns
        -------
        int
            The published detector version.

        Raises
        ------
        ValueError
            If neither *matrix* nor a fitted *detector* is supplied (or
            both are), or training data is unusable.
        """
        if (matrix is None) == (detector is None):
            raise ValueError(
                "pass exactly one of matrix (train a detector) or detector "
                "(publish a pre-fitted one)"
            )
        with self.telemetry.timer("train_context_detector"):
            if detector is not None:
                if not detector._fitted:
                    raise ValueError("detector must be fitted before publication")
                # Publish a snapshot, not the live objects: refitting the
                # caller's detector later must not mutate the immutable
                # published version (fit_context_detector refits the SAME
                # classifier instance in place).
                scaler = copy.deepcopy(detector.scaler)
                classifier = copy.deepcopy(detector.classifier)
                self.server.install_context_detector(scaler, classifier)
            else:
                self.server.train_context_detector(matrix, exclude_user=exclude_user)
                scaler, classifier = self.server.download_context_detector()
            version = self.registry.publish_context_detector(scaler, classifier)
        self.telemetry.increment("context.detector_versions")
        return version

    def context_detector(self, version: int | None = None) -> ContextDetector:
        """The served detector, rehydrated as a paper-path object.

        The returned detector holds *copies* of the published parts, so
        refitting it (e.g. to experiment on a phone-side variant) can
        never mutate the immutable registry version it came from.

        Parameters
        ----------
        version:
            A specific published detector version (default: the newest).

        Raises
        ------
        KeyError
            If no context detector has been published.
        """
        scaler, classifier = self.registry.context_detector(version)
        return ContextDetector.from_parts(
            copy.deepcopy(scaler), copy.deepcopy(classifier)
        )

    def detect_context_codes(self, features: np.ndarray) -> np.ndarray:
        """Detect each row's context as int codes, fully vectorized.

        The serving hot path's form of :meth:`detect_contexts`: predictions
        translate to canonical ``int8`` context codes in one array pass
        (:func:`repro.core.scoring.encode_contexts`), so coalesced scoring
        never touches per-row Python.

        Raises
        ------
        KeyError
            If no context detector has been published.
        """
        scaler, classifier = self.registry.context_detector()
        features = canonicalize_rows(features)
        if len(features) == 0:
            return np.empty(0, dtype=np.int8)
        with self.telemetry.timer("detect_contexts"):
            predictions = classifier.predict(scaler.transform(features))
        self.telemetry.increment("context.detections", len(features))
        return encode_contexts(np.asarray(predictions).astype(str))

    def detect_contexts(self, features: np.ndarray) -> tuple[CoarseContext, ...]:
        """Detect each row's coarse context with the registry-served detector.

        Raises
        ------
        KeyError
            If no context detector has been published.
        """
        return decode_contexts(self.detect_context_codes(features))

    # ------------------------------------------------------------------ #
    # authentication
    # ------------------------------------------------------------------ #

    def scorer_for(self, user_id: str, version: int | None = None) -> BatchScorer:
        """The cached batch scorer serving *user_id* (rebuilt when stale).

        Raises
        ------
        KeyError
            If the user has no published model version.
        """
        resolved = (
            version if version is not None else self.registry.latest_version(user_id)
        )
        cached = self._scorers.get(user_id)
        if cached is not None and cached[0] == resolved and cached[1] == self.use_context:
            return cached[2]
        scorer = BatchScorer(
            self.registry.bundle_for(user_id, resolved), use_context=self.use_context
        )
        # Cache replaces any previous entry: retrain, rollback and
        # use_context flips each change the key, so stale scorers never
        # linger.
        self._scorers[user_id] = (resolved, self.use_context, scorer)
        return scorer

    def record_decision_counts(self, n_windows: int, n_accepted: int) -> None:
        """Fold raw decision totals into the ``auth.*`` counters.

        Shared by the per-request path below and the frontend's columnar
        pass (which counts accepts straight off its decision block), so
        ``auth.*`` counters stay consistent no matter which door a request
        came through.
        """
        self.telemetry.increment("auth.windows", n_windows)
        self.telemetry.increment("auth.accepted", n_accepted)
        self.telemetry.increment("auth.rejected", n_windows - n_accepted)

    def authenticate(
        self,
        user_id: str,
        features: np.ndarray,
        contexts: Sequence[CoarseContext] | None = None,
        version: int | None = None,
    ) -> AuthenticationResponse:
        """Score a batch of windows for *user_id* against their served model.

        With ``contexts=None`` the registry-published context detector
        labels the windows server-side (raising ``KeyError`` if none has
        been published); otherwise the supplied device-reported contexts
        are used.

        Raises
        ------
        KeyError
            If the user has no published model version.
        """
        return self.handle(
            AuthenticateRequest(
                user_id=user_id,
                features=features,
                contexts=None if contexts is None else tuple(contexts),
                version=version,
            )
        )

    def _handle_authenticate(self, request: AuthenticateRequest) -> AuthenticationResponse:
        codes = request.context_codes
        if codes is None:
            # Detection runs outside the "authenticate" timer (it has its
            # own "detect_contexts" recorder) so that recorder measures
            # scoring alone on this door and the coalescing frontend alike.
            codes = self.detect_context_codes(request.features)
        with self.telemetry.timer("authenticate"):
            result = self.scorer_for(request.user_id, request.version).score(
                request.features, codes
            )
        self.record_decision_counts(len(result), result.n_accepted)
        return AuthenticationResponse(user_id=request.user_id, result=result)

    # ------------------------------------------------------------------ #
    # drift and rollback
    # ------------------------------------------------------------------ #

    def report_drift(self, user_id: str, fresh_matrix: FeatureMatrix) -> DriftResponse:
        """Accept fresh post-drift windows and retrain the user's models.

        The windows are stored before the serving-version lookup, so a
        drift report for a never-trained user still preserves its data
        (the KeyError it raises is then purely informational).
        """
        return self.handle(DriftReport(user_id=user_id, matrix=fresh_matrix))

    def _handle_drift(self, request: DriftReport) -> DriftResponse:
        with self.telemetry.timer("retrain"):
            self.server.upload_features(request.user_id, request.matrix)
            previous = self.registry.latest_version(request.user_id)
            new_version = self.train(request.user_id)
        self.telemetry.increment("drift.reports")
        return DriftResponse(
            user_id=request.user_id, previous_version=previous, new_version=new_version
        )

    def rollback(self, user_id: str) -> int:
        """Retire the newest model version; returns the now-serving version."""
        return self.handle(RollbackRequest(user_id=user_id)).serving_version

    def _handle_rollback(self, request: RollbackRequest) -> RollbackResponse:
        record = self.registry.rollback(request.user_id)
        self.telemetry.increment("rollback.count")
        return RollbackResponse(user_id=request.user_id, serving_version=record.version)

    # ------------------------------------------------------------------ #
    # registry eviction
    # ------------------------------------------------------------------ #

    def evict(
        self,
        policy: str = "max_versions",
        max_versions: int = 4,
        user_id: str | None = None,
    ) -> EvictResponse:
        """Evict old registry versions (see :meth:`ModelRegistry.evict`)."""
        return self.handle(
            EvictRequest(policy=policy, max_versions=max_versions, user_id=user_id)
        )

    def _handle_evict(self, request: EvictRequest) -> EvictResponse:
        with self.telemetry.timer("evict"):
            evicted = self.registry.evict(
                policy=request.policy,
                max_versions=request.max_versions,
                user_id=request.user_id,
            )
        self.telemetry.increment(
            "registry.evicted", sum(len(versions) for versions in evicted.values())
        )
        return EvictResponse(policy=request.policy, evicted=evicted)

    def _handle_train_detector(
        self, request: DetectorTrainRequest
    ) -> DetectorTrainResponse:
        version = self.train_context_detector(
            matrix=request.matrix, exclude_user=request.exclude_user
        )
        return DetectorTrainResponse(version=version)

    def _handle_drain_shard(self, request: DrainShardRequest) -> Response:
        # Draining rebalances a consistent-hash ring; a standalone server
        # has none.  The shard router answers this operation itself and
        # never forwards it, so reaching here means the envelope was sent
        # to a worker (or single-process deployment) directly.
        raise ValueError(
            f"drain-shard (shard={request.shard}) is a shard-router "
            "operation; this server has no ring to rebalance — send it to "
            "the router's /v2/admin endpoint"
        )

    # ------------------------------------------------------------------ #

    def snapshot(self) -> dict:
        """Telemetry plus storage statistics, as plain types."""
        return self.handle(SnapshotRequest()).snapshot

    def _handle_snapshot(self, request: SnapshotRequest) -> SnapshotResponse:
        stats = self.server.store.stats()
        snapshot = self.telemetry.snapshot()
        snapshot["store"] = {
            "n_users": stats.n_users,
            "n_windows": stats.n_windows,
            "n_buffers": stats.n_buffers,
            "total_evicted": stats.total_evicted,
        }
        return SnapshotResponse(snapshot=snapshot)
