"""Typed request/response protocol of the authentication service.

The service's front door speaks a small set of frozen-dataclass request
types — one per operation a device fleet can issue — plus matching response
types, with a lossless JSON wire codec mirroring the model registry's
bundle format (NumPy arrays tagged with their dtype, enums stored by
value).  Keeping the protocol transport-agnostic means the in-process
:class:`~repro.service.frontend.ServiceFrontend`, the HTTP transport
(:mod:`repro.service.transport`), and the test-suite all share one
contract:

The operations split into two *planes* (the v2 API serves them on separate
endpoints with separate caller scopes; see :mod:`repro.service.envelope`):

**Data plane** — the high-traffic device path (scope ``data:write``):

* :class:`EnrollRequest` — upload feature windows (optionally training);
* :class:`AuthenticateRequest` — score windows against the served model;
  ``contexts=None`` asks the server to detect contexts itself with the
  registry-published context detector instead of trusting the device;
* :class:`DriftReport` — report behavioural drift with fresh windows.

**Control plane** — rare operator/admin actions (scope ``admin``):

* :class:`RollbackRequest` — retire the newest model version;
* :class:`SnapshotRequest` — fetch telemetry and storage statistics;
* :class:`EvictRequest` — evict old registry versions (long-lived fleets);
* :class:`DetectorTrainRequest` — train + publish the context detector.

Every request/response round-trips losslessly through
:func:`dumps_request`/:func:`loads_request` and
:func:`dumps_response`/:func:`loads_response`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.core.scoring import (
    BatchScoreResult,
    canonicalize_rows,
    decode_contexts,
    encode_contexts,
    offsets_from_lengths,
)
from repro.features.vector import FeatureMatrix
from repro.sensors.types import CoarseContext
from repro.utils import serialization

# --------------------------------------------------------------------- #
# requests
# --------------------------------------------------------------------- #


def _check_user_id(user_id: str) -> None:
    if not isinstance(user_id, str) or not user_id:
        raise ValueError(f"user_id must be a non-empty string, got {user_id!r}")


@dataclass(frozen=True, eq=False)
class EnrollRequest:
    """Upload a user's feature windows, optionally training their models.

    ``train=True`` forces a training round, ``False`` only buffers the
    windows, ``None`` (default) lets the service train automatically once
    its enrollment threshold is met.

    ``eq=False`` (identity comparison) because the payload holds NumPy
    arrays, whose elementwise ``==`` would make the generated dataclass
    equality raise; compare via the wire payloads instead.
    """

    user_id: str
    matrix: FeatureMatrix
    train: bool | None = None

    def __post_init__(self) -> None:
        _check_user_id(self.user_id)
        if not isinstance(self.matrix, FeatureMatrix):
            raise ValueError("matrix must be a FeatureMatrix")


@dataclass(frozen=True, eq=False)
class AuthenticateRequest:
    """Score a batch of windows for *user_id* against their served model.

    ``eq=False`` for the same array-field reason as :class:`EnrollRequest`.
    The feature rows are snapshotted (copied, marked read-only) at
    construction, so a caller mutating its source array afterwards cannot
    change what gets scored.

    Attributes
    ----------
    features:
        Window feature rows, shape ``(n_windows, n_features)`` (a single
        1-D vector is promoted to one row).
    contexts:
        Device-reported coarse context per window — or ``None`` to have the
        service detect contexts itself from the same feature rows, using
        the registry-published user-agnostic detector.
    version:
        Optional pinned model version (default: the newest active one).
    context_codes:
        Derived, not a constructor argument: the int-encoded form of
        ``contexts`` (``None`` when contexts are server-detected), computed
        once at construction so the serving hot path buckets windows with
        pure array gathers (:func:`repro.core.scoring.encode_contexts`).
    """

    user_id: str
    features: np.ndarray
    contexts: tuple[CoarseContext, ...] | None = None
    version: int | None = None
    context_codes: np.ndarray | None = field(
        init=False, default=None, repr=False
    )

    def __post_init__(self) -> None:
        _check_user_id(self.user_id)
        features = canonicalize_rows(self.features).copy()
        features.setflags(write=False)
        object.__setattr__(self, "features", features)
        if self.contexts is not None:
            contexts = tuple(CoarseContext(context) for context in self.contexts)
            if len(contexts) != len(features):
                raise ValueError(
                    f"got {len(features)} feature rows but {len(contexts)} "
                    "context labels"
                )
            object.__setattr__(self, "contexts", contexts)
            codes = encode_contexts(contexts)
            codes.setflags(write=False)
            object.__setattr__(self, "context_codes", codes)


@dataclass(frozen=True, eq=False)
class DriftReport:
    """Report behavioural drift with fresh windows, triggering retraining.

    ``eq=False`` for the same array-field reason as :class:`EnrollRequest`.
    """

    user_id: str
    matrix: FeatureMatrix

    def __post_init__(self) -> None:
        _check_user_id(self.user_id)
        if not isinstance(self.matrix, FeatureMatrix):
            raise ValueError("matrix must be a FeatureMatrix")


@dataclass(frozen=True)
class RollbackRequest:
    """Retire the newest model version and serve the previous one."""

    user_id: str

    def __post_init__(self) -> None:
        _check_user_id(self.user_id)


@dataclass(frozen=True)
class SnapshotRequest:
    """Fetch the service's telemetry counters and storage statistics."""


#: Eviction policies :class:`EvictRequest` accepts.
EVICTION_POLICIES = ("max_versions", "lru")


@dataclass(frozen=True)
class EvictRequest:
    """Evict old model versions from the registry (long-lived fleets).

    A control-plane operation: long-lived fleets accumulate one bundle per
    retrain per user, and without eviction registry memory (and on-disk
    payloads) grow without bound.  The serving bundle is never evicted.

    Attributes
    ----------
    policy:
        ``"max_versions"`` keeps each user's newest versions;
        ``"lru"`` keeps each user's most recently *served* versions.
    max_versions:
        How many versions each policy keeps per user (the serving version
        is always kept, even beyond this budget).
    user_id:
        Restrict eviction to one user (default: the whole registry).
    """

    policy: str = "max_versions"
    max_versions: int = 4
    user_id: str | None = None

    def __post_init__(self) -> None:
        if self.policy not in EVICTION_POLICIES:
            raise ValueError(
                f"policy must be one of {EVICTION_POLICIES}, got {self.policy!r}"
            )
        if not isinstance(self.max_versions, int) or self.max_versions < 1:
            raise ValueError(
                f"max_versions must be an int >= 1, got {self.max_versions!r}"
            )
        if self.user_id is not None:
            _check_user_id(self.user_id)


@dataclass(frozen=True, eq=False)
class DetectorTrainRequest:
    """Train the user-agnostic context detector and publish it.

    A control-plane operation: the labelled *matrix* trains the shared
    ``(scaler, classifier)`` detector through the paper-path entry point
    and publishes it to the model registry, versioned like bundles.

    ``eq=False`` for the same array-field reason as :class:`EnrollRequest`.
    """

    matrix: FeatureMatrix
    exclude_user: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.matrix, FeatureMatrix):
            raise ValueError("matrix must be a FeatureMatrix")
        if self.exclude_user is not None:
            _check_user_id(self.exclude_user)


@dataclass(frozen=True)
class DrainShardRequest:
    """Mark one shard draining (or restore it) for live resharding.

    A control-plane operation the **shard router** answers itself: workers
    have no ring to rebalance, so a drain envelope reaching a standalone
    server fails typed (``ValueError``).  While a shard drains, the router
    routes no new sub-frames to it — its users rebalance deterministically
    to the remaining shards along the consistent-hash ring — while requests
    already in flight complete normally.  ``undrain=True`` reverses the
    move, restoring the exact pre-drain routing.

    Attributes
    ----------
    shard:
        The shard index to drain (or restore).
    undrain:
        ``True`` returns the shard to rotation instead of draining it.
    """

    shard: int
    undrain: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.shard, int) or isinstance(self.shard, bool):
            raise ValueError(f"shard must be an int, got {self.shard!r}")
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")
        if not isinstance(self.undrain, bool):
            raise ValueError(f"undrain must be a bool, got {self.undrain!r}")


Request = (
    EnrollRequest
    | AuthenticateRequest
    | DriftReport
    | RollbackRequest
    | SnapshotRequest
    | EvictRequest
    | DetectorTrainRequest
    | DrainShardRequest
)


# --------------------------------------------------------------------- #
# columnar batches (the zero-copy serving form)
# --------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class AuthenticateColumns:
    """A batch of authenticate requests in columnar (struct-of-arrays) form.

    The binary wire codec decodes a batch frame straight into this shape —
    one contiguous feature block plus per-request metadata columns — and
    :meth:`~repro.service.frontend.ServiceFrontend.submit_columns` hands it
    to the fused scoring pass without ever materializing per-request
    :class:`AuthenticateRequest` objects.  Unlike the per-request type, the
    feature block is **not** defensively copied: the serving path builds it
    from immutable wire bytes (:func:`np.frombuffer` views are read-only),
    and copying a 100k-window block would defeat the zero-copy decode.

    ``eq=False`` for the usual array-field reason.

    Attributes
    ----------
    user_ids:
        One user id per request.
    features:
        The combined ``(total_windows, n_features)`` feature block, request
        slices back to back.
    lengths:
        Windows per request; must sum to ``len(features)``.
    context_codes:
        Per-window ``int8`` context codes — or ``None`` to have the service
        detect every window's context server-side in one vectorized pass.
    versions:
        Optional pinned model version per request (``None`` entries select
        the newest active version; ``versions=None`` means no pins at all).
    trace_id:
        Optional trace id threaded from the transport door.  The batch is
        rebuilt from wire bytes inside the worker thread, so the id field
        (resolved via :meth:`repro.service.tracing.Tracer.lookup`) is the
        only way the frontend can attach fused-pass spans to the frame's
        trace — object-identity binding cannot survive the re-decode.
    """

    user_ids: tuple[str, ...]
    features: np.ndarray
    lengths: np.ndarray
    context_codes: np.ndarray | None = None
    versions: tuple[int | None, ...] | None = None
    trace_id: str | None = None

    def __post_init__(self) -> None:
        for user_id in self.user_ids:
            _check_user_id(user_id)
        features = canonicalize_rows(self.features)
        object.__setattr__(self, "features", features)
        lengths = np.asarray(self.lengths, dtype=np.intp)
        object.__setattr__(self, "lengths", lengths)
        if len(lengths) != len(self.user_ids):
            raise ValueError(
                f"got {len(self.user_ids)} user ids but {len(lengths)} "
                "request lengths"
            )
        if len(lengths) and int(lengths.min()) < 0:
            raise ValueError("request lengths must be non-negative")
        total = int(lengths.sum())
        if total != len(features):
            raise ValueError(
                f"request lengths sum to {total} but the feature block has "
                f"{len(features)} rows"
            )
        if self.context_codes is not None:
            codes = encode_contexts(np.asarray(self.context_codes))
            if len(codes) != total:
                raise ValueError(
                    f"got {total} feature rows but {len(codes)} context codes"
                )
            object.__setattr__(self, "context_codes", codes)
        if self.versions is not None and len(self.versions) != len(self.user_ids):
            raise ValueError(
                f"got {len(self.user_ids)} user ids but {len(self.versions)} "
                "version pins"
            )

    @property
    def n_requests(self) -> int:
        return len(self.user_ids)

    @property
    def n_windows(self) -> int:
        return len(self.features)


@dataclass(frozen=True, eq=False)
class ColumnarAuthResult:
    """Columnar outcome of one :class:`AuthenticateColumns` dispatch.

    Mirrors the input shape: scored windows stay in contiguous blocks
    (request slices back to back, **errored requests contributing zero
    rows**) so the binary codec frames them without per-request objects.
    ``eq=False`` for the usual array-field reason.

    Attributes
    ----------
    user_ids:
        One user id per request (echo of the batch).
    scores, accepted, model_context_codes:
        One entry per *scored* window, in request order.
    lengths:
        Scored windows per request (``0`` for errored requests).
    model_versions:
        Served bundle version per request (``0`` for errored requests —
        consult :attr:`errors`).
    errors:
        Sparse map of request index to its typed
        :class:`ErrorResponse`; requests present here contributed no rows.
    """

    user_ids: tuple[str, ...]
    scores: np.ndarray
    accepted: np.ndarray
    model_context_codes: np.ndarray
    lengths: np.ndarray
    model_versions: np.ndarray
    errors: dict[int, "ErrorResponse"] = field(default_factory=dict)

    @property
    def n_requests(self) -> int:
        return len(self.user_ids)

    def responses(self) -> list["Response"]:
        """Materialize one typed response per request, in request order.

        The bridge back to the per-request protocol, used at both ends of
        the wire: the frontend fans a columnar pass over stacked
        :class:`AuthenticateRequest`\\ s back out through it (the object
        door of ``ServiceFrontend.submit_many``), and the binary client
        uses it so callers of ``submit_many`` see exactly the responses the
        JSON codec would have produced.
        """
        offsets = offsets_from_lengths(self.lengths)
        responses: list[Response] = []
        for index in range(self.n_requests):
            error = self.errors.get(index)
            if error is not None:
                responses.append(error)
                continue
            start, stop = int(offsets[index]), int(offsets[index + 1])
            responses.append(
                AuthenticationResponse(
                    user_id=self.user_ids[index],
                    result=BatchScoreResult(
                        scores=self.scores[start:stop],
                        accepted=self.accepted[start:stop],
                        model_contexts=decode_contexts(
                            self.model_context_codes[start:stop]
                        ),
                        model_version=int(self.model_versions[index]),
                    ),
                )
            )
        return responses

#: The hot-path operations: the only request types the data plane serves,
#: the micro-batch queue admits, and ``POST /v2/requests`` accepts.
DATA_PLANE_TYPES: tuple[type, ...] = (EnrollRequest, AuthenticateRequest, DriftReport)

#: The admin operations: served by the control plane at ``POST /v2/admin``,
#: requiring the ``admin`` caller scope.
CONTROL_PLANE_TYPES: tuple[type, ...] = (
    RollbackRequest,
    SnapshotRequest,
    EvictRequest,
    DetectorTrainRequest,
    DrainShardRequest,
)


def is_data_plane(request: Request) -> bool:
    """True when *request* is a hot-path (data-plane) operation."""
    return type(request) in DATA_PLANE_TYPES


def is_control_plane(request: Request) -> bool:
    """True when *request* is an admin (control-plane) operation."""
    return type(request) in CONTROL_PLANE_TYPES

# --------------------------------------------------------------------- #
# responses
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class EnrollResponse:
    """Outcome of one enrollment upload."""

    user_id: str
    status: str  # "buffered" or "trained"
    windows_stored: int
    model_version: int | None = None


@dataclass(frozen=True, eq=False)
class AuthenticationResponse:
    """Outcome of one batched authentication request.

    ``eq=False``: the result holds NumPy score/decision arrays (see
    :class:`EnrollRequest`); compare via the wire payloads instead.
    """

    user_id: str
    result: BatchScoreResult

    @property
    def accepted(self) -> np.ndarray:
        return self.result.accepted

    @property
    def scores(self) -> np.ndarray:
        return self.result.scores

    @property
    def accept_rate(self) -> float:
        return self.result.accept_rate

    @property
    def model_version(self) -> int:
        return self.result.model_version


@dataclass(frozen=True)
class DriftResponse:
    """Outcome of a drift report (always retrains)."""

    user_id: str
    previous_version: int
    new_version: int


@dataclass(frozen=True)
class RollbackResponse:
    """Outcome of a rollback: the version now serving."""

    user_id: str
    serving_version: int


@dataclass(frozen=True)
class SnapshotResponse:
    """Telemetry plus storage statistics, as plain types."""

    snapshot: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EvictResponse:
    """Outcome of a registry eviction pass.

    Attributes
    ----------
    policy:
        The policy that ran (``"max_versions"`` or ``"lru"``).
    evicted:
        Mapping of user id to the version numbers evicted for that user
        (users with nothing to evict are omitted).
    versions_evicted:
        Total versions dropped across all users.
    """

    policy: str
    evicted: dict = field(default_factory=dict)

    @property
    def versions_evicted(self) -> int:
        return sum(len(versions) for versions in self.evicted.values())


@dataclass(frozen=True)
class DetectorTrainResponse:
    """Outcome of a detector training round: the published version."""

    version: int


@dataclass(frozen=True)
class DrainShardResponse:
    """Outcome of a drain (or undrain): the router's routing state.

    Attributes
    ----------
    shard:
        The shard the operation targeted.
    draining:
        Whether that shard is draining after the operation.
    active_shards:
        Shard indices still receiving new sub-frames, ascending.
    """

    shard: int
    draining: bool
    active_shards: tuple = ()


@dataclass(frozen=True)
class ThrottledResponse:
    """A request rejected by admission control before it was dispatched.

    Emitted by the micro-batching queue when its bounded depth is exhausted
    under the ``"reject"`` overflow policy, and mapped to HTTP 429 by the
    transport.  Unlike :class:`ErrorResponse` this is not a failure of the
    request itself: retrying after ``retry_after_s`` is expected to succeed
    once the backlog drains.

    Attributes
    ----------
    request_kind:
        The wire kind of the throttled request (e.g. ``"authenticate"``).
    reason:
        Why admission was refused (currently always ``"queue-full"``).
    queue_depth:
        Pending requests at the moment of rejection.
    max_depth:
        The queue's configured admission bound.
    retry_after_s:
        Suggested client back-off before retrying, in seconds.
    user_id:
        The requesting user, when the request carried one.
    """

    request_kind: str
    reason: str
    queue_depth: int
    max_depth: int
    retry_after_s: float = 0.0
    user_id: str | None = None


@dataclass(frozen=True)
class ErrorResponse:
    """A failed request, mapped from the exception that rejected it.

    Attributes
    ----------
    request_kind:
        The wire kind of the request that failed (e.g. ``"authenticate"``).
    error:
        The exception class name (``"KeyError"``, ``"ValueError"``, …).
    message:
        Human-readable failure description.
    user_id:
        The requesting user, when the request carried one.
    """

    request_kind: str
    error: str
    message: str
    user_id: str | None = None


Response = (
    EnrollResponse
    | AuthenticationResponse
    | DriftResponse
    | RollbackResponse
    | SnapshotResponse
    | EvictResponse
    | DetectorTrainResponse
    | DrainShardResponse
    | ThrottledResponse
    | ErrorResponse
)

# --------------------------------------------------------------------- #
# wire codec
# --------------------------------------------------------------------- #

_REQUEST_KINDS: dict[type, str] = {
    EnrollRequest: "enroll",
    AuthenticateRequest: "authenticate",
    DriftReport: "drift-report",
    RollbackRequest: "rollback",
    SnapshotRequest: "snapshot",
    EvictRequest: "evict",
    DetectorTrainRequest: "train-detector",
    DrainShardRequest: "drain-shard",
}

_RESPONSE_KINDS: dict[type, str] = {
    EnrollResponse: "enroll-response",
    AuthenticationResponse: "authenticate-response",
    DriftResponse: "drift-response",
    RollbackResponse: "rollback-response",
    SnapshotResponse: "snapshot-response",
    EvictResponse: "evict-response",
    DetectorTrainResponse: "train-detector-response",
    DrainShardResponse: "drain-shard-response",
    ThrottledResponse: "throttled-response",
    ErrorResponse: "error-response",
}


def request_kind(request: Request) -> str:
    """The wire kind tag of *request* (e.g. ``"authenticate"``)."""
    kind = _REQUEST_KINDS.get(type(request))
    if kind is None:
        raise TypeError(f"not a protocol request: {type(request).__name__}")
    return kind


def _matrix_to_payload(matrix: FeatureMatrix) -> dict[str, Any]:
    return {
        "values": matrix.values,
        "feature_names": list(matrix.feature_names),
        "user_ids": list(matrix.user_ids),
        "contexts": list(matrix.contexts),
    }


def _matrix_from_payload(payload: Mapping[str, Any]) -> FeatureMatrix:
    return FeatureMatrix(
        values=np.asarray(payload["values"], dtype=float),
        feature_names=list(payload["feature_names"]),
        user_ids=list(payload["user_ids"]),
        contexts=list(payload["contexts"]),
    )


def _result_to_payload(result: BatchScoreResult) -> dict[str, Any]:
    return {
        "scores": result.scores,
        "accepted": result.accepted,
        "model_contexts": [context.value for context in result.model_contexts],
        "model_version": int(result.model_version),
    }


def _result_from_payload(payload: Mapping[str, Any]) -> BatchScoreResult:
    return BatchScoreResult(
        scores=np.asarray(payload["scores"], dtype=float),
        accepted=np.asarray(payload["accepted"], dtype=bool),
        model_contexts=tuple(
            CoarseContext(value) for value in payload["model_contexts"]
        ),
        model_version=int(payload["model_version"]),
    )


def request_to_payload(request: Request) -> dict[str, Any]:
    """Serialise a protocol request into a plain tagged structure."""
    kind = request_kind(request)
    payload: dict[str, Any] = {"kind": kind}
    if isinstance(request, EnrollRequest):
        payload["user_id"] = request.user_id
        payload["matrix"] = _matrix_to_payload(request.matrix)
        payload["train"] = request.train
    elif isinstance(request, AuthenticateRequest):
        payload["user_id"] = request.user_id
        payload["features"] = request.features
        payload["contexts"] = (
            None
            if request.contexts is None
            else [context.value for context in request.contexts]
        )
        payload["version"] = request.version
    elif isinstance(request, DriftReport):
        payload["user_id"] = request.user_id
        payload["matrix"] = _matrix_to_payload(request.matrix)
    elif isinstance(request, RollbackRequest):
        payload["user_id"] = request.user_id
    elif isinstance(request, EvictRequest):
        payload["policy"] = request.policy
        payload["max_versions"] = int(request.max_versions)
        payload["user_id"] = request.user_id
    elif isinstance(request, DetectorTrainRequest):
        payload["matrix"] = _matrix_to_payload(request.matrix)
        payload["exclude_user"] = request.exclude_user
    elif isinstance(request, DrainShardRequest):
        payload["shard"] = int(request.shard)
        payload["undrain"] = bool(request.undrain)
    return payload


def request_from_payload(payload: Mapping[str, Any]) -> Request:
    """Rebuild a protocol request from :func:`request_to_payload` output.

    Unknown payload keys are ignored (a tolerant reader lets newer clients
    talk to older servers); unknown or missing ``kind`` values, and missing
    required fields, are not.

    Raises
    ------
    ValueError
        If *payload* is not a mapping, its ``kind`` names no request type,
        a required field for the tagged kind is missing, or a field fails
        the request's own validation.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"payload must be a mapping, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    try:
        if kind == "enroll":
            return EnrollRequest(
                user_id=payload["user_id"],
                matrix=_matrix_from_payload(payload["matrix"]),
                train=payload.get("train"),
            )
        if kind == "authenticate":
            contexts = payload.get("contexts")
            return AuthenticateRequest(
                user_id=payload["user_id"],
                features=np.asarray(payload["features"], dtype=float),
                contexts=(
                    None
                    if contexts is None
                    else tuple(CoarseContext(value) for value in contexts)
                ),
                version=payload.get("version"),
            )
        if kind == "drift-report":
            return DriftReport(
                user_id=payload["user_id"],
                matrix=_matrix_from_payload(payload["matrix"]),
            )
        if kind == "rollback":
            return RollbackRequest(user_id=payload["user_id"])
        if kind == "snapshot":
            return SnapshotRequest()
        if kind == "evict":
            return EvictRequest(
                policy=payload.get("policy", "max_versions"),
                max_versions=int(payload.get("max_versions", 4)),
                user_id=payload.get("user_id"),
            )
        if kind == "train-detector":
            return DetectorTrainRequest(
                matrix=_matrix_from_payload(payload["matrix"]),
                exclude_user=payload.get("exclude_user"),
            )
        if kind == "drain-shard":
            return DrainShardRequest(
                shard=int(payload["shard"]),
                undrain=bool(payload.get("undrain", False)),
            )
    except KeyError as error:
        # A missing field is a malformed payload (the sender's fault), not
        # a missing resource: surface it as the parser's ValueError.
        raise ValueError(
            f"{kind!r} payload is missing required field {error.args[0]!r}"
        ) from None
    raise ValueError(f"payload does not describe a protocol request: kind={kind!r}")


def response_to_payload(response: Response) -> dict[str, Any]:
    """Serialise a protocol response into a plain tagged structure."""
    kind = _RESPONSE_KINDS.get(type(response))
    if kind is None:
        raise TypeError(f"not a protocol response: {type(response).__name__}")
    payload: dict[str, Any] = {"kind": kind}
    if isinstance(response, EnrollResponse):
        payload.update(
            user_id=response.user_id,
            status=response.status,
            windows_stored=int(response.windows_stored),
            model_version=response.model_version,
        )
    elif isinstance(response, AuthenticationResponse):
        payload.update(
            user_id=response.user_id, result=_result_to_payload(response.result)
        )
    elif isinstance(response, DriftResponse):
        payload.update(
            user_id=response.user_id,
            previous_version=int(response.previous_version),
            new_version=int(response.new_version),
        )
    elif isinstance(response, RollbackResponse):
        payload.update(
            user_id=response.user_id, serving_version=int(response.serving_version)
        )
    elif isinstance(response, SnapshotResponse):
        payload.update(snapshot=response.snapshot)
    elif isinstance(response, EvictResponse):
        payload.update(
            policy=response.policy,
            evicted={
                user_id: [int(version) for version in versions]
                for user_id, versions in response.evicted.items()
            },
        )
    elif isinstance(response, DetectorTrainResponse):
        payload.update(version=int(response.version))
    elif isinstance(response, DrainShardResponse):
        payload.update(
            shard=int(response.shard),
            draining=bool(response.draining),
            active_shards=[int(shard) for shard in response.active_shards],
        )
    elif isinstance(response, ThrottledResponse):
        payload.update(
            request_kind=response.request_kind,
            reason=response.reason,
            queue_depth=int(response.queue_depth),
            max_depth=int(response.max_depth),
            retry_after_s=float(response.retry_after_s),
            user_id=response.user_id,
        )
    elif isinstance(response, ErrorResponse):
        payload.update(
            request_kind=response.request_kind,
            error=response.error,
            message=response.message,
            user_id=response.user_id,
        )
    return payload


def response_from_payload(payload: Mapping[str, Any]) -> Response:
    """Rebuild a protocol response from :func:`response_to_payload` output.

    Raises
    ------
    ValueError
        If *payload* is not a mapping, its ``kind`` names no response type,
        or a required field for the tagged kind is missing.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(
            f"payload must be a mapping, got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    try:
        return _response_from_tagged_payload(kind, payload)
    except KeyError as error:
        raise ValueError(
            f"{kind!r} payload is missing required field {error.args[0]!r}"
        ) from None


def _response_from_tagged_payload(kind: Any, payload: Mapping[str, Any]) -> Response:
    if kind == "enroll-response":
        model_version = payload.get("model_version")
        return EnrollResponse(
            user_id=payload["user_id"],
            status=payload["status"],
            windows_stored=int(payload["windows_stored"]),
            model_version=None if model_version is None else int(model_version),
        )
    if kind == "authenticate-response":
        return AuthenticationResponse(
            user_id=payload["user_id"],
            result=_result_from_payload(payload["result"]),
        )
    if kind == "drift-response":
        return DriftResponse(
            user_id=payload["user_id"],
            previous_version=int(payload["previous_version"]),
            new_version=int(payload["new_version"]),
        )
    if kind == "rollback-response":
        return RollbackResponse(
            user_id=payload["user_id"],
            serving_version=int(payload["serving_version"]),
        )
    if kind == "snapshot-response":
        return SnapshotResponse(snapshot=dict(payload.get("snapshot", {})))
    if kind == "evict-response":
        return EvictResponse(
            policy=payload["policy"],
            evicted={
                user_id: [int(version) for version in versions]
                for user_id, versions in dict(payload.get("evicted", {})).items()
            },
        )
    if kind == "train-detector-response":
        return DetectorTrainResponse(version=int(payload["version"]))
    if kind == "drain-shard-response":
        return DrainShardResponse(
            shard=int(payload["shard"]),
            draining=bool(payload["draining"]),
            active_shards=tuple(
                int(shard) for shard in payload.get("active_shards", ())
            ),
        )
    if kind == "throttled-response":
        return ThrottledResponse(
            request_kind=payload["request_kind"],
            reason=payload["reason"],
            queue_depth=int(payload["queue_depth"]),
            max_depth=int(payload["max_depth"]),
            retry_after_s=float(payload.get("retry_after_s", 0.0)),
            user_id=payload.get("user_id"),
        )
    if kind == "error-response":
        return ErrorResponse(
            request_kind=payload["request_kind"],
            error=payload["error"],
            message=payload["message"],
            user_id=payload.get("user_id"),
        )
    raise ValueError(f"payload does not describe a protocol response: kind={kind!r}")


def dumps_request(request: Request) -> str:
    """Serialise a request to its JSON wire form.

    Raises
    ------
    TypeError
        If *request* is not a protocol request.
    """
    return serialization.dumps(request_to_payload(request))


def loads_request(text: str) -> Request:
    """Parse a request from its JSON wire form.

    Raises
    ------
    ValueError
        If *text* is not JSON (``json.JSONDecodeError`` is a subclass) or
        does not describe a protocol request.
    """
    return request_from_payload(serialization.loads(text))


def dumps_response(response: Response) -> str:
    """Serialise a response to its JSON wire form.

    Raises
    ------
    TypeError
        If *response* is not a protocol response.
    """
    return serialization.dumps(response_to_payload(response))


def loads_response(text: str) -> Response:
    """Parse a response from its JSON wire form.

    Raises
    ------
    ValueError
        If *text* is not JSON (``json.JSONDecodeError`` is a subclass) or
        does not describe a protocol response.
    """
    return response_from_payload(serialization.loads(text))
