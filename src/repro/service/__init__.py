"""Fleet-scale authentication service layer (the paper's cloud server at scale).

The seed reproduction can enroll and score one user at a time; this package
is the serving subsystem implied by the SmarterYou architecture (Figure 1)
but absent from the paper's prototype:

* :mod:`repro.service.protocol` — typed request/response dataclasses with a
  lossless JSON wire codec (the transport-agnostic service contract), split
  into a hot **data plane** (enroll / authenticate / drift-report) and an
  admin **control plane** (rollback / snapshot / eviction / detector
  training);
* :mod:`repro.service.envelope` — the versioned (v2) API surface: frozen
  request :class:`~repro.service.envelope.Envelope`\\ s carrying
  ``api_version`` / ``request_id`` / idempotency key / caller credentials,
  a :class:`~repro.service.envelope.CallerRegistry` of hashed API keys and
  per-caller scopes, and the :class:`~repro.service.envelope.EnvelopeProcessor`
  that authorizes every envelope *before* it can reach the gateway;
* :mod:`repro.service.wirebin` — the binary columnar batch codec: whole
  data-plane batches framed as contiguous little-endian columns (one
  float64 block for every feature vector, int8 context codes) the server
  decodes with zero-copy ``np.frombuffer`` views straight into the fused
  scoring pass;
* :mod:`repro.service.transport` — the HTTP transport actually speaking
  those codecs over sockets: a stdlib threaded server exposing
  ``POST /v1/requests`` (legacy), ``POST /v2/requests`` (enveloped data
  plane, JSON or content-negotiated binary frames, chunked streaming
  uploads) and ``POST /v2/admin`` (enveloped control plane), plus
  ``/healthz`` and ``/metrics``, and a connection-pooling client speaking
  either codec;
* :mod:`repro.service.frontend` — the micro-batching front door: validates,
  routes and coalesces concurrent authenticate requests into single
  vectorized scoring passes (reading every served model through one
  :class:`~repro.core.scoring.ServingTable` per registry generation), with
  telemetry /
  error-mapping / per-user serialization middleware and admission-controlled
  queuing (:class:`~repro.service.frontend.MicroBatchQueue`, data plane
  only);
* :mod:`repro.service.gateway` — the backend dispatcher executing protocol
  requests against storage, training, registry and scoring, through its
  :class:`~repro.service.gateway.DataPlane` and
  :class:`~repro.service.gateway.ControlPlane`;
* :mod:`repro.service.registry` — a versioned model registry that persists
  and serves :class:`~repro.devices.cloud.TrainedModelBundle`\\ s (and the
  user-agnostic context detector) with rollback and eviction;
* :mod:`repro.service.fleet` — a fleet simulator driving hundreds of users
  through the full enroll → auth → attack → drift → retrain lifecycle over
  the v2 API;
* :mod:`repro.service.telemetry` — counters and latency statistics for all
  of the above;
* :mod:`repro.service.cluster` — the multi-process sharded serving
  cluster: a :class:`~repro.service.cluster.ShardRouter` consistent-hashing
  ``user_id`` to one of N :class:`~repro.service.cluster.WorkerPool` worker
  processes (each a full transport stack over its own registry slice),
  splitting/merging binary frames across shards in request order, sharing
  per-caller quotas fleet-wide via a file-backed
  :class:`~repro.service.envelope.SharedTokenBucket`, and merging every
  worker's telemetry into one Prometheus view;
* :mod:`repro.service.chaos` — fault injection for all of the above
  (credential churn, quota-file corruption, worker-crash storms) plus the
  typed-outcome grader the chaos suite uses to pin that every injected
  fault surfaces as a 401/403/429/503 or typed error — never a 500.

The storage and scoring engines live in the layers below —
:class:`~repro.devices.store.FeatureStore` in :mod:`repro.devices.store` and
:class:`~repro.core.scoring.BatchScorer` in :mod:`repro.core.scoring` — and
are re-exported here under their historical names.  The dependency graph is
strictly acyclic — store and scoring sit below the cloud server, which sits
below the core facade, with ``service`` on top — so this package imports
eagerly: no lazy-import workarounds remain.
"""

from repro.core.scoring import (
    BatchScorer,
    BatchScoreResult,
    FusedStackCache,
    ServingTable,
    score_fleet,
    score_requests,
    score_stacked,
)
from repro.service import wirebin
from repro.devices.store import ANY_CONTEXT, FeatureStore, RingBuffer, StoreStats
from repro.service.cluster import (
    HashRing,
    RetryPolicy,
    ShardRouter,
    ShardUnavailable,
    StaticEndpoints,
    WorkerPool,
)
from repro.service.envelope import (
    API_VERSION,
    SCOPE_ADMIN,
    SCOPE_DATA_WRITE,
    CallerRegistry,
    DeniedResponse,
    Envelope,
    EnvelopeChannel,
    EnvelopeProcessor,
    SealedResponse,
    SharedTokenBucket,
)
from repro.service.fleet import FleetConfig, FleetReport, FleetSimulator, RequestChannel
from repro.service.frontend import MicroBatchQueue, ServiceFrontend
from repro.service.gateway import (
    AuthenticationGateway,
    ControlPlane,
    DataPlane,
    PlaneMismatchError,
)
from repro.service.protocol import (
    AuthenticateRequest,
    AuthenticationResponse,
    DetectorTrainRequest,
    DetectorTrainResponse,
    DrainShardRequest,
    DrainShardResponse,
    DriftReport,
    DriftResponse,
    EnrollRequest,
    EnrollResponse,
    ErrorResponse,
    EvictRequest,
    EvictResponse,
    RollbackRequest,
    RollbackResponse,
    SnapshotRequest,
    SnapshotResponse,
    ThrottledResponse,
)
from repro.service.registry import ModelRecord, ModelRegistry
from repro.service.telemetry import Counter, TelemetryHub
from repro.service.transport import (
    DeadlineExceeded,
    ServiceClient,
    ServiceHTTPServer,
)

__all__ = [
    "ANY_CONTEXT",
    "API_VERSION",
    "AuthenticateRequest",
    "AuthenticationGateway",
    "AuthenticationResponse",
    "BatchScoreResult",
    "BatchScorer",
    "CallerRegistry",
    "ControlPlane",
    "Counter",
    "DataPlane",
    "DeadlineExceeded",
    "DeniedResponse",
    "DetectorTrainRequest",
    "DetectorTrainResponse",
    "DrainShardRequest",
    "DrainShardResponse",
    "DriftReport",
    "DriftResponse",
    "EnrollRequest",
    "EnrollResponse",
    "Envelope",
    "EnvelopeChannel",
    "EnvelopeProcessor",
    "ErrorResponse",
    "EvictRequest",
    "EvictResponse",
    "FeatureStore",
    "FleetConfig",
    "FleetReport",
    "FleetSimulator",
    "FusedStackCache",
    "HashRing",
    "MicroBatchQueue",
    "ModelRecord",
    "ModelRegistry",
    "PlaneMismatchError",
    "RequestChannel",
    "RetryPolicy",
    "RingBuffer",
    "RollbackRequest",
    "RollbackResponse",
    "SCOPE_ADMIN",
    "SCOPE_DATA_WRITE",
    "SealedResponse",
    "ServiceClient",
    "ServiceFrontend",
    "ServiceHTTPServer",
    "ServingTable",
    "ShardRouter",
    "ShardUnavailable",
    "SharedTokenBucket",
    "SnapshotRequest",
    "SnapshotResponse",
    "StaticEndpoints",
    "StoreStats",
    "TelemetryHub",
    "ThrottledResponse",
    "WorkerPool",
    "score_fleet",
    "score_requests",
    "score_stacked",
    "wirebin",
]
