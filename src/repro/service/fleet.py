"""Fleet-scale lifecycle simulation against the service frontend.

Drives hundreds of simulated users through the full SmarterYou lifecycle —
enroll → continuous authentication → masquerade attack → behavioural drift →
retrain — entirely by issuing typed :mod:`repro.service.protocol` requests
over the v2 enveloped API (an authenticated ``fleet-operator`` caller
whose envelopes dispatch through the micro-batching
:class:`~repro.service.frontend.ServiceFrontend`), and reports counters,
accept/reject rates and latency statistics from the service telemetry.  Each authentication phase submits the whole fleet's
requests in one batch, so they coalesce into a single fused scoring pass;
by default the fleet also trains and publishes the user-agnostic context
detector, and authentication requests carry *no* device-reported contexts —
the service labels every window itself inside the same batched pass.

Users are synthesised directly in feature space: each user is a Gaussian
cluster with a per-context mean offset, which preserves the structure the
authentication models exploit (users are separable, contexts shift the
distribution, drift moves the cluster) while keeping a 500-user simulation
fast enough for the test suite.  The sensor-accurate single-user pipeline
(:class:`~repro.core.system.SmarterYou`) remains the reference path for the
paper's experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.devices.cloud import AuthenticationServer
from repro.devices.store import FeatureStore
from repro.ml.kernel_ridge import KernelRidgeClassifier
from repro.features.vector import FeatureMatrix
from repro.sensors.types import CoarseContext
from repro.service.envelope import (
    SCOPE_ADMIN,
    SCOPE_DATA_WRITE,
    CallerRegistry,
    EnvelopeChannel,
    EnvelopeProcessor,
)
from repro.service.frontend import ServiceFrontend
from repro.service.gateway import AuthenticationGateway
from repro.service.protocol import (
    AuthenticateRequest,
    DriftReport,
    EnrollRequest,
    ErrorResponse,
    Request,
    Response,
)
from repro.service.registry import ModelRegistry
from repro.utils.rng import RandomState, derive_rng


@runtime_checkable
class RequestChannel(Protocol):
    """Anything protocol requests can be submitted through.

    Satisfied by the in-process
    :class:`~repro.service.frontend.ServiceFrontend` and by the HTTP
    :class:`~repro.service.transport.ServiceClient`, so the fleet lifecycle
    runs identically in process and over real sockets.
    """

    def submit(self, request: Request) -> Response:
        """Dispatch one protocol request."""
        ...

    def submit_many(self, requests: Sequence[Request]) -> list[Response]:
        """Dispatch a batch of protocol requests, responses in order."""
        ...


@dataclass(frozen=True)
class FleetConfig:
    """Scale and behaviour knobs of the simulated fleet.

    Attributes
    ----------
    n_users:
        Fleet size (the acceptance target is 500).
    n_features:
        Dimensionality of the synthetic authentication vectors.
    enroll_windows_per_context:
        Windows each user uploads per context during enrollment (the
        server needs at least 10 per trained context).
    auth_windows:
        Windows per user in the continuous-authentication phase.
    attack_windows:
        Windows each masquerading attacker replays against a victim.
    drift_fraction:
        Fraction of users whose behaviour drifts after deployment.
    drift_windows_per_context:
        Fresh windows a drifted user uploads when reporting drift.
    drift_shift:
        How far (in feature units) drift moves a user's cluster mean.
    user_spread:
        Standard deviation of per-user cluster means (between users).
    window_noise:
        Standard deviation of windows around their user's mean (within
        user); the ratio spread/noise controls task difficulty.
    max_negative_windows:
        Per-training-round cap on sampled other-user windows.  Kept near
        the paper's ~2.5:1 negative:positive ratio; the seed default of
        2000 would swamp a 12-window enrollment and reject everyone.
    store_capacity_per_context:
        Ring-buffer capacity per (user, context); small enough that drift
        uploads displace most pre-drift windows, so retraining tracks the
        new behaviour.
    store_shards:
        Shards in the gateway's feature store.
    server_side_contexts:
        When true (default), the fleet trains and publishes the
        user-agnostic context detector during enrollment, and every
        authentication request omits device-reported contexts — the
        service detects them inside the coalesced scoring pass.  When
        false, requests carry ground-truth contexts (the seed behaviour).
    detector_training_windows:
        Cap on labelled enrollment windows used to train the context
        detector (keeps detector training sub-linear in fleet size).
    seed:
        Master seed; every phase derives its own stream from it.
    """

    n_users: int = 500
    n_features: int = 12
    enroll_windows_per_context: int = 12
    auth_windows: int = 10
    attack_windows: int = 8
    drift_fraction: float = 0.08
    drift_windows_per_context: int = 16
    drift_shift: float = 3.0
    user_spread: float = 2.0
    window_noise: float = 0.5
    max_negative_windows: int = 60
    store_capacity_per_context: int = 20
    store_shards: int = 16
    server_side_contexts: bool = True
    detector_training_windows: int = 4000
    seed: RandomState = 7

    def __post_init__(self) -> None:
        if self.n_users < 2:
            raise ValueError("a fleet needs at least two users (negatives!)")
        if self.enroll_windows_per_context < 10:
            raise ValueError(
                "enroll_windows_per_context must be >= 10 (server minimum)"
            )
        if not 0.0 <= self.drift_fraction <= 1.0:
            raise ValueError("drift_fraction must be in [0, 1]")
        if self.detector_training_windows < 2:
            raise ValueError("detector_training_windows must be >= 2")


@dataclass
class SimulatedUser:
    """One synthetic fleet member: a Gaussian cluster per context."""

    user_id: str
    context_means: dict[CoarseContext, np.ndarray]
    drifted: bool = False

    def sample_windows(
        self,
        n_per_context: int,
        noise: float,
        rng: np.random.Generator,
        feature_names: list[str],
        contexts: tuple[CoarseContext, ...] = tuple(CoarseContext),
    ) -> FeatureMatrix:
        """Draw a labelled feature matrix of ``n_per_context`` windows each."""
        blocks, labels = [], []
        for context in contexts:
            mean = self.context_means[context]
            blocks.append(rng.normal(mean, noise, size=(n_per_context, len(mean))))
            labels.extend([context.value] * n_per_context)
        return FeatureMatrix(
            values=np.vstack(blocks),
            feature_names=list(feature_names),
            user_ids=[self.user_id] * len(labels),
            contexts=labels,
        )

    def apply_drift(self, shift: np.ndarray) -> None:
        """Translate every context cluster by *shift* (behavioural drift)."""
        for context in self.context_means:
            self.context_means[context] = self.context_means[context] + shift
        self.drifted = True


@dataclass
class FleetReport:
    """Aggregate outcome of one fleet lifecycle run."""

    n_users: int
    enrolled_users: int
    trained_versions: int
    legitimate_accept_rate: float
    attack_reject_rate: float
    drifted_users: int
    drifted_accept_rate_before_retrain: float
    drifted_accept_rate_after_retrain: float
    retrained_users: int
    total_windows_scored: int
    scoring_windows_per_second: float
    wall_clock_seconds: float
    telemetry: dict = field(default_factory=dict)

    def to_text(self) -> str:
        """Human-readable summary of the run."""
        lines = [
            f"fleet size                     : {self.n_users}",
            f"users enrolled + trained       : {self.enrolled_users}",
            f"model versions published       : {self.trained_versions}",
            f"legitimate accept rate         : {self.legitimate_accept_rate:6.1%}",
            f"masquerade reject rate         : {self.attack_reject_rate:6.1%}",
            f"drifted users                  : {self.drifted_users}",
            f"  accept rate before retrain   : {self.drifted_accept_rate_before_retrain:6.1%}",
            f"  accept rate after retrain    : {self.drifted_accept_rate_after_retrain:6.1%}",
            f"users retrained                : {self.retrained_users}",
            f"windows scored                 : {self.total_windows_scored}",
            f"scoring throughput             : {self.scoring_windows_per_second:,.0f} windows/s",
            f"wall clock                     : {self.wall_clock_seconds:.2f} s",
        ]
        return "\n".join(lines)


def _expect(response: Response) -> Response:
    """Unwrap a frontend response, surfacing ErrorResponses loudly."""
    if isinstance(response, ErrorResponse):
        raise RuntimeError(
            f"fleet request failed: {response.request_kind} for "
            f"{response.user_id!r} -> {response.error}: {response.message}"
        )
    return response


class FleetSimulator:
    """Runs the full multi-user lifecycle through the service front door.

    Parameters
    ----------
    config:
        Scale and behaviour knobs (a default 500-user config when omitted).
    gateway:
        Optional pre-configured backend gateway; created when omitted.
    frontend:
        Optional pre-configured frontend; must wrap *gateway* when both are
        given.
    channel:
        Optional :class:`RequestChannel` every protocol request is
        submitted through instead of the default — e.g. an HTTP
        :class:`~repro.service.transport.ServiceClient` pointed at a
        :class:`~repro.service.transport.ServiceHTTPServer` wrapping this
        simulator's frontend, which runs the whole lifecycle over real
        sockets (with ``codec="binary"`` every lifecycle phase ships as
        binary columnar frames — the fleet's batches are homogeneous, so
        nothing falls back to JSON).  When omitted, the fleet speaks the **v2 enveloped API**
        in process: a ``fleet-operator`` caller is provisioned in
        :attr:`callers` (its key in :attr:`api_key` — hand it to a
        :class:`~repro.service.transport.ServiceClient` to run the same
        lifecycle over the v2 endpoints) and every request travels through
        an :class:`~repro.service.envelope.EnvelopeChannel`.  Training
        rounds and registry queries still go through the local *gateway*
        (the simulator is the operator, not a device), so the gateway must
        be the same one a remote channel serves.
    tracer:
        Optional :class:`~repro.service.tracing.Tracer` attached to the
        in-process envelope processor, which passes each lifecycle
        request's trace down to the frontend and gateway, so lifecycle
        requests export per-request trace events.
    registry_root:
        Optional directory for the simulator's own
        :class:`~repro.service.registry.ModelRegistry`: every trained
        bundle persists there as it is published, ready to be served by
        separate worker processes (``repro.service.cluster``).  Only valid
        when neither *gateway* nor *frontend* is supplied.

    Raises
    ------
    ValueError
        If *gateway* and *frontend* disagree.
    """

    def __init__(
        self,
        config: FleetConfig | None = None,
        gateway: AuthenticationGateway | None = None,
        frontend: ServiceFrontend | None = None,
        channel: RequestChannel | None = None,
        tracer: Any | None = None,
        registry_root: str | Any | None = None,
    ) -> None:
        self.config = config or FleetConfig()
        if registry_root is not None and (gateway is not None or frontend is not None):
            raise ValueError(
                "registry_root configures the simulator's own gateway; pass "
                "it only when neither gateway nor frontend is supplied"
            )
        if frontend is not None:
            if gateway is not None and gateway is not frontend.gateway:
                raise ValueError(
                    "conflicting gateway and frontend: the supplied frontend "
                    "wraps a different gateway; pass one or the other (or a "
                    "matching pair)"
                )
            gateway = frontend.gateway
        elif gateway is None:
            store = FeatureStore(
                n_shards=self.config.store_shards,
                capacity_per_context=self.config.store_capacity_per_context,
            )
            server = AuthenticationServer(
                store=store,
                seed=derive_rng(self.config.seed, "server"),
                max_other_users_windows=self.config.max_negative_windows,
                # The fleet's contexts differ by a shared mean offset, so a
                # linear detector matches the paper's forest on this data
                # while training in milliseconds even at 500 users (the
                # pure-NumPy forest would dominate the whole lifecycle).
                context_detector_factory=lambda: KernelRidgeClassifier(
                    ridge=1.0, kernel="linear", solver="auto"
                ),
            )
            # A persistence root makes every trained bundle (and detector)
            # land on disk as it is published, so N cluster worker
            # processes can each serve the exact same model snapshot the
            # simulator trained (ModelRegistry(root=...).load()) — the
            # basis of the cluster's bit-for-bit equivalence guarantee.
            gateway = AuthenticationGateway(
                server=server,
                registry=ModelRegistry(root=registry_root),
                min_windows_to_train=2 * self.config.enroll_windows_per_context,
            )
        self.gateway = gateway
        self.frontend = frontend if frontend is not None else ServiceFrontend(gateway)
        # The fleet is a v2 API caller: its requests travel in envelopes
        # under the fleet-operator credential (both scopes: the lifecycle
        # enrolls AND retrains).  The same registry/key serve a
        # ServiceHTTPServer + ServiceClient pair for the socket variant.
        self.callers = CallerRegistry(telemetry=self.frontend.telemetry)
        self.api_key = self.callers.register(
            "fleet-operator", (SCOPE_DATA_WRITE, SCOPE_ADMIN)
        )
        self.processor = EnvelopeProcessor(self.frontend, callers=self.callers)
        # One tracer spans the in-process serving path end to end: the
        # processor starts envelope traces and passes each down to the
        # frontend/gateway stages that span it.
        self.tracer = tracer
        self.processor.tracer = tracer
        self.channel: RequestChannel = (
            channel
            if channel is not None
            else EnvelopeChannel(self.processor, self.api_key)
        )
        self.feature_names = [f"f{i:02d}" for i in range(self.config.n_features)]
        self.users: list[SimulatedUser] = []

    # ------------------------------------------------------------------ #
    # population
    # ------------------------------------------------------------------ #

    def build_users(self) -> list[SimulatedUser]:
        """Synthesise the fleet's per-user feature-space clusters."""
        config = self.config
        rng = derive_rng(config.seed, "fleet-population")
        # The moving context shifts every user by a shared offset, the way
        # real motion features move between stationary and moving usage.
        moving_offset = rng.normal(0.0, 1.0, size=config.n_features)
        users = []
        for index in range(config.n_users):
            base = rng.normal(0.0, config.user_spread, size=config.n_features)
            users.append(
                SimulatedUser(
                    user_id=f"fleet-user-{index:04d}",
                    context_means={
                        CoarseContext.STATIONARY: base,
                        CoarseContext.MOVING: base + moving_offset,
                    },
                )
            )
        self.users = users
        return users

    # ------------------------------------------------------------------ #
    # lifecycle phases
    # ------------------------------------------------------------------ #

    def enroll_fleet(self) -> int:
        """Phase 1: every user uploads enrollment windows, then trains.

        Uploads happen for the whole fleet before any training so that the
        negative pool (all *other* users) is fully populated, mirroring a
        deployed service where enrollment is rolling.  With
        ``server_side_contexts`` enabled the labelled enrollment windows
        also train the user-agnostic context detector, published through
        the model registry.
        """
        config = self.config
        rng = derive_rng(config.seed, "fleet-enroll")
        matrices = [
            user.sample_windows(
                config.enroll_windows_per_context,
                config.window_noise,
                rng,
                self.feature_names,
            )
            for user in self.users
        ]
        for response in self.channel.submit_many(
            [
                EnrollRequest(user_id=user.user_id, matrix=matrix, train=False)
                for user, matrix in zip(self.users, matrices)
            ]
        ):
            _expect(response)
        if config.server_side_contexts:
            self._train_context_detector(matrices)
        trained = 0
        for user in self.users:
            self.gateway.train(user.user_id)
            trained += 1
        return trained

    def _train_context_detector(self, matrices: list[FeatureMatrix]) -> int:
        """Train + publish the context detector from labelled enrollment data."""
        config = self.config
        pool = matrices[0]
        for matrix in matrices[1:]:
            if len(pool) >= config.detector_training_windows:
                break
            pool = pool.concatenate(matrix)
        if len(pool) > config.detector_training_windows:
            keep = config.detector_training_windows
            pool = FeatureMatrix(
                values=pool.values[:keep],
                feature_names=list(pool.feature_names),
                user_ids=list(pool.user_ids[:keep]),
                contexts=list(pool.contexts[:keep]),
            )
        return self.gateway.train_context_detector(pool)

    def _authenticate_requests(
        self, users: list[SimulatedUser], matrices: list[FeatureMatrix]
    ) -> list[AuthenticateRequest]:
        """Authentication requests for *users*, as the configured protocol.

        With server-side contexts the requests omit context labels (the
        service detects them); otherwise they carry the ground truth.
        """
        omit = self.config.server_side_contexts
        return [
            AuthenticateRequest(
                user_id=user.user_id,
                features=matrix.values,
                contexts=(
                    None
                    if omit
                    else tuple(CoarseContext(label) for label in matrix.contexts)
                ),
            )
            for user, matrix in zip(users, matrices)
        ]

    def authenticate_fleet(self, users: list[SimulatedUser] | None = None) -> float:
        """Phase 2: each user authenticates fresh windows of their own.

        The whole fleet's requests are submitted in one batch and coalesce
        into a single vectorized scoring pass.  Returns the fleet-wide
        legitimate accept rate.
        """
        config = self.config
        rng = derive_rng(config.seed, "fleet-auth")
        users = users if users is not None else self.users
        matrices = [
            user.sample_windows(
                max(1, config.auth_windows // 2),
                config.window_noise,
                rng,
                self.feature_names,
            )
            for user in users
        ]
        accepted = total = 0
        for response in self.channel.submit_many(
            self._authenticate_requests(users, matrices)
        ):
            result = _expect(response).result  # type: ignore[union-attr]
            accepted += result.n_accepted
            total += len(result)
        return accepted / total if total else 0.0

    def attack_fleet(self) -> float:
        """Phase 3: each user masquerades as the next one in the roster.

        Returns the fleet-wide attack reject rate (detection rate).
        """
        config = self.config
        rng = derive_rng(config.seed, "fleet-attack")
        victims = list(self.users)
        matrices = [
            self.users[(index + 1) % len(self.users)].sample_windows(
                max(1, config.attack_windows // 2),
                config.window_noise,
                rng,
                self.feature_names,
            )
            for index in range(len(self.users))
        ]
        rejected = total = 0
        for response in self.channel.submit_many(
            self._authenticate_requests(victims, matrices)
        ):
            result = _expect(response).result  # type: ignore[union-attr]
            rejected += len(result) - result.n_accepted
            total += len(result)
        return rejected / total if total else 0.0

    def drift_and_retrain(self) -> tuple[list[SimulatedUser], float, float]:
        """Phase 4: a fraction of users drift, re-auth, report, retrain.

        Returns the drifted users and their accept rates before and after
        retraining.
        """
        config = self.config
        rng = derive_rng(config.seed, "fleet-drift")
        n_drift = int(round(config.drift_fraction * len(self.users)))
        drifted = list(self.users[:n_drift])
        # Snapshot pre-drift means: a drift target must be another user's
        # *original* behaviour even when that user drifts too (e.g. with
        # drift_fraction close to 1).
        originals = [
            user.context_means[CoarseContext.STATIONARY].copy()
            for user in self.users
        ]
        for index, user in enumerate(drifted):
            # Drift moves the user towards the next user's behaviour (a
            # random direction would mostly stay inside the accepted
            # half-space of a linear model and never degrade acceptance).
            # index + 1 is never the user itself (the fleet has >= 2 users).
            direction = originals[(index + 1) % len(self.users)] - originals[index]
            norm = max(float(np.linalg.norm(direction)), 1e-12)
            user.apply_drift(direction * (config.drift_shift / norm))
        before = self.authenticate_fleet(drifted) if drifted else 0.0
        reports = [
            DriftReport(
                user_id=user.user_id,
                matrix=user.sample_windows(
                    config.drift_windows_per_context,
                    config.window_noise,
                    rng,
                    self.feature_names,
                ),
            )
            for user in drifted
        ]
        for response in self.channel.submit_many(reports):
            _expect(response)
        after = self.authenticate_fleet(drifted) if drifted else 0.0
        return drifted, before, after

    # ------------------------------------------------------------------ #

    def run(self) -> FleetReport:
        """Run the full lifecycle and assemble the fleet report."""
        start = perf_counter()
        self.build_users()
        enrolled = self.enroll_fleet()
        legitimate_rate = self.authenticate_fleet()
        attack_reject_rate = self.attack_fleet()
        drifted, before, after = self.drift_and_retrain()
        wall_clock = perf_counter() - start
        telemetry = self.gateway.snapshot()
        windows_scored = telemetry["counters"].get("auth.windows", 0)
        scoring_seconds = telemetry["latencies"].get("authenticate", {}).get(
            "total_s", 0.0
        )
        versions = sum(
            len(self.gateway.registry.versions(user.user_id)) for user in self.users
        )
        return FleetReport(
            n_users=len(self.users),
            enrolled_users=enrolled,
            trained_versions=versions,
            legitimate_accept_rate=legitimate_rate,
            attack_reject_rate=attack_reject_rate,
            drifted_users=len(drifted),
            drifted_accept_rate_before_retrain=before,
            drifted_accept_rate_after_retrain=after,
            retrained_users=len(drifted),
            total_windows_scored=windows_scored,
            scoring_windows_per_second=(
                windows_scored / scoring_seconds if scoring_seconds > 0 else 0.0
            ),
            wall_clock_seconds=wall_clock,
            telemetry=telemetry,
        )
