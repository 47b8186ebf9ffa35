"""Workload inputs, their in-process reference answers, and answer checks.

Every input is drawn from the workload seed.  The seed also names the
demo fleet the server trains (``--demo-fleet 500 --seed N``), so the load
generator rebuilds the same fleet in process, computes the reference
decision for every distinct request *before timing*, and then checks each
served answer against it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sensors.types import CoarseContext
from repro.service.protocol import (
    AuthenticateRequest,
    AuthenticationResponse,
    DriftReport,
    DriftResponse,
    EnrollRequest,
    EnrollResponse,
)

#: Open-loop offered rates (per second), fixed here and listed in README.md.
#: On a 2-core host, batch frames at 10/s are about half of the router's
#: closed-loop capacity, and phone uploads at 15/s about 40% of their own.
RATES = {
    "fleet-batch": {"read": 10.0},
    "phone-stream": {"read": 15.0},
    "enroll-churn": {"read": 10.0, "write": 5.0},
    "routed-batch": {"read": 10.0},
}
#: Rate (periodic, per second) of the write probe run after the read phases
#: of the workloads that have no writes of their own.  The probe sends the
#: same retraining writes as ``enroll-churn``, with no reads beside them.
PROBE_RATE = 10.0
#: Seed of the Poisson arrival times, fixed for every workload seed.
ARRIVALS_SEED = 0

BATCH_WINDOWS_PER_CONTEXT = 4  # 500 users x 8 windows per frame
BATCH_FRAMES = 8  # distinct frames, cycled
PHONE_REQUESTS = 600  # distinct single-user uploads, cycled
WRITE_USERS = 24  # the seeded subset enroll-churn writes to
WRITE_WINDOWS_PER_CONTEXT = 8
WRITE_REQUESTS = 64


def rng_for(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


@dataclass
class Reference:
    """The expected answer to one authenticate request, as raw bytes."""

    scores: bytes
    accepted: bytes
    contexts: tuple
    version: int


@dataclass
class Inputs:
    """Everything one workload sends, plus the answers it expects."""

    frames: list[list[AuthenticateRequest]] = field(default_factory=list)
    frame_refs: list[list[Reference]] = field(default_factory=list)
    phones: list[AuthenticateRequest] = field(default_factory=list)
    phone_refs: list[Reference] = field(default_factory=list)
    writes: list = field(default_factory=list)
    primers: list = field(default_factory=list)
    written: frozenset = frozenset()

    @property
    def batch(self) -> bool:
        return bool(self.frames)


def reference_of(response) -> Reference:
    result = response.result
    return Reference(
        scores=np.ascontiguousarray(result.scores, dtype=np.float64).tobytes(),
        accepted=np.asarray(result.accepted, dtype=bool).tobytes(),
        contexts=tuple(result.model_contexts),
        version=int(result.model_version),
    )


def make_inputs(workload: str, seed: int, simulator) -> Inputs:
    """Draw *workload*'s inputs from *seed*; reference them in process."""
    users = simulator.users
    names = simulator.feature_names
    noise = simulator.config.window_noise
    frontend = simulator.frontend
    inputs = Inputs()
    if workload == "phone-stream":
        rng = rng_for(seed, 1)
        for _ in range(PHONE_REQUESTS):
            user = users[int(rng.integers(len(users)))]
            matrix = user.sample_windows(1, noise, rng, names)
            inputs.phones.append(
                AuthenticateRequest(user_id=user.user_id, features=matrix.values)
            )
        inputs.phone_refs = [
            reference_of(r) for r in _expect_auth(frontend.submit_many(inputs.phones))
        ]
    else:
        rng = rng_for(seed, 2)
        for _ in range(BATCH_FRAMES):
            frame = []
            for index in rng.permutation(len(users)):
                user = users[int(index)]
                matrix = user.sample_windows(
                    BATCH_WINDOWS_PER_CONTEXT, noise, rng, names
                )
                frame.append(
                    AuthenticateRequest(
                        user_id=user.user_id,
                        features=matrix.values,
                        contexts=tuple(CoarseContext(c) for c in matrix.contexts),
                    )
                )
            inputs.frames.append(frame)
            inputs.frame_refs.append(
                [reference_of(r) for r in _expect_auth(frontend.submit_many(frame))]
            )
    rng = rng_for(seed, 3)
    chosen = rng.choice(len(users), size=WRITE_USERS, replace=False)
    writers = [users[int(index)] for index in chosen]
    for index in range(WRITE_REQUESTS):
        user = writers[int(rng.integers(len(writers)))]
        matrix = user.sample_windows(WRITE_WINDOWS_PER_CONTEXT, noise, rng, names)
        if index % 2:
            inputs.writes.append(DriftReport(user_id=user.user_id, matrix=matrix))
        else:
            inputs.writes.append(
                EnrollRequest(user_id=user.user_id, matrix=matrix, train=True)
            )
    # One buffered upload per written user, sent before the write probe: a
    # shard worker keeps no training windows of its own, so without them
    # it cannot retrain.
    for user in writers:
        matrix = user.sample_windows(WRITE_WINDOWS_PER_CONTEXT, noise, rng, names)
        inputs.primers.append(
            EnrollRequest(user_id=user.user_id, matrix=matrix, train=False)
        )
    if workload == "enroll-churn":
        inputs.written = frozenset(user.user_id for user in writers)
    return inputs


def _expect_auth(responses: list) -> list:
    for response in responses:
        if not isinstance(response, AuthenticationResponse):
            raise RuntimeError(f"reference request failed: {response!r}")
    return responses


class Checker:
    """Compares served answers against the reference; tallies outcomes.

    A wrong answer is a *mismatch* and fails the run.  A typed rejection
    or a connection error is a *failure* and counts in the error rate.
    Users that ``enroll-churn`` writes to are retrained while the run
    reads them, so their reads must be typed successes whose model version
    never drops below one already observed before the read was sent.  On
    the other workloads a user joins *written* when the write probe first
    sends to it, after every read of the phase has been answered.
    """

    def __init__(self, written: frozenset = frozenset()) -> None:
        self.written = set(written)
        self.floor: dict[str, int] = {}
        self.mismatches: list[str] = []

    def version_floor(self) -> dict[str, int]:
        return dict(self.floor)

    def _raise_floor(self, user_id: str, version) -> None:
        if version is not None and version > self.floor.get(user_id, -1):
            self.floor[user_id] = int(version)

    def authenticate(self, request, response, reference: Reference, floor: dict) -> bool:
        """True when served; records a mismatch when served wrongly."""
        if not isinstance(response, AuthenticationResponse):
            return False
        user_id = request.user_id
        if user_id in self.written:
            version = int(response.result.model_version)
            if version < floor.get(user_id, -1):
                self.mismatches.append(
                    f"{user_id}: model version went down to {version} "
                    f"(already saw {floor[user_id]})"
                )
            self._raise_floor(user_id, version)
            return True
        served = reference_of(response)
        if served != reference:
            self.mismatches.append(
                f"{user_id}: served {served.version}/{served.contexts} differs "
                f"from the in-process reference"
            )
        return True

    def write(self, request, response) -> bool:
        if isinstance(response, EnrollResponse):
            expected = "trained" if request.train else "buffered"
            if response.status != expected:
                self.mismatches.append(
                    f"{request.user_id}: enroll answered {response.status!r}, "
                    f"expected {expected!r}"
                )
            self._raise_floor(request.user_id, response.model_version)
            return True
        if isinstance(response, DriftResponse):
            if response.new_version <= response.previous_version:
                self.mismatches.append(
                    f"{request.user_id}: drift retrain did not move the version"
                )
            self._raise_floor(request.user_id, response.new_version)
            return True
        return False
