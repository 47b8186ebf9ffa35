"""Golden wire fixtures: the JSON payloads are pinned byte-for-byte.

Deployed fleets mix client and server builds, so the wire format is a
compatibility contract, not an implementation detail: any change to field
names, tagging, ordering (the codec sorts keys) or float formatting shows
up here as a byte diff against the committed fixture files.  The v1
fixtures pin the legacy surface old device firmware speaks; the envelope
fixtures pin the v2 contract.

Regenerating (only for a *deliberate*, documented wire change)::

    PYTHONPATH=src python tests/unit/test_wire_fixtures.py --regenerate
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.scoring import BatchScoreResult
from repro.features.vector import FeatureMatrix
from repro.sensors.types import CoarseContext
from repro.service.envelope import (
    DeniedResponse,
    Envelope,
    SealedResponse,
    dumps_envelope,
    dumps_sealed,
    loads_envelope,
    loads_sealed,
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
    dumps_request,
    dumps_response,
    loads_request,
    loads_response,
)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "wire"


def _matrix() -> FeatureMatrix:
    return FeatureMatrix(
        values=np.array([[0.5, -1.25], [3.0, 0.0]]),
        feature_names=["f00", "f01"],
        user_ids=["alice", "alice"],
        contexts=["stationary", "moving"],
    )


def _result() -> BatchScoreResult:
    return BatchScoreResult(
        scores=np.array([1.5, -0.25]),
        accepted=np.array([True, False]),
        model_contexts=(CoarseContext.STATIONARY, CoarseContext.MOVING),
        model_version=3,
    )


def v1_request_fixtures() -> dict[str, str]:
    """Canonical v1 request payloads, name → exact wire text."""
    return {
        "request-enroll": dumps_request(
            EnrollRequest(user_id="alice", matrix=_matrix(), train=False)
        ),
        "request-authenticate": dumps_request(
            AuthenticateRequest(
                user_id="alice",
                features=np.array([[0.5, -1.25]]),
                contexts=(CoarseContext.STATIONARY,),
                version=3,
            )
        ),
        "request-authenticate-detected": dumps_request(
            AuthenticateRequest(
                user_id="alice", features=np.array([[0.5, -1.25]])
            )
        ),
        "request-drift-report": dumps_request(
            DriftReport(user_id="alice", matrix=_matrix())
        ),
        "request-rollback": dumps_request(RollbackRequest(user_id="alice")),
        "request-snapshot": dumps_request(SnapshotRequest()),
        "request-evict": dumps_request(
            EvictRequest(policy="lru", max_versions=2, user_id="alice")
        ),
        "request-train-detector": dumps_request(
            DetectorTrainRequest(matrix=_matrix(), exclude_user="mallory")
        ),
        "request-drain-shard": dumps_request(
            DrainShardRequest(shard=1, undrain=False)
        ),
    }


def v1_response_fixtures() -> dict[str, str]:
    """Canonical v1 response payloads, name → exact wire text."""
    return {
        "response-enroll": dumps_response(
            EnrollResponse(
                user_id="alice", status="trained", windows_stored=24, model_version=1
            )
        ),
        "response-authenticate": dumps_response(
            AuthenticationResponse(user_id="alice", result=_result())
        ),
        "response-drift": dumps_response(
            DriftResponse(user_id="alice", previous_version=3, new_version=4)
        ),
        "response-rollback": dumps_response(
            RollbackResponse(user_id="alice", serving_version=2)
        ),
        "response-snapshot": dumps_response(
            SnapshotResponse(snapshot={"counters": {"auth.windows": 8}})
        ),
        "response-evict": dumps_response(
            EvictResponse(policy="lru", evicted={"alice": [1, 2]})
        ),
        "response-train-detector": dumps_response(DetectorTrainResponse(version=2)),
        "response-drain-shard": dumps_response(
            DrainShardResponse(shard=1, draining=True, active_shards=(0, 2, 3))
        ),
        "response-throttled": dumps_response(
            ThrottledResponse(
                request_kind="authenticate",
                reason="queue-full",
                queue_depth=4,
                max_depth=4,
                retry_after_s=0.005,
                user_id="alice",
            )
        ),
        "response-error": dumps_response(
            ErrorResponse(
                request_kind="authenticate",
                error="KeyError",
                message="no active model versions published for 'ghost'",
                user_id="ghost",
            )
        ),
    }


def envelope_fixtures() -> dict[str, str]:
    """Canonical v2 envelope payloads, name → exact wire text."""
    return {
        "envelope-authenticate": dumps_envelope(
            Envelope(
                request=AuthenticateRequest(
                    user_id="alice", features=np.array([[0.5, -1.25]])
                ),
                api_key="fixture-api-key",
                request_id="req-0001",
                idempotency_key="idem-0001",
            )
        ),
        "sealed-authenticate": dumps_sealed(
            SealedResponse(
                response=AuthenticationResponse(user_id="alice", result=_result()),
                request_id="req-0001",
                caller_id="device-gw",
            )
        ),
        "sealed-denied": dumps_sealed(
            SealedResponse(
                response=DeniedResponse(
                    request_kind="rollback",
                    code="insufficient-scope",
                    message="caller 'device-gw' lacks the 'admin' scope "
                    "required by 'rollback'",
                    required_scope="admin",
                ),
                request_id="req-0002",
            )
        ),
    }


def _merged_response() -> bytes:
    """The router's merge of a 4-request frame split over 2 shards.

    Shard 0 carries requests 0 and 3, shard 1 carries 1 and 2; request 2
    failed on its shard and contributes zero rows.  Each shard answer
    crosses the wire as a response frame, exactly as a worker's would.
    """
    from repro.service import wirebin
    from repro.service.cluster import merge_columns
    from repro.service.protocol import ColumnarAuthResult

    names = ("alice", "bob", "carol", "dave")
    frame = wirebin.decode_request_frame(
        wirebin.encode_request_frame(
            [
                AuthenticateRequest(
                    user_id=name,
                    features=np.full((1 + index % 3, 2), float(index)),
                )
                for index, name in enumerate(names)
            ],
            api_key="fixture-api-key",
            frame_id="frame-0003",
        )
    )
    groups = {0: [0, 3], 1: [1, 2]}
    shard_answers = {
        0: ColumnarAuthResult(
            user_ids=("alice", "dave"),
            scores=np.array([1.5, -0.5]),
            accepted=np.array([True, False]),
            model_context_codes=np.array([0, 1], dtype=np.int8),
            lengths=np.array([1, 1]),
            model_versions=np.array([3, 1]),
        ),
        1: ColumnarAuthResult(
            user_ids=("bob", "carol"),
            scores=np.array([-1.25, 2.0]),
            accepted=np.array([False, True]),
            model_context_codes=np.array([1, 0], dtype=np.int8),
            lengths=np.array([2, 0]),
            model_versions=np.array([2, 0]),
            errors={
                1: ErrorResponse(
                    request_kind="authenticate",
                    error="KeyError",
                    message="no active model versions published for 'carol'",
                    user_id="carol",
                )
            },
        ),
    }
    results = {
        shard: wirebin.decode_response_frames(
            wirebin.encode_columnar_response(
                answer, frame_id=f"frame-0003-s{shard}", caller_id="device-gw"
            )
        )[0]
        for shard, answer in shard_answers.items()
    }
    return merge_columns(frame, groups, results, "device-gw")


def binary_fixtures() -> dict[str, bytes]:
    """Canonical binary columnar frames, name → exact frame bytes.

    The binary codec is a wire contract exactly like the JSON one: field
    order in the header, section order and padding in the payload, and the
    little-endian dtypes are all pinned here byte-for-byte.
    """
    from repro.service import wirebin
    from repro.service.protocol import ColumnarAuthResult

    auth_requests = [
        AuthenticateRequest(
            user_id="alice",
            features=np.array([[0.5, -1.25], [3.0, 0.0]]),
            contexts=(CoarseContext.STATIONARY, CoarseContext.MOVING),
            version=3,
        ),
        AuthenticateRequest(
            user_id="bob",
            features=np.array([[1.0, 2.0]]),
            contexts=(CoarseContext.MOVING,),
        ),
    ]
    enroll_requests = [
        EnrollRequest(user_id="alice", matrix=_matrix(), train=False),
    ]
    columnar = ColumnarAuthResult(
        user_ids=("alice", "bob"),
        scores=np.array([1.5, -0.25, 0.75]),
        accepted=np.array([True, False, True]),
        model_context_codes=np.array([0, 1, 1], dtype=np.int8),
        lengths=np.array([2, 1]),
        model_versions=np.array([3, 1]),
    )
    frame_authenticate = wirebin.encode_request_frame(
        auth_requests, api_key="fixture-api-key", frame_id="frame-0001"
    )
    return {
        "frame-authenticate": frame_authenticate,
        # The router's split: the two requests reordered, so the gathered
        # window rows (bob's, then alice's two) run against frame order.
        "frame-slice-authenticate": wirebin.encode_frame_slice(
            wirebin.decode_request_frame(frame_authenticate),
            [1, 0],
            frame_id="frame-0001-s1",
            prepaid=True,
        ),
        "frame-response-merged": _merged_response(),
        "frame-enroll": wirebin.encode_request_frame(
            enroll_requests, api_key="fixture-api-key", frame_id="frame-0002"
        ),
        "frame-response-authenticate": wirebin.encode_columnar_response(
            columnar, frame_id="frame-0001", caller_id="device-gw"
        ),
    }


def all_fixtures() -> dict[str, str]:
    return {**v1_request_fixtures(), **v1_response_fixtures(), **envelope_fixtures()}


@pytest.mark.parametrize("name", sorted(all_fixtures()))
def test_wire_payload_matches_golden_fixture_byte_for_byte(name):
    fixture_path = FIXTURE_DIR / f"{name}.json"
    assert fixture_path.is_file(), (
        f"missing golden fixture {fixture_path}; regenerate deliberately with "
        "PYTHONPATH=src python tests/unit/test_wire_fixtures.py --regenerate"
    )
    assert all_fixtures()[name] == fixture_path.read_text(encoding="utf-8"), (
        f"wire payload {name!r} drifted from its golden fixture — this breaks "
        "deployed clients; if the change is deliberate, regenerate the "
        "fixtures and document the wire change"
    )


@pytest.mark.parametrize("name", sorted(v1_request_fixtures()))
def test_golden_requests_still_parse(name):
    request = loads_request((FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert dumps_request(request) == all_fixtures()[name]


@pytest.mark.parametrize("name", sorted(v1_response_fixtures()))
def test_golden_responses_still_parse(name):
    response = loads_response((FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8"))
    assert dumps_response(response) == all_fixtures()[name]


def test_golden_envelopes_still_parse():
    fixtures = envelope_fixtures()
    envelope = loads_envelope(
        (FIXTURE_DIR / "envelope-authenticate.json").read_text(encoding="utf-8")
    )
    assert dumps_envelope(envelope) == fixtures["envelope-authenticate"]
    for name in ("sealed-authenticate", "sealed-denied"):
        sealed = loads_sealed((FIXTURE_DIR / f"{name}.json").read_text(encoding="utf-8"))
        assert dumps_sealed(sealed) == fixtures[name]


@pytest.mark.parametrize("name", sorted(binary_fixtures()))
def test_binary_frame_matches_golden_fixture_byte_for_byte(name):
    fixture_path = FIXTURE_DIR / f"{name}.bin"
    assert fixture_path.is_file(), (
        f"missing golden fixture {fixture_path}; regenerate deliberately with "
        "PYTHONPATH=src python tests/unit/test_wire_fixtures.py --regenerate"
    )
    assert binary_fixtures()[name] == fixture_path.read_bytes(), (
        f"binary frame {name!r} drifted from its golden fixture — this breaks "
        "deployed binary-codec clients; if the change is deliberate, "
        "regenerate the fixtures and document the wire change"
    )


def test_golden_binary_request_frames_still_parse():
    from repro.service import wirebin

    frame = wirebin.decode_request_frame(
        (FIXTURE_DIR / "frame-authenticate.bin").read_bytes()
    )
    assert frame.op == "authenticate"
    assert frame.user_ids == ("alice", "bob")
    assert frame.n_windows == 3
    # The decoded requests carry the same JSON wire form as hand-built ones.
    expected = [
        AuthenticateRequest(
            user_id="alice",
            features=np.array([[0.5, -1.25], [3.0, 0.0]]),
            contexts=(CoarseContext.STATIONARY, CoarseContext.MOVING),
            version=3,
        ),
        AuthenticateRequest(
            user_id="bob",
            features=np.array([[1.0, 2.0]]),
            contexts=(CoarseContext.MOVING,),
        ),
    ]
    assert [dumps_request(request) for request in frame.to_requests()] == [
        dumps_request(request) for request in expected
    ]
    enroll = wirebin.decode_request_frame(
        (FIXTURE_DIR / "frame-enroll.bin").read_bytes()
    )
    assert dumps_request(enroll.to_requests()[0]) == all_fixtures()["request-enroll"]
    (response,) = wirebin.decode_response_frames(
        (FIXTURE_DIR / "frame-response-authenticate.bin").read_bytes()
    )
    assert response.frame_id == "frame-0001"
    assert len(response.to_responses()) == 2


def test_golden_split_and_merge_frames_decode():
    from repro.service import wirebin

    sliced = wirebin.decode_request_frame(
        (FIXTURE_DIR / "frame-slice-authenticate.bin").read_bytes()
    )
    assert sliced.user_ids == ("bob", "alice")
    assert sliced.prepaid is True
    assert sliced.lengths.tolist() == [1, 2]
    assert sliced.features.tolist() == [[1.0, 2.0], [0.5, -1.25], [3.0, 0.0]]
    assert sliced.versions == (None, 3)
    (merged,) = wirebin.decode_response_frames(
        (FIXTURE_DIR / "frame-response-merged.bin").read_bytes()
    )
    columns = merged.columns
    assert columns.user_ids == ("alice", "bob", "carol", "dave")
    assert columns.lengths.tolist() == [1, 2, 0, 1]
    assert columns.scores.tolist() == [1.5, -1.25, 2.0, -0.5]
    assert columns.model_versions.tolist() == [3, 2, 0, 1]
    assert sorted(columns.errors) == [2]


def _regenerate() -> None:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)
    for name, text in all_fixtures().items():
        (FIXTURE_DIR / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"wrote {FIXTURE_DIR / f'{name}.json'}")
    for name, data in binary_fixtures().items():
        (FIXTURE_DIR / f"{name}.bin").write_bytes(data)
        print(f"wrote {FIXTURE_DIR / f'{name}.bin'}")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
