"""Unit tests for the binary columnar wire codec (repro.service.wirebin)."""

import json

import numpy as np
import pytest

from repro.features.vector import FeatureMatrix
from repro.sensors.types import CoarseContext
from repro.service import wirebin
from repro.service.envelope import DeniedResponse
from repro.service.protocol import (
    AuthenticateRequest,
    ColumnarAuthResult,
    DriftReport,
    EnrollRequest,
    EnrollResponse,
    ErrorResponse,
    RollbackRequest,
    SnapshotRequest,
    ThrottledResponse,
    dumps_request,
)
from repro.utils import serialization


def _auth(user="alice", rows=3, width=4, contexts=True, version=None, seed=0):
    rng = np.random.default_rng(seed)
    return AuthenticateRequest(
        user_id=user,
        features=rng.normal(size=(rows, width)),
        contexts=(
            tuple(
                CoarseContext.STATIONARY if i % 2 == 0 else CoarseContext.MOVING
                for i in range(rows)
            )
            if contexts
            else None
        ),
        version=version,
    )


def _matrix(user="alice", rows=4, width=3, seed=1):
    rng = np.random.default_rng(seed)
    return FeatureMatrix(
        values=rng.normal(size=(rows, width)),
        feature_names=[f"f{i:02d}" for i in range(width)],
        user_ids=[user] * rows,
        contexts=["stationary", "moving"] * (rows // 2) + ["stationary"] * (rows % 2),
    )


class TestBatchOp:
    def test_homogeneous_ops_are_encodable(self):
        assert wirebin.batch_op([_auth(), _auth("bob", seed=2)]) == "authenticate"
        assert (
            wirebin.batch_op([EnrollRequest(user_id="a", matrix=_matrix("a"))])
            == "enroll"
        )
        assert (
            wirebin.batch_op([DriftReport(user_id="a", matrix=_matrix("a"))])
            == "drift-report"
        )

    def test_empty_and_control_plane_batches_are_not(self):
        assert wirebin.batch_op([]) is None
        assert wirebin.batch_op([RollbackRequest(user_id="a")]) is None
        assert wirebin.batch_op([SnapshotRequest()]) is None

    def test_mixed_ops_fall_back(self):
        assert (
            wirebin.batch_op([_auth(), EnrollRequest(user_id="a", matrix=_matrix("a"))])
            is None
        )

    def test_mixed_feature_widths_fall_back(self):
        assert wirebin.batch_op([_auth(width=4), _auth(width=5)]) is None

    def test_mixed_context_presence_falls_back(self):
        assert wirebin.batch_op([_auth(contexts=True), _auth(contexts=False)]) is None

    def test_enroll_with_foreign_row_user_ids_falls_back(self):
        matrix = _matrix("bob")
        assert wirebin.batch_op([EnrollRequest(user_id="alice", matrix=matrix)]) is None

    def test_enroll_without_row_contexts_falls_back(self):
        matrix = FeatureMatrix(
            values=np.zeros((2, 2)),
            feature_names=["a", "b"],
            user_ids=["u", "u"],
            contexts=[],
        )
        assert wirebin.batch_op([EnrollRequest(user_id="u", matrix=matrix)]) is None

    def test_request_windows(self):
        assert wirebin.request_windows(_auth(rows=7)) == 7
        assert (
            wirebin.request_windows(EnrollRequest(user_id="a", matrix=_matrix("a")))
            == 4
        )
        assert wirebin.request_windows(RollbackRequest(user_id="a")) == 0


class TestRoundTrip:
    def test_authenticate_round_trip_matches_json_wire_form(self):
        requests = [
            _auth("alice", rows=3, seed=1, version=2),
            _auth("bob", rows=5, seed=2),
            _auth("carol", rows=1, seed=3),
        ]
        frame = wirebin.decode_request_frame(
            wirebin.encode_request_frame(requests, api_key="k", frame_id="f-1")
        )
        assert frame.op == "authenticate"
        assert frame.api_key == "k"
        assert frame.frame_id == "f-1"
        assert frame.n_requests == 3 and frame.n_windows == 9
        # The binary form re-materializes into requests whose JSON wire
        # form is byte-for-byte what the originals would have sent.
        for original, decoded in zip(requests, frame.to_requests()):
            assert dumps_request(decoded) == dumps_request(original)

    def test_server_detected_contexts_round_trip(self):
        requests = [_auth(contexts=False, seed=4), _auth("bob", contexts=False, seed=5)]
        frame = wirebin.decode_request_frame(wirebin.encode_request_frame(requests))
        assert frame.context_codes is None
        columns = frame.to_columns()
        assert columns.context_codes is None
        for original, decoded in zip(requests, frame.to_requests()):
            assert dumps_request(decoded) == dumps_request(original)

    def test_enroll_and_drift_round_trip(self):
        requests = [
            EnrollRequest(user_id="a", matrix=_matrix("a", seed=6), train=True),
            EnrollRequest(user_id="b", matrix=_matrix("b", seed=7), train=None),
            EnrollRequest(user_id="c", matrix=_matrix("c", seed=8), train=False),
        ]
        frame = wirebin.decode_request_frame(wirebin.encode_request_frame(requests))
        assert frame.op == "enroll"
        for original, decoded in zip(requests, frame.to_requests()):
            assert dumps_request(decoded) == dumps_request(original)
        drift = [DriftReport(user_id="a", matrix=_matrix("a", seed=9))]
        frame = wirebin.decode_request_frame(wirebin.encode_request_frame(drift))
        assert frame.op == "drift-report"
        assert dumps_request(frame.to_requests()[0]) == dumps_request(drift[0])

    def test_non_finite_and_negative_zero_floats_survive_bit_for_bit(self):
        values = np.array(
            [[np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.0000000000000002]]
        )
        request = AuthenticateRequest(
            user_id="alice", features=values, contexts=(CoarseContext.STATIONARY,)
        )
        frame = wirebin.decode_request_frame(wirebin.encode_request_frame([request]))
        decoded = frame.features
        # Bit-for-bit: compare the raw IEEE-754 representation, which is
        # stricter than array_equal (sign of zero, NaN payload).
        assert decoded.tobytes() == np.ascontiguousarray(values).tobytes()
        assert np.signbit(decoded[0, 3])
        assert np.isnan(decoded[0, 0])

    def test_decoded_views_are_zero_copy_and_read_only(self):
        data = wirebin.encode_request_frame([_auth(rows=4)])
        frame = wirebin.decode_request_frame(data)
        assert not frame.features.flags.writeable
        assert frame.features.base is not None  # a view, not a copy
        columns = frame.to_columns()
        assert columns.features is frame.features

    def test_streamed_frames_decode_incrementally(self):
        frames_bytes = wirebin.encode_request_frame(
            [_auth()], frame_id="a"
        ) + wirebin.encode_request_frame(
            [EnrollRequest(user_id="u", matrix=_matrix("u"))], frame_id="b"
        )
        ops = [
            frame.op
            for frame in wirebin.iter_request_frames(
                wirebin._buffer_reader(frames_bytes)
            )
        ]
        assert ops == ["authenticate", "enroll"]

    def test_numpy_header_values_convert_under_the_json_wire_rules(self):
        # Plain lists skip the conversion; NumPy values must still come
        # out exactly as serialization.to_jsonable renders them.
        header = {
            "kind": wirebin.RESPONSE_FRAME_KIND,
            "plain": ["a", 1, None, True, 0.5],
            "scalars": [np.int64(3), np.float32(0.25), np.bool_(True)],
            "array": np.arange(3, dtype=np.int16),
            "nested": {"versions": (np.int32(2), None)},
        }
        expected = json.dumps(
            serialization.to_jsonable(header), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        assert wirebin._header_bytes(header) == expected
        data = wirebin._assemble(header, [])
        reader = wirebin.FrameReader(wirebin._buffer_reader(data))
        decoded, payload = reader.next_frame()
        assert decoded["array"].dtype == np.int16
        assert decoded["array"].tolist() == [0, 1, 2]
        assert decoded["plain"] == ["a", 1, None, True, 0.5]
        assert not len(payload)

    def test_unencodable_batch_raises(self):
        with pytest.raises(ValueError, match="not frame-encodable"):
            wirebin.encode_request_frame([SnapshotRequest()])


class TestCorruptFrames:
    def _frame(self):
        return wirebin.encode_request_frame([_auth()], frame_id="f")

    def test_truncation_anywhere_raises_value_error_not_a_crash(self):
        data = self._frame()
        for cut in (2, 10, 20, len(data) // 2, len(data) - 1):
            with pytest.raises(ValueError, match="truncated|short"):
                wirebin.decode_request_frame(data[:cut])

    def test_bad_magic(self):
        data = self._frame()
        with pytest.raises(ValueError, match="bad magic"):
            wirebin.decode_request_frame(b"NOPE" + data[4:])

    def test_malformed_header_json(self):
        data = bytearray(self._frame())
        data[16] = ord("X")  # first header byte: breaks the JSON object
        with pytest.raises(ValueError, match="malformed binary frame header"):
            wirebin.decode_request_frame(bytes(data))

    def test_header_payload_disagreement(self):
        # Tamper n_windows upward: the sections no longer fit the payload.
        original = self._frame()
        tampered = original.replace(b'"n_windows":3', b'"n_windows":9')
        with pytest.raises(ValueError, match="corrupt|truncated|short"):
            wirebin.decode_request_frame(tampered)

    def test_lengths_sum_mismatch(self):
        original = self._frame()
        # Flip the single length entry (int32 LE at the payload start).
        data = bytearray(original)
        payload_start = len(data) - (8 + 3 * 4 * 8 + 8)
        data[payload_start : payload_start + 4] = (99).to_bytes(4, "little")
        with pytest.raises(ValueError, match="lengths sum|corrupt"):
            wirebin.decode_request_frame(bytes(data))

    def test_out_of_range_context_code_rejected(self):
        original = wirebin.encode_request_frame(
            [EnrollRequest(user_id="u", matrix=_matrix("u"))]
        )
        data = bytearray(original)
        data[-8] = 201  # the codes section is the last one; 201 is no code
        with pytest.raises(ValueError, match="context code out of range"):
            wirebin.decode_request_frame(bytes(data))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValueError, match="bad magic|truncated|short"):
            wirebin.decode_request_frame(self._frame() + b"garbage!")


class TestResponseFrames:
    def _columns_result(self):
        return ColumnarAuthResult(
            user_ids=("alice", "ghost", "bob"),
            scores=np.array([1.5, -0.25, 0.75]),
            accepted=np.array([True, False, True]),
            model_context_codes=np.array([0, 1, 0], dtype=np.int8),
            lengths=np.array([2, 0, 1]),
            model_versions=np.array([3, 0, 1]),
            errors={
                1: ErrorResponse(
                    request_kind="authenticate",
                    error="KeyError",
                    message="no model",
                    user_id="ghost",
                )
            },
        )

    def test_columnar_response_round_trip(self):
        data = wirebin.encode_columnar_response(
            self._columns_result(), frame_id="f-9", caller_id="op"
        )
        (frame,) = wirebin.decode_response_frames(data)
        assert frame.frame_id == "f-9" and frame.caller_id == "op"
        responses = frame.to_responses()
        assert responses[0].user_id == "alice"
        np.testing.assert_array_equal(responses[0].scores, [1.5, -0.25])
        assert isinstance(responses[1], ErrorResponse)
        assert responses[1].user_id == "ghost"
        np.testing.assert_array_equal(responses[2].scores, [0.75])
        assert responses[2].model_version == 1

    def test_payload_response_round_trip(self):
        responses = [
            EnrollResponse(user_id="a", status="trained", windows_stored=24,
                           model_version=1),
            ErrorResponse(request_kind="enroll", error="ValueError", message="bad"),
        ]
        data = wirebin.encode_response_frame(
            "enroll", responses, frame_id="f-1", caller_id="op"
        )
        (frame,) = wirebin.decode_response_frames(data)
        decoded = frame.to_responses()
        assert decoded[0] == responses[0]
        assert decoded[1] == responses[1]

    def test_denied_frame_raises_permission_error(self):
        data = wirebin.encode_rejection_frame(
            "authenticate",
            DeniedResponse(
                request_kind="authenticate",
                code="unknown-api-key",
                message="no such caller",
            ),
            frame_id="f-2",
            n_requests=4,
        )
        (frame,) = wirebin.decode_response_frames(data)
        assert frame.denied is not None
        with pytest.raises(PermissionError, match="unknown-api-key"):
            frame.to_responses()

    def test_throttled_frame_fans_out_per_request(self):
        throttled = ThrottledResponse(
            request_kind="authenticate",
            reason="rate-limited",
            queue_depth=0,
            max_depth=100,
            retry_after_s=1.5,
        )
        data = wirebin.encode_rejection_frame(
            "authenticate", throttled, frame_id="f-3", n_requests=3
        )
        (frame,) = wirebin.decode_response_frames(data)
        responses = frame.to_responses()
        assert len(responses) == 3
        assert all(response == throttled for response in responses)
