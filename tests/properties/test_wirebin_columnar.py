"""Property tests of the columnar codec hops (hypothesis).

A routed authenticate frame crosses four codec hops: the client encodes
it, the router splits it per shard, merges the shard answers, and the
client decodes the merged answer into per-request responses.  For random
frames — 1–40 requests of 1–6 windows, with and without contexts and
version pins, random shard groupings and random errored requests — these
properties pin every hop to its per-request meaning:

* split, simulated shard answers and merge give exactly the response
  frame the unsplit frame would have answered, column for column and
  byte for byte;
* :meth:`ColumnarAuthResult.responses` equals a per-request reference
  built from plain slices;
* a header whose text happens to contain the ``__ndarray__`` marker
  still decodes unchanged.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scoring import (
    CONTEXT_BY_CODE,
    decode_contexts,
    offsets_from_lengths,
)
from repro.service import wirebin
from repro.service.cluster import merge_columns
from repro.service.protocol import (
    AuthenticateRequest,
    AuthenticationResponse,
    ColumnarAuthResult,
    ErrorResponse,
    response_to_payload,
)

CALLER = "device-gw"


@st.composite
def routed_frames(draw):
    """A random authenticate batch plus its shard grouping and failures."""
    n_requests = draw(st.integers(1, 40))
    n_features = draw(st.integers(1, 4))
    lengths = draw(
        st.lists(st.integers(1, 6), min_size=n_requests, max_size=n_requests)
    )
    # A small id pool, so a frame may name one user more than once.
    users = draw(
        st.lists(st.integers(0, 30), min_size=n_requests, max_size=n_requests)
    )
    has_contexts = draw(st.booleans())
    pinned = draw(st.booleans())
    versions = draw(
        st.lists(
            st.one_of(st.none(), st.integers(1, 9)) if pinned else st.none(),
            min_size=n_requests,
            max_size=n_requests,
        )
    )
    n_shards = draw(st.integers(1, 3))
    shard_of = draw(
        st.lists(st.integers(0, n_shards - 1), min_size=n_requests, max_size=n_requests)
    )
    errored = frozenset(draw(st.sets(st.sampled_from([f"user-{u}" for u in users]))))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    requests = []
    for index in range(n_requests):
        windows = lengths[index]
        requests.append(
            AuthenticateRequest(
                user_id=f"user-{users[index]}",
                features=rng.normal(size=(windows, n_features)),
                contexts=(
                    tuple(
                        CONTEXT_BY_CODE[code]
                        for code in rng.integers(0, len(CONTEXT_BY_CODE), windows)
                    )
                    if has_contexts
                    else None
                ),
                version=versions[index],
            )
        )
    groups: dict[int, list[int]] = {}
    for index, shard in enumerate(shard_of):
        groups.setdefault(shard, []).append(index)
    # The merge must not depend on positional order within a sub-frame.
    for shard, indices in groups.items():
        groups[shard] = [int(i) for i in rng.permutation(indices)]
    return requests, groups, errored


def _answer(frame: wirebin.RequestFrame, errored: frozenset) -> ColumnarAuthResult:
    """A deterministic stand-in for a worker's scoring pass: every value
    depends only on the request's own rows, so any split answers alike."""
    offsets = offsets_from_lengths(frame.lengths)
    lengths, versions, rows = [], [], []
    errors = {}
    for index, user_id in enumerate(frame.user_ids):
        if user_id in errored:
            errors[index] = ErrorResponse(
                request_kind="authenticate",
                error="KeyError",
                message=f"no active model versions published for {user_id!r}",
                user_id=user_id,
            )
            lengths.append(0)
            versions.append(0)
            continue
        start, stop = int(offsets[index]), int(offsets[index + 1])
        rows.extend(range(start, stop))
        lengths.append(stop - start)
        pin = None if frame.versions is None else frame.versions[index]
        versions.append(pin if pin is not None else len(user_id))
    rows = np.asarray(rows, dtype=np.intp)
    features = frame.features[rows]
    scores = features.sum(axis=1) * 0.5
    codes = (
        frame.context_codes[rows]
        if frame.context_codes is not None
        else (features[:, 0] > 0).astype(np.int8)
    )
    return ColumnarAuthResult(
        user_ids=frame.user_ids,
        scores=scores,
        accepted=scores > 0,
        model_context_codes=codes,
        lengths=np.asarray(lengths),
        model_versions=np.asarray(versions),
        errors=errors,
    )


def _over_wire(result: ColumnarAuthResult, frame_id: str) -> ColumnarAuthResult:
    (frame,) = wirebin.decode_response_frames(
        wirebin.encode_columnar_response(result, frame_id, CALLER)
    )
    return frame.columns


def _reference_responses(result: ColumnarAuthResult) -> list:
    """The per-request meaning of a columnar result, one slice at a time."""
    offsets = offsets_from_lengths(result.lengths)
    expected = []
    for index in range(result.n_requests):
        if index in result.errors:
            expected.append(result.errors[index])
            continue
        start, stop = int(offsets[index]), int(offsets[index + 1])
        expected.append(
            (
                result.user_ids[index],
                result.scores[start:stop].tobytes(),
                result.accepted[start:stop].tolist(),
                decode_contexts(result.model_context_codes[start:stop]),
                int(result.model_versions[index]),
            )
        )
    return expected


def _assert_responses_match_reference(result: ColumnarAuthResult) -> None:
    got = result.responses()
    expected = _reference_responses(result)
    assert len(got) == len(expected)
    for response, reference in zip(got, expected):
        if isinstance(reference, ErrorResponse):
            assert response is reference
            continue
        assert isinstance(response, AuthenticationResponse)
        user_id, scores, accepted, contexts, version = reference
        assert response.user_id == user_id
        assert response.scores.tobytes() == scores
        assert response.accepted.dtype == bool
        assert response.accepted.tolist() == accepted
        assert response.result.model_contexts == contexts
        assert type(response.model_version) is int
        assert response.model_version == version


class TestColumnarHops:
    @settings(max_examples=60, deadline=None)
    @given(case=routed_frames())
    def test_split_then_merge_equals_the_unsplit_answer(self, case):
        requests, groups, errored = case
        frame = wirebin.decode_request_frame(
            wirebin.encode_request_frame(requests, api_key="k", frame_id="f")
        )
        results = {}
        for shard, indices in groups.items():
            sub = wirebin.decode_request_frame(
                wirebin.encode_frame_slice(frame, indices, prepaid=True)
            )
            assert sub.prepaid is True
            assert sub.user_ids == tuple(frame.user_ids[i] for i in indices)
            for rebuilt, index in zip(sub.to_requests(), indices):
                original = requests[index]
                assert rebuilt.features.tobytes() == original.features.tobytes()
                assert rebuilt.contexts == original.contexts
                assert rebuilt.version == original.version
            (results[shard],) = wirebin.decode_response_frames(
                wirebin.encode_columnar_response(
                    _answer(sub, errored), f"f-{shard}", CALLER
                )
            )
        merged_bytes = merge_columns(frame, groups, results, CALLER)
        unsplit_bytes = wirebin.encode_columnar_response(
            _answer(frame, errored), "f", CALLER
        )
        (merged,) = wirebin.decode_response_frames(merged_bytes)
        (unsplit,) = wirebin.decode_response_frames(unsplit_bytes)
        got, want = merged.columns, unsplit.columns
        assert got.user_ids == want.user_ids
        np.testing.assert_array_equal(got.lengths, want.lengths)
        assert got.scores.tobytes() == want.scores.tobytes()
        np.testing.assert_array_equal(got.accepted, want.accepted)
        np.testing.assert_array_equal(got.model_context_codes, want.model_context_codes)
        np.testing.assert_array_equal(got.model_versions, want.model_versions)
        assert {i: response_to_payload(e) for i, e in got.errors.items()} == {
            i: response_to_payload(e) for i, e in want.errors.items()
        }
        assert merged_bytes == unsplit_bytes

    @settings(max_examples=60, deadline=None)
    @given(case=routed_frames())
    def test_responses_equal_the_per_request_reference(self, case):
        requests, _, errored = case
        frame = wirebin.decode_request_frame(
            wirebin.encode_request_frame(requests, api_key="k", frame_id="f")
        )
        answer = _answer(frame, errored)
        _assert_responses_match_reference(answer)
        _assert_responses_match_reference(_over_wire(answer, "f"))

    @settings(max_examples=40, deadline=None)
    @given(
        prefix=st.text(max_size=12),
        suffix=st.text(max_size=12),
        as_key=st.booleans(),
    )
    def test_header_text_naming_the_ndarray_marker_still_decodes(
        self, prefix, suffix, as_key
    ):
        message = f"{prefix}__ndarray__{suffix}"
        if as_key:
            message = f'{{"__ndarray__": {message!r}}}'
        error = ErrorResponse(
            request_kind="authenticate",
            error="KeyError",
            message=message,
            user_id="bob",
        )
        result = ColumnarAuthResult(
            user_ids=("alice", "bob"),
            scores=np.array([0.5]),
            accepted=np.array([True]),
            model_context_codes=np.array([1], dtype=np.int8),
            lengths=np.array([1, 0]),
            model_versions=np.array([2, 0]),
            errors={1: error},
        )
        decoded = _over_wire(result, message)
        assert decoded.errors[1] == error
        assert decoded.user_ids == ("alice", "bob")
        (aborted,) = wirebin.decode_response_frames(wirebin.encode_error_frame(error))
        assert aborted.error == error
