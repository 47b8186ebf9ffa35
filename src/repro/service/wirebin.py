"""Binary columnar wire codec for batched service requests (stdlib + NumPy).

The JSON wire codec is lossless and human-readable, but at fleet scale it
is the transport bottleneck: every float64 becomes decimal text, every
window becomes a nested list, and every request becomes a dict the server
must walk back into arrays.  This module frames a whole batch of
data-plane requests as **one binary frame** in struct-of-arrays form:

* a 16-byte prelude — magic ``RBC1``, header length, payload length;
* a small JSON header carrying the per-batch metadata (op, caller
  credential, user ids, versions…) under exactly the JSON wire codec's
  conversion rules;
* a binary payload of contiguous little-endian columns — all window
  feature vectors travel as a single ``float64`` block, contexts as the
  already-int-encoded ``int8`` code array.

The server decodes a 500-user batch with a handful of
:func:`np.frombuffer` views (zero copies — the arrays alias the received
bytes, which also makes them naturally read-only) and hands the columns
straight to the fused scoring pass via
:meth:`~repro.service.frontend.ServiceFrontend.submit_columns`; per-request
Python objects never exist on the hot path.  Because floats travel as raw
IEEE-754 bytes, every value — ``NaN`` payloads, ``±Infinity``, ``-0.0``,
subnormals — round-trips bit-for-bit by construction.

**Frame layout** (all integers little-endian; every section zero-padded to
a multiple of 8 bytes, so frames concatenate 8-aligned in a stream)::

    offset  size          field
    0       4             magic  b"RBC1"
    4       4             u32 header length H (bytes of UTF-8 JSON)
    8       8             u64 payload length P
    16      H             header JSON (sorted keys, compact separators)
    16+H    pad to 8      zero padding
    ...     P             payload: the op's sections, in fixed order

Request payload sections by ``op``:

* ``authenticate`` — ``lengths`` ``int32[n_requests]``, ``features``
  ``float64[n_windows × n_features]`` (row-major), and — iff the header's
  ``has_contexts`` — ``context_codes`` ``int8[n_windows]``;
* ``enroll`` / ``drift-report`` — ``lengths``, ``values`` (as above) and
  ``context_codes`` (always present: feature matrices carry labels).

Response payload sections (``op == "authenticate"``): ``lengths``
``int32[n_requests]`` (scored windows per request; 0 for errored ones),
``scores`` ``float64``, ``accepted`` ``uint8`` and ``model_context_codes``
``int8`` — one entry per scored window.  Other ops answer with their
responses in the header (they are small plain structures).  A frame-level
rejection (denied caller, rate limit, oversized batch) travels as a
sectionless frame whose header carries the typed payload.

A batch is *frame-encodable* when it is a homogeneous run of one
data-plane op with a uniform feature schema (see :func:`batch_op`);
anything else falls back to the JSON codec, which remains bit-for-bit
untouched.  Streams are just concatenated frames: the encoder emits one
frame per chunk and the reader yields frames as their bytes arrive, so a
100k-window upload never holds the whole body in memory on either side.
"""

from __future__ import annotations

import io
import json
import struct
import uuid
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.core.scoring import (
    CONTEXT_BY_CODE,
    decode_contexts,
    encode_contexts,
    gather_rows,
    offsets_from_lengths,
)
from repro.features.vector import FeatureMatrix
from repro.service.envelope import API_VERSION, DENIED_KIND, DeniedResponse
from repro.service.protocol import (
    AuthenticateColumns,
    AuthenticateRequest,
    ColumnarAuthResult,
    DriftReport,
    EnrollRequest,
    ErrorResponse,
    Request,
    Response,
    ThrottledResponse,
    response_from_payload,
    response_to_payload,
)
from repro.utils import serialization

#: Content type negotiating the binary codec on ``POST /v2/requests``.
CONTENT_TYPE = "application/x-repro-batch"

#: Frame magic (``Repro Binary Columnar``, layout revision 1).
MAGIC = b"RBC1"

#: Header tags of the two frame directions.
REQUEST_FRAME_KIND = "repro-batch"
RESPONSE_FRAME_KIND = "repro-batch-response"

#: The ops a request frame can carry (the data plane's batchable set).
FRAME_OPS = ("authenticate", "enroll", "drift-report")

#: Upper bound on a frame's header, a plain-metadata section (64 MiB).
MAX_HEADER_BYTES = 64 * 1024 * 1024

#: Upper bound on one frame's binary payload (1 GiB); streams chunk far
#: below this, so anything larger is a corrupt or hostile length field.
MAX_PAYLOAD_BYTES = 1 << 30

_PRELUDE = struct.Struct("<4sIQ")

#: Section padding source (every pad is shorter than 8 bytes).
_ZEROS = bytes(8)

#: Context label per code, for rebuilding FeatureMatrix context lists.
_CONTEXT_LABELS = tuple(context.value for context in CONTEXT_BY_CODE)

_DTYPE_LENGTHS = np.dtype("<i4")
_DTYPE_FEATURES = np.dtype("<f8")
_DTYPE_CODES = np.dtype("int8")
_DTYPE_ACCEPTED = np.dtype("uint8")


def _pad8(n: int) -> int:
    return (-n) % 8


def new_frame_id() -> str:
    """A fresh frame correlation id (32 hex chars)."""
    return uuid.uuid4().hex


# --------------------------------------------------------------------- #
# encodability
# --------------------------------------------------------------------- #


def request_windows(request: Request) -> int:
    """How many feature windows *request* carries (stream chunking unit)."""
    if isinstance(request, AuthenticateRequest):
        return len(request.features)
    if isinstance(request, (EnrollRequest, DriftReport)):
        return len(request.matrix)
    return 0


def batch_op(requests: Sequence[Request]) -> str | None:
    """The homogeneous frame op of *requests* — or ``None`` when the batch
    is not frame-encodable and must ride the JSON codec instead.

    A batch is frame-encodable when every request is the same data-plane
    operation, every feature block is non-empty with one shared width, and
    (authenticate) contexts are uniformly device-reported or uniformly
    server-detected, or (enroll / drift) every matrix shares one
    feature-name schema, labels every row with a coarse context, and its
    per-row user ids all match the request's user.
    """
    if not requests:
        return None
    first = type(requests[0])
    op = {
        AuthenticateRequest: "authenticate",
        EnrollRequest: "enroll",
        DriftReport: "drift-report",
    }.get(first)
    if op is None:
        return None
    widths: set[int] = set()
    if op == "authenticate":
        detect_flags: set[bool] = set()
        for request in requests:
            if type(request) is not first:
                return None
            if not len(request.features):
                return None
            widths.add(request.features.shape[1])
            detect_flags.add(request.contexts is None)
        if len(widths) != 1 or len(detect_flags) != 1:
            return None
        return op
    schemas: set[tuple[str, ...]] = set()
    for request in requests:
        if type(request) is not first:
            return None
        matrix = request.matrix
        if not len(matrix):
            return None
        widths.add(matrix.n_features)
        schemas.add(tuple(matrix.feature_names))
        if list(matrix.user_ids) != [request.user_id] * len(matrix):
            return None
        if len(matrix.contexts) != len(matrix):
            return None
        if any(label not in _CONTEXT_LABELS for label in matrix.contexts):
            return None
    if len(widths) != 1 or len(schemas) != 1:
        return None
    return op


# --------------------------------------------------------------------- #
# frame assembly
# --------------------------------------------------------------------- #


def _numpy_jsonable(value: Any) -> Any:
    """``json.dumps`` fallback: convert the NumPy values the C encoder
    cannot serialise, under :func:`serialization.to_jsonable`'s rules."""
    if isinstance(value, (np.ndarray, np.generic)):
        return serialization.to_jsonable(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _header_bytes(header: dict[str, Any]) -> bytes:
    """The header's JSON text under the JSON wire codec's rules.

    Plain ``str``/``int``/``None`` values — the 500-entry user-id and
    version lists — go straight to the C encoder unconverted; only NumPy
    values reach the conversion hook.
    """
    return json.dumps(
        header, sort_keys=True, separators=(",", ":"), default=_numpy_jsonable
    ).encode("utf-8")


def _assemble(header: dict[str, Any], sections: Sequence[np.ndarray]) -> bytes:
    """One frame: prelude, header, then the C-contiguous *sections* in
    their wire dtypes — the payload is copied once, into the result."""
    header_bytes = _header_bytes(header)
    sizes = [section.nbytes for section in sections]
    parts: list[Any] = [
        _PRELUDE.pack(
            MAGIC, len(header_bytes), sum(size + _pad8(size) for size in sizes)
        ),
        header_bytes,
        _ZEROS[: _pad8(_PRELUDE.size + len(header_bytes))],
    ]
    for section, size in zip(sections, sizes):
        parts += (section, _ZEROS[: _pad8(size)])
    return b"".join(parts)


def encode_request_frame(
    requests: Sequence[Request],
    api_key: str | None = None,
    frame_id: str | None = None,
    op: str | None = None,
) -> bytes:
    """Encode a frame-encodable batch as one binary columnar frame.

    Parameters
    ----------
    requests:
        A homogeneous data-plane batch (see :func:`batch_op`).
    api_key:
        The caller credential authorizing the whole frame (one
        authorization covers every request in it).
    frame_id:
        Correlation id echoed by the response frame (generated if omitted).
    op:
        The batch's already-computed :func:`batch_op` outcome; callers that
        just ran the gate pass it in so the O(windows) encodability scan is
        not repeated here.

    Raises
    ------
    ValueError
        If *requests* is not frame-encodable.
    """
    if op is None:
        op = batch_op(requests)
    if op is None:
        raise ValueError(
            "requests are not frame-encodable (mixed or empty operations, "
            "non-uniform schema, or non-coarse context labels); submit them "
            "through the JSON codec instead"
        )
    header: dict[str, Any] = {
        "kind": REQUEST_FRAME_KIND,
        "op": op,
        "api_version": API_VERSION,
        "api_key": api_key,
        "frame_id": frame_id if frame_id is not None else new_frame_id(),
        "n_requests": len(requests),
        "user_ids": [request.user_id for request in requests],
    }
    if op == "authenticate":
        has_contexts = requests[0].contexts is not None
        header["has_contexts"] = has_contexts
        versions = [request.version for request in requests]
        header["versions"] = (
            versions if any(version is not None for version in versions) else None
        )
        header["n_features"] = int(requests[0].features.shape[1])
        blocks = [request.features for request in requests]
        codes = (
            np.concatenate([request.context_codes for request in requests])
            if has_contexts
            else None
        )
    else:
        header["has_contexts"] = has_contexts = True
        header["feature_names"] = list(requests[0].matrix.feature_names)
        header["n_features"] = int(requests[0].matrix.n_features)
        if op == "enroll":
            header["train"] = [request.train for request in requests]
        blocks = [request.matrix.values for request in requests]
        codes = np.concatenate(
            [
                encode_contexts(np.asarray(request.matrix.contexts))
                for request in requests
            ]
        )
    lengths = np.fromiter(
        (len(block) for block in blocks), dtype=_DTYPE_LENGTHS, count=len(blocks)
    )
    header["n_windows"] = int(lengths.sum())
    sections = [
        lengths,
        np.ascontiguousarray(np.concatenate(blocks), dtype=_DTYPE_FEATURES),
    ]
    if has_contexts:
        sections.append(np.ascontiguousarray(codes, dtype=_DTYPE_CODES))
    return _assemble(header, sections)


# --------------------------------------------------------------------- #
# decoded request frames
# --------------------------------------------------------------------- #


@dataclass(frozen=True, eq=False)
class RequestFrame:
    """One decoded binary request frame, still in columnar form.

    The feature block and context codes are zero-copy
    :func:`np.frombuffer` views into the received bytes (read-only).
    ``eq=False`` for the usual array-field reason.
    """

    op: str
    api_version: int
    api_key: str | None
    frame_id: str
    user_ids: tuple[str, ...]
    lengths: np.ndarray
    features: np.ndarray
    context_codes: np.ndarray | None
    versions: tuple[int | None, ...] | None = None
    train: tuple[bool | None, ...] | None = None
    feature_names: tuple[str, ...] | None = None
    #: Replay-safety marker: the shard router stamps ``prepaid`` on the
    #: sub-frames it carves so a worker spawned with ``--trust-prepaid``
    #: skips its own quota charge — the router already charged the shared
    #: bucket once for the whole frame, so a retried sub-frame can never
    #: charge twice.  Untrusted servers ignore the flag.
    prepaid: bool = False

    @property
    def n_requests(self) -> int:
        return len(self.user_ids)

    @property
    def n_windows(self) -> int:
        return len(self.features)

    def to_columns(self) -> AuthenticateColumns:
        """The columnar batch of an ``authenticate`` frame (zero-copy).

        Raises
        ------
        ValueError
            If this frame carries a different op.
        """
        if self.op != "authenticate":
            raise ValueError(
                f"frame op {self.op!r} has no columnar authenticate form"
            )
        return AuthenticateColumns(
            user_ids=self.user_ids,
            features=self.features,
            lengths=self.lengths,
            context_codes=self.context_codes,
            versions=self.versions,
        )

    def to_requests(self) -> list[Request]:
        """Materialize per-request protocol objects (enroll / drift path).

        Enrollment and drift must build one
        :class:`~repro.features.vector.FeatureMatrix` per request anyway
        (storage appends per user), so this is the natural server-side form
        for those ops; the authenticate hot path uses :meth:`to_columns`
        instead and never comes through here.
        """
        offsets = offsets_from_lengths(self.lengths)
        requests: list[Request] = []
        for index, user_id in enumerate(self.user_ids):
            start, stop = int(offsets[index]), int(offsets[index + 1])
            rows = self.features[start:stop]
            if self.op == "authenticate":
                requests.append(
                    AuthenticateRequest(
                        user_id=user_id,
                        features=rows,
                        contexts=(
                            None
                            if self.context_codes is None
                            else decode_contexts(self.context_codes[start:stop])
                        ),
                        version=(
                            None if self.versions is None else self.versions[index]
                        ),
                    )
                )
                continue
            matrix = FeatureMatrix(
                values=rows,
                feature_names=list(self.feature_names or ()),
                user_ids=[user_id] * len(rows),
                contexts=[
                    _CONTEXT_LABELS[code]
                    for code in self.context_codes[start:stop]
                ],
            )
            if self.op == "enroll":
                train = None if self.train is None else self.train[index]
                requests.append(
                    EnrollRequest(user_id=user_id, matrix=matrix, train=train)
                )
            else:
                requests.append(DriftReport(user_id=user_id, matrix=matrix))
        return requests


def encode_frame_slice(
    frame: RequestFrame,
    indices: Sequence[int],
    frame_id: str | None = None,
    prepaid: bool | None = None,
) -> bytes:
    """Re-encode a parsed request frame restricted to *indices*.

    The shard router's split primitive: a decoded frame is carved into one
    sub-frame per shard, each a fully valid request frame carrying the same
    op, credential and (by default) a fresh ``frame_id``.  Request order
    within *indices* is preserved, so the router can merge shard responses
    back positionally.

    Raises
    ------
    ValueError
        If *indices* is empty or holds an out-of-range request index.

    *prepaid* stamps (or clears) the sub-frame's replay-safety marker;
    ``None`` inherits the parent frame's flag.
    """
    order = np.asarray(indices, dtype=np.intp)
    if not len(order):
        raise ValueError("cannot slice a frame to zero requests")
    outside = (order < 0) | (order >= frame.n_requests)
    if outside.any():
        raise ValueError(
            f"request index {int(order[outside.argmax()])} out of range for a "
            f"frame of {frame.n_requests} request(s)"
        )
    lengths = np.asarray(frame.lengths)[order]
    rows = gather_rows(offsets_from_lengths(frame.lengths)[order], lengths)
    n_features = int(frame.features.shape[1]) if frame.features.ndim == 2 else 0
    positions = order.tolist()
    header: dict[str, Any] = {
        "kind": REQUEST_FRAME_KIND,
        "op": frame.op,
        "api_version": frame.api_version,
        "api_key": frame.api_key,
        "frame_id": frame_id if frame_id is not None else new_frame_id(),
        "n_requests": len(positions),
        "user_ids": [frame.user_ids[index] for index in positions],
        "n_windows": len(rows),
        "n_features": n_features,
    }
    if frame.prepaid if prepaid is None else prepaid:
        header["prepaid"] = True
    if frame.op == "authenticate":
        header["has_contexts"] = frame.context_codes is not None
        versions = (
            None
            if frame.versions is None
            else [frame.versions[index] for index in positions]
        )
        header["versions"] = (
            versions
            if versions is not None and any(v is not None for v in versions)
            else None
        )
    else:
        header["has_contexts"] = True
        header["feature_names"] = list(frame.feature_names or ())
        if frame.op == "enroll":
            train = None if frame.train is None else frame.train
            header["train"] = [
                None if train is None else train[index] for index in positions
            ]
    sections = [
        np.ascontiguousarray(lengths, dtype=_DTYPE_LENGTHS),
        np.ascontiguousarray(frame.features[rows], dtype=_DTYPE_FEATURES),
    ]
    if frame.context_codes is not None:
        sections.append(
            np.ascontiguousarray(frame.context_codes[rows], dtype=_DTYPE_CODES)
        )
    return _assemble(header, sections)


# --------------------------------------------------------------------- #
# frame parsing (shared by request and response directions)
# --------------------------------------------------------------------- #


class FrameReader:
    """Incremental frame reader over any ``read(n) -> bytes`` callable.

    Reads exactly one frame's bytes at a time, so a streamed upload is
    decoded frame by frame with memory bounded by the largest single chunk
    — never the whole body.  A clean end-of-stream between frames yields
    ``None``; anything torn mid-frame raises ``ValueError``.
    """

    def __init__(self, read: Callable[[int], bytes]) -> None:
        self._read = read

    def _read_exact(self, n: int, what: str) -> bytes:
        parts: list[bytes] = []
        remaining = n
        while remaining > 0:
            chunk = self._read(remaining)
            if not chunk:
                raise ValueError(
                    f"truncated binary frame: stream ended {remaining} bytes "
                    f"short of its {what}"
                )
            parts.append(chunk)
            remaining -= len(chunk)
        return parts[0] if len(parts) == 1 else b"".join(parts)

    def next_frame(self) -> tuple[dict[str, Any], memoryview] | None:
        """The next ``(header, payload)`` pair, or ``None`` at clean EOF.

        Raises
        ------
        ValueError
            On a bad magic, oversized or inconsistent length fields,
            malformed header JSON, or a stream torn mid-frame.
        """
        first = self._read(_PRELUDE.size)
        if not first:
            return None
        if len(first) < _PRELUDE.size:
            first += self._read_exact(_PRELUDE.size - len(first), "prelude")
        magic, header_length, payload_length = _PRELUDE.unpack(first)
        if magic != MAGIC:
            raise ValueError(
                f"not a binary batch frame: bad magic {magic!r} "
                f"(expected {MAGIC!r})"
            )
        if header_length > MAX_HEADER_BYTES:
            raise ValueError(
                f"binary frame header of {header_length} bytes exceeds the "
                f"{MAX_HEADER_BYTES}-byte bound"
            )
        if payload_length > MAX_PAYLOAD_BYTES:
            raise ValueError(
                f"binary frame payload of {payload_length} bytes exceeds the "
                f"{MAX_PAYLOAD_BYTES}-byte bound"
            )
        header_bytes = self._read_exact(header_length, "header")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"malformed binary frame header: {error}") from None
        if not isinstance(header, dict):
            raise ValueError(
                f"binary frame header must be a JSON object, got "
                f"{type(header).__name__}"
            )
        if b"__ndarray__" in header_bytes:
            # Only a header carrying an encoded array needs the (recursive)
            # conversion; the usual one is plain JSON already.
            header = serialization.from_jsonable(header)
        pad = _pad8(_PRELUDE.size + header_length)
        if pad:
            self._read_exact(pad, "header padding")
        payload = self._read_exact(payload_length, "payload") if payload_length else b""
        return header, memoryview(payload)


def _int_field(header: Mapping[str, Any], name: str, minimum: int = 0) -> int:
    value = header.get(name)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(
            f"binary frame header field {name!r} must be an int >= "
            f"{minimum}, got {value!r}"
        )
    return value


def _str_list_field(header: Mapping[str, Any], name: str, count: int) -> list:
    value = header.get(name)
    if not isinstance(value, list) or len(value) != count:
        raise ValueError(
            f"binary frame header field {name!r} must be a list of length "
            f"{count}"
        )
    return value


def _sections(
    payload: memoryview, specs: Sequence[tuple[str, np.dtype, int]]
) -> dict[str, np.ndarray]:
    """Slice *payload* into its fixed-order sections as zero-copy views."""
    cursor = 0
    views: dict[str, np.ndarray] = {}
    for name, dtype, count in specs:
        nbytes = dtype.itemsize * count
        if cursor + nbytes > len(payload):
            raise ValueError(
                f"corrupt binary frame: payload ends inside the {name!r} "
                f"section ({len(payload)} bytes for >= {cursor + nbytes})"
            )
        views[name] = np.frombuffer(payload[cursor : cursor + nbytes], dtype=dtype)
        cursor += nbytes + _pad8(nbytes)
    if cursor != len(payload):
        raise ValueError(
            f"corrupt binary frame: payload holds {len(payload)} bytes but "
            f"its sections describe {cursor}"
        )
    return views


def _decode_lengths(views: dict[str, np.ndarray], n_windows: int) -> np.ndarray:
    lengths = views["lengths"]
    if len(lengths) and int(lengths.min()) < 0:
        raise ValueError("corrupt binary frame: negative request length")
    if int(lengths.sum()) != n_windows:
        raise ValueError(
            f"corrupt binary frame: request lengths sum to "
            f"{int(lengths.sum())} but the frame declares {n_windows} windows"
        )
    return lengths


def parse_request_frame(header: Mapping[str, Any], payload: memoryview) -> RequestFrame:
    """Validate one request frame's header + payload into a :class:`RequestFrame`.

    Raises
    ------
    ValueError
        If the header is not a request frame, any count disagrees with the
        payload, or a section is malformed.
    """
    if header.get("kind") != REQUEST_FRAME_KIND:
        raise ValueError(
            f"payload does not describe a binary request frame: "
            f"kind={header.get('kind')!r}"
        )
    op = header.get("op")
    if op not in FRAME_OPS:
        raise ValueError(f"binary frame op must be one of {FRAME_OPS}, got {op!r}")
    api_version = _int_field(header, "api_version", minimum=1)
    n_requests = _int_field(header, "n_requests", minimum=1)
    n_windows = _int_field(header, "n_windows")
    n_features = _int_field(header, "n_features")
    user_ids = _str_list_field(header, "user_ids", n_requests)
    has_contexts = bool(header.get("has_contexts"))
    specs: list[tuple[str, np.dtype, int]] = [
        ("lengths", _DTYPE_LENGTHS, n_requests),
        ("features", _DTYPE_FEATURES, n_windows * n_features),
    ]
    if has_contexts:
        specs.append(("context_codes", _DTYPE_CODES, n_windows))
    views = _sections(payload, specs)
    lengths = _decode_lengths(views, n_windows)
    features = views["features"].reshape(n_windows, n_features)
    versions = header.get("versions")
    if versions is not None:
        versions = tuple(_str_list_field(header, "versions", n_requests))
    train = header.get("train")
    if train is not None:
        train = tuple(_str_list_field(header, "train", n_requests))
    feature_names = header.get("feature_names")
    if op != "authenticate":
        if not has_contexts:
            raise ValueError(f"binary {op!r} frames must carry context codes")
        feature_names = tuple(_str_list_field(header, "feature_names", n_features))
        codes = views["context_codes"]
        if len(codes) and (
            int(codes.min()) < 0 or int(codes.max()) >= len(CONTEXT_BY_CODE)
        ):
            raise ValueError("corrupt binary frame: context code out of range")
    frame_id = header.get("frame_id")
    return RequestFrame(
        op=op,
        api_version=api_version,
        api_key=header.get("api_key"),
        frame_id=str(frame_id) if frame_id is not None else "",
        user_ids=tuple(user_ids),
        lengths=lengths,
        features=features,
        context_codes=views.get("context_codes"),
        versions=versions,
        train=train,
        feature_names=feature_names,
        prepaid=bool(header.get("prepaid")),
    )


def iter_request_frames(read: Callable[[int], bytes]) -> Iterator[RequestFrame]:
    """Decode request frames incrementally from a ``read(n)`` stream."""
    reader = FrameReader(read)
    while True:
        item = reader.next_frame()
        if item is None:
            return
        yield parse_request_frame(*item)


def decode_request_frame(data: bytes) -> RequestFrame:
    """Decode exactly one request frame from *data* (no trailing bytes).

    Raises
    ------
    ValueError
        If *data* is not exactly one well-formed request frame.
    """
    frames = list(iter_request_frames(_buffer_reader(data)))
    if len(frames) != 1:
        raise ValueError(f"expected exactly one binary frame, got {len(frames)}")
    return frames[0]


def _buffer_reader(data: bytes) -> Callable[[int], bytes]:
    return io.BytesIO(data).read


# --------------------------------------------------------------------- #
# response frames
# --------------------------------------------------------------------- #


def encode_columnar_response(
    result: ColumnarAuthResult,
    frame_id: str = "",
    caller_id: str | None = None,
) -> bytes:
    """Encode an authenticate outcome as one columnar response frame."""
    header: dict[str, Any] = {
        "kind": RESPONSE_FRAME_KIND,
        "op": "authenticate",
        "api_version": API_VERSION,
        "caller_id": caller_id,
        "frame_id": frame_id,
        "n_requests": result.n_requests,
        "n_windows": int(result.lengths.sum()),
        "user_ids": list(result.user_ids),
        "model_versions": np.asarray(
            result.model_versions, dtype=np.int64
        ).tolist(),
        "errors": {
            str(index): response_to_payload(error)
            for index, error in sorted(result.errors.items())
        },
    }
    sections = [
        np.ascontiguousarray(result.lengths, dtype=_DTYPE_LENGTHS),
        np.ascontiguousarray(result.scores, dtype=_DTYPE_FEATURES),
        np.ascontiguousarray(result.accepted, dtype=_DTYPE_ACCEPTED),
        np.ascontiguousarray(result.model_context_codes, dtype=_DTYPE_CODES),
    ]
    return _assemble(header, sections)


def encode_response_frame(
    op: str,
    responses: Sequence[Response],
    frame_id: str = "",
    caller_id: str | None = None,
) -> bytes:
    """Encode a non-columnar op's responses (enroll / drift) as one frame.

    These responses are small plain structures, so they travel in the
    header under the JSON wire conversion rules; the frame has no binary
    payload.
    """
    header = {
        "kind": RESPONSE_FRAME_KIND,
        "op": op,
        "api_version": API_VERSION,
        "caller_id": caller_id,
        "frame_id": frame_id,
        "n_requests": len(responses),
        "responses": [response_to_payload(response) for response in responses],
    }
    return _assemble(header, [])


def encode_rejection_frame(
    op: str,
    rejection: "DeniedResponse | ThrottledResponse",
    frame_id: str = "",
    n_requests: int = 0,
) -> bytes:
    """Encode a frame-level rejection (denial / throttle) as one frame.

    The whole frame was refused before dispatch — by authorization, rate
    limiting or the batch-size bound — so there is one typed outcome for
    all of its requests.
    """
    header: dict[str, Any] = {
        "kind": RESPONSE_FRAME_KIND,
        "op": op,
        "api_version": API_VERSION,
        "caller_id": None,
        "frame_id": frame_id,
        "n_requests": n_requests,
    }
    if isinstance(rejection, DeniedResponse):
        header["denied"] = {
            "kind": DENIED_KIND,
            "request_kind": rejection.request_kind,
            "code": rejection.code,
            "message": rejection.message,
            "required_scope": rejection.required_scope,
        }
    else:
        header["throttled"] = response_to_payload(rejection)
    return _assemble(header, [])


def encode_error_frame(error: ErrorResponse) -> bytes:
    """Encode a stream-abort marker: the transport tore mid-stream.

    Appended after the completed response frames when a streamed upload
    dies part-way, so the caller learns exactly how many of its frames
    executed (their responses precede this frame) instead of losing them
    to a bare 400.
    """
    header = {
        "kind": RESPONSE_FRAME_KIND,
        "op": "transport",
        "api_version": API_VERSION,
        "caller_id": None,
        "frame_id": "",
        "n_requests": 0,
        "error": response_to_payload(error),
    }
    return _assemble(header, [])


@dataclass(frozen=True, eq=False)
class ResponseFrame:
    """One decoded binary response frame.

    Exactly one of four shapes: a columnar authenticate outcome
    (:attr:`columns` set), a header-borne response list (:attr:`payloads`
    set), a frame-level rejection (:attr:`denied` / :attr:`throttled`),
    or a stream-abort marker (:attr:`error` set — the transport tore after
    the preceding frames executed).
    """

    op: str
    api_version: int
    caller_id: str | None
    frame_id: str
    n_requests: int
    columns: ColumnarAuthResult | None = None
    payloads: tuple[Mapping[str, Any], ...] | None = None
    denied: DeniedResponse | None = None
    throttled: ThrottledResponse | None = None
    error: ErrorResponse | None = None

    def to_responses(self) -> list[Response]:
        """Materialize one typed response per request, in request order.

        A frame-level throttle fans out to one
        :class:`~repro.service.protocol.ThrottledResponse` per request
        (mirroring what per-envelope JSON dispatch would have answered).

        Raises
        ------
        PermissionError
            If the frame is a caller denial — the same contract as
            :func:`repro.service.envelope.unseal`.
        ValueError
            If the frame is a stream-abort marker (it answers no request).
        """
        if self.error is not None:
            raise ValueError(
                f"the stream was aborted by the transport: {self.error.message}"
            )
        if self.denied is not None:
            raise PermissionError(f"{self.denied.code}: {self.denied.message}")
        if self.throttled is not None:
            return [self.throttled] * self.n_requests
        if self.columns is not None:
            return self.columns.responses()
        return [response_from_payload(payload) for payload in self.payloads or ()]


def parse_response_frame(
    header: Mapping[str, Any], payload: memoryview
) -> ResponseFrame:
    """Validate one response frame's header + payload.

    Raises
    ------
    ValueError
        If the header is not a response frame or disagrees with the
        payload.
    """
    if header.get("kind") != RESPONSE_FRAME_KIND:
        raise ValueError(
            f"payload does not describe a binary response frame: "
            f"kind={header.get('kind')!r}"
        )
    op = str(header.get("op", ""))
    api_version = _int_field(header, "api_version", minimum=1)
    n_requests = _int_field(header, "n_requests")
    frame_id = str(header.get("frame_id") or "")
    caller_id = header.get("caller_id")
    error_payload = header.get("error")
    if error_payload is not None:
        error = response_from_payload(error_payload)
        if not isinstance(error, ErrorResponse):
            raise ValueError(
                "binary response frame 'error' field must be an "
                "error-response payload"
            )
        return ResponseFrame(
            op=op,
            api_version=api_version,
            caller_id=caller_id,
            frame_id=frame_id,
            n_requests=n_requests,
            error=error,
        )
    denied_payload = header.get("denied")
    if denied_payload is not None:
        return ResponseFrame(
            op=op,
            api_version=api_version,
            caller_id=caller_id,
            frame_id=frame_id,
            n_requests=n_requests,
            denied=DeniedResponse(
                request_kind=denied_payload.get("request_kind", op),
                code=denied_payload["code"],
                message=denied_payload.get("message", ""),
                required_scope=denied_payload.get("required_scope"),
            ),
        )
    throttled_payload = header.get("throttled")
    if throttled_payload is not None:
        throttled = response_from_payload(throttled_payload)
        if not isinstance(throttled, ThrottledResponse):
            raise ValueError(
                "binary response frame 'throttled' field must be a "
                "throttled-response payload"
            )
        return ResponseFrame(
            op=op,
            api_version=api_version,
            caller_id=caller_id,
            frame_id=frame_id,
            n_requests=n_requests,
            throttled=throttled,
        )
    if "responses" in header:
        payloads = header.get("responses")
        if not isinstance(payloads, list) or len(payloads) != n_requests:
            raise ValueError(
                f"binary response frame declares {n_requests} requests but "
                "its 'responses' list disagrees"
            )
        return ResponseFrame(
            op=op,
            api_version=api_version,
            caller_id=caller_id,
            frame_id=frame_id,
            n_requests=n_requests,
            payloads=tuple(payloads),
        )
    n_windows = _int_field(header, "n_windows")
    user_ids = _str_list_field(header, "user_ids", n_requests)
    model_versions = _str_list_field(header, "model_versions", n_requests)
    views = _sections(
        payload,
        [
            ("lengths", _DTYPE_LENGTHS, n_requests),
            ("scores", _DTYPE_FEATURES, n_windows),
            ("accepted", _DTYPE_ACCEPTED, n_windows),
            ("model_context_codes", _DTYPE_CODES, n_windows),
        ],
    )
    lengths = _decode_lengths(views, n_windows)
    errors_payload = header.get("errors") or {}
    errors: dict[int, ErrorResponse] = {}
    for key, item in errors_payload.items():
        response = response_from_payload(item)
        if not isinstance(response, ErrorResponse):
            raise ValueError(
                "binary response frame 'errors' entries must be "
                "error-response payloads"
            )
        errors[int(key)] = response
    codes = views["model_context_codes"]
    if len(codes) and (
        int(codes.min()) < 0 or int(codes.max()) >= len(CONTEXT_BY_CODE)
    ):
        raise ValueError("corrupt binary frame: model context code out of range")
    return ResponseFrame(
        op=op,
        api_version=api_version,
        caller_id=caller_id,
        frame_id=frame_id,
        n_requests=n_requests,
        columns=ColumnarAuthResult(
            user_ids=tuple(user_ids),
            scores=views["scores"],
            accepted=views["accepted"].view(bool),
            model_context_codes=codes,
            lengths=lengths,
            model_versions=np.asarray(model_versions, dtype=np.int64),
            errors=errors,
        ),
    )


def iter_response_frames(read: Callable[[int], bytes]) -> Iterator[ResponseFrame]:
    """Decode response frames incrementally from a ``read(n)`` stream."""
    reader = FrameReader(read)
    while True:
        item = reader.next_frame()
        if item is None:
            return
        yield parse_response_frame(*item)


def decode_response_frames(data: bytes) -> list[ResponseFrame]:
    """Decode every response frame in *data* (ValueError on anything torn)."""
    return list(iter_response_frames(_buffer_reader(data)))
