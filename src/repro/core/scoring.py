"""Vectorized batch scoring of authentication windows.

The seed's :class:`~repro.core.authenticator.ContextualAuthenticator` looped
over windows one at a time, transforming and scoring each 1-row matrix
separately.  The :class:`BatchScorer` groups a batch of windows by the
per-context model that will score them and runs one whole-matrix
``scale → decision-function → predict`` pass per model, which is the
difference between thousands of tiny BLAS calls and a handful of large ones.
:func:`score_stacked` goes one step further for the serving frontend: it
scores many users' requests, stacked into one contiguous block, in a
*single* fused projection over the whole fleet batch wherever the selected
models are affine (:class:`~repro.ml.base.LinearDecisionRule`), falling
back to per-model passes for everything else.  :func:`score_requests` is
the convenience form that stacks per-request arrays first.

Model selection replicates the seed authenticator exactly (including the
fall-back behaviour for unknown contexts and the single-model "w/o context"
mode), and both the confidence score and the accept decision are computed by
the same per-context model methods the per-window path used.  With the
paper's default linear kernel-ridge models the batched scores are bit-for-bit
identical to per-window scoring (the primal decision projection is batch-size
invariant); non-linear kernels agree to float rounding because their kernel
matrices are BLAS products.

This module sits *below* :mod:`repro.devices`: it scores any bundle exposing
the structural interfaces below (:class:`ScorableModel`,
:class:`ScorableBundle`) and never imports the device or service layers, so
the dependency graph stays acyclic with no lazy-import workarounds.  The
concrete model types live in :mod:`repro.devices.cloud`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.ml.base import LinearDecisionRule
from repro.sensors.types import CoarseContext

# --------------------------------------------------------------------- #
# context int-encoding
# --------------------------------------------------------------------- #

#: Canonical decode table: ``CONTEXT_BY_CODE[code]`` is the coarse context
#: a small-int context code stands for.  The scoring hot path carries
#: contexts as ``int8`` code arrays end-to-end (protocol requests encode at
#: construction, the gateway detector emits codes directly), so the
#: per-flush bucketing below is pure NumPy with no per-row Python.
CONTEXT_BY_CODE: tuple[CoarseContext, ...] = tuple(CoarseContext)

#: Canonical encode table, the inverse of :data:`CONTEXT_BY_CODE`.
CONTEXT_CODES: dict[CoarseContext, int] = {
    context: code for code, context in enumerate(CONTEXT_BY_CODE)
}

#: Sorted context label values, for vectorized label→code translation.
_SORTED_LABELS = np.array(sorted(context.value for context in CONTEXT_BY_CODE))
_CODE_BY_SORTED_LABEL = np.asarray(
    [CONTEXT_CODES[CoarseContext(label)] for label in _SORTED_LABELS],
    dtype=np.int8,
)


def encode_contexts(contexts: Sequence[CoarseContext] | np.ndarray) -> np.ndarray:
    """Encode per-window context labels as canonical ``int8`` codes.

    Accepts an already-encoded integer array (validated and passed through),
    a NumPy array of label strings (translated in one vectorized
    ``searchsorted`` pass — the context detector's output path), or any
    sequence of :class:`~repro.sensors.types.CoarseContext` / label values.

    Raises
    ------
    ValueError
        If an integer code is out of range or a label names no context.
    """
    if isinstance(contexts, np.ndarray):
        if np.issubdtype(contexts.dtype, np.integer):
            # Range-check BEFORE any narrowing cast: an out-of-range code
            # that wraps to a valid int8 value (e.g. 256 -> 0) must be
            # rejected, never silently scored under the wrong model.
            if len(contexts) and (
                int(contexts.min()) < 0
                or int(contexts.max()) >= len(CONTEXT_BY_CODE)
            ):
                raise ValueError(
                    f"context codes must be in [0, {len(CONTEXT_BY_CODE)}), "
                    f"got values outside that range"
                )
            return contexts.astype(np.int8, copy=False)
        if contexts.dtype.kind in "US":
            return _encode_labels(contexts)
    return np.fromiter(
        (
            CONTEXT_CODES[
                context
                if isinstance(context, CoarseContext)
                else CoarseContext(context)
            ]
            for context in contexts
        ),
        dtype=np.int8,
        count=len(contexts),
    )


def _encode_labels(labels: np.ndarray) -> np.ndarray:
    """Vectorized label-string → code translation (detector predictions)."""
    positions = np.searchsorted(_SORTED_LABELS, labels)
    positions = np.clip(positions, 0, len(_SORTED_LABELS) - 1)
    matched = _SORTED_LABELS[positions] == labels
    if not matched.all():
        bad = labels[~matched][0]
        raise ValueError(f"{bad!r} is not a known coarse context label")
    return _CODE_BY_SORTED_LABEL[positions]


#: Object-dtype decode table: one vectorized gather turns a whole code
#: array back into enum members (no per-row ``CONTEXT_BY_CODE[...]`` calls).
_CONTEXT_OBJECTS = np.fromiter(
    CONTEXT_BY_CODE, dtype=object, count=len(CONTEXT_BY_CODE)
)


def decode_contexts(codes: np.ndarray) -> tuple[CoarseContext, ...]:
    """The coarse contexts a code array stands for (inverse of encoding)."""
    return tuple(_CONTEXT_OBJECTS[np.asarray(codes, dtype=np.intp)])


@runtime_checkable
class ScorableModel(Protocol):
    """Structural interface of one per-context authentication model."""

    context: CoarseContext

    def batch_decisions(self, features: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized ``(confidence scores, accept mask)`` for many rows."""
        ...

    def decision_rule(self) -> LinearDecisionRule | None:
        """Affine reduction of the model's scoring pass, if one exists."""
        ...


@runtime_checkable
class ScorableBundle(Protocol):
    """Structural interface of a trained per-context model bundle."""

    user_id: str
    models: Mapping[CoarseContext, ScorableModel]
    version: int


@dataclass(frozen=True)
class BatchScoreResult:
    """Scores and decisions for one batch of windows.

    Attributes
    ----------
    scores:
        Confidence score per window (positive = legitimate side).
    accepted:
        Boolean accept decision per window.
    model_contexts:
        The context of the model that actually scored each window (after
        fall-back resolution), matching the seed's per-decision ``context``.
    model_version:
        Version of the bundle that produced the scores.
    """

    scores: np.ndarray
    accepted: np.ndarray
    model_contexts: tuple[CoarseContext, ...]
    model_version: int

    def __len__(self) -> int:
        return len(self.scores)

    @property
    def n_accepted(self) -> int:
        return int(np.count_nonzero(self.accepted))

    @property
    def accept_rate(self) -> float:
        return float(np.mean(self.accepted)) if len(self.scores) else 0.0


def offsets_from_lengths(lengths: Sequence[int] | np.ndarray) -> np.ndarray:
    """Slice boundaries of back-to-back request blocks: ``offsets[i:i+2]``
    brackets request *i*'s rows in the combined batch."""
    lengths = np.asarray(lengths, dtype=np.intp)
    offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def canonicalize_rows(features: np.ndarray) -> np.ndarray:
    """Canonicalise window features: float dtype, a lone vector becomes one row.

    The single place every entry point (protocol requests, the gateway's
    detector, the scorers) funnels feature input through, so promotion and
    validation policy cannot drift between them.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim == 1:
        # A lone vector is one window; an empty 1-D input is an empty
        # batch, not a single zero-width window.
        features = (
            features[np.newaxis, :] if len(features) else features.reshape(0, 0)
        )
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    return features


def _validate_batch(
    features: np.ndarray, contexts: Sequence[CoarseContext] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalise one request's ``(features, context codes)`` pair."""
    features = canonicalize_rows(features)
    codes = encode_contexts(contexts)
    if len(codes) != len(features):
        raise ValueError(
            f"got {len(features)} feature rows but {len(codes)} context labels"
        )
    return features, codes


def _rows_by_slot(row_slots: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """Group row indices by their model slot, without per-row Python.

    Returns ``(slot, row_indices)`` pairs; each ``row_indices`` array holds
    the positions whose entry in *row_slots* equals ``slot``, in ascending
    row order (the stable sort preserves it).
    """
    order = np.argsort(row_slots, kind="stable")
    sorted_slots = row_slots[order]
    boundaries = np.flatnonzero(sorted_slots[1:] != sorted_slots[:-1]) + 1
    groups = np.split(order, boundaries)
    return [(int(row_slots[group[0]]), group) for group in groups if len(group)]


class BatchScorer:
    """Scores many windows against one user's model bundle in bulk.

    Parameters
    ----------
    bundle:
        The trained per-context model bundle to score against (any object
        satisfying :class:`ScorableBundle`, e.g.
        :class:`~repro.devices.cloud.TrainedModelBundle`).
    use_context:
        Mirrors :class:`~repro.core.authenticator.ContextualAuthenticator`:
        when false a single model (the stationary one if present) scores
        every window.
    """

    def __init__(self, bundle: ScorableBundle, use_context: bool = True) -> None:
        if not bundle.models:
            raise ValueError("the model bundle contains no trained models")
        self.bundle = bundle
        self.use_context = use_context

    # ------------------------------------------------------------------ #
    # model selection (mirrors ContextualAuthenticator._select_model)
    # ------------------------------------------------------------------ #

    def select_model(self, context: CoarseContext) -> ScorableModel:
        """The model that scores windows detected under *context*."""
        if not self.use_context:
            if CoarseContext.STATIONARY in self.bundle.models:
                return self.bundle.models[CoarseContext.STATIONARY]
            return next(iter(self.bundle.models.values()))
        if context in self.bundle.models:
            return self.bundle.models[context]
        # Degrade gracefully for never-enrolled contexts, as the seed did.
        return next(iter(self.bundle.models.values()))

    # ------------------------------------------------------------------ #

    def model_by_code(self) -> list[ScorableModel]:
        """Every context code's resolved model (the bucketing lookup table).

        Index *c* holds the model that scores windows whose detected context
        encodes to code *c* — fall-backs for never-enrolled contexts and the
        ``use_context=False`` single-model mode already applied.  Memoised
        per ``use_context`` value: the bundle is immutable, so resolution
        can never change under a fixed mode, and the serving hot path looks
        this table up once per scorer per coalesced flush.
        """
        cached = self.__dict__.get("_model_by_code")
        if cached is not None and cached[0] == self.use_context:
            return cached[1]
        models = [self.select_model(context) for context in CONTEXT_BY_CODE]
        self.__dict__["_model_by_code"] = (self.use_context, models)
        return models

    # ------------------------------------------------------------------ #

    def score(
        self, features: np.ndarray, contexts: Sequence[CoarseContext] | np.ndarray
    ) -> BatchScoreResult:
        """Score a batch of windows, each with its detected context.

        *contexts* may be coarse-context labels or an already-encoded
        ``int8`` code array (see :func:`encode_contexts`).  Rows sharing a
        resolved model are grouped in one vectorized pass — no per-row
        Python — and scored in a single call per model; results are
        scattered back into window order.
        """
        features, codes = _validate_batch(features, contexts)
        n_windows = len(features)
        scores = np.empty(n_windows)
        accepted = np.empty(n_windows, dtype=bool)
        if n_windows == 0:
            return BatchScoreResult(
                scores=scores,
                accepted=accepted,
                model_contexts=tuple(),
                model_version=self.bundle.version,
            )
        # Resolve every possible context code to its model once (a handful
        # of lookups), then bucket window indices by resolved model with
        # pure array operations: several detected contexts may fall back
        # onto the same model, so codes first map onto model *slots*.
        models = self.model_by_code()
        slot_by_id: dict[int, int] = {}
        distinct: list[ScorableModel] = []
        slot_by_code = np.empty(len(models), dtype=np.intp)
        for code, model in enumerate(models):
            slot = slot_by_id.get(id(model))
            if slot is None:
                slot = slot_by_id[id(model)] = len(distinct)
                distinct.append(model)
            slot_by_code[code] = slot
        row_slots = slot_by_code[codes]
        for slot in np.unique(row_slots):
            indices = np.flatnonzero(row_slots == slot)
            model = distinct[slot]
            scores[indices], accepted[indices] = model.batch_decisions(
                features[indices]
            )
        context_by_slot = np.fromiter(
            (model.context for model in distinct), dtype=object, count=len(distinct)
        )
        return BatchScoreResult(
            scores=scores,
            accepted=accepted,
            model_contexts=tuple(context_by_slot[row_slots]),
            model_version=self.bundle.version,
        )

    def confidence_scores(
        self, features: np.ndarray, contexts: Sequence[CoarseContext] | np.ndarray
    ) -> np.ndarray:
        """Confidence score per window (the retraining monitor's input)."""
        return self.score(features, contexts).scores


# ---------------------------------------------------------------------- #
# coalesced multi-request scoring (the micro-batching frontend's engine)
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class FusedStacks:
    """The stacked affine parameters of one fused model set.

    One row per fused model, in the canonical (id-sorted) order of the
    ``rules`` tuple.  Holding the rules themselves keeps them alive for the
    lifetime of the entry, so an ``id``-based cache key can never be reused
    by a different rule object while this entry exists.

    Attributes
    ----------
    rules:
        The fused decision rules, id-sorted; the cache key derives from it.
    mean, scale, x_offset, coef:
        ``(n_models, n_features)`` parameter matrices (standardisation,
        centring and projection coefficients, stacked row-wise).
    y_offset, sign:
        ``(n_models,)`` projection intercepts and score sign adjustments.
    accept_nonneg:
        ``(n_models,)`` boolean accept-threshold orientations.
    position_by_id:
        Maps ``id(rule)`` to its row in the stacked matrices, so a flush
        that uses only a subset of the model set can gather its rows
        without rebuilding anything.
    """

    rules: tuple[LinearDecisionRule, ...]
    mean: np.ndarray
    scale: np.ndarray
    x_offset: np.ndarray
    coef: np.ndarray
    y_offset: np.ndarray
    sign: np.ndarray
    accept_nonneg: np.ndarray
    position_by_id: dict[int, int]

    @classmethod
    def build(cls, rules: Sequence[LinearDecisionRule]) -> "FusedStacks":
        """Stack the parameters of *rules* (assumed already id-sorted)."""
        return cls(
            rules=tuple(rules),
            mean=np.stack([rule.mean for rule in rules]),
            scale=np.stack([rule.scale for rule in rules]),
            x_offset=np.stack([rule.x_offset for rule in rules]),
            coef=np.stack([rule.coef for rule in rules]),
            y_offset=np.asarray([rule.y_offset for rule in rules]),
            sign=np.asarray([rule.sign for rule in rules]),
            accept_nonneg=np.asarray(
                [rule.accept_on_nonnegative for rule in rules], dtype=bool
            ),
            position_by_id={id(rule): index for index, rule in enumerate(rules)},
        )


class FusedStackCache:
    """LRU cache of :class:`FusedStacks` keyed by the serving model set.

    Rebuilding the stacked parameter matrices on every flush is the dominant
    cost of a coalesced pass once the einsum itself is cheap (hundreds of
    small per-rule stacking operations per flush).  A serving frontend that
    flushes the same fleet repeatedly reuses one entry for as long as the
    served models do not change: the stacks cover every fusible model the
    flush's scorers *serve* (not just the ones this flush's detected
    contexts happened to select), so per-flush context variation still hits.

    The key is the tuple of the rules' ``id``\\ s in canonical (sorted)
    order — the *serving model-set fingerprint*.  Rules are immutable and
    memoised per trained model, so a retrain, rollback or ``use_context``
    flip yields different rule objects and therefore a different key;
    each entry also holds strong references to its rules, so a key can
    never be recycled by the allocator while its entry is alive.  Explicit
    invalidation (:meth:`clear`) is therefore a memory-hygiene hook — the
    service frontend clears the cache whenever the model registry's
    generation moves — not a correctness requirement.

    Thread-safe: lookups, inserts, eviction and :meth:`clear` serialize on
    an internal lock, because the threaded HTTP transport can drive
    concurrent coalesced flushes for disjoint user sets through one shared
    cache.  (Entry *construction* happens outside the lock; two racing
    misses may both build, and the last insert wins — wasted work, never a
    wrong result, since entries for one key are interchangeable.)

    Parameters
    ----------
    max_entries:
        Bound on distinct model sets kept (least recently used evicted).

    Raises
    ------
    ValueError
        If ``max_entries`` is not positive.
    """

    def __init__(self, max_entries: int = 32) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple[int, ...], FusedStacks]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stacks_for(self, rules: Sequence[LinearDecisionRule]) -> FusedStacks:
        """The stacked parameters of *rules* (assumed id-sorted), cached.

        Returns
        -------
        FusedStacks
            A cached entry when this exact rule set was stacked before,
            otherwise a freshly built (and now cached) one.
        """
        key = tuple(id(rule) for rule in rules)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry
            self.misses += 1
        entry = FusedStacks.build(rules)
        with self._lock:
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
        return entry

    def clear(self) -> None:
        """Drop every cached entry (hit/miss statistics are kept)."""
        with self._lock:
            self._entries.clear()


def _serving_rules(
    scorers: Sequence[BatchScorer], width: int
) -> list[LinearDecisionRule]:
    """Every fusible *width*-column rule served by the distinct scorers.

    Returned id-sorted (the canonical cache order).  Rules of other widths
    are skipped: they can never score this flush's rows — a *used* model of
    the wrong width is rejected explicitly before gathering — and stacking
    them alongside would be a shape error.
    """
    rules: dict[int, LinearDecisionRule] = {}
    seen: set[int] = set()
    for scorer in scorers:
        if id(scorer) in seen:
            continue
        seen.add(id(scorer))
        for model in scorer.bundle.models.values():
            rule = model.decision_rule() if hasattr(model, "decision_rule") else None
            if rule is not None and rule.coef.shape[-1] == width:
                rules[id(rule)] = rule
    return sorted(rules.values(), key=id)


@dataclass(frozen=True, eq=False)
class StackedScoreResult:
    """Columnar outcome of one coalesced scoring pass (no per-request split).

    The zero-copy serving path keeps results in this block form end-to-end:
    the binary wire codec frames the ``scores`` / ``accepted`` /
    ``model_context_codes`` columns directly, so per-request Python objects
    are only ever built for callers that ask for them
    (:meth:`result_for` / :meth:`results`).

    ``eq=False``: holds NumPy arrays (see
    :class:`~repro.service.protocol.EnrollRequest` for the rationale).

    Attributes
    ----------
    scores, accepted:
        One entry per window of the combined batch, in submission order.
    model_context_codes:
        ``int8`` context code of the model that actually scored each window
        (after fall-back resolution) — decode with :func:`decode_contexts`.
    model_versions:
        One bundle version per *request*.
    offsets:
        Request slice boundaries: request *i* owns rows
        ``offsets[i]:offsets[i + 1]``.
    """

    scores: np.ndarray
    accepted: np.ndarray
    model_context_codes: np.ndarray
    model_versions: np.ndarray
    offsets: np.ndarray

    @property
    def n_requests(self) -> int:
        return len(self.model_versions)

    def __len__(self) -> int:
        return len(self.scores)

    def result_for(self, index: int) -> BatchScoreResult:
        """Request *index*'s slice as a per-request :class:`BatchScoreResult`."""
        start, stop = int(self.offsets[index]), int(self.offsets[index + 1])
        return BatchScoreResult(
            scores=self.scores[start:stop],
            accepted=self.accepted[start:stop],
            model_contexts=decode_contexts(self.model_context_codes[start:stop]),
            model_version=int(self.model_versions[index]),
        )

    def results(self) -> list[BatchScoreResult]:
        """Every request's slice, in request order."""
        return [self.result_for(index) for index in range(self.n_requests)]


def score_stacked(
    scorers: Sequence[BatchScorer],
    stacked: np.ndarray,
    lengths: Sequence[int] | np.ndarray,
    codes: np.ndarray,
    stack_cache: FusedStackCache | None = None,
) -> StackedScoreResult:
    """Score an already-stacked fleet batch in one coalesced pass.

    The columnar twin of :func:`score_requests` (which delegates here):
    instead of per-request feature arrays, the caller hands one contiguous
    ``(total_windows, n_features)`` block plus per-request *lengths* —
    exactly the shape the binary wire codec decodes a batch frame into with
    :func:`np.frombuffer` views — so the serving hot path never
    concatenates, copies or materializes per-request objects.

    Parameters
    ----------
    scorers:
        One :class:`BatchScorer` per request (duplicates allowed).
    stacked:
        The combined feature rows, request slices back to back.
    lengths:
        Windows per request; must sum to ``len(stacked)``.
    codes:
        Per-window ``int8`` context codes (already encoded; label input is
        accepted and encoded via :func:`encode_contexts`).
    stack_cache:
        Optional :class:`FusedStackCache` reused across flushes.

    Returns
    -------
    StackedScoreResult
        Columnar scores/decisions plus the request slice offsets.  Scores
        and decisions are bit-for-bit identical to scoring each request
        through its own scorer.

    Raises
    ------
    ValueError
        If the shapes disagree, a context code is out of range, or the
        feature width does not match a selected model.
    """
    stacked = canonicalize_rows(stacked)
    lengths = np.asarray(lengths, dtype=np.intp)
    n_requests = len(lengths)
    if len(scorers) != n_requests:
        raise ValueError(
            f"got {len(scorers)} scorers for {n_requests} request lengths"
        )
    if len(lengths) and int(lengths.min()) < 0:
        raise ValueError("request lengths must be non-negative")
    offsets = offsets_from_lengths(lengths)
    total = int(offsets[-1])
    if total != len(stacked):
        raise ValueError(
            f"request lengths sum to {total} but the stacked batch has "
            f"{len(stacked)} rows"
        )
    codes = encode_contexts(codes)
    if len(codes) != total:
        raise ValueError(
            f"got {total} stacked feature rows but {len(codes)} context codes"
        )
    model_versions = np.fromiter(
        (scorer.bundle.version for scorer in scorers),
        dtype=np.int64,
        count=n_requests,
    )
    if total == 0:
        return StackedScoreResult(
            scores=np.empty(0),
            accepted=np.empty(0, dtype=bool),
            model_context_codes=np.empty(0, dtype=np.int8),
            model_versions=model_versions,
            offsets=offsets,
        )

    # Resolve every row to its model with array gathers alone.  Each
    # distinct scorer contributes one row of a code→slot lookup matrix
    # (its memoised code→model table mapped onto call-local model slots —
    # O(distinct scorers) cheap Python); the whole fleet batch then
    # resolves in two vectorized gathers: repeat each request's lut row
    # over its windows, and index the matrix with (lut row, context code)
    # pairs.  No per-row Python anywhere.
    distinct_models: list[ScorableModel] = []
    slot_by_model_id: dict[int, int] = {}
    lut_rows: list[list[int]] = []
    lut_row_by_scorer: dict[int, int] = {}
    request_lut_rows = np.empty(n_requests, dtype=np.intp)
    for index in range(n_requests):
        if not lengths[index]:
            request_lut_rows[index] = 0
            continue
        scorer = scorers[index]
        lut_row = lut_row_by_scorer.get(id(scorer))
        if lut_row is None:
            entry = []
            for model in scorer.model_by_code():
                slot = slot_by_model_id.get(id(model))
                if slot is None:
                    slot = slot_by_model_id[id(model)] = len(distinct_models)
                    distinct_models.append(model)
                entry.append(slot)
            lut_row = lut_row_by_scorer[id(scorer)] = len(lut_rows)
            lut_rows.append(entry)
        request_lut_rows[index] = lut_row
    lut_matrix = np.asarray(lut_rows, dtype=np.intp)
    row_slots = lut_matrix[np.repeat(request_lut_rows, lengths), codes]
    code_by_slot = np.fromiter(
        (CONTEXT_CODES[model.context] for model in distinct_models),
        dtype=np.int8,
        count=len(distinct_models),
    )
    model_context_codes = code_by_slot[row_slots]

    scores = np.empty(total)
    accepted = np.empty(total, dtype=bool)

    # Split the *used* model slots into fusible (affine decision rule) and
    # fallback — an O(models) loop, never O(rows).
    rule_by_slot: list[LinearDecisionRule | None] = [None] * len(distinct_models)
    fusible = np.zeros(len(distinct_models), dtype=bool)
    used_slots = np.unique(row_slots)
    for slot in used_slots:
        model = distinct_models[slot]
        rule = model.decision_rule() if hasattr(model, "decision_rule") else None
        if rule is None:
            continue
        if rule.coef.shape[-1] != stacked.shape[1]:
            # The fallback path rejects this inside scaler.transform;
            # the fused gather must refuse too, or NumPy broadcasting
            # (e.g. width-1 rows against d-wide parameters) would
            # silently score — and possibly accept — malformed probes.
            raise ValueError(
                f"feature rows have {stacked.shape[1]} columns but the "
                f"model for context {model.context.value!r} was trained "
                f"on {rule.coef.shape[-1]} features"
            )
        rule_by_slot[slot] = rule
        fusible[slot] = True

    # Fallback models (probability-vote forests, non-linear kernels): one
    # vectorized batch_decisions call per model, shared across requests.
    all_fusible = bool(fusible[used_slots].all())
    if not all_fusible:
        fallback_rows = np.flatnonzero(~fusible[row_slots])
        for slot, group in _rows_by_slot(row_slots[fallback_rows]):
            rows = fallback_rows[group]
            model = distinct_models[slot]
            scores[rows], accepted[rows] = model.batch_decisions(stacked[rows])

    if fusible.any():
        if stack_cache is not None:
            # Stack the whole serving model set, not just this flush's used
            # subset: the fingerprint then survives per-flush variation in
            # which contexts the windows resolved to, so repeated fleet
            # flushes keep hitting one entry until the served models change.
            stacks = stack_cache.stacks_for(_serving_rules(scorers, stacked.shape[1]))
        else:
            stacks = FusedStacks.build(
                [rule_by_slot[slot] for slot in used_slots if fusible[slot]]
            )
        # One parameter row per model, gathered out to one row per window:
        # the whole fleet batch then reduces in a single einsum.  Each
        # elementwise operation matches the per-model path exactly
        # (standardise, centre, project, sign-adjust), so the fused scores
        # are bit-for-bit identical.
        position_by_slot = np.zeros(len(distinct_models), dtype=np.intp)
        for slot in used_slots:
            if fusible[slot]:
                position_by_slot[slot] = stacks.position_by_id[id(rule_by_slot[slot])]
        if all_fusible:
            row_index: np.ndarray | slice = slice(None)
            rows_features = stacked
            gather = position_by_slot[row_slots]
        else:
            row_index = np.flatnonzero(fusible[row_slots])
            rows_features = stacked[row_index]
            gather = position_by_slot[row_slots[row_index]]
        mean = stacks.mean[gather]
        scale = stacks.scale[gather]
        x_offset = stacks.x_offset[gather]
        coef = stacks.coef[gather]
        y_offset = stacks.y_offset[gather]
        sign = stacks.sign[gather]
        accept_nonneg = stacks.accept_nonneg[gather]
        centred = (rows_features - mean) / scale - x_offset
        raw = np.einsum("ij,ij->i", centred, coef) + y_offset
        scores[row_index] = sign * raw
        accepted[row_index] = np.where(accept_nonneg, raw >= 0.0, raw < 0.0)

    return StackedScoreResult(
        scores=scores,
        accepted=accepted,
        model_context_codes=model_context_codes,
        model_versions=model_versions,
        offsets=offsets,
    )


def score_requests(
    scorers: Sequence[BatchScorer],
    features_list: Sequence[np.ndarray],
    contexts_list: Sequence[Sequence[CoarseContext] | np.ndarray],
    stack_cache: FusedStackCache | None = None,
) -> list[BatchScoreResult]:
    """Score many concurrent authenticate requests in one coalesced pass.

    ``scorers[i]`` scores request *i*'s ``(features_list[i],
    contexts_list[i])`` windows; the same :class:`BatchScorer` object may
    appear many times (several requests for one user's served version).
    Context entries may be label sequences or already-encoded ``int8`` code
    arrays (:func:`encode_contexts`); the serving path passes codes, so
    resolving every window to its model is a pure array gather — no per-row
    Python anywhere.  The per-request inputs are stacked into one fleet
    batch and scored by :func:`score_stacked` (callers that already hold a
    contiguous block — the binary wire codec — call it directly and skip
    the copy).

    Every row in the combined batch whose resolved model exposes a
    :class:`~repro.ml.base.LinearDecisionRule` — the paper's kernel-ridge
    configuration, and every other classifier whose prediction is a
    threshold on an affine projection — is scored in a *single* fused
    gather-and-einsum over the entire fleet batch, regardless of how many
    users and model versions are involved.  Rows whose models cannot be
    fused (e.g. probability-vote forests, non-linear kernels) fall back to
    one vectorized :meth:`~ScorableModel.batch_decisions` call per model,
    still shared across requests.

    Scores and decisions are bit-for-bit identical to calling
    ``scorers[i].score(...)`` per request: the fused pass performs exactly
    the same elementwise standardisation, centering and per-row einsum
    reduction the per-model path performs.

    Parameters
    ----------
    scorers, features_list, contexts_list:
        One entry per concurrent request (equal lengths required).
    stack_cache:
        Optional :class:`FusedStackCache`.  When given, the stacked
        parameter matrices of the fused model set are reused across calls
        instead of being rebuilt on every flush; results are identical
        either way because the cached stacks are built from the very same
        immutable rules.

    Returns
    -------
    list[BatchScoreResult]
        One result per request, in request order.

    Raises
    ------
    ValueError
        If the three sequences disagree in length, a request's features and
        contexts disagree in length, or a request's feature width does not
        match its selected model.
    """
    if not (len(scorers) == len(features_list) == len(contexts_list)):
        raise ValueError(
            f"got {len(scorers)} scorers for {len(features_list)} feature "
            f"batches and {len(contexts_list)} context batches"
        )
    n_requests = len(scorers)
    batches: list[tuple[np.ndarray, np.ndarray]] = []
    for index in range(n_requests):
        try:
            batches.append(_validate_batch(features_list[index], contexts_list[index]))
        except ValueError as error:
            raise ValueError(f"request {index}: {error}") from None
    widths = {features.shape[1] for features, _ in batches if len(features)}
    if len(widths) > 1:
        # Mixed feature schemas cannot share one stacked batch; score each
        # request through its own scorer (identical results, just no fusion).
        return [scorers[index].score(*batches[index]) for index in range(n_requests)]

    lengths = np.fromiter(
        (len(features) for features, _ in batches), dtype=np.intp, count=n_requests
    )
    if not int(lengths.sum()):
        return [
            BatchScoreResult(
                scores=np.empty(0),
                accepted=np.empty(0, dtype=bool),
                model_contexts=tuple(),
                model_version=scorers[index].bundle.version,
            )
            for index in range(n_requests)
        ]
    stacked = np.vstack([features for features, _ in batches if len(features)])
    codes = np.concatenate([codes for _, codes in batches])
    return score_stacked(scorers, stacked, lengths, codes, stack_cache).results()


def score_fleet(
    scorers: dict[str, BatchScorer],
    requests: Sequence[tuple[str, np.ndarray, Sequence[CoarseContext]]],
) -> dict[str, BatchScoreResult]:
    """Score a batch of per-user requests against their respective models.

    Parameters
    ----------
    scorers:
        One :class:`BatchScorer` per user id.
    requests:
        ``(user_id, features, contexts)`` triples; multiple requests for the
        same user are concatenated and scored in one pass.

    Returns
    -------
    Mapping from user id to that user's combined batch result.
    """
    grouped_rows: dict[str, list[np.ndarray]] = {}
    grouped_codes: dict[str, list[np.ndarray]] = {}
    for index, (user_id, features, contexts) in enumerate(requests):
        if user_id not in scorers:
            raise KeyError(f"no scorer available for user {user_id!r}")
        # Validate per request: mismatches that cancel out across requests
        # for the same user would otherwise silently score windows under
        # the wrong contexts.
        try:
            rows, codes = _validate_batch(features, contexts)
        except ValueError as error:
            raise ValueError(
                f"request {index} for user {user_id!r}: {error}"
            ) from None
        grouped_rows.setdefault(user_id, []).append(rows)
        grouped_codes.setdefault(user_id, []).append(codes)
    return {
        user_id: scorers[user_id].score(
            np.vstack(grouped_rows[user_id]),
            np.concatenate(grouped_codes[user_id]),
        )
        for user_id in grouped_rows
    }
