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
back to per-model passes for everything else.  It reads every model
through a :class:`ServingTable`, which resolves a set of served scorers
into lookup arrays once (the frontend keeps one per registry generation),
so a pass resolves each window to its parameter row with one gather.
:func:`score_requests` is the convenience form that stacks per-request
arrays and builds a table over its scorers first.

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
from collections import Counter, OrderedDict
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
        can never change under a fixed mode, and a :class:`ServingTable`
        build looks this table up once per scorer.
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

    Rebuilding the stacked parameter matrices on every call is the dominant
    cost of :func:`score_requests` once the einsum itself is cheap
    (hundreds of small per-rule stacking operations per call).  A
    :class:`ServingTable` built with a cache reuses one entry for as long
    as its scorers' models do not change: the stacks cover every fusible
    model the scorers *serve* (not just the ones a call's contexts happened
    to select), so per-call context variation still hits.  (The serving
    frontend needs no cache: it keeps one table per registry generation.)

    The key is the tuple of the rules' ``id``\\ s in canonical (sorted)
    order — the *serving model-set fingerprint*.  Rules are immutable and
    memoised per trained model, so a retrain, rollback or ``use_context``
    flip yields different rule objects and therefore a different key;
    each entry also holds strong references to its rules, so a key can
    never be recycled by the allocator while its entry is alive.  Explicit
    invalidation (:meth:`clear`) is therefore a memory-hygiene hook, not a
    correctness requirement.

    Thread-safe: lookups, inserts, eviction and :meth:`clear` serialize on
    an internal lock, so concurrent callers can share one cache.  (Entry
    *construction* happens outside the lock; two racing misses may both
    build, and the last insert wins — wasted work, never a wrong result,
    since entries for one key are interchangeable.)

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


def _decision_rule(model: ScorableModel) -> LinearDecisionRule | None:
    """*model*'s affine decision rule, or ``None`` if it has none."""
    return model.decision_rule() if hasattr(model, "decision_rule") else None


def _grown(array: np.ndarray, size: int) -> np.ndarray:
    """*array* if it has *size* rows, else a zero-padded copy with room for
    at least twice as many (doubling keeps appends amortised O(1))."""
    if size <= len(array):
        return array
    grown = np.zeros((max(size, 2 * len(array)),) + array.shape[1:], dtype=array.dtype)
    grown[: len(array)] = array
    return grown


class ServingTable:
    """Served scorers resolved once into the fused pass's lookup arrays.

    The serving frontend builds one table per registry generation, so each
    pass resolves every window to its model's parameter row with a single
    gather, ``positions[np.repeat(rows, lengths), codes]``, instead of
    re-resolving each request's scorer and model set.

    **Rows** stand for scorers, one per served (user, version) bundle.  Row
    *r* of :attr:`positions` maps each context code to the *position* of
    the model that scores it (fall-backs for never-enrolled contexts and the
    ``use_context=False`` single-model mode already applied by
    :meth:`BatchScorer.model_by_code`); :attr:`versions` holds each row's
    bundle version, and :attr:`row_fallback` flags the rows that reach any
    fallback position.

    **Positions** stand for distinct models.  A model whose
    :class:`~repro.ml.base.LinearDecisionRule` has the table's feature
    :attr:`width` is *fused*: its parameter row sits at its position in
    :attr:`mean`, :attr:`scale`, :attr:`x_offset`, :attr:`coef`,
    :attr:`y_offset`, :attr:`sign` and :attr:`accept_nonneg`, which start
    out as the arrays of one :class:`FusedStacks` over every such rule.  Any
    other model (a forest, a non-linear kernel, a rule of another width) is
    a *fallback* position (:attr:`fallback`), scored by its own
    :meth:`~ScorableModel.batch_decisions`; its parameter rows are unused
    zeros.  :attr:`context_codes` holds each position's model context.

    :meth:`add` appends a row for a scorer the build did not cover (a
    pinned older version) in amortised O(its models): arrays grow by
    doubling, and a written row or position never changes, so a pass that
    holds an older row index stays correct while another appends.  The
    owner serializes appends.

    Parameters
    ----------
    scorers:
        The scorers to serve; rows ``0, 1, ...`` follow their first
        occurrences (a repeated scorer shares one row).
    stack_cache:
        Optional :class:`FusedStackCache` the build takes its
        :class:`FusedStacks` from instead of stacking the rules afresh.

    Attributes
    ----------
    rows:
        The owner's lookup keys mapped to rows (the frontend keys by
        ``(user_id, pinned version or None)``); the table itself never
        reads it.
    """

    #: Position-indexed arrays, grown together.
    _POSITION_ARRAYS = (
        "mean", "scale", "x_offset", "coef", "y_offset", "sign",
        "accept_nonneg", "context_codes", "fallback",
    )
    #: Row-indexed arrays, grown together.
    _ROW_ARRAYS = ("positions", "row_fallback", "versions")

    def __init__(
        self,
        scorers: Sequence[BatchScorer],
        stack_cache: FusedStackCache | None = None,
    ) -> None:
        distinct = list({id(scorer): scorer for scorer in scorers}.values())
        model_by_rule: dict[int, ScorableModel] = {}
        rules: dict[int, LinearDecisionRule] = {}
        for scorer in distinct:
            for model in scorer.model_by_code():
                rule = _decision_rule(model)
                if rule is not None:
                    rules[id(rule)] = rule
                    model_by_rule[id(rule)] = model
        widths = Counter(rule.coef.shape[-1] for rule in rules.values())
        self.width = widths.most_common(1)[0][0] if widths else 0
        # Id-sorted: the canonical FusedStacks order (and cache key).
        fused = sorted(
            (rule for rule in rules.values() if rule.coef.shape[-1] == self.width),
            key=id,
        )
        if fused:
            stacks = (
                stack_cache.stacks_for(fused)
                if stack_cache is not None
                else FusedStacks.build(fused)
            )
            params = (
                stacks.mean, stacks.scale, stacks.x_offset, stacks.coef,
                stacks.y_offset, stacks.sign, stacks.accept_nonneg,
            )
        else:
            params = (np.zeros((0, 0)),) * 4 + (np.zeros(0),) * 2 + (
                np.zeros(0, dtype=bool),
            )
        (
            self.mean, self.scale, self.x_offset, self.coef,
            self.y_offset, self.sign, self.accept_nonneg,
        ) = params
        self._models = [model_by_rule[id(rule)] for rule in fused]
        self._position_by_model = {
            id(model): position for position, model in enumerate(self._models)
        }
        self.context_codes = np.fromiter(
            (CONTEXT_CODES[model.context] for model in self._models),
            dtype=np.int8,
            count=len(self._models),
        )
        self.fallback = np.zeros(len(self._models), dtype=bool)
        entries = [
            [self._position_for(model) for model in scorer.model_by_code()]
            for scorer in distinct
        ]
        self.positions = np.array(entries, dtype=np.intp).reshape(
            len(distinct), len(CONTEXT_BY_CODE)
        )
        self.row_fallback = self.fallback[self.positions].any(axis=1)
        self.versions = np.fromiter(
            (scorer.bundle.version for scorer in distinct),
            dtype=np.int64,
            count=len(distinct),
        )
        self._scorers = distinct
        self._row_by_scorer = {id(scorer): row for row, scorer in enumerate(distinct)}
        self.rows: dict = {}

    def __len__(self) -> int:
        """Rows served."""
        return len(self._scorers)

    def scorer(self, row: int) -> BatchScorer:
        """The scorer row *row* stands for."""
        return self._scorers[row]

    def model(self, position: int) -> ScorableModel:
        """The model position *position* stands for."""
        return self._models[position]

    def add(self, scorer: BatchScorer) -> int:
        """*scorer*'s row, appended (with any new models) if it has none."""
        row = self._row_by_scorer.get(id(scorer))
        if row is not None:
            return row
        entries = [self._position_for(model) for model in scorer.model_by_code()]
        row = len(self._scorers)
        for name in self._ROW_ARRAYS:
            setattr(self, name, _grown(getattr(self, name), row + 1))
        self.positions[row] = entries
        self.row_fallback[row] = self.fallback[entries].any()
        self.versions[row] = scorer.bundle.version
        # Published last: the row is complete before anyone can look it up.
        self._scorers.append(scorer)
        self._row_by_scorer[id(scorer)] = row
        return row

    def _position_for(self, model: ScorableModel) -> int:
        """*model*'s position, appended if it has none."""
        position = self._position_by_model.get(id(model))
        if position is not None:
            return position
        position = len(self._models)
        for name in self._POSITION_ARRAYS:
            setattr(self, name, _grown(getattr(self, name), position + 1))
        rule = _decision_rule(model)
        if rule is not None and rule.coef.shape[-1] == self.width:
            self.mean[position] = rule.mean
            self.scale[position] = rule.scale
            self.x_offset[position] = rule.x_offset
            self.coef[position] = rule.coef
            self.y_offset[position] = rule.y_offset
            self.sign[position] = rule.sign
            self.accept_nonneg[position] = rule.accept_on_nonnegative
        else:
            self.fallback[position] = True
        self.context_codes[position] = CONTEXT_CODES[model.context]
        self._models.append(model)
        self._position_by_model[id(model)] = position
        return position


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
    table: ServingTable,
    rows: Sequence[int] | np.ndarray,
    stacked: np.ndarray,
    lengths: Sequence[int] | np.ndarray,
    codes: np.ndarray,
) -> StackedScoreResult:
    """Score an already-stacked fleet batch in one coalesced pass.

    The one fused pass behind every authenticate door: the serving
    frontend calls it with its per-generation :class:`ServingTable`, and
    :func:`score_requests` with a table over its own scorers.  The caller
    hands one contiguous ``(total_windows, n_features)`` block plus
    per-request *lengths* — exactly the shape the binary wire codec decodes
    a batch frame into with :func:`np.frombuffer` views — so the hot path
    never concatenates, copies or materializes per-request objects.

    Every window resolves to its model's position with one gather,
    ``table.positions[np.repeat(rows, lengths), codes]``.  Windows at fused
    positions are scored in a *single* gather-and-einsum over the whole
    batch, whatever the number of users and versions; windows at fallback
    positions (forests, non-linear kernels) take one vectorized
    :meth:`~ScorableModel.batch_decisions` call per model, still shared
    across requests.

    Parameters
    ----------
    table:
        The :class:`ServingTable` holding every request's scorer.
    rows:
        Each request's row in *table*.
    stacked:
        The combined feature rows, request slices back to back.
    lengths:
        Windows per request; must sum to ``len(stacked)``.
    codes:
        Per-window ``int8`` context codes (already encoded; label input is
        accepted and encoded via :func:`encode_contexts`).

    Returns
    -------
    StackedScoreResult
        Columnar scores/decisions plus the request slice offsets.  Scores
        and decisions are bit-for-bit identical to scoring each request
        through its own scorer: the fused pass performs exactly the
        elementwise standardisation, centring, projection and sign
        adjustment of the per-model path.

    Raises
    ------
    ValueError
        If the shapes disagree, a context code is out of range, or the
        feature width does not match a selected model.
    """
    stacked = canonicalize_rows(stacked)
    lengths = np.asarray(lengths, dtype=np.intp)
    rows = np.asarray(rows, dtype=np.intp)
    n_requests = len(lengths)
    if len(rows) != n_requests:
        raise ValueError(
            f"got {len(rows)} table rows for {n_requests} request lengths"
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
    model_versions = table.versions[rows]
    if total == 0:
        return StackedScoreResult(
            scores=np.empty(0),
            accepted=np.empty(0, dtype=bool),
            model_context_codes=np.empty(0, dtype=np.int8),
            model_versions=model_versions,
            offsets=offsets,
        )

    positions = table.positions[np.repeat(rows, lengths), codes]
    scores = np.empty(total)
    accepted = np.empty(total, dtype=bool)
    fused: np.ndarray | slice = slice(None)
    fallback = None
    if table.row_fallback[rows].any():
        is_fallback = table.fallback[positions]
        fused = np.flatnonzero(~is_fallback)
        fallback = np.flatnonzero(is_fallback)
    fused_positions = positions[fused]
    if len(fused_positions) and stacked.shape[1] != table.width:
        # The fallback path rejects this inside scaler.transform; the fused
        # gather must refuse too, or NumPy broadcasting (e.g. width-1 rows
        # against d-wide parameters) would silently score — and possibly
        # accept — malformed probes.
        context = CONTEXT_BY_CODE[table.context_codes[fused_positions[0]]]
        raise ValueError(
            f"feature rows have {stacked.shape[1]} columns but the model "
            f"for context {context.value!r} was trained on {table.width} "
            f"features"
        )
    if fallback is not None:
        for position, group in _rows_by_slot(positions[fallback]):
            windows = fallback[group]
            scores[windows], accepted[windows] = table.model(
                position
            ).batch_decisions(stacked[windows])
    if len(fused_positions):
        # One parameter row per window, then the whole batch reduces in a
        # single einsum.  Each elementwise operation matches the per-model
        # path exactly, so the fused scores are bit-for-bit identical.
        centred = (stacked[fused] - table.mean[fused_positions]) / table.scale[
            fused_positions
        ] - table.x_offset[fused_positions]
        raw = (
            np.einsum("ij,ij->i", centred, table.coef[fused_positions])
            + table.y_offset[fused_positions]
        )
        scores[fused] = table.sign[fused_positions] * raw
        accepted[fused] = np.where(
            table.accept_nonneg[fused_positions], raw >= 0.0, raw < 0.0
        )

    return StackedScoreResult(
        scores=scores,
        accepted=accepted,
        model_context_codes=table.context_codes[positions],
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
    batch, a :class:`ServingTable` is built over *scorers*, and the batch
    is scored by :func:`score_stacked` — the very pass the serving
    frontend runs against its per-generation table.

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
        Optional :class:`FusedStackCache`.  When given, the table takes the
        stacked parameter matrices of the fused model set from it instead
        of rebuilding them on every call; results are identical either way
        because the cached stacks are built from the very same immutable
        rules.

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
    table = ServingTable(scorers, stack_cache)
    rows = [table.add(scorer) for scorer in scorers]
    return score_stacked(table, rows, stacked, lengths, codes).results()


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
