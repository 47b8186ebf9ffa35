"""Versioned persistence and serving of trained model bundles.

The paper's cloud server ships a freshly trained model bundle to the phone
after every (re)training round but keeps no history: a bad retrain (e.g. on
attacker-polluted data) cannot be undone.  The :class:`ModelRegistry` keeps
every published :class:`~repro.devices.cloud.TrainedModelBundle` version,
serves the newest *active* one, and supports rollback to the previous
version.

Bundles round-trip losslessly through :mod:`repro.utils.serialization`:
fitted estimators are captured attribute-by-attribute (NumPy arrays, nested
estimators and dataclass nodes included), so a reloaded bundle produces
bit-for-bit identical decision scores.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.devices.cloud import ContextModel, TrainedModelBundle
from repro.ml.base import BaseClassifier, BaseEstimator
from repro.ml.preprocessing import StandardScaler
from repro.sensors.types import CoarseContext
from repro.service.protocol import EVICTION_POLICIES as _EVICTION_POLICIES
from repro.utils import serialization

#: Tag keys used in the serialised estimator payloads.
_ESTIMATOR_TAG = "__estimator__"
_DATACLASS_TAG = "__dataclass__"
_TUPLE_TAG = "__tuple__"
_GENERATOR_TAG = "__generator__"


def _qualified_name(obj: Any) -> str:
    cls = type(obj)
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve_class(qualified: str) -> type:
    module_name, _, qualname = qualified.partition(":")
    # Payloads are data from disk: never import modules outside this
    # library (a tampered file must not trigger arbitrary imports).
    if module_name != "repro" and not module_name.startswith("repro."):
        raise ValueError(
            f"refusing to resolve {qualified!r}: registry payloads may only "
            "reference classes from the repro package"
        )
    target: Any = importlib.import_module(module_name)
    for part in qualname.split("."):
        target = getattr(target, part)
    # The getattr chain can traverse into a module's imported attributes
    # (e.g. 'repro.x:np.random.RandomState'), so validate the destination,
    # not just the starting module.
    defined_in = getattr(target, "__module__", "")
    if not isinstance(target, type) or not (
        defined_in == "repro" or defined_in.startswith("repro.")
    ):
        raise ValueError(
            f"refusing to resolve {qualified!r}: it does not name a class "
            "defined in the repro package"
        )
    return target


def encode_state(value: Any) -> Any:
    """Recursively capture *value* into a serialisable structure.

    Handles scalars, strings, ``None``, NumPy arrays/scalars, dicts,
    lists/tuples, :class:`~repro.ml.base.BaseEstimator` instances (fitted
    state included) and dataclasses (e.g. decision-tree nodes).
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value  # serialization._to_jsonable tags ndarrays natively
    if isinstance(value, np.random.Generator):
        # Fitted forests keep a Generator per tree; its bit-generator state
        # is plain ints/strings and round-trips faithfully.
        return {_GENERATOR_TAG: value.bit_generator.state}
    if isinstance(value, BaseEstimator):
        return {
            _ESTIMATOR_TAG: _qualified_name(value),
            "state": {key: encode_state(item) for key, item in vars(value).items()},
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            _DATACLASS_TAG: _qualified_name(value),
            "state": {
                field.name: encode_state(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return {str(key): encode_state(item) for key, item in value.items()}
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [encode_state(item) for item in value]}
    if isinstance(value, list):
        return [encode_state(item) for item in value]
    raise TypeError(
        f"cannot serialise {type(value).__name__!r} values; registry payloads "
        "support scalars, arrays, dicts, lists, estimators and dataclasses"
    )


def decode_state(value: Any) -> Any:
    """Inverse of :func:`encode_state` (after ndarray tags are restored)."""
    if isinstance(value, dict):
        if _ESTIMATOR_TAG in value:
            cls = _resolve_class(value[_ESTIMATOR_TAG])
            instance = cls.__new__(cls)
            instance.__dict__.update(
                {key: decode_state(item) for key, item in value["state"].items()}
            )
            return instance
        if _DATACLASS_TAG in value:
            cls = _resolve_class(value[_DATACLASS_TAG])
            instance = cls.__new__(cls)
            for key, item in value["state"].items():
                # object.__setattr__ also works for frozen dataclasses.
                object.__setattr__(instance, key, decode_state(item))
            return instance
        if _TUPLE_TAG in value:
            return tuple(decode_state(item) for item in value[_TUPLE_TAG])
        if _GENERATOR_TAG in value:
            state = decode_state(value[_GENERATOR_TAG])
            bit_generator_cls = getattr(np.random, state["bit_generator"], None)
            if bit_generator_cls is None or not (
                isinstance(bit_generator_cls, type)
                and issubclass(bit_generator_cls, np.random.BitGenerator)
            ):
                raise ValueError(
                    f"payload names an unknown bit generator {state.get('bit_generator')!r}"
                )
            generator = np.random.Generator(bit_generator_cls())
            generator.bit_generator.state = state
            return generator
        return {key: decode_state(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_state(item) for item in value]
    return value


def bundle_to_payload(bundle: TrainedModelBundle) -> dict[str, Any]:
    """Serialise a trained bundle into a plain structure."""
    return {
        "kind": "trained-model-bundle",
        "user_id": bundle.user_id,
        "feature_names": list(bundle.feature_names),
        "version": int(bundle.version),
        "models": {
            context.value: {
                "context": context.value,
                "scaler": encode_state(model.scaler),
                "classifier": encode_state(model.classifier),
                "n_training_windows": int(model.n_training_windows),
            }
            for context, model in bundle.models.items()
        },
    }


def bundle_from_payload(payload: dict[str, Any]) -> TrainedModelBundle:
    """Rebuild a trained bundle from :func:`bundle_to_payload` output."""
    if payload.get("kind") != "trained-model-bundle":
        raise ValueError("payload does not describe a trained model bundle")
    models: dict[CoarseContext, ContextModel] = {}
    for context_value, entry in payload["models"].items():
        scaler = decode_state(entry["scaler"])
        classifier = decode_state(entry["classifier"])
        if not isinstance(scaler, StandardScaler):
            raise ValueError(f"model {context_value!r} carries an invalid scaler")
        if not isinstance(classifier, BaseClassifier):
            raise ValueError(
                f"model {context_value!r} carries an invalid classifier "
                f"({type(classifier).__name__}); expected a BaseClassifier"
            )
        models[CoarseContext(context_value)] = ContextModel(
            context=CoarseContext(context_value),
            scaler=scaler,
            classifier=classifier,
            n_training_windows=int(entry["n_training_windows"]),
        )
    return TrainedModelBundle(
        user_id=payload["user_id"],
        feature_names=list(payload["feature_names"]),
        models=models,
        version=int(payload["version"]),
    )


@dataclass
class ModelRecord:
    """One published bundle version and its serving status.

    ``last_served`` is a registry-local monotonic tick stamped every time
    :meth:`ModelRegistry.record_for` hands this record out (the gateway
    fetches a bundle once per scorer-cache rebuild, so the tick tracks
    *serving* recency, not per-request traffic); the LRU eviction policy
    orders versions by it.
    """

    user_id: str
    version: int
    bundle: TrainedModelBundle
    active: bool = True
    path: Path | None = None
    last_served: int = 0


#: Directory under the registry root holding context-detector versions.
#: User directories always end in an 8-hex-digit digest, so this name can
#: never collide with one.
_DETECTOR_DIR = "_context-detector"


def detector_to_payload(
    scaler: StandardScaler, classifier: BaseClassifier, version: int
) -> dict[str, Any]:
    """Serialise a user-agnostic context detector into a plain structure."""
    return {
        "kind": "context-detector",
        "version": int(version),
        "scaler": encode_state(scaler),
        "classifier": encode_state(classifier),
    }


def detector_from_payload(
    payload: dict[str, Any],
) -> tuple[StandardScaler, BaseClassifier, int]:
    """Rebuild a context detector from :func:`detector_to_payload` output."""
    if payload.get("kind") != "context-detector":
        raise ValueError("payload does not describe a context detector")
    scaler = decode_state(payload["scaler"])
    classifier = decode_state(payload["classifier"])
    if not isinstance(scaler, StandardScaler):
        raise ValueError("context-detector payload carries an invalid scaler")
    if not isinstance(classifier, BaseClassifier):
        raise ValueError(
            "context-detector payload carries an invalid classifier "
            f"({type(classifier).__name__}); expected a BaseClassifier"
        )
    return scaler, classifier, int(payload["version"])


class ModelRegistry:
    """Stores every published bundle version and serves the newest active one.

    Parameters
    ----------
    root:
        Optional directory; when given, every published bundle is also
        persisted as JSON under ``root/<user-dir>/v<version>.json`` and
        :meth:`load` can rehydrate the registry from disk.
    """

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = Path(root) if root is not None else None
        self._records: dict[str, dict[int, ModelRecord]] = {}
        # The user-agnostic context detector is published and versioned just
        # like authentication bundles, so the serving path can score context
        # detection from the registry instead of trusting device reports.
        self._detectors: dict[int, tuple[StandardScaler, BaseClassifier]] = {}
        self._generation = 0
        self._serve_tick = 0
        # Serializes record mutation and lookup: the threaded transport can
        # run a fleet-wide eviction (a periodic admin call) concurrently
        # with serving lookups and retrain publishes; without the lock an
        # eviction pass iterating a user's version dict would race a
        # publish inserting into it.  Reentrant, because serving helpers
        # (latest_version → record_for) nest.
        self._lock = threading.RLock()

    @property
    def generation(self) -> int:
        """Monotonic counter of serving-state changes.

        Bumped by every :meth:`publish`, :meth:`publish_context_detector`,
        :meth:`rollback`, :meth:`evict` and :meth:`load` that changed what
        the registry serves.  Caches keyed on the served model set (the frontend's
        serving table, the gateway's scorer cache) compare generations
        to decide when to invalidate without subscribing to every mutation.
        """
        with self._lock:
            return self._generation

    # ------------------------------------------------------------------ #
    # publishing
    # ------------------------------------------------------------------ #

    def _user_dir(self, user_id: str) -> Path:
        assert self.root is not None
        safe = "".join(ch if ch.isalnum() or ch in "-_." else "_" for ch in user_id)
        digest = hashlib.sha256(user_id.encode("utf-8")).hexdigest()[:8]
        return self.root / f"{safe or 'user'}-{digest}"

    def _persist_serving_state(self, user_id: str) -> None:
        """Persist retired versions and serving recency across restarts.

        Written on every rollback/eviction: ``retired_versions`` keeps a
        rollback effective after a reload, ``last_served`` keeps the LRU
        eviction ordering meaningful (serves since the last state write are
        lost on a crash — the ticks are not flushed per request — so a
        freshly restarted registry degrades gracefully toward version
        order until versions are served again).
        """
        if self.root is None:
            return
        records = self._records.get(user_id, {})
        retired = sorted(
            version for version, record in records.items() if not record.active
        )
        last_served = {
            str(version): record.last_served
            for version, record in records.items()
            if record.last_served
        }
        serialization.to_json_file(
            {
                "kind": "registry-state",
                "user_id": user_id,
                "retired_versions": retired,
                "last_served": last_served,
            },
            self._user_dir(user_id) / "state.json",
        )

    def publish(self, bundle: TrainedModelBundle) -> ModelRecord:
        """Register (and optionally persist) a new bundle version.

        Raises
        ------
        ValueError
            If this user already has a bundle with the same version number.
        """
        with self._lock:
            versions = self._records.setdefault(bundle.user_id, {})
            if bundle.version in versions:
                raise ValueError(
                    f"user {bundle.user_id!r} already has a published version "
                    f"{bundle.version}; versions are immutable"
                )
            record = ModelRecord(
                user_id=bundle.user_id, version=bundle.version, bundle=bundle
            )
            if self.root is not None:
                path = self._user_dir(bundle.user_id) / f"v{bundle.version}.json"
                serialization.to_json_file(bundle_to_payload(bundle), path)
                record.path = path
            versions[bundle.version] = record
            self._generation += 1
            return record

    # ------------------------------------------------------------------ #
    # context detector
    # ------------------------------------------------------------------ #

    def publish_context_detector(
        self, scaler: StandardScaler, classifier: BaseClassifier
    ) -> int:
        """Register (and optionally persist) a new context-detector version.

        Returns the version number assigned to this detector.
        """
        if not isinstance(scaler, StandardScaler):
            raise ValueError("scaler must be a fitted StandardScaler")
        if not isinstance(classifier, BaseClassifier):
            raise ValueError("classifier must be a fitted BaseClassifier")
        with self._lock:
            version = max(self._detectors, default=0) + 1
            self._detectors[version] = (scaler, classifier)
            self._generation += 1
            if self.root is not None:
                serialization.to_json_file(
                    detector_to_payload(scaler, classifier, version),
                    self.root / _DETECTOR_DIR / f"v{version}.json",
                )
            return version

    def context_detector_versions(self) -> list[int]:
        """All published context-detector versions (ascending)."""
        with self._lock:
            return sorted(self._detectors)

    def context_detector(
        self, version: int | None = None
    ) -> tuple[StandardScaler, BaseClassifier]:
        """The served context detector (a specific version, or the newest).

        Raises
        ------
        KeyError
            If no context detector has been published.
        """
        with self._lock:
            if version is None:
                if not self._detectors:
                    raise KeyError(
                        "no context detector published; train one and publish "
                        "it via publish_context_detector()"
                    )
                version = max(self._detectors)
            try:
                return self._detectors[version]
            except KeyError:
                raise KeyError(
                    f"no published context-detector version {version}"
                ) from None

    # ------------------------------------------------------------------ #
    # serving
    # ------------------------------------------------------------------ #

    def users(self) -> list[str]:
        """Every user with at least one published bundle."""
        with self._lock:
            return sorted(self._records)

    def versions(self, user_id: str) -> list[int]:
        """All published version numbers for *user_id* (ascending)."""
        with self._lock:
            return sorted(self._records.get(user_id, {}))

    def active_versions(self, user_id: str) -> list[int]:
        """Versions currently eligible for serving (ascending)."""
        with self._lock:
            return sorted(
                version
                for version, record in self._records.get(user_id, {}).items()
                if record.active
            )

    def latest_version(self, user_id: str) -> int:
        """The version :meth:`bundle_for` would serve right now.

        Raises
        ------
        KeyError
            If the user has no active published versions.
        """
        with self._lock:
            active = self.active_versions(user_id)
            if not active:
                raise KeyError(
                    f"no active model versions published for {user_id!r}"
                )
            return active[-1]

    def record_for(self, user_id: str, version: int | None = None) -> ModelRecord:
        """The record serving *user_id* (a specific version, or the newest).

        Raises
        ------
        KeyError
            If the user (or the requested version) has never been published.
        """
        with self._lock:
            if version is None:
                version = self.latest_version(user_id)
            try:
                record = self._records[user_id][version]
            except KeyError:
                raise KeyError(
                    f"no published version {version} for user {user_id!r}"
                ) from None
            self._serve_tick += 1
            record.last_served = self._serve_tick
            return record

    def bundle_for(self, user_id: str, version: int | None = None) -> TrainedModelBundle:
        """The bundle serving *user_id* (a specific version, or the newest).

        Raises
        ------
        KeyError
            If the user (or the requested version) has never been published.
        """
        return self.record_for(user_id, version).bundle

    def rollback(self, user_id: str) -> ModelRecord:
        """Retire the newest active version and serve the previous one.

        The retired version stays stored (and addressable by explicit
        version number) but is no longer eligible as the serving default.

        Returns
        -------
        ModelRecord
            The record now serving (the previous active version).

        Raises
        ------
        ValueError
            If fewer than two active versions exist — the registry never
            rolls back to nothing.
        """
        with self._lock:
            active = self.active_versions(user_id)
            if len(active) < 2:
                raise ValueError(
                    f"cannot roll back {user_id!r}: need at least two active "
                    f"versions, have {len(active)}"
                )
            self._records[user_id][active[-1]].active = False
            self._generation += 1
            self._persist_serving_state(user_id)
            return self._records[user_id][active[-2]]

    # ------------------------------------------------------------------ #
    # eviction
    # ------------------------------------------------------------------ #

    #: Eviction policies :meth:`evict` accepts — the same tuple the wire
    #: protocol's :class:`~repro.service.protocol.EvictRequest` validates
    #: against, so the API and the implementation can never drift apart.
    EVICTION_POLICIES = _EVICTION_POLICIES

    def _keep_set(self, user_id: str, policy: str, max_versions: int) -> set[int]:
        """The versions eviction must keep for *user_id* under *policy*."""
        records = self._records[user_id]
        if policy == "max_versions":
            ranked = sorted(records)  # keep the newest version numbers
        else:  # "lru": keep the most recently served (ties -> newer wins)
            ranked = [
                record.version
                for record in sorted(
                    records.values(), key=lambda r: (r.last_served, r.version)
                )
            ]
        keep = set(ranked[-max_versions:])
        # The serving bundle is never evicted, even beyond the budget; a
        # user whose versions are somehow all retired keeps the newest.
        active = self.active_versions(user_id)
        keep.add(active[-1] if active else max(records))
        return keep

    def evict(
        self,
        policy: str = "max_versions",
        max_versions: int = 4,
        user_id: str | None = None,
    ) -> dict[str, list[int]]:
        """Drop old bundle versions, keeping the serving bundle safe.

        Long-lived fleets retrain indefinitely; every round publishes a new
        immutable version, so without eviction registry memory (and disk,
        for persistent registries) grows without bound.  Eviction removes
        records — and deletes their persisted payload files — by policy:

        * ``"max_versions"`` keeps each user's *newest* ``max_versions``
          version numbers;
        * ``"lru"`` keeps each user's ``max_versions`` most recently
          *served* versions (see :attr:`ModelRecord.last_served`), which
          preserves an old version an operator still pins explicitly.

        The currently serving version (newest active) is always kept, even
        when it falls outside the policy's budget, so eviction can never
        break the serving path.  Evicting bumps :attr:`generation` exactly
        like publish/rollback, invalidating serving caches.

        Parameters
        ----------
        policy:
            ``"max_versions"`` (default) or ``"lru"``.
        max_versions:
            Versions each policy keeps per user (>= 1).
        user_id:
            Restrict the pass to one user (default: every user).

        Returns
        -------
        dict[str, list[int]]
            Evicted version numbers per user; users with nothing to evict
            are omitted.

        Raises
        ------
        ValueError
            If *policy* is unknown or ``max_versions < 1``.
        KeyError
            If *user_id* names a user with no published versions.
        """
        if policy not in self.EVICTION_POLICIES:
            raise ValueError(
                f"policy must be one of {self.EVICTION_POLICIES}, got {policy!r}"
            )
        if max_versions < 1:
            raise ValueError(f"max_versions must be >= 1, got {max_versions}")
        with self._lock:
            if user_id is not None and user_id not in self._records:
                raise KeyError(f"no published versions for user {user_id!r}")
            evicted: dict[str, list[int]] = {}
            for uid in [user_id] if user_id is not None else list(self._records):
                records = self._records[uid]
                keep = self._keep_set(uid, policy, max_versions)
                dropped = sorted(
                    version for version in records if version not in keep
                )
                if not dropped:
                    continue
                for version in dropped:
                    record = records.pop(version)
                    if record.path is not None:
                        record.path.unlink(missing_ok=True)
                self._persist_serving_state(uid)
                evicted[uid] = dropped
            if evicted:
                self._generation += 1
            return evicted

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #

    def load(self) -> int:
        """Rehydrate the registry from ``root``; returns items loaded.

        Already-registered (user, version) pairs are left untouched, so
        ``load`` is safe to call on a warm registry.

        Raises
        ------
        RuntimeError
            If this registry was built without a persistence root.
        ValueError
            If a payload on disk is malformed or names a class outside the
            :mod:`repro` package.
        """
        if self.root is None:
            raise RuntimeError("this registry has no persistence root configured")
        loaded = 0
        if not self.root.exists():
            return loaded
        for path in sorted((self.root / _DETECTOR_DIR).glob("v*.json")):
            scaler, classifier, version = detector_from_payload(
                serialization.from_json_file(path)
            )
            if version not in self._detectors:
                self._detectors[version] = (scaler, classifier)
                loaded += 1
        for path in sorted(self.root.glob("*/v*.json")):
            if path.parent.name == _DETECTOR_DIR:
                continue
            payload = serialization.from_json_file(path)
            bundle = bundle_from_payload(payload)
            versions = self._records.setdefault(bundle.user_id, {})
            if bundle.version in versions:
                continue
            versions[bundle.version] = ModelRecord(
                user_id=bundle.user_id,
                version=bundle.version,
                bundle=bundle,
                path=path,
            )
            loaded += 1
        # Re-apply persisted serving state (rollbacks, LRU recency) after
        # the bundles.
        for user_id, versions in self._records.items():
            state_path = self._user_dir(user_id) / "state.json"
            if not state_path.exists():
                continue
            state = serialization.from_json_file(state_path)
            for version in state.get("retired_versions", []):
                record = versions.get(int(version))
                if record is not None:
                    record.active = False
            for version, tick in state.get("last_served", {}).items():
                record = versions.get(int(version))
                if record is not None and record.last_served == 0:
                    record.last_served = int(tick)
                    self._serve_tick = max(self._serve_tick, int(tick))
        if loaded:
            self._generation += 1
        return loaded

    def roundtrip(self, bundle: TrainedModelBundle) -> TrainedModelBundle:
        """Serialise and rebuild *bundle* through the JSON wire format.

        Used by tests to prove the wire format is lossless, and useful for
        shipping a bundle to a device without touching the filesystem.
        """
        return bundle_from_payload(serialization.loads(serialization.dumps(bundle_to_payload(bundle))))
