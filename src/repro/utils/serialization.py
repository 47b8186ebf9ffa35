"""Lightweight JSON serialization for models, profiles and experiment results.

The cloud authentication server in the paper ships trained authentication
models to the smartphone as parameter files.  We mirror that by serialising
model parameters and experiment outputs to JSON, converting NumPy containers
to plain Python types on the way out and back again on the way in.
"""

from __future__ import annotations

import json
import os
import uuid
from pathlib import Path
from typing import Any

import numpy as np


def _to_jsonable(value: Any) -> Any:
    """Recursively convert NumPy scalars/arrays into JSON-friendly values."""
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, dict):
        return {str(key): _to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item) for item in value]
    return value


def _from_jsonable(value: Any) -> Any:
    """Inverse of :func:`_to_jsonable`."""
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.asarray(value["__ndarray__"], dtype=value.get("dtype", "float64"))
        return {key: _from_jsonable(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_from_jsonable(item) for item in value]
    return value


def to_jsonable(value: Any) -> Any:
    """Public form of the NumPy→JSON conversion (used by the binary codec's
    frame headers, so header fields follow exactly the JSON wire rules)."""
    return _to_jsonable(value)


def from_jsonable(value: Any) -> Any:
    """Inverse of :func:`to_jsonable`."""
    return _from_jsonable(value)


def to_json_file(payload: Any, path: str | Path, *, indent: int = 2) -> Path:
    """Serialise *payload* to *path*, creating parent directories as needed.

    The payload is written to a dot-prefixed temporary file next to *path*
    and then renamed onto it, so a writer that dies mid-write leaves the
    target's previous content (or no target) behind, never a torn one.  A
    failed write removes the temporary file; one left by a killed process
    never matches a ``v*.json`` glob.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temporary = target.with_name(f".{target.name}.{uuid.uuid4().hex}.tmp")
    try:
        with temporary.open("x", encoding="utf-8") as handle:
            json.dump(_to_jsonable(payload), handle, indent=indent, sort_keys=True)
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return target


def from_json_file(path: str | Path) -> Any:
    """Load a payload previously written by :func:`to_json_file`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return _from_jsonable(json.load(handle))


def dumps(payload: Any) -> str:
    """Serialise *payload* to a JSON string."""
    return json.dumps(_to_jsonable(payload), sort_keys=True)


def loads(text: str) -> Any:
    """Parse a JSON string produced by :func:`dumps`."""
    return _from_jsonable(json.loads(text))
