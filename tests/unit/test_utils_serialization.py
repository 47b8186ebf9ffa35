"""Unit tests for JSON serialization helpers."""

import numpy as np
import pytest

from repro.utils import serialization
from repro.utils.serialization import dumps, from_json_file, loads, to_json_file


class TestRoundTrip:
    def test_plain_payload(self, tmp_path):
        payload = {"name": "model", "values": [1, 2, 3], "nested": {"ok": True}}
        path = to_json_file(payload, tmp_path / "payload.json")
        assert from_json_file(path) == payload

    def test_ndarray_roundtrip(self, tmp_path):
        payload = {"weights": np.arange(6, dtype=float).reshape(2, 3)}
        path = to_json_file(payload, tmp_path / "weights.json")
        restored = from_json_file(path)
        np.testing.assert_array_equal(restored["weights"], payload["weights"])
        assert restored["weights"].dtype == payload["weights"].dtype

    def test_numpy_scalars_become_python(self, tmp_path):
        path = to_json_file({"x": np.float64(1.5), "n": np.int64(3)}, tmp_path / "s.json")
        restored = from_json_file(path)
        assert restored == {"x": 1.5, "n": 3}

    def test_creates_parent_directories(self, tmp_path):
        path = to_json_file({"a": 1}, tmp_path / "deep" / "dir" / "f.json")
        assert path.exists()

    def test_string_roundtrip(self):
        payload = {"array": np.array([1.0, 2.0]), "label": "x"}
        restored = loads(dumps(payload))
        np.testing.assert_array_equal(restored["array"], payload["array"])

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            from_json_file(tmp_path / "does-not-exist.json")


class TestCrashSafeWrites:
    def test_failed_write_keeps_old_content_and_leaves_no_stray_file(
        self, tmp_path, monkeypatch
    ):
        path = to_json_file({"version": 1}, tmp_path / "v1.json")

        def torn_dump(payload, handle, **kwargs):
            handle.write('{"vers')
            raise OSError("disk full")

        monkeypatch.setattr(serialization.json, "dump", torn_dump)
        with pytest.raises(OSError, match="disk full"):
            to_json_file({"version": 2}, path)
        monkeypatch.undo()
        assert from_json_file(path) == {"version": 1}
        assert [entry.name for entry in tmp_path.iterdir()] == ["v1.json"]

    def test_overwrite_replaces_content(self, tmp_path):
        path = to_json_file({"version": 1}, tmp_path / "v1.json")
        to_json_file({"version": 2}, path)
        assert from_json_file(path) == {"version": 2}
        assert [entry.name for entry in tmp_path.iterdir()] == ["v1.json"]
