"""The keyed file store both persistent maps sit on."""

import json
import os
from pathlib import Path

import pytest

from repro.store import KeyedFileStore, atomic_write
from repro.tune import TuningDB

REPO = Path(__file__).resolve().parent.parent


def test_round_trip_scan_and_layout(tmp_path):
    store = KeyedFileStore(tmp_path / "entries", ".json")
    assert store.read("k1") is None and len(store) == 0
    path = store.write("k1", {"key": "k1", "v": 1}, indent=1)
    store.write("k2", {"key": "k2", "v": 2})
    store.write("k1", {"key": "k1", "v": 3})  # replace, not append
    assert path == store.path("k1") and path.endswith(".json")
    assert os.path.dirname(path) == str(tmp_path / "entries")
    assert store.read("k1") == {"key": "k1", "v": 3}
    assert len(store) == 2
    assert sorted(r["v"] for r in store.scan()) == [2, 3]
    # no temp file outlives a write
    assert not [n for n in os.listdir(store.directory)
                if n.startswith(".tmp-")]


def test_corrupt_entries_raise_on_read_and_are_skipped_by_scan(tmp_path):
    store = KeyedFileStore(tmp_path)
    store.write("good", {"key": "good"})
    atomic_write(store.path("torn"), b"{ not json")
    atomic_write(store.path("list"), b"[1, 2]")
    with pytest.raises(ValueError):
        store.read("torn")
    with pytest.raises(ValueError):
        store.read("list")
    assert [r["key"] for r in store.scan()] == ["good"]


def test_committed_tune_db_still_loads():
    """The on-disk layout is unchanged: every record of the committed
    ``results/tune_db`` (written before the store was extracted) is
    found under its key and accepted."""
    root = REPO / "results" / "tune_db"
    db = TuningDB(str(root))
    keys = db.keys()
    assert keys and len(keys) == len(os.listdir(root / "entries"))
    for key in keys:
        assert db.best(key) is not None
        assert json.loads(db.get_record(key)["key"]) == list(key)
    snap = db.snapshot()
    assert snap["rejected"] == 0 and snap["misses"] == 0
    assert snap["size"] == len(keys)
