"""The keyed file store the artifact index sits on."""

import multiprocessing
import os

import pytest

from repro.store import KeyedFileStore, atomic_write


def test_round_trip_scan_and_layout(tmp_path):
    store = KeyedFileStore(tmp_path / "entries")
    assert store.read("k1") is None and len(store) == 0
    path = store.write("k1", {"key": "k1", "v": 1}, indent=1)
    store.write("k2", {"key": "k2", "v": 2})
    store.write("k1", {"key": "k1", "v": 3})  # replace, not append
    assert path == store.path("k1")
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


def _put_worker(directory, i):
    store = KeyedFileStore(directory)
    store.write(f"k{i}", {"key": f"k{i}", "i": i})
    store.write("shared", {"key": "shared", "i": i})
    return store.read(f"k{i}") is not None


def test_cross_process_writes_all_land(tmp_path):
    """Writers in separate processes never lose each other's keys, and
    a key they all replace holds one whole record: the last writer's."""
    n = 8
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(4) as pool:
        oks = pool.starmap(_put_worker, [(str(tmp_path), i)
                                         for i in range(n)])
    assert all(oks)
    store = KeyedFileStore(tmp_path)
    assert len(store) == n + 1
    for i in range(n):
        assert store.read(f"k{i}") == {"key": f"k{i}", "i": i}
    assert store.read("shared")["i"] in range(n)
