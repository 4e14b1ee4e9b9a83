"""The one keyed file store: per-key JSON records, replaced atomically.

The compile-artifact index (:class:`repro.shard.artifact.ArtifactStore`)
sits on :class:`KeyedFileStore`: one tiny JSON record per key under
``<directory>/<sha256(key)>``.  A monolithic index file is a
cross-process read-modify-write that measurably *lost* concurrent puts
in the artifact store's history; per-key files make concurrent writers
last-writer-wins per key, and a reader sees the old record or the new
one, never a torn one.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from typing import Iterator, List, Optional

__all__ = ["KeyedFileStore", "atomic_write"]

_TMP_PREFIX = ".tmp-"


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` so readers see the old file or the
    new one, never a torn one: a temp file beside it (same filesystem),
    then ``os.replace``."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                               prefix=_TMP_PREFIX)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    if not isinstance(record, dict):
        raise ValueError(f"{path}: record is not a JSON object")
    return record


class KeyedFileStore:
    """A directory of JSON records, one file per canonical key text;
    shareable across threads and processes.  What a record means —
    validation, memoization, counters — belongs to the map on top."""

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def path(self, key_text: str) -> str:
        """The file ``key_text``'s record lives in."""
        digest = hashlib.sha256(key_text.encode("utf-8")).hexdigest()
        return os.path.join(self.directory, digest)

    def read(self, key_text: str) -> Optional[dict]:
        """The record stored under ``key_text``; None when absent.
        Raises ``OSError``/``ValueError`` when the file exists but is
        unreadable or not a JSON object."""
        try:
            return _load(self.path(key_text))
        except FileNotFoundError:
            return None

    def write(self, key_text: str, record: dict, **json_format) -> str:
        """Atomically replace ``key_text``'s record (key-sorted JSON,
        ``json_format`` passed to ``json.dumps``); returns its path."""
        path = self.path(key_text)
        atomic_write(path, json.dumps(record, sort_keys=True,
                                      **json_format).encode("utf-8"))
        return path

    def _names(self) -> List[str]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return [n for n in names if not n.startswith(_TMP_PREFIX)]

    def __len__(self) -> int:
        return len(self._names())

    def scan(self) -> Iterator[dict]:
        """Every readable record; corrupt or vanishing files are
        skipped, never fatal."""
        for name in self._names():
            try:
                record = _load(os.path.join(self.directory, name))
            except (OSError, ValueError):
                continue
            yield record
