"""Persistent tuning database: per-key files, atomic replace.

Winners of an offline schedule search live on disk keyed by
``(workload, shape key, platform)``.  The layout deliberately repeats
the :class:`repro.shard.artifact.ArtifactStore` idiom — one tiny JSON
record per key under ``<root>/entries/<sha256(key)>.json``, written via
temp-file + ``os.replace`` — because a monolithic index file is a
cross-process read-modify-write that measurably *lost* concurrent puts
in the artifact store's history; per-key files make concurrent tuners
(and tuner-vs-server races) last-writer-wins per key instead of
lost-update across keys.

Read-path contract: :meth:`TuningDB.best` never raises.  A missing,
corrupt, stale (version-skewed), mismatched, or out-of-space record
counts in ``rejected``/``misses`` and returns ``None`` — the caller
runs the default schedule.  Records are memoized after the first disk
read, so warm serve traffic pays one ``open()`` per key per process
lifetime and zero searches (``searches`` is only ever incremented by
:func:`repro.tune.search.tune_workload`; the counters are the CI
witness that the hot path never tunes).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
from typing import Dict, List, Optional, Tuple

from .schedule import Schedule

__all__ = ["TUNING_DB_VERSION", "TuningDB", "tuning_key",
           "shape_key_text", "atomic_write"]

#: bump on any incompatible change to the record layout
TUNING_DB_VERSION = 1


def shape_key_text(signature) -> str:
    """Canonical text of a shape signature (concrete or symbolic).

    Accepts the harness's ``_shape_signature`` tuples; any non-JSON
    entry (a ``SymInt`` duck dimension, say) is rendered through
    ``str`` so family signatures with ``"*"`` placeholders and concrete
    signatures share one canonical form.
    """
    def render(entry):
        if isinstance(entry, (list, tuple)):
            return [render(e) for e in entry]
        if isinstance(entry, bool) or entry is None:
            return entry
        if isinstance(entry, (int, float, str)):
            return entry
        return str(entry)

    return json.dumps(render(signature), sort_keys=True,
                      separators=(",", ":"))


def tuning_key(workload: str, shape_key: str, platform: str) -> tuple:
    """The database key one tuned schedule lives under."""
    return (str(workload), str(shape_key), str(platform))


def atomic_write(root: str, path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` so readers see the old file or the
    new one, never a torn one: a temp file under ``root`` (same
    filesystem), then ``os.replace``.  The per-key-file stores
    (:class:`TuningDB`, ``shard.artifact.ArtifactStore``) share it."""
    fd, tmp = tempfile.mkstemp(dir=root, prefix=".tmp-")
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


class TuningDB:
    """On-disk map ``(workload, shape key, platform) -> best Schedule``.

    Thread-safe; safe to share one root directory across processes
    (each key owns its own atomically-replaced file).  ``hits`` /
    ``misses`` / ``rejected`` / ``puts`` / ``searches`` counters make
    hot-path behaviour observable.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self._entries_dir = os.path.join(root, "entries")
        os.makedirs(self._entries_dir, exist_ok=True)
        self._lock = threading.Lock()
        #: key text -> (schedule or None) memo; None memoizes a
        #: confirmed miss so repeated cold lookups stay cheap
        self._memo: Dict[str, Optional[Schedule]] = {}
        self.hits = 0
        self.misses = 0
        self.rejected = 0
        self.puts = 0
        #: schedule searches run against this DB — incremented ONLY by
        #: the offline tuner, so a warm serve run proves "0 tuning cost
        #: on the hot path" by this staying 0
        self.searches = 0

    # -- internals -----------------------------------------------------

    @staticmethod
    def _key_text(key: tuple) -> str:
        return json.dumps(list(key), sort_keys=True, separators=(",", ":"))

    def _entry_path(self, key_text: str) -> str:
        digest = hashlib.sha256(key_text.encode("utf-8")).hexdigest()
        return os.path.join(self._entries_dir, digest + ".json")

    def _load_record(self, key_text: str) -> Optional[dict]:
        """Read + validate one record; None (and ``rejected`` when the
        file existed but was unusable) on any failure."""
        path = self._entry_path(key_text)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            with self._lock:
                self.rejected += 1
            return None
        if not isinstance(record, dict) \
                or record.get("version") != TUNING_DB_VERSION \
                or record.get("key") != key_text:
            with self._lock:
                self.rejected += 1
            return None
        try:
            Schedule.from_dict(record.get("schedule", {}))
        except (TypeError, ValueError):
            with self._lock:
                self.rejected += 1
            return None
        return record

    # -- API -----------------------------------------------------------

    def put(self, key: tuple, sched: Schedule,
            meta: Optional[dict] = None) -> str:
        """Persist ``sched`` as the best known schedule for ``key``;
        returns the entry path.  ``meta`` (modeled/wall numbers,
        speedup, ...) rides along for reports."""
        key_text = self._key_text(key)
        record = {
            "version": TUNING_DB_VERSION,
            "key": key_text,
            "schedule": sched.to_dict(),
            "schedule_id": sched.schedule_id,
        }
        if meta:
            record["meta"] = {k: v for k, v in meta.items()
                              if isinstance(v, (int, float, str, bool))
                              or v is None}
        path = self._entry_path(key_text)
        atomic_write(self.root, path, json.dumps(
            record, sort_keys=True, indent=1).encode("utf-8"))
        with self._lock:
            self.puts += 1
            self._memo[key_text] = sched
        return path

    def best(self, key: tuple) -> Optional[Schedule]:
        """The best known schedule for ``key``; None = run the default.

        Never raises; never searches.  Memoized after the first disk
        read (``put`` through the same instance refreshes the memo).
        """
        key_text = self._key_text(key)
        with self._lock:
            if key_text in self._memo:
                sched = self._memo[key_text]
                if sched is None:
                    self.misses += 1
                else:
                    self.hits += 1
                return sched
        record = self._load_record(key_text)
        sched = Schedule.from_dict(record["schedule"]) \
            if record is not None else None
        with self._lock:
            self._memo[key_text] = sched
            if sched is None:
                self.misses += 1
            else:
                self.hits += 1
        return sched

    def get_record(self, key: tuple) -> Optional[dict]:
        """The raw validated record (reports read ``meta`` through
        this); no memoization, no hit/miss accounting."""
        return self._load_record(self._key_text(key))

    def keys(self) -> List[tuple]:
        """Every key currently stored (scans the entry files)."""
        out = []
        try:
            names = os.listdir(self._entries_dir)
        except OSError:
            return out
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self._entries_dir, name), "r",
                          encoding="utf-8") as fh:
                    record = json.load(fh)
                key = json.loads(record["key"])
            except (OSError, ValueError, KeyError, TypeError):
                continue
            if isinstance(key, list):
                out.append(tuple(key))
        return sorted(out)

    def record_search(self) -> None:
        """Count one offline schedule search (tuner-only)."""
        with self._lock:
            self.searches += 1

    def invalidate(self, key: tuple) -> None:
        """Drop the in-memory memo for ``key`` (tests use this to
        observe on-disk corruption through a live instance)."""
        with self._lock:
            self._memo.pop(self._key_text(key), None)

    def snapshot(self) -> Dict[str, int]:
        """Counters, read atomically (ServerStats attaches this)."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "rejected": self.rejected, "puts": self.puts,
                    "searches": self.searches,
                    "size": len([1 for _ in self._iter_entry_names()])}

    def _iter_entry_names(self):
        try:
            for name in os.listdir(self._entries_dir):
                if name.endswith(".json"):
                    yield name
        except OSError:
            return
