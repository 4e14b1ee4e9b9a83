"""Persistent tuning database: per-key files, atomic replace.

Winners of an offline schedule search live on disk keyed by
``(workload, shape key)``, one record per key in a
:class:`repro.store.KeyedFileStore` at ``<root>/entries/`` (suffix
``.json``) — the same store the shard artifact index sits on, so
concurrent tuners (and tuner-vs-server races) are last-writer-wins per
key, never lost-update across keys.

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

import json
import os
import threading
from typing import Dict, List, Optional

from ..store import KeyedFileStore
from .schedule import Schedule, active_schedule

__all__ = ["TUNING_DB_VERSION", "TuningDB", "tuning_key",
           "shape_key_text", "serving_key", "serving_schedule"]

#: bump on any incompatible change to the record layout
TUNING_DB_VERSION = 3


def shape_key_text(signature) -> str:
    """Canonical text of a shape signature (concrete or symbolic).

    Accepts ``repro.eval.cache.shape_signature`` tuples; any non-JSON
    entry (a ``SymInt`` duck dimension, say) is rendered through
    ``str`` so family signatures with ``"*"`` placeholders and concrete
    signatures share one canonical form.
    """
    return json.dumps(signature, sort_keys=True, separators=(",", ":"),
                      default=str)


def tuning_key(workload: str, shape_key: str) -> tuple:
    """The database key one tuned schedule lives under.  The schedule
    is measured on the host that runs it, so no cost-model platform is
    part of the key: one entry serves requests priced on any platform."""
    return (str(workload), str(shape_key))


def serving_key(workload: str, signature: tuple, family=None) -> tuple:
    """The key the schedule for one input lives under — where the shape
    half of a tuning key is decided, for the tuner (which writes under
    it) and for every run (which reads under it) alike.  Traffic served
    by a :class:`~repro.symshape.family.ShapeFamily` keys on the
    family's structure (``family.shape_key()``: symbolic dims as
    ``"*"``), everything else on the concrete ``signature``."""
    shape = family.shape_key() if family is not None else signature
    return tuning_key(workload, shape_key_text(shape))


def serving_schedule(db: Optional["TuningDB"], workload: str,
                     signature: tuple, family=None):
    """Which schedule serves this input: ``(schedule, tuned,
    schedule_id)``.  An explicit ``schedule_scope`` wins; otherwise a
    hit in ``db`` under :func:`serving_key` upgrades the run from the
    default lowering (``tuned`` unless the recorded best *is* the
    default).  ``schedule`` is None when the ambient schedule should
    stay — pass it straight to ``schedule_scope``.  A pure read: the
    serve path never searches."""
    active = active_schedule()
    sched = db.best(serving_key(workload, signature, family)) \
        if db is not None and active.is_default else None
    if sched is None:
        return None, False, active.schedule_id
    return sched, not sched.is_default, sched.schedule_id


class TuningDB:
    """On-disk map ``(workload, shape key) -> best Schedule``.

    Thread-safe; safe to share one root directory across processes
    (each key owns its own atomically-replaced file).  ``hits`` /
    ``misses`` / ``rejected`` / ``puts`` / ``searches`` counters make
    hot-path behaviour observable.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self._store = KeyedFileStore(os.path.join(root, "entries"), ".json")
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

    def _load_record(self, key_text: str) -> Optional[dict]:
        """Read + validate one record; None (and ``rejected`` when the
        file existed but was corrupt, version-skewed, filed under
        another key, or out of the schedule space) on any failure."""
        try:
            record = self._store.read(key_text)
            if record is None:
                return None
            if record.get("version") != TUNING_DB_VERSION \
                    or record.get("key") != key_text:
                raise ValueError("stale or mismatched record")
            Schedule.from_dict(record.get("schedule", {}))
        except (OSError, TypeError, ValueError):
            with self._lock:
                self.rejected += 1
            return None
        return record

    # -- API -----------------------------------------------------------

    def put(self, key: tuple, sched: Schedule,
            meta: Optional[dict] = None) -> str:
        """Persist ``sched`` as the best known schedule for ``key``;
        returns the entry path.  ``meta`` (wall-clock numbers,
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
        path = self._store.write(key_text, record, indent=1)
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
            known = key_text in self._memo
            sched = self._memo.get(key_text)
        if not known:
            record = self._load_record(key_text)
            sched = Schedule.from_dict(record["schedule"]) \
                if record is not None else None
        with self._lock:
            if not known:
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
        for record in self._store.scan():
            try:
                key = json.loads(record["key"])
            except (ValueError, KeyError, TypeError):
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
        """Counters, read atomically, plus the entry-file count
        (``ServerStats.to_dict`` pulls this when asked)."""
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "rejected": self.rejected, "puts": self.puts,
                    "searches": self.searches, "size": len(self._store)}
