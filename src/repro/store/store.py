"""Content-addressed, size-capped on-disk artifact store.

Artifacts are gzip-compressed JSON documents addressed by a
content-derived key (:mod:`repro.store.keys`): the key names *what was
analyzed and how*, never when or by whom, so any process that computes
the same fingerprint reads the same artifact.

Concurrency and corruption are handled the only way a shared cache
directory can be: writes go to a unique temp file in the store and
land via atomic ``os.replace`` (a reader never observes a torn
artifact, concurrent writers of the same key just overwrite each other
last-write-wins with identical bytes), and *every* read failure --
missing file, truncated gzip, invalid JSON, wrong format version,
decoder error -- degrades to a cache miss.  A corrupt file is unlinked
best-effort so it cannot miss forever.

Eviction is size-capped LRU over file mtimes: a hit touches the
artifact's mtime, a put evicts oldest-first until the store fits
``max_bytes``.  Races with concurrent workers (a file vanishing
mid-walk) are tolerated everywhere.

One :class:`ArtifactStore` handle may be shared by many threads (the
analysis service's worker pool does): counter updates, the LRU touch,
and the evict scan serialize on an internal lock, so stats never lose
increments and two threads never evict past the cap in parallel.  The
heavy work -- gzip/JSON encode/decode and file I/O of distinct keys --
stays outside the lock.

One store *directory* may additionally be shared by many **processes**
(replica daemons, process-pool workers, suite runners): atomic
``os.replace`` puts were always cross-process-safe, but LRU eviction
and the persisted ``stats.json`` are read-modify-write cycles, so both
run under an advisory ``flock`` on ``<root>/.lock`` -- two replicas
finishing puts at the same moment walk the LRU tail one at a time
(never double-evicting below the cap), and concurrent
:meth:`flush_stats` merges never lose counts or tear the JSON.  On
platforms without ``fcntl`` the lock degrades to the in-process lock
(single-process semantics, exactly what such a host can run).
"""

from __future__ import annotations

import gzip
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

#: bump on ANY change to the artifact payload layout or the canonical
#: fingerprint encoding; it salts every key (see keys.py), so old
#: stores simply miss instead of mis-decoding
#: v2: explicit function-boundary tokens in the program fingerprint
#: stream, canonical (key-sorted) folded-DDG serialization order, and
#: the man-/rgn- incremental artifact levels
#: v3: the execution engine left the key material (one production engine)
STORE_FORMAT_VERSION = 3


@dataclass
class StoreStats:
    """Counters for one store handle (per process / per worker)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    errors: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "errors": self.errors,
        }

    def merge(self, other: Dict[str, int]) -> None:
        self.hits += other.get("hits", 0)
        self.misses += other.get("misses", 0)
        self.puts += other.get("puts", 0)
        self.evictions += other.get("evictions", 0)
        self.errors += other.get("errors", 0)


class _InterProcessLock:
    """Advisory cross-process lock on one file (``flock``-based).

    Reentrant within a process via the paired thread lock: the owning
    thread may nest acquisitions (evict-inside-flush), other threads
    and other processes queue.  The fd is opened per outermost
    acquisition so forked children never share lock state with their
    parent."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._tlock = threading.RLock()
        self._fd: Optional[int] = None
        self._depth = 0

    def __enter__(self) -> "_InterProcessLock":
        self._tlock.acquire()
        self._depth += 1
        if self._depth == 1 and fcntl is not None:
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_RDWR, 0o644)
                fcntl.flock(fd, fcntl.LOCK_EX)
                self._fd = fd
            except OSError:
                # an unlockable filesystem degrades to in-process
                # locking rather than failing the analysis
                self._fd = None
        return self

    def __exit__(self, *exc) -> None:
        self._depth -= 1
        if self._depth == 0 and self._fd is not None:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            except OSError:  # pragma: no cover
                pass
            try:
                os.close(self._fd)
            except OSError:  # pragma: no cover
                pass
            self._fd = None
        self._tlock.release()


class ArtifactStore:
    """A directory of content-addressed analysis artifacts."""

    def __init__(
        self, root: str, max_bytes: Optional[int] = None
    ) -> None:
        self.root = root
        self.objects_dir = os.path.join(root, "objects")
        self.stats_path = os.path.join(root, "stats.json")
        self.max_bytes = max_bytes
        self.stats = StoreStats()
        #: serializes stats updates and LRU touch/evict across threads
        #: sharing this handle; never held during artifact encode/decode
        self._lock = threading.RLock()
        os.makedirs(self.objects_dir, exist_ok=True)
        #: serializes eviction and stats.json persistence across
        #: *processes* sharing this directory (replica daemons,
        #: process-pool workers)
        self._ipc_lock = _InterProcessLock(os.path.join(root, ".lock"))
        #: counters already merged into stats.json by flush_stats()
        self._flushed = StoreStats()

    # -- paths -------------------------------------------------------------------

    def path_of(self, key: str) -> str:
        return os.path.join(self.objects_dir, key + ".json.gz")

    def contains(self, key: str) -> bool:
        """Cheap existence probe: no decode, no stats, no LRU touch.
        Used to skip re-encoding artifacts that are already present
        (a stale True race just means one redundant atomic put)."""
        return os.path.exists(self.path_of(key))

    # -- raw get/put -------------------------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The payload under ``key``, or None (anything wrong = miss)."""
        path = self.path_of(key)
        try:
            with gzip.open(path, "rb") as fh:
                doc = json.loads(fh.read().decode("utf-8"))
            if doc.get("format") != STORE_FORMAT_VERSION:
                raise ValueError(f"format {doc.get('format')!r}")
            payload = doc["data"]
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            return None
        except Exception:
            # truncated gzip, bad JSON, version skew, wrong shape --
            # treat as a miss and drop the unreadable file
            with self._lock:
                self.stats.misses += 1
                self.stats.errors += 1
                self._unlink(path)
            return None
        with self._lock:
            self.stats.hits += 1
            self._touch(path)
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Atomically write ``payload`` under ``key``, then evict."""
        doc = {"format": STORE_FORMAT_VERSION, "key": key, "data": payload}
        raw = json.dumps(doc, separators=(",", ":")).encode("utf-8")
        path = self.path_of(key)
        fd, tmp = tempfile.mkstemp(
            prefix=".tmp-" + key[:24] + "-", dir=self.objects_dir
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                # mtime=0 keeps artifact bytes deterministic across runs
                with gzip.GzipFile(
                    fileobj=fh, mode="wb", mtime=0
                ) as gz:
                    gz.write(raw)
            os.replace(tmp, path)
        except Exception:
            self._unlink(tmp)
            raise
        with self._lock:
            self.stats.puts += 1
        if self.max_bytes is not None:
            self.evict()

    # -- decoded load/save --------------------------------------------------------

    def load(self, key: str, decoder: Callable[[dict], object]):
        """Get + decode; any decoder failure degrades to a miss."""
        payload = self.get(key)
        if payload is None:
            return None
        try:
            return decoder(payload)
        except Exception:
            # a payload that no longer decodes (stale semantics within
            # one format version) must never crash an analysis
            with self._lock:
                self.stats.hits -= 1
                self.stats.misses += 1
                self.stats.errors += 1
                self._unlink(self.path_of(key))
            return None

    # -- eviction -----------------------------------------------------------------

    def entries(self) -> List[Tuple[str, int, float]]:
        """(path, size, mtime) of every artifact currently on disk."""
        out = []
        try:
            names = os.listdir(self.objects_dir)
        except FileNotFoundError:
            return out
        for name in names:
            path = os.path.join(self.objects_dir, name)
            try:
                st = os.stat(path)
            except OSError:
                continue  # vanished under a concurrent worker
            out.append((path, st.st_size, st.st_mtime))
        return out

    def total_bytes(self) -> int:
        return sum(size for _, size, _ in self.entries())

    def evict(self) -> int:
        """Delete least-recently-used artifacts until under the cap.

        The whole scan-and-delete runs under the store lock *and* the
        cross-process file lock: two worker threads -- or two replica
        daemons -- finishing puts at the same moment must not both
        walk the same LRU tail and double-count (or over-)evict.
        Remaining races (a file vanishing mid-walk under an uncached
        unlink) stay benign -- a vanished file just fails its unlink.
        """
        if self.max_bytes is None:
            return 0
        with self._lock, self._ipc_lock:
            entries = self.entries()
            total = sum(size for _, size, _ in entries)
            evicted = 0
            # oldest mtime first; temp files sort in with their mtimes,
            # which is fine: a stale temp is garbage worth collecting
            for path, size, _ in sorted(entries, key=lambda e: e[2]):
                if total <= self.max_bytes:
                    break
                if self._unlink(path):
                    total -= size
                    evicted += 1
            self.stats.evictions += evicted
            return evicted

    # -- persisted stats ----------------------------------------------------------

    def flush_stats(self) -> Dict[str, int]:
        """Merge this handle's *unflushed* counter deltas into the
        shared ``stats.json`` and return the merged totals.

        Safe to call from any number of handles in any number of
        processes: the read-modify-write cycle runs under the
        cross-process lock and lands via atomic replace, so counts are
        never lost and readers never observe a torn document.  Called
        by the service on drain and by process-pool workers after each
        job; cheap enough to call often (one tiny JSON file).
        """
        with self._lock:
            current = self.stats.as_dict()
            delta = {
                k: current[k] - getattr(self._flushed, k)
                for k in current
            }
            for k, v in delta.items():
                setattr(self._flushed, k, getattr(self._flushed, k) + v)
        with self._ipc_lock:
            totals = StoreStats()
            totals.merge(self._read_persisted())
            totals.merge(delta)
            doc = totals.as_dict()
            fd, tmp = tempfile.mkstemp(
                prefix=".tmp-stats-", dir=self.root
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(doc, fh, sort_keys=True)
                os.replace(tmp, self.stats_path)
            except Exception:
                self._unlink(tmp)
                raise
            return doc

    def persistent_stats(self) -> Optional[Dict[str, int]]:
        """The cumulative cross-process counters from ``stats.json``,
        or None when no handle has flushed yet."""
        doc = self._read_persisted()
        return doc or None

    def _read_persisted(self) -> Dict[str, int]:
        try:
            with open(self.stats_path, "r") as fh:
                doc = json.load(fh)
            return {k: int(v) for k, v in doc.items()}
        except (OSError, ValueError, TypeError):
            # missing or corrupt: start over from zero rather than
            # failing a put/drain path over a counters file
            return {}

    def clear(self) -> None:
        for path, _, _ in self.entries():
            self._unlink(path)

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _unlink(path: str) -> bool:
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    @staticmethod
    def _touch(path: str) -> None:
        try:
            os.utime(path, None)
        except OSError:
            pass
