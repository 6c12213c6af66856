"""Content-addressed, size-capped on-disk artifact store.

Artifacts are gzip-compressed JSON documents addressed by a
content-derived key (:mod:`repro.store.keys`): the key names *what was
analyzed and how*, never when or by whom, so any process that computes
the same fingerprint reads the same artifact.

Concurrency and corruption are handled the only way a shared cache
directory can be: writes go to a unique temp file in the store and
land via atomic ``os.replace`` (a reader never observes a torn
artifact, concurrent writers of the same key just overwrite each other
last-write-wins with equivalent payloads), and *every* read failure --
missing file, truncated gzip, invalid JSON, wrong format version,
decoder error -- degrades to a cache miss.  A corrupt file is unlinked
best-effort so it cannot miss forever.  Writes degrade the same way: a
put that fails with ``OSError`` (a full disk) leaves no file behind and
counts an error, so caching never fails an analysis.

Eviction is size-capped LRU over file mtimes: a hit touches the
artifact's mtime, a put evicts oldest-first until the store fits
``max_bytes``.  Races with concurrent workers (a file vanishing
mid-walk) are tolerated everywhere, and eviction leaves a temp file
younger than :data:`STALE_TEMP_SECONDS` alone: it is another writer's
put between write and rename.

One :class:`ArtifactStore` handle may be shared by many threads (the
analysis service's worker pool does): counter updates, the LRU touch,
and the evict scan serialize on an internal lock, so stats never lose
increments and two threads never evict past the cap in parallel.  The
heavy work -- gzip/JSON encode/decode and file I/O of distinct keys --
stays outside the lock.

One store *directory* may additionally be shared by many **processes**
(the daemon's process-pool workers, suite runners): atomic
``os.replace`` puts were always cross-process-safe, but LRU eviction
is a read-modify-write cycle, so it runs under an advisory ``flock``
on ``<root>/.lock`` -- two procpool workers finishing puts at the same
moment walk the LRU tail one at a time (never double-evicting below
the cap).  On platforms without ``fcntl`` the lock degrades to the
in-process lock (single-process semantics, exactly what such a host
can run).  Counters are per handle and in memory only.
"""

from __future__ import annotations

import gc
import gzip
import json
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

#: bump on ANY change to the artifact payload layout or the canonical
#: fingerprint encoding; it salts every key (see keys.py), so old
#: stores simply miss instead of mis-decoding
#: v2: explicit function-boundary tokens in the program fingerprint
#: stream, canonical (key-sorted) folded-DDG serialization order, and
#: the incremental artifact levels (manifest, per-function region files)
#: v3: the execution engine left the key material (one production engine)
#: v4: the folded DDG is stored once, as per-function regions inside the
#: stage-2 artifact
#: v5: regions hold per-region tables of sets, maps and contexts and
#: positional statement/dependence rows; dependence vectors are rows
#: v6: the document drops its ``key`` field (the file name is the key,
#: so one payload is one byte string under any key), and dependence
#: vector rows name their endpoints by (function, ordinal, context id)
#: v7: the ``man-`` manifest keeps only what the differ reads (manifest
#: format 2); its key is salted by this version alone
#: v8: ``cp-``/``ddg-`` keys hash the canonical (uid-free) program
#: digest, so a renumbered or function-reordered twin shares its
#: baseline's artifacts
#: v9: stage-2 regions table their affine expressions (region format
#: 3) and dependence vectors index one table of rational bounds
#: v10: regions drop their ``format``/``func`` fields (this version is
#: the payload's only version), and ``cp-``/``ddg-`` payloads drop the
#: execute span's duration, which nothing read
STORE_FORMAT_VERSION = 10

#: name prefix of a put's temp file, renamed into place when complete
_TEMP_PREFIX = ".tmp-"
#: a temp file younger than this may be another writer's put in
#: flight, so eviction leaves it; an older one was left by a killed
#: writer and is collected
STALE_TEMP_SECONDS = 60.0


#: guards the collector pause shared by every loading thread
_gc_lock = threading.Lock()
#: loads now inside :func:`_collector_paused`, and whether the
#: collector was enabled when the first of them began
_gc_depth = 0
_gc_was_enabled = False


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Keep the cyclic collector off for the duration of the block.

    A decode builds thousands of long-lived container objects, and
    every young-generation pass it triggers re-scans the ones built
    so far; none of them is garbage.  The collector is process-wide,
    so concurrent loads (the thread-mode daemon's workers) share one
    depth count: the first load in records the collector's state and
    turns it off, the last one out restores that state -- on every
    exit, a raising decoder's included.  A caller that disabled the
    collector itself finds it still disabled."""
    global _gc_depth, _gc_was_enabled
    with _gc_lock:
        if _gc_depth == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_depth += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_depth -= 1
            if _gc_depth == 0 and _gc_was_enabled:
                gc.enable()


@dataclass
class StoreStats:
    """Counters for one store handle (per process / per worker)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    errors: int = 0

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
    thread may nest acquisitions, other threads and other processes
    queue.  The fd is opened per outermost
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
        self.max_bytes = max_bytes
        self.stats = StoreStats()
        #: serializes stats updates and LRU touch/evict across threads
        #: sharing this handle; never held during artifact encode/decode
        self._lock = threading.RLock()
        os.makedirs(self.objects_dir, exist_ok=True)
        #: serializes eviction across *processes* sharing this
        #: directory (process-pool workers, suite runners)
        self._ipc_lock = _InterProcessLock(os.path.join(root, ".lock"))

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
        """Atomically write ``payload`` under ``key``, then evict.

        The bytes land via a temp file and ``os.replace``.  A write
        that fails with :class:`OSError` (a full disk, a read-only
        directory) unlinks its temp file, counts an error and returns:
        the analysis being cached has already succeeded, and a missing
        artifact is only a later miss.  Any other exception raises."""
        doc = {"format": STORE_FORMAT_VERSION, "data": payload}
        raw = json.dumps(doc, separators=(",", ":")).encode("utf-8")
        # mtime=0 keeps artifact bytes deterministic across runs
        data = gzip.compress(raw, mtime=0)
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(
                prefix=_TEMP_PREFIX + key[:24] + "-", dir=self.objects_dir
            )
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, self.path_of(key))
        except Exception as exc:
            if tmp is not None:
                self._unlink(tmp)
            if not isinstance(exc, OSError):
                raise
            with self._lock:
                self.stats.errors += 1
            return
        with self._lock:
            self.stats.puts += 1
        if self.max_bytes is not None:
            self.evict()

    # -- decoded load/save --------------------------------------------------------

    def load(self, key: str, decoder: Callable[[dict], object]):
        """Get + decode; any decoder failure degrades to a miss.

        The cyclic collector is paused across both (see
        :func:`_collector_paused`)."""
        with _collector_paused():
            return self._load(key, decoder)

    def _load(self, key: str, decoder: Callable[[dict], object]):
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
        cross-process file lock: two worker threads -- or two procpool
        worker processes -- finishing puts at the same moment must not
        both walk the same LRU tail and double-count (or over-)evict.
        Remaining races (a file vanishing mid-walk under an uncached
        unlink) stay benign -- a vanished file just fails its unlink.
        """
        if self.max_bytes is None:
            return 0
        with self._lock, self._ipc_lock:
            entries = self.entries()
            total = sum(size for _, size, _ in entries)
            evicted = 0
            fresh = time.time() - STALE_TEMP_SECONDS
            # oldest mtime first; temp files sort in with their mtimes.
            # Deleting a fresh one would fail another writer's rename.
            for path, size, mtime in sorted(entries, key=lambda e: e[2]):
                if total <= self.max_bytes:
                    break
                if mtime > fresh and os.path.basename(path).startswith(
                    _TEMP_PREFIX
                ):
                    continue
                if self._unlink(path):
                    total -= size
                    evicted += 1
            self.stats.evictions += evicted
            return evicted

    def merge_stats(self, delta: Dict[str, int]) -> None:
        """Add another handle's counter delta (a process-pool worker's,
        per job) to this handle's counters."""
        with self._lock:
            self.stats.merge(delta)

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
