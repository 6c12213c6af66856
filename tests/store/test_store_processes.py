"""Cross-process safety of the shared store directory.

PR 4's RLock made one :class:`ArtifactStore` handle thread-safe; these
tests cover the multi-*process* story that process-pool workers and
suite runners rely on: ``flock``-guarded LRU eviction and a
persisted ``stats.json`` whose read-modify-write merges never lose
counts.
"""

import json
import multiprocessing
import os

from repro.store import ArtifactStore
from repro.store.store import _InterProcessLock


def _payload(i):
    return {"value": "x" * 512, "i": i}


class TestInterProcessLock:
    def test_reentrant_within_a_thread(self, tmp_path):
        lock = _InterProcessLock(str(tmp_path / ".lock"))
        with lock:
            with lock:  # evict-inside-flush nesting
                pass
        with lock:
            pass

    def test_excludes_other_processes(self, tmp_path):
        """While the parent holds the flock, a child process cannot
        acquire it; the moment the parent releases, the child runs."""
        path = str(tmp_path / ".lock")
        lock = _InterProcessLock(path)
        ctx = multiprocessing.get_context()
        acquired = ctx.Event()

        def _child(event):
            with _InterProcessLock(path):
                event.set()

        with lock:
            proc = ctx.Process(target=_child, args=(acquired,))
            proc.start()
            assert not acquired.wait(0.5), "child acquired a held lock"
        assert acquired.wait(10), "child never acquired after release"
        proc.join(timeout=10)
        assert proc.exitcode == 0


def _evict_worker(root, max_bytes, start, conn):
    store = ArtifactStore(root, max_bytes=max_bytes)
    for i in range(start, start + 20):
        store.put(f"{'k%04d' % i:0<64}", _payload(i))
    conn.send(store.stats.evictions)
    conn.close()


class TestConcurrentEviction:
    def test_two_processes_never_evict_below_the_cap(self, tmp_path):
        """Two processes hammering puts with a tight LRU cap end with
        the directory at (not far below) the cap: the flock serializes
        the scan-and-delete so they cannot both walk the same tail."""
        root = str(tmp_path / "store")
        probe = ArtifactStore(root)
        probe.put("seed".ljust(64, "0"), _payload(0))
        artifact_size = probe.total_bytes()
        max_bytes = artifact_size * 6
        ctx = multiprocessing.get_context()
        procs, conns = [], []
        for n in range(2):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_evict_worker,
                args=(root, max_bytes, 100 + n * 50, child),
            )
            proc.start()
            procs.append(proc)
            conns.append(parent)
        # a worker that died cannot close the parent's copy of its
        # pipe end, so wait with a bound instead of blocking in recv
        assert all(conn.poll(60) for conn in conns), "a worker died"
        evictions = [conn.recv() for conn in conns]
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        final = ArtifactStore(root, max_bytes=max_bytes)
        assert final.total_bytes() <= max_bytes
        # both processes made progress and at least one evicted
        assert sum(evictions) > 0
        # the survivors are intact, decodable artifacts
        kept = 0
        for name in os.listdir(final.objects_dir):
            key = name[: -len(".json.gz")]
            if final.get(key) is not None:
                kept += 1
        assert kept >= 1


def _stats_worker(root, conn):
    store = ArtifactStore(root)
    for i in range(25):
        store.stats.puts += 1  # simulate put accounting
        store.flush_stats()
    conn.send(True)
    conn.close()


class TestPersistedStats:
    def test_flush_merges_deltas_across_handles(self, tmp_path):
        root = str(tmp_path / "store")
        a = ArtifactStore(root)
        b = ArtifactStore(root)
        a.put("a".ljust(64, "0"), _payload(1))
        b.get("b".ljust(64, "0"))  # miss
        a.flush_stats()
        totals = b.flush_stats()
        assert totals["puts"] == 1
        assert totals["misses"] == 1
        assert a.persistent_stats() == totals

    def test_flush_is_idempotent_per_delta(self, tmp_path):
        """Re-flushing without new activity adds nothing: only the
        unflushed delta moves to disk."""
        store = ArtifactStore(str(tmp_path / "store"))
        store.put("a".ljust(64, "0"), _payload(1))
        first = store.flush_stats()
        second = store.flush_stats()
        assert first == second

    def test_concurrent_flushes_lose_no_counts(self, tmp_path):
        root = str(tmp_path / "store")
        ArtifactStore(root)  # create the directory layout
        ctx = multiprocessing.get_context()
        procs, conns = [], []
        for _ in range(3):
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_stats_worker, args=(root, child))
            proc.start()
            procs.append(proc)
            conns.append(parent)
        for conn in conns:
            assert conn.poll(60), "a worker died"
            assert conn.recv() is True
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        totals = ArtifactStore(root).persistent_stats()
        assert totals["puts"] == 75  # 3 processes x 25, none lost

    def test_corrupt_stats_file_degrades_to_zero(self, tmp_path):
        root = str(tmp_path / "store")
        store = ArtifactStore(root)
        with open(store.stats_path, "w") as fh:
            fh.write("{not json")
        assert store.persistent_stats() is None
        store.stats.hits += 2
        totals = store.flush_stats()  # overwrites the corrupt file
        assert totals["hits"] == 2
        assert json.load(open(store.stats_path))["hits"] == 2
