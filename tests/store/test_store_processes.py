"""Cross-process safety of the shared store directory.

PR 4's RLock made one :class:`ArtifactStore` handle thread-safe; these
tests cover the multi-*process* story that process-pool workers and
suite runners rely on: ``flock``-guarded LRU eviction.
"""

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
            with lock:  # nested acquisition
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
