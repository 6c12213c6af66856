"""Keep-alive transport: responses on a reused connection do not stall,
an idle connection does not hold up a drain, a connection stays at a
request boundary (or is closed), and the stock client reuses one
connection per thread and resends only on a stale one."""

import http.client
import json
import os
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.service import client as client_mod
from repro.service import ServiceClient

#: sequential requests on one connection; with Nagle's algorithm and the
#: client's delayed ACK each response stalls ~40 ms, so 20 of them take
#: ~0.8 s, and well under 0.1 s without the stall
REQUESTS = 20
BUDGET_S = 0.5


def _sequential_gets(host, port, path):
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        t0 = time.perf_counter()
        for _ in range(REQUESTS):
            conn.request("GET", path)
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 200
            assert not resp.will_close
        return time.perf_counter() - t0
    finally:
        conn.close()


@pytest.mark.parametrize("execution", ["thread", "process"])
def test_sequential_requests_on_one_connection_do_not_stall(
    make_service, execution
):
    live = make_service(execution=execution)
    sub = live.client.submit(workload="nn")
    live.client.wait(sub["job"])
    seconds = _sequential_gets(
        live.client.host, live.client.port, f"/v1/jobs/{sub['job']}"
    )
    assert seconds < BUDGET_S, (
        f"{REQUESTS} keep-alive requests took {seconds * 1e3:.0f} ms"
    )


class TestDrainWithIdleConnection:
    def test_shutdown_ends_idle_connection(self, make_service):
        live = make_service()
        conn = http.client.HTTPConnection(
            live.client.host, live.client.port, timeout=10
        )
        try:
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            t0 = time.monotonic()
            assert live.service.shutdown(grace=2.0) is True
            assert time.monotonic() - t0 < 2.0
            # the stopped daemon answers nothing more on the old
            # connection
            with pytest.raises((OSError, http.client.HTTPException)):
                conn.request("GET", "/healthz")
                conn.getresponse().read()
        finally:
            conn.close()

    def test_serve_process_exits_within_grace(self, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--drain-grace", "5"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"http://([^:\s]+):(\d+)", line)
            assert match is not None, line
            conn = http.client.HTTPConnection(
                match.group(1), int(match.group(2)), timeout=10
            )
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            t0 = time.monotonic()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=5) == 0
            assert time.monotonic() - t0 < 5
            conn.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()


class TestConnectionHygiene:
    def test_unread_post_body_does_not_desync_the_connection(
        self, make_service
    ):
        live = make_service()
        conn = http.client.HTTPConnection(
            live.client.host, live.client.port, timeout=10
        )
        try:
            conn.request("POST", "/v1/jobs/nope/cancel", body=b'{"x": 1}')
            resp = conn.getresponse()
            resp.read()
            assert resp.status == 404
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            assert resp.status == 200
            assert json.loads(resp.read())["status"] == "ok"
        finally:
            conn.close()

    def test_internal_error_closes_the_connection(self, make_service):
        live = make_service()
        with socket.create_connection(
            (live.client.host, live.client.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /v1/analyze HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: abc\r\n\r\n"
            )
            data = b""
            while chunk := sock.recv(65536):
                data += chunk
        head = data.split(b"\r\n\r\n", 1)[0].decode()
        assert head.startswith("HTTP/1.1 500")
        assert "Connection: close" in head

    def test_client_reset_of_idle_connection_prints_nothing(
        self, make_service, capfd
    ):
        live = make_service()
        sock = socket.create_connection(
            (live.client.host, live.client.port), timeout=10
        )
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        assert sock.recv(65536).startswith(b"HTTP/1.1 200")
        # close with RST while the handler waits for the next request
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()
        time.sleep(0.3)
        assert "Traceback" not in capfd.readouterr().err


def _local_port(client):
    """Client-side port of the calling thread's open connection."""
    return client._local.conn.sock.getsockname()[1]


class _CountingConnection(http.client.HTTPConnection):
    opened = 0

    def connect(self):
        type(self).opened += 1
        super().connect()


@pytest.fixture
def counting(monkeypatch):
    _CountingConnection.opened = 0
    monkeypatch.setattr(client_mod, "HTTPConnection", _CountingConnection)
    return _CountingConnection


class TestClientConnections:
    def test_connection_is_reused_within_a_thread(self, make_service, counting):
        live = make_service()
        live.client.health(raise_for_status=True)
        port = _local_port(live.client)
        for _ in range(5):
            live.client.health(raise_for_status=True)
            assert _local_port(live.client) == port
        assert counting.opened == 1

    def test_threads_do_not_share_a_connection(self, make_service, counting):
        live = make_service()
        live.client.health(raise_for_status=True)
        ports = {"main": _local_port(live.client)}

        def worker(name):
            for _ in range(3):
                live.client.health(raise_for_status=True)
            ports[name] = _local_port(live.client)

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert len(set(ports.values())) == 3
        assert counting.opened == 3

    def test_closed_reused_connection_is_reopened_once(
        self, make_service, counting
    ):
        live = make_service()
        live.client.health(raise_for_status=True)
        old = _local_port(live.client)
        # the daemon ends every open connection, as on a drain
        live.service._server.close_connections()
        doc = live.client.health(raise_for_status=True)
        assert doc["status"] == "ok"
        assert _local_port(live.client) != old
        assert counting.opened == 2

    def test_failure_on_a_fresh_connection_is_not_resent(self, counting):
        """A server that reads one request and hangs up without
        answering: the client raises after one attempt instead of
        resending."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        received = []

        def serve_one():
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as rfile:
                length = 0
                while (line := rfile.readline()) not in (b"\r\n", b""):
                    name, _, value = line.decode().partition(":")
                    if name.lower() == "content-length":
                        length = int(value)
                received.append(rfile.read(length))

        t = threading.Thread(target=serve_one, daemon=True)
        t.start()
        try:
            client = ServiceClient(*listener.getsockname()[:2], timeout=5)
            with pytest.raises((OSError, http.client.HTTPException)):
                client.request_raw("POST", "/v1/analyze", {"workload": "nn"})
            assert counting.opened == 1
            t.join(timeout=5)
            assert not t.is_alive()
            assert [json.loads(body) for body in received] == [
                {"workload": "nn"}
            ]
        finally:
            listener.close()
            t.join(timeout=5)
