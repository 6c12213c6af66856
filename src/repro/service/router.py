"""Consistent-hash router: one front door over N replica daemons.

``repro route`` binds a thin stdlib HTTP proxy in front of replica
daemons (``repro serve --replica-id ...``) that share one artifact
store directory.  Submissions are routed by **content**, not by
connection: the router parses the body exactly as a daemon would
(:mod:`repro.service.submission`), derives the same stage-2 content
key, and consistent-hashes it onto the replica ring.  Identical
submissions therefore always land on the identical replica, which is
what lets the daemon-side guarantees survive sharding:

* **dedup** stays exactly-once per unique submission *per replica* --
  and since a key maps to one replica, exactly-once overall;
* **cache locality** holds: the replica that computed an artifact is
  the one asked for it again (and a rebalanced key still warm-hits
  through the shared store directory).

The ring (:class:`HashRing`) hashes ``vnodes`` virtual points per
replica (sha256), so adding or losing a replica moves only ~1/N of
the key space.  A background health loop polls every replica's
``/healthz``; a replica that refuses connections (or is draining) is
excluded from new submissions, and a forward that hits a dead socket
fails over to the next ring node mid-request.  Job polls
(``GET /v1/jobs/...``) are proxied to the replica that owns the job
(remembered at submit time); if that replica died with the job, the
router answers a *retryable* 503 -- the job's in-memory registry died
with its daemon -- and
:meth:`~repro.service.client.ServiceClient.analyze_resilient`
resubmits, landing on the ring successor (warm through the shared
store when the artifacts were already computed).

The router holds no analysis state: killing it loses nothing but the
job-id -> replica map, which it relearns by probing replicas.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import re
import signal
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, List, Optional, Tuple
from urllib.parse import urlsplit

from ..obs import TraceCollector, Tracer, clock_anchor, merged_trace_document
from ..obs.context import TraceContext, new_trace_context
from .daemon import SERVICE_API_VERSION, _JOB_PATH, _TRACE_PATH
from .jsonlog import JsonLogger
from .metrics import MetricsRegistry
from .submission import BadRequest, routing_key


class HashRing:
    """Consistent hashing over named nodes with virtual points.

    Every node contributes ``vnodes`` sha256 points on a 64-bit ring;
    a key hashes to a point and walks clockwise.  :meth:`preference`
    returns *all* nodes in walk order, so callers implement failover
    by taking the first acceptable node -- the classic Dynamo-style
    preference list.
    """

    def __init__(self, nodes: List[str], vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.nodes = list(dict.fromkeys(nodes))  # order-preserving dedup
        self.vnodes = vnodes
        points = []
        for node in self.nodes:
            for i in range(vnodes):
                points.append((self._hash(f"{node}#{i}"), node))
        points.sort()
        self._points = points
        self._hashes = [h for h, _ in points]

    @staticmethod
    def _hash(value: str) -> int:
        digest = hashlib.sha256(value.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def preference(self, key: str) -> List[str]:
        """Distinct nodes in ring-walk order for ``key``."""
        if not self._points:
            return []
        idx = bisect.bisect_right(self._hashes, self._hash(key))
        seen: set = set()
        order: List[str] = []
        for offset in range(len(self._points)):
            _, node = self._points[(idx + offset) % len(self._points)]
            if node not in seen:
                seen.add(node)
                order.append(node)
                if len(order) == len(self.nodes):
                    break
        return order

    def node_for(self, key: str, exclude=()) -> Optional[str]:
        """First node for ``key`` not in ``exclude`` (None = no node)."""
        for node in self.preference(key):
            if node not in exclude:
                return node
        return None


def _split_node(node: str) -> Tuple[str, int]:
    host, _, port = node.rpartition(":")
    return host, int(port)


@dataclass
class RouterConfig:
    host: str = "127.0.0.1"
    port: int = 0
    #: replica daemons as "host:port" strings; ring membership
    replicas: List[str] = field(default_factory=list)
    #: virtual points per replica on the hash ring
    vnodes: int = 64
    #: seconds between background replica health polls
    health_interval: float = 1.0
    #: socket timeout for forwarded requests (covers slow warm gets;
    #: job *execution* is asynchronous so this never waits on analysis)
    proxy_timeout: float = 30.0
    log_stream: Optional[IO[str]] = None
    log_level: str = "info"


class AnalysisRouter:
    """One router instance over a fixed replica ring."""

    def __init__(self, config: RouterConfig) -> None:
        if not config.replicas:
            raise ValueError("need at least one replica")
        for node in config.replicas:
            _split_node(node)  # raises early on malformed addresses
        self.config = config
        self.ring = HashRing(config.replicas, vnodes=config.vnodes)
        self.logger = JsonLogger(
            stream=config.log_stream, level=config.log_level
        ).bind(service="repro.route")
        #: node -> "healthy" | "draining" | "down"
        self._replica_state = {n: "down" for n in self.ring.nodes}
        self._replica_info: dict = {n: None for n in self.ring.nodes}
        self._state_lock = threading.Lock()
        #: job id -> home node (relearned by probing when missing)
        self._job_homes: dict = {}
        #: the router's own route.forward span segments per trace;
        #: GET /v1/traces/{id} merges these with every ring member's
        self.traces = TraceCollector()
        self._server: Optional[ThreadingHTTPServer] = None
        self._server_thread: Optional[threading.Thread] = None
        self._health_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started_at = time.time()
        self._init_metrics()

    def _init_metrics(self) -> None:
        m = MetricsRegistry()
        self.metrics = m
        self.c_http = m.counter(
            "repro_router_http_requests_total", "HTTP requests handled."
        )
        self.c_forwards = m.counter(
            "repro_router_forwards_total",
            "Requests forwarded to a replica.",
        )
        self.c_failovers = m.counter(
            "repro_router_failovers_total",
            "Forwards that fell over to a ring successor.",
        )
        self.c_unroutable = m.counter(
            "repro_router_unroutable_total",
            "Requests with no live replica to take them.",
        )
        self.c_errors = m.counter(
            "repro_router_http_errors_total",
            "Responses with status >= 400 (including proxied ones).",
        )
        self.g_replicas = m.gauge(
            "repro_router_replicas", "Configured ring members."
        )
        self.g_replicas_up = m.gauge(
            "repro_router_replicas_up", "Ring members currently healthy."
        )
        self.h_forward = m.histogram(
            "repro_router_forward_seconds",
            "Seconds spent forwarding one request to a replica.",
        )
        self.g_replicas.set(len(self.ring.nodes))

    # -- health ----------------------------------------------------------------

    def _probe(self, node: str) -> None:
        host, port = _split_node(node)
        state, info = "down", None
        try:
            conn = HTTPConnection(host, port, timeout=2.0)
            try:
                conn.request("GET", "/healthz")
                resp = conn.getresponse()
                doc = json.loads(resp.read().decode("utf-8"))
                info = {
                    "replica": doc.get("replica"),
                    "execution": doc.get("execution"),
                    "workers": doc.get("workers"),
                }
                state = (
                    "draining" if doc.get("status") == "draining"
                    else "healthy"
                )
            finally:
                conn.close()
        except (OSError, ValueError):
            pass
        self._set_state(node, state, info)

    def _set_state(
        self, node: str, state: str, info: Optional[dict] = None
    ) -> None:
        with self._state_lock:
            previous = self._replica_state[node]
            self._replica_state[node] = state
            if info is not None:
                self._replica_info[node] = info
            self.g_replicas_up.set(
                sum(
                    1 for s in self._replica_state.values()
                    if s == "healthy"
                )
            )
        if previous != state:
            self.logger.info(
                "replica_state", node=node, was=previous, now=state
            )

    def _health_loop(self) -> None:
        while not self._stop.wait(self.config.health_interval):
            for node in self.ring.nodes:
                self._probe(node)

    def replica_states(self) -> dict:
        with self._state_lock:
            return dict(self._replica_state)

    # -- forwarding ------------------------------------------------------------

    def _forward(
        self,
        node: str,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[dict] = None,
    ) -> Tuple[int, dict, bytes]:
        """One proxied request; raises OSError when the replica is
        unreachable (callers fail over).  ``headers`` are sent in
        addition to the defaults (the ``traceparent`` propagation
        hop rides here)."""
        host, port = _split_node(node)
        conn = HTTPConnection(
            host, port, timeout=self.config.proxy_timeout
        )
        t0 = time.monotonic()
        try:
            send_headers = dict(headers or {})
            if body is not None:
                send_headers.setdefault(
                    "Content-Type", "application/json"
                )
            conn.request(method, path, body=body, headers=send_headers)
            resp = conn.getresponse()
            raw = resp.read()
            return (
                resp.status,
                {k.lower(): v for k, v in resp.getheaders()},
                raw,
            )
        finally:
            conn.close()
            self.h_forward.observe(time.monotonic() - t0)

    def submit_candidates(self, key: str) -> List[str]:
        states = self.replica_states()
        return [
            node
            for node in self.ring.preference(key)
            if states[node] == "healthy"
        ]

    def route_submission(
        self, body: dict, raw: bytes,
        trace_ctx: Optional[TraceContext] = None,
    ) -> Tuple[int, dict, bytes]:
        """Forward one ``POST /v1/analyze`` body along the preference
        list; remembers the accepting replica as the job's home.

        ``trace_ctx`` is the request's distributed trace context (the
        handler adopts the incoming ``traceparent`` or mints one); the
        forward hop propagates it as a ``traceparent`` header and the
        router records its own ``route.forward`` span under it, so the
        stitched trace shows the routing hop between the client and
        the executing replica."""
        key = routing_key(body)
        if trace_ctx is None:
            trace_ctx = new_trace_context()
        candidates = self.submit_candidates(key)
        if not candidates:
            self.c_unroutable.inc()
            raise NoReplica(key)
        tracer = Tracer(context=trace_ctx)
        try:
            result = None
            with tracer.span("route.submit", cat="route", key=key[:16]):
                for attempt, node in enumerate(candidates):
                    try:
                        with tracer.span(
                            "route.forward", cat="route", node=node
                        ):
                            status, headers, out = self._forward(
                                node, "POST", "/v1/analyze", raw,
                                headers={
                                    "traceparent":
                                        tracer.current_context()
                                        .to_traceparent()
                                },
                            )
                    except OSError:
                        self._set_state(node, "down")
                        self.c_failovers.inc()
                        continue
                    self.c_forwards.inc()
                    if attempt:
                        self.logger.info(
                            "submission_failed_over",
                            key=key[:16],
                            node=node,
                            trace_id=trace_ctx.trace_id,
                        )
                    if status in (200, 202):
                        try:
                            job_id = json.loads(
                                out.decode("utf-8")
                            ).get("job")
                        except ValueError:  # pragma: no cover - replica bug
                            job_id = None
                        if job_id:
                            self._job_homes[job_id] = node
                    result = status, headers, out
                    break
        finally:
            tracer.close()
            self.traces.add(
                trace_ctx.trace_id,
                source="router",
                spans=tracer.to_dicts(),
                pid=os.getpid(),
                clock=clock_anchor(),
            )
        if result is not None:
            return result
        self.c_unroutable.inc()
        raise NoReplica(key)

    def route_job_request(
        self, job_id: str, method: str, path: str
    ) -> Tuple[int, dict, bytes]:
        """Proxy a job poll/artifact/cancel to the job's home replica,
        probing the ring when the home is unknown or gone."""
        states = self.replica_states()
        home = self._job_homes.get(job_id)
        candidates = []
        if home is not None and states.get(home) != "down":
            candidates.append(home)
        # relearn: any reachable replica may own the job (router
        # restart) -- probe in stable ring order
        for node in self.ring.nodes:
            if node not in candidates and states[node] != "down":
                candidates.append(node)
        last_404 = None
        for node in candidates:
            try:
                status, headers, out = self._forward(node, method, path)
            except OSError:
                self._set_state(node, "down")
                if node == home:
                    home = None
                continue
            self.c_forwards.inc()
            if status == 404:
                last_404 = (status, headers, out)
                continue
            self._job_homes[job_id] = node
            return status, headers, out
        if home is not None or last_404 is None:
            # the owning replica is gone (or nothing reachable):
            # the job's registry died with its daemon -- retryable
            raise JobHomeDown(job_id)
        return last_404

    # -- traces ----------------------------------------------------------------

    def trace_doc(self, trace_id: str) -> Optional[dict]:
        """One stitched Chrome trace aggregated across the whole ring.

        The router holds only its own ``route.forward`` segments; the
        replica that executed the job (and, for a sweep, every replica
        that executed a child) holds the span forests.  Ask every
        non-down ring member for its raw segments, concatenate with
        ours, and merge -- the segments carry per-process clock
        anchors, so the merged document shows router, replicas, and
        worker processes on one aligned time axis."""
        segments = list(self.traces.get(trace_id) or [])
        states = self.replica_states()
        for node in self.ring.nodes:
            if states.get(node) == "down":
                continue
            try:
                status, _, out = self._forward(
                    node, "GET", f"/v1/traces/{trace_id}/segments"
                )
            except OSError:
                self._set_state(node, "down")
                continue
            if status != 200:
                continue
            try:
                doc = json.loads(out.decode("utf-8"))
            except ValueError:  # pragma: no cover - replica bug
                continue
            segments.extend(doc.get("segments") or [])
        if not segments:
            return None
        return merged_trace_document(segments, trace_id=trace_id)

    # -- documents -------------------------------------------------------------

    def health_doc(self) -> dict:
        states = self.replica_states()
        with self._state_lock:
            info = dict(self._replica_info)
        return {
            "version": SERVICE_API_VERSION,
            "role": "router",
            "status": "ok" if any(
                s == "healthy" for s in states.values()
            ) else "degraded",
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "ring": {
                "vnodes": self.config.vnodes,
                "members": self.ring.nodes,
            },
            "replicas": [
                {
                    "node": node,
                    "state": states[node],
                    "info": info[node],
                }
                for node in self.ring.nodes
            ],
            "jobs_routed": len(self._job_homes),
        }

    def render_metrics(self) -> str:
        text = self.metrics.render()
        states = self.replica_states()
        lines = []
        name = "repro_router_replica_up"
        lines.append(
            f"# HELP {name} Per-replica liveness "
            "(1 healthy, 0 draining or down)."
        )
        lines.append(f"# TYPE {name} gauge")
        for node in self.ring.nodes:
            up = 1 if states[node] == "healthy" else 0
            lines.append(f'{name}{{replica="{node}"}} {up}')
        return text + "\n".join(lines) + "\n"

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        handler = _make_router_handler(self)

        class _Server(ThreadingHTTPServer):
            daemon_threads = True
            request_queue_size = 128

        self._server = _Server(
            (self.config.host, self.config.port), handler
        )
        host, port = self._server.server_address[:2]
        self.host, self.port = host, int(port)
        for node in self.ring.nodes:  # synchronous first probe
            self._probe(node)
        self._health_thread = threading.Thread(
            target=self._health_loop, name="repro-route-health", daemon=True
        )
        self._health_thread.start()
        self._server_thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-route-http",
            daemon=True,
        )
        self._server_thread.start()
        self.logger.info(
            "router_started",
            host=self.host,
            port=self.port,
            replicas=self.ring.nodes,
            vnodes=self.config.vnodes,
        )
        return self.host, self.port

    def shutdown(self) -> None:
        self._stop.set()
        if self._health_thread is not None:
            self._health_thread.join(timeout=5.0)
        if self._server is not None:
            self._server.shutdown()
            if self._server_thread is not None:
                self._server_thread.join(timeout=10.0)
            self._server.server_close()
        self.logger.info("router_stopped")

    def run(self) -> int:
        """CLI loop: start, wait for SIGTERM/SIGINT, stop, exit 0."""
        stop = threading.Event()

        def _on_signal(signum, frame):
            self.logger.info("signal_received", signum=signum)
            stop.set()

        old_term = signal.signal(signal.SIGTERM, _on_signal)
        old_int = signal.signal(signal.SIGINT, _on_signal)
        try:
            host, port = self.start()
            print(
                f"repro.route listening on http://{host}:{port} "
                f"({len(self.ring.nodes)} replica(s), "
                f"{self.config.vnodes} vnodes)",
                flush=True,
            )
            while not stop.wait(0.2):
                pass
            self.shutdown()
        finally:
            signal.signal(signal.SIGTERM, old_term)
            signal.signal(signal.SIGINT, old_int)
        print("repro.route stopped", flush=True)
        return 0


class NoReplica(Exception):
    """No healthy replica can take this submission right now."""


class JobHomeDown(Exception):
    """The replica that owned this job is unreachable."""


_CANCEL_PATH = re.compile(r"^/v1/jobs/(?P<id>[^/]+)/cancel$")


def _make_router_handler(router: AnalysisRouter):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        server_version = f"repro-route/{SERVICE_API_VERSION}"

        def log_message(self, format: str, *args) -> None:
            router.logger.debug("http_server", message=format % args)

        def log_error(self, format: str, *args) -> None:
            router.logger.warning(
                "http_server_error", message=format % args
            )

        def _send(
            self,
            code: int,
            body: bytes,
            content_type: str = "application/json",
            headers: Optional[dict] = None,
        ) -> None:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (headers or {}).items():
                self.send_header(name, value)
            router.c_http.inc()
            if code >= 400:
                router.c_errors.inc()
            self.end_headers()
            self.wfile.write(body)

        def _send_doc(self, code: int, doc: dict, **kw) -> None:
            body = (json.dumps(doc, indent=2) + "\n").encode("utf-8")
            self._send(code, body, **kw)

        def _error(self, code: int, message: str, **extra) -> None:
            doc = {"version": SERVICE_API_VERSION, "error": message}
            doc.update(extra)
            headers = (
                {"Retry-After": "1"} if code == 503 else None
            )
            self._send_doc(code, doc, headers=headers)

        def _relay(self, result: Tuple[int, dict, bytes]) -> None:
            """Send a forwarded replica response back verbatim."""
            status, headers, body = result
            content_type = headers.get(
                "content-type", "application/json"
            )
            passthrough = {
                k.title(): v
                for k, v in headers.items()
                if k in ("retry-after",)
            }
            self._send(
                status, body,
                content_type=content_type,
                headers=passthrough,
            )

        def do_GET(self) -> None:  # noqa: N802 - stdlib handler API
            path = urlsplit(self.path).path
            try:
                if path == "/healthz":
                    self._send_doc(200, router.health_doc())
                elif path == "/metrics":
                    self._send(
                        200,
                        router.render_metrics().encode("utf-8"),
                        content_type="text/plain; version=0.0.4",
                    )
                else:
                    trace_match = _TRACE_PATH.match(path)
                    if trace_match is not None:
                        doc = router.trace_doc(trace_match.group("id"))
                        if doc is None:
                            self._error(
                                404,
                                "unknown trace "
                                f"{trace_match.group('id')!r}",
                            )
                        else:
                            self._send_doc(200, doc)
                        return
                    match = _JOB_PATH.match(path)
                    if match is None:
                        self._error(404, f"no route for {path}")
                    elif match.group("sub") == "cancel":
                        self._error(405, "cancel requires POST")
                    else:
                        self._relay(
                            router.route_job_request(
                                match.group("id"), "GET", path
                            )
                        )
            except JobHomeDown as exc:
                self._error(
                    503,
                    f"replica owning job {exc.args[0]!r} is down; "
                    "resubmit to re-route",
                    retryable=True,
                )
            except BrokenPipeError:
                pass
            except Exception as exc:
                router.logger.error(
                    "request_failed", path=path, error=repr(exc)
                )
                try:
                    self._error(500, "internal error")
                except Exception:
                    pass

        def do_POST(self) -> None:  # noqa: N802 - stdlib handler API
            path = urlsplit(self.path).path
            try:
                if path == "/v1/analyze":
                    self._analyze()
                    return
                match = _CANCEL_PATH.match(path)
                if match is not None:
                    self._relay(
                        router.route_job_request(
                            match.group("id"), "POST", path
                        )
                    )
                else:
                    self._error(404, f"no route for POST {path}")
            except JobHomeDown as exc:
                self._error(
                    503,
                    f"replica owning job {exc.args[0]!r} is down; "
                    "resubmit to re-route",
                    retryable=True,
                )
            except BrokenPipeError:
                pass
            except Exception as exc:
                router.logger.error(
                    "request_failed", path=path, error=repr(exc)
                )
                try:
                    self._error(500, "internal error")
                except Exception:
                    pass

        def _analyze(self) -> None:
            length = int(self.headers.get("Content-Length") or 0)
            raw = self.rfile.read(length) if length else b""
            if not raw:
                self._error(400, "empty request body")
                return
            try:
                body = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                self._error(400, f"request body is not JSON: {exc}")
                return
            # the router is a trace front door too: adopt the caller's
            # traceparent or mint one before the forward hop
            ctx = TraceContext.from_traceparent(
                self.headers.get("traceparent")
            )
            if ctx is None:
                ctx = new_trace_context()
            try:
                result = router.route_submission(body, raw, trace_ctx=ctx)
            except BadRequest as exc:
                # reject at the edge: no replica could accept this
                self._error(400, str(exc))
                return
            except NoReplica:
                self._error(
                    503,
                    "no healthy replica available; retry",
                    retryable=True,
                )
                return
            self._relay(result)

    return Handler


def route(config: RouterConfig) -> int:
    """Blocking entry point used by ``repro route``."""
    return AnalysisRouter(config).run()
