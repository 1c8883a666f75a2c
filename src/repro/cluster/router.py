"""Fingerprint-routed async HTTP front-end for a replica fleet.

A **single-threaded, non-blocking** (``selectors``-based) HTTP proxy —
no thread per connection, so thousands of concurrent clients cost one
file descriptor each, not a stack.  It speaks the exact
:mod:`repro.service` protocol, which means :class:`ServiceClient`
works against a cluster unchanged.

Each request is placed by its row in :data:`repro.service.routes.ROUTES`,
the one list of endpoints: fanned out to every live replica and merged,
routed by a job id's ``s<shard>:`` prefix, routed by the shard that
owns the references it names (pinned entry, else fingerprint hash; see
:mod:`repro.cluster.topology`), or answered by the router itself
(``GET /cluster``).

A request for a shard that is down is answered ``503`` with a
``Retry-After`` header immediately — never a hang — and the shard
comes back transparently once the replica manager restarts it
(:class:`ServiceClient`'s retry/backoff makes the window invisible to
callers).
"""

from __future__ import annotations

import json
import re
import selectors
import socket
import threading
import time
import urllib.parse
from http import HTTPStatus
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..service.routes import (
    BadRequest,
    HTTPError,
    Request,
    Route,
    content_length,
    match,
    parse_body,
    prefix_job_ids,
)
from .topology import RoutingTable

#: Prefixed job ids: ``s<shard>:<replica-local job id>``.
_JOB_REF = re.compile(r"^s(\d+):(.+)$")

#: Largest header block (bytes before the blank line) a message may have.
MAX_HEADER_BYTES = 65536


class RouterError(RuntimeError):
    """Fatal router setup/runtime failure."""


# ----------------------------------------------------------------------
# Incremental HTTP/1.x parsing (requests from clients, responses from
# replicas).  Only what the service protocol needs: Content-Length
# framing, with read-until-EOF as the response fallback.
# ----------------------------------------------------------------------


class _HTTPParser:
    """Feed bytes in, get a complete message (or an error) out."""

    __slots__ = (
        "kind",
        "buf",
        "headers",
        "method",
        "path",
        "status",
        "content_length",
        "body",
        "complete",
        "error",
    )

    def __init__(self, kind: str):
        self.kind = kind  # "request" | "response"
        self.buf = bytearray()
        self.headers: Optional[Dict[str, str]] = None
        self.method: Optional[str] = None
        self.path: Optional[str] = None
        self.status: Optional[int] = None
        self.content_length: Optional[int] = None
        self.body: Optional[bytes] = None
        self.complete = False
        self.error: Optional[str] = None

    def feed(self, data: bytes) -> None:
        if self.complete or self.error:
            return
        self.buf += data
        self._advance()

    def finish(self) -> None:
        """EOF: responses without Content-Length complete here."""
        if self.complete or self.error:
            return
        if (
            self.kind == "response"
            and self.headers is not None
            and self.content_length is None
        ):
            self.body = bytes(self.buf)
            self.complete = True
        else:
            self.error = "connection closed mid-message"

    def _advance(self) -> None:
        if self.headers is None:
            idx = self.buf.find(b"\r\n\r\n")
            # Unterminated, the block is at least len(buf) - 3 bytes long.
            if idx > MAX_HEADER_BYTES or (idx < 0 and len(self.buf) - 3 > MAX_HEADER_BYTES):
                self.error = "header block too large"
                return
            if idx < 0:
                return
            try:
                head = bytes(self.buf[:idx]).decode("latin-1")
            except UnicodeDecodeError:  # pragma: no cover — latin-1 total
                self.error = "undecodable header block"
                return
            del self.buf[: idx + 4]
            lines = head.split("\r\n")
            parts = lines[0].split(" ", 2)
            if self.kind == "request":
                if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
                    self.error = f"malformed request line: {lines[0]!r}"
                    return
                self.method, self.path = parts[0].upper(), parts[1]
            else:
                if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
                    self.error = f"malformed status line: {lines[0]!r}"
                    return
                try:
                    self.status = int(parts[1])
                except ValueError:
                    self.error = f"malformed status code: {parts[1]!r}"
                    return
            headers: Dict[str, str] = {}
            for line in lines[1:]:
                if ":" in line:
                    key, value = line.split(":", 1)
                    headers[key.strip().lower()] = value.strip()
            self.headers = headers
            raw_length = headers.get("content-length")
            if raw_length is not None or self.kind == "request":
                # A request without one has no body: chunked uploads are
                # unsupported.
                try:
                    self.content_length = content_length(raw_length)
                except BadRequest as exc:
                    self.error = str(exc)
                    return
        if self.content_length is not None and not self.complete:
            if len(self.buf) >= self.content_length:
                self.body = bytes(self.buf[: self.content_length])
                self.complete = True


def _build_request(
    method: str,
    path: str,
    host: str,
    body: Optional[bytes],
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    """Serialized upstream HTTP request (always ``Connection: close``)."""
    lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}",
        "Connection: close",
        "Accept: application/json",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    if body:
        lines.append("Content-Type: application/json")
        lines.append(f"Content-Length: {len(body)}")
    elif method == "POST":
        lines.append("Content-Length: 0")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + (body or b"")


def _serialize_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    retry_after: Optional[int] = None,
) -> bytes:
    try:
        reason = HTTPStatus(status).phrase
    except ValueError:
        reason = "Unknown"
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    if retry_after is not None:
        lines.append(f"Retry-After: {retry_after}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


# ----------------------------------------------------------------------
# Event-loop plumbing
# ----------------------------------------------------------------------


class _Upstream:
    """One non-blocking exchange with a replica."""

    __slots__ = (
        "router",
        "session",
        "shard",
        "sock",
        "out",
        "parser",
        "state",
        "failure",
    )

    def __init__(self, router: "Router", session: "_Session", shard: int, url: str, request: bytes):
        self.router = router
        self.session = session
        self.shard = shard
        self.out = bytearray(request)
        self.parser = _HTTPParser("response")
        self.state = "connecting"
        self.failure: Optional[str] = None
        parsed = urllib.parse.urlsplit(url)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setblocking(False)
        self.sock.connect_ex((parsed.hostname, parsed.port or 80))
        router._register(self.sock, selectors.EVENT_WRITE, self)

    def on_event(self, mask: int) -> None:
        if self.state == "connecting" and mask & selectors.EVENT_WRITE:
            error = self.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            if error:
                self._fail(f"connect failed (errno {error})")
                return
            self.state = "sending"
        if self.state == "sending" and mask & selectors.EVENT_WRITE:
            try:
                sent = self.sock.send(self.out)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                self._fail(f"send failed: {exc}")
                return
            del self.out[:sent]
            if not self.out:
                self.state = "receiving"
                self.router._modify(self.sock, selectors.EVENT_READ, self)
            return
        if self.state == "receiving" and mask & selectors.EVENT_READ:
            try:
                data = self.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                self._fail(f"recv failed: {exc}")
                return
            if data:
                self.parser.feed(data)
                if self.parser.error:
                    self._fail(self.parser.error)
                elif self.parser.complete:
                    self._done()
            else:
                self.parser.finish()
                if self.parser.complete:
                    self._done()
                else:
                    self._fail(self.parser.error or "replica closed early")

    def abort(self, reason: str) -> None:
        self._fail(reason)

    def _fail(self, reason: str) -> None:
        self.failure = reason
        self._close()
        self.session.upstream_done(self)

    def _done(self) -> None:
        self._close()
        self.session.upstream_done(self)

    def _close(self) -> None:
        self.router._unregister(self.sock)
        try:
            self.sock.close()
        except OSError:  # pragma: no cover — close is best-effort
            pass


class _Session:
    """One client connection through its read → proxy → write lifecycle."""

    __slots__ = (
        "router",
        "sock",
        "parser",
        "out",
        "state",
        "upstreams",
        "pending",
        "finisher",
        "deadline",
    )

    def __init__(self, router: "Router", sock: socket.socket):
        self.router = router
        self.sock = sock
        self.parser = _HTTPParser("request")
        self.out = bytearray()
        self.state = "reading"
        self.upstreams: List[_Upstream] = []
        self.pending = 0
        #: Called with the finished upstreams to build the response.
        self.finisher: Optional[Callable[[List[_Upstream]], None]] = None
        self.deadline = time.monotonic() + router.client_timeout
        router._register(sock, selectors.EVENT_READ, self)

    # -- event handling -------------------------------------------------

    def on_event(self, mask: int) -> None:
        if self.state == "reading" and mask & selectors.EVENT_READ:
            try:
                data = self.sock.recv(65536)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self.close()
                return
            if not data:
                self.close()
                return
            self.parser.feed(data)
            if self.parser.error:
                self.respond_json(400, {"error": self.parser.error})
            elif self.parser.complete:
                self.state = "waiting"
                self.deadline = time.monotonic() + self.router.upstream_timeout
                self.router._route(self)
        elif self.state == "writing" and mask & selectors.EVENT_WRITE:
            try:
                sent = self.sock.send(self.out)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self.close()
                return
            del self.out[:sent]
            if not self.out:
                self.close()

    # -- responses ------------------------------------------------------

    def respond_json(
        self, status: int, payload: dict, retry_after: Optional[int] = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.respond_raw(status, body, retry_after=retry_after)

    def respond_raw(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        retry_after: Optional[int] = None,
    ) -> None:
        self.out = bytearray(
            _serialize_response(status, body, content_type, retry_after)
        )
        self.state = "writing"
        self.deadline = time.monotonic() + self.router.client_timeout
        self.router._modify(self.sock, selectors.EVENT_WRITE, self)

    # -- upstream orchestration ----------------------------------------

    def launch(
        self,
        calls: List[Tuple[int, str, bytes]],
        finisher: Callable[[List[_Upstream]], None],
    ) -> None:
        """Start upstream exchanges; ``finisher`` runs when all settle."""
        self.finisher = finisher
        self.pending = len(calls)
        for shard, url, request in calls:
            self.upstreams.append(_Upstream(self.router, self, shard, url, request))

    def upstream_done(self, upstream: _Upstream) -> None:
        self.pending -= 1
        if self.pending <= 0 and self.state == "waiting":
            finisher, self.finisher = self.finisher, None
            if finisher is not None:
                finisher(self.upstreams)

    def expire(self, now: float) -> None:
        if now < self.deadline:
            return
        if self.state == "waiting":
            for upstream in self.upstreams:
                if upstream.failure is None and not upstream.parser.complete:
                    upstream.failure = "timed out"
                    upstream._close()
            self.pending = 0
            finisher, self.finisher = self.finisher, None
            if finisher is not None:
                finisher(self.upstreams)
            else:  # pragma: no cover — waiting always has a finisher
                self.respond_json(504, {"error": "upstream timeout"})
        else:
            self.close()

    def close(self) -> None:
        for upstream in self.upstreams:
            if upstream.failure is None and not upstream.parser.complete:
                upstream.failure = "session closed"
                upstream._close()
        self.upstreams = []
        self.router._unregister(self.sock)
        try:
            self.sock.close()
        except OSError:  # pragma: no cover — close is best-effort
            pass
        self.router._sessions.discard(self)


class Router:
    """Single-threaded selectors event loop proxying a replica fleet."""

    def __init__(
        self,
        endpoints: Union[Sequence[Optional[str]], Callable[[], Sequence[Optional[str]]]],
        host: str = "127.0.0.1",
        port: int = 0,
        routes_path: Optional[str] = None,
        describe: Optional[Callable[[], List[dict]]] = None,
        upstream_timeout: float = 300.0,
        fanout_timeout: float = 5.0,
        client_timeout: float = 30.0,
        retry_after: int = 1,
    ):
        """Args:
            endpoints: per-shard base URLs, or a callable returning them
                (the replica manager's :meth:`endpoints` — re-read every
                request so restarts propagate).  ``None`` entries mean
                the shard is down.
            host/port: router bind address (port 0 picks a free port).
            routes_path: persisted pinned-routes JSON (see
                :class:`RoutingTable`); None keeps them in memory.
            describe: optional replicas-table callable for ``/cluster``.
            upstream_timeout: per-request replica deadline (504 after).
            fanout_timeout: deadline for /health /metrics /datasets
                /jobs fanouts — a wedged replica is dropped from the
                merge after this long instead of stalling liveness
                checks (the manager restarts it independently).
            client_timeout: read/write deadline on the client side.
            retry_after: seconds advertised in 503 ``Retry-After``.
        """
        self._endpoints = endpoints if callable(endpoints) else (lambda: list(endpoints))
        self.n_shards = len(self._endpoints())
        if self.n_shards < 1:
            raise RouterError("router needs at least one replica endpoint")
        self.table = RoutingTable(self.n_shards, path=routes_path)
        self._describe = describe
        self.upstream_timeout = upstream_timeout
        self.fanout_timeout = fanout_timeout
        self.client_timeout = client_timeout
        self.retry_after = retry_after
        self.counters: Dict[str, int] = {}
        self._sel = selectors.DefaultSelector()
        self._sessions: set = set()
        self._running = False
        self._thread: Optional[threading.Thread] = None
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(1024)
        self._listener.setblocking(False)
        self._sel.register(self._listener, selectors.EVENT_READ, "accept")
        self._sel.register(self._wake_r, selectors.EVENT_READ, "wake")

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        return self._listener.getsockname()[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (blocking)."""
        self._running = True
        try:
            while self._running:
                events = self._sel.select(timeout=0.1)
                for key, mask in events:
                    if key.data == "accept":
                        self._accept()
                    elif key.data == "wake":
                        try:
                            self._wake_r.recv(4096)
                        except OSError:
                            pass
                    else:
                        try:
                            key.data.on_event(mask)
                        except Exception:  # noqa: BLE001 — isolate connections
                            self._count("router.connection_errors")
                            if isinstance(key.data, _Session):
                                key.data.close()
                            elif isinstance(key.data, _Upstream):
                                key.data.abort("internal error")
                now = time.monotonic()
                for session in list(self._sessions):
                    session.expire(now)
        finally:
            for session in list(self._sessions):
                session.close()
            self._sel.unregister(self._listener)
            self._sel.unregister(self._wake_r)
            self._listener.close()
            self._wake_r.close()
            self._wake_w.close()
            self._sel.close()

    def start(self) -> "Router":
        """Run :meth:`serve_forever` on a daemon thread."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-cluster-router", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        """Stop the loop (from any thread) and join it if threaded."""
        self._running = False
        try:
            self._wake_w.send(b"x")
        except OSError:
            pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # ------------------------------------------------------------------
    # Selector helpers (loop thread only)
    # ------------------------------------------------------------------

    def _register(self, sock: socket.socket, mask: int, data: object) -> None:
        self._sel.register(sock, mask, data)

    def _modify(self, sock: socket.socket, mask: int, data: object) -> None:
        self._sel.modify(sock, mask, data)

    def _unregister(self, sock: socket.socket) -> None:
        try:
            self._sel.unregister(sock)
        except (KeyError, ValueError):
            pass

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            sock.setblocking(False)
            self._count("router.connections")
            self._sessions.add(_Session(self, sock))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _route(self, session: _Session) -> None:
        request = session.parser
        method = request.method
        path, _, query = request.path.partition("?")
        try:
            found = match(method, path)
            if found is None:
                raise HTTPError(404, f"no such endpoint: {method} {path}")
            route, params = found
            body = parse_body(request.body or b"") if method == "POST" else {}
            self._place(session, route, Request(params, query, request.headers, body), path)
        except HTTPError as exc:
            session.respond_json(exc.status, {"error": str(exc)})
        except ValueError as exc:  # a malformed upload, as on a replica
            session.respond_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 — protocol boundary
            self._count("router.plan_errors")
            session.respond_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _place(self, session: _Session, route: Route, req: Request, path: str) -> None:
        """Answer, fan out or proxy one request as its route row says."""
        if route.fanout is not None:
            self._fanout(session, route)
            return
        if route.by_job:
            shard, local_id = self._parse_job_ref(req.params["job"])
            path = route.pattern.format(**{**req.params, "job": local_id})
        elif route.refs is not None:
            shards = {ref: self.table.shard_of(ref) for ref in route.refs(req)}
            if len(set(shards.values())) > 1:
                # Only schema registration names several references.
                self._count("router.schema_colocation_409")
                raise HTTPError(
                    409,
                    "schema tables live on different shards "
                    f"({shards}); re-upload the tables with 'colocate_with' "
                    "so they share a replica",
                )
            shard = next(iter(shards.values()))
        else:
            session.respond_json(200, self._cluster_payload())
            return
        # The query string must reach the replica verbatim (``?top_k=``),
        # and so must the client's Idempotency-Key: the replica dedups
        # retried submissions through it.
        target = path + (f"?{req.query}" if req.query else "")
        idem = req.headers.get("idempotency-key")
        self._proxy(
            session,
            shard,
            route,
            target,
            session.parser.body or b"",
            extra_headers={"Idempotency-Key": idem} if idem else None,
        )

    def _parse_job_ref(self, ref: str) -> Tuple[int, str]:
        found = _JOB_REF.match(ref)
        if not found or not 0 <= int(found.group(1)) < self.n_shards:
            raise HTTPError(404, f"unknown job {ref!r} (cluster ids look like s0:job-1)")
        return int(found.group(1)), found.group(2)

    def _cluster_payload(self) -> dict:
        endpoints = list(self._endpoints())
        payload = {
            "shards": self.n_shards,
            "endpoints": endpoints,
            "healthy": sum(1 for url in endpoints if url),
            "routes": self.table.pinned(),
            "router": dict(sorted(self.counters.items())),
        }
        if self._describe is not None:
            payload["replicas"] = self._describe()
        return payload

    # ------------------------------------------------------------------
    # Proxy / fanout execution
    # ------------------------------------------------------------------

    def _shard_url(self, shard: int) -> Optional[str]:
        endpoints = self._endpoints()
        if shard >= len(endpoints):  # pragma: no cover — fixed shard count
            return None
        return endpoints[shard]

    def _proxy(
        self,
        session: _Session,
        shard: int,
        route: Route,
        path: str,
        body: bytes,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        url = self._shard_url(shard)
        if url is None:
            self._count("router.shard_down_503")
            session.respond_json(
                503,
                {"error": f"shard {shard} is down; retry shortly"},
                retry_after=self.retry_after,
            )
            return
        self._count(f"router.routed.shard-{shard}")
        host = urllib.parse.urlsplit(url).netloc
        request = _build_request(route.method, path, host, body, extra_headers)

        def finish(upstreams: List[_Upstream]) -> None:
            self._finish_proxy(session, shard, route, upstreams[0])

        session.launch([(shard, url, request)], finish)

    def _finish_proxy(
        self, session: _Session, shard: int, route: Route, upstream: _Upstream
    ) -> None:
        response = upstream.parser
        if upstream.failure is not None or response.status is None:
            timed_out = upstream.failure == "timed out"
            self._count("router.upstream_timeouts" if timed_out else "router.shard_down_503")
            status = 504 if timed_out else 503
            session.respond_json(
                status,
                {"error": f"shard {shard} unavailable: {upstream.failure}"},
                retry_after=None if timed_out else self.retry_after,
            )
            return
        body = response.body or b""
        content_type = (response.headers or {}).get("content-type", "application/json")
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (UnicodeDecodeError, json.JSONDecodeError):
            payload = None
        if route.pin and response.status in (200, 201) and isinstance(payload, dict):
            # The fingerprint (and name alias) an upload/append/schema created.
            for key in ("fingerprint", "name"):
                ref = payload.get(key)
                if isinstance(ref, str) and ref:
                    self.table.pin(ref, shard)
        if route.prefix_jobs and payload is not None:
            body = json.dumps(prefix_job_ids(payload, shard)).encode("utf-8")
        session.respond_raw(response.status, body, content_type=content_type)

    def _fanout(self, session: _Session, route: Route) -> None:
        endpoints = list(self._endpoints())
        calls: List[Tuple[int, str, bytes]] = []
        for shard, url in enumerate(endpoints):
            if url is None:
                continue
            host = urllib.parse.urlsplit(url).netloc
            calls.append((shard, url, _build_request(route.method, route.pattern, host, None)))
        self._count("router.fanouts")
        session.deadline = time.monotonic() + self.fanout_timeout
        if not calls:
            session.respond_json(
                503,
                {"error": "no replicas are up"},
                retry_after=self.retry_after,
            )
            return

        def finish(upstreams: List[_Upstream]) -> None:
            per_shard: List[Optional[dict]] = [None] * len(endpoints)
            for upstream in upstreams:
                response = upstream.parser
                if upstream.failure is not None or response.status != 200:
                    continue
                try:
                    per_shard[upstream.shard] = json.loads(
                        (response.body or b"{}").decode("utf-8")
                    )
                except (UnicodeDecodeError, json.JSONDecodeError):
                    continue
            session.respond_json(200, route.fanout(per_shard))

        session.launch(calls, finish)
