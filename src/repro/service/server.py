"""Stdlib HTTP front-end for :class:`~repro.service.app.FDService`.

A :class:`ThreadingHTTPServer` speaking JSON on every endpoint — no
framework, no dependencies.  The endpoints and their handlers are the
rows of :data:`repro.service.routes.ROUTES`; this module only frames
requests and maps exceptions onto status codes.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from .app import FDService
from .config import ConfigError
from .registry import UnknownDatasetError
from .routes import BadRequest, HTTPError, Request, content_length, match, parse_body
from .scheduler import SchedulerDraining, UnknownJobError
from .schemas import UnknownSchemaError


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`FDService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: FDService, quiet: bool = True):
        self.service = service
        self.quiet = quiet
        super().__init__(address, ServiceRequestHandler)


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes JSON requests onto the bound service."""

    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"

    def __getattr__(self, name: str):
        # Every method (PUT, DELETE, ...) reaches the route table, so an
        # unknown one gets the router's JSON 404, not the stdlib's 501.
        if name.startswith("do_"):
            return self._handle
        raise AttributeError(name)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    def _send_json(
        self,
        payload: Dict[str, object],
        status: int = 200,
        retry_after: Optional[float] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", str(int(max(1, retry_after))))
        self.end_headers()
        self.wfile.write(body)

    def _handle(self) -> None:
        path, _, query = self.path.partition("?")
        try:
            try:
                length = content_length(self.headers.get("Content-Length"))
            except BadRequest:
                self.close_connection = True  # the body cannot be framed
                raise
            raw = self.rfile.read(length) if length else b""
            found = match(self.command, path)
            if found is None or found[0].handler is None:
                raise HTTPError(404, f"no such endpoint: {self.command} {path}")
            route, params = found
            body = parse_body(raw) if route.method == "POST" else {}
            status, payload = route.handler(
                self.server.service, Request(params, query, self.headers, body)
            )
            self._send_json(payload, status)
        except HTTPError as exc:
            self._send_json({"error": str(exc)}, status=exc.status)
        except (ConfigError, ValueError) as exc:
            self._send_json({"error": str(exc)}, status=400)
        except SchedulerDraining as exc:
            self._send_json({"error": str(exc)}, status=503, retry_after=2)
        except (UnknownDatasetError, UnknownJobError, UnknownSchemaError) as exc:
            self._send_json({"error": str(exc.args[0])}, status=404)
        except Exception as exc:  # noqa: BLE001 — protocol boundary
            self._send_json(
                {"error": f"{type(exc).__name__}: {exc}"}, status=500
            )


def make_server(
    service: FDService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
) -> ServiceHTTPServer:
    """Bind a server (``port=0`` picks a free port; see ``server_port``)."""
    return ServiceHTTPServer((host, port), service, quiet=quiet)


def start_in_thread(
    service: FDService, host: str = "127.0.0.1", port: int = 0
) -> Tuple[ServiceHTTPServer, threading.Thread]:
    """Run a server on a daemon thread (tests and embedded use)."""
    server = make_server(service, host=host, port=port)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server, thread
