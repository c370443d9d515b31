"""The live metrics endpoint behind :func:`repro.obs.serve_metrics`.

Kept apart from :mod:`repro.obs.export` because ``http.server`` (and the
``ssl``, ``email`` and ``socketserver`` modules it pulls in) cost a few
megabytes per process: ``serve_metrics`` imports this module on its
first call, so only a run that opens the endpoint pays for it.

The server only ever *reads* — it draws no randomness and touches no
simulation state — so exposing it during a live run cannot perturb a
seeded trial.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.obs.export import render_openmetrics
from repro.obs.metrics import MetricsRegistry


class _Handler(BaseHTTPRequestHandler):
    """Routes /metrics, /healthz and /status; everything else is 404."""

    server: "MetricsServer"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_openmetrics(self.server.registry).encode()
            ctype = (
                "application/openmetrics-text; version=1.0.0; charset=utf-8"
            )
        elif path == "/healthz":
            body = b"ok\n"
            ctype = "text/plain; charset=utf-8"
        elif path == "/status":
            body = (
                json.dumps(self.server.status(), sort_keys=True) + "\n"
            ).encode()
            ctype = "application/json"
        else:
            body = b"not found\n"
            self.send_response(404)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self.send_response(200)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # scrapers poll; stderr chatter would drown the run output


class MetricsServer(ThreadingHTTPServer):
    """A background OpenMetrics endpoint over a live registry; start
    one with :func:`~repro.obs.export.serve_metrics`."""

    daemon_threads = True

    def __init__(
        self,
        registry: MetricsRegistry,
        address: tuple[str, int],
        *,
        status_fn: Callable[[], dict] | None = None,
    ) -> None:
        super().__init__(address, _Handler)
        self.registry = registry
        self._status_fn = status_fn
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.server_address[1]

    @property
    def url(self) -> str:
        host = self.server_address[0] or "127.0.0.1"
        return f"http://{host}:{self.port}"

    def status(self) -> dict:
        base: dict = {"serving": True, "instruments": len(self.registry)}
        if self._status_fn is not None:
            try:
                base.update(self._status_fn())
            except Exception as error:  # surfaced, not fatal to the scrape
                base["status_error"] = repr(error)
        return base

    def start(self) -> "MetricsServer":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever,
                name="obs-metrics-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
