"""The stdlib HTTP adapter for the portal.

Serves a :class:`~repro.web.portal.PortalApp` over a real socket with
``http.server``: ``repro serve`` and every worker of a pool
(:func:`repro.cluster.pool._worker_main` calls :func:`make_server`), so
``tests/cluster/test_pool*.py``, the benchmark's ``pool`` workload and
``repro serve --workers`` all send their requests through it.  The other
tests and the in-process workload drive the app object directly.

The adapter is deliberately dumb: it parses the path, query string, JSON
body and headers, hands everything to :meth:`PortalApp.handle`, and
writes the response (status, JSON body and response headers) back out.
A request whose ``Content-Length`` is not a decimal number cannot be
framed, so it is answered ``400 bad_request`` and its connection closed.
One that declares more than :data:`MAX_BODY_BYTES` is answered ``413
payload_too_large`` before any of its body is read, and its connection
closed too.  Concurrent
requests are safe under the threading server: the session store is
lock-protected, logins are serialized per engine, and requests carrying
the same token are serialized per session record in the service layer.
"""

from __future__ import annotations

import json
import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from repro.errors import WebError
from repro.web.http import error_response, parse_json_body
from repro.web.portal import PortalApp

__all__ = ["MAX_BODY_BYTES", "make_server", "serve"]

#: The largest request body read (1 MiB); the API's largest body is a
#: query string.
MAX_BODY_BYTES = 1 << 20


def _make_handler(app: PortalApp) -> type[BaseHTTPRequestHandler]:
    class PortalHandler(BaseHTTPRequestHandler):
        # HTTP/1.1 keep-alive: responses always carry Content-Length, so
        # persistent connections are safe — and they give the worker-pool
        # clients connection affinity (one TCP connection sticks to the
        # worker that accepted it).
        protocol_version = "HTTP/1.1"

        def _dispatch(self, method: str) -> None:
            length = self.headers.get("Content-Length", "0") or "0"
            refusal = None
            if not (length.isascii() and length.isdigit()):
                refusal = error_response(
                    "bad_request", f"malformed Content-Length: {length!r}", 400
                )
            elif int(length) > MAX_BODY_BYTES:
                refusal = error_response(
                    "payload_too_large",
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                    413,
                    detail={"max_bytes": MAX_BODY_BYTES},
                )
            if refusal is not None:
                # The body is unframed or left unread, so the next request
                # on this connection cannot be found: answer, then close.
                refusal.headers["Connection"] = "close"
                self._respond(refusal)
                return
            raw = self.rfile.read(int(length))
            split = urlsplit(self.path)
            query = dict(parse_qsl(split.query))
            headers = {key: value for key, value in self.headers.items()}
            try:
                body = parse_json_body(raw)
            except WebError as exc:
                response = error_response("bad_request", str(exc), 400)
            else:
                response = app.handle(
                    method, split.path, body, headers=headers, query=query
                )
            self._respond(response)

        def _respond(self, response) -> None:
            payload = json.dumps(response.body, default=str).encode("utf-8")
            self.send_response(response.status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            for key, value in response.headers.items():
                self.send_header(key, value)
            self._end_headers_with(payload)

        def _end_headers_with(self, payload: bytes) -> None:
            """``end_headers()`` and the body in one ``sendall``.

            ``end_headers()`` writes the buffered header block on its
            own, so the body would leave as a second segment, which a
            client that delays its ACKs holds for about 40 ms.  Instead
            the blank line and the body join the header buffer and one
            flush writes the whole response.  HTTP/0.9 has no headers,
            so the stdlib keeps no buffer for it.
            """
            if self.request_version == "HTTP/0.9":
                self.wfile.write(payload)
                return
            self._headers_buffer.extend((b"\r\n", payload))
            self.flush_headers()

        def do_GET(self) -> None:  # noqa: N802 - stdlib naming
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802 - stdlib naming
            self._dispatch("POST")

        def log_message(self, format: str, *args: object) -> None:
            pass  # keep test/demo output clean

    return PortalHandler


def make_server(
    app: PortalApp,
    host: str = "127.0.0.1",
    port: int = 8080,
    sock: socket.socket | None = None,
) -> ThreadingHTTPServer:
    """Build the HTTP server without starting it (port 0 picks a free one).

    ``sock`` adopts an already-bound, already-listening socket instead
    of binding a new one — the pre-fork worker pool binds once in the
    parent and every forked worker serves the inherited socket, so the
    kernel load-balances accepts across workers with no port races.
    """
    if sock is None:
        return ThreadingHTTPServer((host, port), _make_handler(app))
    server = ThreadingHTTPServer(
        sock.getsockname()[:2], _make_handler(app), bind_and_activate=False
    )
    # Replace the unbound socket the constructor made with the adopted
    # one; the server now accepts on it but never binds or listens.
    server.socket.close()
    server.socket = sock
    server.server_address = sock.getsockname()[:2]
    return server


def serve(app: PortalApp, host: str = "127.0.0.1", port: int = 8080) -> None:
    """Block serving the portal (Ctrl-C to stop)."""
    server = make_server(app, host, port)
    try:
        server.serve_forever()
    finally:
        server.server_close()
