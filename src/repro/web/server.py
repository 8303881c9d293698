"""The HTTP adapter for the portal.

Serves a :class:`~repro.web.portal.PortalApp` over a real socket:
``repro serve`` and every worker of a pool
(:func:`repro.cluster.pool._worker_main` calls :func:`make_server`), so
``tests/cluster/test_pool*.py``, the benchmark's ``pool`` workload and
``repro serve --workers`` all send their requests through it.  The other
tests and the in-process workload drive the app object directly.

The adapter is deliberately dumb, and frames each request itself in one
pass: the request line, then each header line straight into the plain
``dict`` :meth:`PortalApp.handle` takes (names as sent; a name sent
twice keeps its last value), then a body of ``Content-Length`` bytes.
It hands the method, path, query string, JSON body and headers to the
app, whatever the method, and writes the status line, ``Date``,
``Content-Type``, ``Content-Length``, the app's headers and the JSON
body in one ``sendall`` (a ``HEAD`` response stops after the headers).
An HTTP/1.1 connection stays open unless the request says ``Connection:
close``; an HTTP/1.0 one closes unless it says ``keep-alive``.  A body
that is not a JSON object answers ``400 bad_request`` and the
connection stays open.

What it cannot frame it refuses, and then closes the connection, since
where the next request would start is unknown.  Each refusal is the
portal's ``{"error": {"code", "message", "detail"}}`` envelope:

* 400 ``bad_request``: a request line other than ``METHOD target
  HTTP/1.0`` or ``HTTP/1.1``; a header line that is folded (starts with
  whitespace), has no colon, or whose name is not a token; a
  ``Content-Length`` that is not a decimal number, or that repeats with
  another value;
* 413 ``payload_too_large``: a declared body over
  :data:`MAX_BODY_BYTES`, refused before any of it is read;
* 414 ``uri_too_long``: a request line over 65,536 bytes;
* 431 ``header_fields_too_large``: a header line over 65,536 bytes, or
  more than 100 header lines;
* 501 ``not_implemented``: any ``Transfer-Encoding``;
* 505 ``http_version_not_supported``: an ``HTTP/x.y`` other than 1.0
  and 1.1.

``Expect: 100-continue`` on HTTP/1.1 gets the interim ``100 Continue``
once the head is accepted, before the body is read.  A path starting
with ``//`` is collapsed to one slash before it is split, so it can
never read as a host.  Concurrent requests are safe under the threading
server: the session store is lock-protected, logins are serialized per
engine, and requests carrying the same token are serialized per session
record in the service layer.
"""

from __future__ import annotations

import json
import re
import socket
import socketserver
import time
from email.utils import formatdate
from http import HTTPStatus
from http.server import ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from repro.errors import BadRequestError
from repro.web.http import (
    Response,
    error_response,
    json_response,
    parse_json_body,
)
from repro.web.portal import PortalApp

__all__ = ["MAX_BODY_BYTES", "make_server", "serve"]

#: The largest request body read (1 MiB); the API's largest body is a
#: query string.
MAX_BODY_BYTES = 1 << 20

#: The longest request or header line, and the most header lines, read
#: (the limits ``http.server`` and ``http.client`` apply).
_MAX_LINE = 65536
_MAX_HEADERS = 100

_TOKEN = r"[!#$%&'*+.^_`|~0-9A-Za-z-]+"
_REQUEST_LINE = re.compile(rf"({_TOKEN}) (\S+) (HTTP/\d+\.\d+)\r?\n?")
_FIELD_NAME = re.compile(_TOKEN)
_VERSIONS = ("HTTP/1.0", "HTTP/1.1")
_REASONS = {status.value: status.phrase for status in HTTPStatus}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_encode = json.JSONEncoder(default=str).encode


def _make_handler(app: PortalApp) -> type[socketserver.StreamRequestHandler]:
    class PortalHandler(socketserver.StreamRequestHandler):
        #: ``(second, Date header value)``: the value is formatted at
        #: most once a second.  One tuple, replaced whole, so a thread
        #: never reads one second's stamp with another's text.
        _date = (0, "")

        def handle(self) -> None:
            while self._serve_one():
                pass

        def _serve_one(self) -> bool:
            """Frame, dispatch and answer one request; whether the
            connection stays open for the next one."""
            rfile = self.rfile
            line = rfile.readline(_MAX_LINE + 1)
            if not line:
                return False  # the client closed the connection
            if len(line) > _MAX_LINE:
                return self._refuse(
                    414, "uri_too_long", f"request line over {_MAX_LINE} bytes"
                )
            request_line = line.decode("latin-1")
            match = _REQUEST_LINE.fullmatch(request_line)
            if match is None:
                return self._refuse(
                    400,
                    "bad_request",
                    f"malformed request line: {request_line.rstrip()!r}",
                )
            method, target, version = match.groups()
            if version not in _VERSIONS:
                return self._refuse(
                    505,
                    "http_version_not_supported",
                    f"{version} is not supported (HTTP/1.0 and HTTP/1.1 are)",
                )
            # Every response carries Content-Length, so a connection can
            # persist; that also gives the worker-pool clients connection
            # affinity (a connection sticks to the worker that accepted it).
            keep_alive = version == "HTTP/1.1"
            expect_continue = False
            length = None
            headers: dict[str, str] = {}
            fields = 0
            while True:
                line = rfile.readline(_MAX_LINE + 1)
                if line in (b"\r\n", b"\n"):
                    break
                if not line:
                    return False  # closed in the middle of the head
                if len(line) > _MAX_LINE:
                    return self._refuse(
                        431,
                        "header_fields_too_large",
                        f"header line over {_MAX_LINE} bytes",
                    )
                fields += 1
                if fields > _MAX_HEADERS:
                    return self._refuse(
                        431,
                        "header_fields_too_large",
                        f"more than {_MAX_HEADERS} header lines",
                    )
                text = line.decode("latin-1")
                name, colon, value = text.partition(":")
                if not colon or _FIELD_NAME.fullmatch(name) is None:
                    return self._refuse(
                        400,
                        "bad_request",
                        f"malformed header line: {text.rstrip()!r}",
                    )
                value = value.lstrip(" \t").rstrip("\r\n")
                headers[name] = value
                lowered = name.lower()
                if lowered == "content-length":
                    if length is not None and value != length:
                        return self._refuse(
                            400,
                            "bad_request",
                            f"conflicting Content-Length values: "
                            f"{length!r} and {value!r}",
                        )
                    length = value
                elif lowered == "transfer-encoding":
                    return self._refuse(
                        501,
                        "not_implemented",
                        f"Transfer-Encoding {value!r} is not supported; "
                        "send a Content-Length body",
                    )
                elif lowered == "connection":
                    options = {
                        option.strip().lower() for option in value.split(",")
                    }
                    if "close" in options:
                        keep_alive = False
                    elif "keep-alive" in options:
                        keep_alive = True
                elif lowered == "expect":
                    expect_continue = value.lower() == "100-continue"
            length = length or "0"
            if not (length.isascii() and length.isdigit()):
                return self._refuse(
                    400, "bad_request", f"malformed Content-Length: {length!r}"
                )
            # Compared by digit count first: int() refuses a string of
            # 4,300 digits, and one past the limit's count is over it.
            digits = length.lstrip("0") or "0"
            if (
                len(digits) > len(str(MAX_BODY_BYTES))
                or int(digits) > MAX_BODY_BYTES
            ):
                return self._refuse(
                    413,
                    "payload_too_large",
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit",
                    detail={"max_bytes": MAX_BODY_BYTES},
                )
            if expect_continue and version == "HTTP/1.1":
                self.connection.sendall(_CONTINUE)
            size = int(digits)
            raw = rfile.read(size) if size else b""
            if len(raw) < size:
                return False  # closed in the middle of the body
            if target.startswith("//"):
                target = "/" + target.lstrip("/")
            split = urlsplit(target)
            query = dict(parse_qsl(split.query)) if split.query else None
            try:
                body = parse_json_body(raw)
            except BadRequestError as exc:
                response = json_response(exc.envelope(), status=exc.status)
            else:
                response = app.handle(
                    method, split.path, body, headers=headers, query=query
                )
            if keep_alive:
                connection = "keep-alive" if version == "HTTP/1.0" else None
            else:
                connection = "close"
            self._send(response, connection, with_body=method != "HEAD")
            return keep_alive

        def _refuse(
            self, status: int, code: str, message: str, detail: object = None
        ) -> bool:
            """Answer a request the adapter cannot frame, and close."""
            self._send(
                error_response(code, message, status, detail=detail), "close"
            )
            return False

        def _send(
            self,
            response: Response,
            connection: str | None,
            with_body: bool = True,
        ) -> None:
            """The whole response in one ``sendall``: a body sent as a
            second segment waits on a client's delayed ACK."""
            payload = _encode(response.body).encode("utf-8")
            status = response.status
            lines = [
                f"HTTP/1.1 {status} {_REASONS.get(status, '')}",
                f"Date: {self._date_value()}",
                "Content-Type: application/json",
                f"Content-Length: {len(payload)}",
            ]
            lines.extend(
                f"{key}: {value}" for key, value in response.headers.items()
            )
            if connection is not None:
                lines.append(f"Connection: {connection}")
            lines.append("\r\n")
            head = "\r\n".join(lines).encode("latin-1")
            self.connection.sendall(head + payload if with_body else head)

        def _date_value(self) -> str:
            now = int(time.time())
            stamp = PortalHandler._date
            if stamp[0] != now:
                stamp = (now, formatdate(now, usegmt=True))
                PortalHandler._date = stamp
            return stamp[1]

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
