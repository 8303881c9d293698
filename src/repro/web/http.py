"""Request/response primitives, routing and middleware for the portal.

A dependency-free, WSGI-flavoured micro-framework: enough for the portal
(:mod:`repro.web.portal`) to behave like the web SOLAP clients the paper
targets (GeWOlap-style), while keeping everything in-process and
deterministic; :mod:`repro.web.server` serves it over a real socket.

On top of the seed's :class:`Router`, this module provides a small
middleware pipeline (``Callable[[Request, Handler], Response]``) and the
uniform error envelope of the ``/api/v1`` surface::

    {"error": {"code": ..., "message": ..., "detail": ...}}

Built-in middlewares:

* :func:`error_envelope_middleware` — translates :class:`ServiceError`
  (and stray exceptions) into enveloped responses, innermost so the
  other middlewares observe the final status;
* :func:`session_token_middleware` — resolves the session token from the
  ``X-Session`` header or an ``Authorization: Bearer`` credential into
  ``request.context["token"]``;
* :func:`request_logging_middleware` — method/path/status/duration lines
  on a standard :mod:`logging` logger.
"""

from __future__ import annotations

import json
import logging
import re
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ServiceError, WebError

__all__ = [
    "Request",
    "Response",
    "Router",
    "Handler",
    "Middleware",
    "json_response",
    "error_response",
    "parse_json_body",
    "error_envelope_middleware",
    "session_token_middleware",
    "request_logging_middleware",
]


def _header(headers: dict[str, str], name: str) -> str | None:
    """Case-insensitive header lookup (HTTP header names are)."""
    value = headers.get(name)
    if value is not None:
        return value
    lowered = name.lower()
    for key, value in headers.items():
        if key.lower() == lowered:
            return value
    return None


@dataclass
class Request:
    """An HTTP-ish request."""

    method: str
    path: str
    body: dict = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    params: dict[str, str] = field(default_factory=dict)  # path parameters
    query: dict[str, str] = field(default_factory=dict)
    context: dict = field(default_factory=dict)  # middleware scratch space

    @property
    def session_token(self) -> str | None:
        """Session token resolved by middleware, falling back to the raw
        ``X-Session`` header (cookie stand-in)."""
        token = self.context.get("token")
        if token is not None:
            return token
        return _header(self.headers, "X-Session")


@dataclass
class Response:
    """An HTTP-ish response with a JSON body."""

    status: int
    body: dict = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def json(self) -> dict:
        return self.body

    def text(self) -> str:
        return json.dumps(self.body, indent=2, sort_keys=True, default=str)


def json_response(body: dict, status: int = 200) -> Response:
    return Response(status=status, body=body)


def error_response(
    code: str, message: str, status: int, detail: object = None
) -> Response:
    """The uniform error envelope shared by every failure response."""
    return Response(
        status=status,
        body={"error": {"code": code, "message": message, "detail": detail}},
    )


_PARAM_RE = re.compile(r"\{([a-zA-Z_][a-zA-Z_0-9]*)\}")

Handler = Callable[[Request], Response]
Middleware = Callable[[Request, Handler], Response]


def error_envelope_middleware(request: Request, handler: Handler) -> Response:
    """Translate exceptions into the uniform error envelope.

    :class:`ServiceError` carries its own code/status/detail;
    :class:`WebError` stays a plain 400 (legacy portal validation); any
    other exception becomes an opaque 500.
    """
    try:
        return handler(request)
    except ServiceError as exc:
        return json_response(exc.envelope(), status=exc.status)
    except WebError as exc:
        return error_response("bad_request", str(exc), 400)
    except Exception as exc:  # noqa: BLE001 - surface as 500
        return error_response("internal", f"{type(exc).__name__}: {exc}", 500)


def session_token_middleware(request: Request, handler: Handler) -> Response:
    """Resolve the session credential into ``request.context['token']``."""
    token = _header(request.headers, "X-Session")
    if token is None:
        authorization = _header(request.headers, "Authorization") or ""
        if authorization.startswith("Bearer "):
            token = authorization[len("Bearer ") :].strip() or None
    if token is not None:
        request.context["token"] = token
    return handler(request)


def request_logging_middleware(
    logger: logging.Logger | None = None,
) -> Middleware:
    """Build a middleware logging one line per request."""
    log = logger or logging.getLogger("repro.web")

    def middleware(request: Request, handler: Handler) -> Response:
        started = time.perf_counter()
        response = handler(request)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        log.info(
            "%s %s -> %d (%.2f ms)",
            request.method.upper(),
            request.path,
            response.status,
            elapsed_ms,
        )
        return response

    return middleware


class Router:
    """Method+path routing with ``{param}`` captures and middleware.

    Middlewares wrap every dispatched handler, first-added outermost;
    :func:`error_envelope_middleware` is always applied innermost so
    handler failures reach the other middlewares as enveloped responses,
    and a final safety net around the whole chain keeps middleware bugs
    from escaping as raw exceptions.
    """

    def __init__(self, middlewares: list[Middleware] | None = None) -> None:
        self._routes: list[tuple[str, re.Pattern[str], Handler]] = []
        self._middlewares: list[Middleware] = list(middlewares or [])

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        if not pattern.startswith("/"):
            raise WebError(f"route pattern must start with '/': {pattern!r}")
        regex = _PARAM_RE.sub(r"(?P<\1>[^/]+)", pattern)
        self._routes.append((method.upper(), re.compile(f"^{regex}$"), handler))

    def get(self, pattern: str, handler: Handler) -> None:
        self.add("GET", pattern, handler)

    def post(self, pattern: str, handler: Handler) -> None:
        self.add("POST", pattern, handler)

    def _resolve(self, request: Request) -> Handler:
        """Find the handler (binding path params), or a raising fallback."""
        path_matched = False
        for method, regex, handler in self._routes:
            match = regex.match(request.path)
            if match is None:
                continue
            path_matched = True
            if method != request.method.upper():
                continue
            request.params = match.groupdict()
            return handler
        if path_matched:
            def method_not_allowed(req: Request) -> Response:
                raise ServiceError(
                    f"method {req.method.upper()} not allowed for {req.path}",
                    code="method_not_allowed",
                    status=405,
                )

            return method_not_allowed

        def not_found(req: Request) -> Response:
            raise ServiceError(
                f"no route for {req.path}", code="not_found", status=404
            )

        return not_found

    def dispatch(self, request: Request) -> Response:
        """Route a request through the middleware chain.

        404/405 are raised by fallback handlers so middleware (logging,
        auth) observes them like any other outcome.
        """
        chain: Handler = self._resolve(request)
        for middleware in reversed(
            [*self._middlewares, error_envelope_middleware]
        ):
            chain = _bind(middleware, chain)
        # Safety net: a buggy middleware above the envelope layer must
        # still produce an enveloped response, not a raw exception.
        return error_envelope_middleware(request, chain)


def _bind(middleware: Middleware, inner: Handler) -> Handler:
    def bound(request: Request) -> Response:
        return middleware(request, inner)

    return bound


def parse_json_body(raw: bytes | str) -> dict:
    """Parse a JSON request body, mapping errors to :class:`WebError`."""
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WebError(f"request body is not UTF-8: {exc}") from exc
    if not raw.strip():
        return {}
    try:
        body = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise WebError(f"malformed JSON body: {exc}") from exc
    if not isinstance(body, dict):
        raise WebError("JSON body must be an object")
    return body
