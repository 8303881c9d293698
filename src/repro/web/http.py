"""Request/response primitives for the portal.

Plain, in-process request and response objects: enough for the portal
(:mod:`repro.web.portal`) to behave like the web SOLAP clients the paper
targets (GeWOlap-style), while keeping everything deterministic;
:mod:`repro.web.server` serves it over a real socket.  Every failure of
the ``/api/v1`` surface answers the uniform error envelope::

    {"error": {"code": ..., "message": ..., "detail": ...}}
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.errors import BadRequestError

__all__ = [
    "Request",
    "Response",
    "json_response",
    "error_response",
    "parse_json_body",
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

    @property
    def session_token(self) -> str | None:
        """The session credential: the ``X-Session`` header (cookie
        stand-in), else an ``Authorization: Bearer`` credential."""
        token = _header(self.headers, "X-Session")
        if token is None:
            authorization = _header(self.headers, "Authorization") or ""
            if authorization.startswith("Bearer "):
                token = authorization[len("Bearer ") :].strip() or None
        return token


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


def parse_json_body(raw: bytes | str) -> dict:
    """Parse a JSON request body; a body that is not UTF-8, not JSON,
    nested deeper than the decoder recurses, or not an object raises
    :class:`BadRequestError` (400 ``bad_request``)."""
    if isinstance(raw, bytes):
        try:
            raw = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BadRequestError(f"request body is not UTF-8: {exc}") from exc
    if not raw.strip():
        return {}
    try:
        body = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise BadRequestError(f"malformed JSON body: {exc}") from exc
    except RecursionError as exc:
        raise BadRequestError("JSON body nested too deeply") from exc
    if not isinstance(body, dict):
        raise BadRequestError("JSON body must be an object")
    return body
