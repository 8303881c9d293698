"""Typed request/response DTOs for the personalization service.

Every ``/api/v1`` endpoint speaks one of these dataclasses instead of a
bare dict: requests are parsed from untrusted JSON bodies/query strings
with :meth:`from_body`-style constructors that raise
:class:`~repro.errors.BadRequestError` on invalid input, and responses
serialize through ``to_dict`` so the wire shape is defined in exactly one
place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import BadRequestError
from repro.geometry import Point

__all__ = [
    "PageRequest",
    "PageInfo",
    "LoginRequest",
    "LoginResult",
    "LogoutResult",
    "QueryRequest",
    "QueryResult",
    "RecommendationRequest",
    "RecommendationResult",
    "SelectionRequest",
    "SelectionResult",
    "RerunResult",
    "LayerResult",
    "DatamartInfo",
]


def _non_negative_int(value: object, name: str) -> int:
    """Coerce a body/query value (int or numeric string) to an int >= 0.

    The shared validation helper behind every paginated endpoint (layers,
    query rows, recommendations): a negative, boolean, fractional or
    non-numeric value raises a 400 with the ``invalid_request`` code
    instead of leaking as a 500.
    """
    if isinstance(value, bool) or (
        isinstance(value, float) and not value.is_integer()
    ):
        raise BadRequestError(
            f"{name!r} must be a non-negative integer, got {value!r}",
            code="invalid_request",
        )
    try:
        number = int(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise BadRequestError(
            f"{name!r} must be a non-negative integer, got {value!r}",
            code="invalid_request",
        ) from None
    if number < 0:
        raise BadRequestError(
            f"{name!r} must be >= 0, got {number}", code="invalid_request"
        )
    return number


@dataclass(frozen=True)
class PageRequest:
    """``limit``/``offset`` pagination window (limit ``None`` = no cap)."""

    limit: int | None = None
    offset: int = 0

    @classmethod
    def from_mapping(cls, data: Mapping[str, object]) -> "PageRequest":
        limit_raw = data.get("limit")
        offset_raw = data.get("offset")
        limit = None if limit_raw is None else _non_negative_int(limit_raw, "limit")
        offset = 0 if offset_raw is None else _non_negative_int(offset_raw, "offset")
        return cls(limit=limit, offset=offset)

    def apply(self, items: Sequence) -> tuple[list, "PageInfo"]:
        """Slice ``items`` to this window and describe the result."""
        total = len(items)
        stop = total if self.limit is None else self.offset + self.limit
        window = list(items[self.offset : stop])
        return window, PageInfo(
            total=total,
            offset=self.offset,
            limit=self.limit,
            returned=len(window),
        )


@dataclass(frozen=True)
class PageInfo:
    """What :meth:`PageRequest.apply` actually returned."""

    total: int
    offset: int
    limit: int | None
    returned: int

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "offset": self.offset,
            "limit": self.limit,
            "returned": self.returned,
        }


@dataclass(frozen=True)
class LoginRequest:
    """``journal=False`` opts the session out of workload journaling (the
    user's requests then never feed the recommendation subsystem)."""

    user: str
    datamart: str | None = None
    location: Point | None = None
    journal: bool = True

    @classmethod
    def from_body(cls, body: Mapping[str, object]) -> "LoginRequest":
        user = body.get("user")
        if not user or not isinstance(user, str):
            raise BadRequestError("login requires a 'user' field")
        datamart = body.get("datamart")
        if datamart is not None and not isinstance(datamart, str):
            raise BadRequestError("'datamart' must be a string")
        journal = body.get("journal", True)
        if not isinstance(journal, bool):
            raise BadRequestError("'journal' must be a boolean")
        location = None
        raw_location = body.get("location")
        if raw_location is not None:
            if (
                not isinstance(raw_location, (list, tuple))
                or len(raw_location) != 2
            ):
                raise BadRequestError("'location' must be [x, y]")
            # float() takes JSON booleans as 0/1, and Python's json module
            # parses NaN and Infinity: none of them is a place on the map.
            if any(isinstance(c, bool) for c in raw_location):
                raise BadRequestError("'location' coordinates must be numbers")
            try:
                x, y = float(raw_location[0]), float(raw_location[1])
            except (TypeError, ValueError):
                raise BadRequestError(
                    "'location' coordinates must be numbers"
                ) from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise BadRequestError("'location' coordinates must be finite")
            location = Point(x, y)
        return cls(
            user=user, datamart=datamart, location=location, journal=journal
        )


@dataclass(frozen=True)
class LoginResult:
    token: str
    user: str
    datamart: str
    rules_fired: list[str]
    view: dict
    journal: bool = True

    def to_dict(self) -> dict:
        return {
            "token": self.token,
            "user": self.user,
            "datamart": self.datamart,
            "rules_fired": list(self.rules_fired),
            "view": dict(self.view),
            "journal": self.journal,
        }


@dataclass(frozen=True)
class LogoutResult:
    ended: bool
    rules_fired: list[str]

    def to_dict(self) -> dict:
        return {"ended": self.ended, "rules_fired": list(self.rules_fired)}


@dataclass(frozen=True)
class QueryRequest:
    q: str
    page: PageRequest = field(default_factory=PageRequest)
    #: As-of-generation read: answer against the star as it stood at this
    #: generation (``None`` = live).  Validated like every pagination
    #: field; availability (checkpoint + contiguous log) is the façade's
    #: concern, not the DTO's.
    as_of: int | None = None

    @classmethod
    def from_body(
        cls,
        body: Mapping[str, object],
        query: Mapping[str, object] | None = None,
    ) -> "QueryRequest":
        text = body.get("q")
        if not text or not isinstance(text, str):
            raise BadRequestError("query requires a 'q' field")
        # ``as_of`` reads from the body first, then the URL query string
        # (``?as_of=g``) — the body is the canonical request document,
        # the query param the curl-friendly spelling.
        as_of_raw = body.get("as_of")
        if as_of_raw is None and query is not None:
            as_of_raw = query.get("as_of")
        as_of = (
            None if as_of_raw is None else _non_negative_int(as_of_raw, "as_of")
        )
        return cls(q=text, page=PageRequest.from_mapping(body), as_of=as_of)


@dataclass(frozen=True)
class QueryResult:
    axes: list[str]
    labels: list
    rows: list[list]
    fact_rows_scanned: int
    fact_rows_matched: int
    page: PageInfo

    def to_dict(self) -> dict:
        return {
            "axes": list(self.axes),
            "labels": list(self.labels),
            "rows": [list(row) for row in self.rows],
            "fact_rows_scanned": self.fact_rows_scanned,
            "fact_rows_matched": self.fact_rows_matched,
            "page": self.page.to_dict(),
        }


@dataclass(frozen=True)
class SelectionRequest:
    target: str
    condition: str

    @classmethod
    def from_body(cls, body: Mapping[str, object]) -> "SelectionRequest":
        target = body.get("target")
        condition = body.get("condition")
        if not target or not condition:
            raise BadRequestError("selection requires 'target' and 'condition'")
        if not isinstance(target, str) or not isinstance(condition, str):
            raise BadRequestError("'target' and 'condition' must be strings")
        return cls(target=target, condition=condition)


@dataclass(frozen=True)
class SelectionResult:
    matched_rules: list[str]
    profile: dict

    def to_dict(self) -> dict:
        return {
            "matched_rules": list(self.matched_rules),
            "profile": dict(self.profile),
        }


@dataclass(frozen=True)
class RerunResult:
    rules_fired: list[str]
    view: dict

    def to_dict(self) -> dict:
        return {"rules_fired": list(self.rules_fired), "view": dict(self.view)}


@dataclass(frozen=True)
class LayerResult:
    layer: str
    geometric_type: str
    features: list[dict]
    page: PageInfo

    def to_dict(self) -> dict:
        return {
            "layer": self.layer,
            "geometric_type": self.geometric_type,
            "features": list(self.features),
            "page": self.page.to_dict(),
        }


@dataclass(frozen=True)
class RecommendationRequest:
    """Paging plus the neighbourhood size for a recommendation call."""

    k: int | None = None
    page: PageRequest = field(default_factory=PageRequest)

    @classmethod
    def from_mapping(cls, data: Mapping[str, object]) -> "RecommendationRequest":
        k_raw = data.get("k")
        k = None
        if k_raw is not None:
            k = _non_negative_int(k_raw, "k")
            if k < 1:
                raise BadRequestError(
                    "'k' must be >= 1", code="invalid_request"
                )
        return cls(k=k, page=PageRequest.from_mapping(data))


@dataclass(frozen=True)
class RecommendationResult:
    """Ranked suggestions for one user plus the peers they came from."""

    kind: str
    user: str
    datamart: str
    items: list[dict]
    similar_users: list[dict]
    page: PageInfo

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "user": self.user,
            "datamart": self.datamart,
            "items": [dict(item) for item in self.items],
            "similar_users": [dict(peer) for peer in self.similar_users],
            "page": self.page.to_dict(),
        }


@dataclass(frozen=True)
class DatamartInfo:
    name: str
    description: str
    default: bool
    users: int
    rules: int
    sessions_started: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "default": self.default,
            "users": self.users,
            "rules": self.rules,
            "sessions_started": self.sessions_started,
        }
