"""The web analysis portal: "web-based personalization" made concrete.

A GeWOlap-style web front end over the personalization *service* layer.
Decision makers log in (SessionStart rules fire and build their
personalized view), run GeoMDQL-lite queries against that view, report
spatial selections (feeding the interest-tracking rules of Example 5.3),
inspect their profile and schema, and log out (SessionEnd).

The portal itself is a thin, versioned route table behind one fixed
request pipeline, :meth:`PortalApp.handle`: it routes, renders every
failure as the error envelope and logs one line per request.  Every
handler parses a DTO, calls one
:class:`~repro.service.facade.PersonalizationService` method, and
serializes the result.  All application logic, session state
(TTL/eviction in the session store) and multi-datamart tenancy live in
:mod:`repro.service`.

Versioned routes (``/api/v1``):

======  ==============================  =======================================
POST    /api/v1/login                   {"user", "datamart"?, "location"?} ->
                                        token (datamart picks the tenant)
POST    /api/v1/logout                  end the session
GET     /api/v1/me                      profile snapshot
GET     /api/v1/schema                  personalized GeoMD schema (dict form)
GET     /api/v1/view                    personalization statistics
POST    /api/v1/query                   {"q", "limit"?, "offset"?} over the
                                        personalized view (paginated rows)
POST    /api/v1/selection               {"target", "condition"} event report
POST    /api/v1/selection/rerun         re-run instance rules after interest
                                        changes
GET     /api/v1/layers/{name}           features of a thematic layer (WKT),
                                        paginated via ?limit=&offset=
GET     /api/v1/datamarts               hosted tenants (no token required)
GET     /api/v1/health                  liveness + cache/journal stats
                                        (no token required)
GET     /api/v1/recommendations/{kind}  ranked suggestions mined from similar
                                        users' workload journals; kind is
                                        ``queries``/``layers``/``members``,
                                        tunable via ?k=&limit=&offset=
======  ==============================  =======================================

Login accepts a ``"journal": false`` flag to opt the session out of
workload journaling (its requests then never feed recommendations).
Only the ``/api/v1`` routes exist; an unversioned path answers 404.

Every failure response shares the uniform envelope
``{"error": {"code", "message", "detail"}}``; expired or invalid
sessions return structured 401s.  The session token travels in the
``X-Session`` header (or ``Authorization: Bearer``).
"""

from __future__ import annotations

import logging
import time

from repro.errors import NotFoundError, ServiceError
from repro.personalization.engine import PersonalizationEngine
from repro.service import (
    DatamartRegistry,
    LoginRequest,
    PageRequest,
    PersonalizationService,
    QueryRequest,
    RecommendationRequest,
    SelectionRequest,
)
from repro.sus.model import UserProfile
from repro.web.http import Request, Response, _header, error_response, json_response

__all__ = ["PortalApp", "API_PREFIX"]

API_PREFIX = "/api/v1"

_log = logging.getLogger("repro.web")


class PortalApp:
    """The in-process web application: a fixed route table, no logic.

    Construct either from a single engine (back-compat: it becomes the
    ``default`` datamart) or from a pre-built service for multi-tenant
    deployments.
    """

    def __init__(
        self,
        engine: PersonalizationEngine | None = None,
        *,
        service: PersonalizationService | None = None,
        datamart_name: str = "default",
    ) -> None:
        if service is not None:
            self.service = service
        else:
            registry = DatamartRegistry()
            if engine is not None:
                registry.register(datamart_name, engine, default=True)
            self.service = PersonalizationService(registry)
        #: path -> (method, handler)
        self._routes = {
            API_PREFIX + path: route
            for path, route in {
                "/login": ("POST", self._login),
                "/logout": ("POST", self._logout),
                "/me": ("GET", self._me),
                "/schema": ("GET", self._schema),
                "/view": ("GET", self._view),
                "/query": ("POST", self._query),
                "/selection": ("POST", self._selection),
                "/selection/rerun": ("POST", self._selection_rerun),
                "/datamarts": ("GET", self._datamarts),
                "/health": ("GET", self._health),
            }.items()
        }
        #: The ``GET`` routes that end in one path parameter:
        #: path before it -> (parameter name, handler).
        self._param_routes = {
            API_PREFIX + "/layers": ("name", self._layer),
            API_PREFIX + "/recommendations": ("kind", self._recommendations),
        }

    # -- user management ----------------------------------------------------------

    @property
    def registry(self) -> DatamartRegistry:
        return self.service.registry

    def register_user(
        self, profile: UserProfile, datamart: str | None = None
    ) -> None:
        """Make a profile known to a datamart (the paper gathers user data
        from requirements before runtime; ``None`` targets the default)."""
        self.registry.get(datamart).register_user(profile)

    # -- request entry point ------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        token: str | None = None,
        headers: dict[str, str] | None = None,
        query: dict[str, str] | None = None,
    ) -> Response:
        """Answer one request: where every request starts and ends.

        ``headers`` are passed through verbatim; ``token`` is sugar for
        an ``X-Session`` header, and a header sent under that name in any
        case wins (found by :func:`~repro.web.http._header`, the lookup
        :attr:`Request.session_token` makes).
        A :class:`ServiceError` answers its own envelope and any other
        exception a 500 ``internal`` one; every request logs one
        ``METHOD path -> status (x.xx ms)`` line on ``repro.web``.
        """
        started = time.perf_counter()
        merged_headers = dict(headers or {})
        if token is not None and _header(merged_headers, "X-Session") is None:
            merged_headers["X-Session"] = token
        request = Request(
            method=method,
            path=path,
            body=dict(body or {}),
            headers=merged_headers,
            query=dict(query or {}),
        )
        try:
            response = self._dispatch(request)
        except ServiceError as exc:
            response = json_response(exc.envelope(), status=exc.status)
        except Exception as exc:  # noqa: BLE001 - surface as 500
            response = error_response(
                "internal", f"{type(exc).__name__}: {exc}", 500
            )
        _log.info(
            "%s %s -> %d (%.2f ms)",
            method.upper(),
            path,
            response.status,
            (time.perf_counter() - started) * 1000.0,
        )
        return response

    def _dispatch(self, request: Request) -> Response:
        """Route to the one handler for the path and method: 404 for a
        path no route has, 405 for a route asked with another method."""
        path = request.path
        route = self._routes.get(path)
        if route is None:
            prefix, _, param = path.rpartition("/")
            found = self._param_routes.get(prefix) if param else None
            if found is None:
                raise NotFoundError(f"no route for {path}")
            name, handler = found
            request.params = {name: param}
            route = ("GET", handler)
        method, handler = route
        if request.method.upper() != method:
            raise ServiceError(
                f"method {request.method.upper()} not allowed for {path}",
                code="method_not_allowed",
                status=405,
            )
        return handler(request)

    # -- handlers (thin delegation to the service) --------------------------------

    def _login(self, request: Request) -> Response:
        result = self.service.login(LoginRequest.from_body(request.body))
        return json_response(result.to_dict())

    def _logout(self, request: Request) -> Response:
        return json_response(
            self.service.logout(request.session_token).to_dict()
        )

    def _me(self, request: Request) -> Response:
        return json_response(self.service.profile(request.session_token))

    def _schema(self, request: Request) -> Response:
        return json_response(self.service.schema(request.session_token))

    def _view(self, request: Request) -> Response:
        return json_response(self.service.view_stats(request.session_token))

    def _query(self, request: Request) -> Response:
        result = self.service.query(
            request.session_token,
            QueryRequest.from_body(request.body, request.query),
        )
        return json_response(result.to_dict())

    def _selection(self, request: Request) -> Response:
        result = self.service.record_selection(
            request.session_token, SelectionRequest.from_body(request.body)
        )
        return json_response(result.to_dict())

    def _selection_rerun(self, request: Request) -> Response:
        return json_response(
            self.service.rerun_instance_rules(request.session_token).to_dict()
        )

    def _layer(self, request: Request) -> Response:
        result = self.service.layer(
            request.session_token,
            request.params["name"],
            PageRequest.from_mapping(request.query),
        )
        return json_response(result.to_dict())

    def _recommendations(self, request: Request) -> Response:
        result = self.service.recommendations(
            request.session_token,
            request.params["kind"],
            RecommendationRequest.from_mapping(request.query),
        )
        return json_response(result.to_dict())

    def _health(self, request: Request) -> Response:
        return json_response(self.service.health())

    def _datamarts(self, request: Request) -> Response:
        return json_response(
            {"datamarts": [dm.to_dict() for dm in self.service.datamarts()]}
        )

