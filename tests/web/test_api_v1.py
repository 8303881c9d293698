"""Tests for the versioned /api/v1 surface: envelopes, tenancy and
paging."""

import pytest

from repro.data import (
    WorldGeoSource,
    build_regional_manager_profile,
    build_sales_star,
)
from repro.personalization import PersonalizationEngine
from repro.service import (
    DatamartRegistry,
    InMemorySessionStore,
    PersonalizationService,
)
from repro.web import PortalApp

CONDITION = "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km"


#: Queries that are wrong in themselves: names the schema or the star
#: lacks, a wrong aggregation, a non-spatial level, a negative distance.
#: ``Train`` is added only by a TrainAirportCity login, which the
#: fixture's first login does not fire.
QUERY_MISTAKES = [
    "SELECT COUNT(*) FROM Nope",
    "SELECT SUM(x) FROM Sales",
    "SELECT AVG(Nope) FROM Sales",
    "SELECT SUM(*) FROM Sales",
    "SELECT COUNT(*) FROM Sales BY Nope",
    "SELECT COUNT(*) FROM Sales BY Nope.Level",
    "SELECT COUNT(*) FROM Sales BY Store.Nope",
    "SELECT COUNT(*) FROM Sales BY Store.geometry",
    "SELECT COUNT(*) FROM Sales BY Customer.Nope",
    "SELECT COUNT(*) FROM Sales WHERE Nope.x = 1",
    "SELECT COUNT(*) FROM Sales WHERE Store.Nope.x = 1",
    "SELECT COUNT(*) FROM Sales WHERE Store.City.nope = 1",
    "SELECT COUNT(*) FROM Sales WHERE DISTANCE(Store.Nope, LAYER Airport) < 5 KM",
    "SELECT COUNT(*) FROM Sales WHERE INSIDE(Store, LAYER Nope)",
    "SELECT COUNT(*) FROM Sales WHERE INSIDE(Store, LAYER Train)",
    "SELECT COUNT(*) FROM Sales WHERE DISTANCE(Customer, LAYER Airport) < 5 KM",
    "SELECT COUNT(*) FROM Sales WHERE DISTANCE(Store.State, LAYER Airport) < 5 KM",
    "SELECT COUNT(*) FROM Sales WHERE DISTANCE(Store, LAYER Airport) < -5 KM",
    "SELECT COUNT(*) FROM Sales WHERE DISTANCE(Store, LAYER Airport) < nan KM",
    "SELECT COUNT(*) FROM Sales WHERE Store.City.population IN (nan, 1)",
]


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return Clock()


@pytest.fixture()
def portal(engine, world, user_schema, profile, clock):
    """A two-tenant portal with a deterministic, short-TTL session store."""
    registry = DatamartRegistry()
    sales = registry.register("sales", engine, description="paper scenario")
    sales.register_user(profile)
    bare = registry.register(
        "bare",
        PersonalizationEngine(
            build_sales_star(world),
            user_schema,
            geo_source=WorldGeoSource(world),
        ),
    )
    bare.register_user(
        build_regional_manager_profile(user_schema, name="Bo Li")
    )
    service = PersonalizationService(
        registry, session_store=InMemorySessionStore(ttl=100.0, clock=clock)
    )
    return PortalApp(service=service)


def _login(portal, profile, world, **extra):
    location = world.stores[0].location
    body = {"user": profile.user_id, "location": [location.x, location.y]}
    body.update(extra)
    response = portal.handle("POST", "/api/v1/login", body)
    assert response.ok, response.body
    return response.json()["token"]


def _assert_envelope(response, status, code=None):
    assert response.status == status, response.body
    assert set(response.body) == {"error"}
    envelope = response.body["error"]
    assert set(envelope) == {"code", "message", "detail"}
    if code is not None:
        assert envelope["code"] == code
    assert isinstance(envelope["message"], str) and envelope["message"]


class TestErrorEnvelope:
    """Every failure path shares {"error": {code, message, detail}}."""

    def test_missing_token(self, portal):
        _assert_envelope(
            portal.handle("GET", "/api/v1/view"), 401, "missing_token"
        )

    def test_invalid_token(self, portal):
        _assert_envelope(
            portal.handle("GET", "/api/v1/view", token="tok-nope"),
            401,
            "invalid_session",
        )

    def test_expired_session(self, portal, profile, world, clock):
        token = _login(portal, profile, world)
        clock.advance(101.0)
        _assert_envelope(
            portal.handle("GET", "/api/v1/view", token=token),
            401,
            "session_expired",
        )

    def test_unknown_user(self, portal):
        _assert_envelope(
            portal.handle("POST", "/api/v1/login", {"user": "nobody"}),
            404,
            "unknown_user",
        )

    def test_unknown_datamart(self, portal, profile):
        _assert_envelope(
            portal.handle(
                "POST",
                "/api/v1/login",
                {"user": profile.user_id, "datamart": "marketing"},
            ),
            404,
            "unknown_datamart",
        )

    def test_missing_user_field(self, portal):
        _assert_envelope(
            portal.handle("POST", "/api/v1/login", {}), 400, "bad_request"
        )

    def test_bad_location(self, portal, profile):
        _assert_envelope(
            portal.handle(
                "POST",
                "/api/v1/login",
                {"user": profile.user_id, "location": [1]},
            ),
            400,
            "bad_request",
        )

    @pytest.mark.parametrize(
        "location",
        [[float("nan"), 0], [float("inf"), 0], [True, False]],
        ids=["nan", "infinity", "booleans"],
    )
    def test_non_finite_or_boolean_location(self, portal, profile, location):
        # Python's json module parses NaN and Infinity, and float() takes
        # booleans: none of them may log in, or fail as a 500.
        _assert_envelope(
            portal.handle(
                "POST",
                "/api/v1/login",
                {"user": profile.user_id, "location": location},
            ),
            400,
            "bad_request",
        )

    def test_bad_query(self, portal, profile, world):
        token = _login(portal, profile, world)
        _assert_envelope(
            portal.handle(
                "POST", "/api/v1/query", {"q": "SELEKT nope"}, token=token
            ),
            400,
            "query_error",
        )

    @pytest.mark.parametrize("q", QUERY_MISTAKES)
    def test_query_mistake_answers_400_on_both_paths(
        self, portal, engine, profile, world, q
    ):
        """A query's own mistake answers 400 ``query_error`` with the
        same body whether the star's ``oracle`` switch is set or not,
        and leaves nothing in the journal."""
        token = _login(portal, profile, world)
        service = portal.service
        journaled = len(service.journal.events("sales", profile.user_id))
        bodies = []
        for oracle in (False, True):
            engine.star.oracle = oracle
            response = portal.handle(
                "POST", "/api/v1/query", {"q": q}, token=token
            )
            _assert_envelope(response, 400, "query_error")
            assert response.body["error"]["detail"] == {"q": q}
            bodies.append(response.body)
        assert bodies[0] == bodies[1]
        events = service.journal.events("sales", profile.user_id)
        assert len(events) == journaled

    def test_missing_selection_fields(self, portal, profile, world):
        token = _login(portal, profile, world)
        _assert_envelope(
            portal.handle(
                "POST", "/api/v1/selection", {"target": "x"}, token=token
            ),
            400,
            "bad_request",
        )

    def test_unknown_layer(self, portal, profile, world):
        token = _login(portal, profile, world)
        _assert_envelope(
            portal.handle("GET", "/api/v1/layers/Rivers", token=token),
            404,
            "unknown_layer",
        )

    def test_unknown_route(self, portal):
        _assert_envelope(
            portal.handle("GET", "/api/v1/nowhere"), 404, "not_found"
        )

    def test_method_not_allowed(self, portal):
        _assert_envelope(
            portal.handle("GET", "/api/v1/login"), 405, "method_not_allowed"
        )

    def test_bad_pagination_value(self, portal, profile, world):
        token = _login(portal, profile, world)
        _assert_envelope(
            portal.handle(
                "GET",
                "/api/v1/layers/Airport",
                token=token,
                query={"limit": "many"},
            ),
            400,
            "invalid_request",
        )

    @pytest.mark.parametrize(
        "params",
        [
            {"limit": "-1"},
            {"offset": "-3"},
            {"limit": "1.5"},
            {"offset": "many"},
        ],
    )
    def test_invalid_pagination_shared_across_endpoints(
        self, portal, profile, world, params
    ):
        """Negative/non-integer limit/offset is a 400 `invalid_request`
        everywhere paging exists — layers, query rows, recommendations —
        never a 500."""
        token = _login(portal, profile, world)
        for method, path, body in [
            ("GET", "/api/v1/layers/Airport", None),
            ("POST", "/api/v1/query", {"q": "q"}),
            ("GET", "/api/v1/recommendations/queries", None),
        ]:
            if body is not None:
                merged = dict(body)
                merged.update(params)
                response = portal.handle(method, path, merged, token=token)
            else:
                response = portal.handle(
                    method, path, token=token, query=dict(params)
                )
            _assert_envelope(response, 400, "invalid_request")

    def test_invalid_neighbourhood_size(self, portal, profile, world):
        token = _login(portal, profile, world)
        for k in ("0", "-2", "few"):
            _assert_envelope(
                portal.handle(
                    "GET",
                    "/api/v1/recommendations/queries",
                    token=token,
                    query={"k": k},
                ),
                400,
                "invalid_request",
            )


class TestMultiDatamart:
    def test_login_routes_to_named_datamart(self, portal, world):
        response = portal.handle(
            "POST", "/api/v1/login", {"user": "bo-li", "datamart": "bare"}
        )
        assert response.ok
        payload = response.json()
        assert payload["datamart"] == "bare"
        assert payload["rules_fired"] == []

    def test_default_datamart_fires_paper_rules(self, portal, profile, world):
        response = portal.handle(
            "POST",
            "/api/v1/login",
            {
                "user": profile.user_id,
                "location": [
                    world.stores[0].location.x,
                    world.stores[0].location.y,
                ],
            },
        )
        payload = response.json()
        assert payload["datamart"] == "sales"
        assert "addSpatiality" in payload["rules_fired"]

    def test_datamarts_endpoint_is_public(self, portal, profile, world):
        _login(portal, profile, world)
        response = portal.handle("GET", "/api/v1/datamarts")
        assert response.ok
        datamarts = {d["name"]: d for d in response.json()["datamarts"]}
        assert set(datamarts) == {"sales", "bare"}
        assert datamarts["sales"]["default"] is True
        assert datamarts["sales"]["sessions_started"] == 1
        assert datamarts["sales"]["rules"] == 5

    def test_users_are_tenant_scoped(self, portal):
        _assert_envelope(
            portal.handle(
                "POST", "/api/v1/login", {"user": "bo-li", "datamart": "sales"}
            ),
            404,
            "unknown_user",
        )


class TestPagination:
    def test_layer_window(self, portal, profile, world):
        token = _login(portal, profile, world)
        full = portal.handle("GET", "/api/v1/layers/Airport", token=token)
        total = full.json()["page"]["total"]
        assert total == len(world.airports)
        assert full.json()["page"]["limit"] is None

        page = portal.handle(
            "GET",
            "/api/v1/layers/Airport",
            token=token,
            query={"limit": "1", "offset": "1"},
        )
        payload = page.json()
        assert len(payload["features"]) == 1
        assert payload["page"] == {
            "total": total,
            "offset": 1,
            "limit": 1,
            "returned": 1,
        }
        assert payload["features"][0] == full.json()["features"][1]

    def test_offset_past_end_is_empty(self, portal, profile, world):
        token = _login(portal, profile, world)
        response = portal.handle(
            "GET",
            "/api/v1/layers/Airport",
            token=token,
            query={"offset": "9999"},
        )
        assert response.ok
        assert response.json()["features"] == []
        assert response.json()["page"]["returned"] == 0

    def test_limit_zero_is_empty(self, portal, profile, world):
        token = _login(portal, profile, world)
        response = portal.handle(
            "GET",
            "/api/v1/layers/Airport",
            token=token,
            query={"limit": "0"},
        )
        assert response.ok
        assert response.json()["features"] == []
        assert response.json()["page"]["total"] == len(world.airports)

    def test_query_rows_paginate(self, portal, profile, world):
        token = _login(portal, profile, world)
        body = {"q": "SELECT SUM(UnitSales) FROM Sales BY Product.Family"}
        full = portal.handle("POST", "/api/v1/query", body, token=token).json()
        paged = portal.handle(
            "POST",
            "/api/v1/query",
            {**body, "limit": 1, "offset": 1},
            token=token,
        ).json()
        assert paged["rows"] == full["rows"][1:2]
        assert paged["page"]["total"] == len(full["rows"])
        # Scan statistics describe the query, not the page window.
        assert paged["fact_rows_scanned"] == full["fact_rows_scanned"]


class TestHeaderHandling:
    def test_handle_passes_extra_headers(self, portal, profile, world):
        # The seed's handle() dropped everything except the token kwarg.
        token = _login(portal, profile, world)
        response = portal.handle(
            "GET", "/api/v1/view", headers={"X-Session": token}
        )
        assert response.ok

    def test_header_names_are_case_insensitive(self, portal, profile, world):
        # Real HTTP clients may lowercase header names.
        token = _login(portal, profile, world)
        assert portal.handle(
            "GET", "/api/v1/view", headers={"x-session": token}
        ).ok
        assert portal.handle(
            "GET", "/api/v1/view", headers={"authorization": f"Bearer {token}"}
        ).ok

    def test_authorization_bearer_is_accepted(self, portal, profile, world):
        token = _login(portal, profile, world)
        response = portal.handle(
            "GET",
            "/api/v1/view",
            headers={"Authorization": f"Bearer {token}"},
        )
        assert response.ok

    def test_token_kwarg_does_not_clobber_header(self, portal, profile, world):
        token = _login(portal, profile, world)
        response = portal.handle(
            "GET",
            "/api/v1/view",
            token="tok-should-lose",
            headers={"X-Session": token},
        )
        assert response.ok


class TestSelectionSafety:
    #: An acquisition rule that needs the session location at fire time —
    #: logging in without one makes its evaluation raise PRMLRuntimeError.
    NEEDS_LOCATION = """\
Rule:needsLocation When
  SpatialSelection(GeoMD.Store.City,
    Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 20km) do
  Foreach s in (GeoMD.Store)
    If (Distance(s.geometry,
        SUS.DecisionMaker.dm2session.s2location.geometry) < 5km) then
      SelectInstance(s)
    endIf
  endForeach
endWhen
"""

    def test_raising_acquisition_rule_records_outcome(
        self, portal, world, profile
    ):
        """A rule that fails at fire time must not 500 the request: it now
        goes through the same ECA-safe path as the other phases, so the
        report succeeds and the errored rule still counts as matched."""
        engine = portal.registry.get("sales").engine
        engine.add_rule(self.NEEDS_LOCATION)
        token = portal.handle(
            "POST", "/api/v1/login", {"user": profile.user_id}
        ).json()["token"]  # no location: the new rule will raise when fired
        response = portal.handle(
            "POST",
            "/api/v1/selection",
            {"target": "GeoMD.Store.City", "condition": CONDITION},
            token=token,
        )
        assert response.ok, response.body
        assert response.json()["matched_rules"] == [
            "IntAirportCity",
            "needsLocation",
        ]


class TestAsOfQueries:
    """PR 9: ``as_of`` reads — body field or ``?as_of=`` query param —
    answer against the star as it stood at a past generation, through
    the same error envelope as every other failure."""

    BODY = {"q": "SELECT SUM(UnitSales) FROM Sales BY Product.Family"}

    def _churn(self, engine, world, profile):
        """Append a copy of a fact row that is *inside* the personalized
        view, so the live answer provably moves."""
        star = engine.star
        session = engine.start_session(
            profile, location=world.stores[0].location
        )
        fact_table = star.fact_table()
        row = fact_table.row(session.view().fact_rows[0])
        star.insert_fact(
            fact_table.fact.name,
            {d: row[d] for d in fact_table.fact.dimension_names},
            {m: row[m] for m in fact_table.fact.measures},
        )

    def test_as_of_param_answers_past_generation(
        self, portal, profile, world, engine
    ):
        token = _login(portal, profile, world)
        generation = engine.star.generation
        recorded = portal.handle(
            "POST", "/api/v1/query", self.BODY, token=token
        ).json()
        self._churn(engine, world, profile)
        live = portal.handle(
            "POST", "/api/v1/query", self.BODY, token=token
        ).json()
        assert live["rows"] != recorded["rows"]
        replayed = portal.handle(
            "POST",
            "/api/v1/query",
            self.BODY,
            token=token,
            query={"as_of": str(generation)},
        ).json()
        # Bit-identical to the answer recorded at that generation.
        assert replayed == recorded

    def test_as_of_body_field_equivalent(self, portal, profile, world, engine):
        token = _login(portal, profile, world)
        generation = engine.star.generation
        recorded = portal.handle(
            "POST", "/api/v1/query", self.BODY, token=token
        ).json()
        self._churn(engine, world, profile)
        replayed = portal.handle(
            "POST",
            "/api/v1/query",
            {**self.BODY, "as_of": generation},
            token=token,
        ).json()
        assert replayed == recorded

    def test_unavailable_generation_envelope(self, portal, profile, world):
        token = _login(portal, profile, world)
        _assert_envelope(
            portal.handle(
                "POST",
                "/api/v1/query",
                self.BODY,
                token=token,
                query={"as_of": "0"},
            ),
            400,
            "as_of_unavailable",
        )

    def test_future_generation_envelope(self, portal, profile, world, engine):
        token = _login(portal, profile, world)
        _assert_envelope(
            portal.handle(
                "POST",
                "/api/v1/query",
                {**self.BODY, "as_of": engine.star.generation + 1000},
                token=token,
            ),
            400,
            "as_of_unavailable",
        )

    def test_invalid_as_of_value_envelope(self, portal, profile, world):
        token = _login(portal, profile, world)
        for bad in ("soon", "-1", "1.5"):
            _assert_envelope(
                portal.handle(
                    "POST",
                    "/api/v1/query",
                    self.BODY,
                    token=token,
                    query={"as_of": bad},
                ),
                400,
                "invalid_request",
            )

    def test_health_reports_the_history_bounds_and_rows_held(
        self, portal, profile, world, engine
    ):
        token = _login(portal, profile, world)
        generation = engine.star.generation
        self._churn(engine, world, profile)

        def history():
            health = portal.handle("GET", "/api/v1/health").json()
            (sales,) = [dm for dm in health["datamarts"] if dm["name"] == "sales"]
            return sales["mutations"]["history"]

        before = history()
        assert set(before) == {
            "checkpoints",
            "max_checkpoints",
            "oldest_checkpoint",
            "newest_checkpoint",
            "checkpoint_interval",
            "checkpoints_taken",
            "replays",
            "reconstructions_cached",
            "max_reconstructions",
            "fact_rows_held",
        }
        assert (before["max_checkpoints"], before["max_reconstructions"]) == (8, 4)
        assert 1 <= before["checkpoints"] <= before["max_checkpoints"]
        assert before["fact_rows_held"] > 0
        response = portal.handle(
            "POST", "/api/v1/query", {**self.BODY, "as_of": generation}, token=token
        )
        assert response.ok, response.body
        after = history()
        # One reconstruction of the star before the churn's one sale.
        assert after["replays"] == before["replays"] + 1
        assert after["reconstructions_cached"] == before["reconstructions_cached"] + 1
        assert after["fact_rows_held"] == (
            before["fact_rows_held"] + len(engine.star.fact_table()) - 1
        )

    def test_as_of_repeat_answers_the_same(
        self, portal, profile, world, engine
    ):
        token = _login(portal, profile, world)
        generation = engine.star.generation
        portal.handle("POST", "/api/v1/query", self.BODY, token=token)
        self._churn(engine, world, profile)
        query = {"as_of": str(generation)}
        first = portal.handle(
            "POST", "/api/v1/query", self.BODY, token=token, query=query
        )
        repeat = portal.handle(
            "POST", "/api/v1/query", self.BODY, token=token, query=query
        )
        assert first.ok and repeat.ok
        assert repeat.body == first.body
