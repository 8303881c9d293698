"""Tests for the PersonalizationService façade (transport-independent)."""

import pytest

from repro.data import (
    WorldGeoSource,
    build_regional_manager_profile,
    build_sales_star,
)
from repro.errors import BadRequestError, NotFoundError, UnauthorizedError
from repro.personalization import PersonalizationEngine
from repro.service import (
    DatamartRegistry,
    InMemorySessionStore,
    LoginRequest,
    PageRequest,
    PersonalizationService,
    QueryRequest,
    SelectionRequest,
)


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def bare_engine(world, user_schema):
    """A second tenant over the same world with no rules registered."""
    return PersonalizationEngine(
        build_sales_star(world),
        user_schema,
        geo_source=WorldGeoSource(world),
    )


@pytest.fixture()
def clock():
    return Clock()


@pytest.fixture()
def service(engine, bare_engine, profile, user_schema, clock):
    registry = DatamartRegistry()
    sales = registry.register("sales", engine, description="paper scenario")
    bare = registry.register("bare", bare_engine, description="no rules")
    sales.register_user(profile)
    bare.register_user(build_regional_manager_profile(user_schema, name="Bo Li"))
    return PersonalizationService(
        registry,
        session_store=InMemorySessionStore(ttl=100.0, clock=clock),
    )


def _login(service, profile, world, datamart=None):
    location = world.stores[0].location
    return service.login(
        LoginRequest(user=profile.user_id, datamart=datamart, location=location)
    )


class TestLoginRouting:
    def test_default_datamart(self, service, profile, world):
        result = _login(service, profile, world)
        assert result.datamart == "sales"
        assert "addSpatiality" in result.rules_fired
        assert result.view["fact_rows_kept"] < result.view["fact_rows_total"]

    def test_named_datamart_routes_to_its_engine(self, service, world):
        result = service.login(LoginRequest(user="bo-li", datamart="bare"))
        assert result.datamart == "bare"
        assert result.rules_fired == []  # the bare engine has no rules
        assert result.view["fact_rows_kept"] == result.view["fact_rows_total"]

    def test_unknown_datamart(self, service, profile):
        with pytest.raises(NotFoundError) as excinfo:
            service.login(
                LoginRequest(user=profile.user_id, datamart="marketing")
            )
        assert excinfo.value.code == "unknown_datamart"

    def test_user_is_scoped_to_datamart(self, service):
        # bo-li exists only in the 'bare' datamart.
        with pytest.raises(NotFoundError) as excinfo:
            service.login(LoginRequest(user="bo-li", datamart="sales"))
        assert excinfo.value.code == "unknown_user"

    def test_session_hook_counts_per_tenant(self, service, profile, world):
        _login(service, profile, world)
        _login(service, profile, world)
        service.login(LoginRequest(user="bo-li", datamart="bare"))
        assert service.sessions_started("sales") == 2
        assert service.sessions_started("bare") == 1
        info = {dm.name: dm for dm in service.datamarts()}
        assert info["sales"].sessions_started == 2
        assert info["sales"].default is True
        assert info["bare"].rules == 0


class TestRulesFired:
    """Login, rerun and logout name only the rules that fired an action;
    a rule whose condition failed or that errored is left out."""

    def test_analyst_login_fires_nothing(self, service, user_schema, world):
        analyst = build_regional_manager_profile(user_schema, name="Dan Analyst")
        analyst.set("DecisionMaker.dm2role.name", "Analyst")
        service.registry.get("sales").register_user(analyst)
        result = _login(service, analyst, world)
        assert result.rules_fired == []

    def test_manager_below_the_threshold(self, service, profile, world):
        result = _login(service, profile, world)
        assert result.rules_fired == [
            "addSpatiality",
            "addCitySpatiality",
            "5kmStores",
        ]
        rerun = service.rerun_instance_rules(result.token)
        assert rerun.rules_fired == ["5kmStores"]
        assert service.logout(result.token).rules_fired == []


class TestSessionLifecycle:
    def test_missing_token(self, service):
        with pytest.raises(UnauthorizedError) as excinfo:
            service.view_stats(None)
        assert excinfo.value.code == "missing_token"

    def test_expired_session_structured_401(self, service, profile, world, clock):
        result = _login(service, profile, world)
        clock.advance(101.0)
        with pytest.raises(UnauthorizedError) as excinfo:
            service.view_stats(result.token)
        assert excinfo.value.code == "session_expired"
        assert excinfo.value.status == 401

    def test_logout_ends_and_invalidates(self, service, profile, world):
        result = _login(service, profile, world)
        logout = service.logout(result.token)
        assert logout.ended is True
        assert len(service.sessions) == 0
        with pytest.raises(UnauthorizedError) as excinfo:
            service.view_stats(result.token)
        assert excinfo.value.code == "invalid_session"

    def test_externally_closed_session_is_invalid(self, service, profile, world):
        result = _login(service, profile, world)
        record = service.sessions.get(result.token)
        record.session.end()  # closed behind the service's back
        with pytest.raises(UnauthorizedError) as excinfo:
            service.view_stats(result.token)
        assert excinfo.value.code == "invalid_session"
        assert len(service.sessions) == 0


class TestAnalysisOperations:
    def test_query_pagination(self, service, profile, world):
        token = _login(service, profile, world).token
        request = QueryRequest(
            q="SELECT SUM(UnitSales) FROM Sales BY Product.Family",
            page=PageRequest(limit=1, offset=0),
        )
        result = service.query(token, request)
        assert len(result.rows) == 1
        assert result.page.returned == 1
        assert result.page.total >= 1

    def test_bad_query_is_structured_400(self, service, profile, world):
        token = _login(service, profile, world).token
        with pytest.raises(BadRequestError) as excinfo:
            service.query(token, QueryRequest(q="SELEKT nope"))
        assert excinfo.value.code == "query_error"
        assert excinfo.value.detail == {"q": "SELEKT nope"}

    def test_unknown_layer_lists_available(self, service, profile, world):
        token = _login(service, profile, world).token
        with pytest.raises(NotFoundError) as excinfo:
            service.layer(token, "Rivers")
        assert excinfo.value.code == "unknown_layer"
        assert "Airport" in excinfo.value.detail["available"]

    def test_layer_pagination(self, service, profile, world):
        token = _login(service, profile, world).token
        result = service.layer(token, "Airport", PageRequest(limit=2, offset=1))
        assert result.page.total == len(world.airports)
        assert result.page.offset == 1
        assert len(result.features) == min(2, len(world.airports) - 1)

    def test_malformed_selection_is_structured_400(self, service, profile, world):
        token = _login(service, profile, world).token
        with pytest.raises(BadRequestError) as excinfo:
            service.record_selection(
                token, SelectionRequest(target="не-path!!", condition="x<1")
            )
        assert excinfo.value.code == "bad_selection"

    def test_selection_and_rerun_widen_view(self, service, profile, world):
        token = _login(service, profile, world).token
        before = service.view_stats(token)["fact_rows_kept"]
        condition = (
            "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km"
        )
        for _ in range(4):
            outcome = service.record_selection(
                token,
                SelectionRequest(
                    target="GeoMD.Store.City", condition=condition
                ),
            )
            assert outcome.matched_rules == ["IntAirportCity"]
        rerun = service.rerun_instance_rules(token)
        assert rerun.view["fact_rows_kept"] > before


class TestHealthLocks:
    def test_locks_null_without_sanitizer(self, service, monkeypatch):
        # The instrumented path is opt-in: normal operation reports
        # null.  (The outer run may itself be sanitized; monkeypatch
        # restores the global on teardown.)
        from repro.analysis import sanitizer

        monkeypatch.delenv(sanitizer.ENV_SWITCH, raising=False)
        monkeypatch.setattr(sanitizer, "_active", None)
        assert service.health()["locks"] is None

    def test_locks_reported_under_sanitizer(self, engine, profile, clock):
        from repro.analysis import sanitizer

        previous = sanitizer.current()
        sanitizer.activate()
        try:
            registry = DatamartRegistry()
            registry.register(
                "sales", engine, description="paper scenario"
            ).register_user(profile)
            sanitized = PersonalizationService(
                registry,
                session_store=InMemorySessionStore(ttl=100.0, clock=clock),
            )
            locks = sanitized.health()["locks"]
        finally:
            sanitizer.deactivate(previous)
        assert locks["enabled"] is True
        assert locks["cycles"] == []
        # The façade owns no lock of its own; the session store it was
        # given inside the sanitized window is instrumented.
        assert locks["locks"]["InMemorySessionStore._lock"]["instances"] == 1
        assert "InMemorySessionStore._lock" in locks["locks"]


class TestHealthHitRates:
    """Health reports derived hit *rates* next to the raw counters, so
    collectors (the workload metrics scraper, dashboards) never
    re-derive them."""

    def test_rates_null_before_any_lookup(self, service):
        health = service.health()
        assert health["recommender"]["memo_hit_rate"] is None

    def test_view_store_hit_rate_alongside_raw_counters(
        self, service, profile, world
    ):
        _login(service, profile, world)
        _login(service, profile, world)  # same selection: shared view hit
        health = service.health()
        block = next(
            dm for dm in health["datamarts"] if dm["name"] == "sales"
        )["view_store"]
        assert block["hits"] >= 1
        assert block["hit_rate"] == pytest.approx(
            block["hits"] / (block["hits"] + block["misses"]), abs=1e-4
        )

    def test_recommender_memo_rate_after_lookups(self, service, profile, world):
        token = _login(service, profile, world).token
        service.recommendations(token, "queries")  # miss
        service.recommendations(token, "queries")  # profile-cache hit
        reco = service.health()["recommender"]
        total = reco["memo_hits"] + reco["memo_misses"]
        assert total >= 2
        assert reco["memo_hit_rate"] == pytest.approx(
            reco["memo_hits"] / total, abs=1e-4
        )
