"""Session-store TTL/LRU eviction must never touch journaled history.

The journal is keyed ``(datamart, user)`` while the session store is
keyed by token: expiring or evicting a session ends the *session* (as
logout would) but the user's workload history survives intact, and a
re-login resumes appending to the same history.
"""

import pytest

from repro.data import build_regional_manager_profile
from repro.service import (
    DatamartRegistry,
    InMemorySessionStore,
    PersonalizationService,
)
from repro.web import PortalApp

QUERY_A = "SELECT SUM(UnitSales) FROM Sales BY Product.Family"
QUERY_B = "SELECT SUM(StoreSales) FROM Sales BY Store.City"


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


def build_portal(engine, user_schema, profile, clock, **store_kwargs):
    registry = DatamartRegistry()
    sales = registry.register("sales", engine)
    sales.register_user(profile)
    sales.register_user(
        build_regional_manager_profile(user_schema, name="Bo Li")
    )
    sales.register_user(
        build_regional_manager_profile(user_schema, name="Cy Wu")
    )
    service = PersonalizationService(
        registry,
        session_store=InMemorySessionStore(clock=clock, **store_kwargs),
    )
    return PortalApp(service=service)


def login(portal, user_id, world):
    location = world.stores[0].location
    response = portal.handle(
        "POST",
        "/api/v1/login",
        {"user": user_id, "location": [location.x, location.y]},
    )
    assert response.ok, response.body
    return response.json()["token"]


def run_query(portal, token, q):
    response = portal.handle("POST", "/api/v1/query", {"q": q}, token=token)
    assert response.ok, response.body


def journaled_queries(portal, user_id):
    return [
        event.payload["q"]
        for event in portal.service.journal.events("sales", user_id)
        if event.kind == "query"
    ]


class TestTTLExpiry:
    def test_expired_session_keeps_history_and_relogin_resumes_it(
        self, engine, user_schema, profile, clock, world
    ):
        portal = build_portal(engine, user_schema, profile, clock, ttl=100.0)
        token = login(portal, profile.user_id, world)
        run_query(portal, token, QUERY_A)
        clock.advance(101.0)
        expired = portal.handle(
            "POST", "/api/v1/query", {"q": QUERY_B}, token=token
        )
        assert expired.status == 401
        assert expired.body["error"]["code"] == "session_expired"
        # The failed request journaled nothing and dropped nothing.
        assert journaled_queries(portal, profile.user_id) == [QUERY_A]

        fresh = login(portal, profile.user_id, world)
        assert fresh != token
        run_query(portal, fresh, QUERY_B)
        assert journaled_queries(portal, profile.user_id) == [QUERY_A, QUERY_B]

    def test_background_purge_does_not_corrupt_history(
        self, engine, user_schema, profile, clock, world
    ):
        portal = build_portal(engine, user_schema, profile, clock, ttl=100.0)
        token = login(portal, profile.user_id, world)
        run_query(portal, token, QUERY_A)
        events_before = portal.service.journal.events("sales", profile.user_id)
        clock.advance(101.0)
        assert portal.service.sessions.purge_expired() == 1
        assert (
            portal.service.journal.events("sales", profile.user_id)
            == events_before
        )


class TestLRUEviction:
    def test_evicted_users_history_survives_and_resumes(
        self, engine, user_schema, profile, clock, world
    ):
        portal = build_portal(
            engine, user_schema, profile, clock, max_sessions=2
        )
        token = login(portal, profile.user_id, world)
        run_query(portal, token, QUERY_A)
        positions = portal.service.journal.positions("sales")

        # Two more logins evict the LRU session (the profile user's).
        login(portal, "bo-li", world)
        login(portal, "cy-wu", world)
        evicted = portal.handle("GET", "/api/v1/view", token=token)
        assert evicted.status == 401

        # Eviction neither dropped events nor moved a position.
        assert journaled_queries(portal, profile.user_id) == [QUERY_A]
        assert portal.service.journal.positions("sales") == positions

        fresh = login(portal, profile.user_id, world)
        run_query(portal, fresh, QUERY_B)
        assert journaled_queries(portal, profile.user_id) == [QUERY_A, QUERY_B]

    def test_history_spans_sessions_for_recommendations(
        self, engine, user_schema, profile, clock, world
    ):
        """Similarity sees one user history even across evicted sessions."""
        portal = build_portal(
            engine, user_schema, profile, clock, max_sessions=1
        )
        condition = (
            "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km"
        )
        token = login(portal, profile.user_id, world)
        assert portal.handle(
            "POST",
            "/api/v1/selection",
            {"target": "GeoMD.Store.City", "condition": condition},
            token=token,
        ).ok
        login(portal, "bo-li", world)  # evicts the first session
        profile_members = portal.service.journal.summary(
            "sales", profile.user_id
        ).members
        assert profile_members  # the footprint outlived the session
