"""A spilled session is restored, not replayed.

One tenant with the paper's rules (threshold 3) behind a session store
that keeps one live session (``make_service_stores(backend, "p",
max_sessions=1)``), over the in-memory and the sqlite backend.
``ana-garcia`` logs in at store 0 and reports Example 5.3's selection;
a second login spills the first session out of the live tier, and its
token's next request restores it from the persisted record.  Every body
is compared with the same requests on an in-heap portal, whose sessions
never spill.  A restore that re-ran the rules would count the reports
again in the profile's ``degree`` and re-fire SessionStart against it.
"""

import json

import pytest

from repro.cluster.backend import InMemoryBackend, SqliteBackend
from repro.cluster.config import make_service_stores
from repro.cluster.stores import BackendSessionStore
from repro.data import (
    ALL_PAPER_RULES,
    WorldGeoSource,
    build_motivating_user_model,
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

THRESHOLD = 3
REPORT = {
    "target": "GeoMD.Store.City",
    "condition": "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km",
}
CITY_QUERY = {"q": "SELECT SUM(UnitSales) FROM Sales BY Store.City"}


def build_portal(world, backend=None, session_store=None):
    """The one-tenant portal; with ``backend``, one live session.
    ``session_store`` replaces the portal's own."""
    engine = PersonalizationEngine(
        build_sales_star(world),
        build_motivating_user_model(),
        geo_source=WorldGeoSource(world),
        parameters={"threshold": THRESHOLD},
    )
    engine.add_rules(ALL_PAPER_RULES.values())
    registry = DatamartRegistry()
    registry.register("sales", engine).register_user(
        build_regional_manager_profile()
    )
    stores = (
        make_service_stores(backend, "p", max_sessions=1)
        if backend is not None
        else make_service_stores(None)
    )
    if session_store is not None:
        stores["session_store"] = session_store
    return PortalApp(service=PersonalizationService(registry, **stores))


@pytest.fixture(params=["memory", "sqlite"])
def backend(request, tmp_path):
    if request.param == "memory":
        yield InMemoryBackend()
    else:
        backend = SqliteBackend(str(tmp_path / "state.sqlite"))
        yield backend
        backend.close()


class Pair:
    """The same requests on the spilling portal and the in-heap one.

    Sessions are named by login order; every body must be equal on both
    portals (login tokens aside)."""

    def __init__(self, world, backend) -> None:
        self.world = world
        self.spilling = build_portal(world, backend)
        self.reference = build_portal(world)
        self.tokens: list[tuple[str, str]] = []

    def login(self, store=0) -> tuple[int, dict]:
        location = self.world.stores[store].location
        body = {"user": "ana-garcia", "location": [location.x, location.y]}
        bodies, tokens = [], []
        for app in (self.spilling, self.reference):
            response = app.handle("POST", "/api/v1/login", body)
            assert response.status == 200, response.json()
            answer = response.json()
            tokens.append(answer.pop("token"))
            bodies.append(answer)
        assert bodies[0] == bodies[1]
        self.tokens.append(tuple(tokens))
        return len(self.tokens) - 1, bodies[0]

    def request(self, method, path, session, body=None) -> dict:
        answers = []
        for app, token in zip((self.spilling, self.reference), self.tokens[session]):
            response = app.handle(method, path, body, token=token)
            assert response.status == 200, response.json()
            answers.append(response.json())
        assert answers[0] == answers[1]
        return answers[0]

    def report(self, session, times=1) -> None:
        for _ in range(times):
            self.request("POST", "/api/v1/selection", session, REPORT)

    def sessions(self):
        return self.spilling.service.sessions


@pytest.fixture()
def pair(world, backend):
    return Pair(world, backend)


def test_a_spill_keeps_the_degree_and_the_session_link(pair):
    """Scenario (a): two reports, a spill, then ``/me`` on the first
    token reads ``degree`` 2 and a ``dm2session`` link."""
    first, _ = pair.login()
    pair.report(first, times=2)
    pair.login()
    assert pair.sessions().stats()["spills"] == 1
    links = pair.request("GET", "/api/v1/me", first)["root"]["links"]
    assert links["dm2airportcity"]["values"]["degree"] == 2
    assert "dm2session" in links
    assert pair.sessions().stats()["rehydrations"] == 1


def test_a_spill_does_not_change_what_a_token_answers(pair):
    """Scenario (b): after four reports, the first token's view and its
    ``BY Store.City`` answer are the same before and after a spill."""
    first, _ = pair.login()
    pair.report(first, times=4)
    view = pair.request("GET", "/api/v1/view", first)
    query = pair.request("POST", "/api/v1/query", first, CITY_QUERY)
    assert view["fact_rows_kept"] == 34
    assert len(query["rows"]) == 1
    _second, login = pair.login()  # past the threshold: Train fires here
    assert "TrainAirportCity" in login["rules_fired"]
    assert pair.request("GET", "/api/v1/view", first) == view
    assert pair.request("POST", "/api/v1/query", first, CITY_QUERY) == query
    assert pair.sessions().stats()["rehydrations"] == 1


def test_a_rerun_survives_a_spill(pair):
    """A rerun past the threshold adds the Train layer and the
    train-connected cities; the record keeps them across a spill."""
    first, _ = pair.login()
    pair.report(first, times=4)
    rerun = pair.request("POST", "/api/v1/selection/rerun", first)
    assert "TrainAirportCity" in rerun["rules_fired"]
    view = pair.request("GET", "/api/v1/view", first)
    assert view["fact_rows_kept"] == 333
    pair.login()
    assert pair.request("GET", "/api/v1/view", first) == view
    assert pair.sessions().stats()["rehydrations"] == 1


#: An acquisition rule that selects: a report of its pattern adds the
#: cities within 50 km of the session's location.
NEARBY_CITIES = """\
Rule:nearbyCities When
  SpatialSelection(GeoMD.Store.City,
    Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry) < 30km) do
  Foreach c in (GeoMD.Store.City)
    If (Distance(c.geometry,
        SUS.DecisionMaker.dm2session.s2location.geometry) < 50km) then
      SelectInstance(c)
    endIf
  endForeach
endWhen
"""


def test_a_selecting_report_survives_a_spill(pair):
    """What an acquisition rule selects is in the record: the first
    token's view keeps it across a spill."""
    for app in (pair.spilling, pair.reference):
        app.registry.get("sales").engine.add_rule(NEARBY_CITIES)
    first, _ = pair.login()
    before = pair.request("GET", "/api/v1/view", first)
    pair.request(
        "POST",
        "/api/v1/selection",
        first,
        {**REPORT, "condition": REPORT["condition"].replace("20km", "30km")},
    )
    view = pair.request("GET", "/api/v1/view", first)
    assert view["members_selected"] > before["members_selected"]
    pair.login()
    assert pair.request("GET", "/api/v1/view", first) == view
    assert pair.sessions().stats()["rehydrations"] == 1


def test_the_next_login_counts_each_report_once(pair):
    """Scenario (c): after scenario (a), the third login keeps 34 fact
    rows, 1 member and 1 layer, and ``TrainAirportCity`` does not fire."""
    first, _ = pair.login()
    pair.report(first, times=2)
    pair.login()
    pair.request("GET", "/api/v1/me", first)  # restores the first session
    _third, login = pair.login()
    assert login["view"]["fact_rows_kept"] == 34
    assert login["view"]["members_selected"] == 1
    assert login["view"]["layers"] == 1
    assert "TrainAirportCity" not in login["rules_fired"]


def test_a_restore_leaves_the_session_link_to_the_latest_login(pair):
    """The user's sessions share one session link, which the latest
    login set: restoring an older session leaves it there, and a rerun
    of the newer session's instance rules selects around that location."""
    first, _ = pair.login(store=0)
    second, _ = pair.login(store=5)
    me = pair.request("GET", "/api/v1/me", first)  # restores the first session
    session_link = me["root"]["links"]["dm2session"]
    location = session_link["links"]["s2location"]["values"]["geometry"]
    assert location == pair.world.stores[5].location.wkt
    pair.request("POST", "/api/v1/selection/rerun", second)
    assert pair.sessions().stats()["rehydrations"] == 2


def test_a_restore_fires_no_rule(world, backend, monkeypatch):
    """Restoring a spilled session runs no rule and counts no login: the
    tenant's ``sessions_started`` and the profile stay as they were."""
    app = build_portal(world, backend)
    service = app.service
    location = world.stores[0].location
    login = {"user": "ana-garcia", "location": [location.x, location.y]}
    first = app.handle("POST", "/api/v1/login", login).json()["token"]
    for _ in range(2):
        app.handle("POST", "/api/v1/selection", REPORT, token=first)
    app.handle("POST", "/api/v1/login", login)  # spills the first session
    datamart = service.registry.get("sales")
    engine, profile = datamart.engine, datamart.profile("ana-garcia")
    started, snapshot = engine.sessions_started, profile.to_dict()

    def no_rule(*args, **kwargs):
        raise AssertionError("a restore fired a rule")

    monkeypatch.setattr(PersonalizationEngine, "_safe_execute", staticmethod(no_rule))
    record = service.sessions.get(first)
    assert service.sessions.stats()["rehydrations"] == 1
    assert engine.sessions_started == started == 2
    assert profile.to_dict() == snapshot
    assert profile.degree("AirportCity") == 2
    assert record.session.context.schema_set == (
        "layer:Airport",
        "level:Store.City",
        "level:Store.Store",
    )


def test_the_record_does_not_grow_with_reports(world, backend):
    """The record holds the session's state, not a log of its reports:
    one report and six identical ones leave records of one length."""
    app = build_portal(world, backend)
    location = world.stores[0].location
    token = app.handle(
        "POST",
        "/api/v1/login",
        {"user": "ana-garcia", "location": [location.x, location.y]},
    ).json()["token"]
    sizes = []
    for _ in range(6):
        app.handle("POST", "/api/v1/selection", REPORT, token=token)
        record = json.loads(backend.get("p:sessions", token))
        record["last_access"] = 0.0  # the idle clock is all that moves
        sizes.append(len(json.dumps(record)))
    assert sizes == [sizes[0]] * 6


def test_an_abandoned_spilled_session_is_never_ended(world, backend):
    """A known difference from the in-heap store, which ends what
    expires: a spilled session that no request restores is not ended
    when its record expires, so no SessionEnd rule fires for it and the
    user's profile keeps that session's link until the user's next login
    or logout in this worker."""
    now = [0.0]
    spilling = build_portal(
        world,
        backend,
        BackendSessionStore(
            backend, namespace="p", ttl=10.0, max_sessions=1, clock=lambda: now[0]
        ),
    )
    reference = build_portal(
        world, session_store=InMemorySessionStore(ttl=10.0, clock=lambda: now[0])
    )
    location = world.stores[0].location
    profiles = []
    for app in (spilling, reference):
        datamart = app.service.registry.get("sales")
        datamart.register_user(build_regional_manager_profile(name="Bo Lind"))
        for user in ("ana-garcia", "bo-lind"):  # Bo's login spills Ana's
            body = {"user": user, "location": [location.x, location.y]}
            assert app.handle("POST", "/api/v1/login", body).status == 200
        profiles.append(datamart.profile("ana-garcia"))
    assert spilling.service.sessions.stats()["spills"] == 1
    now[0] = 11.0
    assert spilling.service.sessions.purge_expired() == 1  # Bo's live copy
    assert reference.service.sessions.purge_expired() == 2
    assert spilling.service.sessions.stats()["persisted"] == 0
    spilled, ended = profiles
    assert spilled.in_session
    assert not ended.in_session
