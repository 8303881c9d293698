"""The order-independence gate: what a user sees depends on that user alone.

Schema rules personalize the session, not the tenant (Example 5.1's
role condition only means something if the schema it changes is that
user's).  Seeded random interleavings of two regional managers' and two
analysts' requests — logins with and without a location, Example 5.3
selection reports that take one manager past the threshold, queries
(a roll-up to ``Store.City`` and a ``DISTANCE(Store, LAYER Airport)``
filter among them), the Airport and Train layers, the schema, the view,
reruns and logouts — run against one portal.  With tokens stripped,
every user's bodies must equal those of that user's requests replayed
alone, in order, on a fresh portal.  Recommendations are left out: they
read other users' journals by design.  The gate runs over the in-heap
stores and over the backend-backed ones.
"""

import random

import pytest

from repro.cluster.backend import InMemoryBackend
from repro.cluster.config import make_service_stores
from repro.data import (
    ALL_PAPER_RULES,
    WorldGeoSource,
    build_motivating_user_model,
    build_regional_manager_profile,
    build_sales_star,
)
from repro.personalization import PersonalizationEngine
from repro.service import DatamartRegistry, PersonalizationService
from repro.web import PortalApp

CONDITION = "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km"

#: user -> role; ana-garcia is the manager whose reports pass the threshold.
USERS = {
    "ana-garcia": "RegionalSalesManager",
    "bo-manager": "RegionalSalesManager",
    "dan-analyst": "Analyst",
    "eve-analyst": "Analyst",
}

QUERIES = [
    "SELECT SUM(UnitSales) FROM Sales BY Store.City",
    "SELECT COUNT(*) FROM Sales WHERE DISTANCE(Store, LAYER Airport) < 20 KM",
    "SELECT SUM(StoreSales) FROM Sales BY Product.Family",
    "SELECT COUNT(*) FROM Sales WHERE DISTANCE(Store.City, LAYER Train) < 50 KM",
]

REQUESTS = {
    "query": lambda rng: ("POST", "/api/v1/query", {"q": rng.choice(QUERIES)}),
    "airport": lambda rng: ("GET", "/api/v1/layers/Airport", None),
    "train": lambda rng: ("GET", "/api/v1/layers/Train", None),
    "schema": lambda rng: ("GET", "/api/v1/schema", None),
    "view": lambda rng: ("GET", "/api/v1/view", None),
    "rerun": lambda rng: ("POST", "/api/v1/selection/rerun", None),
}


@pytest.fixture(scope="module")
def loaded(world):
    return build_sales_star(world)


def _portal(world, loaded, backend):
    engine = PersonalizationEngine(
        loaded.copy(),
        build_motivating_user_model(),
        geo_source=WorldGeoSource(world),
        parameters={"threshold": 3},
    )
    engine.add_rules(ALL_PAPER_RULES.values())
    registry = DatamartRegistry()
    tenant = registry.register("sales", engine, default=True)
    for user, role in USERS.items():
        profile = build_regional_manager_profile(
            build_motivating_user_model(), name=user.replace("-", " ").title()
        )
        profile.set("DecisionMaker.dm2role.name", role)
        tenant.register_user(profile)
    return PortalApp(
        service=PersonalizationService(
            registry, **make_service_stores(backend, "oi")
        )
    )


def _script(rng, world, user):
    """One user's requests: three sessions of a login, a few requests and
    mostly a logout.  ana-garcia reports Example 5.3's selection twice in
    each of her first two sessions, which takes her degree past the
    threshold of 3."""
    steps = []
    for session in range(3):
        store = world.stores[rng.randrange(len(world.stores))]
        location = [store.location.x, store.location.y] if rng.random() < 0.8 else None
        steps.append(("POST", "/api/v1/login", {"user": user, "location": location}))
        requests = [
            REQUESTS[rng.choice(sorted(REQUESTS))](rng)
            for _ in range(rng.randint(3, 6))
        ]
        if user == "ana-garcia" and session < 2:
            report = {"target": "GeoMD.Store.City", "condition": CONDITION}
            for _ in range(2):
                requests.insert(
                    rng.randint(0, len(requests)),
                    ("POST", "/api/v1/selection", report),
                )
        steps.extend(requests)
        if rng.random() < 0.7:
            steps.append(("POST", "/api/v1/logout", None))
    return steps


def _run(app, steps_by_user, order):
    """Issue each user's next step in ``order``; every user's bodies."""
    tokens, bodies = {}, {user: [] for user in steps_by_user}
    cursor = dict.fromkeys(steps_by_user, 0)
    for user in order:
        method, path, body = steps_by_user[user][cursor[user]]
        cursor[user] += 1
        response = app.handle(method, path, body, token=tokens.get(user))
        payload = response.json()
        if path.endswith("/login") and response.ok:
            tokens[user] = payload.pop("token")
        bodies[user].append((response.status, payload))
    return bodies


@pytest.mark.parametrize("backend", [False, True], ids=["in_heap", "backend"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_every_session_answers_as_if_alone(world, loaded, backend, seed):
    rng = random.Random(seed)
    scripts = {user: _script(rng, world, user) for user in USERS}
    order = [user for user, steps in scripts.items() for _ in steps]
    rng.shuffle(order)

    def fresh():
        return _portal(world, loaded, InMemoryBackend() if backend else None)

    together = _run(fresh(), scripts, order)
    logins = [
        status
        for user, steps in scripts.items()
        for (status, _), step in zip(together[user], steps)
        if step[1] == "/api/v1/login"
    ]
    assert logins and set(logins) == {200}
    for user, steps in scripts.items():
        alone = _run(fresh(), {user: steps}, [user] * len(steps))
        assert together[user] == alone[user], user


def test_a_rule_that_errors_keeps_no_schema_switch(world, loaded):
    """An analyst past Example 5.3's threshold: TrainAirportCity adds the
    Train layer, then errors on ``GeoMD.Airport``, which the analyst's
    schema lacks.  The rule's schema switch does not stand, in the session
    that reran it or in the user's next one."""
    app = _portal(world, loaded, None)
    store = world.stores[0].location
    login = {"user": "dan-analyst", "location": [store.x, store.y]}
    token = app.handle("POST", "/api/v1/login", login).json()["token"]
    report = {"target": "GeoMD.Store.City", "condition": CONDITION}
    for _ in range(4):
        assert app.handle("POST", "/api/v1/selection", report, token=token).ok
    rerun = app.handle("POST", "/api/v1/selection/rerun", None, token=token)
    assert rerun.json()["rules_fired"] == []
    again = app.handle("POST", "/api/v1/login", login).json()
    assert again["view"]["layers"] == 0
    for session in (token, again["token"]):
        schema = app.handle("GET", "/api/v1/schema", token=session).json()
        assert schema["layers"] == []
        assert app.handle("GET", "/api/v1/layers/Train", token=session).status == 404
