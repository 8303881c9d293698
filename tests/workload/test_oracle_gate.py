"""The end-to-end oracle gate: every cache and index is transparent.

A smoke-tier stream replays against two fresh workload portals, one as
built and one with the ``oracle`` switch set on every tenant's star (no
view memo or store, no query cache, no recommender profile cache, scans
instead of indexes, the row-loop executor).  Before every 8th request the same
sale is appended to every tenant of both portals, as the repository
benchmark's ingest loader does, so view patches, query-cache entries
left behind by the star's generation and as-of replays over a moving
star are all part of the comparison.  Every response body must be
equal, login tokens aside.  The gate runs over the in-heap stores and
over the backend-backed ones a worker pool serves from.

The copy gates: a workload portal loads the world once and gives each
tenant a copy of the loaded star.  Replayed the same way, it must answer
with the same bytes as a portal whose tenants each load the world, as-of
reads included.

The no-write gates: registration loads what the rules name, and after
that no request writes a star — a login leaves every tenant as
registration left it, and the whole stream replayed without ingest
leaves every star's generation, mutation log and contents as they were.

The churn gate drives one session through member and feature churn at
every step and a sale from inside its view every 8th step, over the
small world at ten times its sales: the typed deltas must keep answering
like the oracle portal while patching views, never rebuilding or
dropping them.
"""

import dataclasses
import itertools
import json

import pytest

from repro.cluster.backend import InMemoryBackend
from repro.data import WorldConfig, build_sales_star, generate_world
from repro.geomd import GeometricType
from repro.geometry import Point
from repro.storage.snapshot import star_to_dict
from repro.workload import (
    InProcessTarget,
    ReplayDriver,
    health_window,
    merge_health,
)
from repro.workload.harness import (
    _portal_over,
    build_tier_world,
    build_workload_portal,
    generator_for_tier,
    tier,
)

#: A smoke-tier seed whose stream holds as-of reads, layer fetches,
#: selection reports and recommendations.
SEED = 5
INGEST_EVERY = 8


class _LoadingTarget:
    """An in-process target that appends the next sale to every tenant's
    star before every :data:`INGEST_EVERY`-th replayed request (health
    probes do not count)."""

    def __init__(self, app, sales) -> None:
        self._target = InProcessTarget(app)
        self._stars = [tenant.engine.star for tenant in app.service.registry]
        self._sales = iter(sales)
        self._requests = itertools.count()

    def request(self, method, path, body=None, token=None, datamart=None):
        if next(self._requests) % INGEST_EVERY == 0:
            sale = next(self._sales)
            for star in self._stars:
                star.insert_facts("Sales", [sale])
        return self._target.request(method, path, body, token, datamart)

    def health(self) -> list[dict]:
        return self._target.health()


def _sales(star, world, stream, count):
    """``count`` copies of existing sales, each of the store nearest to
    one of the stream's login points, so that the appends land inside
    the personalized views (a sale at a random store rarely does)."""
    table = star.fact_table("Sales")
    dims, measures = table.fact.dimension_names, table.fact.measures
    by_store = {}
    for row_id in table.row_ids():
        row = table.row(row_id)
        by_store.setdefault(
            row["Store"],
            ({d: row[d] for d in dims}, {m: row[m] for m in measures}),
        )
    stores = [s for s in world.stores if s.name in by_store]
    logins = itertools.cycle(
        e.payload["location"] for e in stream if e.kind == "login"
    )
    sales = []
    for x, y in itertools.islice(logins, count):
        nearest = min(
            stores,
            key=lambda s: (s.location.x - x) ** 2 + (s.location.y - y) ** 2,
        )
        sales.append(by_store[nearest.name])
    return sales


def _replay(world, stream, oracle, backend, loaded_one_by_one=False):
    datamarts = tuple(stream.header["config"]["datamarts"])
    if loaded_one_by_one:
        # The reference for the portal's one load and per-tenant copies.
        app = _portal_over(
            world,
            {name: build_sales_star(world) for name in datamarts},
            stream.active_users(),
            backend,
        )
    else:
        app = build_workload_portal(
            world, stream.active_users(), datamarts=datamarts, backend=backend
        )
    stars = [tenant.engine.star for tenant in app.service.registry]
    for star in stars:
        star.oracle = oracle
    sales = _sales(stars[0], world, stream, len(stream) // INGEST_EVERY + 1)
    target = _LoadingTarget(app, sales)
    driver = ReplayDriver(target)
    driver.resolve_as_of()
    before = merge_health(target.health())
    report, bodies = driver.replay_serial(stream, collect_bodies=True)
    window = health_window(before, merge_health(target.health()))
    return report, bodies, window


@pytest.fixture(scope="module")
def smoke():
    selected = tier("smoke")
    selected = dataclasses.replace(
        selected, config=dataclasses.replace(selected.config, seed=SEED)
    )
    world = build_tier_world(selected)
    return world, generator_for_tier(selected, world).stream()


@pytest.fixture(scope="module", params=["in_heap", "backend"])
def replays(request, smoke):
    world, stream = smoke

    def backend():
        return InMemoryBackend() if request.param == "backend" else None

    return (
        stream,
        _replay(world, stream, oracle=False, backend=backend()),
        _replay(world, stream, oracle=True, backend=backend()),
    )


def test_every_response_equals_the_oracle_portal(replays):
    stream, (report, bodies, _), (oracle_report, oracle_bodies, _) = replays
    assert report.errors == oracle_report.errors
    assert len(bodies) == len(stream)
    for event, body, oracle_body in zip(stream, bodies, oracle_bodies):
        assert body == oracle_body, f"{event.kind} #{event.seq} differs"


@pytest.fixture(scope="module")
def loaded_replay(smoke):
    world, stream = smoke
    return _replay(
        world, stream, oracle=False, backend=None, loaded_one_by_one=True
    )


def test_every_response_equals_tenants_loaded_one_by_one(replays, loaded_replay):
    """The portal loads the world once and gives each tenant a copy; a
    portal whose tenants each load it answers with the same bytes."""
    stream, (report, bodies, _), _ = replays
    loaded_report, loaded_bodies, _ = loaded_replay
    assert report.errors == loaded_report.errors
    assert len(loaded_bodies) == len(stream)
    for event, body, loaded in zip(stream, bodies, loaded_bodies):
        assert json.dumps(body) == json.dumps(loaded), (
            f"{event.kind} #{event.seq} differs"
        )


def _star_states(app) -> dict:
    return {
        tenant.name: (
            tenant.engine.star.generation,
            len(tenant.engine.star.mutation_log),
            star_to_dict(tenant.engine.star),
        )
        for tenant in app.service.registry
    }


def test_a_login_leaves_the_other_tenants_as_loaded(smoke):
    """A login leaves every tenant — its own too — as registration left it."""
    world, stream = smoke
    app = build_workload_portal(world, stream.active_users())
    registered = _star_states(app)
    # Registration loaded the layers and geometries the rules name.
    loaded = star_to_dict(build_sales_star(world))
    assert all(state[2] != loaded for state in registered.values())
    location = world.stores[0].location
    user = next(
        user for datamart, user, _ in stream.active_users() if datamart == "dm-0"
    )
    response = app.handle(
        "POST",
        "/api/v1/login",
        {"user": user, "datamart": "dm-0", "location": [location.x, location.y]},
    )
    assert response.ok, response.body
    assert response.json()["rules_fired"]
    assert _star_states(app) == registered


def test_no_request_writes_the_star(smoke):
    """The whole stream, replayed without ingest, leaves every tenant's
    star generation, mutation log and contents where construction and
    registration left them."""
    world, stream = smoke
    app = build_workload_portal(world, stream.active_users())
    registered = _star_states(app)
    driver = ReplayDriver(InProcessTarget(app))
    driver.resolve_as_of()
    report, _ = driver.replay_serial(stream)
    assert report.requests == len(stream)
    assert report.by_kind["login"] > 0
    assert _star_states(app) == registered


def test_the_backend_holds_state_only(smoke):
    """The shared backend keeps what a worker change must carry, the
    sessions and the journal: a replay writes no other store and no
    counter but the journal's sequence.  Query answers and views stay
    in the worker's heap."""
    world, stream = smoke
    backend = InMemoryBackend()
    _replay(world, stream, oracle=False, backend=backend)
    assert set(backend.store_names()) <= {"wl:sessions", "wl:journal"}
    assert backend.count("wl:journal") > 0
    assert set(backend.counters()) == {"wl:journal:seq"}


def test_as_of_reads_ran(replays):
    stream, (_, bodies, _), _ = replays
    answered = [
        body
        for event, body in zip(stream, bodies)
        if event.kind == "query" and event.payload.get("as_of") is not None
    ]
    assert answered
    assert all("error" not in body for body in answered)


def test_only_the_default_portal_used_its_caches(replays):
    _, (_, _, window), (_, _, oracle_window) = replays
    views = window["view_store"].values()
    assert window["query_cache"]["hits"] > 0
    assert sum(view["hits"] for view in views) > 0
    assert window["recommender"]["memo_hits"] > 0

    oracle_views = oracle_window["view_store"].values()
    assert oracle_window["query_cache"]["hits"] == 0
    assert oracle_window["query_cache"]["misses"] == 0
    assert sum(view["hits"] + view["misses"] for view in oracle_views) == 0
    assert oracle_window["recommender"]["memo_hits"] == 0
    assert oracle_window["recommender"]["memo_misses"] == 0


CHURN_STEPS = 8
#: Per step: four views, Example 5.2's distance filter against the
#: rule-added Airport layer, and a roll-up.
CHURN_REQUESTS = [("GET", "/api/v1/view", None)] * 4 + [
    ("POST", "/api/v1/query", {"q": q, "limit": 10})
    for q in (
        "SELECT SUM(UnitSales) FROM Sales BY Store.City "
        "WHERE DISTANCE(Store, LAYER Airport) < 100 KM",
        "SELECT SUM(UnitSales) FROM Sales BY Product.Family",
    )
]


def _churn(world, oracle):
    """Replay the churn mix on a fresh portal; returns the bodies and the
    view store's counters over the churn."""
    app = build_workload_portal(
        world, [("sales", "ana-garcia", "")], datamarts=("sales",)
    )
    engine = app.service.registry.get("sales").engine
    star = engine.star
    star.oracle = oracle
    location = world.stores[0].location
    token = app.handle(
        "POST",
        "/api/v1/login",
        {"user": "ana-garcia", "location": [location.x, location.y]},
    ).json()["token"]
    table = star.fact_table()
    view = app.service.sessions.get(token).session.view()
    template = table.row(view.fact_rows[0])
    coordinates = {d: template[d] for d in table.fact.dimension_names}
    measures = {m: template[m] for m in table.fact.measures}
    star.schema.add_layer("Harbour", GeometricType.POINT)
    star.ensure_layer_table("Harbour")
    before = engine.view_store.stats()
    bodies = []
    for step in range(CHURN_STEPS):
        star.add_member("Product", "Family", f"Family-{step}")
        star.add_features("Harbour", [(f"Pier {step}", Point(3.0, float(step)), None)])
        if step % 8 == 7:
            star.insert_fact(table.fact.name, coordinates, measures)
        for method, path, body in CHURN_REQUESTS:
            response = app.handle(method, path, body, token=token)
            assert response.ok, response.body
            bodies.append(response.json())
    after = engine.view_store.stats()
    return bodies, {key: after[key] - before[key] for key in after}


def test_churn_patches_and_answers_like_the_oracle():
    world = generate_world(WorldConfig(seed=7, sales=20_000))
    bodies, store = _churn(world, oracle=False)
    oracle_bodies, _ = _churn(world, oracle=True)
    assert bodies == oracle_bodies
    assert store["builds"] == 0
    assert store["invalidations"] == 0
    assert store["patches"] >= 1
