"""EXT-series benchmark runner with a JSON emitter (perf trajectory).

Runs the EXT3 portal request mixes, the EXT4 recommendation mixes and
the EXT5 shared-view-store mixes twice — once with the star's
``oracle`` switch set (every layer on its reference path: no view memo
or store, no query cache, no recommender memo, scans instead of
indexes, the row-loop executor) and once with it cleared — and writes a
JSON artefact recording req/s (and fact rows scanned for the query
mixes), plus the speedups.  Before timing, it replays each mix in both
modes and asserts the response bodies are byte-identical: the caches
must be *transparent*.

The EXT4 mixes ride the multi-user demo workload
(:func:`repro.data.replay_demo_workload`): three journaled analysts,
recommendations served to the first one cold vs from the
generation-keyed memo.

The EXT5 mixes exercise the PR 4 shared materialized-view store:

* ``ext5a_shared_selection_fanout`` — N fresh sessions of one user, each
  materializing its view: the store must serve every session from one
  build (the recorded ``view_store.builds`` delta over the cached phase
  must be exactly 1 — the single shared build).
* ``ext5b_append_heavy`` — interleaved fact appends and view/query
  requests: incremental maintenance must *patch* the live views instead
  of rebuilding them.  This mix mutates the star, so its transparency
  gate and its two timed runs each get a **fresh portal** replaying an
  identical sequence (the generic gate would otherwise compare different
  data states).

The EXT6 mix exercises the PR 7 dictionary-encoded columnar engine:

* ``ext6_columnar_scan`` — a scan/rollup query mix on a fresh world
  whose fact table is 100x the scale tier's cardinality (10x under
  ``--smoke``), run through the vectorized batch executor and the
  row-loop reference executor.  Every query must answer bit-identically
  on both before timing (the identical-response gate applied to the
  storage engine itself).

The EXT7 mix exercises the PR 8 stateless serving tier:

* ``ext7_worker_scaling`` — a 4-tenant portal with 36 concurrent
  sessions against a per-worker live-session cap of 24, timed through a
  real pre-fork worker pool over a shared sqlite state backend at 1 and
  2 workers.  One worker LRU-thrashes (every request rehydrates a
  spilled session through the engine); two tenant-sharded workers keep
  every session live.  Before timing, the same logins and request sweep
  are replayed against a single-process in-memory portal and both pool
  topologies, and every response body must be identical.

The EXT8 mix exercises the PR 9 mutation log:

* ``ext8_mutation_churn`` — a steady request stream (views, a spatial
  DISTANCE query, a non-spatial rollup) over a 100x world while members
  and features mutate every step (and a fact row drawn from inside the
  personalized view every 8th), run in the
  typed-delta mode (views patched, roll-up caches extended in place,
  stamped query cache kept warm) and in full-invalidation mode (a
  blanket ``note_*_change`` and a view-store ``invalidate()`` after
  every step's mutations).  Both modes must answer bit-identically
  before timing.

The EXT9 mix exercises the PR 10 synthetic workload engine:

* ``ext9_workload_replay`` — a deterministic seeded event stream
  (cohorted users, clustered login locations, the demo query/selection/
  layer/recommendation vocabulary, as-of reads) generated for a named
  scale tier (``--workload-tier``; smoke/small/medium/large) and
  replayed against the in-process façade *and* a 2-worker pre-fork pool
  over a shared sqlite backend.  Serial replay on both targets is the
  identical-response gate; closed-loop replay on the gate-warmed portals
  is the timing, bracketed by merged ``/api/v1/health`` snapshots so the
  JSON records window cache-hit rates, view patch/build splits,
  spill/rehydration counts and (via a ``REPRO_SANITIZE=1`` subprocess
  probe) lock contention stats.

``--scale`` picks the world size tier; the tier and the resulting fact
row count are recorded in the JSON artefact so BENCH_*.json entries
carry their scale and EXT6's/EXT8's cardinality multiplier is
reproducible.  Every record also carries an ``environment`` provenance
block (python version, cpu count, platform, git sha, generator seed).

Usage::

    python benchmarks/run_benchmarks.py --smoke --out BENCH_PR4.json
    python benchmarks/run_benchmarks.py --scale medium --rounds 2000

``--smoke`` keeps rounds small so CI can afford it on every push.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.data import (  # noqa: E402
    ALL_PAPER_RULES,
    WorldGeoSource,
    build_motivating_user_model,
    build_regional_manager_profile,
    build_sales_star,
    generate_world,
    replay_demo_workload,
)
from repro.mdm import Aggregator  # noqa: E402
from repro.olap import (  # noqa: E402
    AggSpec,
    AttributeFilter,
    ComparisonOp,
    CubeQuery,
    LevelRef,
)
from repro.olap.query import execute, execute_reference  # noqa: E402
from repro.personalization import PersonalizationEngine  # noqa: E402
from repro.web import PortalApp  # noqa: E402
from repro.workload.harness import _world_scales  # noqa: E402
from repro.workload.metrics import environment_provenance  # noqa: E402

THRESHOLD = 3
QUERY = "SELECT SUM(UnitSales) FROM Sales BY Product.Family"

# One source of truth for the world-size ladder: the workload harness
# (repro.workload.harness) defines it, every consumer — this runner, the
# ``repro workload`` CLI, the EXT9 tiers — reads the same table.
SCALES = {name: _world_scales()[name] for name in _world_scales()}


def build_portal(scale: str):
    world = generate_world(SCALES[scale])
    star = build_sales_star(world)
    engine = PersonalizationEngine(
        star,
        build_motivating_user_model(),
        geo_source=WorldGeoSource(world),
        parameters={"threshold": THRESHOLD},
    )
    engine.add_rules(ALL_PAPER_RULES.values())
    profile = build_regional_manager_profile(build_motivating_user_model())
    app = PortalApp(engine, datamart_name="sales")
    app.register_user(profile)
    # Seed the workload journals for the EXT4 recommendation mixes.
    demo_tokens = replay_demo_workload(app, world)
    return world, star, engine, profile, app, demo_tokens


def login(app, profile, world) -> str:
    location = world.stores[0].location
    response = app.handle(
        "POST",
        "/api/v1/login",
        {"user": profile.user_id, "location": [location.x, location.y]},
    )
    assert response.ok, response.body
    return response.json()["token"]


def set_caches(app, engine, star, enabled: bool) -> None:
    """Clear the star's oracle switch (caches and indexes on) or set it
    (every layer on its reference path, the row-loop executor included),
    and empty the caches so nothing warm crosses into the next phase."""
    star.oracle = not enabled
    app.service._query_cache.clear()
    app.service.recommender._memo.clear()
    app.service.recommender._profiles.clear()
    if engine.view_store is not None:
        engine.view_store.invalidate()


def make_mixes(app, profile, world, token, reco_token):
    """name -> zero-arg callable returning the JSON bodies it produced."""
    query_body = {"q": QUERY, "limit": 10}

    def view():
        response = app.handle("GET", "/api/v1/view", token=token)
        assert response.ok, response.body
        return [response.json()]

    def query():
        response = app.handle("POST", "/api/v1/query", query_body, token=token)
        assert response.ok, response.body
        return [response.json()]

    def steady_state_mix():
        bodies = []
        for _ in range(8):
            bodies.extend(view())
        for _ in range(2):
            bodies.extend(query())
        return bodies

    def lifecycle():
        location = world.stores[0].location
        fresh = app.handle(
            "POST",
            "/api/v1/login",
            {"user": profile.user_id, "location": [location.x, location.y]},
        ).json()["token"]
        bodies = [app.handle("GET", "/api/v1/view", token=fresh).json()]
        assert app.handle("POST", "/api/v1/logout", token=fresh).ok
        return bodies

    def recommendations():
        response = app.handle(
            "GET", "/api/v1/recommendations/queries", token=reco_token
        )
        assert response.ok, response.body
        return [response.json()]

    def recommendation_mix():
        # Only GETs against /recommendations: these never journal, so the
        # steady state answers from the generation-keyed memo.
        bodies = []
        for kind in ("queries", "layers", "members"):
            response = app.handle(
                "GET", f"/api/v1/recommendations/{kind}", token=reco_token
            )
            assert response.ok, response.body
            bodies.append(response.json())
        return bodies

    def shared_selection_fanout():
        # N fresh sessions of one user, all landing on the same selection
        # content: with the view store on, the N materializations are one
        # shared build (bodies are the token-free view stats).
        location = world.stores[0].location
        tokens = []
        for _ in range(4):
            response = app.handle(
                "POST",
                "/api/v1/login",
                {"user": profile.user_id, "location": [location.x, location.y]},
            )
            assert response.ok, response.body
            tokens.append(response.json()["token"])
        bodies = []
        for fresh in tokens:
            response = app.handle("GET", "/api/v1/view", token=fresh)
            assert response.ok, response.body
            bodies.append(response.json())
        for fresh in tokens:
            assert app.handle("POST", "/api/v1/logout", token=fresh).ok
        return bodies

    # name -> (callable, HTTP requests issued per call)
    return {
        "ext3a_repeated_view": (view, 1),
        "ext3b_repeated_query": (query, 1),
        "ext3d_steady_state_mix": (steady_state_mix, 10),
        "ext3c_session_lifecycle": (lifecycle, 3),
        "ext4a_repeated_recommendations": (recommendations, 1),
        "ext4b_recommendation_mix": (recommendation_mix, 3),
        "ext5a_shared_selection_fanout": (shared_selection_fanout, 12),
    }


def time_mix(fn, rounds: int) -> float:
    fn()  # warm-up
    started = time.perf_counter()
    for _ in range(rounds):
        fn()
    elapsed = time.perf_counter() - started
    return rounds / elapsed


def rows_scanned(app, token) -> int:
    response = app.handle(
        "POST", "/api/v1/query", {"q": QUERY, "limit": 1}, token=token
    )
    return response.json()["fact_rows_scanned"]


def _ext5b_sequence(bundle, enabled: bool, steps: int) -> list:
    """Replay the append-heavy sequence on a fresh portal, returning the
    response bodies (the dedicated transparency gate compares them)."""
    world, star, engine, profile, app, _tokens = bundle
    set_caches(app, engine, star, enabled)
    token = login(app, profile, world)
    fact_table = star.fact_table()
    template = fact_table.row(0)
    coordinates = {d: template[d] for d in fact_table.fact.dimension_names}
    measures = {m: template[m] for m in fact_table.fact.measures}
    fact_name = fact_table.fact.name
    bodies = []
    for _ in range(steps):
        star.insert_fact(fact_name, coordinates, measures)
        view = app.handle("GET", "/api/v1/view", token=token)
        assert view.ok, view.body
        query = app.handle(
            "POST", "/api/v1/query", {"q": QUERY, "limit": 10}, token=token
        )
        assert query.ok, query.body
        bodies.append([view.json(), query.json()])
    return bodies


def bench_ext5b(scale: str, rounds: int) -> dict:
    """Time the append-heavy mix on a fresh portal per mode.

    The mix mutates the star (every round appends one fact row before a
    view and a query request), so both the gate replay and the timing run
    on independent, identically-seeded portals instead of the shared one
    the stateless mixes reuse.
    """
    steps = max(rounds // 20, 10)
    gate_steps = min(steps, 25)
    uncached_bodies = _ext5b_sequence(build_portal(scale), False, gate_steps)
    cached_bodies = _ext5b_sequence(build_portal(scale), True, gate_steps)
    assert uncached_bodies == cached_bodies, (
        "ext5b_append_heavy: cached response differs"
    )

    result: dict = {}
    for label, enabled in (("before", False), ("after", True)):
        bundle = build_portal(scale)
        engine = bundle[2]
        store_before = (
            engine.view_store.stats() if engine.view_store is not None else {}
        )
        started = time.perf_counter()
        _ext5b_sequence(bundle, enabled, steps)
        elapsed = time.perf_counter() - started
        # Two HTTP requests per step (the append is in-process storage).
        result[f"{label}_req_per_s"] = round(2 * steps / elapsed, 1)
        if enabled and engine.view_store is not None:
            after = engine.view_store.stats()
            result["view_store"] = {
                key: after[key] - store_before.get(key, 0)
                for key in ("builds", "patches", "invalidations")
            }
    result["speedup"] = round(
        result["after_req_per_s"] / result["before_req_per_s"], 2
    )
    result["rounds"] = steps
    return result


def bench_ext6(scale: str, multiplier: int) -> dict:
    """Vectorized columnar executor vs the row-loop reference.

    Builds a fresh world whose fact table holds ``multiplier`` times the
    scale tier's sales count, then runs a scan/rollup query mix through
    :func:`execute` (dictionary-encoded batch path) and
    :func:`execute_reference` (per-row ``rollup_member`` loop).  Before
    timing, every query must answer bit-identically on both executors —
    the identical-response protocol the cache benches enforce on HTTP
    bodies, applied here to the storage engine itself.
    """
    base = SCALES[scale]
    config = dataclasses.replace(base, sales=base.sales * multiplier)
    star = build_sales_star(generate_world(config))
    fact_rows = len(star.fact_table())

    cities = sorted(
        member.key
        for member in star.dimension_table("Store").members("City")
    )
    queries = [
        CubeQuery(
            "Sales",
            [AggSpec(Aggregator.SUM, "UnitSales")],
            group_by=[LevelRef("Product", "Family")],
        ),
        CubeQuery(
            "Sales",
            [
                AggSpec(Aggregator.SUM, "StoreSales"),
                AggSpec(Aggregator.AVG, "StoreSales"),
            ],
            group_by=[LevelRef("Store", "City")],
        ),
        CubeQuery(
            "Sales",
            [AggSpec(Aggregator.COUNT, "*")],
            group_by=[LevelRef("Store", "State")],
            where=[
                AttributeFilter(
                    LevelRef("Store", "City"),
                    "name",
                    ComparisonOp.IN,
                    tuple(cities[: max(len(cities) // 2, 1)]),
                )
            ],
        ),
    ]

    # Identical-response gate (also warms the translation tables so the
    # timed runs compare steady states).
    assert not star.oracle
    for query in queries:
        reference = execute_reference(star, query)
        vectorized = execute(star, query)
        assert vectorized.fact_rows_scanned == reference.fact_rows_scanned
        assert vectorized.fact_rows_matched == reference.fact_rows_matched
        assert set(vectorized.cells) == set(reference.cells), (
            "ext6_columnar_scan: cell coordinates differ"
        )
        for coordinate, cell in reference.cells.items():
            got = vectorized.cells[coordinate]
            # Bit-identical, not approximately equal.
            assert tuple(map(repr, got)) == tuple(map(repr, cell)), (
                f"ext6_columnar_scan: cell {coordinate} differs"
            )

    rounds = 2 if multiplier >= 100 else 5
    timings = {}
    for label, runner in (
        ("reference", execute_reference),
        ("vectorized", execute),
    ):
        started = time.perf_counter()
        for _ in range(rounds):
            for query in queries:
                runner(star, query)
        timings[label] = (time.perf_counter() - started) / rounds
    scanned = fact_rows * len(queries)
    return {
        "fact_multiplier": multiplier,
        "fact_rows": fact_rows,
        "queries": len(queries),
        "rounds": rounds,
        "reference_s": round(timings["reference"], 4),
        "vectorized_s": round(timings["vectorized"], 4),
        "reference_rows_per_s": round(scanned / timings["reference"]),
        "vectorized_rows_per_s": round(scanned / timings["vectorized"]),
        "speedup": round(timings["reference"] / timings["vectorized"], 2),
    }


# -- EXT7: multi-process worker scaling --------------------------------------------
#
# One process is the portal's session-capacity ceiling: the serving tier
# caps *live* sessions per process (spilled sessions are ended and must
# rehydrate through the engine on their next request — a login-grade
# cost).  EXT7 builds a 4-tenant portal with 36 concurrent sessions and
# a per-worker live cap of 24: a single worker LRU-thrashes (every
# request lands on a spilled session), while two tenant-sharded workers
# hold 18 live sessions each and stay warm.  Aggregate req/s over the
# EXT3-style steady-state mix (4 views : 1 query per session) is the
# measurement; the ISSUE 8 gate is >= 1.7x at 2 workers vs 1.
#
# Transparency gate before timing: the same logins and the same request
# sweep are replayed against a single-process in-memory portal and both
# pool topologies — every response body (tokens stripped from login
# bodies) must be identical, including the 1-worker mode where every
# gated request crosses a spill/rehydrate cycle.

EXT7_TENANTS = ("dm-0", "dm-1", "dm-2", "dm-3")  # ring-balanced 2/2
EXT7_SESSIONS_PER_TENANT = 9
EXT7_LIVE_CAP = 24
EXT7_CLIENT_THREADS = 4


def _ext7_build_app(scale: str, backend=None):
    """The EXT7 multi-tenant portal: 4 identical tenants over one world.

    With ``backend``, the worker-pool wiring — every store backend-backed
    under fixed namespaces, live sessions capped per process.  Without,
    the single-process in-memory reference: in-heap stores whatever
    REPRO_BACKEND says, with room for every session.
    """
    from repro.cluster.config import make_service_stores, make_view_store
    from repro.service import DatamartRegistry, PersonalizationService

    world = generate_world(SCALES[scale])
    registry = DatamartRegistry()
    for index, name in enumerate(EXT7_TENANTS):
        engine = PersonalizationEngine(
            build_sales_star(world),
            build_motivating_user_model(),
            geo_source=WorldGeoSource(world),
            parameters={"threshold": THRESHOLD},
            view_store=make_view_store(
                128, backend=backend, namespace=f"ext7-views-{name}"
            ),
        )
        engine.add_rules(ALL_PAPER_RULES.values())
        tenant = registry.register(
            name, engine, description="EXT7 tenant", default=index == 0
        )
        tenant.register_user(
            build_regional_manager_profile(build_motivating_user_model())
        )
    service = PersonalizationService(
        registry,
        **make_service_stores(
            backend,
            "ext7",
            ttl=3600.0,
            max_sessions=EXT7_LIVE_CAP if backend is not None else 64,
        ),
    )
    return PortalApp(service=service)


def _ext7_login_all(send):
    """Open every EXT7 session; returns ``[(token, datamart)]`` plus the
    token-stripped login bodies (the transparency gate compares those)."""
    tokens = []
    bodies = []
    for name in EXT7_TENANTS:
        for _ in range(EXT7_SESSIONS_PER_TENANT):
            body = send(
                "POST",
                "/api/v1/login",
                {"user": "ana-garcia", "datamart": name},
                datamart=name,
            )
            tokens.append((body["token"], name))
            bodies.append({k: v for k, v in body.items() if k != "token"})
    return tokens, bodies


def _ext7_request(send, tokens, round_no, index):
    """One deterministic steady-state request (4 views : 1 query)."""
    token, _name = tokens[index]
    if (round_no + index) % 5 == 4:
        return send(
            "POST", "/api/v1/query", {"q": QUERY, "limit": 10}, token=token
        )
    return send("GET", "/api/v1/view", token=token)


def _ext7_sweep(send, tokens, rounds):
    """Serially replay the mix, collecting bodies for the gate."""
    return [
        _ext7_request(send, tokens, round_no, index)
        for round_no in range(rounds)
        for index in range(len(tokens))
    ]


def _ext7_timed(send, tokens, rounds):
    """Aggregate req/s over the mix, driven by concurrent client threads
    (each owns a disjoint session slice, so per-token requests stay
    serialized client-side like real users)."""
    import threading

    errors = []

    def drive(offset):
        try:
            for round_no in range(rounds):
                for index in range(offset, len(tokens), EXT7_CLIENT_THREADS):
                    _ext7_request(send, tokens, round_no, index)
        except Exception as exc:  # noqa: BLE001 - re-raised via errors
            errors.append(exc)

    threads = [
        threading.Thread(target=drive, args=(offset,))
        for offset in range(EXT7_CLIENT_THREADS)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return rounds * len(tokens) / elapsed


def _ext7_pool_mode(scale: str, workers: int, rounds: int, gate_rounds: int):
    """Drive one pool topology; returns req/s, gate bodies and stats."""
    import shutil
    import tempfile

    from repro.cluster.backend import SqliteBackend
    from repro.cluster.pool import ClusterClient, WorkerPool

    state_dir = tempfile.mkdtemp(prefix="repro-ext7-")
    backend = SqliteBackend(os.path.join(state_dir, "state.sqlite"))
    pool = WorkerPool(
        lambda worker_id: _ext7_build_app(scale, backend=backend),
        workers=workers,
    )
    try:
        pool.wait_ready(timeout=180.0)
        client = ClusterClient(pool)

        def send(method, path, body=None, token=None, datamart=None):
            status, data = client.request(
                method, path, body=body, token=token, datamart=datamart
            )
            assert status == 200, data
            return data

        tokens, login_bodies = _ext7_login_all(send)
        gate_bodies = _ext7_sweep(send, tokens, gate_rounds)
        req_per_s = _ext7_timed(send, tokens, rounds)
        spills = rehydrations = 0
        for health in client.shard_health():
            store = health["state_backend"]["sessions"]
            spills += store["spills"]
            rehydrations += store["rehydrations"]
        client.close()
        return {
            "req_per_s": req_per_s,
            "login_bodies": login_bodies,
            "gate_bodies": gate_bodies,
            "spills": spills,
            "rehydrations": rehydrations,
        }
    finally:
        pool.stop()
        backend.close()
        shutil.rmtree(state_dir, ignore_errors=True)


# -- EXT8: mutation churn — typed-delta propagation vs full invalidation -----
#
# The PR 9 tentpole turned every star change into a typed mutation whose
# delta the downstream tiers *patch* through: the shared view store
# extends live views in place, the star's roll-up translations and
# envelope grids survive additive member/feature churn, and the
# stamped query cache only drops entries whose per-kind generation
# stamps actually moved.  EXT8 measures that against the pre-delta
# semantics: a blanket ``note_member_change``/``note_feature_change``
# and a view-store ``invalidate()`` after every step's mutations — the
# one-size-fits-all invalidation every mutation used to be.
#
# The mix: a steady request stream per step — 4 views, one spatial
# DISTANCE query against the rule-added Airport layer (the paper's
# personalized spatial analysis, the expensive recompute), one
# non-spatial rollup — over a world whose fact table is 100x the scale
# tier's cardinality (10x under ``--smoke``), while every step adds a
# member and a feature and every 8th step appends a fact row drawn from
# *inside* the personalized view (so the answers provably move).  The
# per-kind stamps keep both queries warm through the member/feature
# churn (the Airport layer and the fact table are untouched); the
# blanket mode stales every stamp every step, so the spatial join
# recomputes each time — exactly the pre-delta behaviour.  Before
# timing, both modes replay an identical sequence on fresh portals and
# every response body must be identical — patching is only a win if it
# is indistinguishable from recomputing.

EXT8_VIEWS_PER_STEP = 4
EXT8_SPATIAL_QUERY = (
    "SELECT SUM(UnitSales) FROM Sales BY Store.City "
    "WHERE DISTANCE(Store, LAYER Airport) < 100 KM"
)


def _ext8_build(scale: str, multiplier: int):
    """A single-tenant portal over a ``multiplier``-scaled world."""
    base = SCALES[scale]
    config = dataclasses.replace(base, sales=base.sales * multiplier)
    world = generate_world(config)
    star = build_sales_star(world)
    engine = PersonalizationEngine(
        star,
        build_motivating_user_model(),
        geo_source=WorldGeoSource(world),
        parameters={"threshold": THRESHOLD},
    )
    engine.add_rules(ALL_PAPER_RULES.values())
    profile = build_regional_manager_profile(build_motivating_user_model())
    app = PortalApp(engine, datamart_name="sales")
    app.register_user(profile)
    return world, star, engine, profile, app


def _ext8_setup(bundle, full_invalidation: bool) -> dict:
    """Log in, pin a fact-row template inside the view, add the churn
    layer; in full-invalidation mode also detach the history (the
    pre-delta tier kept none)."""
    from repro.geomd import GeometricType

    world, star, engine, profile, app = bundle
    if full_invalidation:
        if star.history is not None:
            star.history.detach()
    token = login(app, profile, world)
    session = engine.start_session(profile, location=world.stores[0].location)
    fact_table = star.fact_table()
    template = fact_table.row(session.view().fact_rows[0])
    star.schema.add_layer("Harbour", GeometricType.POINT)
    star.ensure_layer_table("Harbour")
    return {
        "app": app,
        "star": star,
        "engine": engine,
        "token": token,
        "fact": fact_table.fact.name,
        "coordinates": {
            d: template[d] for d in fact_table.fact.dimension_names
        },
        "measures": {m: template[m] for m in fact_table.fact.measures},
        "full": full_invalidation,
    }


def _ext8_churn(state: dict, steps: int) -> list:
    """Replay the churn mix once, returning the response bodies."""
    from repro.geometry import Point

    app, star, token = state["app"], state["star"], state["token"]
    query_bodies = (
        {"q": EXT8_SPATIAL_QUERY, "limit": 10},
        {"q": QUERY, "limit": 10},
    )
    bodies = []
    for step in range(steps):
        star.add_member("Product", "Family", f"Family-{step}")
        star.add_feature("Harbour", f"Pier {step}", Point(3.0, float(step)))
        if step % 8 == 7:
            star.insert_fact(
                state["fact"], state["coordinates"], state["measures"]
            )
        if state["full"]:
            # Pre-PR9 blanket semantics for the two mutated targets: a
            # member mutation dropped the dimension's roll-up indexes,
            # translations and grids; a feature mutation dropped the
            # layer grid; the bumped per-kind generations stale every
            # query-cache stamp over the fact (a Sales answer depends on
            # every Sales dimension); and every view is rebuilt.
            star.note_member_change("Product", op="update")
            star.note_feature_change("Harbour")
            state["engine"].view_store.invalidate()
        step_bodies = []
        for _ in range(EXT8_VIEWS_PER_STEP):
            response = app.handle("GET", "/api/v1/view", token=token)
            assert response.ok, response.body
            step_bodies.append(response.json())
        for query_body in query_bodies:
            response = app.handle(
                "POST", "/api/v1/query", query_body, token=token
            )
            assert response.ok, response.body
            step_bodies.append(response.json())
        bodies.append(step_bodies)
    return bodies


def bench_ext8(scale: str, rounds: int, multiplier: int) -> dict:
    """Mutation churn: typed-delta patching vs blanket invalidation."""
    steps = max(rounds // 50, 8)
    gate_steps = min(steps, 12)

    # Identical-response gate on fresh portals (the mix mutates the star,
    # so the two modes each replay the same sequence from the same seed).
    gate = {}
    for label, full in (("patched", False), ("full_invalidation", True)):
        state = _ext8_setup(_ext8_build(scale, multiplier), full)
        gate[label] = _ext8_churn(state, gate_steps)
    assert gate["patched"] == gate["full_invalidation"], (
        "ext8_mutation_churn: patched responses differ from full invalidation"
    )

    requests = steps * (EXT8_VIEWS_PER_STEP + 2)
    result: dict = {"fact_multiplier": multiplier, "rounds": steps}
    for label, full in (("full_invalidation", True), ("patched", False)):
        state = _ext8_setup(_ext8_build(scale, multiplier), full)
        engine, app = state["engine"], state["app"]
        result.setdefault("fact_rows", len(state["star"].fact_table()))
        store_before = engine.view_store.stats()
        hits_before = app.service.query_cache_hits
        started = time.perf_counter()
        _ext8_churn(state, steps)
        elapsed = time.perf_counter() - started
        store_after = engine.view_store.stats()
        result[f"{label}_req_per_s"] = round(requests / elapsed, 1)
        result[f"{label}_view_store"] = {
            key: store_after[key] - store_before.get(key, 0)
            for key in ("builds", "patches", "carries", "invalidations")
        }
        result[f"{label}_query_cache_hits"] = (
            app.service.query_cache_hits - hits_before
        )
    result["speedup"] = round(
        result["patched_req_per_s"] / result["full_invalidation_req_per_s"], 2
    )
    return result


def bench_ext7(scale: str, rounds: int) -> dict:
    """Worker-pool scaling on the steady-state mix (ISSUE 8 tentpole)."""
    gate_rounds = 2
    app = _ext7_build_app(scale)

    def send_in_process(method, path, body=None, token=None, datamart=None):
        response = app.handle(method, path, body, token=token)
        assert response.ok, response.body
        return response.json()

    reference_tokens, reference_logins = _ext7_login_all(send_in_process)
    reference_bodies = _ext7_sweep(send_in_process, reference_tokens, gate_rounds)
    reference_req_per_s = _ext7_timed(send_in_process, reference_tokens, rounds)

    modes = {}
    for workers in (1, 2):
        mode = _ext7_pool_mode(scale, workers, rounds, gate_rounds)
        # Identical-response gate: the pooled portal (including the
        # 1-worker topology, where every gated request crosses a
        # spill/rehydrate cycle) must be indistinguishable from the
        # single-process in-memory portal.
        assert mode["login_bodies"] == reference_logins, (
            f"ext7: {workers}-worker login responses differ from "
            f"single-process in-memory"
        )
        assert mode["gate_bodies"] == reference_bodies, (
            f"ext7: {workers}-worker responses differ from "
            f"single-process in-memory"
        )
        modes[workers] = mode

    total_sessions = len(EXT7_TENANTS) * EXT7_SESSIONS_PER_TENANT
    return {
        "tenants": len(EXT7_TENANTS),
        "sessions": total_sessions,
        "per_worker_live_cap": EXT7_LIVE_CAP,
        "rounds": rounds,
        "single_process_memory_req_per_s": round(reference_req_per_s, 1),
        "workers_1_req_per_s": round(modes[1]["req_per_s"], 1),
        "workers_2_req_per_s": round(modes[2]["req_per_s"], 1),
        "workers_1_rehydrations": modes[1]["rehydrations"],
        "workers_2_rehydrations": modes[2]["rehydrations"],
        "speedup_2w_vs_1w": round(
            modes[2]["req_per_s"] / modes[1]["req_per_s"], 2
        ),
    }


# -- EXT9: synthetic workload replay at scale tiers --------------------------------
#
# The PR 10 tentpole: a deterministic, seedable event stream (cohorted
# synthetic users with clustered login locations, the journal-vocabulary
# query mix, selection reports, layer and recommendation fetches, as-of
# reads) replayed against the two serving topologies items 1-2 were
# built for — the in-process façade and a real 2-worker pre-fork pool
# over a shared sqlite backend.  Before timing, the identical-response
# gate: the same stream replayed *serially* on both targets must produce
# byte-identical bodies (login tokens stripped).  Timing is closed-loop
# (the tier's actor count) on the gate-warmed portals; the collector
# brackets each timed run with merged health snapshots, so the JSON
# carries window cache-hit rates, view patch/build splits and backend
# spill/rehydration counts.  Lock contention/hold stats come from a
# subprocess probe (the sanitizer must instrument locks from process
# start), replaying the same stream closed-loop under REPRO_SANITIZE=1.


def _ext9_contention_probe(tier_obj, stream, actors: int) -> dict | None:
    """Replay the stream in a REPRO_SANITIZE=1 subprocess; return the
    lock-contention summary from its health window (or an error stub —
    the probe is diagnostic, it never fails the benchmark)."""
    import shutil
    import subprocess
    import tempfile

    probe_dir = tempfile.mkdtemp(prefix="repro-ext9-probe-")
    try:
        stream_path = os.path.join(probe_dir, "stream.jsonl")
        Path(stream_path).write_text(stream.to_jsonl())
        env = dict(os.environ, REPRO_SANITIZE="1")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "workload",
                "replay",
                stream_path,
                "--world-scale",
                tier_obj.world_scale,
                "--mode",
                "closed",
                "--actors",
                str(actors),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=3600,
        )
        if proc.returncode != 0:
            return {"error": proc.stderr.strip()[-500:]}
        return json.loads(proc.stdout)["health_window"]["locks"]
    finally:
        shutil.rmtree(probe_dir, ignore_errors=True)


def bench_ext9(workload_tier: str) -> dict:
    import shutil
    import tempfile

    from repro.cluster.backend import SqliteBackend
    from repro.cluster.pool import WorkerPool
    from repro.workload import (
        ClusterTarget,
        InProcessTarget,
        ReplayDriver,
        build_tier_world,
        build_workload_portal,
        generator_for_tier,
        health_window,
        merge_health,
        tier,
    )

    tier_obj = tier(workload_tier)
    world = build_tier_world(tier_obj)
    stream = generator_for_tier(tier_obj, world).stream()
    active = stream.active_users()
    fact_rows = world.config.sales
    actors = min(8, tier_obj.config.concurrency)
    description = stream.describe(fact_rows=fact_rows)

    # In-process façade: serial gate replay, then closed-loop timing.
    in_target = InProcessTarget(build_workload_portal(world, active))
    in_driver = ReplayDriver(in_target)
    in_driver.resolve_as_of()
    in_gate, gate_bodies = in_driver.replay_serial(stream, collect_bodies=True)
    assert in_gate.errors == 0, f"EXT9 in-process gate: {in_gate.error_statuses}"
    in_before = merge_health(in_target.health())
    in_timed = in_driver.replay_closed(stream, actors=actors)
    in_window = health_window(in_before, merge_health(in_target.health()))

    # 2-worker pre-fork pool over a shared sqlite backend: same gate
    # stream serially — every body must match the in-process replay —
    # then the same closed-loop timing.
    state_dir = tempfile.mkdtemp(prefix="repro-ext9-")
    backend = SqliteBackend(os.path.join(state_dir, "state.sqlite"))
    pool = WorkerPool(
        lambda worker_id: build_workload_portal(world, active, backend=backend),
        workers=2,
    )
    try:
        pool.wait_ready(timeout=300.0)
        cluster_target = ClusterTarget(pool)
        cluster_driver = ReplayDriver(cluster_target)
        cluster_driver.resolve_as_of()
        cluster_gate, cluster_bodies = cluster_driver.replay_serial(
            stream, collect_bodies=True
        )
        assert cluster_gate.errors == 0, (
            f"EXT9 cluster gate: {cluster_gate.error_statuses}"
        )
        assert cluster_bodies == gate_bodies, (
            "EXT9: cluster responses differ from in-process responses"
        )
        cluster_before = merge_health(cluster_target.health())
        cluster_timed = cluster_driver.replay_closed(stream, actors=actors)
        cluster_window = health_window(
            cluster_before, merge_health(cluster_target.health())
        )
        cluster_target.close()
    finally:
        pool.stop()
        backend.close()
        shutil.rmtree(state_dir, ignore_errors=True)

    contention = _ext9_contention_probe(tier_obj, stream, actors)
    return {
        "tier": tier_obj.name,
        "seed": stream.seed,
        "world_scale": tier_obj.world_scale,
        "fact_rows": fact_rows,
        "population_users": description["population_users"],
        "active_users": description["active_users"],
        "sessions": description["sessions"],
        "events": description["events"],
        "events_by_kind": description["events_by_kind"],
        "as_of_reads": description["as_of_reads"],
        "facts_equivalent": description["facts_equivalent"],
        "actors": actors,
        "gate_requests": in_gate.requests,
        "in_process": {
            "closed": in_timed.to_dict(),
            "health_window": in_window,
        },
        "cluster_2w": {
            "closed": cluster_timed.to_dict(),
            "health_window": cluster_window,
        },
        "contention": contention,
    }


def run(
    scale: str,
    rounds: int,
    out_path: str | None,
    ext6_multiplier: int = 100,
    ext7_rounds: int = 40,
    workload_tier: str = "smoke",
) -> dict:
    world, star, engine, profile, app, demo_tokens = build_portal(scale)
    token = login(app, profile, world)
    mixes = make_mixes(
        app, profile, world, token, reco_token=demo_tokens["ana-garcia"]
    )
    per_mix_rounds = {
        "ext3a_repeated_view": rounds,
        "ext3b_repeated_query": max(rounds // 4, 10),
        "ext3d_steady_state_mix": max(rounds // 10, 10),
        "ext3c_session_lifecycle": max(rounds // 20, 5),
        "ext4a_repeated_recommendations": max(rounds // 4, 10),
        "ext4b_recommendation_mix": max(rounds // 10, 10),
        "ext5a_shared_selection_fanout": max(rounds // 20, 5),
    }

    # Transparency gate: every mix must answer identically in both modes.
    # (Lifecycle bodies contain fresh tokens, so compare the token-free
    # view body it returns.)
    for name, (fn, _weight) in mixes.items():
        set_caches(app, engine, star, False)
        uncached = fn()
        set_caches(app, engine, star, True)
        cached = fn()
        assert uncached == cached, f"{name}: cached response differs"

    results: dict = {
        "series": "EXT3+EXT4+EXT5+EXT6+EXT7+EXT8+EXT9",
        "scale": scale,
        "workload_tier": workload_tier,
        "fact_rows": len(star.fact_table()),
        "rounds": per_mix_rounds,
        "python": platform.python_version(),
        "machine": platform.machine(),
        # Whether the lock-order sanitizer instrumented this run: the
        # wrappers are opt-in, so timings here are only comparable to
        # committed records carrying the same flag.
        "sanitize": os.environ.get("REPRO_SANITIZE") == "1",
        # Host/interpreter/git provenance: what makes this record
        # comparable (or not) to the BENCH_*.json trajectory.
        "environment": environment_provenance(),
        "mixes": {},
    }
    for name, (fn, weight) in mixes.items():
        mix_rounds = per_mix_rounds[name]
        # Scan counts only make sense for mixes that issue GeoMDQL queries.
        is_query_mix = name in ("ext3b_repeated_query", "ext3d_steady_state_mix")
        set_caches(app, engine, star, False)
        before = time_mix(fn, mix_rounds) * weight
        scanned_before = rows_scanned(app, token) if is_query_mix else None
        set_caches(app, engine, star, True)
        store_before = (
            engine.view_store.stats() if engine.view_store is not None else None
        )
        after = time_mix(fn, mix_rounds) * weight
        scanned_after = rows_scanned(app, token) if is_query_mix else None
        results["mixes"][name] = {
            "before_req_per_s": round(before, 1),
            "after_req_per_s": round(after, 1),
            "speedup": round(after / before, 2),
        }
        if is_query_mix:
            results["mixes"][name]["fact_rows_scanned_before"] = scanned_before
            results["mixes"][name]["fact_rows_scanned_after"] = scanned_after
        if name == "ext5a_shared_selection_fanout" and store_before is not None:
            # The acceptance claim: (1 + rounds) fan-outs of 4 sessions
            # each materialized their view from ONE shared build.
            store_after = engine.view_store.stats()
            results["mixes"][name]["view_store"] = {
                key: store_after[key] - store_before[key]
                for key in ("builds", "hits", "patches")
            }
        scanned = (
            f", rows scanned {scanned_before} -> {scanned_after}"
            if is_query_mix
            else ""
        )
        print(
            f"[{name}] {before:,.0f} -> {after:,.0f} req/s "
            f"({after / before:.1f}x){scanned}"
        )

    results["mixes"]["ext5b_append_heavy"] = ext5b = bench_ext5b(scale, rounds)
    results["rounds"]["ext5b_append_heavy"] = ext5b.pop("rounds")
    print(
        f"[ext5b_append_heavy] {ext5b['before_req_per_s']:,.0f} -> "
        f"{ext5b['after_req_per_s']:,.0f} req/s ({ext5b['speedup']:.1f}x), "
        f"view store {ext5b['view_store']}"
    )

    results["mixes"]["ext6_columnar_scan"] = ext6 = bench_ext6(
        scale, ext6_multiplier
    )
    results["rounds"]["ext6_columnar_scan"] = ext6.pop("rounds")
    print(
        f"[ext6_columnar_scan] {ext6['fact_rows']:,} rows "
        f"(x{ext6['fact_multiplier']}): reference {ext6['reference_s']}s -> "
        f"vectorized {ext6['vectorized_s']}s ({ext6['speedup']:.1f}x)"
    )

    results["mixes"]["ext7_worker_scaling"] = ext7 = bench_ext7(
        scale, ext7_rounds
    )
    results["rounds"]["ext7_worker_scaling"] = ext7.pop("rounds")
    print(
        f"[ext7_worker_scaling] {ext7['sessions']} sessions over live cap "
        f"{ext7['per_worker_live_cap']}: 1 worker "
        f"{ext7['workers_1_req_per_s']:,.0f} -> 2 workers "
        f"{ext7['workers_2_req_per_s']:,.0f} req/s "
        f"({ext7['speedup_2w_vs_1w']:.1f}x, rehydrations "
        f"{ext7['workers_1_rehydrations']} -> "
        f"{ext7['workers_2_rehydrations']})"
    )

    results["mixes"]["ext8_mutation_churn"] = ext8 = bench_ext8(
        scale, rounds, ext6_multiplier
    )
    results["rounds"]["ext8_mutation_churn"] = ext8.pop("rounds")
    print(
        f"[ext8_mutation_churn] {ext8['fact_rows']:,} rows "
        f"(x{ext8['fact_multiplier']}): full invalidation "
        f"{ext8['full_invalidation_req_per_s']:,.0f} -> patched "
        f"{ext8['patched_req_per_s']:,.0f} req/s "
        f"({ext8['speedup']:.1f}x), patched view store "
        f"{ext8['patched_view_store']}"
    )

    results["mixes"]["ext9_workload_replay"] = ext9 = bench_ext9(workload_tier)
    results["rounds"]["ext9_workload_replay"] = ext9["events"]
    results["environment"]["generator_seed"] = ext9["seed"]
    print(
        f"[ext9_workload_replay] tier {ext9['tier']}: "
        f"{ext9['population_users']:,} users -> {ext9['sessions']} sessions, "
        f"{ext9['events']} events ({ext9['facts_equivalent']:,} "
        f"facts-equivalent): in-process "
        f"{ext9['in_process']['closed']['req_per_s']:,.0f} req/s "
        f"(p95 {ext9['in_process']['closed']['latency']['p95_ms']}ms), "
        f"2-worker pool "
        f"{ext9['cluster_2w']['closed']['req_per_s']:,.0f} req/s "
        f"(p95 {ext9['cluster_2w']['closed']['latency']['p95_ms']}ms)"
    )

    if out_path:
        Path(out_path).write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {out_path}")
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument("--rounds", type=int, default=2000)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny round counts for CI"
    )
    parser.add_argument("--out", default=None, help="JSON artefact path")
    parser.add_argument(
        "--workload-tier",
        default=None,
        help="EXT9 scale tier (smoke/small/medium/large; default: smoke "
        "under --smoke, else medium)",
    )
    args = parser.parse_args()
    rounds = 100 if args.smoke else args.rounds
    # Smoke runs keep EXT6 at small cardinality so CI can afford it; the
    # 100x claim is only asserted on full runs.
    multiplier = 10 if args.smoke else 100
    ext7_rounds = 6 if args.smoke else max(args.rounds // 50, 20)
    workload_tier = args.workload_tier or ("smoke" if args.smoke else "medium")
    results = run(
        args.scale,
        rounds,
        args.out,
        ext6_multiplier=multiplier,
        ext7_rounds=ext7_rounds,
        workload_tier=workload_tier,
    )
    # The PR 2 acceptance bar: repeated views must be >= 5x faster.
    ext3a = results["mixes"]["ext3a_repeated_view"]
    if ext3a["speedup"] < 5.0:
        print(f"FAIL: EXT3a speedup {ext3a['speedup']}x < 5x", file=sys.stderr)
        return 1
    # The PR 3 bar: memoized recommendations must beat cold recomputes.
    ext4a = results["mixes"]["ext4a_repeated_recommendations"]
    if ext4a["speedup"] < 2.0:
        print(f"FAIL: EXT4a speedup {ext4a['speedup']}x < 2x", file=sys.stderr)
        return 1
    # The PR 4 bars are structural, not timing-based (robust in CI smoke):
    # (a) the shared-selection fan-out materialized every session's view
    # from exactly one build; (b) the append-heavy mix patched views
    # instead of rebuilding them.
    ext5a_store = results["mixes"]["ext5a_shared_selection_fanout"]["view_store"]
    if ext5a_store["builds"] != 1:
        print(
            f"FAIL: EXT5a fan-out built {ext5a_store['builds']} views, "
            f"expected 1 shared build",
            file=sys.stderr,
        )
        return 1
    ext5b_store = results["mixes"]["ext5b_append_heavy"]["view_store"]
    if ext5b_store["builds"] > 1 or ext5b_store["patches"] < 1:
        print(
            f"FAIL: EXT5b append-heavy mix did not avoid rebuilds: "
            f"{ext5b_store}",
            file=sys.stderr,
        )
        return 1
    # The PR 7 bar: at 100x cardinality the vectorized executor must be
    # >= 5x the row-loop reference (timing gates are skipped in smoke
    # mode, where the multiplier is too small to be meaningful).
    ext6 = results["mixes"]["ext6_columnar_scan"]
    if ext6["fact_multiplier"] >= 100 and ext6["speedup"] < 5.0:
        print(f"FAIL: EXT6 speedup {ext6['speedup']}x < 5x", file=sys.stderr)
        return 1
    # The PR 8 bar: once live sessions exceed the per-worker cap, two
    # shard-routed workers must deliver >= 1.7x the aggregate
    # steady-state req/s of one (the identical-response gate inside
    # bench_ext7 always runs; the timing gate is skipped in smoke mode,
    # where the round count is too small to be meaningful).
    ext7 = results["mixes"]["ext7_worker_scaling"]
    if not args.smoke and ext7["speedup_2w_vs_1w"] < 1.7:
        print(
            f"FAIL: EXT7 speedup {ext7['speedup_2w_vs_1w']}x < 1.7x",
            file=sys.stderr,
        )
        return 1
    # The PR 9 bars: (a) structural — under member/feature/fact churn the
    # typed-delta mode must serve every view from patches/carries with
    # zero rebuilds and zero invalidations (the identical-response gate
    # inside bench_ext8 always runs); (b) timing — patching must be
    # >= 3x blanket invalidation at 100x cardinality (skipped in smoke
    # mode, where the multiplier is too small to be meaningful).
    ext8 = results["mixes"]["ext8_mutation_churn"]
    ext8_store = ext8["patched_view_store"]
    if (
        ext8_store["builds"] > 0
        or ext8_store["invalidations"] > 0
        or ext8_store["patches"] < 1
    ):
        print(
            f"FAIL: EXT8 churn did not avoid rebuilds: {ext8_store}",
            file=sys.stderr,
        )
        return 1
    if not args.smoke and ext8["speedup"] < 3.0:
        print(f"FAIL: EXT8 speedup {ext8['speedup']}x < 3x", file=sys.stderr)
        return 1
    # The PR 10 bars are structural (the identical-response gate between
    # the in-process façade and the 2-worker pool already ran inside
    # bench_ext9): every timed replay must finish error-free on both
    # targets, at every tier.
    ext9 = results["mixes"]["ext9_workload_replay"]
    for target_name in ("in_process", "cluster_2w"):
        errors = ext9[target_name]["closed"]["errors"]
        if errors:
            print(
                f"FAIL: EXT9 {target_name} replay had {errors} errors: "
                f"{ext9[target_name]['closed']['error_statuses']}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
