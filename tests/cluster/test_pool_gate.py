"""Worker pools answer like one process.

Two gates over real pre-fork pools on one sqlite file, each comparing
every response body (login tokens aside) with a single-process portal
over in-heap stores, built by the same factory over the same world:

* the spill gate: four tenants with nine sessions each, and at most 24
  live sessions per worker.  On one worker no request finds its session
  live, so each one rehydrates a session (SessionStart rules re-run at
  the login location) and spills another; two tenant-sharded workers
  hold all of them.  The requests are views and queries.
* the stream gate: the smoke tier's generated stream (views, queries,
  a selection report and recommendation fetches) replayed serially on
  a 2-worker pool, then again closed-loop with the tier's concurrent
  actors, which must answer without an error there and in process.
"""

import contextlib

import pytest

from repro.cluster.backend import SqliteBackend
from repro.cluster.pool import WorkerPool
from repro.workload import (
    WORKLOAD_TENANTS,
    ClusterTarget,
    InProcessTarget,
    ReplayDriver,
    merge_health,
)
from repro.workload.harness import (
    build_tier_world,
    build_workload_portal,
    generator_for_tier,
    tier,
)

QUERY = "SELECT SUM(UnitSales) FROM Sales BY Product.Family"
SESSIONS_PER_TENANT = 9
LIVE_CAP = 24
ROUNDS = 2
USERS = [(name, "ana-garcia", "") for name in WORKLOAD_TENANTS]


@pytest.fixture(scope="module")
def smoke():
    selected = tier("smoke")
    world = build_tier_world(selected)
    return world, generator_for_tier(selected, world).stream()


@contextlib.contextmanager
def _pool(tmp_path, factory, workers):
    backend = SqliteBackend(str(tmp_path / "state.sqlite"))
    pool = WorkerPool(lambda worker_id: factory(backend), workers=workers)
    target = None
    try:
        pool.wait_ready(timeout=120.0)
        target = ClusterTarget(pool)
        yield target
    finally:
        if target is not None:
            target.close()
        pool.stop()
        backend.close()


def _spill_portal(world, backend=None):
    app = build_workload_portal(world, USERS, backend=backend)
    if backend is not None:
        app.service.sessions.max_sessions = LIVE_CAP
    return app


def _spill_sweep(target, world):
    """Open every session, then request views and queries (four to one)
    round-robin over them; returns the bodies, login tokens stripped."""
    location = world.stores[0].location
    bodies, tokens = [], []
    for name in WORKLOAD_TENANTS:
        for _ in range(SESSIONS_PER_TENANT):
            status, body = target.request(
                "POST",
                "/api/v1/login",
                {
                    "user": "ana-garcia",
                    "datamart": name,
                    "location": [location.x, location.y],
                },
                datamart=name,
            )
            assert status == 200, body
            tokens.append(body.pop("token"))
            bodies.append(body)
    for round_no in range(ROUNDS):
        for index, token in enumerate(tokens):
            if (round_no + index) % 5 == 4:
                request = ("POST", "/api/v1/query", {"q": QUERY, "limit": 10})
            else:
                request = ("GET", "/api/v1/view", None)
            status, body = target.request(*request, token=token)
            assert status == 200, body
            bodies.append(body)
    return bodies


@pytest.mark.parametrize("workers", [1, 2])
def test_spilled_sessions_answer_like_one_process(smoke, tmp_path, workers):
    world, _stream = smoke
    reference = _spill_sweep(InProcessTarget(_spill_portal(world)), world)
    with _pool(
        tmp_path, lambda backend: _spill_portal(world, backend), workers
    ) as target:
        bodies = _spill_sweep(target, world)
        sessions = merge_health(target.health())["sessions_backend"]
    assert bodies == reference
    requests = ROUNDS * len(WORKLOAD_TENANTS) * SESSIONS_PER_TENANT
    assert sessions["rehydrations"] == (requests if workers == 1 else 0)


def test_smoke_stream_answers_like_one_process(smoke, tmp_path):
    world, stream = smoke
    active = stream.active_users()
    actors = tier("smoke").config.concurrency

    def replay(target):
        driver = ReplayDriver(target)
        driver.resolve_as_of()
        report, bodies = driver.replay_serial(stream, collect_bodies=True)
        closed = driver.replay_closed(stream, actors=actors)
        assert closed.errors == 0, closed.error_statuses
        return report, bodies

    report, reference = replay(
        InProcessTarget(build_workload_portal(world, active))
    )
    with _pool(
        tmp_path,
        lambda backend: build_workload_portal(world, active, backend=backend),
        workers=2,
    ) as target:
        pool_report, bodies = replay(target)
    assert report.errors == pool_report.errors == 0
    assert len(bodies) == len(stream)
    for event, body, expected in zip(stream, bodies, reference):
        assert body == expected, f"{event.kind} #{event.seq} differs"
