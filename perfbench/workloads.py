"""The two workloads: ``ingest`` in process, ``pool`` over HTTP against
a two-worker pool.

Every workload replays the generated stream of :mod:`inputs` with the
repository's own replayer, :class:`repro.workload.ReplayDriver`, with one
client in closed loop, and does so in *episodes*: an episode sets up a
fresh portal (timed; ``setup_s`` is the median), replays the whole
stream once and tears the portal down.  Measured episodes repeat until
``--seconds`` of wall time have passed, and the last one is completed,
so every episode does the same work from the same state: the journal,
the session store and the per-user rule counts, which grow with
traffic, start empty each time.

Before the measured episodes, an untimed reference episode replays the
stream on an in-process portal and records every response; every
``ORACLE_EVERY``-th query answer in it is checked against the row-loop
reference executor as it is answered.  One client replays in a fixed
order, so every measured response must equal the recorded one, the
journal-driven recommendations included: against the pool this is the
identical-response gate between the pool and the in-process portal.
"""

from __future__ import annotations

import collections
import gc
import http.client
import itertools
import json
import multiprocessing
import os
import random
import shutil
import socket
import threading
import time
from dataclasses import dataclass, field

import inputs
import spans
from repro.cluster.backend import SqliteBackend
from repro.cluster.pool import ClusterClient, WorkerPool
from repro.olap.gmdql import parse_query
from repro.olap.query import execute_reference
from repro.workload import (
    ClusterTarget,
    InProcessTarget,
    ReplayDriver,
    health_window,
    merge_health,
)
from repro.workload.harness import build_workload_portal

#: One query answer in this many is checked against the row-loop
#: reference executor during the reference episode.
ORACLE_EVERY = 16
POOL_WORKERS = 2
POOL_START_TIMEOUT_S = 120.0

__all__ = ["Result", "WORKLOADS"]


@dataclass
class Result:
    """What the measured episodes of one run did and saw."""

    latencies_s: list[float] = field(default_factory=list)
    #: The request latencies of each measured episode, in replay order.
    episodes: list[list[float]] = field(default_factory=list)
    setups_s: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    incorrect: bool = False
    rows_scanned: list[int] = field(default_factory=list)
    rows_ingested: int = 0
    ingest_batches_s: list[float] = field(default_factory=list)
    #: Per-layer span totals over the measured replays (traced runs).
    spans: dict = field(default_factory=dict)
    #: Health-window counters summed over the measured replays.
    window: dict = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def fail(self, message: str) -> None:
        """A measured request failed or answered wrongly."""
        with self._lock:
            self.failed += 1
        self.wrong(message)

    def wrong(self, message: str) -> None:
        """An output check failed (the run is reported incorrect)."""
        with self._lock:
            if len(self.problems) < 5:
                self.problems.append(message)
            self.incorrect = True


class _Replay(ReplayDriver):
    """The repository's replayer, timing and checking every request it
    issues.

    An unmeasured (reference) replay stores the response bodies in
    ``expected`` (event seq -> body); a measured one compares them with
    it.  ``oracle_app`` is the in-process portal whose query answers are
    checked against the row-loop executor; ``before`` runs ahead of
    every request.
    """

    def __init__(
        self,
        target,
        result: Result,
        expected: dict,
        *,
        measured: bool,
        oracle_app=None,
        before=None,
    ) -> None:
        super().__init__(target)
        self.result = result
        self.expected = expected
        self.measured = measured
        self.oracle_app = oracle_app
        self.before = before
        self.samples: list[float] = []
        self.scanned: list[int] = []
        self._queries = itertools.count()

    def _issue(self, event, state):
        if self.before is not None:
            self.before(event)
        started = time.perf_counter()
        status, body = super()._issue(event, state)
        self.samples.append(time.perf_counter() - started)
        if status != 200:
            self._problem(f"{event.kind} #{event.seq} answered {status}")
            return status, body
        if event.kind == "login":
            body = {key: value for key, value in body.items() if key != "token"}
        if not self.measured:
            self.expected[event.seq] = body
        elif body != self.expected.get(event.seq):
            self._problem(f"{event.kind} #{event.seq} differs from the reference")
        if event.kind == "query":
            self.scanned.append(body["fact_rows_scanned"])
            if self.oracle_app is not None and next(self._queries) % ORACLE_EVERY == 0:
                self._check_oracle(event, state, body)
        return status, body

    def _problem(self, message: str) -> None:
        if self.measured:
            self.result.fail(message)
        else:
            self.result.wrong(message)

    def _check_oracle(self, event, state, body) -> None:
        """The answer must be the row-loop executor's over the session's
        own personalized view, at the generation the query asked for."""
        session = self.oracle_app.service.sessions.get(state.token).session
        query = parse_query(event.payload["q"], session.context.geomd_schema)
        view = session.view(query.fact)
        as_of = event.payload.get("as_of")
        cells = execute_reference(
            view.star,
            query,
            view.fact_rows if view.is_restricted else None,
            session.engine.metric,
            as_of=None if as_of is None else self.as_of_generations[event.datamart],
        )
        rows = [list(row) for row in cells.to_rows()]
        limit = event.payload.get("limit")
        if body["rows"] != rows[:limit] or body["page"]["total"] != len(rows):
            self.result.wrong(f"query #{event.seq} differs from the row-loop executor")


def _episode(replay: _Replay, stream, result: Result, served=None) -> None:
    """Replay the stream once; a measured replay adds its latencies,
    health window and spans (from ``served``) to ``result``."""
    replay.resolve_as_of()
    before = merge_health(replay.target.health())
    if replay.measured:
        served.spans_on()
    try:
        replay.replay_closed(stream, actors=1)
    finally:
        if replay.measured:
            served.spans_off(result)
    if not replay.measured:
        return
    window = health_window(before, merge_health(replay.target.health()))
    result.latencies_s.extend(replay.samples)
    result.episodes.append(replay.samples)
    result.rows_scanned.extend(replay.scanned)
    _add_window(result.window, window)


def _add_window(total: dict, window: dict) -> None:
    def add(key, value):
        total[key] = total.get(key, 0) + (value or 0)

    add("qc_hits", window["query_cache"]["hits"])
    add("qc_misses", window["query_cache"]["misses"])
    add("memo_hits", window["recommender"]["memo_hits"])
    add("memo_misses", window["recommender"]["memo_misses"])
    add("rehydrations", window["sessions_backend"]["rehydrations"])
    for view in window["view_store"].values():
        add("vs_hits", view["hits"])
        add("vs_misses", view["misses"])
        add("builds", view["builds"])
        add("patches", view["patches"] + view["carries"])


def _run(args, tracer, serve, with_loader: bool = False) -> Result:
    """The reference episode, then measured episodes on what
    ``serve(world, stream, tracer)`` sets up."""
    result = Result()
    world, stream = inputs.traffic(args.seed)
    expected: dict = {}

    def episode(served, measured: bool) -> None:
        loader = _Loader(served.app, args.seed) if with_loader else None
        replay = _Replay(
            served.target,
            result,
            expected,
            measured=measured,
            oracle_app=None if measured else served.app,
            before=None if loader is None else loader.before,
        )
        _episode(replay, stream, result, served)
        if loader is not None:
            loader.check(result, measured)

    reference = _InProcess(world, stream, None)
    episode(reference, measured=False)
    # Drop each portal now, not during the next measured replay.
    del reference
    gc.collect()
    began = time.perf_counter()
    while time.perf_counter() - began < args.seconds:
        started = time.perf_counter()
        served = serve(world, stream, tracer)
        result.setups_s.append(time.perf_counter() - started)
        try:
            episode(served, measured=True)
        finally:
            served.stop()
        del served
        gc.collect()
    return result


def _datamarts(stream) -> tuple:
    return tuple(stream.header["config"]["datamarts"])


# -- in process -------------------------------------------------------------------


class _InProcess:
    """The workload tier's portal in this process, as
    ``repro workload replay`` builds it."""

    def __init__(self, world, stream, tracer) -> None:
        self.app = build_workload_portal(
            world, stream.active_users(), datamarts=_datamarts(stream)
        )
        self.target = InProcessTarget(self.app)
        self.tracer = tracer

    def spans_on(self) -> None:
        if self.tracer is not None:
            self.tracer.active = True

    def spans_off(self, result: Result) -> None:
        if self.tracer is not None:
            self.tracer.active = False
            spans.merge(result.spans, self.tracer.snapshot())
            self.tracer.reset()

    def stop(self) -> None:
        self.target.close()


class _Loader:
    """Appends one sale to the requested tenant's star before every
    :data:`inputs.INGEST_EVERY`-th request, on the client's thread, so a
    row never lands in the middle of a request and every episode sees
    the same rows at the same places."""

    def __init__(self, app, seed: int) -> None:
        self.stars = {tenant.name: tenant.engine.star for tenant in app.service.registry}
        star = next(iter(self.stars.values()))
        self.members = {
            name: sorted(m.key for m in star.dimension_table(name).leaf_members())
            for name in ("Store", "Customer", "Product", "Time")
        }
        self.base = {name: len(s.fact_table("Sales")) for name, s in self.stars.items()}
        self.appended = dict.fromkeys(self.stars, 0)
        self.batches_s: list[float] = []
        self.rng = random.Random(seed + 1)
        self.requests = itertools.count()

    def before(self, event) -> None:
        if next(self.requests) % inputs.INGEST_EVERY:
            return
        rows = inputs.fact_rows(self.rng, self.members, 1)
        started = time.perf_counter()
        self.stars[event.datamart].insert_facts("Sales", rows)
        self.batches_s.append(time.perf_counter() - started)
        self.appended[event.datamart] += len(rows)

    def check(self, result: Result, measured: bool) -> None:
        """Every appended row is in its table; a measured episode's
        appends are added to ``result``."""
        for name, star in self.stars.items():
            rows = len(star.fact_table("Sales"))
            if rows != self.base[name] + self.appended[name]:
                result.wrong(f"{name} holds {rows} sales after the episode")
        if measured:
            result.ingest_batches_s.extend(self.batches_s)
            result.rows_ingested += sum(self.appended.values())


def run_ingest(args, tracer) -> Result:
    """The generated traffic against a fresh in-process portal while a
    loader appends sales."""
    return _run(args, tracer, _InProcess, with_loader=True)


# -- the worker pool --------------------------------------------------------------


class _QuickAckConnection(http.client.HTTPConnection):
    """Acknowledges each response segment at once (``TCP_QUICKACK``).

    The portal's HTTP adapter writes a response's headers and body as
    two segments; with the client's delayed ACK the second waits ~40 ms
    for the acknowledgement of the first, and that timer, not the
    server, would set every pool latency.
    """

    def getresponse(self):
        if self.sock is not None and hasattr(socket, "TCP_QUICKACK"):
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
        return super().getresponse()


class _CrossWorkerClient(ClusterClient):
    """A pool client that logs every session in on its tenant's worker
    and sends the later requests of every second *movable* session of a
    tenant to the other worker.  That worker rehydrates the session from
    the shared backend once, and each tenant's requests reach both
    workers, so cache entries, views and journal events cross between
    them.

    A user's rule state (the profile the PRML rules read and update)
    lives in each worker's heap, not in the backend, so only the
    sessions of users who log in to that tenant once are movable
    (``movable``: ``(datamart, user)`` pairs): moving one of several
    sessions of a user would split that user's rule state between the
    workers and change later answers."""

    def __init__(self, pool, movable: set) -> None:
        super().__init__(pool)
        self.movable = movable
        self._logins: dict[str, int] = {}
        self._moved: set[str] = set()

    def request(self, method, path, body=None, token=None, datamart=None):
        status, data = super().request(method, path, body, token, datamart)
        if (
            status == 200
            and datamart is not None
            and (datamart, body["user"]) in self.movable
        ):
            with self._lock:
                logins = self._logins[datamart] = self._logins.get(datamart, 0) + 1
                if logins % 2 == 0:
                    self._moved.add(data["token"])
        return status, data

    def _address_for(self, datamart, token):
        address = super()._address_for(datamart, token)
        with self._lock:
            moved = token in self._moved
        if moved and datamart is None:
            index = self.pool.shard_addresses.index(address)
            address = self.pool.shard_addresses[(index + 1) % self.pool.workers]
        return address

    def _connection(self, address):
        cache = getattr(self._local, "connections", None)
        if cache is None:
            cache = self._local.connections = {}
        conn = cache.get(address)
        if conn is None:
            conn = cache[address] = _QuickAckConnection(
                address[0], address[1], timeout=self.timeout
            )
        return conn


class _Pool:
    """Two pre-fork workers sharing one sqlite state file, as
    ``repro workload replay --workers 2`` starts them; the state lives
    under ``.perfbench/`` in the working directory."""

    app = None  # no in-process portal to load into

    def __init__(self, world, stream, tracer) -> None:
        active = stream.active_users()
        datamarts = _datamarts(stream)
        self.state_dir = os.path.join(
            os.getcwd(), ".perfbench", f"pool-{os.getpid()}-{time.monotonic_ns()}"
        )
        os.makedirs(self.state_dir)
        self.tracer = tracer
        self.backend = backend = SqliteBackend(
            os.path.join(self.state_dir, "state.sqlite")
        )
        self.target = None
        self.pool = WorkerPool(
            lambda worker_id: build_workload_portal(
                world, active, datamarts=datamarts, backend=backend
            ),
            workers=POOL_WORKERS,
        )
        try:
            self.pool.wait_ready(timeout=POOL_START_TIMEOUT_S)
        except BaseException:
            self.stop()
            raise
        logins = collections.Counter(
            (event.datamart, event.user) for event in stream if event.kind == "login"
        )
        movable = {pair for pair, count in logins.items() if count == 1}
        self.target = ClusterTarget(
            self.pool, client=_CrossWorkerClient(self.pool, movable)
        )

    def _shards(self, method: str) -> list[dict]:
        answers = []
        for host, port in self.pool.shard_addresses:
            conn = http.client.HTTPConnection(host, port, timeout=60)
            try:
                conn.request(method, spans.SPANS_PATH)
                answers.append(json.loads(conn.getresponse().read()))
            finally:
                conn.close()
        return answers

    def spans_on(self) -> None:
        if self.tracer is not None:
            self._shards("POST")

    def spans_off(self, result: Result) -> None:
        if self.tracer is not None:
            for answer in self._shards("GET"):
                spans.merge(result.spans, answer["spans"])

    def stop(self) -> None:
        if self.target is not None:
            self.target.close()
        self.pool.stop()
        for worker in multiprocessing.active_children():
            worker.kill()  # still there after the pool's grace period
            worker.join()
        self.backend.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.state_dir))
        except OSError:
            pass  # another run's state is still there


def run_pool(args, tracer) -> Result:
    """The generated traffic over HTTP against a two-worker pool whose
    sessions, query cache, views and journal live in one sqlite file;
    every second session of a once-seen user is rehydrated by the
    worker it did not log in on."""
    return _run(args, tracer, _Pool)


WORKLOADS = {
    "ingest": run_ingest,
    "pool": run_pool,
}
