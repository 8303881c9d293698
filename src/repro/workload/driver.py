"""Replay generated event streams against a live target.

Targets implement one method — ``request(method, path, body, token,
datamart) -> (status, body_dict)`` — and there are two, the ways the
CLI and the repository benchmark serve traffic:

* :class:`InProcessTarget` — the :class:`~repro.web.portal.PortalApp`
  façade, no sockets (the single-process baseline);
* :class:`ClusterTarget` — a :class:`~repro.cluster.pool.WorkerPool`
  through the affinity-routing :class:`~repro.cluster.pool.ClusterClient`
  (real pre-fork multi-process serving over a shared state backend).

Three replay modes:

* ``serial`` — one thread, stream order, optionally collecting
  (token-stripped) response bodies: the **identical-response gate**
  replays the same stream serially against two targets and compares.
* ``closed`` — M concurrent actors, each owning a disjoint slice of the
  stream's sessions (per-session request order is preserved, like real
  users behind keep-alive connections); throughput under a fixed
  concurrency level.
* ``open`` — fixed arrival rate: a pacing dispatcher schedules each
  event at ``start + i/rate`` and hands it to per-session-pinned sender
  threads; reported latency counts from the *scheduled* time, so queue
  delay under overload shows up in the percentiles (the open-loop
  convention — no coordinated omission).

Per-request latencies feed :class:`LatencyStats` (stdlib percentile
maths over the recorded samples); errors are counted per status and
never abort a timed run.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.workload.generator import AS_OF_EPOCH, EventStream, TrafficEvent

__all__ = [
    "InProcessTarget",
    "ClusterTarget",
    "LatencyStats",
    "ReplayReport",
    "ReplayDriver",
]


class InProcessTarget:
    """The in-process portal façade as a replay target."""

    name = "in_process"

    def __init__(self, app) -> None:
        self.app = app

    def request(self, method, path, body=None, token=None, datamart=None):
        response = self.app.handle(method, path, body, token=token)
        return response.status, response.json()

    def health(self) -> list[dict]:
        """One health snapshot per serving process (here: exactly one)."""
        return [self.request("GET", "/api/v1/health")[1]]

    def close(self) -> None:  # symmetry with the socket target
        return None


class ClusterTarget:
    """A pre-fork worker pool through the tenant-affinity client."""

    name = "cluster"

    def __init__(self, pool, client=None) -> None:
        from repro.cluster.pool import ClusterClient

        self.pool = pool
        self.client = client if client is not None else ClusterClient(pool)

    def request(self, method, path, body=None, token=None, datamart=None):
        return self.client.request(
            method, path, body=body, token=token, datamart=datamart
        )

    def health(self) -> list[dict]:
        """One health snapshot per worker (the collector merges them)."""
        return self.client.shard_health()

    def close(self) -> None:
        self.client.close()


@dataclass(frozen=True)
class LatencyStats:
    """Percentiles over recorded per-request latencies, in milliseconds."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    @classmethod
    def from_samples(cls, samples_s: list[float]) -> "LatencyStats":
        if not samples_s:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(samples_s)
        count = len(ordered)

        def pct(q: float) -> float:
            index = max(0, min(count - 1, round(q * (count - 1))))
            return ordered[index]

        to_ms = lambda s: round(s * 1000.0, 3)  # noqa: E731
        return cls(
            count=count,
            mean_ms=to_ms(sum(ordered) / count),
            p50_ms=to_ms(pct(0.50)),
            p95_ms=to_ms(pct(0.95)),
            p99_ms=to_ms(pct(0.99)),
            max_ms=to_ms(ordered[-1]),
        )

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean_ms": self.mean_ms,
            "p50_ms": self.p50_ms,
            "p95_ms": self.p95_ms,
            "p99_ms": self.p99_ms,
            "max_ms": self.max_ms,
        }


@dataclass
class ReplayReport:
    """What one replay run did: volume, rate, latency, errors."""

    mode: str
    target: str
    requests: int
    errors: int
    elapsed_s: float
    req_per_s: float
    latency: LatencyStats
    by_kind: dict[str, int] = field(default_factory=dict)
    error_statuses: dict[str, int] = field(default_factory=dict)
    #: The latency of each event kind's requests, from the same samples.
    latency_by_kind: dict[str, LatencyStats] = field(default_factory=dict)
    #: Open-loop only: configured rate and mean dispatch lag.
    arrival_rate_per_s: float | None = None
    dispatch_lag_ms: float | None = None

    def to_dict(self) -> dict:
        out = {
            "mode": self.mode,
            "target": self.target,
            "requests": self.requests,
            "errors": self.errors,
            "elapsed_s": round(self.elapsed_s, 4),
            "req_per_s": round(self.req_per_s, 1),
            "latency": self.latency.to_dict(),
            "by_kind": dict(sorted(self.by_kind.items())),
            "error_statuses": dict(sorted(self.error_statuses.items())),
            "latency_by_kind": {
                kind: {
                    "count": stats.count,
                    "p50_ms": stats.p50_ms,
                    "p95_ms": stats.p95_ms,
                }
                for kind, stats in sorted(self.latency_by_kind.items())
            },
        }
        if self.arrival_rate_per_s is not None:
            out["arrival_rate_per_s"] = self.arrival_rate_per_s
            out["dispatch_lag_ms"] = self.dispatch_lag_ms
        return out


class _Tally:
    """What one replay thread saw: its latency samples per event kind and
    the statuses of its failed requests."""

    __slots__ = ("samples", "error_statuses")

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.error_statuses: dict[str, int] = {}

    def record(self, kind: str, status: int, seconds: float) -> None:
        """Count one request whose timer has stopped."""
        self.samples.setdefault(kind, []).append(seconds)
        if not 200 <= status < 300:
            key = str(status)
            self.error_statuses[key] = self.error_statuses.get(key, 0) + 1


class _SessionState:
    """Per-session replay state: the live token once login answered."""

    __slots__ = ("token",)

    def __init__(self) -> None:
        self.token: str | None = None


class ReplayDriver:
    """Replay an :class:`EventStream` against one target.

    ``as_of_generations`` maps datamart name -> the generation the
    symbolic :data:`~repro.workload.generator.AS_OF_EPOCH` marker
    resolves to; :meth:`resolve_as_of` scrapes it from the target's
    health route (every tenant's ``star_generation``) so epoch reads are
    answerable and identical across targets built from the same factory.
    """

    def __init__(self, target, as_of_generations: dict[str, int] | None = None):
        self.target = target
        self.as_of_generations = dict(as_of_generations or {})

    def resolve_as_of(self) -> dict[str, int]:
        """Record each tenant's current star generation as the epoch."""
        for snapshot in self.target.health():
            for tenant in snapshot.get("datamarts", ()):
                self.as_of_generations.setdefault(
                    tenant["name"], tenant["star_generation"]
                )
        return self.as_of_generations

    # -- one event ----------------------------------------------------------------

    def _build_request(self, event: TrafficEvent, state: _SessionState):
        kind = event.kind
        payload = dict(event.payload)
        if kind == "login":
            payload["datamart"] = event.datamart
            return ("POST", "/api/v1/login", payload, None, event.datamart)
        token = state.token
        if kind == "logout":
            return ("POST", "/api/v1/logout", None, token, None)
        if kind == "view":
            return ("GET", "/api/v1/view", None, token, None)
        if kind == "query":
            if payload.get("as_of") == AS_OF_EPOCH:
                generation = self.as_of_generations.get(event.datamart)
                if generation is None:
                    raise ReproError(
                        f"stream uses epoch as-of reads but no generation is "
                        f"recorded for datamart {event.datamart!r}; call "
                        f"resolve_as_of() first"
                    )
                payload["as_of"] = generation
            return ("POST", "/api/v1/query", payload, token, None)
        if kind == "selection":
            return ("POST", "/api/v1/selection", payload, token, None)
        if kind == "layer":
            return (
                "GET",
                f"/api/v1/layers/{payload['layer']}",
                None,
                token,
                None,
            )
        if kind == "recommendations":
            return (
                "GET",
                f"/api/v1/recommendations/{payload['kind']}",
                None,
                token,
                None,
            )
        raise ReproError(f"unknown workload event kind {kind!r}")

    def _issue(self, event: TrafficEvent, state: _SessionState):
        method, path, body, token, datamart = self._build_request(event, state)
        status, response = self.target.request(
            method, path, body=body, token=token, datamart=datamart
        )
        if event.kind == "login" and status == 200:
            state.token = response.get("token")
        return status, response

    # -- serial (gate) mode -------------------------------------------------------

    def replay_serial(
        self, stream: EventStream, collect_bodies: bool = False
    ) -> tuple[ReplayReport, list | None]:
        """Stream-order replay on one thread.

        With ``collect_bodies`` the (token-stripped) response bodies come
        back in stream order — the input to the identical-response gate.
        """
        sessions: dict[str, _SessionState] = {}
        tally = _Tally()
        bodies: list | None = [] if collect_bodies else None
        started = time.perf_counter()
        for event in stream:
            state = sessions.setdefault(event.session, _SessionState())
            sent = time.perf_counter()
            status, response = self._issue(event, state)
            tally.record(event.kind, status, time.perf_counter() - sent)
            if bodies is not None:
                if event.kind == "login":
                    response = {
                        k: v for k, v in response.items() if k != "token"
                    }
                bodies.append(response)
        elapsed = time.perf_counter() - started
        report = self._report("serial", stream, elapsed, [tally])
        return report, bodies

    # -- concurrent modes ---------------------------------------------------------

    def _session_slices(self, stream: EventStream, actors: int):
        """Events grouped per session, sessions dealt round-robin to
        actors (per-session order preserved, like one user = one agent)."""
        per_session: dict[str, list[TrafficEvent]] = {}
        order: list[str] = []
        for event in stream:
            if event.session not in per_session:
                per_session[event.session] = []
                order.append(event.session)
            per_session[event.session].append(event)
        slices: list[list[list[TrafficEvent]]] = [[] for _ in range(actors)]
        for index, session_id in enumerate(order):
            slices[index % actors].append(per_session[session_id])
        return slices

    def replay_closed(self, stream: EventStream, actors: int = 4) -> ReplayReport:
        """Closed loop: ``actors`` concurrent agents, disjoint sessions."""
        if actors < 1:
            raise ReproError("actors must be >= 1")
        slices = self._session_slices(stream, actors)
        tallies = [_Tally() for _ in range(actors)]
        failures: list[Exception] = []

        def drive(actor: int) -> None:
            try:
                tally = tallies[actor]
                for session_events in slices[actor]:
                    state = _SessionState()
                    for event in session_events:
                        sent = time.perf_counter()
                        status, _response = self._issue(event, state)
                        tally.record(event.kind, status, time.perf_counter() - sent)
            except Exception as exc:  # noqa: BLE001 - re-raised after join
                failures.append(exc)

        threads = [
            threading.Thread(target=drive, args=(actor,), name=f"replay-{actor}")
            for actor in range(actors)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        if failures:
            raise failures[0]
        return self._report("closed", stream, elapsed, tallies)

    def replay_open(
        self,
        stream: EventStream,
        rate_per_s: float,
        senders: int = 4,
    ) -> ReplayReport:
        """Open loop: events dispatched at a fixed arrival rate.

        Each session is pinned to one sender thread (per-session order),
        and latency is measured from the *scheduled* arrival time — a
        backed-up sender queue shows up as latency, not as a slower rate.
        """
        if rate_per_s <= 0:
            raise ReproError("rate_per_s must be positive")
        if senders < 1:
            raise ReproError("senders must be >= 1")
        queues: list[queue.Queue] = [queue.Queue() for _ in range(senders)]
        #: session id -> sender index (first-seen round-robin pinning).
        pinned: dict[str, int] = {}
        tallies = [_Tally() for _ in range(senders)]
        lags: list[list[float]] = [[] for _ in range(senders)]
        sessions: dict[str, _SessionState] = {}
        failures: list[Exception] = []

        def send_loop(index: int) -> None:
            try:
                tally = tallies[index]
                while True:
                    item = queues[index].get()
                    if item is None:
                        return
                    scheduled, event = item
                    state = sessions[event.session]
                    dispatch = time.perf_counter()
                    status, _response = self._issue(event, state)
                    tally.record(event.kind, status, time.perf_counter() - scheduled)
                    lags[index].append(max(0.0, dispatch - scheduled))
            except Exception as exc:  # noqa: BLE001 - re-raised after join
                failures.append(exc)

        threads = [
            threading.Thread(target=send_loop, args=(i,), name=f"sender-{i}")
            for i in range(senders)
        ]
        for thread in threads:
            thread.start()
        started = time.perf_counter()
        interval = 1.0 / rate_per_s
        for index, event in enumerate(stream):
            scheduled = started + index * interval
            now = time.perf_counter()
            if scheduled > now:
                time.sleep(scheduled - now)
            if event.session not in pinned:
                pinned[event.session] = len(pinned) % senders
                sessions[event.session] = _SessionState()
            queues[pinned[event.session]].put((scheduled, event))
        for q in queues:
            q.put(None)
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - started
        if failures:
            raise failures[0]
        report = self._report("open", stream, elapsed, tallies)
        lag_samples = [lag for per in lags for lag in per]
        report.arrival_rate_per_s = rate_per_s
        report.dispatch_lag_ms = round(
            1000.0 * sum(lag_samples) / len(lag_samples), 3
        ) if lag_samples else 0.0
        return report

    def _report(self, mode, stream, elapsed, tallies) -> ReplayReport:
        samples: dict[str, list[float]] = {}
        error_statuses: dict[str, int] = {}
        for tally in tallies:
            for kind, taken in tally.samples.items():
                samples.setdefault(kind, []).extend(taken)
            for status, count in tally.error_statuses.items():
                error_statuses[status] = error_statuses.get(status, 0) + count
        return ReplayReport(
            mode=mode,
            target=getattr(self.target, "name", "target"),
            requests=len(stream),
            errors=sum(error_statuses.values()),
            elapsed_s=elapsed,
            req_per_s=len(stream) / elapsed if elapsed > 0 else 0.0,
            latency=LatencyStats.from_samples(
                [sample for taken in samples.values() for sample in taken]
            ),
            by_kind={kind: len(taken) for kind, taken in samples.items()},
            error_statuses=error_statuses,
            latency_by_kind={
                kind: LatencyStats.from_samples(taken)
                for kind, taken in samples.items()
            },
        )
