"""Deterministic synthetic traffic generation.

The :class:`WorkloadGenerator` turns a :class:`~repro.workload.cohorts.
WorkloadProfile` plus a :class:`GeneratorConfig` into a replayable
:class:`EventStream`: a flat, globally ordered sequence of
:class:`TrafficEvent` records — session logins (with clustered login
locations), views, GeoMDQL queries (optionally as-of reads), spatial
selection reports, layer fetches, recommendation fetches, and logouts —
that any :mod:`~repro.workload.driver` target can replay verbatim.

Determinism is the contract: **every** stochastic choice (cohort
assignment, session sampling, location jitter, event draws, abandon
decisions) flows through the one ``random.Random(config.seed)`` instance
created per :meth:`WorkloadGenerator.stream` call, so identical
``(seed, params)`` produce byte-identical serialized streams
(:meth:`EventStream.to_jsonl`) — the property the repository benchmark
and the regression tests pin.  The population can be arbitrarily large
(``users`` is a number, not a list): user identities are materialized
lazily as sessions sample them, so a million-user tier costs only its
*active* sessions.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.errors import ReproError
from repro.workload.cohorts import CohortSpec, WorkloadProfile

__all__ = [
    "STREAM_FORMAT",
    "AS_OF_EPOCH",
    "GeneratorConfig",
    "TrafficEvent",
    "EventStream",
    "WorkloadGenerator",
]

#: Header ``format`` tag of the JSONL stream serialization.
STREAM_FORMAT = "repro-workload-stream/1"

#: Symbolic ``as_of`` marker: the driver resolves it to the target
#: star's generation at replay start (the stream itself never mutates
#: the star, so the epoch read stays answerable and bit-stable).
AS_OF_EPOCH = "epoch"


@dataclass(frozen=True)
class GeneratorConfig:
    """Population and stream-shape knobs.

    ``users`` is the population size; ``sessions`` of them actually log
    in (sampled with the cohort weights).  ``concurrency`` is the
    interleaving width — how many sessions are open at once in the
    stream's global order, which is also the natural actor count for
    closed-loop replay.  ``fact_multiplier`` scales the target world's
    fact table (the harness applies it); it rides in the header so a
    stream names the data scale it was meant for.  ``arrival_rate_per_s``
    is the nominal open-loop rate, metadata for the driver's pacing.
    """

    seed: int = 10
    users: int = 1_000
    sessions: int = 50
    events_per_session: tuple[int, int] = (6, 12)
    concurrency: int = 8
    datamarts: tuple[str, ...] = ("default",)
    fact_multiplier: int = 1
    arrival_rate_per_s: float | None = None
    abandon_rate: float = 0.05
    query_limit: int = 10

    def __post_init__(self) -> None:
        if self.users < 1 or self.sessions < 1:
            raise ReproError("users and sessions must be >= 1")
        low, high = self.events_per_session
        if low < 1 or high < low:
            raise ReproError("events_per_session must satisfy 1 <= low <= high")
        if self.concurrency < 1:
            raise ReproError("concurrency must be >= 1")
        if not self.datamarts:
            raise ReproError("need at least one datamart name")
        if self.fact_multiplier < 1:
            raise ReproError("fact_multiplier must be >= 1")
        if not 0.0 <= self.abandon_rate <= 1.0:
            raise ReproError("abandon_rate must be within [0, 1]")

    def to_dict(self) -> dict:
        data = asdict(self)
        data["events_per_session"] = list(self.events_per_session)
        data["datamarts"] = list(self.datamarts)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "GeneratorConfig":
        kwargs = dict(data)
        kwargs["events_per_session"] = tuple(kwargs["events_per_session"])  # type: ignore[arg-type]
        kwargs["datamarts"] = tuple(kwargs["datamarts"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]


@dataclass(frozen=True)
class TrafficEvent:
    """One replayable request in the global stream order.

    ``kind`` is ``login``/``logout`` or one of
    :data:`~repro.workload.cohorts.EVENT_KINDS`; ``payload`` is the
    kind-specific request document (query text and optional symbolic
    ``as_of`` for queries, target/condition for selections, the layer or
    recommendation kind for fetches, user/location/datamart for logins).
    """

    seq: int
    session: str
    user: str
    cohort: str
    datamart: str
    kind: str
    payload: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "session": self.session,
            "user": self.user,
            "cohort": self.cohort,
            "datamart": self.datamart,
            "kind": self.kind,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "TrafficEvent":
        return cls(
            seq=int(data["seq"]),  # type: ignore[arg-type]
            session=str(data["session"]),
            user=str(data["user"]),
            cohort=str(data["cohort"]),
            datamart=str(data["datamart"]),
            kind=str(data["kind"]),
            payload=dict(data.get("payload") or {}),  # type: ignore[arg-type]
        )


class EventStream:
    """A generated stream: a header (seed, config, profile) + events."""

    def __init__(self, header: dict, events: list[TrafficEvent]) -> None:
        self.header = header
        self.events = events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def seed(self) -> int:
        return int(self.header["seed"])

    def active_users(self) -> list[tuple[str, str, str]]:
        """Distinct ``(datamart, user, cohort)`` triples that log in."""
        seen: dict[tuple[str, str, str], None] = {}
        for event in self.events:
            if event.kind == "login":
                seen.setdefault((event.datamart, event.user, event.cohort))
        return list(seen)

    def describe(self, fact_rows: int | None = None) -> dict:
        """Summary statistics: what a replay of this stream will do.

        ``fact_rows`` is the target world's fact-table cardinality, after
        the header's ``fact_multiplier``; it is reported as given.
        """
        kinds: dict[str, int] = {}
        cohort_sessions: dict[str, int] = {}
        as_of_reads = 0
        for event in self.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
            if event.kind == "login":
                cohort_sessions[event.cohort] = (
                    cohort_sessions.get(event.cohort, 0) + 1
                )
            if event.kind == "query" and event.payload.get("as_of") is not None:
                as_of_reads += 1
        config = self.header.get("config", {})
        out = {
            "format": self.header.get("format"),
            "seed": self.seed,
            "population_users": config.get("users"),
            "active_users": len(self.active_users()),
            "sessions": kinds.get("login", 0),
            "events": len(self.events),
            "events_by_kind": dict(sorted(kinds.items())),
            "sessions_by_cohort": dict(sorted(cohort_sessions.items())),
            "as_of_reads": as_of_reads,
            "fact_multiplier": config.get("fact_multiplier"),
            "datamarts": config.get("datamarts"),
        }
        if fact_rows is not None:
            out["fact_rows"] = fact_rows
        return out

    # -- serialization ------------------------------------------------------------

    def to_jsonl(self) -> str:
        """Canonical serialization: sorted keys, compact separators —
        byte-identical for identical (seed, params)."""
        lines = [json.dumps(self.header, sort_keys=True, separators=(",", ":"))]
        lines.extend(
            json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))
            for event in self.events
        )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "EventStream":
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ReproError("empty workload stream")
        header = json.loads(lines[0])
        if header.get("format") != STREAM_FORMAT:
            raise ReproError(
                f"not a workload stream (format {header.get('format')!r}, "
                f"expected {STREAM_FORMAT!r})"
            )
        events = [TrafficEvent.from_dict(json.loads(line)) for line in lines[1:]]
        return cls(header, events)


class _OpenSession:
    """Generator-side state of one in-flight synthetic session."""

    __slots__ = ("session_id", "user", "cohort", "datamart", "remaining")

    def __init__(self, session_id, user, cohort, datamart, remaining):
        self.session_id = session_id
        self.user = user
        self.cohort = cohort
        self.datamart = datamart
        self.remaining = remaining


class WorkloadGenerator:
    """Produce replayable event streams from a profile + config.

    ``locations`` are the candidate login points (typically the target
    world's store coordinates, via
    :func:`~repro.workload.cohorts.candidate_locations`); cohorts with a
    spatial anchor cluster their members around it inside the candidate
    bounding box, which is what gives the synthetic population its
    spatially skewed envelope structure.
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        config: GeneratorConfig,
        locations: Sequence[tuple[float, float]] = ((0.0, 0.0),),
    ) -> None:
        if not locations:
            raise ReproError("need at least one candidate login location")
        self.profile = profile
        self.config = config
        self.locations = tuple(
            (float(x), float(y)) for x, y in locations
        )
        xs = [x for x, _y in self.locations]
        ys = [y for _x, y in self.locations]
        self._bbox = (min(xs), min(ys), max(xs), max(ys))

    # -- draws (all through the injected rng) -------------------------------------

    @staticmethod
    def _weighted_choice(rng, pairs: Iterable[tuple[object, float]]):
        items = list(pairs)
        total = sum(weight for _item, weight in items)
        if total <= 0:
            raise ReproError("weighted choice over non-positive weights")
        point = rng.random() * total
        acc = 0.0
        for item, weight in items:
            acc += weight
            if point < acc:
                return item
        return items[-1][0]

    def _draw_cohort(self, rng) -> CohortSpec:
        return self._weighted_choice(
            rng, [(cohort, cohort.weight) for cohort in self.profile.cohorts]
        )

    def _draw_location(self, rng, cohort: CohortSpec) -> tuple[float, float]:
        """A login point: the candidate nearest the cohort's jittered
        anchor (clustered envelope), or a uniform candidate without one."""
        if cohort.anchor is None:
            return self.locations[rng.randrange(len(self.locations))]
        min_x, min_y, max_x, max_y = self._bbox
        extent = max(max_x - min_x, max_y - min_y) or 1.0
        ax = min_x + cohort.anchor[0] * (max_x - min_x)
        ay = min_y + cohort.anchor[1] * (max_y - min_y)
        tx = ax + rng.gauss(0.0, cohort.spread * extent)
        ty = ay + rng.gauss(0.0, cohort.spread * extent)
        return min(
            self.locations,
            key=lambda p: (p[0] - tx) ** 2 + (p[1] - ty) ** 2,
        )

    def _draw_event_payload(self, rng, cohort: CohortSpec) -> tuple[str, dict]:
        kind = self._weighted_choice(
            rng, list(cohort.mix_weights().items())
        )
        if kind == "query":
            text = self._weighted_choice(
                rng, list(zip(cohort.queries, cohort.query_weights))
            )
            payload: dict = {"q": text, "limit": self.config.query_limit}
            if cohort.as_of_rate > 0 and rng.random() < cohort.as_of_rate:
                payload["as_of"] = AS_OF_EPOCH
            return kind, payload
        if kind == "selection":
            target, condition = cohort.selections[
                rng.randrange(len(cohort.selections))
            ]
            return kind, {"target": target, "condition": condition}
        if kind == "layer":
            return kind, {
                "layer": cohort.layers[rng.randrange(len(cohort.layers))]
            }
        if kind == "recommendations":
            return kind, {
                "kind": ("queries", "layers", "members")[rng.randrange(3)]
            }
        return "view", {}

    # -- stream construction ------------------------------------------------------

    def stream(self) -> EventStream:
        """Generate the full event stream (fresh rng per call, so
        repeated calls on one generator are identical too)."""
        import random

        config = self.config
        rng = random.Random(config.seed)
        events: list[TrafficEvent] = []
        seq = 0
        #: population user index -> (user_id, cohort, location); assigned
        #: on first sampling so huge populations stay lazy.
        assigned: dict[int, tuple[str, CohortSpec, tuple[float, float]]] = {}
        open_sessions: list[_OpenSession] = []
        sessions_remaining = config.sessions
        session_counter = 0

        def emit(session: _OpenSession, kind: str, payload: dict) -> None:
            nonlocal seq
            seq += 1
            events.append(
                TrafficEvent(
                    seq=seq,
                    session=session.session_id,
                    user=session.user,
                    cohort=session.cohort,
                    datamart=session.datamart,
                    kind=kind,
                    payload=payload,
                )
            )

        def open_session() -> None:
            nonlocal sessions_remaining, session_counter
            index = rng.randrange(config.users)
            if index not in assigned:
                cohort = self._draw_cohort(rng)
                assigned[index] = (
                    f"wl-{index:07d}",
                    cohort,
                    self._draw_location(rng, cohort),
                )
            user_id, cohort, location = assigned[index]
            session = _OpenSession(
                session_id=f"s{session_counter:05d}",
                user=user_id,
                cohort=cohort.name,
                datamart=config.datamarts[
                    session_counter % len(config.datamarts)
                ],
                remaining=rng.randint(*config.events_per_session),
            )
            session_counter += 1
            sessions_remaining -= 1
            open_sessions.append(session)
            emit(
                session,
                "login",
                {
                    "user": user_id,
                    "location": [location[0], location[1]],
                },
            )

        while open_sessions or sessions_remaining:
            while sessions_remaining and len(open_sessions) < config.concurrency:
                open_session()
            session = open_sessions[rng.randrange(len(open_sessions))]
            if session.remaining <= 0:
                open_sessions.remove(session)
                if rng.random() >= config.abandon_rate:
                    emit(session, "logout", {})
                continue
            session.remaining -= 1
            cohort = self.profile.cohort(session.cohort)
            kind, payload = self._draw_event_payload(rng, cohort)
            emit(session, kind, payload)

        header = {
            "format": STREAM_FORMAT,
            "seed": config.seed,
            "config": config.to_dict(),
            "profile": self.profile.to_dict(),
            "events": len(events),
        }
        return EventStream(header, events)
