"""The workload journal: an append-only event log per (datamart, user).

Every query, spatial-selection report and layer fetch that reaches the
:class:`~repro.service.facade.PersonalizationService` is journaled here —
the same traffic the cache hierarchy observes.  Histories are keyed by
``(datamart, user_id)``, *not* by session token: sessions expire and get
evicted, but a user's analysis history survives and a re-login resumes
it.

The journal is the recommender's ground truth.  The recommender reads
a history as its :class:`UserSummary` — the distinct query texts, the
fetched layers and the union of selected members — which
:meth:`~WorkloadJournal.summary` makes in one pass over
:meth:`~WorkloadJournal.events`.  A user's *position* is the sequence
number of that user's last event, and
:meth:`~WorkloadJournal.positions` reads every user's position in one
tenant at once.  Only the user's own append moves it (a trim of old
events comes only with one), so the recommender keys each user's
summary and spatial profile on it: another user's append leaves them
warm.

Memory is bounded per user (``max_events_per_user``, oldest dropped
first) so a hot tenant cannot grow the journal without limit.

Storage is five methods — :meth:`~WorkloadJournal.record`,
:meth:`~WorkloadJournal.positions`, :meth:`~WorkloadJournal.events`,
:meth:`~WorkloadJournal.stats` and ``__len__``; the derived API
(``record_query``/``record_selection``/``record_layer``, ``users`` and
:meth:`~WorkloadJournal.summary`) is written once over them.
:class:`~repro.cluster.stores.BackendWorkloadJournal` overrides only the
storage methods, keeping events in a shared
:class:`~repro.cluster.backend.StateBackend`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from repro.concurrency import make_lock

__all__ = ["UserSummary", "WorkloadEvent", "WorkloadJournal"]

#: Event kinds the journal understands.
QUERY = "query"
SELECTION = "selection"
LAYER = "layer"


def _check_kind(kind: str) -> None:
    if kind not in (QUERY, SELECTION, LAYER):
        raise ValueError(f"unknown workload event kind {kind!r}")


def _freeze(value: object) -> object:
    """Recursively freeze a payload value (dicts/lists/sets included)."""
    if isinstance(value, Mapping):
        return MappingProxyType({k: _freeze(v) for k, v in value.items()})
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(_freeze(v) for v in value)
    return value


@dataclass(frozen=True)
class WorkloadEvent:
    """One journaled interaction.

    ``seq`` is a journal-wide monotonic sequence number (append order
    across all users of all tenants); ``payload`` is a recursively
    read-only mapping whose shape depends on ``kind``:

    * ``"query"`` — ``{"q": <stripped GeoMDQL text>}``;
    * ``"selection"`` — ``{"target", "condition", "members": ((dimension,
      level, key), ...)}`` (the session's member selection snapshot after
      acquisition rules fired);
    * ``"layer"`` — ``{"layer": <name>}``.
    """

    seq: int
    kind: str
    datamart: str
    user_id: str
    payload: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Freeze the payload (deeply) so journaled history cannot be
        # mutated through references callers or readers hold.
        object.__setattr__(self, "payload", _freeze(dict(self.payload)))


@dataclass(frozen=True)
class UserSummary:
    """One user's history as the recommender reads it.

    ``queries`` are the distinct query texts in first-run order,
    ``layers`` the fetched layer names, and ``members`` the union of the
    journaled member selections, ``(dimension, level) -> keys``.
    """

    queries: tuple[str, ...]
    layers: frozenset[str]
    members: Mapping[tuple[str, str], frozenset[str]]


class WorkloadJournal:
    """Thread-safe, append-only workload log per (datamart, user)."""

    def __init__(self, max_events_per_user: int = 10_000) -> None:
        if max_events_per_user < 1:
            raise ValueError("max_events_per_user must be >= 1")
        self.max_events_per_user = max_events_per_user
        self._lock = make_lock("WorkloadJournal._lock")
        #: (datamart, user_id) -> events in append order.
        # guarded-by: _lock
        self._events: dict[tuple[str, str], list[WorkloadEvent]] = {}
        # guarded-by: _lock
        self._seq = 0

    # -- recording ----------------------------------------------------------------

    def record(
        self,
        datamart: str,
        user_id: str,
        kind: str,
        payload: Mapping[str, object] | None = None,
    ) -> WorkloadEvent:
        """Append one event, returning it (with its sequence number)."""
        _check_kind(kind)
        with self._lock:
            self._seq += 1
            event = WorkloadEvent(
                seq=self._seq,
                kind=kind,
                datamart=datamart,
                user_id=user_id,
                payload=payload or {},
            )
            history = self._events.setdefault((datamart, user_id), [])
            history.append(event)
            if len(history) > self.max_events_per_user:
                del history[: len(history) - self.max_events_per_user]
        return event

    def record_query(self, datamart: str, user_id: str, q: str) -> WorkloadEvent:
        return self.record(datamart, user_id, QUERY, {"q": q.strip()})

    def record_selection(
        self,
        datamart: str,
        user_id: str,
        target: str,
        condition: str,
        members: Iterable[tuple[str, str, str]] = (),
    ) -> WorkloadEvent:
        """Journal a spatial-selection report plus the member snapshot.

        ``members`` is the session's current ``(dimension, level, key)``
        selection after the report's acquisition rules fired — the
        spatial footprint the similarity model is built from.
        """
        return self.record(
            datamart,
            user_id,
            SELECTION,
            {
                "target": target,
                "condition": condition,
                "members": sorted([d, lv, k] for d, lv, k in members),
            },
        )

    def record_layer(self, datamart: str, user_id: str, layer: str) -> WorkloadEvent:
        return self.record(datamart, user_id, LAYER, {"layer": layer})

    # -- reading ------------------------------------------------------------------

    def positions(self, datamart: str) -> dict[str, int]:
        """``user -> sequence number of the user's last event``, for every
        user of the tenant with at least one journaled event."""
        with self._lock:
            return {
                user: history[-1].seq
                for (dm, user), history in self._events.items()
                if dm == datamart
            }

    def users(self, datamart: str) -> list[str]:
        """Users with at least one journaled event, sorted."""
        return sorted(self.positions(datamart))

    def events(self, datamart: str, user_id: str) -> list[WorkloadEvent]:
        """One user's history in append order (a copy)."""
        with self._lock:
            return list(self._events.get((datamart, user_id), ()))

    def summary(self, datamart: str, user_id: str) -> UserSummary:
        """What the recommender reads of one user's history, in one pass."""
        queries: dict[str, None] = {}
        layers: set[str] = set()
        members: dict[tuple[str, str], set[str]] = {}
        for event in self.events(datamart, user_id):
            if event.kind == QUERY:
                queries.setdefault(event.payload["q"], None)
            elif event.kind == LAYER:
                layers.add(event.payload["layer"])
            elif event.kind == SELECTION:
                for dimension, level, key in event.payload["members"]:
                    members.setdefault((dimension, level), set()).add(key)
        return UserSummary(
            queries=tuple(queries),
            layers=frozenset(layers),
            members=MappingProxyType(
                {level: frozenset(keys) for level, keys in members.items()}
            ),
        )

    # -- introspection ------------------------------------------------------------

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-datamart event/user counts (for the health endpoint)."""
        with self._lock:
            out: dict[str, dict[str, int]] = {}
            for (datamart, _user), history in self._events.items():
                entry = out.setdefault(datamart, {"users": 0, "events": 0})
                entry["users"] += 1
                entry["events"] += len(history)
            return out

    def __len__(self) -> int:
        with self._lock:
            return sum(len(history) for history in self._events.values())
