"""Backend-backed implementations of the four shared stores.

Each store here is a *two-tier* version of an existing in-heap store:
a small per-process L1 (live objects, same bounds and semantics as
today) over the shared :class:`~repro.cluster.backend.StateBackend` L2
(encoded entries every worker process sees).  Generation stamps — star
generation in view/query keys, per-tenant journal generations — are the
cross-process invalidation protocol: a worker observing a newer
generation simply never looks up the stale key, exactly the in-heap
rule applied across processes.

* :class:`BackendSessionStore` — tokens resolve in any worker.  A live
  session evicted from the L1 is ended (the in-heap eviction semantic)
  but its record survives in the backend, so the *token stays valid*:
  the next request rehydrates the session through the resolver (profile
  lookup + ``start_session`` + replay of the selection reports the
  service logged in ``meta``).  Aggregate live-session capacity
  therefore scales with worker count — the effect the EXT7 benchmark
  measures.
* :class:`BackendQueryCache` — drop-in for the façade's
  :class:`~repro.lru.ThreadSafeLRU`; entries are shared across workers
  through the backend, keyed by the façade's generation-stamped tuple.
* :class:`BackendViewStore` — extends the engine's
  :class:`~repro.personalization.view_store.ViewStore`: on an L1 miss it
  consults the backend before scanning the fact table, and publishes
  every build, so one worker's materialization saves every other
  worker's.  Pool mode assumes workers serve a star loaded identically
  in each process (read-only serving); the generation in the key keeps
  a worker that *did* mutate its star from ever reading a peer's entry
  for a different state.
* :class:`BackendWorkloadJournal` — the same API as
  :class:`~repro.reco.journal.WorkloadJournal`, with events and the
  per-tenant generation counters in the backend.  Sequence numbers and
  generations come from the backend's atomic counters, so recommender
  memo keys stay valid across processes and a re-login in any worker
  resumes the user's history.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Iterable, Iterator, Mapping

from repro.concurrency import make_lock
from repro.errors import UnauthorizedError
from repro.lru import ThreadSafeLRU
from repro.cluster.backend import StateBackend
from repro.cluster.codecs import (
    CodecError,
    decode_journal_event,
    decode_mutation_event,
    decode_query_payload,
    decode_session_record,
    decode_view_entry,
    encode_journal_event,
    encode_mutation_event,
    encode_query_payload,
    encode_session_record,
    encode_view_entry,
)
from repro.personalization.view_store import ViewStore
from repro.storage.star import MutationLog, StarMutation
from repro.service.sessions import (
    SessionRecord,
    SessionStore,
    _default_token_factory,
    _end_quietly,
)

__all__ = [
    "BackendSessionStore",
    "BackendQueryCache",
    "BackendViewStore",
    "BackendWorkloadJournal",
    "BackendMutationLog",
]

#: Separates key components (tenant/user ids must not contain it).
_SEP = "\x1f"


class BackendSessionStore(SessionStore):
    """Two-tier session store: live L1 records over persisted L2 records.

    The L1 keeps at most ``max_live`` live sessions (LRU, the in-heap
    store's bound); an evicted live session is ended exactly as the
    in-heap store would end it, but its encoded record stays in the
    backend, so the token keeps resolving — the next ``get`` rehydrates
    a fresh live session through ``resolver(datamart, user_id, meta)``
    (the service wires this to a login-equivalent engine call).  With no
    resolver, cold records behave like the in-heap store: the token of
    an evicted session stops resolving.
    """

    def __init__(
        self,
        backend: StateBackend,
        *,
        namespace: str,
        ttl: float = 1800.0,
        max_live: int = 256,
        clock: Callable[[], float] = time.monotonic,
        token_factory: Callable[[], str] | None = None,
        resolver: Callable[[str, str, dict], object] | None = None,
    ) -> None:
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        if max_live < 1:
            raise ValueError("max_live must be >= 1")
        self.backend = backend
        self.namespace = namespace
        self.ttl = ttl
        self.max_live = max_live
        self.resolver = resolver
        self._store = f"{namespace}:sessions"
        self._clock = clock
        self._token_factory = token_factory or _default_token_factory
        self._lock = make_lock("BackendSessionStore._lock")
        #: token -> live record, oldest-access-first (the L1).
        # guarded-by: _lock
        self._live: OrderedDict[str, SessionRecord] = OrderedDict()
        #: token -> last_access value most recently written to the L2
        #: (refreshes are throttled; see _maybe_persist_access).
        # guarded-by: _lock
        self._synced: dict[str, float] = {}
        self.rehydrations = 0
        self.spills = 0

    # -- SessionStore API ---------------------------------------------------------

    def put(
        self,
        session: object,
        *,
        datamart: str,
        user_id: str,
        meta: dict | None = None,
    ) -> SessionRecord:
        now = self._clock()
        ended = self.purge_expired_records(now)
        with self._lock:
            token = self._token_factory()
            while self.backend.get(self._store, token) is not None:
                token = self._token_factory()  # collision paranoia
            record = SessionRecord(
                token=token,
                session=session,
                datamart=datamart,
                user_id=user_id,
                created_at=now,
                last_access=now,
                meta=dict(meta or {}),
            )
            self._persist_locked(record)
            self._admit_locked(record, ended)
        for stale in ended:
            _end_quietly(stale)
        return record

    def get(self, token: str) -> SessionRecord:
        now = self._clock()
        expired: SessionRecord | None = None
        with self._lock:
            record = self._live.get(token)
            if record is not None:
                if now - record.last_access > self.ttl:
                    del self._live[token]
                    self._synced.pop(token, None)
                    self.backend.delete(self._store, token)
                    expired = record
                else:
                    record.last_access = now
                    self._live.move_to_end(token)
                    self._maybe_persist_access_locked(record, now)
                    return record
        if expired is not None:
            _end_quietly(expired)
            raise UnauthorizedError(
                "session expired; POST /api/v1/login again",
                code="session_expired",
                detail={"ttl": self.ttl},
            )
        return self._rehydrate(token, now)

    def remove(self, token: str) -> None:
        with self._lock:
            self._live.pop(token, None)
            self._synced.pop(token, None)
            self.backend.delete(self._store, token)

    def purge_expired(self) -> int:
        ended = self.purge_expired_records(self._clock())
        for record in ended:
            _end_quietly(record)
        return len(ended)

    def __len__(self) -> int:
        return self.backend.count(self._store)

    def __iter__(self) -> Iterator[SessionRecord]:
        """Iterate the *live* records of this process (cold records have
        no session object to hand out)."""
        with self._lock:
            return iter(list(self._live.values()))

    # -- backend-specific API -------------------------------------------------------

    def persist(self, record: SessionRecord) -> None:
        """Re-encode a record after a ``meta`` mutation (the service
        calls this so selection-replay state survives a worker change).
        Call with ``record.lock`` held, like any same-token operation."""
        with self._lock:
            self._persist_locked(record)

    def stats(self) -> dict:
        with self._lock:
            live = len(self._live)
        return {
            "live": live,
            "max_live": self.max_live,
            "persisted": len(self),
            "rehydrations": self.rehydrations,
            "spills": self.spills,
        }

    # -- internals ---------------------------------------------------------------

    def _persist_locked(self, record: SessionRecord) -> None:  # guarded-by-caller: _lock
        self.backend.put(
            self._store,
            record.token,
            encode_session_record(
                token=record.token,
                datamart=record.datamart,
                user_id=record.user_id,
                created_at=record.created_at,
                last_access=record.last_access,
                meta=record.meta,
            ),
        )
        self._synced[record.token] = record.last_access

    def _maybe_persist_access_locked(  # guarded-by-caller: _lock
        self, record: SessionRecord, now: float
    ) -> None:
        """Refresh the persisted idle clock, throttled.

        Writing the L2 on *every* request would make the hot path a
        backend write; refreshing once the persisted clock is 5% of the
        TTL stale keeps the persisted expiry within 1.05x of the live
        one while the steady state stays read-only.
        """
        synced = self._synced.get(record.token, 0.0)
        if now - synced >= self.ttl * 0.05:
            self._persist_locked(record)

    def _admit_locked(  # guarded-by-caller: _lock
        self, record: SessionRecord, ended: list[SessionRecord]
    ) -> None:
        """Insert into the L1, spilling the oldest live sessions.

        A spilled session is *ended* (the in-heap eviction semantic —
        SessionEnd rules fire, the profile session closes) but its
        record stays persisted, so its token rehydrates on next use.
        """
        self._live[record.token] = record
        while len(self._live) > self.max_live:
            _token, spilled = self._live.popitem(last=False)
            self.spills += 1
            ended.append(spilled)

    def _rehydrate(self, token: str, now: float) -> SessionRecord:
        """Resolve a token with no live session in this process."""
        encoded = self.backend.get(self._store, token)
        if encoded is None:
            raise UnauthorizedError(
                "unknown or logged-out session token",
                code="invalid_session",
            )
        try:
            fields = decode_session_record(encoded)
        except CodecError:
            # A poisoned record is unusable; drop it and treat the token
            # as invalid rather than serving an undecodable session.
            self.backend.delete(self._store, token)
            raise UnauthorizedError(
                "unknown or logged-out session token",
                code="invalid_session",
            ) from None
        if now - fields["last_access"] > self.ttl:
            self.backend.delete(self._store, token)
            raise UnauthorizedError(
                "session expired; POST /api/v1/login again",
                code="session_expired",
                detail={"ttl": self.ttl},
            )
        if self.resolver is None:
            raise UnauthorizedError(
                "unknown or logged-out session token",
                code="invalid_session",
            )
        session = self.resolver(
            fields["datamart"], fields["user_id"], fields["meta"]
        )
        ended: list[SessionRecord] = []
        with self._lock:
            existing = self._live.get(token)
            if existing is not None:
                # A concurrent request rehydrated this token first; use
                # its record (two live sessions for one token would race).
                existing.last_access = now
                self._live.move_to_end(token)
                record = existing
            else:
                record = SessionRecord(
                    token=token,
                    session=session,
                    datamart=fields["datamart"],
                    user_id=fields["user_id"],
                    created_at=fields["created_at"],
                    last_access=now,
                    meta=fields["meta"],
                )
                self.rehydrations += 1
                self._persist_locked(record)
                self._admit_locked(record, ended)
        for stale in ended:
            _end_quietly(stale)
        return record

    def purge_expired_records(self, now: float) -> list[SessionRecord]:
        """Drop every expired persisted record, returning the live ones
        (callers end those; cold records have nothing to end)."""
        ended: list[SessionRecord] = []
        for token, encoded in self.backend.items(self._store):
            try:
                fields = decode_session_record(encoded)
            except CodecError:
                self.backend.delete(self._store, token)
                continue
            # The persisted clock lags the live one by at most 5% of the
            # TTL (see _maybe_persist_access_locked); use the live value
            # when this process holds the session.
            with self._lock:
                live = self._live.get(token)
                last_access = (
                    live.last_access if live is not None else fields["last_access"]
                )
                if now - last_access <= self.ttl:
                    continue
                self.backend.delete(self._store, token)
                self._synced.pop(token, None)
                if live is not None:
                    del self._live[token]
                    ended.append(live)
        return ended


class BackendQueryCache:
    """Shared query-result cache: ThreadSafeLRU-compatible facade over
    an L1 LRU of live payloads and the backend's encoded entries.

    Keys are the façade's tuples ``(datamart, query text, selection
    fingerprint, as_of)``; freshness is the *stored payload's*
    per-dimension generation stamps, which the façade revalidates on
    every hit — in-process and across workers alike (a stale entry is
    simply rebuilt and overwritten under the same key).  The L2 is
    pruned by write age.
    """

    def __init__(
        self,
        backend: StateBackend,
        *,
        namespace: str,
        max_size: int = 256,
        l2_max_rows: int | None = None,
    ) -> None:
        self.backend = backend
        self.namespace = namespace
        self._store = f"{namespace}:qcache"
        self._l1 = ThreadSafeLRU(max_size)
        self.l2_max_rows = l2_max_rows or max(4 * max_size, 1024)
        self._lock = make_lock("BackendQueryCache._lock")
        # guarded-by: _lock
        self._hits = 0
        # guarded-by: _lock
        self._misses = 0
        # guarded-by: _lock
        self._puts = 0
        self.l2_hits = 0

    @staticmethod
    def _key_text(generation_key) -> str:
        import json

        return json.dumps(list(generation_key), separators=(",", ":"))

    def get(self, generation_key):
        payload = self._l1.get(generation_key)
        if payload is not None:
            with self._lock:
                self._hits += 1
            return payload
        encoded = self.backend.get(self._store, self._key_text(generation_key))
        if encoded is not None:
            try:
                payload = decode_query_payload(encoded)
            except CodecError:
                self.backend.delete(self._store, self._key_text(generation_key))
            else:
                self._l1.put(generation_key, payload)
                with self._lock:
                    self._hits += 1
                    self.l2_hits += 1
                return payload
        with self._lock:
            self._misses += 1
        return None

    def put(self, generation_key, value) -> None:
        self._l1.put(generation_key, value)
        self.backend.put(
            self._store, self._key_text(generation_key), encode_query_payload(value)
        )
        with self._lock:
            self._puts += 1
            due = self._puts % 32 == 0
        if due:  # prune occasionally, not per write
            self.backend.prune(self._store, self.l2_max_rows)

    def clear(self) -> None:
        self._l1.clear()
        self.backend.clear(self._store)

    def __len__(self) -> int:
        """Live entries, bounded by ``max_size`` (ThreadSafeLRU parity);
        the L2 row count is ``backend.count`` and is bounded separately
        by ``l2_max_rows``."""
        return len(self._l1)

    @property
    def hits(self) -> int:
        with self._lock:
            return self._hits

    @property
    def misses(self) -> int:
        with self._lock:
            return self._misses

    @property
    def _entries(self):
        """The L1's live entries — introspection parity with
        :class:`~repro.lru.ThreadSafeLRU` (tests peek at cached payloads
        through this)."""
        return self._l1._entries


class BackendViewStore(ViewStore):
    """Shared materialized-view store with a cross-worker L2.

    Same single-flight, LRU-bounded, incrementally-maintained store as
    the in-heap parent; on an L1 miss it first tries to *adopt* a peer
    worker's build from the backend (decode beats a fact scan), and
    every local build is published.  The ``(fact, fingerprint,
    generation)`` key carries the whole invalidation protocol, so
    maintenance (patches/invalidations) stays purely local — stale
    generations are unreachable by construction.
    """

    def __init__(
        self,
        backend: StateBackend,
        *,
        namespace: str,
        max_size: int = 128,
        l2_max_rows: int | None = None,
    ) -> None:
        super().__init__(max_size)
        self.backend = backend
        self.namespace = namespace
        self._store = f"{namespace}:views"
        self.l2_max_rows = l2_max_rows or max(4 * max_size, 512)
        self.l2_hits = 0
        self.l2_publishes = 0

    @staticmethod
    def _key_text(generation_key) -> str:
        import json

        return json.dumps(list(generation_key), separators=(",", ":"))

    def _fetch(self, generation_key, star, schema):  # guarded-by-caller: _lock
        """Adopt a peer worker's build for this exact key, if published."""
        fact, fingerprint, generation = generation_key
        encoded = self.backend.get(self._store, self._key_text(generation_key))
        if encoded is None:
            return None
        try:
            view = decode_view_entry(encoded, star, schema, fingerprint)
        except CodecError:
            self.backend.delete(self._store, self._key_text(generation_key))
            return None
        self.l2_hits += 1
        return view

    def _publish(self, generation_key, view) -> None:  # guarded-by-caller: _lock
        self.backend.put(
            self._store, self._key_text(generation_key), encode_view_entry(view)
        )
        self.l2_publishes += 1
        if self.l2_publishes % 16 == 0:
            self.backend.prune(self._store, self.l2_max_rows)

    def get_or_build(self, star, schema, fact, selection):
        from repro.personalization.view_store import _Entry

        with self._lock:
            generation_key = (fact, selection.fingerprint(), star.generation)
            entry = self._entries.get(generation_key)
            if entry is not None:
                self._entries.move_to_end(generation_key)
                self.hits += 1
                return entry.view
            self.misses += 1
            # Same snapshot-then-rekey discipline as the parent: the key
            # must describe the frozen content actually stored.
            frozen = selection.snapshot()
            generation_key = (fact, frozen.fingerprint(), star.generation)
            view = self._fetch(generation_key, star, schema)
            if view is None:
                view = self._build(star, schema, fact, frozen)
                self.builds += 1
                self._publish(generation_key, view)
            self._entries[generation_key] = _Entry(view)
            self._trim()
            return view

    def invalidate(self) -> None:
        """Drop L1 *and* this namespace's published entries.

        The parent calls this for member/feature/schema mutations; the
        generation bump alone already unreaches the stale keys, but
        clearing keeps the benchmark's oracle phases honest (nothing
        warm survives into the next phase) and reclaims the rows early.
        """
        super().invalidate()
        self.backend.clear(self._store)

    def stats(self) -> dict:
        out = super().stats()
        out["l2_hits"] = self.l2_hits
        out["l2_publishes"] = self.l2_publishes
        out["persisted"] = self.backend.count(self._store)
        return out


class BackendMutationLog(MutationLog):
    """Shared mutation log: the in-heap bounded log plus a backend L2.

    Every appended delta is also published as a versioned mutation
    event keyed by its generation, so a peer worker (or this worker
    after a restart) can fetch exactly the ``(start, end]`` window it
    missed and *replay typed deltas* — member adds, feature adds,
    schema patches, fact appends — instead of reloading full state.
    ``fetch`` is strict, mirroring every other codec consumer: a gap,
    a corrupt row or a version-skewed row is a miss (``None``) and the
    caller falls back to a full rebuild.
    """

    def __init__(
        self,
        backend: StateBackend,
        *,
        namespace: str,
        max_entries: int = 4096,
        l2_max_rows: int | None = None,
    ) -> None:
        super().__init__(max_entries=max_entries)
        self.backend = backend
        self.namespace = namespace
        self._store = f"{namespace}:mutations"
        self.l2_max_rows = l2_max_rows or 4 * max_entries
        self.l2_publishes = 0
        self.l2_misses = 0

    @classmethod
    def adopt(cls, star, backend: StateBackend, *, namespace: str):
        """Swap ``star``'s in-heap log for a backend-backed one, carrying
        the already-retained entries (published so peers see them too)."""
        log = cls(
            backend,
            namespace=namespace,
            max_entries=star.mutation_log.max_entries,
        )
        for mutation in star.mutation_log.entries():
            log.append(mutation)
        star.mutation_log = log
        return log

    def _key_text(self, generation: int) -> str:
        # Zero-padded so backend key order is generation order.
        return f"{generation:012d}"

    def append(self, mutation: StarMutation) -> None:
        super().append(mutation)
        self.backend.put(
            self._store,
            self._key_text(mutation.generation),
            encode_mutation_event(mutation),
        )
        self.l2_publishes += 1
        if self.l2_publishes % 32 == 0:
            self.backend.prune(self._store, self.l2_max_rows)

    def fetch(self, start: int, end: int) -> list[StarMutation] | None:
        """The published window ``start < generation <= end``, decoded.

        Returns ``None`` when any row of the window is absent, corrupt
        or version-skewed — the delta chain is broken and replay would
        silently skip a change, so the caller must rebuild instead.
        Poisoned rows are deleted on the way out.
        """
        out: list[StarMutation] = []
        for generation in range(start + 1, end + 1):
            encoded = self.backend.get(self._store, self._key_text(generation))
            if encoded is None:
                self.l2_misses += 1
                return None
            try:
                out.append(decode_mutation_event(encoded))
            except CodecError:
                self.backend.delete(self._store, self._key_text(generation))
                self.l2_misses += 1
                return None
        return out

    def stats(self) -> dict[str, object]:
        out = super().stats()
        out["l2_publishes"] = self.l2_publishes
        out["l2_misses"] = self.l2_misses
        out["persisted"] = self.backend.count(self._store)
        return out


class BackendWorkloadJournal:
    """Cross-process workload journal with the in-heap journal's API.

    Events live in the backend keyed ``datamart␟user␟<seq>`` (the
    separator is ``\\x1f``; zero-padded sequence numbers make key order
    append order), sequence numbers and per-tenant generations come from
    the backend's atomic counters — so any worker's append bumps the
    tenant generation every other worker's recommender memo keys on,
    and a user's history reads back identically in every process.
    """

    QUERY = "query"
    SELECTION = "selection"
    LAYER = "layer"

    def __init__(
        self,
        backend: StateBackend,
        *,
        namespace: str,
        max_events_per_user: int = 10_000,
    ) -> None:
        if max_events_per_user < 1:
            raise ValueError("max_events_per_user must be >= 1")
        self.backend = backend
        self.namespace = namespace
        self.max_events_per_user = max_events_per_user
        self._store = f"{namespace}:journal"
        self._seq_counter = f"{namespace}:journal:seq"
        self._gen_prefix = f"{namespace}:journal:gen:"

    @staticmethod
    def _user_prefix(datamart: str, user_id: str) -> str:
        return f"{datamart}{_SEP}{user_id}{_SEP}"

    # -- recording ----------------------------------------------------------------

    def record(
        self,
        datamart: str,
        user_id: str,
        kind: str,
        payload: Mapping[str, object] | None = None,
    ):
        from repro.reco.journal import WorkloadEvent

        if kind not in (self.QUERY, self.SELECTION, self.LAYER):
            raise ValueError(f"unknown workload event kind {kind!r}")
        seq = self.backend.incr(self._seq_counter)
        event = WorkloadEvent(
            seq=seq,
            kind=kind,
            datamart=datamart,
            user_id=user_id,
            payload=payload or {},
        )
        prefix = self._user_prefix(datamart, user_id)
        self.backend.put(
            self._store, f"{prefix}{seq:016d}", encode_journal_event(event)
        )
        self.backend.incr(f"{self._gen_prefix}{datamart}")
        # Enforce the per-user bound (oldest dropped first).  Concurrent
        # appenders may briefly overshoot; the bound is a memory cap, not
        # an exactness contract, and every appender re-trims.
        excess = self.backend.count(self._store, prefix) - self.max_events_per_user
        if excess > 0:
            for key in self.backend.keys(self._store, prefix)[:excess]:
                self.backend.delete(self._store, key)
        return event

    def record_query(self, datamart: str, user_id: str, q: str):
        return self.record(datamart, user_id, self.QUERY, {"q": q.strip()})

    def record_selection(
        self,
        datamart: str,
        user_id: str,
        target: str,
        condition: str,
        members: Iterable[tuple[str, str, str]] = (),
    ):
        return self.record(
            datamart,
            user_id,
            self.SELECTION,
            {
                "target": target,
                "condition": condition,
                "members": sorted([d, lv, k] for d, lv, k in members),
            },
        )

    def record_layer(self, datamart: str, user_id: str, layer: str):
        return self.record(datamart, user_id, self.LAYER, {"layer": layer})

    # -- reading ------------------------------------------------------------------

    def generation(self, datamart: str) -> int:
        return self.backend.counter(f"{self._gen_prefix}{datamart}")

    def users(self, datamart: str) -> list[str]:
        prefix = f"{datamart}{_SEP}"
        return sorted(
            {
                key[len(prefix):].split(_SEP, 1)[0]
                for key in self.backend.keys(self._store, prefix)
            }
        )

    def events(self, datamart: str, user_id: str) -> list:
        out = []
        for _key, encoded in self.backend.items(
            self._store, self._user_prefix(datamart, user_id)
        ):
            try:
                out.append(decode_journal_event(encoded))
            except CodecError:
                continue  # lint-ok: swallowed-error - a poisoned event degrades the history, never the request
        return out

    def queries(self, datamart: str, user_id: str) -> list[str]:
        seen: dict[str, None] = {}
        for event in self.events(datamart, user_id):
            if event.kind == self.QUERY:
                seen.setdefault(event.payload["q"], None)
        return list(seen)

    def layers(self, datamart: str, user_id: str) -> set[str]:
        return {
            event.payload["layer"]
            for event in self.events(datamart, user_id)
            if event.kind == self.LAYER
        }

    def member_profile(
        self, datamart: str, user_id: str
    ) -> dict[tuple[str, str], set[str]]:
        profile: dict[tuple[str, str], set[str]] = {}
        for event in self.events(datamart, user_id):
            if event.kind != self.SELECTION:
                continue
            for dimension, level, key in event.payload["members"]:
                profile.setdefault((dimension, level), set()).add(key)
        return profile

    # -- introspection ------------------------------------------------------------

    def stats(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        seen_users: set[tuple[str, str]] = set()
        for key in self.backend.keys(self._store):
            datamart, user_id, _seq = key.split(_SEP, 2)
            entry = out.setdefault(
                datamart, {"users": 0, "events": 0, "generation": 0}
            )
            entry["events"] += 1
            if (datamart, user_id) not in seen_users:
                seen_users.add((datamart, user_id))
                entry["users"] += 1
        for name, generation in self.backend.counters(self._gen_prefix).items():
            datamart = name[len(self._gen_prefix):]
            out.setdefault(
                datamart, {"users": 0, "events": 0, "generation": 0}
            )["generation"] = generation
        return out

    def __len__(self) -> int:
        return self.backend.count(self._store)
