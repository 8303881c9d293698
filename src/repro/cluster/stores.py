"""The shared tier (L2) of the four portal stores.

Each class here *is* an in-heap store — same rules, same bounds, same
hit path — plus the rows it keeps in a shared
:class:`~repro.cluster.backend.StateBackend`, so every worker process
of a pool sees them.  The in-heap store is the per-process live tier
(L1); this module adds only the L2 work: persisting and fetching rows,
rehydrating sessions, and sweeping and pruning rows.  Generation stamps
are the cross-process invalidation protocol: view keys carry the star
generation, query-cache payloads carry the per-dimension stamps the
façade revalidates on every hit, and journal generations are backend
counters.

* :class:`BackendSessionStore` — an
  :class:`~repro.service.sessions.InMemorySessionStore` whose records
  are also persisted, so tokens resolve in any worker.  A live session
  evicted from the L1 is ended (the in-heap rule), but its record
  survives, so the *token stays valid*: the next request rehydrates the
  session through the resolver (profile lookup + ``start_session`` +
  replay of the selection reports the service logged in ``meta``).
  Aggregate live-session capacity therefore scales with worker count;
  ``tests/cluster/test_pool_gate.py`` checks that a pool whose every
  request crosses a spill and a rehydration answers like one process.
* :class:`BackendQueryCache` — a :class:`~repro.lru.ThreadSafeLRU` whose
  miss path reads the L2; every put is published.
* :class:`BackendViewStore` — a
  :class:`~repro.personalization.view_store.ViewStore` whose ``_fetch``
  adopts a peer worker's build (decode beats a fact scan) and whose
  ``_publish`` shares every local build.  Pool mode assumes workers
  serve a star loaded identically in each process (read-only serving);
  the generation in the key keeps a worker that *did* mutate its star
  from ever reading a peer's entry for a different state.
* :class:`BackendWorkloadJournal` — a
  :class:`~repro.reco.journal.WorkloadJournal` whose storage methods
  keep events and the per-tenant generation counters in the backend.
  Sequence numbers and generations come from the backend's atomic
  counters, so recommender memo keys stay valid across processes and a
  re-login in any worker resumes the user's history.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Mapping, NoReturn

from repro.cluster.backend import StateBackend
from repro.cluster.codecs import (
    CodecError,
    decode_journal_event,
    decode_query_payload,
    decode_session_record,
    decode_view_entry,
    encode_journal_event,
    encode_query_payload,
    encode_session_record,
    encode_view_entry,
)
from repro.lru import ThreadSafeLRU
from repro.personalization.view_store import ViewStore
from repro.reco.journal import WorkloadEvent, WorkloadJournal, _check_kind
from repro.service.sessions import (
    InMemorySessionStore,
    SessionRecord,
    _end_quietly,
    _invalid_session,
    _session_expired,
)

__all__ = [
    "BackendSessionStore",
    "BackendQueryCache",
    "BackendViewStore",
    "BackendWorkloadJournal",
]

#: Separates key components (tenant/user ids must not contain it).
_SEP = "\x1f"


def _key_text(key: tuple) -> str:
    return json.dumps(list(key), separators=(",", ":"))


class BackendSessionStore(InMemorySessionStore):
    """The in-heap session store over persisted records.

    The inherited map is the L1: at most ``max_sessions`` live sessions,
    LRU, each ended when evicted.  Every record is also persisted, so a
    token keeps resolving after its live session is gone — ``get``
    rehydrates a fresh one through ``resolver(datamart, user_id, meta)``.
    With no resolver, a token without a live session stops resolving,
    as in the in-heap store.

    Writes after login only *update* the persisted record: once a
    logout on any worker deletes it, this worker's refresh, ``persist``
    or rehydration answers 401 ``invalid_session`` and ends its live
    copy instead of re-creating the record.  A live copy that looks
    expired by this worker's clock is checked against the record first:
    another worker may have served the session since, and then the copy
    is rebuilt from the record rather than expired.
    """

    def __init__(
        self,
        backend: StateBackend,
        *,
        namespace: str,
        ttl: float = 1800.0,
        max_sessions: int = 256,
        clock: Callable[[], float] = time.monotonic,
        token_factory: Callable[[], str] | None = None,
        resolver: Callable[[str, str, dict], object] | None = None,
    ) -> None:
        super().__init__(ttl, max_sessions, clock, token_factory)
        self.backend = backend
        self.namespace = namespace
        self.resolver = resolver
        self._store = f"{namespace}:sessions"
        #: token -> last_access value most recently written to the L2
        #: (refreshes are throttled; see get).
        # guarded-by: _lock
        self._synced: dict[str, float] = {}
        self.rehydrations = 0

    def get(self, token: str) -> SessionRecord:
        record = super().get(token)
        # Refresh the persisted idle clock, throttled: writing the L2 on
        # every request would make the hot path a backend write, while
        # refreshing once the persisted clock is 5% of the TTL stale
        # keeps the persisted expiry within 1.05x of the live one.
        with self._lock:
            synced = self._synced.get(token, 0.0)
            due = record.last_access - synced >= self.ttl * 0.05
            if not due or self._write_locked(record, create=False):
                return record
        self._lost(record)

    def remove(self, token: str) -> None:
        self._delete(token)
        super().remove(token)

    def persist(self, record: SessionRecord) -> None:
        """Re-encode a record after a ``meta`` mutation (the service
        calls this so selection-replay state survives a worker change).
        Call with ``record.lock`` held, like any same-token operation."""
        with self._lock:
            if self._write_locked(record, create=False):
                return
        self._lost(record)

    def __len__(self) -> int:
        """Persisted records, live here or not."""
        return self.backend.count(self._store)

    def stats(self) -> dict:
        with self._lock:
            live = len(self._records)
        return {
            "live": live,
            "max_live": self.max_sessions,
            "persisted": len(self),
            "rehydrations": self.rehydrations,
            "spills": self.evictions,
        }

    # -- seams of the in-heap store -------------------------------------------

    def _sweep(self, now: float) -> list[SessionRecord]:
        """Drop every expired persisted record, and every expired live
        copy whose record is gone (another worker logged it out or swept
        it), returning the live ones (callers end those; cold records
        have nothing to end).  ``_synced`` keeps only live tokens."""
        ended: list[SessionRecord] = []
        persisted: set[str] = set()
        for token, encoded in self.backend.items(self._store):
            try:
                fields = decode_session_record(encoded)
            except CodecError:
                self.backend.delete(self._store, token)
                continue
            persisted.add(token)
            with self._lock:
                # The session's last access is the later of this
                # worker's live clock and the persisted one (another
                # worker may have served it since).
                live = self._records.get(token)
                last_access = fields["last_access"]
                if live is not None:
                    last_access = max(last_access, live.last_access)
                if now - last_access <= self.ttl:
                    continue
                self.backend.delete(self._store, token)
                self._synced.pop(token, None)
                if live is not None:
                    del self._records[token]
                    ended.append(live)
        with self._lock:
            for token, live in list(self._records.items()):
                expired = now - live.last_access > self.ttl
                if expired and token not in persisted:
                    del self._records[token]
                    ended.append(live)
            for token in self._synced.keys() - self._records.keys():
                del self._synced[token]
        return ended

    def _claim_locked(self, record: SessionRecord) -> bool:  # guarded-by-caller: _lock
        if self.backend.get(self._store, record.token) is not None:
            return False
        return self._write_locked(record)

    def _miss(
        self, token: str, stale: SessionRecord | None, now: float
    ) -> SessionRecord:
        fields = self._load(token)
        if stale is not None:
            # Expired by this worker's clock: ended either way, and
            # rebuilt below if another worker kept the session alive.
            self._evict(token, stale)
        if fields is not None and now - fields["last_access"] <= self.ttl:
            return self._rehydrate(token, fields, now)
        if fields is None and stale is None:
            raise _invalid_session()
        if fields is not None:
            self._delete(token)
        raise _session_expired(self.ttl)

    # -- the L2 -----------------------------------------------------------------

    def _write_locked(  # guarded-by-caller: _lock
        self, record: SessionRecord, *, create: bool = True
    ) -> bool:
        written = self.backend.put(
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
            create=create,
        )
        if written:
            self._synced[record.token] = record.last_access
        return written

    def _delete(self, token: str) -> None:
        with self._lock:
            self._synced.pop(token, None)
            self.backend.delete(self._store, token)

    def _load(self, token: str) -> dict | None:
        """The persisted record's fields, or ``None`` if it is absent or
        corrupt (a poisoned record is unusable, so it is dropped)."""
        encoded = self.backend.get(self._store, token)
        if encoded is None:
            return None
        try:
            return decode_session_record(encoded)
        except CodecError:
            self.backend.delete(self._store, token)
            return None

    def _lost(self, record: SessionRecord) -> NoReturn:
        """The persisted record is gone (a logout or an expiry sweep on
        some worker): end the live copy and answer 401."""
        with self._lock:
            self._synced.pop(record.token, None)
        self._evict(record.token, record)
        raise _invalid_session()

    def _rehydrate(self, token: str, fields: dict, now: float) -> SessionRecord:
        """Rebuild a live session from its persisted record."""
        if self.resolver is None:
            raise _invalid_session()
        session = self.resolver(
            fields["datamart"], fields["user_id"], fields["meta"]
        )
        ended: list[SessionRecord] = []
        with self._lock:
            record = self._records.get(token)
            if record is not None:
                # A concurrent request rehydrated this token first; use
                # its record (two live sessions for one token would race).
                record.last_access = now
                self._admit_locked(record, ended)
                written = True
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
                written = self._write_locked(record, create=False)
                if written:
                    self.rehydrations += 1
                    self._admit_locked(record, ended)
        for stale in ended:
            _end_quietly(stale)
        if not written:
            # Logged out while the resolver ran: the new session was
            # never live here.
            _end_quietly(record)
            raise _invalid_session()
        return record


class BackendQueryCache(ThreadSafeLRU):
    """The façade's query-result LRU over shared encoded entries.

    Keys are the façade's tuples ``(datamart, query text, selection
    fingerprint, as_of)``; freshness is the *stored payload's*
    per-dimension generation stamps, which the façade revalidates on
    every hit — in-process and across workers alike (a stale entry is
    simply rebuilt and overwritten under the same key).  An L2 hit
    counts as a hit and is promoted into the L1.  The L2 is pruned by
    write age to ``l2_max_rows``.
    """

    def __init__(
        self,
        backend: StateBackend,
        *,
        namespace: str,
        max_size: int = 256,
        l2_max_rows: int | None = None,
    ) -> None:
        super().__init__(max_size)
        self.backend = backend
        self.namespace = namespace
        self._store = f"{namespace}:qcache"
        self.l2_max_rows = l2_max_rows or max(4 * max_size, 1024)
        self.l2_hits = 0
        self.l2_publishes = 0

    def _miss(self, key):
        encoded = self.backend.get(self._store, _key_text(key))
        if encoded is not None:
            try:
                payload = decode_query_payload(encoded)
            except CodecError:
                self.backend.delete(self._store, _key_text(key))
            else:
                super().put(key, payload)
                with self._lock:
                    self.hits += 1
                    self.l2_hits += 1
                return payload
        return super()._miss(key)

    def put(self, key, value) -> None:
        super().put(key, value)
        self.backend.put(self._store, _key_text(key), encode_query_payload(value))
        with self._lock:
            self.l2_publishes += 1
            due = self.l2_publishes % 32 == 0
        if due:  # prune occasionally, not per write
            self.backend.prune(self._store, self.l2_max_rows)

    def clear(self) -> None:
        super().clear()
        self.backend.clear(self._store)


class BackendViewStore(ViewStore):
    """The shared materialized-view store with a cross-worker L2.

    The ``(fact, fingerprint, generation)`` key carries the whole
    invalidation protocol, so maintenance (patches/invalidations) stays
    purely local — stale generations are unreachable by construction.
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

    def _fetch(self, key, star, schema):  # guarded-by-caller: _lock
        """Adopt a peer worker's build for this exact key, if published."""
        _fact, fingerprint, _generation = key
        encoded = self.backend.get(self._store, _key_text(key))
        if encoded is None:
            return None
        try:
            view = decode_view_entry(encoded, star, schema, fingerprint)
        except CodecError:
            self.backend.delete(self._store, _key_text(key))
            return None
        self.l2_hits += 1
        return view

    def _publish(self, key, view) -> None:  # guarded-by-caller: _lock
        self.backend.put(self._store, _key_text(key), encode_view_entry(view))
        self.l2_publishes += 1
        if self.l2_publishes % 16 == 0:
            self.backend.prune(self._store, self.l2_max_rows)

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


class BackendWorkloadJournal(WorkloadJournal):
    """The workload journal with its events in the backend.

    Events live keyed ``datamart␟user␟<seq>`` (the separator is
    ``\\x1f``; zero-padded sequence numbers make key order append order);
    sequence numbers and per-tenant generations come from the backend's
    atomic counters — so any worker's append bumps the tenant generation
    every other worker's recommender memo keys on, and a user's history
    reads back identically in every process.  Only the storage methods
    are overridden (the inherited heap maps stay empty); the derived API
    is the in-heap journal's.
    """

    def __init__(
        self,
        backend: StateBackend,
        *,
        namespace: str,
        max_events_per_user: int = 10_000,
    ) -> None:
        super().__init__(max_events_per_user)
        self.backend = backend
        self.namespace = namespace
        self._store = f"{namespace}:journal"
        self._seq_counter = f"{namespace}:journal:seq"
        self._gen_prefix = f"{namespace}:journal:gen:"

    @staticmethod
    def _user_prefix(datamart: str, user_id: str) -> str:
        return f"{datamart}{_SEP}{user_id}{_SEP}"

    def record(
        self,
        datamart: str,
        user_id: str,
        kind: str,
        payload: Mapping[str, object] | None = None,
    ) -> WorkloadEvent:
        _check_kind(kind)
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

    def events(self, datamart: str, user_id: str) -> list[WorkloadEvent]:
        out = []
        for _key, encoded in self.backend.items(
            self._store, self._user_prefix(datamart, user_id)
        ):
            try:
                out.append(decode_journal_event(encoded))
            except CodecError:
                continue  # lint-ok: swallowed-error - a poisoned event degrades the history, never the request
        return out

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
