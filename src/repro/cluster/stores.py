"""The shared tier (L2) of the two portal stores that hold state.

A worker change must carry a user's session and history, so these two
stores keep rows in a shared
:class:`~repro.cluster.backend.StateBackend`, which every worker process
of a pool sees.  Each class here *is* an in-heap store — same rules,
same bounds, same hit path — plus that L2 work: persisting and reading
rows, rehydrating sessions and sweeping records.  Derived results (query
answers and materialized views) are a function of the star, the
selection and the query, so every worker computes them in its own heap
and no worker reads another's.

* :class:`BackendSessionStore` — an
  :class:`~repro.service.sessions.InMemorySessionStore` whose records
  are also persisted, so tokens resolve in any worker.  A live session
  evicted from the L1 (spilled) is dropped, not ended: its record
  survives, so the *token stays valid*, and the next request restores
  the session through the resolver from the selection and schema set
  the service keeps in ``meta`` — no rule fires.  A spilled session
  that no request restores is never ended: its record's expiry ends
  nothing (see :class:`BackendSessionStore`).  Aggregate
  live-session capacity therefore scales with worker count;
  ``tests/cluster/test_pool_gate.py`` checks that a pool whose every
  request crosses a spill and a rehydration answers like one process.
* :class:`BackendWorkloadJournal` — a
  :class:`~repro.reco.journal.WorkloadJournal` whose storage methods
  keep events in the backend.  Sequence numbers come from the backend's
  atomic counter, so a user's position (the last sequence number) means
  the same history in every process — the recommender's cache keys
  stay valid across workers — and a re-login in any worker resumes the
  user's history.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping, NoReturn

from repro.cluster.backend import StateBackend
from repro.cluster.codecs import (
    CodecError,
    decode_journal_event,
    decode_session_record,
    encode_journal_event,
    encode_session_record,
)
from repro.reco.journal import WorkloadEvent, WorkloadJournal, _check_kind
from repro.service.sessions import (
    InMemorySessionStore,
    SessionRecord,
    _end_quietly,
    _invalid_session,
    _session_expired,
)

__all__ = ["BackendSessionStore", "BackendWorkloadJournal"]

#: Separates key components (tenant/user ids must not contain it).
_SEP = "\x1f"


class BackendSessionStore(InMemorySessionStore):
    """The in-heap session store over persisted records.

    The inherited map is the L1: at most ``max_sessions`` live sessions,
    LRU.  Every record is also persisted, so a token keeps resolving
    after its live session is gone — ``get`` rehydrates a fresh one
    through ``resolver(datamart, user_id, meta)``.  An eviction
    therefore drops the live session without ending it: only a logout,
    the TTL expiry of a live copy or a record lost to a logout elsewhere
    ends one.  A spilled session that no request restores is never
    ended — unlike the in-heap store, which ends what expires: its
    record's expiry deletes a row and ends nothing, so its SessionEnd
    rules never fire and the user's profile in this worker keeps that
    session's link (and login location) until the user's next login or
    logout here.  With no resolver, a token without a live session
    stops resolving, as in the in-heap store.  A resolver that raises
    :class:`~repro.cluster.codecs.CodecError` marks the record corrupt:
    it is deleted and answers 401 ``invalid_session``.

    Writes after login only *update* the persisted record: once a
    logout on any worker deletes it, this worker's refresh, ``persist``
    or rehydration answers 401 ``invalid_session`` and ends its live
    copy instead of re-creating the record.  A live copy that looks
    expired by this worker's clock is checked against the record first:
    another worker may have served the session since, and then the copy
    is dropped and rebuilt from the record rather than expired.

    A login sweeps the persisted records at most once per 5% of the TTL
    (the cadence of the access refresh), since the sweep reads every
    record; ``purge_expired`` always sweeps.  An expired record the
    throttle leaves behind still answers ``session_expired`` when read,
    and is deleted then.
    """

    #: The share of the TTL between two writes of a live session's idle
    #: clock to its record, and between two login sweeps.
    _SYNC_SHARE = 0.05

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
        #: The clock at the last sweep (see _sweep).
        # guarded-by: _lock
        self._swept_at = float("-inf")
        self.rehydrations = 0

    def get(self, token: str) -> SessionRecord:
        record = super().get(token)
        # Refresh the persisted idle clock, throttled: writing the L2 on
        # every request would make the hot path a backend write, while
        # refreshing once the persisted clock is 5% of the TTL stale
        # keeps the persisted expiry within 1.05x of the live one.
        with self._lock:
            synced = self._synced.get(token, 0.0)
            due = record.last_access - synced >= self.ttl * self._SYNC_SHARE
            if not due or self._write_locked(record, create=False):
                return record
        self._lost(record)

    def remove(self, token: str) -> None:
        self._delete(token)
        super().remove(token)

    def persist(self, record: SessionRecord) -> None:
        """Re-encode a record after a ``meta`` mutation (the service
        calls this so the session's selection and schema set survive a
        worker change).  Call with ``record.lock`` held, like any
        same-token operation."""
        with self._lock:
            if self._write_locked(record, create=False):
                return
        self._lost(record)

    def purge_expired(self) -> int:
        """Sweep now, whether or not a login swept within the throttle
        window."""
        with self._lock:
            self._swept_at = float("-inf")
        return super().purge_expired()

    def __len__(self) -> int:
        """Persisted records, live here or not."""
        return self.backend.count(self._store)

    def stats(self) -> dict:
        """The health block: ``persisted`` counts every record in the
        backend, expired ones included until a sweep or a read of the
        record deletes them (a login sweeps at most once per 5% of the
        TTL); ``rehydrations`` counts restored sessions."""
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
        it), returning the live ones (callers end those; a cold record,
        spilled here or never live here, has nothing to end).
        ``_synced`` keeps only live tokens.  Skipped within 5% of the
        TTL of the last sweep."""
        with self._lock:
            if now - self._swept_at < self.ttl * self._SYNC_SHARE:
                return []
            self._swept_at = now
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

    def _spill_locked(  # guarded-by-caller: _lock
        self, record: SessionRecord, ended: list[SessionRecord]
    ) -> None:
        """A spilled session lives on in its record: nothing is ended."""
        self._synced.pop(record.token, None)

    def _miss(
        self, token: str, stale: SessionRecord | None, now: float
    ) -> SessionRecord:
        fields = self._load(token)
        if fields is not None and now - fields["last_access"] <= self.ttl:
            if stale is not None:
                # Expired by this worker's clock only: another worker
                # kept the session alive, so the record is rebuilt.
                self._drop(token, stale)
            return self._rehydrate(token, fields, now)
        if stale is not None:
            self._evict(token, stale)
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
        try:
            session = self.resolver(
                fields["datamart"], fields["user_id"], fields["meta"]
            )
        except CodecError:
            self._delete(token)
            raise _invalid_session() from None
        ended: list[SessionRecord] = []  # a spill here ends nothing
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
        if not written:
            # Logged out while the resolver ran: the new session was
            # never live here.
            _end_quietly(record)
            raise _invalid_session()
        return record


class BackendWorkloadJournal(WorkloadJournal):
    """The workload journal with its events in the backend.

    Events live keyed ``datamart␟user␟<seq>`` (the separator is
    ``\\x1f``; zero-padded sequence numbers make key order append order),
    so one key scan of a tenant yields every user's position, and a
    user's history reads back identically in every process.  Sequence
    numbers come from the backend's atomic counter.  A row that does not
    decode is deleted when read, as the other stores do.  Only the
    storage methods are overridden (the inherited heap map stays empty);
    the derived API is the in-heap journal's, so a user's ``summary``
    is one :meth:`events` call, one prefix scan of the backend.
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
        # Enforce the per-user bound (oldest dropped first).  Concurrent
        # appenders may briefly overshoot; the bound is a memory cap, not
        # an exactness contract, and every appender re-trims.
        excess = self.backend.count(self._store, prefix) - self.max_events_per_user
        if excess > 0:
            for key in self.backend.keys(self._store, prefix)[:excess]:
                self.backend.delete(self._store, key)
        return event

    def positions(self, datamart: str) -> dict[str, int]:
        prefix = f"{datamart}{_SEP}"
        out: dict[str, int] = {}
        for key in self.backend.keys(self._store, prefix):
            user_id, seq = key[len(prefix):].split(_SEP)
            out[user_id] = int(seq)  # keys ascend: the last one wins
        return out

    def events(self, datamart: str, user_id: str) -> list[WorkloadEvent]:
        out = []
        for key, encoded in self.backend.items(
            self._store, self._user_prefix(datamart, user_id)
        ):
            try:
                out.append(decode_journal_event(encoded))
            except CodecError:
                # A poisoned event degrades the history, never the
                # request; dropped, it stops holding a slot of the bound.
                self.backend.delete(self._store, key)
        return out

    def stats(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        seen_users: set[tuple[str, str]] = set()
        for key in self.backend.keys(self._store):
            datamart, user_id, _seq = key.split(_SEP, 2)
            entry = out.setdefault(datamart, {"users": 0, "events": 0})
            entry["events"] += 1
            if (datamart, user_id) not in seen_users:
                seen_users.add((datamart, user_id))
                entry["users"] += 1
        return out

    def __len__(self) -> int:
        return self.backend.count(self._store)
