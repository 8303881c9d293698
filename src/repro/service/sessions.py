"""Pluggable session storage for the personalization service.

The portal used to keep ``{token: session}`` in a bare dict: tokens never
expired, memory grew without bound, and concurrent requests from the
threaded stdlib adapter raced on the dict.  :class:`InMemorySessionStore`
is the store the service programs against — opaque random tokens,
idle-TTL expiry, LRU eviction at ``max_sessions``, and a lock around
every mutation.

Expired or evicted analysis sessions are *ended* (SessionEnd rules fire,
the profile session closes) on a best-effort basis, mirroring what an
explicit logout would have done: an evicted token is dead here.

:class:`InMemorySessionStore` is also the live tier (L1) of the
backend-backed :class:`~repro.cluster.stores.BackendSessionStore`, which
inherits every rule above but one: a session it evicts (spills) lives
on in its persisted record, so the spill ends nothing, and nor does
the record's expiry if no request restores the session first.  Its
shared tier plugs into four seams — ``_sweep`` (which records the
expiry sweep covers), ``_claim_locked`` (whether a fresh token is
free, and persisting it), ``_spill_locked`` (what an eviction does
with the live session) and ``_miss`` (a token with no fresh live
record) — and wraps ``get``, ``remove``, ``persist`` and
``purge_expired`` with its writes.  The hit path of
:meth:`InMemorySessionStore.get` calls none of the seams.
"""

from __future__ import annotations

import secrets
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator

from repro.concurrency import make_lock
from repro.errors import UnauthorizedError

__all__ = ["SessionRecord", "InMemorySessionStore"]


@dataclass
class SessionRecord:
    """One live analysis session plus its service-level bookkeeping.

    ``lock`` serializes operations *within* one session: the engine's
    session/profile objects are not thread-safe, so concurrent requests
    carrying the same token take this lock in the service layer.
    """

    token: str
    session: object  # PersonalizedSession (duck-typed: .end(), .closed)
    datamart: str
    user_id: str
    created_at: float
    last_access: float
    meta: dict = field(default_factory=dict)
    lock: threading.Lock = field(
        default_factory=partial(make_lock, "SessionRecord.lock")
    )


def _default_token_factory() -> str:
    return f"tok-{secrets.token_urlsafe(12)}"


def _invalid_session() -> UnauthorizedError:
    return UnauthorizedError(
        "unknown or logged-out session token", code="invalid_session"
    )


def _session_expired(ttl: float) -> UnauthorizedError:
    return UnauthorizedError(
        "session expired; POST /api/v1/login again",
        code="session_expired",
        detail={"ttl": ttl},
    )


def _end_quietly(record: SessionRecord) -> None:
    """End an evicted/expired session as logout would, swallowing errors."""
    session = record.session
    try:
        if not getattr(session, "closed", True):
            session.end()
    except Exception:  # noqa: BLE001 - lint-ok: swallowed-error - reclamation must not fail the request
        pass


class InMemorySessionStore:
    """Thread-safe in-process token -> session store with idle TTL and
    LRU eviction.

    ``get`` raises :class:`~repro.errors.UnauthorizedError` (code
    ``invalid_session`` or ``session_expired``) instead of returning a
    sentinel, so every caller produces the same structured 401.
    ``clock`` and ``token_factory`` are injectable for deterministic
    tests; the defaults are ``time.monotonic`` and a ``secrets``-based
    opaque token.
    """

    #: ``resolver(datamart, user_id, meta)`` restores a live session for
    #: a token whose record this store holds but whose live session it
    #: does not (another worker issued it, or it was evicted), raising
    #: :class:`~repro.cluster.codecs.CodecError` for a ``meta`` it cannot
    #: restore from.  The service that owns the store binds it; the
    #: in-heap store, which keeps nothing beyond its live sessions,
    #: never calls it.
    resolver: Callable[[str, str, dict], object] | None = None

    def __init__(
        self,
        ttl: float = 1800.0,
        max_sessions: int = 256,
        clock: Callable[[], float] = time.monotonic,
        token_factory: Callable[[], str] | None = None,
    ) -> None:
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.ttl = ttl
        self.max_sessions = max_sessions
        self._clock = clock
        self._token_factory = token_factory or _default_token_factory
        self._lock = make_lock("InMemorySessionStore._lock")
        #: token -> record, ordered oldest-access-first (LRU discipline).
        # guarded-by: _lock
        self._records: OrderedDict[str, SessionRecord] = OrderedDict()
        #: Live sessions evicted to stay within ``max_sessions``.
        self.evictions = 0

    # -- the store API ------------------------------------------------------------

    def put(
        self,
        session: object,
        *,
        datamart: str,
        user_id: str,
        meta: dict | None = None,
    ) -> SessionRecord:
        """Admit a session, returning its record (with a fresh token).

        ``meta`` seeds the record's service-level bookkeeping dict; a
        persistent store serializes it, so values must be JSON-safe.
        """
        now = self._clock()
        ended = self._sweep(now)
        with self._lock:
            record = SessionRecord(
                token=self._token_factory(),
                session=session,
                datamart=datamart,
                user_id=user_id,
                created_at=now,
                last_access=now,
                meta=dict(meta or {}),
            )
            while not self._claim_locked(record):  # collision paranoia
                record.token = self._token_factory()
            self._admit_locked(record, ended)
        for stale in ended:
            _end_quietly(stale)
        return record

    def get(self, token: str) -> SessionRecord:
        """Resolve a token, refreshing its idle clock."""
        now = self._clock()
        with self._lock:
            record = self._records.get(token)
            if record is not None and now - record.last_access <= self.ttl:
                record.last_access = now
                self._records.move_to_end(token)
                return record
        return self._miss(token, record, now)

    def remove(self, token: str) -> None:
        """Forget a token (no-op if absent); does not end the session."""
        with self._lock:
            self._records.pop(token, None)

    def persist(self, record: SessionRecord) -> None:
        """Flush a record's mutated ``meta`` to durable storage.

        No-op here; the backend-backed store re-encodes the record so
        meta mutations (the session's selection and schema set) survive
        a worker change.  Call with ``record.lock`` held, like any
        same-token operation.
        """

    def purge_expired(self) -> int:
        """Drop (and end) every expired session, returning how many."""
        ended = self._sweep(self._clock())
        for record in ended:
            _end_quietly(record)
        return len(ended)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def __iter__(self) -> Iterator[SessionRecord]:
        with self._lock:
            return iter(list(self._records.values()))

    # -- seams (overridden by the backend-backed store) ---------------------------

    def _sweep(self, now: float) -> list[SessionRecord]:
        """Drop every expired session, returning the live records for
        the caller to end."""
        with self._lock:
            stale = [
                token
                for token, record in self._records.items()
                if now - record.last_access > self.ttl
            ]
            return [self._records.pop(token) for token in stale]

    def _claim_locked(self, record: SessionRecord) -> bool:  # guarded-by-caller: _lock
        """Whether ``record.token`` is free to issue."""
        return record.token not in self._records

    def _miss(
        self, token: str, stale: SessionRecord | None, now: float
    ) -> SessionRecord:
        """Resolve a token with no fresh live record: ``stale`` is its
        expired live record, if any."""
        if stale is None:
            raise _invalid_session()
        self._evict(token, stale)
        raise _session_expired(self.ttl)

    # -- internals ---------------------------------------------------------------

    def _admit_locked(  # guarded-by-caller: _lock
        self, record: SessionRecord, ended: list[SessionRecord]
    ) -> None:
        """Make ``record`` the most recent live session, moving the least
        recently used ones beyond ``max_sessions`` into ``ended``."""
        self._records[record.token] = record
        self._records.move_to_end(record.token)
        while len(self._records) > self.max_sessions:
            _token, evicted = self._records.popitem(last=False)
            self.evictions += 1
            self._spill_locked(evicted, ended)

    def _spill_locked(  # guarded-by-caller: _lock
        self, record: SessionRecord, ended: list[SessionRecord]
    ) -> None:
        """An evicted token is dead here: its session goes to ``ended``."""
        ended.append(record)

    def _evict(self, token: str, record: SessionRecord) -> None:
        """Drop ``record`` from the live sessions and end it, unless a
        concurrent request already did."""
        if self._drop(token, record):
            _end_quietly(record)

    def _drop(self, token: str, record: SessionRecord) -> bool:
        """Drop ``record`` from the live sessions, unless a concurrent
        request already did; whether this call dropped it."""
        with self._lock:
            if self._records.get(token) is not record:
                return False
            del self._records[token]
            return True
