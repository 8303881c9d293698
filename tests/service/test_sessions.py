"""Tests for the pluggable session store: TTL, eviction, thread-safety.

One contract suite for both session stores.  The classes named after
the rules run it over :class:`InMemorySessionStore`; each ``*Backend``
subclass runs the same tests over :class:`BackendSessionStore` (no
resolver, so a token without a live session does not resolve, as
in-heap) on the in-memory and the sqlite backend.  Known differences
are marked where a test meets them.
"""

import threading
import time

import pytest

from repro.cluster.backend import InMemoryBackend, SqliteBackend
from repro.cluster.stores import BackendSessionStore
from repro.errors import UnauthorizedError
from repro.service import InMemorySessionStore


class StubSession:
    """Duck-typed stand-in for a PersonalizedSession."""

    def __init__(self):
        self.closed = False
        self.ended = 0

    def end(self):
        self.ended += 1
        self.closed = True


class Clock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture()
def clock():
    return Clock()


def _defaults(kwargs, clock):
    kwargs.setdefault("ttl", 10.0)
    kwargs.setdefault("max_sessions", 4)
    kwargs.setdefault("clock", clock)
    return kwargs


@pytest.fixture()
def make_store(clock):
    def make(**kwargs):
        return InMemorySessionStore(**_defaults(kwargs, clock))

    return make


def persisted(store):
    """Known differences of a persisted store: its ``len`` counts every
    persisted record, including those with no live session here, and
    an eviction (a spill) ends nothing, since the record lives on."""
    return isinstance(store, BackendSessionStore)


class BackendStores:
    """Mixin: the suite over ``BackendSessionStore`` on each backend."""

    @pytest.fixture(params=["memory", "sqlite"])
    def make_store(self, request, clock, tmp_path):
        backends = []

        def make(**kwargs):
            backend = (
                InMemoryBackend()
                if request.param == "memory"
                else SqliteBackend(str(tmp_path / f"state-{len(backends)}.sqlite"))
            )
            backends.append(backend)
            return BackendSessionStore(
                backend, namespace="t", **_defaults(kwargs, clock)
            )

        yield make
        for backend in backends:
            backend.close()


class TestBasics:
    def test_put_get_roundtrip(self, make_store):
        store = make_store()
        session = StubSession()
        record = store.put(session, datamart="sales", user_id="ana")
        assert record.token.startswith("tok-")
        got = store.get(record.token)
        assert got.session is session
        assert got.datamart == "sales"
        assert got.user_id == "ana"
        assert len(store) == 1

    def test_tokens_are_unique(self, make_store):
        store = make_store(max_sessions=100)
        tokens = {
            store.put(StubSession(), datamart="d", user_id="u").token
            for _ in range(50)
        }
        assert len(tokens) == 50

    def test_unknown_token_is_structured_401(self, make_store):
        store = make_store()
        with pytest.raises(UnauthorizedError) as excinfo:
            store.get("tok-nope")
        assert excinfo.value.status == 401
        assert excinfo.value.code == "invalid_session"

    def test_remove_is_idempotent(self, make_store):
        store = make_store()
        record = store.put(StubSession(), datamart="d", user_id="u")
        store.remove(record.token)
        store.remove(record.token)
        assert len(store) == 0


class TestTTL:
    def test_expiry_after_idle_ttl(self, make_store, clock):
        store = make_store(ttl=10.0)
        session = StubSession()
        record = store.put(session, datamart="d", user_id="u")
        clock.advance(10.1)
        with pytest.raises(UnauthorizedError) as excinfo:
            store.get(record.token)
        assert excinfo.value.code == "session_expired"
        assert excinfo.value.status == 401
        # The expired analysis session was ended like a logout would.
        assert session.ended == 1
        assert len(store) == 0

    def test_access_refreshes_idle_clock(self, make_store, clock):
        store = make_store(ttl=10.0)
        record = store.put(StubSession(), datamart="d", user_id="u")
        clock.advance(6.0)
        store.get(record.token)  # touch at t=6
        clock.advance(6.0)  # t=12: only 6s idle since last touch
        assert store.get(record.token).token == record.token

    def test_purge_expired_sweeps_everything_stale(self, make_store, clock):
        store = make_store(ttl=10.0, max_sessions=10)
        sessions = [StubSession() for _ in range(3)]
        for session in sessions:
            store.put(session, datamart="d", user_id="u")
        clock.advance(11.0)
        fresh = StubSession()
        fresh_token = store.put(fresh, datamart="d", user_id="u").token
        # put() already purged; a second sweep finds nothing.
        assert store.purge_expired() == 0
        assert len(store) == 1
        assert all(s.ended == 1 for s in sessions)
        assert store.get(fresh_token).session is fresh


class TestEviction:
    def test_lru_eviction_at_capacity(self, make_store, clock):
        store = make_store(max_sessions=2)
        first = StubSession()
        token1 = store.put(first, datamart="d", user_id="u1").token
        token2 = store.put(StubSession(), datamart="d", user_id="u2").token
        clock.advance(1.0)
        store.get(token1)  # token1 is now most recently used
        store.put(StubSession(), datamart="d", user_id="u3")  # evicts token2
        assert len(store) == (3 if persisted(store) else 2)
        assert [r.token for r in store][0] == token1
        assert store.get(token1)
        with pytest.raises(UnauthorizedError):
            store.get(token2)

    def test_evicted_session_is_ended(self, make_store):
        store = make_store(max_sessions=1)
        first = StubSession()
        store.put(first, datamart="d", user_id="u1")
        store.put(StubSession(), datamart="d", user_id="u2")
        assert first.ended == (0 if persisted(store) else 1)

    def test_end_failure_does_not_break_eviction(self, make_store):
        store = make_store(max_sessions=1)

        class ExplodingSession(StubSession):
            def end(self):
                raise RuntimeError("boom")

        store.put(ExplodingSession(), datamart="d", user_id="u1")
        record = store.put(StubSession(), datamart="d", user_id="u2")
        assert store.get(record.token)

    def test_constructor_validation(self, make_store):
        with pytest.raises(ValueError):
            make_store(ttl=0)
        with pytest.raises(ValueError):
            make_store(max_sessions=0)


class TestConcurrency:
    def test_parallel_put_get_remove(self, make_store):
        store = make_store(ttl=60.0, max_sessions=64, clock=time.monotonic)
        errors = []

        def worker():
            try:
                for _ in range(50):
                    record = store.put(
                        StubSession(), datamart="d", user_id="u"
                    )
                    store.get(record.token)
                    store.remove(record.token)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(store) == 0


class TestBasicsBackend(BackendStores, TestBasics):
    pass


class TestTTLBackend(BackendStores, TestTTL):
    pass


class TestEvictionBackend(BackendStores, TestEviction):
    pass


class TestConcurrencyBackend(BackendStores, TestConcurrency):
    pass
