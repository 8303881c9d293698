"""Tests for the backend-backed two-tier stores.

The contracts under test: tokens resolve in any store instance over the
shared backend (rehydration), spilled live sessions keep valid tokens,
expired sessions never resolve (live, cold, or mid-eviction), a logout
on one instance holds on every other one, a live copy that looks
expired by its own clock defers to a fresher persisted record,
query/view entries published by one instance are adopted by another,
and the journal's sequence numbers and per-tenant generations are
backend counters, so they stay coherent across instances.  The rules
the backend-backed stores share with the in-heap ones run in the
contract suites of ``tests/service/test_sessions.py`` and
``tests/reco/test_journal.py``.
"""

import sys
import threading

import pytest

from repro.cluster.backend import InMemoryBackend, SqliteBackend
from repro.cluster.stores import (
    BackendQueryCache,
    BackendSessionStore,
    BackendViewStore,
    BackendWorkloadJournal,
    _key_text,
)
from repro.errors import UnauthorizedError
from repro.service import InMemorySessionStore
from repro.service.facade import CellSetPayload


class StubSession:
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


@pytest.fixture()
def backend():
    return InMemoryBackend()


def make_store(backend, clock, resolver=None, **kwargs):
    kwargs.setdefault("ttl", 10.0)
    kwargs.setdefault("max_sessions", 4)
    return BackendSessionStore(
        backend, namespace="t", clock=clock, resolver=resolver, **kwargs
    )


class TestBackendSessionStore:
    def test_put_get_roundtrip(self, backend, clock):
        store = make_store(backend, clock)
        session = StubSession()
        record = store.put(
            session, datamart="sales", user_id="ana", meta={"journal": True}
        )
        got = store.get(record.token)
        assert got.session is session
        assert got.datamart == "sales"
        assert got.meta == {"journal": True}
        assert len(store) == 1

    def test_cold_token_without_resolver_is_invalid(self, backend, clock):
        store = make_store(backend, clock, max_sessions=1)
        first = store.put(StubSession(), datamart="d", user_id="u1")
        store.put(StubSession(), datamart="d", user_id="u2")  # spills first
        assert store.stats()["spills"] == 1
        with pytest.raises(UnauthorizedError) as excinfo:
            store.get(first.token)
        assert excinfo.value.code == "invalid_session"

    def test_spilled_token_rehydrates_through_resolver(self, backend, clock):
        resolved = []

        def resolver(datamart, user_id, meta):
            resolved.append((datamart, user_id, dict(meta)))
            return StubSession()

        store = make_store(backend, clock, resolver=resolver, max_sessions=1)
        original = StubSession()
        first = store.put(
            original, datamart="d", user_id="u1", meta={"journal": False}
        )
        store.put(StubSession(), datamart="d", user_id="u2")
        assert original.ended == 1  # spill = in-heap eviction semantic
        record = store.get(first.token)  # rehydrates
        assert record.token == first.token
        assert record.user_id == "u1"
        assert record.meta == {"journal": False}
        assert resolved == [("d", "u1", {"journal": False})]
        assert store.stats()["rehydrations"] == 1

    def test_cross_instance_resolution(self, backend, clock):
        """A second store over the same backend+namespace (another
        worker) resolves tokens the first one issued."""
        first_store = make_store(backend, clock)
        record = first_store.put(
            StubSession(), datamart="d", user_id="u", meta={"n": 1}
        )
        second_store = make_store(
            backend, clock, resolver=lambda *a: StubSession()
        )
        got = second_store.get(record.token)
        assert got.user_id == "u"
        assert got.meta == {"n": 1}
        assert second_store.stats()["rehydrations"] == 1

    def test_persist_flushes_meta_mutations(self, backend, clock):
        store = make_store(backend, clock)
        record = store.put(StubSession(), datamart="d", user_id="u")
        with record.lock:
            record.meta["selections"] = [["t", "c"]]
            store.persist(record)
        other = make_store(backend, clock, resolver=lambda *a: StubSession())
        assert other.get(record.token).meta["selections"] == [["t", "c"]]

    def test_remove_deletes_both_tiers(self, backend, clock):
        store = make_store(backend, clock, resolver=lambda *a: StubSession())
        record = store.put(StubSession(), datamart="d", user_id="u")
        store.remove(record.token)
        assert len(store) == 0
        with pytest.raises(UnauthorizedError):
            store.get(record.token)

    def test_iter_yields_live_only(self, backend, clock):
        store = make_store(backend, clock, max_sessions=1)
        store.put(StubSession(), datamart="d", user_id="u1")
        keep = store.put(StubSession(), datamart="d", user_id="u2")
        assert [r.token for r in store] == [keep.token]
        assert len(store) == 2  # both records persisted

    def test_access_refresh_is_throttled(self, backend, clock):
        from repro.cluster.codecs import decode_session_record

        store = make_store(backend, clock, ttl=100.0)
        record = store.put(StubSession(), datamart="d", user_id="u")

        def persisted_access():
            return decode_session_record(
                backend.get("t:sessions", record.token)
            )["last_access"]

        clock.advance(2.0)  # < 5% of the TTL: read-only hot path
        store.get(record.token)
        assert persisted_access() == 0.0
        clock.advance(4.0)  # cumulative 6s >= 5s: refresh is due
        store.get(record.token)
        assert persisted_access() == 6.0

    def test_purge_expired_sweeps_cold_records(self, backend, clock):
        store = make_store(backend, clock, max_sessions=1, ttl=10.0)
        store.put(StubSession(), datamart="d", user_id="u1")
        store.put(StubSession(), datamart="d", user_id="u2")
        clock.advance(11.0)
        store.purge_expired()
        assert len(store) == 0

    def test_constructor_validation(self, backend, clock):
        with pytest.raises(ValueError):
            make_store(backend, clock, ttl=0)
        with pytest.raises(ValueError):
            make_store(backend, clock, max_sessions=0)


class TestTTLHardening:
    """Expired-but-not-yet-evicted sessions must not resolve by token —
    pinned for the in-heap store and both paths (live, cold) of the
    backend store."""

    @pytest.fixture(params=["memory", "backend"])
    def store(self, request, clock, backend):
        if request.param == "memory":
            return InMemorySessionStore(ttl=10.0, max_sessions=8, clock=clock)
        return make_store(
            backend, clock, ttl=10.0, resolver=lambda *a: StubSession()
        )

    def test_expired_live_session_does_not_resolve(self, store, clock):
        session = StubSession()
        record = store.put(session, datamart="d", user_id="u")
        clock.advance(10.5)  # expired, but no purge has run
        with pytest.raises(UnauthorizedError) as excinfo:
            store.get(record.token)
        assert excinfo.value.code == "session_expired"
        assert session.ended == 1
        # And the token stays dead afterwards, on every path.
        with pytest.raises(UnauthorizedError):
            store.get(record.token)

    def test_expired_cold_record_does_not_rehydrate(self, backend, clock):
        """The backend-specific race: a record whose live session was
        spilled must still honor the TTL — an available resolver must
        not resurrect an expired record."""
        store = make_store(
            backend,
            clock,
            ttl=10.0,
            max_sessions=1,
            resolver=lambda *a: StubSession(),
        )
        first = store.put(StubSession(), datamart="d", user_id="u1")
        store.put(StubSession(), datamart="d", user_id="u2")  # spills first
        clock.advance(10.5)
        with pytest.raises(UnauthorizedError) as excinfo:
            store.get(first.token)
        assert excinfo.value.code == "session_expired"
        assert store.stats()["rehydrations"] == 0
        # The expired record was dropped from the backend too.
        assert backend.get("t:sessions", first.token) is None


@pytest.fixture(params=["memory", "sqlite"])
def shared(request, tmp_path):
    """One backend under several stores, each standing in for a worker."""
    if request.param == "memory":
        yield InMemoryBackend()
    else:
        backend = SqliteBackend(str(tmp_path / "state.sqlite"))
        yield backend
        backend.close()


class TestLogoutHoldsOnEveryWorker:
    """After a logout on one worker deletes the record, no write by
    another worker re-creates it: the throttled access refresh, a
    ``persist`` after a selection report and the end of a rehydration
    each update the record only while it exists, and otherwise end the
    live copy and answer ``invalid_session``."""

    def workers(self, backend, clock, count=3):
        return [
            make_store(backend, clock, ttl=100.0, resolver=lambda *a: StubSession())
            for _ in range(count)
        ]

    def logged_out_elsewhere(self, backend, clock):
        a, b, c = self.workers(backend, clock)
        live = StubSession()
        record = a.put(live, datamart="d", user_id="u")
        b.get(record.token)  # rehydrated on B
        b.remove(record.token)  # logout on B
        with pytest.raises(UnauthorizedError) as excinfo:
            c.get(record.token)
        assert excinfo.value.code == "invalid_session"
        return a, c, record, live

    def assert_gone(self, backend, store, other, record, live):
        assert live.ended == 1
        assert list(store) == []
        assert backend.get("t:sessions", record.token) is None
        with pytest.raises(UnauthorizedError) as excinfo:
            other.get(record.token)
        assert excinfo.value.code == "invalid_session"

    def test_access_refresh(self, shared, clock):
        a, c, record, live = self.logged_out_elsewhere(shared, clock)
        clock.advance(6.0)  # A's throttled refresh is due
        with pytest.raises(UnauthorizedError) as excinfo:
            a.get(record.token)
        assert excinfo.value.code == "invalid_session"
        self.assert_gone(shared, a, c, record, live)

    def test_persist_after_a_selection_report(self, shared, clock):
        a, c, record, live = self.logged_out_elsewhere(shared, clock)
        with record.lock:
            record.meta["selections"] = [["t", "c"]]
            with pytest.raises(UnauthorizedError) as excinfo:
                a.persist(record)
        assert excinfo.value.code == "invalid_session"
        self.assert_gone(shared, a, c, record, live)

    def test_rehydration(self, shared, clock):
        issuer, other = self.workers(shared, clock, count=2)
        token = issuer.put(StubSession(), datamart="d", user_id="u").token
        built = []

        def resolver(*args):
            other.remove(token)  # the logout lands mid-rehydration
            built.append(StubSession())
            return built[-1]

        store = make_store(shared, clock, ttl=100.0, resolver=resolver)
        with pytest.raises(UnauthorizedError) as excinfo:
            store.get(token)
        assert excinfo.value.code == "invalid_session"
        assert built[0].ended == 1
        assert list(store) == []
        assert store.stats()["rehydrations"] == 0
        assert shared.get("t:sessions", token) is None

    def test_sweep_drops_what_another_worker_logged_out(self, shared, clock):
        """A worker keeps no state for tokens it no longer holds: its
        sweep ends a live copy past the TTL whose record a logout
        elsewhere deleted, as the in-heap store's would, and keeps the
        refresh map to its live sessions."""
        a, b = self.workers(shared, clock, count=2)
        issued = [StubSession() for _ in range(12)]
        for session in issued:
            b.remove(a.put(session, datamart="d", user_id="u").token)
        assert len(a._synced) <= a.max_sessions + 1
        clock.advance(200.0)
        assert a.purge_expired() == a.max_sessions
        assert [session.ended for session in issued] == [1] * len(issued)
        assert list(a) == []
        assert a._synced == {}


class TestConcurrentRehydration:
    def test_racing_requests_share_one_live_session(self, shared, clock):
        """Requests racing to rehydrate one cold token all get the same
        live record, and exactly one rehydration is admitted."""
        issuer = make_store(shared, clock, ttl=100.0)
        token = issuer.put(StubSession(), datamart="d", user_id="u").token
        store = make_store(shared, clock, ttl=100.0, resolver=lambda *a: StubSession())
        records, errors = [], []

        def request():
            try:
                records.append(store.get(token))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=request) for _ in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(records) == 16
        assert all(record is records[0] for record in records)
        assert store.stats()["rehydrations"] == 1
        assert [record.token for record in store] == [token]


class TestStaleLiveCopy:
    """A worker's live copy can look expired by its own clock while
    another worker has been serving the session: the persisted record
    decides, and the copy is rebuilt from it instead of expired."""

    def serve_elsewhere(self, backend, clock, resolver):
        a = make_store(backend, clock, ttl=100.0, resolver=resolver)
        b = make_store(backend, clock, ttl=100.0, resolver=lambda *a: StubSession())
        original = StubSession()
        token = a.put(original, datamart="d", user_id="u").token
        for _ in range(10):  # B serves it every 10s up to t=100
            clock.advance(10.0)
            record = b.get(token)
        return a, b, token, original, record

    def test_live_copy_is_rebuilt_from_a_fresher_record(self, shared, clock):
        resolved = []

        def resolver(datamart, user_id, meta):
            resolved.append(meta)
            return StubSession()

        a, _b, token, original, on_b = self.serve_elsewhere(shared, clock, resolver)
        with on_b.lock:
            on_b.meta["selections"] = [["GeoMD.Store.City", "cond"]]
            _b.persist(on_b)
        clock.advance(2.0)  # t=102: A last served it 102s ago
        record = a.get(token)
        assert record.session is not original
        assert original.ended == 1
        # The rebuild replays the selections logged on the other worker.
        assert resolved == [{"selections": [["GeoMD.Store.City", "cond"]]}]
        assert a.stats()["rehydrations"] == 1
        assert shared.get("t:sessions", token) is not None

    def test_login_sweep_keeps_the_record(self, shared, clock):
        a, b, token, _original, _on_b = self.serve_elsewhere(
            shared, clock, lambda *args: StubSession()
        )
        clock.advance(2.0)
        a.put(StubSession(), datamart="d", user_id="other")  # sweeps
        assert shared.get("t:sessions", token) is not None
        other = make_store(shared, clock, ttl=100.0, resolver=lambda *a: StubSession())
        assert other.get(token).token == token


def _payload(value):
    return CellSetPayload(
        axes=("Family",),
        labels=(("Drink",),),
        rows=((value, 1.0),),
        fact_rows_scanned=10,
        fact_rows_matched=5,
    )


class TestBackendQueryCache:
    def test_l1_hit(self, backend):
        cache = BackendQueryCache(backend, namespace="t", max_size=4)
        key = ("sales", "Q", "fp", 3)
        assert cache.get(key) is None
        cache.put(key, _payload("a"))
        assert cache.get(key) == _payload("a")
        assert cache.hits == 1
        assert cache.misses == 1

    def test_peer_instance_gets_l2_hit(self, backend):
        first = BackendQueryCache(backend, namespace="t", max_size=4)
        key = ("sales", "Q", "fp", 3)
        first.put(key, _payload("a"))
        second = BackendQueryCache(backend, namespace="t", max_size=4)
        got = second.get(key)
        assert got == _payload("a")
        assert second.l2_hits == 1
        # Promoted into the L1: the next hit is heap-speed.
        assert second.get(key) == _payload("a")
        assert second.l2_hits == 1

    def test_namespaces_isolate(self, backend):
        first = BackendQueryCache(backend, namespace="a", max_size=4)
        second = BackendQueryCache(backend, namespace="b", max_size=4)
        key = ("sales", "Q", "fp", 1)
        first.put(key, _payload("a"))
        assert second.get(key) is None

    def test_corrupt_l2_entry_is_dropped(self, backend):
        cache = BackendQueryCache(backend, namespace="t", max_size=4)
        key = ("sales", "Q", "fp", 3)
        backend.put("t:qcache", _key_text(key), "{corrupt")
        assert cache.get(key) is None
        assert backend.get("t:qcache", _key_text(key)) is None

    def test_clear_clears_both_tiers(self, backend):
        cache = BackendQueryCache(backend, namespace="t", max_size=4)
        key = ("sales", "Q", "fp", 3)
        cache.put(key, _payload("a"))
        cache.clear()
        assert len(cache) == 0
        assert backend.count("t:qcache") == 0

    def test_l2_is_pruned(self, backend):
        cache = BackendQueryCache(
            backend, namespace="t", max_size=2, l2_max_rows=8
        )
        for i in range(64):  # 32-put prune cadence fires twice
            cache.put(("d", f"q{i}", "fp", 1), _payload(i))
        assert backend.count("t:qcache") <= 8
        assert len(cache) <= 2  # L1 keeps ThreadSafeLRU's bound


class TestBackendViewStore:
    @pytest.fixture()
    def selection(self, engine, profile, world):
        session = engine.start_session(
            profile, location=world.stores[0].location
        )
        return session.selection

    def test_peer_build_is_adopted(self, backend, star, selection):
        fact = star.fact_table().fact.name
        first = BackendViewStore(backend, namespace="t", max_size=8)
        built = first.get_or_build(star, star.schema, fact, selection)
        assert first.stats()["builds"] == 1
        assert first.stats()["l2_publishes"] == 1
        second = BackendViewStore(backend, namespace="t", max_size=8)
        adopted = second.get_or_build(star, star.schema, fact, selection)
        assert second.stats()["builds"] == 0
        assert second.stats()["l2_hits"] == 1
        assert adopted.fact_rows == built.fact_rows
        assert adopted.selection.fingerprint() == selection.fingerprint()

    def test_l1_hit_beats_l2(self, backend, star, selection):
        fact = star.fact_table().fact.name
        store = BackendViewStore(backend, namespace="t", max_size=8)
        store.get_or_build(star, star.schema, fact, selection)
        store.get_or_build(star, star.schema, fact, selection)
        stats = store.stats()
        assert stats["builds"] == 1
        assert stats["hits"] == 1
        assert stats["l2_hits"] == 0

    def test_invalidate_clears_published_entries(self, backend, star, selection):
        fact = star.fact_table().fact.name
        store = BackendViewStore(backend, namespace="t", max_size=8)
        store.get_or_build(star, star.schema, fact, selection)
        assert backend.count("t:views") == 1
        store.invalidate()
        assert backend.count("t:views") == 0
        assert store.stats()["entries"] == 0

    def test_stale_generation_is_unreachable(self, backend, star, selection):
        """A peer's entry for an older star state is never adopted — the
        generation in the key is the invalidation protocol."""
        fact = star.fact_table().fact.name
        first = BackendViewStore(backend, namespace="t", max_size=8)
        first.get_or_build(star, star.schema, fact, selection)
        star.note_member_change("Store")  # bump the generation
        second = BackendViewStore(backend, namespace="t", max_size=8)
        second.get_or_build(star, star.schema, fact, selection)
        assert second.stats()["l2_hits"] == 0
        assert second.stats()["builds"] == 1


class TestBackendWorkloadJournal:
    def test_cross_instance_history(self, backend):
        """Another worker's journal over the same namespace appends to
        the same history with globally unique sequence numbers."""
        first = BackendWorkloadJournal(backend, namespace="t")
        second = BackendWorkloadJournal(backend, namespace="t")
        e1 = first.record_query("sales", "ana", "q1")
        e2 = second.record_query("sales", "ana", "q2")
        assert e2.seq > e1.seq
        assert [e.payload["q"] for e in first.events("sales", "ana")] == [
            "q1",
            "q2",
        ]
        assert second.generation("sales") == 2

    def test_corrupt_event_degrades_not_raises(self, backend):
        journal = BackendWorkloadJournal(backend, namespace="t")
        journal.record_query("sales", "ana", "good")
        backend.put("t:journal", "sales\x1fana\x1f9999999999999999", "{bad")
        assert [e.payload["q"] for e in journal.events("sales", "ana")] == [
            "good"
        ]
