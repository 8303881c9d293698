"""Tests for the backend-backed two-tier stores.

The contracts under test: tokens resolve in any store instance over the
shared backend (rehydration), spilled live sessions keep valid tokens
and are not ended, a record the service cannot restore is deleted and
answers ``invalid_session``, a login sweeps the persisted records at
most once per 5% of the TTL, expired sessions never resolve (live,
cold, or mid-eviction), a logout
on one instance holds on every other one, a live copy that looks
expired by its own clock defers to a fresher persisted record, and
the journal's sequence numbers are a backend counter, so histories
and positions stay coherent across instances.  The rules
the backend-backed stores share with the in-heap ones run in the
contract suites of ``tests/service/test_sessions.py`` and
``tests/reco/test_journal.py``.
"""

import json
import sys
import threading

import pytest

from repro.cluster.backend import InMemoryBackend, SqliteBackend
from repro.cluster.config import make_service_stores
from repro.cluster.stores import BackendSessionStore, BackendWorkloadJournal
from repro.errors import UnauthorizedError
from repro.service import (
    DatamartRegistry,
    InMemorySessionStore,
    LoginRequest,
    PersonalizationService,
)


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
        assert original.ended == 0  # a spill ends nothing: the record lives on
        record = store.get(first.token)  # rehydrates
        assert record.token == first.token
        assert record.user_id == "u1"
        assert record.meta == {"journal": False}
        assert resolved == [("d", "u1", {"journal": False})]
        assert store.stats()["rehydrations"] == 1

    def test_an_abandoned_spilled_session_is_never_ended(self, backend, clock):
        """Unlike the in-heap store, which ends what expires: a spilled
        session no request restores is not ended when its record
        expires, because the sweep finds a row and no live session."""
        store = make_store(backend, clock, max_sessions=1)
        spilled, live = StubSession(), StubSession()
        store.put(spilled, datamart="d", user_id="u1")
        store.put(live, datamart="d", user_id="u2")  # spills the first
        clock.advance(11.0)
        assert store.purge_expired() == 1
        assert len(store) == 0
        assert (spilled.ended, live.ended) == (0, 1)

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
            record.meta["schema_set"] = ["layer:Airport"]
            store.persist(record)
        other = make_store(backend, clock, resolver=lambda *a: StubSession())
        assert other.get(record.token).meta["schema_set"] == ["layer:Airport"]

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
            record.meta["schema_set"] = ["layer:Airport"]
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
        refresh map to its live sessions.  The copies it spilled before
        were dropped without being ended."""
        a, b = self.workers(shared, clock, count=2)
        issued = [StubSession() for _ in range(12)]
        for session in issued:
            b.remove(a.put(session, datamart="d", user_id="u").token)
        assert len(a._synced) <= a.max_sessions + 1
        clock.advance(200.0)
        assert a.purge_expired() == a.max_sessions
        spilled = len(issued) - a.max_sessions
        assert [session.ended for session in issued] == (
            [0] * spilled + [1] * a.max_sessions
        )
        assert list(a) == []
        assert a._synced == {}


class CountingScans:
    """A backend that counts full reads of a store (``items``)."""

    def __init__(self, backend):
        self.backend = backend
        self.scans = 0

    def items(self, store, prefix=""):
        self.scans += 1
        return self.backend.items(store, prefix)

    def __getattr__(self, name):
        return getattr(self.backend, name)


class TestLoginSweepThrottle:
    """A login sweeps the persisted records at most once per 5% of the
    TTL; ``purge_expired`` always sweeps, and an expired record the
    throttle left behind still answers ``session_expired``."""

    def test_logins_within_the_window_scan_once(self, shared, clock):
        backend = CountingScans(shared)
        store = make_store(backend, clock, ttl=100.0)
        store.put(StubSession(), datamart="d", user_id="u1")
        clock.advance(4.0)  # within 5 s of the sweep
        store.put(StubSession(), datamart="d", user_id="u2")
        assert backend.scans == 1
        clock.advance(1.0)  # 5 s since the sweep
        store.put(StubSession(), datamart="d", user_id="u3")
        assert backend.scans == 2
        store.purge_expired()
        assert backend.scans == 3

    def test_an_unswept_expired_record_still_expires(self, shared, clock):
        backend = CountingScans(shared)
        store = make_store(
            backend,
            clock,
            ttl=100.0,
            max_sessions=1,
            resolver=lambda *a: StubSession(),
        )
        first = store.put(StubSession(), datamart="d", user_id="u1")
        clock.advance(96.0)
        store.put(StubSession(), datamart="d", user_id="u2")  # sweeps, spills
        clock.advance(4.5)  # the first record expired after the sweep
        store.put(StubSession(), datamart="d", user_id="u3")
        assert backend.scans == 2
        assert shared.get("t:sessions", first.token) is not None
        with pytest.raises(UnauthorizedError) as excinfo:
            store.get(first.token)
        assert excinfo.value.code == "session_expired"
        assert shared.get("t:sessions", first.token) is None
        assert store.stats()["rehydrations"] == 0


class TestUnrestorableRecords:
    """A record the service cannot restore a session from is deleted
    and answers 401 ``invalid_session``, like any corrupt record: a v1
    record (a log of selection reports to replay), a selection without
    the encoded shape, and a schema set naming a layer the tenant did
    not load."""

    @pytest.fixture()
    def portal(self, engine, profile, world, shared):
        registry = DatamartRegistry()
        registry.register("sales", engine).register_user(profile)
        issuer = PersonalizationService(registry, **make_service_stores(shared, "t"))
        token = issuer.login(
            LoginRequest(
                user=profile.user_id,
                datamart=None,
                location=world.stores[0].location,
            )
        ).token
        # Another worker over the same records, holding no live copy.
        other = PersonalizationService(registry, **make_service_stores(shared, "t"))
        return shared, token, other

    def assert_refused(self, portal, change):
        backend, token, service = portal
        record = json.loads(backend.get("t:sessions", token))
        change(record)
        backend.put("t:sessions", token, json.dumps(record))
        with pytest.raises(UnauthorizedError) as excinfo:
            service.profile(token)
        assert excinfo.value.code == "invalid_session"
        assert backend.get("t:sessions", token) is None
        assert service.sessions.stats()["rehydrations"] == 0

    def test_a_v1_record_with_a_replay_log(self, portal):
        def v1(record):
            record["v"] = 1
            meta = record["meta"]
            del meta["selection"], meta["schema_set"]
            meta["selections"] = [
                [
                    "GeoMD.Store.City",
                    "Distance(GeoMD.Store.City.geometry, "
                    "GeoMD.Airport.geometry)<20km",
                ]
            ]

        self.assert_refused(portal, v1)

    def test_a_selection_without_the_encoded_shape(self, portal):
        def flat(record):
            record["meta"]["selection"] = [["Store", "Store", "S1"]]

        self.assert_refused(portal, flat)

    def test_a_schema_set_naming_an_unloaded_layer(self, portal):
        def harbour(record):
            record["meta"]["schema_set"] = ["layer:Airport", "layer:Harbour"]

        self.assert_refused(portal, harbour)

    def test_a_schema_set_out_of_order(self, portal):
        """Written sets are sorted; another order would build a second
        schema for one set."""

        def unsorted(record):
            record["meta"]["schema_set"].reverse()

        self.assert_refused(portal, unsorted)


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
            on_b.meta["schema_set"] = ["layer:Airport"]
            _b.persist(on_b)
        clock.advance(2.0)  # t=102: A last served it 102s ago
        record = a.get(token)
        assert record.session is not original
        # The copy is dropped, not ended: the session lives on.
        assert original.ended == 0
        # The rebuild restores the state written on the other worker.
        assert resolved == [{"schema_set": ["layer:Airport"]}]
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
        assert second.positions("sales") == {"ana": e2.seq}

    def test_corrupt_event_degrades_not_raises(self, backend):
        journal = BackendWorkloadJournal(backend, namespace="t")
        journal.record_query("sales", "ana", "good")
        backend.put("t:journal", "sales\x1fana\x1f9999999999999999", "{bad")
        assert [e.payload["q"] for e in journal.events("sales", "ana")] == [
            "good"
        ]
