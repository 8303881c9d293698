"""WorkloadJournal: append-only semantics, per-user histories, positions,
bounded memory and thread-safety.

One contract suite for both journals: the classes named after the rules
run it over the in-heap :class:`WorkloadJournal`; each ``*Backend``
subclass runs the same tests over :class:`BackendWorkloadJournal` on the
in-memory and the sqlite backend.
"""

import threading

import pytest

from repro.cluster.backend import InMemoryBackend, SqliteBackend
from repro.cluster.stores import BackendWorkloadJournal
from repro.reco import WorkloadJournal


@pytest.fixture()
def make_journal():
    return WorkloadJournal


@pytest.fixture()
def journal(make_journal):
    return make_journal()


class BackendJournals:
    """Mixin: the suite over ``BackendWorkloadJournal`` on each backend."""

    @pytest.fixture(params=["memory", "sqlite"])
    def make_journal(self, request, tmp_path):
        backends = []

        def make(**kwargs):
            backend = (
                InMemoryBackend()
                if request.param == "memory"
                else SqliteBackend(str(tmp_path / f"state-{len(backends)}.sqlite"))
            )
            backends.append(backend)
            return BackendWorkloadJournal(backend, namespace="t", **kwargs)

        yield make
        for backend in backends:
            backend.close()


class TestRecording:
    def test_sequence_is_monotonic_across_users_and_tenants(self, journal):
        a = journal.record_query("sales", "ana", "Q1")
        b = journal.record_layer("sales", "bob", "Airport")
        c = journal.record_query("eu", "ana", "Q2")
        assert [a.seq, b.seq, c.seq] == [1, 2, 3]
        assert len(journal) == 3

    def test_histories_are_per_datamart_and_user(self, journal):
        journal.record_query("sales", "ana", "Q1")
        journal.record_query("sales", "bob", "Q2")
        journal.record_query("eu", "ana", "Q3")
        assert [e.payload["q"] for e in journal.events("sales", "ana")] == ["Q1"]
        assert journal.users("sales") == ["ana", "bob"]
        assert journal.users("eu") == ["ana"]
        assert journal.events("sales", "nobody") == []

    def test_query_text_is_stripped_and_deduped_in_order(self, journal):
        journal.record_query("sales", "ana", "  Q2  ")
        journal.record_query("sales", "ana", "Q1")
        journal.record_query("sales", "ana", "Q2")
        assert journal.summary("sales", "ana").queries == ("Q2", "Q1")

    def test_selection_members_accumulate_into_profile(self, journal):
        journal.record_selection(
            "sales",
            "ana",
            "GeoMD.Store.City",
            "c1",
            members=[("Store", "Store", "S1"), ("Store", "City", "Alicante")],
        )
        journal.record_selection(
            "sales",
            "ana",
            "GeoMD.Store.City",
            "c2",
            members=[("Store", "Store", "S2")],
        )
        assert journal.summary("sales", "ana").members == {
            ("Store", "Store"): {"S1", "S2"},
            ("Store", "City"): {"Alicante"},
        }

    def test_layer_fetches(self, journal):
        journal.record_layer("sales", "ana", "Airport")
        journal.record_layer("sales", "ana", "Airport")
        journal.record_layer("sales", "ana", "Train")
        assert journal.summary("sales", "ana").layers == {"Airport", "Train"}

    def test_unknown_kind_rejected(self, journal):
        with pytest.raises(ValueError, match="unknown workload event kind"):
            journal.record("sales", "ana", "scroll")

    def test_payload_is_immutable(self, journal):
        event = journal.record_query("sales", "ana", "Q1")
        with pytest.raises(TypeError):
            event.payload["q"] = "tampered"

    def test_stats_count_users_and_events(self, journal):
        journal.record_query("sales", "ana", "q")
        journal.record_query("sales", "bo", "q")
        journal.record_layer("twin", "carla", "rivers")
        stats = journal.stats()
        assert stats["sales"] == {"users": 2, "events": 2}
        assert stats["twin"] == {"users": 1, "events": 1}

    def test_payload_freeze_is_deep(self, journal):
        members = [["Store", "Store", "S1"]]
        event = journal.record(
            "sales", "ana", "selection", {"members": members}
        )
        members[0][2] = "tampered"  # the caller's copy, not the journal's
        assert event.payload["members"] == (("Store", "Store", "S1"),)
        with pytest.raises(TypeError):
            event.payload["members"][0][2] = "tampered"


class TestPositions:
    def test_append_moves_only_its_users_position(self, journal):
        assert journal.positions("sales") == {}
        a = journal.record_query("sales", "ana", "Q1")
        b = journal.record_layer("sales", "bob", "Airport")
        assert journal.positions("sales") == {"ana": a.seq, "bob": b.seq}
        assert journal.positions("eu") == {}
        c = journal.record_query("eu", "cara", "Q9")
        d = journal.record_query("sales", "ana", "Q2")
        assert journal.positions("sales") == {"ana": d.seq, "bob": b.seq}
        assert journal.positions("eu") == {"cara": c.seq}
        assert journal.users("sales") == ["ana", "bob"]


class TestBoundsAndConcurrency:
    def test_per_user_history_is_capped_oldest_first(self, make_journal):
        journal = make_journal(max_events_per_user=3)
        for i in range(5):
            journal.record_query("sales", "ana", f"Q{i}")
        kept = [e.payload["q"] for e in journal.events("sales", "ana")]
        assert kept == ["Q2", "Q3", "Q4"]
        assert len(journal) == 3
        # The position is the newest event's, whatever the trim dropped.
        assert journal.positions("sales") == {"ana": 5}

    def test_invalid_cap_rejected(self, make_journal):
        with pytest.raises(ValueError):
            make_journal(max_events_per_user=0)

    def test_concurrent_appends_lose_nothing(self, journal):
        threads = [
            threading.Thread(
                target=lambda user=f"u{i}": [
                    journal.record_query("sales", user, f"Q{j}")
                    for j in range(50)
                ],
            )
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(journal) == 8 * 50
        seqs = [
            e.seq for u in journal.users("sales") for e in journal.events("sales", u)
        ]
        assert len(set(seqs)) == len(seqs)  # no duplicated sequence numbers
        assert journal.positions("sales") == {
            u: journal.events("sales", u)[-1].seq for u in journal.users("sales")
        }


class TestRecordingBackend(BackendJournals, TestRecording):
    pass


class TestPositionsBackend(BackendJournals, TestPositions):
    pass


class TestBoundsAndConcurrencyBackend(BackendJournals, TestBoundsAndConcurrency):
    pass


class TestCorruptRowsBackend(BackendJournals):
    def test_undecodable_row_is_deleted_and_frees_its_slot(self, make_journal):
        journal = make_journal(max_events_per_user=3)
        event = journal.record_query("sales", "ana", "Q0")
        journal.backend.put(
            "t:journal", f"sales\x1fana\x1f{event.seq:016d}", "{not json"
        )
        assert journal.events("sales", "ana") == []
        assert len(journal) == 0
        assert journal.stats() == {}
        assert journal.positions("sales") == {}
        for i in range(1, 4):
            journal.record_query("sales", "ana", f"Q{i}")
        kept = [e.payload["q"] for e in journal.events("sales", "ana")]
        assert kept == ["Q1", "Q2", "Q3"]
