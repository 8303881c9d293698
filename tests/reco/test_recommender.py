"""Recommender ranking, exclusions and the position-keyed cache of each
user's summary and profile."""

from collections import Counter

import pytest

from repro.cluster.backend import InMemoryBackend, SqliteBackend
from repro.cluster.stores import BackendWorkloadJournal
from repro.geomd import GeometricType
from repro.reco import Recommender, WorkloadJournal
from repro.reco.recommender import KINDS, PROFILE_CACHE_SIZE

DM = "sales"


@pytest.fixture()
def journal():
    return WorkloadJournal()


@pytest.fixture()
def spatial_star(world, star):
    star.become_spatial(
        "Store.Store",
        GeometricType.POINT,
        {store.name: store.location for store in world.stores},
    )
    return star


@pytest.fixture()
def seeded(world, spatial_star, journal):
    """Journal with ana+bob on neighbouring stores, cara far away."""
    anchor = world.stores[0]
    neighbour = next(s for s in world.stores[1:] if s.city == anchor.city)
    far = max(
        world.stores, key=lambda s: anchor.location.distance_to(s.location)
    )

    def select(user, store):
        journal.record_selection(
            DM, user, "GeoMD.Store.City", "c", [("Store", "Store", store.name)]
        )

    select("ana", anchor)
    select("bob", neighbour)
    select("cara", far)
    journal.record_query(DM, "ana", "Q_SHARED")
    journal.record_query(DM, "bob", "Q_SHARED")
    journal.record_query(DM, "bob", "Q_BOB")
    journal.record_query(DM, "cara", "Q_NOISE")
    journal.record_layer(DM, "bob", "Airport")
    journal.record_layer(DM, "cara", "Train")
    return journal, Recommender(journal)


class TestRanking:
    def test_similar_users_ranked_and_self_excluded(self, seeded, spatial_star):
        _journal, recommender = seeded
        ranked = recommender.similar_users(DM, "ana", spatial_star)
        assert [user for user, _ in ranked] == ["bob", "cara"]
        assert ranked[0][1] > ranked[1][1] > 0.0

    def test_query_recommendations_rank_peer_over_noise(
        self, seeded, spatial_star
    ):
        _journal, recommender = seeded
        items, neighbours = recommender.recommend(DM, "ana", spatial_star, "queries")
        texts = [r.item["q"] for r in items]
        # Q_SHARED is excluded (ana ran it); bob's query outranks cara's.
        assert texts == ["Q_BOB", "Q_NOISE"]
        assert items[0].supporters == ("bob",)
        assert items[0].score > items[1].score
        assert [u for u, _ in neighbours] == ["bob", "cara"]

    def test_supporter_votes_accumulate(self, seeded, spatial_star):
        journal, recommender = seeded
        journal.record_query(DM, "cara", "Q_BOB")
        items, _ = recommender.recommend(DM, "ana", spatial_star, "queries")
        top = items[0]
        assert top.item["q"] == "Q_BOB"
        assert top.supporters == ("bob", "cara")

    def test_layer_recommendations_respect_allowed_set(
        self, seeded, spatial_star
    ):
        _journal, recommender = seeded
        items, _ = recommender.recommend(DM, "ana", spatial_star, "layers")
        assert [r.item["layer"] for r in items] == ["Airport", "Train"]
        confined, _ = recommender.recommend(
            DM, "ana", spatial_star, "layers", allowed_layers={"Airport"}
        )
        assert [r.item["layer"] for r in confined] == ["Airport"]

    def test_member_recommendations_exclude_own_and_live_selection(
        self, seeded, spatial_star, world
    ):
        _journal, recommender = seeded
        anchor = world.stores[0]
        neighbour = next(s for s in world.stores[1:] if s.city == anchor.city)
        items, _ = recommender.recommend(DM, "ana", spatial_star, "members")
        keys = {r.item["key"] for r in items}
        assert anchor.name not in keys  # journaled own selection
        assert neighbour.name in keys
        items, _ = recommender.recommend(
            DM,
            "ana",
            spatial_star,
            "members",
            exclude_members=[("Store", "Store", neighbour.name)],
        )
        assert neighbour.name not in {r.item["key"] for r in items}

    def test_unknown_kind_rejected(self, seeded, spatial_star):
        _journal, recommender = seeded
        with pytest.raises(ValueError, match="unknown recommendation kind"):
            recommender.recommend(DM, "ana", spatial_star, "facts")

    def test_user_without_history_gets_nothing(self, seeded, spatial_star):
        _journal, recommender = seeded
        items, neighbours = recommender.recommend(
            DM, "nobody", spatial_star, "queries"
        )
        assert items == [] and neighbours == []


def lookups(recommender):
    stats = recommender.stats()
    return stats["memo_hits"], stats["memo_misses"]


class TestMemo:
    """The cache of each user's summary and spatial profile, which the
    ``memo_*`` stats count.  Each entry is keyed on its user's journal
    position and the star's metadata generation, so exactly the events
    it reads make it miss."""

    def test_repeat_call_hits_and_returns_identical_results(
        self, seeded, spatial_star
    ):
        _journal, recommender = seeded
        cold = recommender.recommend(DM, "ana", spatial_star, "queries")
        assert lookups(recommender) == (0, 3)
        warm = recommender.recommend(DM, "ana", spatial_star, "queries")
        assert lookups(recommender) == (3, 3)
        assert warm == cold
        # The oracle switch recomputes but must agree.
        spatial_star.oracle = True
        assert recommender.recommend(DM, "ana", spatial_star, "queries") == cold
        assert lookups(recommender) == (3, 3)

    def test_journal_append_invalidates(self, seeded, spatial_star):
        """Another user's append rebuilds that user's profile only."""
        journal, recommender = seeded
        recommender.recommend(DM, "ana", spatial_star, "queries")
        journal.record_query(DM, "bob", "Q_NEW")
        items, _ = recommender.recommend(DM, "ana", spatial_star, "queries")
        assert lookups(recommender) == (2, 4)
        assert "Q_NEW" in [r.item["q"] for r in items]

    def test_own_append_misses(self, seeded, spatial_star, world):
        journal, recommender = seeded
        recommender.recommend(DM, "ana", spatial_star, "members")
        journal.record_selection(
            DM,
            "ana",
            "GeoMD.Store.City",
            "c",
            [("Store", "Store", world.stores[-1].name)],
        )
        warm = recommender.recommend(DM, "ana", spatial_star, "members")
        assert lookups(recommender) == (2, 4)
        assert warm == Recommender(journal).recommend(
            DM, "ana", spatial_star, "members"
        )

    def test_star_mutation_invalidates(self, seeded, spatial_star):
        """A member mutation misses every profile."""
        journal, recommender = seeded
        recommender.recommend(DM, "ana", spatial_star, "queries")
        spatial_star.add_member("Product", "Family", "Exotic")
        warm = recommender.recommend(DM, "ana", spatial_star, "queries")
        assert lookups(recommender) == (0, 6)
        assert warm == Recommender(journal).recommend(
            DM, "ana", spatial_star, "queries"
        )

    def test_fact_append_hits(self, seeded, spatial_star):
        _journal, recommender = seeded
        cold = recommender.recommend(DM, "ana", spatial_star, "queries")
        table = spatial_star.fact_table()
        row = table.row(0)
        spatial_star.insert_fact(
            table.fact.name,
            {d: row[d] for d in table.fact.dimension_names},
            {m: row[m] for m in table.fact.measures},
        )
        assert recommender.recommend(DM, "ana", spatial_star, "queries") == cold
        assert lookups(recommender) == (3, 3)

    def test_lru_bound(self, journal, spatial_star, world):
        for i in range(PROFILE_CACHE_SIZE + 8):
            journal.record_selection(
                DM,
                f"u{i:04d}",
                "GeoMD.Store.City",
                "c",
                [("Store", "Store", world.stores[i % len(world.stores)].name)],
            )
        recommender = Recommender(journal)
        recommender.recommend(DM, "u0000", spatial_star, "queries")
        stats = recommender.stats()
        assert stats["max_size"] == PROFILE_CACHE_SIZE
        assert stats["memo_size"] == PROFILE_CACHE_SIZE


class TestMemoSqlite(TestMemo):
    """The same cache over a journal kept in a sqlite backend."""

    @pytest.fixture()
    def journal(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "state.sqlite"))
        yield BackendWorkloadJournal(backend, namespace="t")
        backend.close()

    def test_append_in_another_process_rebuilds_that_profile(
        self, seeded, spatial_star, tmp_path
    ):
        """Two journals on one sqlite file, each over its own connection
        and with its own recommender: an append through the first makes
        the second rebuild that user's profile, and only that one."""
        journal, _recommender = seeded
        backend = SqliteBackend(str(tmp_path / "state.sqlite"))
        try:
            other = BackendWorkloadJournal(backend, namespace="t")
            second = Recommender(other)
            second.recommend(DM, "ana", spatial_star, "queries")
            journal.record_query(DM, "bob", "Q_NEW")
            warm = second.recommend(DM, "ana", spatial_star, "queries")
            assert lookups(second) == (2, 4)
            assert "Q_NEW" in [r.item["q"] for r in warm[0]]
            assert warm == Recommender(other).recommend(
                DM, "ana", spatial_star, "queries"
            )
        finally:
            backend.close()


class TestHistoryReads:
    """A recommendation reads each journaled user's history at most once
    (the candidates come from the summaries the ranking read), and a
    repeat with no journal append and no star write reads none."""

    @pytest.fixture(params=["heap", "memory", "sqlite"])
    def journal(self, request, tmp_path):
        if request.param == "heap":
            yield WorkloadJournal()
            return
        backend = (
            InMemoryBackend()
            if request.param == "memory"
            else SqliteBackend(str(tmp_path / "state.sqlite"))
        )
        yield BackendWorkloadJournal(backend, namespace="t")
        backend.close()

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_history_is_read_once_then_never(
        self, seeded, spatial_star, monkeypatch, kind
    ):
        journal, recommender = seeded
        reads = Counter()
        events = journal.events

        def counted(datamart, user_id):
            reads[user_id] += 1
            return events(datamart, user_id)

        monkeypatch.setattr(journal, "events", counted)
        items, neighbours = recommender.recommend(DM, "ana", spatial_star, kind)
        assert items and [user for user, _ in neighbours] == ["bob", "cara"]
        assert reads == {"ana": 1, "bob": 1, "cara": 1}
        reads.clear()
        assert recommender.recommend(DM, "ana", spatial_star, kind) == (
            items,
            neighbours,
        )
        assert reads == {}
