"""Recommender ranking, exclusions and the generation-keyed memo."""

import pytest

from repro.reco import Recommender, WorkloadJournal

DM = "sales"


@pytest.fixture()
def spatial_star(world, star):
    table = star.dimension_table("Store")
    for store in world.stores:
        table.member("Store", store.name).attributes["geometry"] = store.location
    star.note_member_change("Store")
    return star


@pytest.fixture()
def seeded(world, spatial_star):
    """Journal with ana+bob on neighbouring stores, cara far away."""
    journal = WorkloadJournal()
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


class TestMemo:
    def test_repeat_call_hits_and_returns_identical_results(
        self, seeded, spatial_star
    ):
        _journal, recommender = seeded
        cold = recommender.recommend(DM, "ana", spatial_star, "queries")
        assert recommender.stats()["memo_misses"] == 1
        warm = recommender.recommend(DM, "ana", spatial_star, "queries")
        assert recommender.stats()["memo_hits"] == 1
        assert warm == cold
        # The oracle switch recomputes but must agree.
        spatial_star.oracle = True
        assert recommender.recommend(DM, "ana", spatial_star, "queries") == cold
        assert recommender.stats()["memo_hits"] == 1

    def test_journal_append_invalidates(self, seeded, spatial_star):
        journal, recommender = seeded
        recommender.recommend(DM, "ana", spatial_star, "queries")
        journal.record_query(DM, "bob", "Q_NEW")
        items, _ = recommender.recommend(DM, "ana", spatial_star, "queries")
        assert recommender.stats()["memo_hits"] == 0
        assert "Q_NEW" in [r.item["q"] for r in items]

    def test_star_mutation_invalidates(self, seeded, spatial_star, world):
        _journal, recommender = seeded
        recommender.recommend(DM, "ana", spatial_star, "queries")
        spatial_star.note_member_change("Store")
        recommender.recommend(DM, "ana", spatial_star, "queries")
        assert recommender.stats()["memo_misses"] == 2

    def test_context_key_partitions_entries(self, seeded, spatial_star):
        _journal, recommender = seeded
        recommender.recommend(
            DM, "ana", spatial_star, "queries", context_key=(1, 0)
        )
        recommender.recommend(
            DM, "ana", spatial_star, "queries", context_key=(2, 0)
        )
        assert recommender.stats()["memo_misses"] == 2

    def test_memo_size_zero_disables(self, seeded, spatial_star):
        journal, _ = seeded
        recommender = Recommender(journal, memo_size=0)
        recommender.recommend(DM, "ana", spatial_star, "queries")
        recommender.recommend(DM, "ana", spatial_star, "queries")
        assert recommender.stats() == {
            "memo_size": 0,
            "memo_hits": 0,
            "memo_misses": 0,
        }

    def test_lru_bound(self, seeded, spatial_star):
        journal, _ = seeded
        recommender = Recommender(journal, memo_size=2)
        for kind in ("queries", "layers", "members"):
            recommender.recommend(DM, "ana", spatial_star, kind)
        assert recommender.stats()["memo_size"] == 2
