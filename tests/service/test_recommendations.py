"""End-to-end recommendation subsystem over the /api/v1 surface.

Covers the PR acceptance criteria: overlapping workloads yield nonzero
mutual similarity, a similar user's query outranks dissimilar noise,
recommendations never leak outside the target's own personalization,
and repeated calls answer from the generation-keyed memo with results
identical to a cold run.
"""

import pytest

from repro.data import (
    DEMO_NOISE_QUERIES,
    DEMO_QUERY_RECOMMENDED,
    DEMO_QUERY_SHARED,
    replay_demo_workload,
)
from repro.web import PortalApp


@pytest.fixture()
def portal(engine):
    return PortalApp(engine, datamart_name="sales")


@pytest.fixture()
def tokens(portal, world):
    return replay_demo_workload(portal, world)


def get(portal, path, token, **query):
    response = portal.handle(
        "GET", path, token=token, query={k: str(v) for k, v in query.items()}
    )
    assert response.ok, response.body
    return response.json()


class TestAcceptance:
    def test_overlapping_workloads_have_nonzero_mutual_similarity(
        self, portal, tokens
    ):
        recommender = portal.service.recommender
        star = portal.registry.get("sales").engine.star
        ab = dict(recommender.similar_users("sales", "ana-garcia", star))
        ba = dict(recommender.similar_users("sales", "bruno-keller", star))
        assert ab["bruno-keller"] > 0.0
        assert ba["ana-garcia"] > 0.0
        assert ab["bruno-keller"] == pytest.approx(ba["ana-garcia"])

    def test_similar_users_query_outranks_noise(self, portal, tokens):
        payload = get(
            portal, "/api/v1/recommendations/queries", tokens["ana-garcia"]
        )
        texts = [item["item"]["q"] for item in payload["items"]]
        assert texts[0] == DEMO_QUERY_RECOMMENDED
        assert payload["items"][0]["supporters"] == ["bruno-keller"]
        # Ana already ran the shared query: never recommended back.
        assert DEMO_QUERY_SHARED not in texts
        for noise in DEMO_NOISE_QUERIES:
            if noise in texts:
                assert texts.index(noise) > 0
        peers = {p["user"]: p["score"] for p in payload["similar_users"]}
        assert peers["bruno-keller"] > peers.get("carla-diaz", 0.0)

    def test_recommended_query_executes_inside_own_selection(
        self, portal, tokens
    ):
        """Running a recommended query never leaves A's personalized view."""
        ana = tokens["ana-garcia"]
        top = get(portal, "/api/v1/recommendations/queries", ana)["items"][0]
        view = get(portal, "/api/v1/view", ana)
        assert view["fact_rows_kept"] < view["fact_rows_total"]  # restricted
        response = portal.handle(
            "POST", "/api/v1/query", {"q": top["item"]["q"]}, token=ana
        )
        assert response.ok, response.body
        assert response.json()["fact_rows_scanned"] == view["fact_rows_kept"]

    def test_layer_recommendations_confined_to_own_schema(
        self, portal, tokens
    ):
        ana = tokens["ana-garcia"]
        payload = get(portal, "/api/v1/recommendations/layers", ana)
        layers = [item["item"]["layer"] for item in payload["items"]]
        schema = get(portal, "/api/v1/schema", ana)
        assert set(layers) <= {layer["name"] for layer in schema["layers"]}
        assert "Airport" in layers  # bruno fetched it, ana never did

    def test_member_recommendations_exclude_live_selection(
        self, portal, tokens
    ):
        ana = tokens["ana-garcia"]
        record = portal.service.sessions.get(ana)
        own = {
            (dimension, level, key)
            for (dimension, level), keys in record.session.selection.members.items()
            for key in keys
        }
        assert own  # the 5km rule selected something at login
        payload = get(portal, "/api/v1/recommendations/members", ana)
        recommended = {
            (i["item"]["dimension"], i["item"]["level"], i["item"]["key"])
            for i in payload["items"]
        }
        assert recommended
        assert not recommended & own

    def test_repeated_calls_hit_memo_and_match_cold_results(
        self, portal, tokens
    ):
        ana = tokens["ana-garcia"]
        recommender = portal.service.recommender
        paths = [
            f"/api/v1/recommendations/{kind}"
            for kind in ("queries", "layers", "members")
        ]
        cold = [get(portal, path, ana) for path in paths]
        assert all(payload["items"] for payload in cold)
        assert all(payload["similar_users"] for payload in cold)
        misses = recommender.stats()["memo_misses"]
        warm = [get(portal, path, ana) for path in paths]
        stats = recommender.stats()
        assert stats["memo_hits"] >= len(paths)
        assert stats["memo_misses"] == misses
        assert warm == cold
        # Transparency: the oracle switch recomputes the same answers.
        for datamart in portal.registry:
            datamart.engine.star.oracle = True
        assert [get(portal, path, ana) for path in paths] == cold
        assert recommender.stats()["memo_hits"] == stats["memo_hits"]

    def test_new_workload_invalidates_memo(self, portal, tokens):
        ana, bruno = tokens["ana-garcia"], tokens["bruno-keller"]
        get(portal, "/api/v1/recommendations/queries", ana)
        fresh = "SELECT SUM(StoreCost) FROM Sales BY Store.State"
        assert portal.handle(
            "POST", "/api/v1/query", {"q": fresh}, token=bruno
        ).ok
        payload = get(portal, "/api/v1/recommendations/queries", ana)
        assert fresh in [item["item"]["q"] for item in payload["items"]]


class TestJournalingControls:
    def test_opt_out_at_login(self, portal, tokens, world):
        location = world.stores[0].location
        response = portal.handle(
            "POST",
            "/api/v1/login",
            {
                "user": "ana-garcia",
                "location": [location.x, location.y],
                "journal": False,
            },
        )
        assert response.ok and response.json()["journal"] is False
        token = response.json()["token"]
        before = len(portal.service.journal.events("sales", "ana-garcia"))
        assert portal.handle(
            "POST", "/api/v1/query", {"q": DEMO_QUERY_SHARED}, token=token
        ).ok
        assert portal.handle(
            "GET", "/api/v1/layers/Airport", token=token
        ).ok
        after = len(portal.service.journal.events("sales", "ana-garcia"))
        assert after == before  # nothing journaled for the opted-out session

    def test_journal_flag_must_be_boolean(self, portal):
        response = portal.handle(
            "POST", "/api/v1/login", {"user": "ana-garcia", "journal": "no"}
        )
        assert response.status == 400

    def test_query_cache_hits_are_still_journaled(self, portal, tokens):
        ana = tokens["ana-garcia"]
        q = "SELECT SUM(UnitSales) FROM Sales BY Store.State"
        for _ in range(3):  # second and third answer from the query cache
            assert portal.handle(
                "POST", "/api/v1/query", {"q": q}, token=ana
            ).ok
        assert portal.service.query_cache_hits >= 1
        events = [
            e
            for e in portal.service.journal.events("sales", "ana-garcia")
            if e.kind == "query" and e.payload["q"] == q
        ]
        assert len(events) == 3


class TestHealth:
    def test_health_is_public_and_complete(self, portal, tokens):
        response = portal.handle("GET", "/api/v1/health")
        assert response.ok
        payload = response.json()
        assert payload["status"] == "ok"
        (sales,) = payload["datamarts"]
        assert sales["name"] == "sales"
        assert sales["sessions_started"] == 3
        assert sales["star_generation"] > 0
        assert payload["active_sessions"] == 3
        assert set(payload["query_cache"]) == {
            "size",
            "max_size",
            "hits",
            "misses",
            "hit_rate",
        }
        assert payload["journal"]["sales"]["users"] == 3
        assert payload["journal"]["sales"]["events"] > 0
        assert set(payload["recommender"]) == {
            "memo_size",
            "memo_hits",
            "memo_misses",
            "memo_hit_rate",
        }

    def test_unknown_recommendation_kind_is_404(self, portal, tokens):
        response = portal.handle(
            "GET", "/api/v1/recommendations/facts", token=tokens["ana-garcia"]
        )
        assert response.status == 404
        assert response.body["error"]["code"] == "unknown_recommendation_kind"

    def test_auth_is_checked_before_kind(self, portal, tokens):
        """Anonymous clients cannot probe which kinds exist: 401 either way."""
        for kind in ("queries", "facts"):
            response = portal.handle("GET", f"/api/v1/recommendations/{kind}")
            assert response.status == 401
