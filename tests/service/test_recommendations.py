"""End-to-end recommendation subsystem over the /api/v1 surface.

Overlapping workloads yield nonzero mutual similarity, a similar user's
query outranks dissimilar noise, recommendations never leak outside the
target's own personalization, every recommended query runs for its
requester, and repeated calls answer from the
position-keyed profile cache with results identical to a cold run.  The
differential gate replays a schedule of re-logins, selection reports,
queries and layer fetches on two demo portals, one with the ``oracle``
switch set, and every recommendation body must be equal.
"""

import pytest

from repro.cluster.backend import InMemoryBackend, SqliteBackend
from repro.cluster.config import make_journal, make_service_stores
from repro.data import (
    ALL_PAPER_RULES,
    DEMO_NOISE_QUERIES,
    DEMO_QUERY_RECOMMENDED,
    DEMO_QUERY_SHARED,
    DEMO_SELECTION_CONDITION,
    DEMO_SELECTION_TARGET,
    DEMO_USERS,
    WorldGeoSource,
    build_motivating_user_model,
    build_regional_manager_profile,
    build_sales_star,
    replay_demo_workload,
)
from repro.personalization import PersonalizationEngine
from repro.service import DatamartRegistry, PersonalizationService
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


#: Example 5.3's selection report: four of them take a manager past the
#: threshold of 3, and the next login adds the Train layer.
CITY_REPORT = {
    "target": "GeoMD.Store.City",
    "condition": "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km",
}
TRAIN_QUERY = (
    "SELECT COUNT(*) FROM Sales WHERE DISTANCE(Store.City, LAYER Train) < 50 KM"
)
CITY_QUERY = "SELECT SUM(UnitSales) FROM Sales BY Store.City"


class TestRunnableByTheRequester:
    """A recommended query is one its requester can run.

    ana-garcia passes Example 5.3's threshold, so her next session's
    schema has the Train layer and her Train query answers.  bo-manager
    files one report and stays below it: his schema has no Train layer,
    so the Train query is not offered to him, while ana-garcia's other
    query is, and every offered query answers 200 for him.
    """

    @pytest.fixture(params=["in_heap", "backend"])
    def app(self, request, world):
        engine = PersonalizationEngine(
            build_sales_star(world),
            build_motivating_user_model(),
            geo_source=WorldGeoSource(world),
            parameters={"threshold": 3},
        )
        engine.add_rules(ALL_PAPER_RULES.values())
        registry = DatamartRegistry()
        tenant = registry.register("sales", engine, default=True)
        for name in ("Ana Garcia", "Bo Manager"):
            tenant.register_user(
                build_regional_manager_profile(
                    build_motivating_user_model(), name=name
                )
            )
        backend = InMemoryBackend() if request.param == "backend" else None
        return PortalApp(
            service=PersonalizationService(
                registry, **make_service_stores(backend)
            )
        )

    @staticmethod
    def _ok(app, method, path, body=None, token=None):
        response = app.handle(method, path, body, token=token)
        assert response.ok, response.body
        return response.json()

    def _login(self, app, world, user):
        location = world.stores[0].location
        return self._ok(
            app,
            "POST",
            "/api/v1/login",
            {"user": user, "location": [location.x, location.y]},
        )["token"]

    def test_every_recommended_query_answers(self, app, world):
        ana = self._login(app, world, "ana-garcia")
        for _ in range(4):
            self._ok(app, "POST", "/api/v1/selection", CITY_REPORT, ana)
        ana = self._login(app, world, "ana-garcia")
        for q in (TRAIN_QUERY, CITY_QUERY):
            self._ok(app, "POST", "/api/v1/query", {"q": q}, ana)
        bo = self._login(app, world, "bo-manager")
        self._ok(app, "POST", "/api/v1/selection", CITY_REPORT, bo)

        payload = self._ok(
            app, "GET", "/api/v1/recommendations/queries", token=bo
        )
        texts = [item["item"]["q"] for item in payload["items"]]
        for q in texts:
            response = app.handle("POST", "/api/v1/query", {"q": q}, token=bo)
            assert response.status == 200, (q, response.body)
        assert texts == [CITY_QUERY]
        assert payload["page"]["total"] == 1


GATE_STEPS = 12
KINDS = ("queries", "layers", "members")
SELECTION = {
    "target": DEMO_SELECTION_TARGET,
    "condition": DEMO_SELECTION_CONDITION,
}
#: What each step runs after its selection report, in turn.
GATE_REQUESTS = [
    ("POST", "/api/v1/query", {"q": DEMO_QUERY_SHARED}),
    ("GET", "/api/v1/layers/Airport", None),
    ("POST", "/api/v1/query", {"q": DEMO_QUERY_RECOMMENDED}),
    ("POST", "/api/v1/query", {"q": DEMO_NOISE_QUERIES[0]}),
    ("POST", "/api/v1/query", {"q": DEMO_NOISE_QUERIES[1]}),
]


class TestDifferentialGate:
    """Recommendations with the profile cache answer like the oracle.

    Two demo portals, one with its star's ``oracle`` switch set, run the
    same schedule.  Each step re-logs one demo user in at another store,
    files Example 5.3's selection report and a query or layer fetch, and
    then asks both portals for every kind of recommendation for every
    user.  Every report moves its user's journal position, so a profile
    served past it would show in the bodies.
    """

    @pytest.fixture(params=["in_heap", "sqlite"])
    def make_portal(self, request, world, tmp_path):
        backends = []

        def make(oracle):
            journal = None
            if request.param == "sqlite":
                backend = SqliteBackend(str(tmp_path / f"{oracle}.sqlite"))
                backends.append(backend)
                journal = make_journal(backend=backend, namespace="gate")
            engine = PersonalizationEngine(
                build_sales_star(world),
                build_motivating_user_model(),
                geo_source=WorldGeoSource(world),
                parameters={"threshold": 3},
            )
            engine.add_rules(ALL_PAPER_RULES.values())
            engine.star.oracle = oracle
            registry = DatamartRegistry()
            registry.register("sales", engine, default=True)
            app = PortalApp(
                service=PersonalizationService(registry, journal=journal)
            )
            return app, replay_demo_workload(app, world)

        yield make
        for backend in backends:
            backend.close()

    def test_every_recommendation_equals_the_oracle_portal(
        self, make_portal, world
    ):
        portals = [make_portal(oracle=False), make_portal(oracle=True)]
        users = list(DEMO_USERS)
        bodies = 0
        nonempty = 0
        for step in range(GATE_STEPS):
            user = users[step % len(users)]
            store = world.stores[(7 * step + 3) % len(world.stores)]
            method, path, body = GATE_REQUESTS[step % len(GATE_REQUESTS)]
            requests = [
                ("POST", "/api/v1/selection", SELECTION, user),
                (method, path, body, user),
            ] + [
                ("GET", f"/api/v1/recommendations/{kind}", None, other)
                for other in users
                for kind in KINDS
            ]
            answers = []
            for app, tokens in portals:
                login = app.handle(
                    "POST",
                    "/api/v1/login",
                    {
                        "user": user,
                        "location": [store.location.x, store.location.y],
                    },
                )
                assert login.ok, login.body
                tokens[user] = login.json()["token"]
                step_bodies = []
                for verb, route, payload, owner in requests:
                    response = app.handle(
                        verb, route, payload, token=tokens[owner]
                    )
                    assert response.ok, response.body
                    step_bodies.append(response.body)
                answers.append(step_bodies)
            cached, oracle = answers
            assert cached == oracle, f"step {step} differs"
            recommendations = cached[2:]
            bodies += len(recommendations)
            nonempty += sum(1 for body in recommendations if body["items"])
        assert bodies == GATE_STEPS * len(users) * len(KINDS)
        assert nonempty * 2 >= bodies


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

    def test_repeated_queries_are_each_journaled(self, portal, tokens):
        ana = tokens["ana-garcia"]
        q = "SELECT SUM(UnitSales) FROM Sales BY Store.State"
        for _ in range(3):
            assert portal.handle(
                "POST", "/api/v1/query", {"q": q}, token=ana
            ).ok
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
        assert "query_cache" not in payload
        assert payload["journal"]["sales"]["users"] == 3
        assert payload["journal"]["sales"]["events"] > 0
        assert set(payload["recommender"]) == {
            "memo_size",
            "max_size",
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
