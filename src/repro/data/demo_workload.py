"""A multi-user demo workload on the paper's sales datamart.

Three regional sales managers exercise the portal so the recommendation
subsystem has journals to mine:

* **Ana** and **Bruno** work on neighbouring stores of the *same* city —
  their 5km instance selections overlap, so their spatial profiles are
  similar.  Ana only runs the family roll-up query; Bruno additionally
  runs the per-city revenue query and fetches the ``Airport`` layer —
  exactly the items the recommender should surface to Ana.
* **Carla** logs in at the store farthest from Ana's and runs unrelated
  "noise" queries; her similarity to Ana is low, so her workload ranks
  below Bruno's in Ana's recommendations.

Used by the examples and the recommendation tests (whose cold/memo
transparency check covers all three recommendation kinds); everything
rides the public ``/api/v1`` surface so the journals are populated
through the exact production path.
"""

from __future__ import annotations

from repro.data.user_models import build_regional_manager_profile
from repro.data.world import World
from repro.sus.model import UserModelSchema

__all__ = [
    "DEMO_USERS",
    "DEMO_QUERY_SHARED",
    "DEMO_QUERY_RECOMMENDED",
    "DEMO_NOISE_QUERIES",
    "DEMO_SELECTION_TARGET",
    "DEMO_SELECTION_CONDITION",
    "build_demo_profiles",
    "replay_demo_workload",
]

#: user_id -> display name of the demo analysts.
DEMO_USERS = {
    "ana-garcia": "Ana Garcia",
    "bruno-keller": "Bruno Keller",
    "carla-diaz": "Carla Diaz",
}

#: Run by both Ana and Bruno (never recommended: Ana already ran it).
DEMO_QUERY_SHARED = "SELECT SUM(UnitSales) FROM Sales BY Product.Family"
#: Run only by Bruno — the query the recommender should rank first for Ana.
DEMO_QUERY_RECOMMENDED = "SELECT SUM(StoreSales) FROM Sales BY Store.City"
#: Carla's unrelated workload.
DEMO_NOISE_QUERIES = (
    "SELECT SUM(StoreCost) FROM Sales BY Time.Month",
    "SELECT SUM(UnitSales) FROM Sales BY Customer.City",
)
#: The Example 5.3 selection report every analyst files (it also snapshots
#: each session's member selection into the journal).
DEMO_SELECTION_TARGET = "GeoMD.Store.City"
DEMO_SELECTION_CONDITION = (
    "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km"
)


def build_demo_profiles(schema: UserModelSchema | None = None) -> dict:
    """The three demo analysts' profiles, keyed by user id."""
    return {
        user_id: build_regional_manager_profile(schema, name=name)
        for user_id, name in DEMO_USERS.items()
    }


def _demo_locations(world: World):
    """(ana, bruno, carla) login locations: two neighbours, one far away."""
    anchor = world.stores[0]
    neighbour = next(
        (s for s in world.stores[1:] if s.city == anchor.city),
        world.stores[1],
    )
    far = max(
        world.stores,
        key=lambda s: anchor.location.distance_to(s.location),
    )
    return anchor.location, neighbour.location, far.location


def replay_demo_workload(app, world: World, datamart: str | None = None) -> dict:
    """Register the demo analysts and replay their workloads through
    ``/api/v1``, returning ``{user_id: live session token}``.

    ``app`` is a :class:`~repro.web.portal.PortalApp` whose target
    datamart hosts the paper's sales star with the Section 5 rules.
    """
    for profile in build_demo_profiles().values():
        app.register_user(profile, datamart)

    ana_loc, bruno_loc, carla_loc = _demo_locations(world)
    tokens: dict[str, str] = {}
    for user_id, location in (
        ("ana-garcia", ana_loc),
        ("bruno-keller", bruno_loc),
        ("carla-diaz", carla_loc),
    ):
        body: dict = {"user": user_id, "location": [location.x, location.y]}
        if datamart is not None:
            body["datamart"] = datamart
        response = app.handle("POST", "/api/v1/login", body)
        assert response.ok, response.body
        tokens[user_id] = response.json()["token"]

    def post(path: str, body: dict, user_id: str) -> None:
        response = app.handle("POST", path, body, token=tokens[user_id])
        assert response.ok, response.body

    # Every analyst files the paper's selection report: it journals each
    # session's member-selection snapshot (the similarity footprint).
    for user_id in tokens:
        post(
            "/api/v1/selection",
            {
                "target": DEMO_SELECTION_TARGET,
                "condition": DEMO_SELECTION_CONDITION,
            },
            user_id,
        )

    post("/api/v1/query", {"q": DEMO_QUERY_SHARED}, "ana-garcia")
    post("/api/v1/query", {"q": DEMO_QUERY_SHARED}, "bruno-keller")
    post("/api/v1/query", {"q": DEMO_QUERY_RECOMMENDED}, "bruno-keller")
    layers = app.handle(
        "GET", "/api/v1/layers/Airport", token=tokens["bruno-keller"]
    )
    assert layers.ok, layers.body
    for noise in DEMO_NOISE_QUERIES:
        post("/api/v1/query", {"q": noise}, "carla-diaz")
    return tokens
