"""The web-based personalization loop through the versioned portal API.

Simulates what a GeWOlap-style web client would do against ``/api/v1``:
login on a named datamart (rules fire), inspect the personalized schema,
run GeoMDQL queries with pagination, report spatial selections, watch
the view widen, log out.  Everything is in-process; to serve over a real
socket use ``repro.web.server.serve(app)`` or ``python -m repro serve``.

Run:  python examples/web_portal_demo.py
"""

from repro.data import (
    ALL_PAPER_RULES,
    WorldGeoSource,
    build_motivating_user_model,
    build_regional_manager_profile,
    build_sales_star,
    generate_world,
)
from repro.personalization import PersonalizationEngine
from repro.web import PortalApp

CONDITION = "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km"


def show(title: str, response) -> None:
    print(f"\n=== {title} [{response.status}] ===")
    print(response.text())


def main() -> None:
    world = generate_world()
    star = build_sales_star(world)
    engine = PersonalizationEngine(
        star,
        build_motivating_user_model(),
        geo_source=WorldGeoSource(world),
        parameters={"threshold": 3},
    )
    engine.add_rules(ALL_PAPER_RULES.values())

    app = PortalApp(engine, datamart_name="sales")
    profile = build_regional_manager_profile()
    app.register_user(profile)

    show("GET /api/v1/datamarts", app.handle("GET", "/api/v1/datamarts"))

    location = world.stores[0].location
    login = app.handle(
        "POST",
        "/api/v1/login",
        {
            "user": profile.user_id,
            "datamart": "sales",
            "location": [location.x, location.y],
        },
    )
    show("POST /api/v1/login", login)
    token = login.json()["token"]

    show("GET /api/v1/view", app.handle("GET", "/api/v1/view", token=token))
    show(
        "POST /api/v1/query (limit=3)",
        app.handle(
            "POST",
            "/api/v1/query",
            {
                "q": "SELECT SUM(UnitSales) FROM Sales BY Store.City",
                "limit": 3,
            },
            token=token,
        ),
    )

    for i in range(4):
        response = app.handle(
            "POST",
            "/api/v1/selection",
            {"target": "GeoMD.Store.City", "condition": CONDITION},
            token=token,
        )
        print(
            f"selection #{i + 1}: matched rules = "
            f"{response.json()['matched_rules']}"
        )
    show(
        "POST /api/v1/selection/rerun",
        app.handle("POST", "/api/v1/selection/rerun", token=token),
    )
    show(
        "GET /api/v1/layers/Train?limit=2",
        app.handle(
            "GET", "/api/v1/layers/Train", token=token, query={"limit": "2"}
        ),
    )

    show("POST /api/v1/logout", app.handle("POST", "/api/v1/logout", token=token))


if __name__ == "__main__":
    main()
