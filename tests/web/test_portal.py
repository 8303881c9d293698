"""Tests for the web portal: the full web-personalization loop."""

import pytest

from repro.web import PortalApp


@pytest.fixture()
def portal(engine, profile):
    app = PortalApp(engine)
    app.register_user(profile)
    return app


def _login(portal, profile, world, with_location=True):
    body = {"user": profile.user_id}
    if with_location:
        location = world.stores[0].location
        body["location"] = [location.x, location.y]
    response = portal.handle("POST", "/api/v1/login", body)
    assert response.ok, response.body
    return response.json()["token"]


class TestLogin:
    def test_login_fires_rules(self, portal, profile, world):
        response = portal.handle(
            "POST",
            "/api/v1/login",
            {
                "user": profile.user_id,
                "location": [world.stores[0].location.x, world.stores[0].location.y],
            },
        )
        assert response.ok
        payload = response.json()
        assert "addSpatiality" in payload["rules_fired"]
        assert payload["view"]["fact_rows_kept"] < payload["view"]["fact_rows_total"]

    def test_unknown_user(self, portal):
        response = portal.handle("POST", "/api/v1/login", {"user": "nobody"})
        assert response.status == 404

    def test_missing_user_field(self, portal):
        assert portal.handle("POST", "/api/v1/login", {}).status == 400

    def test_bad_location(self, portal, profile):
        response = portal.handle(
            "POST", "/api/v1/login", {"user": profile.user_id, "location": [1]}
        )
        assert response.status == 400

    def test_request_without_token(self, portal):
        assert portal.handle("GET", "/api/v1/view").status == 401

    def test_invalid_token(self, portal):
        response = portal.handle("GET", "/api/v1/view", token="tok-999")
        assert response.status == 401


class TestAnalysisFlow:
    def test_view_and_schema(self, portal, profile, world):
        token = _login(portal, profile, world)
        view = portal.handle("GET", "/api/v1/view", token=token)
        assert view.ok
        assert view.json()["members_selected"] >= 1
        schema = portal.handle("GET", "/api/v1/schema", token=token)
        assert schema.ok
        layer_names = [layer["name"] for layer in schema.json()["layers"]]
        assert "Airport" in layer_names

    def test_query_over_personalized_view(self, portal, profile, world):
        token = _login(portal, profile, world)
        response = portal.handle(
            "POST",
            "/api/v1/query",
            {"q": "SELECT SUM(UnitSales) FROM Sales BY Product.Family"},
            token=token,
        )
        assert response.ok
        payload = response.json()
        view = portal.handle("GET", "/api/v1/view", token=token).json()
        assert payload["fact_rows_scanned"] == view["fact_rows_kept"]

    def test_bad_query(self, portal, profile, world):
        token = _login(portal, profile, world)
        response = portal.handle(
            "POST", "/api/v1/query", {"q": "SELEKT nothing"}, token=token
        )
        assert response.status == 400  # QueryError -> structured query_error
        assert response.json()["error"]["code"] == "query_error"

    def test_layer_endpoint(self, portal, profile, world):
        token = _login(portal, profile, world)
        response = portal.handle("GET", "/api/v1/layers/Airport", token=token)
        assert response.ok
        features = response.json()["features"]
        assert len(features) == len(world.airports)
        assert features[0]["wkt"].startswith("POINT")

    def test_unknown_layer(self, portal, profile, world):
        token = _login(portal, profile, world)
        response = portal.handle("GET", "/api/v1/layers/Rivers", token=token)
        assert response.status == 404

    def test_me_endpoint(self, portal, profile, world):
        token = _login(portal, profile, world)
        me = portal.handle("GET", "/api/v1/me", token=token)
        assert me.json()["user_id"] == profile.user_id


class TestSelectionLoop:
    CONDITION = (
        "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km"
    )

    def test_selection_event_updates_profile(self, portal, profile, world):
        token = _login(portal, profile, world)
        response = portal.handle(
            "POST",
            "/api/v1/selection",
            {"target": "GeoMD.Store.City", "condition": self.CONDITION},
            token=token,
        )
        assert response.ok
        assert response.json()["matched_rules"] == ["IntAirportCity"]

    def test_full_widening_loop(self, portal, profile, world):
        token = _login(portal, profile, world)
        view = portal.handle("GET", "/api/v1/view", token=token)
        before = view.json()["fact_rows_kept"]
        for _ in range(4):
            portal.handle(
                "POST",
                "/api/v1/selection",
                {"target": "GeoMD.Store.City", "condition": self.CONDITION},
                token=token,
            )
        rerun = portal.handle("POST", "/api/v1/selection/rerun", token=token)
        assert rerun.ok
        after = rerun.json()["view"]["fact_rows_kept"]
        assert after > before

    def test_missing_fields(self, portal, profile, world):
        token = _login(portal, profile, world)
        response = portal.handle(
            "POST", "/api/v1/selection", {"target": "x"}, token=token
        )
        assert response.status == 400


class TestLogout:
    def test_logout_invalidates_token(self, portal, profile, world):
        token = _login(portal, profile, world)
        response = portal.handle("POST", "/api/v1/logout", token=token)
        assert response.ok
        assert portal.handle("GET", "/api/v1/view", token=token).status == 401

    def test_two_sequential_sessions(self, portal, profile, world):
        token1 = _login(portal, profile, world)
        portal.handle("POST", "/api/v1/logout", token=token1)
        token2 = _login(portal, profile, world)
        assert token1 != token2
        assert portal.handle("GET", "/api/v1/view", token=token2).ok
