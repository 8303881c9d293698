"""Tests for the Fig. 2 schema, Fig. 4 user model and the geo source."""

from repro.data import (
    ALL_PAPER_RULES,
    WorldGeoSource,
    build_motivating_user_model,
    build_regional_manager_profile,
    build_sales_schema,
)
from repro.geometry import LineString, Point, Polygon
from repro.mdm import ResolvedAttribute
from repro.prml import parse_rule
from repro.sus import SUSStereotype


class TestSalesSchema:
    def test_paper_dimensions(self):
        schema = build_sales_schema()
        assert set(schema.dimensions) == {"Customer", "Store", "Product", "Time"}

    def test_paper_measures(self):
        schema = build_sales_schema()
        assert set(schema.fact("Sales").measures) == {
            "UnitSales",
            "StoreCost",
            "StoreSales",
        }

    def test_store_hierarchy(self):
        schema = build_sales_schema()
        assert schema.dimension("Store").rollup_path("State") == (
            "Store",
            "City",
            "State",
        )

    def test_paper_path_resolves(self):
        # Section 4.2.2: "to refer to the name on the State we use
        # MD.Sale.Store.State.name" (fact spelled Sales in Fig. 2).
        schema = build_sales_schema()
        resolved = schema.resolve(["Sales", "Store", "State", "name"])
        assert isinstance(resolved, ResolvedAttribute)


class TestUserModel:
    def test_fig4_classes(self):
        schema = build_motivating_user_model()
        assert schema.cls("DecisionMaker").stereotype is SUSStereotype.USER
        assert schema.cls("Role").stereotype is SUSStereotype.CHARACTERISTIC
        assert schema.cls("Session").stereotype is SUSStereotype.SESSION
        assert (
            schema.cls("Location").stereotype is SUSStereotype.LOCATION_CONTEXT
        )
        assert (
            schema.cls("AirportCity").stereotype
            is SUSStereotype.SPATIAL_SELECTION
        )

    def test_fig4_roles(self):
        schema = build_motivating_user_model()
        assert schema.navigate("DecisionMaker", "dm2role") == ("association", "Role")
        assert schema.navigate("DecisionMaker", "dm2session") == (
            "association",
            "Session",
        )
        assert schema.navigate("Session", "s2location") == (
            "association",
            "Location",
        )
        assert schema.navigate("DecisionMaker", "dm2airportcity") == (
            "association",
            "AirportCity",
        )

    def test_regional_manager_profile(self):
        profile = build_regional_manager_profile()
        assert (
            profile.get("DecisionMaker.dm2role.name") == "RegionalSalesManager"
        )
        assert not profile.in_session

    def test_profile_with_location(self):
        profile = build_regional_manager_profile(location=Point(1, 2))
        assert profile.in_session


class TestGeoSource:
    def test_airport_layer(self, world):
        source = WorldGeoSource(world)
        features = source.layer_features("Airport")
        assert len(features) == len(world.airports)
        assert all(isinstance(geom, Point) for _n, geom, _a in features)

    def test_train_layer(self, world):
        source = WorldGeoSource(world)
        features = source.layer_features("Train")
        assert len(features) == len(world.train_lines)
        assert all(isinstance(geom, LineString) for _n, geom, _a in features)

    def test_unknown_layer_is_none(self, world):
        assert WorldGeoSource(world).layer_features("Rivers") is None

    def test_level_geometries(self, world):
        source = WorldGeoSource(world)
        stores = source.level_geometries("Store", "Store")
        assert len(stores) == len(world.stores)
        states = source.level_geometries("Store", "State")
        assert all(isinstance(g, Polygon) for g in states.values())
        assert source.level_geometries("Time", "Day") is None


class TestPaperRuleTexts:
    def test_all_parse(self):
        for name, source in ALL_PAPER_RULES.items():
            rule = parse_rule(source)
            assert rule.name == name
