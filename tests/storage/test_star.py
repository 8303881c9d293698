"""Tests for the bound star schema."""

import pytest

from repro.data import FACT_NAME, build_sales_schema
from repro.errors import StorageError
from repro.geomd import GeoMDSchema, GeometricType
from repro.geometry import LineString, Point
from repro.storage import StarSchema


@pytest.fixture()
def empty_star():
    return StarSchema(GeoMDSchema.from_md(build_sales_schema()))


def _load_minimal(star):
    star.add_member("Store", "State", "Valencia")
    star.add_member("Store", "City", "Alicante", parents={"State": "Valencia"})
    star.add_member("Store", "Store", "S1", parents={"City": "Alicante"})
    star.add_member("Customer", "City", "Alicante")
    star.add_member("Customer", "Customer", "C1", parents={"City": "Alicante"})
    star.add_member("Product", "Family", "Food")
    star.add_member("Product", "Product", "P1", parents={"Family": "Food"})
    star.add_member("Time", "Year", "2009")
    star.add_member("Time", "Quarter", "2009-Q1", parents={"Year": "2009"})
    star.add_member("Time", "Month", "2009-01", parents={"Quarter": "2009-Q1"})
    star.add_member("Time", "Day", "2009-01-05", parents={"Month": "2009-01"})


class TestIntegrity:
    def test_fact_insert_checks_leaf_keys(self, empty_star):
        _load_minimal(empty_star)
        empty_star.insert_fact(
            FACT_NAME,
            {"Store": "S1", "Customer": "C1", "Product": "P1", "Time": "2009-01-05"},
            {"UnitSales": 1, "StoreCost": 2.0, "StoreSales": 3.0},
        )
        with pytest.raises(StorageError, match="unknown"):
            empty_star.insert_fact(
                FACT_NAME,
                {
                    "Store": "Ghost",
                    "Customer": "C1",
                    "Product": "P1",
                    "Time": "2009-01-05",
                },
                {"UnitSales": 1, "StoreCost": 2.0, "StoreSales": 3.0},
            )

    def test_spatial_level_geometry_type_checked(self, empty_star):
        schema = empty_star.schema
        schema.become_spatial("Store.Store", GeometricType.POINT)
        _load_minimal(empty_star)
        generation = empty_star.generation
        with pytest.raises(StorageError, match="declared POINT"):
            empty_star.add_member(
                "Store",
                "Store",
                "S2",
                {"geometry": LineString([(0, 0), (1, 1)])},
                parents={"City": "Alicante"},
            )
        with pytest.raises(StorageError, match="not a Geometry"):
            empty_star.add_member(
                "Store",
                "Store",
                "S3",
                {"geometry": "POINT (0 0)"},
                parents={"City": "Alicante"},
            )
        # A refused member is not added, so no write goes unlogged.
        stores = empty_star.dimension_table("Store").members("Store")
        assert [m.key for m in stores] == ["S1"]
        assert empty_star.generation == generation

    def test_geometry_accepted_when_conforming(self, empty_star):
        empty_star.schema.become_spatial("Store.Store", GeometricType.POINT)
        _load_minimal(empty_star)
        member = empty_star.add_member(
            "Store",
            "Store",
            "S2",
            {"geometry": Point(3, 4)},
            parents={"City": "Alicante"},
        )
        assert member.geometry == Point(3, 4)

    def test_unknown_tables(self, empty_star):
        with pytest.raises(StorageError):
            empty_star.dimension_table("Ghost")
        with pytest.raises(StorageError):
            empty_star.fact_table("Ghost")
        with pytest.raises(StorageError):
            empty_star.layer_table("Airport")


class TestLayers:
    def test_ensure_layer_table_after_schema_change(self, empty_star):
        empty_star.schema.add_layer("Airport", GeometricType.POINT)
        table = empty_star.ensure_layer_table("Airport")
        assert empty_star.layer_table("Airport") is table
        table.add_feature("ALC", Point(0, 0))
        assert len(empty_star.layer_table("Airport")) == 1

    def test_ensure_is_idempotent(self, empty_star):
        empty_star.schema.add_layer("Airport", GeometricType.POINT)
        first = empty_star.ensure_layer_table("Airport")
        second = empty_star.ensure_layer_table("Airport")
        assert first is second


class TestBecomeSpatial:
    def test_checks_every_geometry_before_writing_any(self, empty_star):
        _load_minimal(empty_star)
        empty_star.add_member("Store", "Store", "S2", parents={"City": "Alicante"})
        generation = empty_star.generation
        with pytest.raises(StorageError, match="declared POINT"):
            empty_star.become_spatial(
                "Store.Store",
                GeometricType.POINT,
                {"S1": Point(0, 0), "S2": LineString([(0, 0), (1, 1)])},
            )
        with pytest.raises(StorageError, match="no member"):
            empty_star.become_spatial(
                "Store.Store", GeometricType.POINT, {"Ghost": Point(0, 0)}
            )
        assert not empty_star.schema.is_spatial_level("Store.Store")
        table = empty_star.dimension_table("Store")
        assert table.member("Store", "S1").geometry is None
        assert empty_star.generation == generation

    def test_loads_the_level_and_logs_one_member_mutation(self, empty_star):
        _load_minimal(empty_star)
        heard = []
        empty_star.add_mutation_listener(heard.append)
        generation = empty_star.generation
        metadata = empty_star.metadata_generation
        empty_star.become_spatial(
            "Store.City", GeometricType.POINT, {"Alicante": Point(3, 4)}
        )
        assert empty_star.schema.is_spatial_level("Store.City")
        city = empty_star.dimension_table("Store").member("City", "Alicante")
        assert city.geometry == Point(3, 4)
        assert empty_star.generation == generation + 1
        assert empty_star.metadata_generation == metadata + 1
        (mutation,) = heard
        assert (mutation.kind, mutation.op, mutation.dimension) == (
            "member",
            "become_spatial",
            "Store",
        )
        assert mutation.payload_dict() == {
            "geometric_type": "POINT",
            "geometries": (("Alicante", Point(3, 4)),),
            "level": "City",
        }
        assert empty_star.mutation_log.between(generation, generation + 1) == [
            mutation
        ]

    def test_roll_ups_survive_and_only_its_level_record_drops(self, empty_star):
        _load_minimal(empty_star)
        empty_star.become_spatial(
            "Store.Store", GeometricType.POINT, {"S1": Point(0, 0)}
        )
        ancestor = empty_star.rollup_member("Store", "S1", "State")
        index = empty_star.rollup_index("Store", "City")
        stores = empty_star.level_grid_index("Store", "Store")
        empty_star.become_spatial(
            "Store.City", GeometricType.POINT, {"Alicante": Point(1, 1)}
        )
        assert empty_star.rollup_member("Store", "S1", "State") is ancestor
        assert empty_star.rollup_index("Store", "City") is index
        assert empty_star.level_grid_index("Store", "Store") is stores
        assert empty_star.level_grid_index("Store", "City").geometries == (
            Point(1, 1),
        )


class TestRollup:
    def test_rollup_member(self, empty_star):
        _load_minimal(empty_star)
        ancestor = empty_star.rollup_member("Store", "S1", "State")
        assert ancestor.key == "Valencia"
        # Every walk returns the dimension table's own member object.
        assert empty_star.rollup_member("Store", "S1", "State") is ancestor

    def test_leaf_keys_rolled_to(self, empty_star):
        _load_minimal(empty_star)
        keys = empty_star.leaf_keys_rolled_to("Store", "City", {"Alicante"})
        assert keys == {"S1"}
        assert empty_star.leaf_keys_rolled_to("Store", "City", {"Madrid"}) == set()


class TestWorldLoad:
    def test_loaded_star_statistics(self, world, star):
        stats = star.stats()
        assert stats["fact:Sales"] == world.config.sales
        assert stats["dim:Store.Store"] == len(world.stores)
        assert stats["dim:Store.City"] == len(world.cities)
        assert stats["dim:Customer.Customer"] == len(world.customers)

    def test_every_fact_key_resolves(self, star):
        fact_table = star.fact_table()
        for dim in fact_table.fact.dimension_names:
            table = star.dimension_table(dim)
            leaf = table.dimension.leaf
            for key in set(fact_table.key_column(dim)):
                assert table.member(leaf, key)

    def test_rollup_consistency(self, star):
        fact_table = star.fact_table()
        key = fact_table.key_column("Store")[0]
        city = star.rollup_member("Store", key, "City")
        state = star.rollup_member("Store", key, "State")
        table = star.dimension_table("Store")
        assert table.rollup(city, "State").key == state.key
