"""Tests for the storage-layer index hierarchy and its invalidation.

Covers the fact-table posting lists, the inverted roll-up index, the
lazy per-level envelope indexes and the star generation counter —
each must agree exactly with the scan it replaces and must never serve
stale data after a mutation.
"""

import pytest

from repro.data import FACT_NAME, build_sales_schema
from repro.geomd import GeoMDSchema, GeometricType
from repro.geometry import Point
from repro.storage import StarSchema


@pytest.fixture()
def loaded_star():
    star = StarSchema(GeoMDSchema.from_md(build_sales_schema()))
    star.add_member("Store", "State", "Valencia")
    for city in ("Alicante", "Elche"):
        star.add_member("Store", "City", city, parents={"State": "Valencia"})
    star.add_member("Store", "Store", "S1", parents={"City": "Alicante"})
    star.add_member("Store", "Store", "S2", parents={"City": "Elche"})
    star.add_member("Customer", "City", "Alicante")
    star.add_member("Customer", "Customer", "C1", parents={"City": "Alicante"})
    star.add_member("Product", "Family", "Food")
    star.add_member("Product", "Product", "P1", parents={"Family": "Food"})
    star.add_member("Time", "Year", "2009")
    star.add_member("Time", "Quarter", "2009-Q1", parents={"Year": "2009"})
    star.add_member("Time", "Month", "2009-01", parents={"Quarter": "2009-Q1"})
    star.add_member("Time", "Day", "2009-01-05", parents={"Month": "2009-01"})
    for store in ("S1", "S2", "S1"):
        star.insert_fact(
            FACT_NAME,
            {"Store": store, "Customer": "C1", "Product": "P1", "Time": "2009-01-05"},
            {"UnitSales": 1, "StoreCost": 2.0, "StoreSales": 3.0},
        )
    return star


class TestKeyPostings:
    def test_postings_match_column_scan(self, loaded_star):
        table = loaded_star.fact_table()
        postings = table.key_postings("Store")
        column = table.key_column("Store")
        for key, rows in postings.items():
            assert rows == [i for i, k in enumerate(column) if k == key]
        assert sum(len(rows) for rows in postings.values()) == len(table)

    def test_postings_maintained_after_insert(self, loaded_star):
        table = loaded_star.fact_table()
        before = dict(table.key_postings("Store"))
        assert before["S2"] == [1]
        row_id = loaded_star.insert_fact(
            FACT_NAME,
            {"Store": "S2", "Customer": "C1", "Product": "P1", "Time": "2009-01-05"},
            {"UnitSales": 4, "StoreCost": 1.0, "StoreSales": 2.0},
        )
        assert table.key_postings("Store")["S2"] == [1, row_id]


class TestRollupIndex:
    def test_index_matches_scan(self, loaded_star):
        index = loaded_star.rollup_index("Store", "City")
        assert index == {"Alicante": {"S1"}, "Elche": {"S2"}}

    def test_leaf_keys_rolled_to_agrees_with_scan_path(self, loaded_star):
        fast = loaded_star.leaf_keys_rolled_to("Store", "State", ["Valencia"])
        loaded_star.oracle = True
        slow = loaded_star.leaf_keys_rolled_to("Store", "State", ["Valencia"])
        assert fast == slow == {"S1", "S2"}

    def test_index_invalidated_by_member_insert(self, loaded_star):
        assert loaded_star.rollup_index("Store", "City") == {
            "Alicante": {"S1"},
            "Elche": {"S2"},
        }
        loaded_star.add_member("Store", "Store", "S3", parents={"City": "Elche"})
        assert loaded_star.rollup_index("Store", "City")["Elche"] == {"S2", "S3"}

    def test_unknown_ancestor_key_rolls_to_nothing(self, loaded_star):
        assert loaded_star.leaf_keys_rolled_to("Store", "City", ["Atlantis"]) == set()


class TestGenerationCounter:
    def test_mutations_bump_generation(self, loaded_star):
        start = loaded_star.generation
        loaded_star.add_member("Product", "Family", "Drink")
        assert loaded_star.generation == start + 1
        loaded_star.insert_fact(
            FACT_NAME,
            {"Store": "S1", "Customer": "C1", "Product": "P1", "Time": "2009-01-05"},
            {"UnitSales": 1, "StoreCost": 1.0, "StoreSales": 1.0},
        )
        assert loaded_star.generation == start + 2
        loaded_star.schema.add_layer("Airport", GeometricType.POINT)
        loaded_star.ensure_layer_table("Airport")
        assert loaded_star.generation == start + 3
        loaded_star.become_spatial(
            "Store.Store", GeometricType.POINT, {"S1": Point(0.0, 0.0)}
        )
        assert loaded_star.generation == start + 4

    def test_reads_do_not_bump_generation(self, loaded_star):
        start = loaded_star.generation
        loaded_star.rollup_index("Store", "City")
        loaded_star.fact_table().key_postings("Store")
        loaded_star.leaf_keys_rolled_to("Store", "State", ["Valencia"])
        assert loaded_star.generation == start


class TestConcurrency:
    def test_posting_map_consistent_under_concurrent_inserts(self, loaded_star):
        """A posting build racing inserts from another thread must never
        install a map missing (or double-counting) a row."""
        import threading

        table = loaded_star.fact_table()

        def inserter():
            for _ in range(300):
                loaded_star.insert_fact(
                    FACT_NAME,
                    {
                        "Store": "S1",
                        "Customer": "C1",
                        "Product": "P1",
                        "Time": "2009-01-05",
                    },
                    {"UnitSales": 1, "StoreCost": 1.0, "StoreSales": 1.0},
                )

        thread = threading.Thread(target=inserter)
        thread.start()
        while thread.is_alive():
            with table._lock:
                table._postings.clear()
            table.key_postings("Store")
        thread.join()
        postings = table.key_postings("Store")
        column = table.key_column("Store")
        expected: dict[str, list[int]] = {}
        for row_id, key in enumerate(column):
            expected.setdefault(key, []).append(row_id)
        assert postings == expected


class TestEnvelopeIndexCaches:
    def _spatialize(self, star):
        star.become_spatial(
            "Store.Store",
            GeometricType.POINT,
            {key: Point(float(i), float(i)) for i, key in enumerate(("S1", "S2"))},
        )

    def test_level_grid_index_cached_and_invalidated(self, loaded_star):
        self._spatialize(loaded_star)
        cached = loaded_star.level_grid_index("Store", "Store")
        assert cached is not None
        assert [m.key for m in cached.members] == ["S1", "S2"]
        assert cached.geometries == (Point(0.0, 0.0), Point(1.0, 1.0))
        assert cached.primitive
        assert cached.index.query_envelope(Point(1.0, 1.0).envelope) == [1]
        assert loaded_star.level_grid_index("Store", "Store") is cached
        loaded_star.add_member(
            "Store",
            "Store",
            "S3",
            {"geometry": Point(5.0, 5.0)},
            parents={"City": "Elche"},
        )
        rebuilt = loaded_star.level_grid_index("Store", "Store")
        assert rebuilt is not cached
        assert [m.key for m in rebuilt.members] == ["S1", "S2", "S3"]
        assert rebuilt.index.query_envelope(Point(5.0, 5.0).envelope) == [2]

    def test_level_grid_index_none_without_geometry(self, loaded_star):
        assert loaded_star.level_grid_index("Store", "Store") is None
