"""Tests for cube query execution."""

import pytest

from repro.data import FACT_NAME, WorldGeoSource
from repro.errors import QueryError
from repro.geomd import GeometricType
from repro.geometry import Point
from repro.mdm import Aggregator
from repro.olap import (
    AggSpec,
    AttributeFilter,
    ComparisonOp,
    CubeQuery,
    LayerRef,
    LevelRef,
    SpatialFilter,
    SpatialRelation,
    execute,
)


class TestLevelRef:
    def test_parse(self):
        assert LevelRef.parse("Store") == LevelRef("Store")
        assert LevelRef.parse("Store.City") == LevelRef("Store", "City")
        with pytest.raises(QueryError):
            LevelRef.parse("a.b.c")

    def test_resolve_defaults_to_leaf(self, star):
        assert LevelRef("Store").resolve_level(star.schema) == "Store"
        assert LevelRef("Store", "State").resolve_level(star.schema) == "State"


class TestAggregation:
    def test_sum_total_matches_columns(self, star):
        query = CubeQuery(FACT_NAME, [AggSpec(Aggregator.SUM, "UnitSales")])
        result = execute(star, query)
        expected = sum(star.fact_table().measure_column("UnitSales"))
        assert result.value(()) == pytest.approx(expected)

    def test_count_star(self, star):
        query = CubeQuery(FACT_NAME, [AggSpec(Aggregator.COUNT, "*")])
        result = execute(star, query)
        assert result.value(()) == len(star.fact_table())

    def test_group_by_partitions_total(self, star):
        query = CubeQuery(
            FACT_NAME,
            [AggSpec(Aggregator.SUM, "StoreSales")],
            group_by=[LevelRef("Store", "State")],
        )
        result = execute(star, query)
        total = sum(star.fact_table().measure_column("StoreSales"))
        assert sum(v[0] for v in result.cells.values()) == pytest.approx(total)

    def test_rollup_coarser_level_fewer_cells(self, star):
        by_city = execute(
            star,
            CubeQuery(
                FACT_NAME,
                [AggSpec(Aggregator.SUM, "UnitSales")],
                group_by=[LevelRef("Store", "City")],
            ),
        )
        by_state = execute(
            star,
            CubeQuery(
                FACT_NAME,
                [AggSpec(Aggregator.SUM, "UnitSales")],
                group_by=[LevelRef("Store", "State")],
            ),
        )
        assert len(by_state) < len(by_city)
        assert sum(v[0] for v in by_state.cells.values()) == pytest.approx(
            sum(v[0] for v in by_city.cells.values())
        )

    def test_min_max_avg(self, star):
        query = CubeQuery(
            FACT_NAME,
            [
                AggSpec(Aggregator.MIN, "UnitSales"),
                AggSpec(Aggregator.MAX, "UnitSales"),
                AggSpec(Aggregator.AVG, "UnitSales"),
            ],
        )
        result = execute(star, query)
        values = star.fact_table().measure_column("UnitSales")
        coordinate = ()
        assert result.value(coordinate, "MIN(UnitSales)") == min(values)
        assert result.value(coordinate, "MAX(UnitSales)") == max(values)
        assert result.value(coordinate, "AVG(UnitSales)") == pytest.approx(
            sum(values) / len(values)
        )

    def test_count_distinct(self, star):
        query = CubeQuery(
            FACT_NAME, [AggSpec(Aggregator.COUNT_DISTINCT, "UnitSales")]
        )
        result = execute(star, query)
        assert result.value(()) == len(
            set(star.fact_table().measure_column("UnitSales"))
        )

    def test_sum_star_rejected(self, star):
        query = CubeQuery(FACT_NAME, [AggSpec(Aggregator.SUM, "*")])
        with pytest.raises(QueryError):
            execute(star, query)

    def test_unknown_measure_rejected(self, star):
        query = CubeQuery(FACT_NAME, [AggSpec(Aggregator.SUM, "Profit")])
        with pytest.raises(Exception):
            execute(star, query)

    def test_no_aggregations_rejected(self):
        with pytest.raises(QueryError):
            CubeQuery(FACT_NAME, [])


class TestAttributeFilters:
    def test_leaf_attribute_filter(self, star, world):
        city = world.cities[0].name
        query = CubeQuery(
            FACT_NAME,
            [AggSpec(Aggregator.COUNT, "*")],
            where=[
                AttributeFilter(
                    LevelRef("Store", "City"), "name", ComparisonOp.EQ, city
                )
            ],
        )
        result = execute(star, query)
        column = star.fact_table().key_column("Store")
        expected = sum(
            1
            for key in column
            if star.rollup_member("Store", key, "City").key == city
        )
        got = result.value(()) if result.cells else 0
        assert got == expected

    def test_in_filter(self, star, world):
        cities = [c.name for c in world.cities[:3]]
        query = CubeQuery(
            FACT_NAME,
            [AggSpec(Aggregator.COUNT, "*")],
            where=[
                AttributeFilter(
                    LevelRef("Store", "City"),
                    "name",
                    ComparisonOp.IN,
                    tuple(cities),
                )
            ],
        )
        result = execute(star, query)
        assert result.fact_rows_matched < result.fact_rows_scanned

    def test_numeric_comparison(self, star):
        query = CubeQuery(
            FACT_NAME,
            [AggSpec(Aggregator.COUNT, "*")],
            where=[
                AttributeFilter(
                    LevelRef("Store", "City"),
                    "population",
                    ComparisonOp.GE,
                    400_000,
                )
            ],
        )
        result = execute(star, query)
        assert 0 < result.fact_rows_matched < result.fact_rows_scanned

    def test_filter_unknown_dimension_for_fact(self, star):
        query = CubeQuery(
            FACT_NAME,
            [AggSpec(Aggregator.COUNT, "*")],
            where=[
                AttributeFilter(LevelRef("Ghost"), "name", ComparisonOp.EQ, "x")
            ],
        )
        with pytest.raises(Exception):
            execute(star, query)


class TestSpatialFilters:
    @pytest.fixture()
    def spatial_star(self, star, world):
        source = WorldGeoSource(world)
        star.become_spatial(
            "Store.Store",
            GeometricType.POINT,
            source.level_geometries("Store", "Store"),
        )
        star.schema.add_layer("Airport", GeometricType.POINT)
        star.ensure_layer_table("Airport")
        star.add_features("Airport", source.layer_features("Airport"))
        return star

    def test_distance_filter(self, spatial_star, world):
        query = CubeQuery(
            FACT_NAME,
            [AggSpec(Aggregator.COUNT, "*")],
            where=[
                SpatialFilter(
                    LevelRef("Store"),
                    SpatialRelation.DISTANCE,
                    LayerRef("Airport"),
                    ComparisonOp.LT,
                    30_000.0,
                )
            ],
        )
        result = execute(spatial_star, query)
        assert 0 < result.fact_rows_matched < result.fact_rows_scanned

    def test_distance_filter_against_literal_geometry(self, spatial_star, world):
        center = world.stores[0].location
        query = CubeQuery(
            FACT_NAME,
            [AggSpec(Aggregator.COUNT, "*")],
            where=[
                SpatialFilter(
                    LevelRef("Store"),
                    SpatialRelation.DISTANCE,
                    Point(center.x, center.y),
                    ComparisonOp.LE,
                    1.0,
                )
            ],
        )
        result = execute(spatial_star, query)
        assert result.fact_rows_matched > 0

    def test_non_spatial_level_rejected(self, spatial_star):
        query = CubeQuery(
            FACT_NAME,
            [AggSpec(Aggregator.COUNT, "*")],
            where=[
                SpatialFilter(
                    LevelRef("Customer"),
                    SpatialRelation.DISTANCE,
                    LayerRef("Airport"),
                    ComparisonOp.LT,
                    1_000.0,
                )
            ],
        )
        with pytest.raises(QueryError, match="not spatial"):
            execute(spatial_star, query)

    def test_distance_filter_validation(self):
        with pytest.raises(QueryError):
            SpatialFilter(
                LevelRef("Store"), SpatialRelation.DISTANCE, LayerRef("Airport")
            )
        with pytest.raises(QueryError):
            SpatialFilter(
                LevelRef("Store"),
                SpatialRelation.INSIDE,
                LayerRef("Airport"),
                ComparisonOp.LT,
                5.0,
            )


class TestSelection:
    def test_selection_restricts_scan(self, star):
        full = execute(star, CubeQuery(FACT_NAME, [AggSpec(Aggregator.COUNT, "*")]))
        some_rows = list(range(0, len(star.fact_table()), 10))
        partial = execute(
            star,
            CubeQuery(FACT_NAME, [AggSpec(Aggregator.COUNT, "*")]),
            selection=some_rows,
        )
        assert partial.value(()) == len(some_rows)
        assert full.value(()) == len(star.fact_table())


class TestCellSet:
    def test_format_table(self, star):
        result = execute(
            star,
            CubeQuery(
                FACT_NAME,
                [AggSpec(Aggregator.SUM, "UnitSales")],
                group_by=[LevelRef("Store", "State")],
            ),
        )
        text = result.format_table()
        assert "Store.State" in text
        assert "SUM(UnitSales)" in text
        assert len(text.splitlines()) == len(result) + 2

    def test_value_errors(self, star):
        result = execute(
            star,
            CubeQuery(
                FACT_NAME,
                [
                    AggSpec(Aggregator.SUM, "UnitSales"),
                    AggSpec(Aggregator.COUNT, "*"),
                ],
            ),
        )
        with pytest.raises(QueryError, match="name one"):
            result.value(())
        with pytest.raises(QueryError, match="no cell"):
            result.value(("nowhere",), "SUM(UnitSales)")
