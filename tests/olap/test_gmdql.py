"""Tests for the GeoMDQL-lite query language."""

import pytest

from repro.data import FACT_NAME, WorldGeoSource
from repro.errors import QueryError
from repro.geomd import GeometricType
from repro.mdm import Aggregator
from repro.olap import (
    AttributeFilter,
    ComparisonOp,
    SpatialFilter,
    SpatialRelation,
    execute,
    parse_query,
)


@pytest.fixture()
def schema(star):
    return star.schema


@pytest.fixture()
def spatial_schema(schema):
    """Store made spatial, with an Airport and a Region layer: the parse
    checks a spatial filter against the schema it is given."""
    schema.become_spatial("Store.Store", GeometricType.POINT)
    schema.add_layer("Airport", GeometricType.POINT)
    schema.add_layer("Region", GeometricType.POLYGON)
    return schema


class TestParsing:
    def test_minimal(self, schema):
        query = parse_query("SELECT COUNT(*) FROM Sales", schema)
        assert query.fact == FACT_NAME
        assert query.aggregations[0].aggregator is Aggregator.COUNT
        assert query.aggregations[0].measure == "*"

    def test_multiple_aggs_and_groups(self, schema):
        query = parse_query(
            "SELECT SUM(UnitSales), AVG(StoreSales) FROM Sales "
            "BY Store.City, Time.Month",
            schema,
        )
        assert [a.label for a in query.aggregations] == [
            "SUM(UnitSales)",
            "AVG(StoreSales)",
        ]
        assert [str(g) for g in query.group_by] == ["Store.City", "Time.Month"]

    def test_keywords_case_insensitive(self, schema):
        query = parse_query("select sum(UnitSales) from Sales by Store.State", schema)
        assert query.aggregations[0].aggregator is Aggregator.SUM

    def test_attribute_condition_three_part(self, schema):
        query = parse_query(
            "SELECT COUNT(*) FROM Sales WHERE Store.City.population >= 100000",
            schema,
        )
        flt = query.where[0]
        assert isinstance(flt, AttributeFilter)
        assert flt.attribute == "population"
        assert flt.op is ComparisonOp.GE

    def test_attribute_condition_two_part_leaf(self, schema):
        query = parse_query(
            "SELECT COUNT(*) FROM Sales WHERE Product.list_price < 10",
            schema,
        )
        flt = query.where[0]
        assert flt.ref.dimension == "Product"
        assert flt.attribute == "list_price"

    def test_two_part_level_name_compares_key(self, schema):
        query = parse_query(
            "SELECT COUNT(*) FROM Sales WHERE Store.City = 'Alicante'", schema
        )
        flt = query.where[0]
        assert flt.ref.level == "City"
        assert flt.attribute == "name"

    def test_in_condition(self, schema):
        query = parse_query(
            "SELECT COUNT(*) FROM Sales WHERE Product.Family.name IN ('Food', 'Drink')",
            schema,
        )
        flt = query.where[0]
        assert flt.op is ComparisonOp.IN
        assert flt.value == ("Food", "Drink")

    def test_string_escaping(self, schema):
        query = parse_query(
            "SELECT COUNT(*) FROM Sales WHERE Store.City.name = 'O''Hare'",
            schema,
        )
        assert query.where[0].value == "O'Hare"

    def test_distance_condition(self, spatial_schema):
        query = parse_query(
            "SELECT COUNT(*) FROM Sales WHERE DISTANCE(Store, LAYER Airport) < 20 KM",
            spatial_schema,
        )
        flt = query.where[0]
        assert isinstance(flt, SpatialFilter)
        assert flt.relation is SpatialRelation.DISTANCE
        assert flt.threshold == 20_000.0

    def test_inside_condition(self, spatial_schema):
        query = parse_query(
            "SELECT COUNT(*) FROM Sales WHERE WITHIN(Store, LAYER Region)",
            spatial_schema,
        )
        flt = query.where[0]
        assert flt.relation is SpatialRelation.INSIDE

    def test_spatial_filter_on_a_level_the_schema_has_not_made_spatial(
        self, spatial_schema
    ):
        with pytest.raises(QueryError, match="Store.City is not spatial"):
            parse_query(
                "SELECT COUNT(*) FROM Sales "
                "WHERE DISTANCE(Store.City, LAYER Airport) < 20 KM",
                spatial_schema,
            )

    def test_spatial_filter_against_a_layer_the_schema_lacks(
        self, spatial_schema
    ):
        with pytest.raises(QueryError, match="no layer 'Train'"):
            parse_query(
                "SELECT COUNT(*) FROM Sales WHERE DISTANCE(Store, LAYER Train) < 1",
                spatial_schema,
            )

    def test_unknown_fact(self, schema):
        with pytest.raises(Exception):
            parse_query("SELECT COUNT(*) FROM Ghost", schema)

    def test_unknown_aggregator(self, schema):
        with pytest.raises(QueryError):
            parse_query("SELECT MEDIAN(UnitSales) FROM Sales", schema)

    def test_unknown_attribute(self, schema):
        with pytest.raises(Exception):
            parse_query(
                "SELECT COUNT(*) FROM Sales WHERE Store.City.altitude > 3", schema
            )

    def test_trailing_garbage(self, schema):
        with pytest.raises(QueryError):
            parse_query("SELECT COUNT(*) FROM Sales EXTRA", schema)

    def test_distance_requires_comparison(self, schema):
        with pytest.raises(QueryError):
            parse_query(
                "SELECT COUNT(*) FROM Sales WHERE DISTANCE(Store, LAYER Airport)",
                schema,
            )

    @pytest.mark.parametrize("number", ["nan", "NaN", "inf", "infinity", "1e400"])
    @pytest.mark.parametrize(
        "condition",
        [
            "DISTANCE(Store, LAYER Airport) < {} KM",
            "Store.City.population > {}",
            "Store.City.population IN ({}, 1)",
        ],
        ids=["distance", "comparison", "in"],
    )
    def test_non_finite_number_is_refused(
        self, spatial_schema, condition, number
    ):
        """``float`` reads these, and 1e400 overflows to infinity; a
        threshold or literal that is not finite is a query error."""
        with pytest.raises(QueryError, match="expected a finite number"):
            parse_query(
                f"SELECT COUNT(*) FROM Sales WHERE {condition.format(number)}",
                spatial_schema,
            )

    def test_threshold_that_overflows_in_metres_is_refused(
        self, spatial_schema
    ):
        with pytest.raises(QueryError, match="expected a finite number"):
            parse_query(
                "SELECT COUNT(*) FROM Sales "
                "WHERE DISTANCE(Store, LAYER Airport) < 1e306 KM",
                spatial_schema,
            )


class TestExecution:
    def test_end_to_end_text_query(self, star):
        result = execute(
            star,
            parse_query(
                "SELECT SUM(UnitSales) FROM Sales BY Store.State", star.schema
            ),
        )
        assert len(result) > 0

    def test_spatial_text_query(self, star, world):
        schema = star.schema
        source = WorldGeoSource(world)
        star.become_spatial(
            "Store.Store",
            GeometricType.POINT,
            source.level_geometries("Store", "Store"),
        )
        schema.add_layer("Airport", GeometricType.POINT)
        star.ensure_layer_table("Airport")
        star.add_features("Airport", source.layer_features("Airport"))
        result = execute(
            star,
            parse_query(
                "SELECT COUNT(*) FROM Sales "
                "WHERE DISTANCE(Store, LAYER Airport) < 25 KM",
                schema,
            ),
        )
        assert 0 < result.fact_rows_matched < result.fact_rows_scanned
