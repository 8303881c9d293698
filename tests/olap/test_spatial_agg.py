"""Tests for spatial aggregation functions (da Silva et al. style)."""

import pytest

from repro.errors import QueryError
from repro.geomd import GeometricType
from repro.geometry import GeometryCollection, MultiPoint, Point, Polygon, within
from repro.olap import SpatialAggregator, aggregate_geometries, spatial_rollup


@pytest.fixture()
def spatial_store_star(star, world):
    star.become_spatial(
        "Store.Store",
        GeometricType.POINT,
        {s.name: s.location for s in world.stores},
    )
    return star


class TestAggregateGeometries:
    POINTS = [Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4)]

    def test_count(self):
        assert aggregate_geometries(self.POINTS, SpatialAggregator.COUNT) == 4.0

    def test_centroid(self):
        c = aggregate_geometries(self.POINTS, SpatialAggregator.CENTROID)
        assert isinstance(c, Point)
        assert (c.x, c.y) == pytest.approx((2.0, 2.0))

    def test_envelope(self):
        env = aggregate_geometries(self.POINTS, SpatialAggregator.ENVELOPE)
        assert isinstance(env, Polygon)
        assert env.area == pytest.approx(16.0)

    def test_convex_hull(self):
        hull = aggregate_geometries(self.POINTS, SpatialAggregator.CONVEX_HULL)
        assert isinstance(hull, Polygon)
        assert hull.area == pytest.approx(16.0)

    def test_collect_points(self):
        collected = aggregate_geometries(self.POINTS, SpatialAggregator.COLLECT)
        assert isinstance(collected, MultiPoint)
        assert len(collected) == 4

    def test_collect_mixed(self):
        mixed = self.POINTS + [Polygon([(0, 0), (1, 0), (1, 1)])]
        collected = aggregate_geometries(mixed, SpatialAggregator.COLLECT)
        assert isinstance(collected, GeometryCollection)

    def test_empty_geometric_aggregation(self):
        result = aggregate_geometries([], SpatialAggregator.CENTROID)
        assert isinstance(result, GeometryCollection)
        assert result.is_empty
        assert aggregate_geometries([], SpatialAggregator.COUNT) == 0.0


class TestSpatialRollup:
    def test_count_per_city(self, spatial_store_star, world):
        counts = spatial_rollup(
            spatial_store_star, "Store", "Store", "City", SpatialAggregator.COUNT
        )
        assert len(counts) == len(world.cities)
        assert sum(counts.values()) == len(world.stores)

    def test_hull_contains_member_points(self, spatial_store_star, world):
        hulls = spatial_rollup(
            spatial_store_star,
            "Store",
            "Store",
            "City",
            SpatialAggregator.CONVEX_HULL,
        )
        city = world.cities[0].name
        stores = [s for s in world.stores if s.city == city]
        hull = hulls[city]
        for store in stores:
            # Hull may degenerate (2-3 stores); containment means distance 0.
            from repro.geometry import distance

            assert distance(store.location, hull) < 1e-6

    def test_same_level_rejected(self, spatial_store_star):
        with pytest.raises(QueryError):
            spatial_rollup(
                spatial_store_star,
                "Store",
                "Store",
                "Store",
                SpatialAggregator.COUNT,
            )

    def test_members_without_geometry_skipped(self, star):
        star.schema.become_spatial("Store.Store", GeometricType.POINT)
        counts = spatial_rollup(
            star, "Store", "Store", "City", SpatialAggregator.COUNT
        )
        assert counts == {}
