"""The envelope-index spatial-filter path must be a pure speedup.

Every relation is executed twice — with the star's ``oracle`` switch
cleared and set — and the cell sets must be identical.  DISTANCE with
lower-bound-unsound comparisons (``>``, ``>=``) and non-planar metrics
must transparently fall back to the exact scan.
"""

import pytest

from repro.data import FACT_NAME, WorldGeoSource
from repro.geomd import GeometricType
from repro.geometry import HaversineMetric, Point
from repro.mdm import Aggregator
from repro.olap.query import (
    AggSpec,
    ComparisonOp,
    CubeQuery,
    LayerRef,
    LevelRef,
    SpatialFilter,
    SpatialRelation,
    execute,
)


@pytest.fixture()
def spatial_star(star, world):
    source = WorldGeoSource(world)
    star.become_spatial(
        "Store.Store", GeometricType.POINT, source.level_geometries("Store", "Store")
    )
    star.schema.add_layer("Airport", GeometricType.POINT)
    star.ensure_layer_table("Airport")
    star.add_features("Airport", source.layer_features("Airport"))
    return star


def _query(flt):
    return CubeQuery(
        FACT_NAME,
        [AggSpec(Aggregator.COUNT, "*")],
        group_by=[LevelRef("Store")],
        where=[flt],
    )


def _both_paths(star, flt, metric=None):
    fast = execute(star, _query(flt), metric=metric)
    star.oracle = True
    slow = execute(star, _query(flt), metric=metric)
    star.oracle = False
    return fast, slow


@pytest.mark.parametrize(
    "relation",
    [
        SpatialRelation.INTERSECT,
        SpatialRelation.DISJOINT,
        SpatialRelation.INSIDE,
        SpatialRelation.EQUALS,
        SpatialRelation.CONTAINS,
    ],
)
def test_boolean_relations_agree_with_scan(spatial_star, relation):
    flt = SpatialFilter(LevelRef("Store"), relation, LayerRef("Airport"))
    fast, slow = _both_paths(spatial_star, flt)
    assert fast.cells == slow.cells
    assert fast.fact_rows_matched == slow.fact_rows_matched


@pytest.mark.parametrize("op", [ComparisonOp.LT, ComparisonOp.LE])
def test_distance_upper_bound_agrees_with_scan(spatial_star, op):
    flt = SpatialFilter(
        LevelRef("Store"),
        SpatialRelation.DISTANCE,
        LayerRef("Airport"),
        op,
        30_000.0,
    )
    fast, slow = _both_paths(spatial_star, flt)
    assert fast.cells == slow.cells
    assert 0 < fast.fact_rows_matched < fast.fact_rows_scanned


@pytest.mark.parametrize("op", [ComparisonOp.GT, ComparisonOp.GE])
def test_distance_lower_bound_falls_back(spatial_star, op):
    """`> threshold` cannot be pre-filtered by envelopes; both paths must
    still agree because the fast path declines these operators."""
    flt = SpatialFilter(
        LevelRef("Store"),
        SpatialRelation.DISTANCE,
        LayerRef("Airport"),
        op,
        30_000.0,
    )
    fast, slow = _both_paths(spatial_star, flt)
    assert fast.cells == slow.cells


def test_distance_with_non_planar_metric_agrees(spatial_star):
    flt = SpatialFilter(
        LevelRef("Store"),
        SpatialRelation.DISTANCE,
        LayerRef("Airport"),
        ComparisonOp.LT,
        3_000_000.0,
    )
    metric = HaversineMetric()
    fast, slow = _both_paths(spatial_star, flt, metric=metric)
    assert fast.cells == slow.cells


def test_literal_geometry_target(spatial_star, world):
    center = world.stores[0].location
    flt = SpatialFilter(
        LevelRef("Store"),
        SpatialRelation.DISTANCE,
        Point(center.x, center.y),
        ComparisonOp.LE,
        5_000.0,
    )
    fast, slow = _both_paths(spatial_star, flt)
    assert fast.cells == slow.cells
    assert fast.fact_rows_matched > 0


@pytest.mark.parametrize(
    "relation",
    [
        SpatialRelation.INTERSECT,
        SpatialRelation.DISJOINT,
        SpatialRelation.EQUALS,
    ],
)
def test_layer_index_orientation_agrees_with_scan(spatial_star, relation):
    """A layer with more features than the level has members is still
    one input to the one index path (each feature probes the level's
    envelope columns), which must agree with the scan."""
    table = spatial_star.dimension_table("Store")
    member_count = len(table.members("Store"))
    a_geometry = table.leaf_members()[0].geometry
    spatial_star.add_features(
        "Airport",
        [
            (f"extra-{i}", Point(a_geometry.x + i * 1000.0, a_geometry.y), None)
            for i in range(member_count + 5)
        ],
    )
    flt = SpatialFilter(LevelRef("Store"), relation, LayerRef("Airport"))
    fast, slow = _both_paths(spatial_star, flt)
    assert fast.cells == slow.cells


def test_layer_index_orientation_distance_agrees_with_scan(spatial_star):
    """The DISTANCE case of the test above: the layer, larger than the
    level, probes the level's envelope columns once per feature."""
    table = spatial_star.dimension_table("Store")
    member_count = len(table.members("Store"))
    a_geometry = table.leaf_members()[0].geometry
    spatial_star.add_features(
        "Airport",
        [
            (f"extra-{i}", Point(a_geometry.x + i * 1000.0, a_geometry.y), None)
            for i in range(member_count + 5)
        ],
    )
    flt = SpatialFilter(
        LevelRef("Store"),
        SpatialRelation.DISTANCE,
        LayerRef("Airport"),
        ComparisonOp.LE,
        10_000.0,
    )
    fast, slow = _both_paths(spatial_star, flt)
    assert fast.cells == slow.cells
    assert fast.fact_rows_matched > 0


def test_index_results_follow_feature_inserts(spatial_star):
    """A feature added after the index was built must be visible."""
    flt = SpatialFilter(
        LevelRef("Store"), SpatialRelation.EQUALS, LayerRef("Airport")
    )
    before = execute(spatial_star, _query(flt))
    store_geom = (
        spatial_star.dimension_table("Store").leaf_members()[0].geometry
    )
    spatial_star.add_features(
        "Airport", [("OnTopOfStore", Point(store_geom.x, store_geom.y), None)]
    )
    after = execute(spatial_star, _query(flt))
    assert after.fact_rows_matched > before.fact_rows_matched
