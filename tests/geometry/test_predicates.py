"""Tests for the topological predicates (the paper's PRML operators)."""

import pytest

from repro.geometry import (
    GeometryCollection,
    LineString,
    MultiPoint,
    Point,
    Polygon,
    contains,
    crosses,
    disjoint,
    equals,
    intersects,
    predicates,
    within,
)
from repro.olap.query import SpatialRelation, _relation_predicate
from repro.prml.stdlib import _PREDICATES

SQUARE = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
SMALL_SQUARE = Polygon([(2, 2), (4, 2), (4, 4), (2, 4)])
FAR_SQUARE = Polygon([(20, 20), (30, 20), (30, 30), (20, 30)])
DONUT = Polygon(
    [(0, 0), (10, 0), (10, 10), (0, 10)],
    holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]],
)


def test_the_kernel_predicates_are_the_operators():
    """The kernel's predicates are exactly the boolean operators PRML and
    GeoMDQL name: none is left that no rule or query can reach."""
    operators = {function.__name__ for function in _PREDICATES.values()} | {
        _relation_predicate(relation).__name__
        for relation in SpatialRelation
        if relation is not SpatialRelation.DISTANCE
    }
    assert set(predicates.__all__) == operators


class TestIntersects:
    def test_point_point(self):
        assert intersects(Point(1, 1), Point(1, 1))
        assert not intersects(Point(1, 1), Point(1, 2))

    def test_point_line(self):
        line = LineString([(0, 0), (10, 0)])
        assert intersects(Point(5, 0), line)
        assert intersects(line, Point(5, 0))
        assert not intersects(Point(5, 1), line)

    def test_point_polygon(self):
        assert intersects(Point(5, 5), SQUARE)
        assert intersects(Point(0, 5), SQUARE)  # boundary counts
        assert not intersects(Point(50, 50), SQUARE)

    def test_point_in_donut_hole_does_not_intersect(self):
        assert not intersects(Point(5, 5), DONUT)

    def test_line_line(self):
        a = LineString([(0, 0), (10, 10)])
        b = LineString([(0, 10), (10, 0)])
        c = LineString([(20, 20), (30, 30)])
        assert intersects(a, b)
        assert not intersects(a, c)

    def test_line_polygon(self):
        crossing = LineString([(-5, 5), (15, 5)])
        outside = LineString([(-5, -5), (-1, -1)])
        assert intersects(crossing, SQUARE)
        assert intersects(SQUARE, crossing)
        assert not intersects(outside, SQUARE)

    def test_line_through_polygon_without_interior_vertices(self):
        through = LineString([(-5, 5), (20, 5)])
        assert intersects(through, SQUARE)

    def test_polygon_polygon_nested(self):
        assert intersects(SQUARE, SMALL_SQUARE)

    def test_polygon_polygon_disjoint(self):
        assert not intersects(SQUARE, FAR_SQUARE)

    def test_collection(self):
        gc = GeometryCollection([Point(50, 50), Point(5, 5)])
        assert intersects(gc, SQUARE)

    def test_empty_geometry_never_intersects(self):
        assert not intersects(GeometryCollection(()), SQUARE)

    def test_disjoint_is_negation(self):
        assert disjoint(Point(50, 50), SQUARE)
        assert not disjoint(Point(5, 5), SQUARE)


class TestWithinContains:
    def test_point_in_polygon(self):
        assert within(Point(5, 5), SQUARE)
        assert contains(SQUARE, Point(5, 5))

    def test_boundary_point_not_within(self):
        # OGC: within requires an interior-interior intersection.
        assert not within(Point(0, 5), SQUARE)

    def test_point_on_line(self):
        line = LineString([(0, 0), (10, 0)])
        assert within(Point(5, 0), line)

    def test_line_endpoint_not_within(self):
        line = LineString([(0, 0), (10, 0)])
        assert not within(Point(0, 0), line)

    def test_line_in_polygon(self):
        inner = LineString([(2, 2), (8, 8)])
        assert within(inner, SQUARE)

    def test_poking_line_not_within(self):
        poking = LineString([(5, 5), (15, 5)])
        assert not within(poking, SQUARE)

    def test_chord_line_not_within_donut_hole_crossing(self):
        chord = LineString([(2, 5), (8, 5)])  # passes over the hole
        assert not within(chord, DONUT)

    def test_polygon_in_polygon(self):
        assert within(SMALL_SQUARE, SQUARE)
        assert not within(SQUARE, SMALL_SQUARE)

    def test_polygon_not_within_disjoint(self):
        assert not within(FAR_SQUARE, SQUARE)

    def test_line_within_line(self):
        long_line = LineString([(0, 0), (10, 0)])
        short_line = LineString([(2, 0), (6, 0)])
        assert within(short_line, long_line)
        assert not within(long_line, short_line)

    def test_multipoint_within(self):
        mp = MultiPoint([Point(3, 3), Point(7, 7)])
        assert within(mp, SQUARE)
        mp_mixed = MultiPoint([Point(3, 3), Point(50, 50)])
        assert not within(mp_mixed, SQUARE)


class TestCrosses:
    def test_line_crosses_line(self):
        a = LineString([(0, 0), (10, 10)])
        b = LineString([(0, 10), (10, 0)])
        assert crosses(a, b)

    def test_touching_lines_do_not_cross(self):
        a = LineString([(0, 0), (5, 5)])
        b = LineString([(5, 5), (10, 0)])
        assert not crosses(a, b)

    def test_t_junction_does_not_cross(self):
        # Endpoint of a lies in interior of b: boundary/interior, not crossing.
        a = LineString([(5, 0), (5, 5)])
        b = LineString([(0, 5), (10, 5)])
        assert not crosses(a, b)

    def test_overlapping_lines_do_not_cross(self):
        a = LineString([(0, 0), (10, 0)])
        b = LineString([(5, 0), (15, 0)])
        assert not crosses(a, b)

    def test_line_crosses_polygon(self):
        through = LineString([(-5, 5), (15, 5)])
        assert crosses(through, SQUARE)
        assert crosses(SQUARE, through)  # symmetric dispatch

    def test_interior_line_does_not_cross_polygon(self):
        inner = LineString([(2, 2), (8, 8)])
        assert not crosses(inner, SQUARE)

    def test_point_never_crosses(self):
        assert not crosses(Point(5, 5), SQUARE)
        assert not crosses(Point(5, 5), LineString([(0, 0), (10, 10)]))

    def test_multipoint_crosses_polygon(self):
        mp = MultiPoint([Point(5, 5), Point(50, 50)])
        assert crosses(mp, SQUARE)
        mp_all_in = MultiPoint([Point(5, 5), Point(6, 6)])
        assert not crosses(mp_all_in, SQUARE)


class TestEquals:
    def test_points(self):
        assert equals(Point(1, 2), Point(1, 2))
        assert not equals(Point(1, 2), Point(2, 1))

    def test_reversed_line(self):
        assert equals(
            LineString([(0, 0), (5, 5), (10, 0)]),
            LineString([(10, 0), (5, 5), (0, 0)]),
        )

    def test_rotated_polygon_ring(self):
        a = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = Polygon([(1, 1), (0, 1), (0, 0), (1, 0)])
        assert equals(a, b)

    def test_opposite_orientation_polygons(self):
        a = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
        b = Polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
        assert equals(a, b)

    def test_different_polygons(self):
        assert not equals(SQUARE, SMALL_SQUARE)

    def test_multipoint_order_insensitive(self):
        a = MultiPoint([Point(0, 0), Point(1, 1)])
        b = MultiPoint([Point(1, 1), Point(0, 0)])
        assert equals(a, b)

    def test_mixed_types_not_equal(self):
        assert not equals(Point(0, 0), LineString([(0, 0), (1, 1)]))
