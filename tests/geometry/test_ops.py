"""Tests for value-returning geometric operations."""

import pytest

from repro.errors import GeometryError
from repro.geometry import (
    GeometryCollection,
    LineString,
    MultiPoint,
    Point,
    Polygon,
    centroid,
    clip_line_to_polygon,
    clip_polygon_convex,
    distance,
    intersection,
    is_convex,
    split_line_at,
)

SQUARE = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])


class TestDistance:
    def test_point_point(self):
        assert distance(Point(0, 0), Point(3, 4)) == 5.0

    def test_point_line(self):
        assert distance(Point(5, 3), LineString([(0, 0), (10, 0)])) == 3.0

    def test_point_in_polygon_is_zero(self):
        assert distance(Point(5, 5), SQUARE) == 0.0

    def test_point_outside_polygon(self):
        assert distance(Point(15, 5), SQUARE) == 5.0

    def test_line_line(self):
        a = LineString([(0, 0), (10, 0)])
        b = LineString([(0, 3), (10, 3)])
        assert distance(a, b) == 3.0

    def test_crossing_lines_zero(self):
        a = LineString([(0, 0), (10, 10)])
        b = LineString([(0, 10), (10, 0)])
        assert distance(a, b) == 0.0

    def test_line_polygon(self):
        line = LineString([(15, 0), (15, 10)])
        assert distance(line, SQUARE) == 5.0
        assert distance(SQUARE, line) == 5.0

    def test_polygon_polygon(self):
        far = Polygon([(20, 0), (30, 0), (30, 10), (20, 10)])
        assert distance(SQUARE, far) == 10.0

    def test_overlapping_polygons_zero(self):
        other = Polygon([(5, 5), (15, 5), (15, 15), (5, 15)])
        assert distance(SQUARE, other) == 0.0

    def test_collection_takes_minimum(self):
        gc = GeometryCollection([Point(100, 100), Point(13, 4)])
        assert distance(gc, Point(10, 0)) == 5.0

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            distance(GeometryCollection(()), Point(0, 0))


class TestIntersection:
    def test_point_point_hit(self):
        result = intersection(Point(1, 1), Point(1, 1))
        assert result == Point(1, 1)

    def test_point_point_miss(self):
        assert intersection(Point(1, 1), Point(2, 2)).is_empty

    def test_point_line(self):
        result = intersection(Point(5, 0), LineString([(0, 0), (10, 0)]))
        assert result == Point(5, 0)

    def test_line_line_single_point(self):
        a = LineString([(0, 0), (10, 10)])
        b = LineString([(0, 10), (10, 0)])
        result = intersection(a, b)
        assert isinstance(result, Point)
        assert result.coord == pytest.approx((5.0, 5.0))

    def test_line_line_overlap(self):
        a = LineString([(0, 0), (10, 0)])
        b = LineString([(5, 0), (15, 0)])
        result = intersection(a, b)
        assert isinstance(result, LineString)
        assert result.length == pytest.approx(5.0)

    def test_line_line_multiple_crossings(self):
        zigzag = LineString([(0, -1), (2, 1), (4, -1), (6, 1)])
        axis = LineString([(-1, 0), (7, 0)])
        result = intersection(zigzag, axis)
        assert isinstance(result, MultiPoint)
        assert len(result) == 3

    def test_line_polygon_clips(self):
        line = LineString([(-5, 5), (15, 5)])
        result = intersection(line, SQUARE)
        assert isinstance(result, LineString)
        assert result.length == pytest.approx(10.0)

    def test_polygon_polygon_convex(self):
        other = Polygon([(5, 5), (15, 5), (15, 15), (5, 15)])
        result = intersection(SQUARE, other)
        assert isinstance(result, Polygon)
        assert result.area == pytest.approx(25.0)

    def test_polygon_polygon_concave_raises(self):
        concave = Polygon(
            [(0, 0), (10, 0), (10, 10), (5, 5), (0, 10)]
        )
        other_concave = Polygon(
            [(1, 1), (9, 1), (9, 9), (5, 4), (1, 9)]
        )
        with pytest.raises(GeometryError):
            intersection(concave, other_concave)

    def test_disjoint_returns_empty(self):
        assert intersection(Point(50, 50), SQUARE).is_empty


class TestCentroid:
    def test_point(self):
        assert centroid(Point(3, 4)) == Point(3, 4)

    def test_square(self):
        c = centroid(SQUARE)
        assert (c.x, c.y) == pytest.approx((5.0, 5.0))

    def test_line_is_length_weighted(self):
        line = LineString([(0, 0), (10, 0), (10, 2)])
        c = centroid(line)
        expected_x = (5.0 * 10 + 10.0 * 2) / 12
        expected_y = (0.0 * 10 + 1.0 * 2) / 12
        assert (c.x, c.y) == pytest.approx((expected_x, expected_y))

    def test_collection_uses_top_dimension(self):
        gc = GeometryCollection([Point(100, 100), SQUARE])
        c = centroid(gc)
        assert (c.x, c.y) == pytest.approx((5.0, 5.0))

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            centroid(GeometryCollection(()))


class TestSplitAndClip:
    def test_split_line(self):
        line = LineString([(0, 0), (10, 0)])
        pieces = split_line_at(line, [Point(4, 0), Point(7, 0)])
        assert [round(p.length, 6) for p in pieces] == [4.0, 3.0, 3.0]

    def test_split_ignores_off_line_points(self):
        line = LineString([(0, 0), (10, 0)])
        pieces = split_line_at(line, [Point(5, 3)])
        assert len(pieces) == 1

    def test_split_at_vertex(self):
        line = LineString([(0, 0), (5, 0), (10, 0)])
        pieces = split_line_at(line, [Point(5, 0)])
        assert len(pieces) == 2

    def test_clip_line_keeps_inside_portion(self):
        line = LineString([(-5, 5), (5, 5)])
        pieces = clip_line_to_polygon(line, SQUARE)
        assert len(pieces) == 1
        assert pieces[0].length == pytest.approx(5.0)

    def test_clip_line_fully_outside(self):
        line = LineString([(-5, -5), (-1, -1)])
        assert clip_line_to_polygon(line, SQUARE) == []

    def test_clip_line_through_produces_one_piece(self):
        line = LineString([(-5, 5), (15, 5)])
        pieces = clip_line_to_polygon(line, SQUARE)
        assert sum(p.length for p in pieces) == pytest.approx(10.0)


class TestConvexClip:
    def test_is_convex(self):
        assert is_convex(SQUARE)
        concave = Polygon([(0, 0), (10, 0), (10, 10), (5, 5), (0, 10)])
        assert not is_convex(concave)

    def test_polygon_with_hole_not_convex(self):
        donut = Polygon(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]],
        )
        assert not is_convex(donut)

    def test_clip_partial(self):
        subject = Polygon([(5, 5), (15, 5), (15, 15), (5, 15)])
        clipped = clip_polygon_convex(subject, SQUARE)
        assert clipped is not None
        assert clipped.area == pytest.approx(25.0)

    def test_clip_disjoint_is_none(self):
        subject = Polygon([(20, 20), (30, 20), (30, 30), (20, 30)])
        assert clip_polygon_convex(subject, SQUARE) is None

    def test_clip_contained_returns_subject_area(self):
        subject = Polygon([(2, 2), (4, 2), (4, 4), (2, 4)])
        clipped = clip_polygon_convex(subject, SQUARE)
        assert clipped is not None
        assert clipped.area == pytest.approx(4.0)

    def test_clip_against_concave_raises(self):
        concave = Polygon([(0, 0), (10, 0), (10, 10), (5, 5), (0, 10)])
        with pytest.raises(GeometryError):
            clip_polygon_convex(SQUARE, concave)
