"""Tests for the DE-9IM relate() matrix, incl. predicate consistency."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import (
    LineString,
    MultiPoint,
    Point,
    Polygon,
    contains,
    equals,
    intersects,
    within,
)
from repro.geometry import algorithms as alg
from repro.geometry.de9im import dim_char, matches, relate

SQUARE = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])


class TestMatrixBasics:
    def test_dim_char(self):
        assert dim_char(None) == "F"
        assert dim_char(0) == "0"
        assert dim_char(2) == "2"
        with pytest.raises(GeometryError):
            dim_char(3)

    def test_matches_patterns(self):
        assert matches("212FF1FF2", "T*F**FFF*" ) is False
        assert matches("0FFFFF0F2", "0********")
        assert matches("0FFFFF0F2", "T********")
        assert not matches("FFFFFFFF2", "T********")
        with pytest.raises(GeometryError):
            matches("short", "T********")

    def test_multi_rejected(self):
        with pytest.raises(GeometryError):
            relate(MultiPoint([Point(0, 0)]), SQUARE)


class TestKnownMatrices:
    def test_equal_points(self):
        assert relate(Point(1, 1), Point(1, 1)) == "0FFFFFFF2"

    def test_distinct_points(self):
        assert relate(Point(1, 1), Point(2, 2)) == "FF0FFF0F2"

    def test_point_inside_polygon(self):
        assert relate(Point(5, 5), SQUARE) == "0FFFFF212"

    def test_point_on_polygon_boundary(self):
        assert relate(Point(0, 5), SQUARE) == "F0FFFF212"

    def test_point_outside_polygon(self):
        assert relate(Point(50, 5), SQUARE) == "FF0FFF212"

    def test_point_in_line_interior(self):
        line = LineString([(0, 0), (10, 0)])
        assert relate(Point(5, 0), line) == "0FFFFF102"

    def test_point_at_line_endpoint(self):
        line = LineString([(0, 0), (10, 0)])
        assert relate(Point(0, 0), line) == "F0FFFF102"

    def test_crossing_lines(self):
        a = LineString([(0, -5), (0, 5)])
        b = LineString([(-5, 0), (5, 0)])
        assert relate(a, b) == "0F1FF0102"

    def test_overlapping_lines(self):
        a = LineString([(0, 0), (10, 0)])
        b = LineString([(5, 0), (15, 0)])
        matrix = relate(a, b)
        assert matrix[0] == "1"  # 1-dimensional interior overlap

    def test_line_within_polygon(self):
        line = LineString([(2, 2), (8, 8)])
        assert relate(line, SQUARE) == "1FF0FF212"

    def test_line_crossing_polygon(self):
        line = LineString([(-5, 5), (15, 5)])
        matrix = relate(line, SQUARE)
        assert matrix[0] == "1"  # interior/interior
        assert matrix[1] == "0"  # crosses the boundary at points
        assert matrix[2] == "1"  # interior extends outside

    def test_identical_polygons(self):
        other = Polygon([(0, 0), (10, 0), (10, 10), (0, 10)])
        matrix = relate(SQUARE, other)
        # interiors coincide (2), boundaries coincide (1), nothing escapes.
        assert matrix == "2FFF1FFF2"
        assert matches(matrix, "T*F**FFF*")  # the OGC equals pattern

    def test_overlapping_polygons(self):
        other = Polygon([(5, 5), (15, 5), (15, 15), (5, 15)])
        matrix = relate(SQUARE, other)
        assert matrix[0] == "2"
        assert matrix[2] == "2"
        assert matrix[6] == "2"

    def test_touching_polygons(self):
        other = Polygon([(10, 0), (20, 0), (20, 10), (10, 10)])
        matrix = relate(SQUARE, other)
        assert matrix[0] == "F"
        assert matrix[4] == "1"  # boundaries share an edge

    def test_disjoint_polygons(self):
        far = Polygon([(50, 50), (60, 50), (60, 60), (50, 60)])
        assert relate(SQUARE, far) == "FF2FF1212"

    def test_nested_polygons(self):
        inner = Polygon([(2, 2), (4, 2), (4, 4), (2, 4)])
        matrix = relate(inner, SQUARE)
        assert matches(matrix, "2FF1FF***")  # within pattern
        assert matches(relate(SQUARE, inner), "212FF1FF2".replace("1", "*"))


class TestOGCDefinitionalPatterns:
    """The OGC named predicates, defined via their DE-9IM patterns."""

    def _check(self, a, b):
        matrix = relate(a, b)
        # intersects <=> any of II, IB, BI, BB non-empty
        pattern_hit = any(matrix[i] != "F" for i in (0, 1, 3, 4))
        assert pattern_hit == intersects(a, b), (matrix, a, b)
        # within <=> II != F and IE == F and BE == F
        within_matrix = matrix[0] != "F" and matrix[2] == "F" and matrix[5] == "F"
        assert within_matrix == within(a, b), (matrix, a, b)

    POINTS = [Point(5, 5), Point(0, 5), Point(50, 50), Point(0, 0)]
    LINES = [
        LineString([(2, 2), (8, 8)]),
        LineString([(-5, 5), (15, 5)]),
        LineString([(0, -5), (0, 15)]),
        LineString([(50, 50), (60, 60)]),
        LineString([(0, 0), (10, 0)]),
    ]
    POLYGONS = [
        SQUARE,
        Polygon([(5, 5), (15, 5), (15, 15), (5, 15)]),
        Polygon([(10, 0), (20, 0), (20, 10), (10, 10)]),
        Polygon([(2, 2), (4, 2), (4, 4), (2, 4)]),
        Polygon([(50, 50), (60, 50), (60, 60), (50, 60)]),
    ]

    @pytest.mark.parametrize("p", POINTS, ids=lambda g: g.wkt)
    def test_point_vs_square(self, p):
        self._check(p, SQUARE)

    @pytest.mark.parametrize("line", LINES, ids=range(len(LINES)))
    def test_line_vs_square(self, line):
        self._check(line, SQUARE)

    @pytest.mark.parametrize("poly", POLYGONS, ids=range(len(POLYGONS)))
    def test_polygon_vs_square(self, poly):
        self._check(poly, SQUARE)

    @pytest.mark.parametrize("p", POINTS, ids=lambda g: g.wkt)
    @pytest.mark.parametrize("line", LINES[:3], ids=range(3))
    def test_point_vs_line(self, p, line):
        self._check(p, line)


class TestTransposeSymmetry:
    CASES = [
        (Point(5, 5), SQUARE),
        (LineString([(2, 2), (8, 8)]), SQUARE),
        (Point(5, 0), LineString([(0, 0), (10, 0)])),
        (
            LineString([(0, -5), (0, 5)]),
            LineString([(-5, 0), (5, 0)]),
        ),
        (SQUARE, Polygon([(5, 5), (15, 5), (15, 15), (5, 15)])),
    ]

    @pytest.mark.parametrize("a, b", CASES, ids=range(len(CASES)))
    def test_relate_transposes(self, a, b):
        forward = relate(a, b)
        backward = relate(b, a)
        transposed = "".join(
            forward[row * 3 + col] for col in range(3) for row in range(3)
        )
        assert backward == transposed


finite = st.floats(min_value=-100, max_value=100, allow_nan=False).map(
    lambda v: round(v, 2)
)
points = st.builds(Point, finite, finite)


class TestPropertyConsistency:
    @settings(max_examples=100)
    @given(points, points)
    def test_point_point_consistency(self, a, b):
        matrix = relate(a, b)
        assert (matrix[0] != "F") == equals(a, b)
        assert (matrix[0] != "F") == intersects(a, b)

    @settings(max_examples=100)
    @given(points)
    def test_point_vs_fixed_polygon(self, p):
        matrix = relate(p, SQUARE)
        hit = any(matrix[i] != "F" for i in (0, 1, 3, 4))
        assert hit == intersects(p, SQUARE)
        within_matrix = (
            matrix[0] != "F" and matrix[2] == "F" and matrix[5] == "F"
        )
        assert within_matrix == within(p, SQUARE)
        assert within_matrix == contains(SQUARE, p)
