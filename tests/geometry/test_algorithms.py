"""Unit tests for the low-level planar geometry routines."""

import pytest

from repro.geometry import algorithms as alg


class TestOrientation:
    def test_counter_clockwise(self):
        assert alg.orientation((0, 0), (1, 0), (0, 1)) == 1

    def test_clockwise(self):
        assert alg.orientation((0, 0), (0, 1), (1, 0)) == -1

    def test_collinear(self):
        assert alg.orientation((0, 0), (1, 1), (2, 2)) == 0

    def test_collinear_with_large_coordinates(self):
        assert alg.orientation((1e6, 1e6), (2e6, 2e6), (3e6, 3e6)) == 0

    def test_near_collinear_is_collinear_within_eps(self):
        assert alg.orientation((0, 0), (1, 0), (2, 1e-12)) == 0


class TestOnSegment:
    def test_midpoint(self):
        assert alg.on_segment((0.5, 0.5), (0, 0), (1, 1))

    def test_endpoint(self):
        assert alg.on_segment((1, 1), (0, 0), (1, 1))

    def test_collinear_but_outside(self):
        assert not alg.on_segment((2, 2), (0, 0), (1, 1))

    def test_off_line(self):
        assert not alg.on_segment((0.5, 0.6), (0, 0), (1, 1))


class TestDistances:
    def test_point_distance(self):
        assert alg.distance((0, 0), (3, 4)) == 5.0

    def test_point_segment_perpendicular(self):
        assert alg.point_segment_distance((0, 1), (-1, 0), (1, 0)) == 1.0

    def test_point_segment_clamps_to_endpoint(self):
        assert alg.point_segment_distance((3, 4), (0, 0), (0, 0)) == 5.0
        assert alg.point_segment_distance((2, 0), (0, 0), (1, 0)) == 1.0

    def test_segment_segment_crossing_is_zero(self):
        assert alg.segment_segment_distance((0, -1), (0, 1), (-1, 0), (1, 0)) == 0.0

    def test_segment_segment_parallel(self):
        assert alg.segment_segment_distance((0, 0), (1, 0), (0, 1), (1, 1)) == 1.0


class TestSegmentIntersection:
    def test_proper_crossing(self):
        kind, pts = alg.segment_intersection((0, -1), (0, 1), (-1, 0), (1, 0))
        assert kind == "point"
        assert pts[0] == pytest.approx((0.0, 0.0))

    def test_touching_endpoint(self):
        kind, pts = alg.segment_intersection((0, 0), (1, 0), (1, 0), (2, 5))
        assert kind == "point"
        assert pts[0] == pytest.approx((1.0, 0.0))

    def test_disjoint(self):
        kind, pts = alg.segment_intersection((0, 0), (1, 0), (0, 1), (1, 1))
        assert kind == "none"
        assert pts == ()

    def test_collinear_overlap(self):
        kind, pts = alg.segment_intersection((0, 0), (2, 0), (1, 0), (3, 0))
        assert kind == "segment"
        assert sorted(pts) == [(1.0, 0.0), (2.0, 0.0)]

    def test_collinear_single_point_touch(self):
        kind, pts = alg.segment_intersection((0, 0), (1, 0), (1, 0), (2, 0))
        assert kind == "point"
        assert pts[0] == (1.0, 0.0)

    def test_collinear_disjoint(self):
        kind, _ = alg.segment_intersection((0, 0), (1, 0), (2, 0), (3, 0))
        assert kind == "none"

    def test_identical_segments(self):
        kind, pts = alg.segment_intersection((0, 0), (1, 1), (0, 0), (1, 1))
        assert kind == "segment"
        assert set(pts) == {(0.0, 0.0), (1.0, 1.0)}


class TestPolylines:
    def test_length(self):
        assert alg.polyline_length([(0, 0), (3, 0), (3, 4)]) == 7.0

    def test_point_polyline_distance(self):
        assert alg.point_polyline_distance((1, 1), [(0, 0), (2, 0)]) == 1.0

    def test_locate_on_polyline(self):
        arc, q = alg.locate_on_polyline((3, 1), [(0, 0), (3, 0), (3, 4)])
        assert arc == pytest.approx(4.0)
        assert q == pytest.approx((3.0, 1.0))

    def test_locate_snaps_off_line_points(self):
        arc, q = alg.locate_on_polyline((1.5, 2.0), [(0, 0), (3, 0)])
        assert arc == pytest.approx(1.5)
        assert q == pytest.approx((1.5, 0.0))

    def test_arc_between(self):
        line = [(0, 0), (10, 0)]
        assert alg.polyline_arc_between(line, (2, 0), (7, 0)) == pytest.approx(5.0)

    def test_arc_between_is_symmetric(self):
        line = [(0, 0), (5, 0), (5, 5)]
        d1 = alg.polyline_arc_between(line, (1, 0), (5, 3))
        d2 = alg.polyline_arc_between(line, (5, 3), (1, 0))
        assert d1 == pytest.approx(d2)
        assert d1 == pytest.approx(7.0)


class TestRings:
    UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_signed_area_ccw_positive(self):
        assert alg.signed_area(self.UNIT_SQUARE) == 1.0

    def test_signed_area_cw_negative(self):
        assert alg.signed_area(list(reversed(self.UNIT_SQUARE))) == -1.0

    def test_signed_area_accepts_closed_ring(self):
        ring = self.UNIT_SQUARE + [(0, 0)]
        assert alg.signed_area(ring) == 1.0

    def test_centroid_of_square(self):
        assert alg.ring_centroid(self.UNIT_SQUARE) == pytest.approx((0.5, 0.5))

    def test_point_in_ring_interior(self):
        assert alg.point_in_ring((0.5, 0.5), self.UNIT_SQUARE) == "interior"

    def test_point_in_ring_boundary(self):
        assert alg.point_in_ring((0.5, 0.0), self.UNIT_SQUARE) == "boundary"
        assert alg.point_in_ring((0.0, 0.0), self.UNIT_SQUARE) == "boundary"

    def test_point_in_ring_exterior(self):
        assert alg.point_in_ring((1.5, 0.5), self.UNIT_SQUARE) == "exterior"

    def test_point_in_concave_ring(self):
        # A "U" shape: the notch is exterior.
        u_shape = [(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)]
        assert alg.point_in_ring((1.5, 2.0), u_shape) == "exterior"
        assert alg.point_in_ring((0.5, 2.0), u_shape) == "interior"

    def test_simple_ring(self):
        assert alg.is_ring_simple(self.UNIT_SQUARE)

    def test_bowtie_not_simple(self):
        assert not alg.is_ring_simple([(0, 0), (1, 1), (1, 0), (0, 1)])


class TestConvexHull:
    def test_square_with_interior_point(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
        hull = alg.convex_hull(pts)
        assert set(hull) == {(0, 0), (1, 0), (1, 1), (0, 1)}
        assert alg.signed_area(hull) > 0  # counter-clockwise

    def test_collinear_points(self):
        assert alg.convex_hull([(0, 0), (1, 1), (2, 2)]) == [(0, 0), (2, 2)]

    def test_duplicates_collapse(self):
        assert alg.convex_hull([(1, 2), (1, 2), (1, 2)]) == [(1, 2)]

    def test_two_points(self):
        assert alg.convex_hull([(0, 0), (1, 0)]) == [(0, 0), (1, 0)]
