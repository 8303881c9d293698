"""Property-based tests (hypothesis) for the geometry kernel invariants."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import (
    GridIndex,
    LineString,
    Point,
    Polygon,
    STRtree,
    centroid,
    convex_hull,
    distance,
    equals,
    intersects,
    point_buffer,
    wkt_dumps,
    wkt_loads,
    within,
)
from repro.geometry import algorithms as alg

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
coords = st.tuples(finite, finite)
points = st.builds(Point, finite, finite)


def _dedupe_consecutive(pts):
    out = []
    for c in pts:
        if not out or not alg.coords_equal(out[-1], c):
            out.append(c)
    return out


linestrings = (
    st.lists(coords, min_size=2, max_size=8)
    .map(_dedupe_consecutive)
    .filter(lambda pts: len(pts) >= 2)
    .map(LineString)
)


def _hull_or_none(pts):
    hull = alg.convex_hull(pts)
    if len(hull) < 3:
        return None
    try:
        return Polygon(hull)
    except Exception:
        return None


convex_polygons = (
    st.lists(coords, min_size=3, max_size=12, unique=True)
    .map(_hull_or_none)
    # Extreme slivers fall outside the kernel's documented tolerance model
    # (see repro.geometry.algorithms); require well-conditioned shapes.
    .filter(lambda poly: poly is not None and poly.area >= 1e-9 * poly.perimeter**2)
)


class TestWKTRoundTrip:
    @given(points)
    def test_point(self, p):
        assert wkt_loads(wkt_dumps(p)) == p

    @given(linestrings)
    def test_linestring(self, line):
        assert wkt_loads(wkt_dumps(line)) == line

    @given(convex_polygons)
    def test_polygon(self, poly):
        assert equals(wkt_loads(wkt_dumps(poly)), poly)


class TestDistanceProperties:
    @given(points, points)
    def test_symmetry(self, a, b):
        assert distance(a, b) == distance(b, a)

    @given(points, points)
    def test_non_negative_and_identity(self, a, b):
        d = distance(a, b)
        assert d >= 0.0
        if a == b:
            assert d == 0.0

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-6

    @given(points, linestrings)
    def test_point_line_bounded_by_vertices(self, p, line):
        d = distance(p, line)
        vertex_min = min(alg.distance(p.coord, v) for v in line.coord_list)
        assert d <= vertex_min + 1e-9


class TestPredicateProperties:
    @given(points, convex_polygons)
    def test_within_implies_intersects(self, p, poly):
        if within(p, poly):
            assert intersects(p, poly)

    @given(points, convex_polygons)
    def test_intersects_iff_distance_zero(self, p, poly):
        if intersects(p, poly):
            assert distance(p, poly) == 0.0
        else:
            assert distance(p, poly) > 0.0

    @given(convex_polygons)
    def test_centroid_within_convex_polygon(self, poly):
        c = centroid(poly)
        assert poly.locate_coord(c.coord) != "exterior"

    @given(linestrings, linestrings)
    def test_intersects_symmetric(self, a, b):
        assert intersects(a, b) == intersects(b, a)


class TestHullProperties:
    @given(st.lists(points, min_size=1, max_size=20))
    # A tiny triangle: Polygon rejects its area as zero, and collapsing
    # it to its diameter would leave (0, 0) 7.07e-6 away.
    @example([Point(0.0, 0.0), Point(0.0, 1e-5), Point(1e-5, 0.0)])
    def test_hull_contains_all_points(self, pts):
        hull = convex_hull(pts)
        for p in pts:
            assert distance(p, hull) <= 1e-6 * max(
                1.0, *(abs(c) for pt in pts for c in pt.coord)
            )

    @given(st.lists(points, min_size=3, max_size=20))
    def test_hull_idempotent(self, pts):
        h1 = convex_hull(pts)
        h2 = convex_hull(h1)
        assert equals(h1, h2)


class TestBufferProperties:
    @given(points, st.floats(min_value=0.1, max_value=1e4))
    def test_buffer_contains_center(self, p, r):
        disc = point_buffer(p, r)
        assert disc.locate_coord(p.coord) == "interior"

    @given(points, st.floats(min_value=0.5, max_value=1e4))
    def test_buffer_area_below_circle(self, p, r):
        disc = point_buffer(p, r, segments=64)
        assert disc.area <= math.pi * r * r + 1e-6
        assert disc.area >= math.pi * r * r * 0.95


class TestIndexProperties:
    @settings(max_examples=25)
    @given(
        st.lists(points, min_size=1, max_size=80),
        points,
        st.floats(min_value=0.0, max_value=1e6),
    )
    def test_indexes_agree_with_brute_force(self, pts, center, radius):
        entries = [(p, i) for i, p in enumerate(pts)]
        expected = sorted(
            i for p, i in entries if distance(p, center) <= radius
        )
        for factory in (GridIndex, STRtree):
            idx = factory(entries)
            assert sorted(idx.within_distance(center, radius)) == expected

    @settings(max_examples=25)
    @given(st.lists(points, min_size=2, max_size=60), points)
    def test_nearest_matches_min(self, pts, center):
        entries = [(p, i) for i, p in enumerate(pts)]
        tree = STRtree(entries)
        (d, _item), = tree.nearest(center, k=1)
        assert d == min(distance(p, center) for p, _ in entries)
