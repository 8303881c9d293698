"""Property-based tests (hypothesis) for the geometry kernel invariants."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import (
    Envelope,
    LineString,
    Point,
    Polygon,
    brute_force_within_distance,
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
from repro.geometry.index import EnvelopeColumns, candidate_probe

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
        expected = brute_force_within_distance(entries, center, radius)
        # The engine's envelope columns only pre-filter: the loosened
        # probe must keep every point the exact test keeps, and the
        # exact test on its candidates gives the brute-force answer.
        columns = EnvelopeColumns(entries)
        probe = candidate_probe(center.envelope, radius)
        candidates = columns.query_envelope(probe)
        assert set(expected) <= set(candidates)
        assert [
            i for i in candidates if distance(pts[i], center) <= radius
        ] == expected


#: Points, lines and polygons; the lines and polygons reach across up to
#: the whole coordinate range, so some envelopes are far wider than most.
mixed_geometries = st.one_of(points, linestrings, convex_polygons)


@st.composite
def envelope_queries(draw, geometries):
    """A query envelope: anywhere, or touching one geometry's envelope at
    its right edge (the entries a slab that ignored the widest
    envelope's width would miss)."""
    a, b = draw(coords), draw(coords)
    anywhere = Envelope(
        min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1])
    )
    env = draw(st.sampled_from(geometries)).envelope
    right_edge = Envelope(env.max_x, env.min_y, env.max_x + abs(a[0]), env.max_y)
    return draw(st.sampled_from([anywhere, right_edge]))


class TestEnvelopeColumnsProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_query_equals_linear_intersects_filter(self, data):
        held = data.draw(st.lists(mixed_geometries, min_size=1, max_size=40))
        columns = EnvelopeColumns(list(zip(held, range(len(held)))))
        assert len(columns) == len(held)
        for _ in range(4):
            query = data.draw(envelope_queries(held))
            assert columns.query_envelope(query) == [
                i for i, g in enumerate(held) if g.envelope.intersects(query)
            ]
