"""Topological predicates over the geometry subset.

The paper (Section 4.2.3) extends PRML with "the traditional topological
relations that return a boolean value": *Intersect*, *Disjoint*, *Cross*,
*Inside* and *Equals*.  This module implements those five — plus
``contains``, the inverse of *Inside* that GeoMDQL's ``CONTAINS`` relation
uses — for every pairing of the supported types.

Semantics follow the OGC Simple Features / DE-9IM definitions:

``intersects``   share at least one point.
``disjoint``     share no point.
``within``       every point of A is in B and the interiors meet
                 (the paper's *Inside*).
``contains``     inverse of ``within``.
``crosses``      interiors meet, the intersection has a lower dimension
                 than the higher-dimensional operand, and neither operand
                 is within the other.
``equals``       same point set (orientation / vertex-rotation insensitive).

The implementation is tolerance-based (see :mod:`repro.geometry.algorithms`)
rather than exact-arithmetic; this matches the scale of the synthetic worlds
in :mod:`repro.data`.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import GeometryError
from repro.geometry import algorithms as alg
from repro.geometry.algorithms import Coord
from repro.geometry.gtypes import (
    Geometry,
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
)

__all__ = [
    "intersects",
    "disjoint",
    "within",
    "contains",
    "crosses",
    "equals",
]


def _parts(geom: Geometry) -> tuple[Geometry, ...]:
    """Explode multi/collection geometries one level; atoms yield themselves."""
    if isinstance(geom, (MultiPoint, MultiLineString, MultiPolygon, GeometryCollection)):
        return tuple(geom)  # type: ignore[arg-type]
    return (geom,)


def _is_multi(geom: Geometry) -> bool:
    return isinstance(
        geom, (MultiPoint, MultiLineString, MultiPolygon, GeometryCollection)
    )


# ---------------------------------------------------------------------------
# intersects / disjoint
# ---------------------------------------------------------------------------

def intersects(a: Geometry, b: Geometry) -> bool:
    """True when the two geometries share at least one point."""
    if a.is_empty or b.is_empty:
        return False
    # The envelope pre-check must be at least as tolerant as the eps-based
    # predicates below, or points epsilon-outside a bounding box would be
    # reported disjoint while having distance zero.
    if not a.envelope.expanded(alg.EPS).intersects(b.envelope):
        return False
    if _is_multi(a) or _is_multi(b):
        return any(
            intersects(pa, pb) for pa in _parts(a) for pb in _parts(b)
        )
    return _atomic_intersects(a, b)


def _atomic_intersects(a: Geometry, b: Geometry) -> bool:
    if isinstance(a, Point) and isinstance(b, Point):
        return alg.coords_equal(a.coord, b.coord)
    if isinstance(a, Point) and isinstance(b, LineString):
        return _point_on_line(a.coord, b)
    if isinstance(a, LineString) and isinstance(b, Point):
        return _point_on_line(b.coord, a)
    if isinstance(a, Point) and isinstance(b, Polygon):
        return b.locate_coord(a.coord) != "exterior"
    if isinstance(a, Polygon) and isinstance(b, Point):
        return a.locate_coord(b.coord) != "exterior"
    if isinstance(a, LineString) and isinstance(b, LineString):
        return any(
            alg.segments_intersect(s1, s2, c1, c2)
            for s1, s2 in a.segments()
            for c1, c2 in b.segments()
        )
    if isinstance(a, LineString) and isinstance(b, Polygon):
        return _line_polygon_intersects(a, b)
    if isinstance(a, Polygon) and isinstance(b, LineString):
        return _line_polygon_intersects(b, a)
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        return _polygon_polygon_intersects(a, b)
    raise GeometryError(
        f"unsupported intersects pair: {a.geom_type} / {b.geom_type}"
    )


def _point_on_line(p: Coord, line: LineString) -> bool:
    return any(alg.on_segment(p, s, e) for s, e in line.segments())


def _line_polygon_intersects(line: LineString, poly: Polygon) -> bool:
    if any(poly.locate_coord(c) != "exterior" for c in line.coord_list):
        return True
    return any(
        alg.segments_intersect(s1, s2, b1, b2)
        for s1, s2 in line.segments()
        for b1, b2 in poly.boundary_segments()
    )


def _polygon_polygon_intersects(a: Polygon, b: Polygon) -> bool:
    if any(b.locate_coord(c) != "exterior" for c in a.shell):
        return True
    if any(a.locate_coord(c) != "exterior" for c in b.shell):
        return True
    return any(
        alg.segments_intersect(s1, s2, t1, t2)
        for s1, s2 in a.boundary_segments()
        for t1, t2 in b.boundary_segments()
    )


def disjoint(a: Geometry, b: Geometry) -> bool:
    """True when the two geometries share no point."""
    return not intersects(a, b)


# ---------------------------------------------------------------------------
# within / contains  (the paper's "Inside")
# ---------------------------------------------------------------------------

def within(a: Geometry, b: Geometry) -> bool:
    """True when ``a`` lies within ``b`` (the paper's *Inside* operator)."""
    if a.is_empty or b.is_empty:
        return False
    if _is_multi(a):
        parts = _parts(a)
        return all(_part_covered(p, b) for p in parts) and any(
            _interior_meets(p, b) for p in parts
        )
    return _part_covered(a, b) and _interior_meets(a, b)


def contains(a: Geometry, b: Geometry) -> bool:
    """True when ``a`` contains ``b`` — the inverse of :func:`within`."""
    return within(b, a)


def _part_covered(a: Geometry, b: Geometry) -> bool:
    """Every point of atomic ``a`` lies in (interior or boundary of) ``b``."""
    if _is_multi(b):
        # Coverage by a multi-part geometry: for points, membership in any
        # part; for lines, every sampled point covered by some part.
        if isinstance(a, Point):
            return any(_part_covered(a, p) for p in _parts(b))
        return all(
            any(_coord_covered(c, p) for p in _parts(b)) for c in _sample_coords(a)
        )
    return all(_coord_covered(c, b) for c in _sample_coords(a)) and not (
        _boundary_crossed(a, b)
    )


def _sample_coords(a: Geometry) -> list[Coord]:
    """Vertices plus segment midpoints: the probe set for coverage tests.

    For tolerance-based coverage of polylines and polygon boundaries this is
    sound when the covering geometry's boundary is piecewise linear and the
    probe segments do not wiggle between probes — which holds for every
    generator in this repository.
    """
    if isinstance(a, Point):
        return [a.coord]
    if isinstance(a, LineString):
        out: list[Coord] = list(a.coord_list)
        for s, e in a.segments():
            out.append(((s[0] + e[0]) / 2.0, (s[1] + e[1]) / 2.0))
        return out
    if isinstance(a, Polygon):
        out = list(a.shell)
        for hole in a.holes:
            out.extend(hole)
        out.append(alg.ring_centroid(a.shell))
        return out
    raise GeometryError(f"cannot sample coords of {a.geom_type}")


def _coord_covered(c: Coord, b: Geometry) -> bool:
    if isinstance(b, Point):
        return alg.coords_equal(c, b.coord)
    if isinstance(b, LineString):
        return _point_on_line(c, b)
    if isinstance(b, Polygon):
        return b.locate_coord(c) != "exterior"
    raise GeometryError(f"cannot test coverage by {b.geom_type}")


def _boundary_crossed(a: Geometry, b: Geometry) -> bool:
    """Does any segment of ``a`` properly cross the boundary of polygon ``b``?

    A polyline that pokes out of the polygon always produces such a crossing,
    which the vertex/midpoint probes alone could miss.
    """
    if not isinstance(b, Polygon):
        return False
    segs_a: Iterable[tuple[Coord, Coord]]
    if isinstance(a, LineString):
        segs_a = a.segments()
    elif isinstance(a, Polygon):
        segs_a = a.boundary_segments()
    else:
        return False
    for s1, s2 in segs_a:
        for b1, b2 in b.boundary_segments():
            kind, pts = alg.segment_intersection(s1, s2, b1, b2)
            if kind != "point":
                continue
            p = pts[0]
            interior_of_a_seg = not (
                alg.coords_equal(p, s1) or alg.coords_equal(p, s2)
            )
            if not interior_of_a_seg:
                continue
            # Probe just on each side of the crossing along the a-segment.
            dx, dy = s2[0] - s1[0], s2[1] - s1[1]
            norm = max(abs(dx), abs(dy), 1e-12)
            step = 1e-6 * max(1.0, abs(p[0]), abs(p[1]))
            before = (p[0] - dx / norm * step, p[1] - dy / norm * step)
            after = (p[0] + dx / norm * step, p[1] + dy / norm * step)
            sides = {b.locate_coord(before), b.locate_coord(after)}
            if "exterior" in sides and sides != {"exterior"}:
                return True
            if sides == {"exterior"}:
                return True
    return False


def _interior_meets(a: Geometry, b: Geometry) -> bool:
    """Do the interiors of ``a`` and ``b`` share a point?"""
    if _is_multi(a) or _is_multi(b):
        return any(
            _interior_meets(pa, pb) for pa in _parts(a) for pb in _parts(b)
        )
    if isinstance(a, Point):
        return _coord_in_interior(a.coord, b)
    if isinstance(a, LineString):
        probes = [
            ((s[0] + e[0]) / 2.0, (s[1] + e[1]) / 2.0) for s, e in a.segments()
        ]
        interior_vertices = list(a.coord_list[1:-1])
        if a.is_closed:
            interior_vertices = list(a.coord_list)
        return any(_coord_in_interior(c, b) for c in probes + interior_vertices)
    if isinstance(a, Polygon):
        if isinstance(b, (Point, LineString)):
            return False  # a surface interior can never fit inside a curve
        probes = [alg.ring_centroid(a.shell)]
        probes.extend(a.shell)
        return any(_coord_in_interior(c, b) for c in probes if a.locate_coord(c) == "interior") or _coord_in_interior(alg.ring_centroid(a.shell), b)
    raise GeometryError(f"cannot test interiors of {a.geom_type}")


def _coord_in_interior(c: Coord, b: Geometry) -> bool:
    if isinstance(b, Point):
        return alg.coords_equal(c, b.coord)
    if isinstance(b, LineString):
        if not _point_on_line(c, b):
            return False
        if b.is_closed:
            return True
        ends = (b.coord_list[0], b.coord_list[-1])
        return not any(alg.coords_equal(c, e) for e in ends)
    if isinstance(b, Polygon):
        return b.locate_coord(c) == "interior"
    raise GeometryError(f"cannot test interior of {b.geom_type}")


# ---------------------------------------------------------------------------
# crosses
# ---------------------------------------------------------------------------

def crosses(a: Geometry, b: Geometry) -> bool:
    """OGC *Cross* predicate.

    Defined for line/line (single-point interior crossing), line/area
    (the line runs through interior and exterior) and multipoint/line,
    multipoint/area (some members in the interior, some in the exterior).
    Every other pairing returns False, matching the OGC applicability table.
    """
    if a.is_empty or b.is_empty:
        return False
    if isinstance(a, (Polygon, MultiPolygon)) and isinstance(
        b, (LineString, MultiLineString, MultiPoint, Point)
    ):
        return crosses(b, a)
    if isinstance(a, MultiPoint) and isinstance(b, (LineString, MultiLineString, Polygon, MultiPolygon)):
        inside = sum(1 for p in a if intersects(p, b))
        return 0 < inside < len(a)
    if isinstance(a, (LineString, MultiLineString)) and isinstance(
        b, (LineString, MultiLineString)
    ):
        return _lines_cross(a, b)
    if isinstance(a, (LineString, MultiLineString)) and isinstance(
        b, (Polygon, MultiPolygon)
    ):
        return _line_crosses_area(a, b)
    return False


def _lines_cross(a: Geometry, b: Geometry) -> bool:
    found_point_crossing = False
    for la in _parts(a):
        for lb in _parts(b):
            assert isinstance(la, LineString) and isinstance(lb, LineString)
            for s1, s2 in la.segments():
                for c1, c2 in lb.segments():
                    kind, pts = alg.segment_intersection(s1, s2, c1, c2)
                    if kind == "segment":
                        return False  # 1-dimensional intersection -> overlap
                    if kind == "point":
                        p = pts[0]
                        if _coord_in_interior(p, la) and _coord_in_interior(p, lb):
                            found_point_crossing = True
    return found_point_crossing


def _line_crosses_area(line: Geometry, area: Geometry) -> bool:
    has_interior = False
    has_exterior = False
    for part in _parts(line):
        assert isinstance(part, LineString)
        for c in _sample_coords(part):
            inside_any = False
            interior_any = False
            for poly in _parts(area):
                assert isinstance(poly, Polygon)
                where = poly.locate_coord(c)
                if where != "exterior":
                    inside_any = True
                if where == "interior":
                    interior_any = True
            if interior_any:
                has_interior = True
            if not inside_any:
                has_exterior = True
            if has_interior and has_exterior:
                return True
    return False


# ---------------------------------------------------------------------------
# line/area and area/area interiors (read by de9im.relate)
# ---------------------------------------------------------------------------

def _line_area_interiors(line: LineString, poly: Polygon) -> bool:
    probes = _sample_coords(line)
    if any(
        poly.locate_coord(c) == "interior" and _coord_in_interior(c, line)
        for c in probes
    ):
        return True
    # A segment may dive through the interior between two boundary probes.
    for s1, s2 in line.segments():
        for b1, b2 in poly.boundary_segments():
            kind, pts = alg.segment_intersection(s1, s2, b1, b2)
            if kind != "point":
                continue
            p = pts[0]
            dx, dy = s2[0] - s1[0], s2[1] - s1[1]
            norm = max(abs(dx), abs(dy), 1e-12)
            step = 1e-6 * max(1.0, abs(p[0]), abs(p[1]))
            for side in (-1.0, 1.0):
                probe = (p[0] + side * dx / norm * step, p[1] + side * dy / norm * step)
                if (
                    alg.on_segment(probe, s1, s2)
                    and poly.locate_coord(probe) == "interior"
                ):
                    return True
    return False


def _area_area_interiors(a: Polygon, b: Polygon) -> bool:
    if any(
        b.locate_coord(c) == "interior"
        for c in a.shell
        if a.locate_coord(c) != "exterior"
    ):
        return True
    if any(a.locate_coord(c) == "interior" for c in b.shell):
        return True
    centroid_a = alg.ring_centroid(a.shell)
    if a.locate_coord(centroid_a) == "interior" and b.locate_coord(centroid_a) == "interior":
        return True
    centroid_b = alg.ring_centroid(b.shell)
    if b.locate_coord(centroid_b) == "interior" and a.locate_coord(centroid_b) == "interior":
        return True
    # Boundary crossings imply interior overlap for simple polygons.
    for s1, s2 in a.boundary_segments():
        for t1, t2 in b.boundary_segments():
            kind, pts = alg.segment_intersection(s1, s2, t1, t2)
            if kind == "point":
                p = pts[0]
                if not any(
                    alg.coords_equal(p, v) for v in (s1, s2, t1, t2)
                ):
                    return True
    return False


# ---------------------------------------------------------------------------
# equals
# ---------------------------------------------------------------------------

def equals(a: Geometry, b: Geometry) -> bool:
    """Spatial equality: the same point set.

    Implemented structurally but insensitive to line direction, polygon ring
    rotation/orientation and multi-part ordering — which covers every way
    the repository (and WKT round-trips) can re-express the same point set.
    """
    if isinstance(a, Point) and isinstance(b, Point):
        return alg.coords_equal(a.coord, b.coord)
    if isinstance(a, LineString) and isinstance(b, LineString):
        fwd = a.coord_list
        rev = tuple(reversed(a.coord_list))
        other = b.coord_list
        return _coord_seq_equal(fwd, other) or _coord_seq_equal(rev, other)
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        if not _ring_equal(a.shell, b.shell):
            return False
        if len(a.holes) != len(b.holes):
            return False
        used: set[int] = set()
        for hole in a.holes:
            match = next(
                (
                    j
                    for j, other in enumerate(b.holes)
                    if j not in used and _ring_equal(hole, other)
                ),
                None,
            )
            if match is None:
                return False
            used.add(match)
        return True
    if _is_multi(a) and _is_multi(b):
        parts_a = list(_parts(a))
        parts_b = list(_parts(b))
        if len(parts_a) != len(parts_b):
            return False
        used = set()
        for pa in parts_a:
            match = next(
                (
                    j
                    for j, pb in enumerate(parts_b)
                    if j not in used and equals(pa, pb)
                ),
                None,
            )
            if match is None:
                return False
            used.add(match)
        return True
    return False


def _coord_seq_equal(a: tuple[Coord, ...], b: tuple[Coord, ...]) -> bool:
    return len(a) == len(b) and all(
        alg.coords_equal(p, q) for p, q in zip(a, b)
    )


def _ring_equal(a: tuple[Coord, ...], b: tuple[Coord, ...]) -> bool:
    """Ring equality modulo rotation and direction."""
    if len(a) != len(b):
        return False
    n = len(a)
    for direction in (tuple(b), tuple(reversed(b))):
        for shift in range(n):
            rotated = direction[shift:] + direction[:shift]
            if _coord_seq_equal(a, rotated):
                return True
    return False
