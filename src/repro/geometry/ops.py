"""Geometric operations: distance, intersection, centroid.

These are the value-returning counterparts of the boolean predicates — the
paper's *Distance* operator ("returns a numeric value according to the
distance between involved elements") and *Intersection* operator ("returns
another geometric object depending on the involved elements and the order").

The kernel-level :func:`intersection` implemented here is the symmetric OGC
operation.  The paper's order-dependent result-type coercion (LINE ∩ POINT →
collection of sub-lines, POINT ∩ LINE → collection of points) is a PRML-level
convention and lives in :mod:`repro.prml.stdlib`, layered on top of this
module.
"""

from __future__ import annotations

from typing import Iterable, Sequence

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
    "distance",
    "intersection",
    "centroid",
    "split_line_at",
    "clip_line_to_polygon",
    "clip_polygon_convex",
    "is_convex",
]


def _parts(geom: Geometry) -> tuple[Geometry, ...]:
    if isinstance(geom, (MultiPoint, MultiLineString, MultiPolygon, GeometryCollection)):
        return tuple(geom)  # type: ignore[arg-type]
    return (geom,)


def _is_multi(geom: Geometry) -> bool:
    return isinstance(
        geom, (MultiPoint, MultiLineString, MultiPolygon, GeometryCollection)
    )


# ---------------------------------------------------------------------------
# distance
# ---------------------------------------------------------------------------

def distance(a: Geometry, b: Geometry) -> float:
    """Minimum planar distance between two geometries (0 when they meet)."""
    if a.is_empty or b.is_empty:
        raise GeometryError("distance of an empty geometry is undefined")
    if _is_multi(a) or _is_multi(b):
        return min(distance(pa, pb) for pa in _parts(a) for pb in _parts(b))
    if isinstance(a, Point) and isinstance(b, Point):
        return alg.distance(a.coord, b.coord)
    if isinstance(a, Point) and isinstance(b, LineString):
        return alg.point_polyline_distance(a.coord, b.coord_list)
    if isinstance(a, LineString) and isinstance(b, Point):
        return alg.point_polyline_distance(b.coord, a.coord_list)
    if isinstance(a, Point) and isinstance(b, Polygon):
        return _point_polygon_distance(a.coord, b)
    if isinstance(a, Polygon) and isinstance(b, Point):
        return _point_polygon_distance(b.coord, a)
    if isinstance(a, LineString) and isinstance(b, LineString):
        return min(
            alg.segment_segment_distance(s1, s2, c1, c2)
            for s1, s2 in a.segments()
            for c1, c2 in b.segments()
        )
    if isinstance(a, LineString) and isinstance(b, Polygon):
        return _line_polygon_distance(a, b)
    if isinstance(a, Polygon) and isinstance(b, LineString):
        return _line_polygon_distance(b, a)
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        return _polygon_polygon_distance(a, b)
    raise GeometryError(f"unsupported distance pair: {a.geom_type} / {b.geom_type}")


def _point_polygon_distance(p: Coord, poly: Polygon) -> float:
    if poly.locate_coord(p) != "exterior":
        return 0.0
    return min(
        alg.point_segment_distance(p, s, e) for s, e in poly.boundary_segments()
    )


def _line_polygon_distance(line: LineString, poly: Polygon) -> float:
    if any(poly.locate_coord(c) != "exterior" for c in line.coord_list):
        return 0.0
    return min(
        alg.segment_segment_distance(s1, s2, b1, b2)
        for s1, s2 in line.segments()
        for b1, b2 in poly.boundary_segments()
    )


def _polygon_polygon_distance(a: Polygon, b: Polygon) -> float:
    from repro.geometry.predicates import intersects

    if intersects(a, b):
        return 0.0
    return min(
        alg.segment_segment_distance(s1, s2, t1, t2)
        for s1, s2 in a.boundary_segments()
        for t1, t2 in b.boundary_segments()
    )


# ---------------------------------------------------------------------------
# intersection (geometry-returning, symmetric OGC semantics)
# ---------------------------------------------------------------------------

def intersection(a: Geometry, b: Geometry) -> Geometry:
    """Intersection point set of two geometries.

    Result conventions:

    * empty intersection → ``GeometryCollection EMPTY``;
    * point results are merged into a :class:`Point`/:class:`MultiPoint`;
    * line/line collinear overlaps yield :class:`LineString` pieces;
    * line/polygon yields the clipped sub-lines inside the polygon;
    * polygon/polygon is supported when either operand is convex
      (Sutherland–Hodgman clipping); the general concave/concave case is
      out of scope for this reproduction and raises :class:`GeometryError`
      (the paper's rules intersect only points and lines).
    """
    if _is_multi(a) or _is_multi(b):
        pieces: list[Geometry] = []
        for pa in _parts(a):
            for pb in _parts(b):
                result = intersection(pa, pb)
                pieces.extend(p for p in _parts(result) if not p.is_empty)
        return _pack(pieces)
    if isinstance(a, Point):
        return _point_intersection(a, b)
    if isinstance(b, Point):
        return _point_intersection(b, a)
    if isinstance(a, LineString) and isinstance(b, LineString):
        return _line_line_intersection(a, b)
    if isinstance(a, LineString) and isinstance(b, Polygon):
        return _pack(list(clip_line_to_polygon(a, b)))
    if isinstance(a, Polygon) and isinstance(b, LineString):
        return _pack(list(clip_line_to_polygon(b, a)))
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        if is_convex(b):
            return _pack([p for p in (clip_polygon_convex(a, b),) if p is not None])
        if is_convex(a):
            return _pack([p for p in (clip_polygon_convex(b, a),) if p is not None])
        raise GeometryError(
            "polygon/polygon intersection requires at least one convex operand"
        )
    raise GeometryError(
        f"unsupported intersection pair: {a.geom_type} / {b.geom_type}"
    )


def _pack(pieces: Sequence[Geometry]) -> Geometry:
    """Normalize a list of geometric pieces into the tightest result type."""
    flat: list[Geometry] = []
    for piece in pieces:
        flat.extend(p for p in _parts(piece) if not p.is_empty)
    # De-duplicate points.
    seen_points: list[Point] = []
    others: list[Geometry] = []
    for piece in flat:
        if isinstance(piece, Point):
            if not any(alg.coords_equal(piece.coord, q.coord) for q in seen_points):
                seen_points.append(piece)
        else:
            others.append(piece)
    combined: list[Geometry] = list(seen_points) + others
    if not combined:
        return GeometryCollection(())
    if len(combined) == 1:
        return combined[0]
    if all(isinstance(p, Point) for p in combined):
        return MultiPoint(combined)  # type: ignore[arg-type]
    if all(isinstance(p, LineString) for p in combined):
        return MultiLineString(combined)  # type: ignore[arg-type]
    if all(isinstance(p, Polygon) for p in combined):
        return MultiPolygon(combined)  # type: ignore[arg-type]
    return GeometryCollection(combined)


def _point_intersection(p: Point, other: Geometry) -> Geometry:
    from repro.geometry.predicates import intersects

    if intersects(p, other):
        return Point(p.x, p.y)
    return GeometryCollection(())


def _line_line_intersection(a: LineString, b: LineString) -> Geometry:
    points: list[Point] = []
    segments: list[LineString] = []
    for s1, s2 in a.segments():
        for c1, c2 in b.segments():
            kind, pts = alg.segment_intersection(s1, s2, c1, c2)
            if kind == "point":
                points.append(Point(*pts[0]))
            elif kind == "segment":
                segments.append(LineString([pts[0], pts[1]]))
    # Points already covered by an overlap segment are redundant.
    pruned = [
        p
        for p in points
        if not any(
            alg.on_segment(p.coord, seg.coord_list[0], seg.coord_list[-1])
            for seg in segments
        )
    ]
    return _pack(pruned + _merge_collinear(segments))


def _merge_collinear(segments: list[LineString]) -> list[Geometry]:
    """Merge overlapping collinear two-vertex segments into maximal pieces."""
    remaining = [seg.coord_list for seg in segments]
    merged: list[tuple[Coord, Coord]] = []
    while remaining:
        start, end = remaining.pop()
        changed = True
        while changed:
            changed = False
            for i, (s, e) in enumerate(remaining):
                if _collinear_touching(start, end, s, e):
                    start, end = _merge_spans(start, end, s, e)
                    remaining.pop(i)
                    changed = True
                    break
        merged.append((start, end))
    return [LineString([s, e]) for s, e in merged]


def _collinear_touching(a1: Coord, a2: Coord, b1: Coord, b2: Coord) -> bool:
    if alg.orientation(a1, a2, b1) != 0 or alg.orientation(a1, a2, b2) != 0:
        return False
    return alg.segments_intersect(a1, a2, b1, b2)


def _merge_spans(a1: Coord, a2: Coord, b1: Coord, b2: Coord) -> tuple[Coord, Coord]:
    pts = [a1, a2, b1, b2]
    axis = 0 if abs(a2[0] - a1[0]) >= abs(a2[1] - a1[1]) else 1
    pts.sort(key=lambda p: p[axis])
    return pts[0], pts[-1]


# ---------------------------------------------------------------------------
# derived constructions
# ---------------------------------------------------------------------------

def centroid(geom: Geometry) -> Point:
    """Dimension-appropriate centroid (area > length > vertex weighting)."""
    if geom.is_empty:
        raise GeometryError("centroid of an empty geometry is undefined")
    if isinstance(geom, Point):
        return Point(geom.x, geom.y)
    if isinstance(geom, Polygon):
        cx, cy = alg.ring_centroid(geom.shell)
        return Point(cx, cy)
    if isinstance(geom, LineString):
        total = geom.length
        if alg.close(total, 0.0):  # pragma: no cover - ctor forbids this
            coords = list(geom.coords())
            return Point(coords[0][0], coords[0][1])
        acc_x = acc_y = 0.0
        for s, e in geom.segments():
            seg_len = alg.distance(s, e)
            acc_x += (s[0] + e[0]) / 2.0 * seg_len
            acc_y += (s[1] + e[1]) / 2.0 * seg_len
        return Point(acc_x / total, acc_y / total)
    parts = _parts(geom)
    if not parts:
        raise GeometryError("centroid of an empty collection is undefined")
    # Weight by the measure of the highest dimension present.
    top = max(p.dimension for p in parts)
    selected = [p for p in parts if p.dimension == top]
    weights: list[float] = []
    centers: list[Point] = []
    for part in selected:
        centers.append(centroid(part))
        if top == 2:
            weights.append(part.area)  # type: ignore[attr-defined]
        elif top == 1:
            weights.append(part.length)  # type: ignore[attr-defined]
        else:
            weights.append(1.0)
    total_w = sum(weights) or float(len(selected))
    if sum(weights) == 0.0:
        weights = [1.0] * len(selected)
    x = sum(c.x * w for c, w in zip(centers, weights)) / total_w
    y = sum(c.y * w for c, w in zip(centers, weights)) / total_w
    return Point(x, y)


# ---------------------------------------------------------------------------
# line splitting / clipping
# ---------------------------------------------------------------------------

def split_line_at(line: LineString, cut_points: Iterable[Point]) -> list[LineString]:
    """Split a polyline at the given on-line points.

    Points that do not lie on the line are ignored.  Returns the resulting
    sub-lines in travel order.  This is the kernel behind the paper's
    LINE ∩ POINT → "COLLECTION of sublines" convention.
    """
    cuts: list[tuple[float, Coord]] = []
    for p in cut_points:
        arc, q = alg.locate_on_polyline(p.coord, line.coord_list)
        if alg.distance(p.coord, q) <= alg.EPS * 10 + 1e-9:
            cuts.append((arc, q))
    if not cuts:
        return [line]
    cuts.sort(key=lambda item: item[0])

    pieces: list[list[Coord]] = []
    current: list[Coord] = [line.coord_list[0]]
    walked = 0.0
    cut_iter = iter(cuts)
    next_cut = next(cut_iter, None)
    for s, e in line.segments():
        seg_len = alg.distance(s, e)
        while next_cut is not None and walked - 1e-12 <= next_cut[0] <= walked + seg_len + 1e-12:
            arc, q = next_cut
            if not alg.coords_equal(current[-1], q):
                current.append(q)
            if len(current) >= 2:
                pieces.append(current)
            current = [q]
            next_cut = next(cut_iter, None)
        if not alg.coords_equal(current[-1], e):
            current.append(e)
        walked += seg_len
    if len(current) >= 2:
        pieces.append(current)
    return [LineString(piece) for piece in pieces if len(piece) >= 2]


def clip_line_to_polygon(line: LineString, poly: Polygon) -> list[LineString]:
    """Sub-lines of ``line`` lying inside (or on the boundary of) ``poly``."""
    crossing_points: list[Point] = []
    for s1, s2 in line.segments():
        for b1, b2 in poly.boundary_segments():
            kind, pts = alg.segment_intersection(s1, s2, b1, b2)
            if kind == "point":
                crossing_points.append(Point(*pts[0]))
            elif kind == "segment":
                crossing_points.append(Point(*pts[0]))
                crossing_points.append(Point(*pts[1]))
    pieces = split_line_at(line, crossing_points)
    kept: list[LineString] = []
    for piece in pieces:
        mids = [
            ((s[0] + e[0]) / 2.0, (s[1] + e[1]) / 2.0) for s, e in piece.segments()
        ]
        if all(poly.locate_coord(m) != "exterior" for m in mids):
            kept.append(piece)
    return kept


def is_convex(poly: Polygon) -> bool:
    """True when the polygon is convex and has no holes."""
    if poly.holes:
        return False
    shell = poly.shell
    n = len(shell)
    sign = 0
    for i in range(n):
        o = alg.orientation(shell[i], shell[(i + 1) % n], shell[(i + 2) % n])
        if o == 0:
            continue
        if sign == 0:
            sign = o
        elif o != sign:
            return False
    return True


def clip_polygon_convex(subject: Polygon, clip: Polygon) -> Polygon | None:
    """Sutherland–Hodgman clipping of ``subject`` against convex ``clip``.

    Returns the clipped polygon or None when the intersection is empty or
    degenerate (zero area).  Holes of the subject are dropped (documented
    reproduction scope; no example uses holed intersections).
    """
    if not is_convex(clip):
        raise GeometryError("clip polygon must be convex")
    output = list(subject.shell)
    clip_ring = clip.shell
    n = len(clip_ring)
    for i in range(n):
        if not output:
            return None
        edge_a = clip_ring[i]
        edge_b = clip_ring[(i + 1) % n]
        input_ring = output
        output = []
        for j, current in enumerate(input_ring):
            previous = input_ring[j - 1]
            cur_in = alg.orientation(edge_a, edge_b, current) >= 0
            prev_in = alg.orientation(edge_a, edge_b, previous) >= 0
            if cur_in:
                if not prev_in:
                    crossing = _edge_line_intersection(previous, current, edge_a, edge_b)
                    if crossing is not None:
                        output.append(crossing)
                output.append(current)
            elif prev_in:
                crossing = _edge_line_intersection(previous, current, edge_a, edge_b)
                if crossing is not None:
                    output.append(crossing)
    cleaned: list[Coord] = []
    for c in output:
        if not cleaned or not alg.coords_equal(cleaned[-1], c):
            cleaned.append(c)
    if len(cleaned) >= 2 and alg.coords_equal(cleaned[0], cleaned[-1]):
        cleaned.pop()
    if len(cleaned) < 3:
        return None
    if alg.close(abs(alg.signed_area(cleaned)), 0.0):
        return None
    return Polygon(cleaned)


def _edge_line_intersection(p: Coord, q: Coord, a: Coord, b: Coord) -> Coord | None:
    """Intersection of segment p–q with the infinite line through a–b."""
    r = (q[0] - p[0], q[1] - p[1])
    s = (b[0] - a[0], b[1] - a[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if alg.close(denom, 0.0):
        return None
    t = ((a[0] - p[0]) * s[1] - (a[1] - p[1]) * s[0]) / denom
    return (p[0] + t * r[0], p[1] + t * r[1])
