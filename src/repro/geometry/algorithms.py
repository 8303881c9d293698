"""Low-level planar computational-geometry routines.

Everything in this module works on bare coordinate pairs ``(x, y)`` so it can
be unit-tested independently of the :mod:`repro.geometry.gtypes` object
model.  The object model delegates here.

Numerical model
---------------
Coordinates are IEEE-754 doubles.  Predicates use a fixed relative/absolute
tolerance :data:`EPS` rather than adaptive exact arithmetic: the synthetic
worlds generated by :mod:`repro.data` keep coordinates well within the range
where double precision orientation tests are reliable (|coord| < 1e7,
feature separation >> 1e-9).  The tolerance is documented API: callers that
need a different tolerance pass ``eps`` explicitly.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

Coord = tuple[float, float]

#: Default absolute tolerance for coincidence / collinearity tests.
EPS = 1e-9


# ---------------------------------------------------------------------------
# Scalar helpers
# ---------------------------------------------------------------------------

def close(a: float, b: float, eps: float = EPS) -> bool:
    """Return True when ``a`` and ``b`` are within ``eps`` (absolute)."""
    return abs(a - b) <= eps


def coords_equal(p: Coord, q: Coord, eps: float = EPS) -> bool:
    """Coordinate-wise coincidence test."""
    return close(p[0], q[0], eps) and close(p[1], q[1], eps)


def orientation(p: Coord, q: Coord, r: Coord, eps: float = EPS) -> int:
    """Orientation of the ordered triple ``(p, q, r)``.

    Returns ``+1`` for counter-clockwise, ``-1`` for clockwise and ``0``
    for collinear (within ``eps`` scaled by the magnitude of the cross
    product's terms, which keeps the test meaningful for both tiny and
    large coordinates).
    """
    cross = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    scale = max(
        abs(q[0] - p[0]), abs(r[1] - p[1]), abs(q[1] - p[1]), abs(r[0] - p[0]), 1.0
    )
    if abs(cross) <= eps * scale:
        return 0
    return 1 if cross > 0 else -1


def distance(p: Coord, q: Coord) -> float:
    """Euclidean distance between two points."""
    return math.hypot(q[0] - p[0], q[1] - p[1])


# ---------------------------------------------------------------------------
# Point / segment primitives
# ---------------------------------------------------------------------------

def on_segment(p: Coord, a: Coord, b: Coord, eps: float = EPS) -> bool:
    """Return True when point ``p`` lies on the closed segment ``a``–``b``."""
    if orientation(a, b, p, eps) != 0:
        return False
    return (
        min(a[0], b[0]) - eps <= p[0] <= max(a[0], b[0]) + eps
        and min(a[1], b[1]) - eps <= p[1] <= max(a[1], b[1]) + eps
    )


def point_segment_distance(p: Coord, a: Coord, b: Coord) -> float:
    """Shortest distance from point ``p`` to the closed segment ``a``–``b``."""
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq <= 0.0:
        return distance(p, a)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len_sq
    t = max(0.0, min(1.0, t))
    return distance(p, (ax + t * dx, ay + t * dy))


def project_on_segment(p: Coord, a: Coord, b: Coord) -> tuple[float, Coord]:
    """Project ``p`` onto segment ``a``–``b``.

    Returns ``(t, q)`` where ``t`` in [0, 1] is the clamped parameter along
    the segment and ``q`` the closest point.
    """
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq <= 0.0:
        return 0.0, a
    t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / seg_len_sq
    t = max(0.0, min(1.0, t))
    return t, (ax + t * dx, ay + t * dy)


def segment_segment_distance(a: Coord, b: Coord, c: Coord, d: Coord) -> float:
    """Shortest distance between closed segments ``a``–``b`` and ``c``–``d``."""
    if segments_intersect(a, b, c, d):
        return 0.0
    return min(
        point_segment_distance(a, c, d),
        point_segment_distance(b, c, d),
        point_segment_distance(c, a, b),
        point_segment_distance(d, a, b),
    )


def segments_intersect(a: Coord, b: Coord, c: Coord, d: Coord, eps: float = EPS) -> bool:
    """Closed-segment intersection test (touching endpoints count)."""
    o1 = orientation(a, b, c, eps)
    o2 = orientation(a, b, d, eps)
    o3 = orientation(c, d, a, eps)
    o4 = orientation(c, d, b, eps)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(c, a, b, eps):
        return True
    if o2 == 0 and on_segment(d, a, b, eps):
        return True
    if o3 == 0 and on_segment(a, c, d, eps):
        return True
    if o4 == 0 and on_segment(b, c, d, eps):
        return True
    return False


def segment_intersection(
    a: Coord, b: Coord, c: Coord, d: Coord, eps: float = EPS
) -> tuple[str, tuple[Coord, ...]]:
    """Compute the intersection of two closed segments.

    Returns a pair ``(kind, coords)`` where ``kind`` is one of:

    ``"none"``
        Segments do not intersect; ``coords`` is empty.
    ``"point"``
        Proper or touching intersection in a single point; ``coords`` holds it.
    ``"segment"``
        Collinear overlap; ``coords`` holds the two overlap endpoints.
    """
    if not segments_intersect(a, b, c, d, eps):
        return "none", ()

    r = (b[0] - a[0], b[1] - a[1])
    s = (d[0] - c[0], d[1] - c[1])
    denom = r[0] * s[1] - r[1] * s[0]
    scale = max(abs(r[0]), abs(r[1]), abs(s[0]), abs(s[1]), 1.0)

    if abs(denom) > eps * scale * scale:
        # Proper (non-parallel) intersection point.
        t = ((c[0] - a[0]) * s[1] - (c[1] - a[1]) * s[0]) / denom
        point = (a[0] + t * r[0], a[1] + t * r[1])
        return "point", (point,)

    # Collinear: order the four endpoints along the carrier line.
    axis = 0 if abs(r[0]) >= abs(r[1]) else 1
    lo = max(min(a[axis], b[axis]), min(c[axis], d[axis]))
    hi = min(max(a[axis], b[axis]), max(c[axis], d[axis]))
    points = sorted({a, b, c, d}, key=lambda p: p[axis])
    inside = [p for p in points if lo - eps <= p[axis] <= hi + eps]
    if not inside:  # pragma: no cover - guarded by segments_intersect
        return "none", ()
    first, last = inside[0], inside[-1]
    if coords_equal(first, last, eps):
        return "point", (first,)
    return "segment", (first, last)


# ---------------------------------------------------------------------------
# Polyline helpers
# ---------------------------------------------------------------------------

def polyline_length(coords: Sequence[Coord]) -> float:
    """Total length of a polyline given as a coordinate sequence."""
    return sum(distance(coords[i], coords[i + 1]) for i in range(len(coords) - 1))


def point_polyline_distance(p: Coord, coords: Sequence[Coord]) -> float:
    """Shortest distance from ``p`` to a polyline."""
    if len(coords) == 1:
        return distance(p, coords[0])
    return min(
        point_segment_distance(p, coords[i], coords[i + 1])
        for i in range(len(coords) - 1)
    )


def locate_on_polyline(p: Coord, coords: Sequence[Coord]) -> tuple[float, Coord]:
    """Locate the closest point of a polyline to ``p``.

    Returns ``(arc_length, q)``: the distance along the polyline from its
    first vertex to the closest point ``q``.  Used to measure travel
    distance along train lines (Example 5.3 of the paper).
    """
    if len(coords) == 1:
        return 0.0, coords[0]
    best_d = math.inf
    best_arc = 0.0
    best_q = coords[0]
    walked = 0.0
    for i in range(len(coords) - 1):
        a, b = coords[i], coords[i + 1]
        t, q = project_on_segment(p, a, b)
        d = distance(p, q)
        if d < best_d - EPS:
            best_d = d
            best_arc = walked + t * distance(a, b)
            best_q = q
        walked += distance(a, b)
    return best_arc, best_q


def polyline_arc_between(
    coords: Sequence[Coord], p: Coord, q: Coord
) -> float:
    """Arc length along a polyline between the projections of ``p`` and ``q``.

    This implements the reading of the paper's Example 5.3 that
    :mod:`repro.prml.stdlib` documents: the "distance of the corresponding
    segment" of a train line between a city stop and an airport stop is
    the travel distance along the line, not the straight-line distance.
    """
    arc_p, _ = locate_on_polyline(p, coords)
    arc_q, _ = locate_on_polyline(q, coords)
    return abs(arc_q - arc_p)


# ---------------------------------------------------------------------------
# Polygon helpers
# ---------------------------------------------------------------------------

def signed_area(ring: Sequence[Coord]) -> float:
    """Signed area of a closed ring (positive for counter-clockwise).

    The ring may or may not repeat its first vertex at the end; both forms
    are accepted.
    """
    pts = list(ring)
    if len(pts) >= 2 and coords_equal(pts[0], pts[-1]):
        pts = pts[:-1]
    if len(pts) < 3:
        return 0.0
    acc = 0.0
    for i, (x1, y1) in enumerate(pts):
        x2, y2 = pts[(i + 1) % len(pts)]
        acc += x1 * y2 - x2 * y1
    return acc / 2.0


def ring_centroid(ring: Sequence[Coord]) -> Coord:
    """Area-weighted centroid of a simple ring (fallback: vertex mean)."""
    pts = list(ring)
    if len(pts) >= 2 and coords_equal(pts[0], pts[-1]):
        pts = pts[:-1]
    area = signed_area(pts)
    if close(area, 0.0):
        xs = sum(p[0] for p in pts) / len(pts)
        ys = sum(p[1] for p in pts) / len(pts)
        return (xs, ys)
    cx = cy = 0.0
    for i, (x1, y1) in enumerate(pts):
        x2, y2 = pts[(i + 1) % len(pts)]
        w = x1 * y2 - x2 * y1
        cx += (x1 + x2) * w
        cy += (y1 + y2) * w
    return (cx / (6.0 * area), cy / (6.0 * area))


def point_in_ring(p: Coord, ring: Sequence[Coord], eps: float = EPS) -> str:
    """Classify ``p`` against a simple ring.

    Returns ``"interior"``, ``"boundary"`` or ``"exterior"``.  Uses the
    crossing-number algorithm with an explicit boundary pre-test so that
    vertices and edge-lying points are reported as boundary rather than
    falling to floating-point luck.
    """
    pts = list(ring)
    if len(pts) >= 2 and coords_equal(pts[0], pts[-1]):
        pts = pts[:-1]
    n = len(pts)
    for i in range(n):
        if on_segment(p, pts[i], pts[(i + 1) % n], eps):
            return "boundary"
    crossings = 0
    x, y = p
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            x_cross = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x_cross > x:
                crossings += 1
    return "interior" if crossings % 2 == 1 else "exterior"


def is_ring_simple(ring: Sequence[Coord], eps: float = EPS) -> bool:
    """Check that a ring has no self-intersections besides shared vertices."""
    pts = list(ring)
    if len(pts) >= 2 and coords_equal(pts[0], pts[-1]):
        pts = pts[:-1]
    n = len(pts)
    if n < 3:
        return False
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            c, d = pts[j], pts[(j + 1) % n]
            if segments_intersect(a, b, c, d, eps):
                return False
    return True


def convex_hull(points: Iterable[Coord]) -> list[Coord]:
    """Andrew's monotone-chain convex hull.

    Returns hull vertices in counter-clockwise order without repeating the
    first vertex.  Degenerate inputs (0, 1, 2 points, collinear sets) return
    the true extremes.

    Near-duplicate points (within :data:`EPS`) are merged before the chain
    runs, and the chain itself uses exact double orientation — a tolerance
    there lets a single near-collinear pop cascade into discarding genuine
    hull vertices.
    """
    pts = sorted(set(points))
    if len(pts) > 1:
        # Merge eps-duplicates via grid snapping (keys only; coordinates kept).
        seen: set[Coord] = set()
        deduped: list[Coord] = []
        for p in pts:
            key = (round(p[0] / EPS), round(p[1] / EPS))
            if key not in seen:
                seen.add(key)
                deduped.append(p)
        pts = deduped
    if len(pts) <= 2:
        return pts
    lower: list[Coord] = []
    for p in pts:
        while len(lower) >= 2 and orientation(lower[-2], lower[-1], p, eps=0.0) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Coord] = []
    for p in reversed(pts):
        while len(upper) >= 2 and orientation(upper[-2], upper[-1], p, eps=0.0) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    # The grid snap above merges by cell *key*, so two points straddling a
    # cell boundary can both survive even though they are within EPS of
    # each other (e.g. (1, 0) and (1, 1e-9)).  Such a pair on the hull
    # yields a ring with a sub-tolerance edge that downstream Polygon
    # validation rejects as self-intersecting; drop eps-duplicate
    # neighbours (including the wrap-around pair) here instead.
    cleaned: list[Coord] = []
    for p in hull:
        if cleaned and coords_equal(cleaned[-1], p):
            continue
        cleaned.append(p)
    while len(cleaned) >= 2 and coords_equal(cleaned[0], cleaned[-1]):
        cleaned.pop()
    hull = cleaned
    if len(hull) < 3:  # all collinear (within tolerance)
        # Lexicographic extremes are wrong for (near-)vertical point sets;
        # take the true diameter via a two-sweep farthest-point search.
        anchor = pts[0]
        a = max(pts, key=lambda p: distance(anchor, p))
        b = max(pts, key=lambda p: distance(a, p))
        return sorted((a, b)) if a != b else [a]
    return hull
