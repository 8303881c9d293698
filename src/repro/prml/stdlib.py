"""Runtime semantics of the PRML spatial operators.

The kernel (:mod:`repro.geometry`) implements the symmetric OGC
operations; this module layers the *paper's* operator conventions on top
(Section 4.2.3):

* **order-dependent Intersection** — "if we intersect LINE type with
  POINT the operator returns a COLLECTION type of sublines.  However, if
  it is POINT intersecting LINE type the operator returns a COLLECTION
  type of points."  LINE ∩ POINT therefore produces a
  :class:`LineAnchoredCollection` — the sub-lines of the host line split
  at the (snapped) point, remembering the host and the anchor points so
  further intersections can refine it;
* **unary Distance over such a collection** — Example 5.3 computes
  ``Distance(Intersection(Intersection(t, c), a))``: the travel distance
  along train line *t* between the city stop and the airport stop.  An
  empty collection has distance ``+inf`` so enclosing ``< 50km``
  conditions are simply false.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import PRMLRuntimeError
from repro.geometry import (
    Geometry,
    GeometryCollection,
    LineString,
    Metric,
    MultiPoint,
    Point,
    split_line_at,
)
from repro.geometry import algorithms as alg
from repro.geometry import intersection as kernel_intersection
from repro.geometry import (
    crosses as g_crosses,
)
from repro.geometry import (
    disjoint as g_disjoint,
)
from repro.geometry import (
    equals as g_equals,
)
from repro.geometry import (
    intersects as g_intersects,
)
from repro.geometry import (
    within as g_within,
)
from repro.prml.ast import SpatialFunction

__all__ = [
    "LineAnchoredCollection",
    "prml_intersection",
    "prml_distance",
    "prml_predicate",
]


class LineAnchoredCollection:
    """The paper's "COLLECTION of sublines" with provenance.

    Produced by LINE ∩ POINT: the host line, the anchor points that split
    it, and the resulting sub-lines.  Intersecting it with further points
    adds anchors.  Unary ``Distance`` over it measures the along-line arc
    between the first and last anchors.
    """

    def __init__(self, host: LineString, anchors: Sequence[Point]) -> None:
        self.host = host
        self.anchors = tuple(anchors)

    @property
    def sublines(self) -> list[LineString]:
        return split_line_at(self.host, list(self.anchors))

    @property
    def is_empty(self) -> bool:
        return not self.anchors

    def with_anchor(self, anchor: Point) -> "LineAnchoredCollection":
        return LineAnchoredCollection(self.host, self.anchors + (anchor,))

    def arc_distance(self) -> float:
        """Along-line distance between the first and last anchors."""
        if len(self.anchors) < 2:
            return math.inf
        return self.host.arc_between(self.anchors[0], self.anchors[-1])

    def __repr__(self) -> str:
        return (
            f"<LineAnchoredCollection host_len={self.host.length:.1f} "
            f"anchors={len(self.anchors)}>"
        )


def _snap_to_line(
    point: Point, line: LineString, snap_tolerance: float
) -> Point | None:
    """The on-line point nearest ``point`` if within tolerance, else None."""
    arc, nearest = alg.locate_on_polyline(point.coord, line.coord_list)
    del arc
    if alg.distance(point.coord, nearest) <= snap_tolerance:
        return Point(*nearest)
    return None


def prml_intersection(
    a: object, b: object, snap_tolerance: float = 1e-6
) -> object:
    """The paper's order-dependent Intersection operator.

    Dispatch:

    * ``LINE ∩ POINT`` → :class:`LineAnchoredCollection` (sub-lines);
    * ``LineAnchoredCollection ∩ POINT`` → collection with one more anchor;
    * ``POINT ∩ LINE`` → collection of points (the snapped point);
    * anything else → the symmetric kernel intersection.

    ``snap_tolerance`` (metres in the bound CRS) absorbs coordinate noise
    between station points and line vertices.
    """
    if isinstance(a, LineAnchoredCollection):
        if not isinstance(b, Point):
            raise PRMLRuntimeError(
                f"cannot intersect a subline collection with "
                f"{type(b).__name__}; expected a POINT"
            )
        if a.is_empty:
            return a
        snapped = _snap_to_line(b, a.host, snap_tolerance)
        if snapped is None:
            return LineAnchoredCollection(a.host, ())
        return a.with_anchor(snapped)
    if not isinstance(a, Geometry) or not isinstance(b, Geometry):
        raise PRMLRuntimeError(
            f"Intersection expects geometries, got {type(a).__name__} and "
            f"{type(b).__name__}"
        )
    if isinstance(a, LineString) and isinstance(b, Point):
        snapped = _snap_to_line(b, a, snap_tolerance)
        if snapped is None:
            return LineAnchoredCollection(a, ())
        return LineAnchoredCollection(a, (snapped,))
    if isinstance(a, Point) and isinstance(b, LineString):
        snapped = _snap_to_line(a, b, snap_tolerance)
        if snapped is None:
            return GeometryCollection(())
        return MultiPoint((snapped,))
    return kernel_intersection(a, b)


def prml_distance(
    args: Sequence[object], metric: Metric
) -> float:
    """The paper's Distance operator (binary metres, or unary arc length)."""
    if len(args) == 2:
        a, b = args
        if not isinstance(a, Geometry) or not isinstance(b, Geometry):
            raise PRMLRuntimeError(
                f"Distance expects geometries, got {type(a).__name__} and "
                f"{type(b).__name__}"
            )
        return metric.distance(a, b)
    if len(args) != 1:
        raise PRMLRuntimeError(f"Distance takes 1 or 2 arguments, got {len(args)}")
    value = args[0]
    if isinstance(value, LineAnchoredCollection):
        return value.arc_distance()
    if isinstance(value, Geometry) and value.is_empty:
        return math.inf
    raise PRMLRuntimeError(
        f"unary Distance expects a subline collection (from LINE ∩ POINT "
        f"intersections), got {type(value).__name__}"
    )


_PREDICATES = {
    SpatialFunction.INTERSECT: g_intersects,
    SpatialFunction.DISJOINT: g_disjoint,
    SpatialFunction.CROSS: g_crosses,
    SpatialFunction.INSIDE: g_within,
    SpatialFunction.EQUALS: g_equals,
}


def prml_predicate(function: SpatialFunction, a: object, b: object) -> bool:
    """Evaluate a boolean spatial operator on two geometry values."""
    if function not in _PREDICATES:
        raise PRMLRuntimeError(f"{function.value} is not a boolean predicate")
    if isinstance(a, LineAnchoredCollection):
        a = GeometryCollection(a.sublines) if not a.is_empty else GeometryCollection(())
    if isinstance(b, LineAnchoredCollection):
        b = GeometryCollection(b.sublines) if not b.is_empty else GeometryCollection(())
    if not isinstance(a, Geometry) or not isinstance(b, Geometry):
        raise PRMLRuntimeError(
            f"{function.value} expects geometries, got {type(a).__name__} "
            f"and {type(b).__name__}"
        )
    if a.is_empty or b.is_empty:
        return function is SpatialFunction.DISJOINT
    return _PREDICATES[function](a, b)
