"""DE-9IM: the dimensionally-extended 9-intersection model.

The ISO 19107 / OGC standards the paper grounds its operators in define
topological relations through the 9-intersection matrix — the dimensions
of the pairwise intersections of the interiors (I), boundaries (B) and
exteriors (E) of two geometries.  :func:`relate` computes the matrix for
atomic geometry pairs; :func:`matches` tests it against a DE-9IM pattern
(``"T*F**FFF*"`` and friends), which is how the OGC defines every named
predicate.  The named predicates of :mod:`repro.geometry.predicates` are
property-tested against these matrices.

Supported operand types: Point, LineString, Polygon (atomic).  Multi-part
operands raise — the PRML layer only ever relates atoms, and full
multi-part DE-9IM would need a general overlay operator that is out of
reproduction scope.
"""

from __future__ import annotations

from repro.errors import GeometryError
from repro.geometry import algorithms as alg
from repro.geometry.algorithms import Coord
from repro.geometry.gtypes import Geometry, LineString, Point, Polygon

__all__ = ["relate", "matches", "dim_char"]

_F = "F"


def dim_char(dimension: int | None) -> str:
    """Render an intersection dimension as its matrix character."""
    if dimension is None:
        return _F
    if dimension in (0, 1, 2):
        return str(dimension)
    raise GeometryError(f"invalid DE-9IM dimension {dimension!r}")


def matches(matrix: str, pattern: str) -> bool:
    """Does a DE-9IM matrix satisfy an OGC pattern?

    Pattern characters: ``T`` (non-empty), ``F`` (empty), ``*`` (anything),
    ``0``/``1``/``2`` (exact dimension).
    """
    if len(matrix) != 9 or len(pattern) != 9:
        raise GeometryError("DE-9IM matrices/patterns have exactly 9 cells")
    for cell, want in zip(matrix, pattern):
        if want == "*":
            continue
        if want == "T":
            if cell == _F:
                return False
        elif cell != want:
            return False
    return True


# ---------------------------------------------------------------------------
# Interior / boundary classification helpers
# ---------------------------------------------------------------------------

def _line_boundary(line: LineString) -> tuple[Coord, ...]:
    """The topological boundary of a line: its endpoints (empty if closed)."""
    if line.is_closed:
        return ()
    return (line.coord_list[0], line.coord_list[-1])


def _on_line(c: Coord, line: LineString) -> bool:
    return any(alg.on_segment(c, s, e) for s, e in line.segments())


def _in_line_interior(c: Coord, line: LineString) -> bool:
    if not _on_line(c, line):
        return False
    return not any(
        alg.coords_equal(c, endpoint) for endpoint in _line_boundary(line)
    )


def _line_probes(line: LineString) -> list[Coord]:
    """Vertices + segment midpoints (interior-dense probe set)."""
    probes: list[Coord] = list(line.coord_list)
    for s, e in line.segments():
        probes.append(((s[0] + e[0]) / 2.0, (s[1] + e[1]) / 2.0))
    return probes


def _interior_line_probes(line: LineString) -> list[Coord]:
    boundary = _line_boundary(line)
    return [
        c
        for c in _line_probes(line)
        if not any(alg.coords_equal(c, b) for b in boundary)
    ]


def _polygon_boundary_probes(poly: Polygon) -> list[Coord]:
    probes: list[Coord] = []
    for s, e in poly.boundary_segments():
        probes.append(s)
        probes.append(((s[0] + e[0]) / 2.0, (s[1] + e[1]) / 2.0))
    return probes


def _line_covered_by_line(a: LineString, b: LineString) -> bool:
    return all(_on_line(c, b) for c in _line_probes(a))


def _line_covered_by_polygon_closure(line: LineString, poly: Polygon) -> bool:
    from repro.geometry.predicates import _boundary_crossed

    if any(poly.locate_coord(c) == "exterior" for c in _line_probes(line)):
        return False
    return not _boundary_crossed(line, poly)


def _polygon_covered_by_polygon(a: Polygon, b: Polygon) -> bool:
    from repro.geometry.predicates import within

    return within(a, b) or _rings_equal_as_sets(a, b)


def _rings_equal_as_sets(a: Polygon, b: Polygon) -> bool:
    from repro.geometry.predicates import equals

    return equals(a, b)


# ---------------------------------------------------------------------------
# Pairwise matrices
# ---------------------------------------------------------------------------

def _relate_point_point(a: Point, b: Point) -> str:
    same = alg.coords_equal(a.coord, b.coord)
    ii = "0" if same else _F
    ie = _F if same else "0"
    ei = _F if same else "0"
    return f"{ii}{_F}{ie}{_F}{_F}{_F}{ei}{_F}2"


def _relate_point_line(a: Point, b: LineString) -> str:
    boundary = _line_boundary(b)
    on_boundary = any(alg.coords_equal(a.coord, e) for e in boundary)
    in_interior = _in_line_interior(a.coord, b)
    ii = "0" if in_interior else _F
    ib = "0" if on_boundary else _F
    ie = _F if (in_interior or on_boundary) else "0"
    ei = "1"  # a point can never cover a 1-dimensional interior
    # Some boundary endpoint lies outside the point unless the line is
    # closed (empty boundary) or degenerate.
    eb = _F
    if boundary:
        eb = (
            "0"
            if any(not alg.coords_equal(a.coord, e) for e in boundary)
            else _F
        )
    return f"{ii}{ib}{ie}{_F}{_F}{_F}{ei}{eb}2"


def _relate_point_polygon(a: Point, b: Polygon) -> str:
    where = b.locate_coord(a.coord)
    ii = "0" if where == "interior" else _F
    ib = "0" if where == "boundary" else _F
    ie = "0" if where == "exterior" else _F
    return f"{ii}{ib}{ie}{_F}{_F}{_F}21" + "2"


def _relate_line_line(a: LineString, b: LineString) -> str:
    boundary_a = _line_boundary(a)
    boundary_b = _line_boundary(b)

    has_overlap = False
    has_interior_point = False
    for s1, s2 in a.segments():
        for c1, c2 in b.segments():
            kind, pts = alg.segment_intersection(s1, s2, c1, c2)
            if kind == "segment":
                mid = ((pts[0][0] + pts[1][0]) / 2.0, (pts[0][1] + pts[1][1]) / 2.0)
                if _in_line_interior(mid, a) and _in_line_interior(mid, b):
                    has_overlap = True
            elif kind == "point":
                p = pts[0]
                if _in_line_interior(p, a) and _in_line_interior(p, b):
                    has_interior_point = True
    if has_overlap:
        ii = "1"
    elif has_interior_point:
        ii = "0"
    else:
        ii = _F

    ib = (
        "0"
        if any(_in_line_interior(e, a) for e in boundary_b)
        else _F
    )
    bi = (
        "0"
        if any(_in_line_interior(e, b) for e in boundary_a)
        else _F
    )
    bb = (
        "0"
        if any(
            alg.coords_equal(ea, eb)
            for ea in boundary_a
            for eb in boundary_b
        )
        else _F
    )
    a_covered = _line_covered_by_line(a, b)
    b_covered = _line_covered_by_line(b, a)
    ie = _F if a_covered else "1"
    ei = _F if b_covered else "1"
    be = (
        "0"
        if any(not _on_line(e, b) for e in boundary_a)
        else _F
    )
    eb = (
        "0"
        if any(not _on_line(e, a) for e in boundary_b)
        else _F
    )
    return f"{ii}{ib}{ie}{bi}{bb}{be}{ei}{eb}2"


def _relate_line_polygon(a: LineString, b: Polygon) -> str:
    from repro.geometry.predicates import _line_area_interiors

    boundary_a = _line_boundary(a)

    ii = "1" if _line_area_interiors(a, b) else _F

    # Line ∩ polygon boundary: overlap along an edge (1), point contact (0)
    # or nothing (F).
    boundary_overlap = False
    boundary_point = False
    for s1, s2 in a.segments():
        for e1, e2 in b.boundary_segments():
            kind, _pts = alg.segment_intersection(s1, s2, e1, e2)
            if kind == "segment":
                boundary_overlap = True
            elif kind == "point":
                boundary_point = True
    # Only the *interior* of the line counts for the IB cell; endpoint
    # contacts belong to BB.  Check interior probes on the boundary.
    interior_on_boundary = any(
        alg.point_in_ring(c, b.shell) == "boundary"
        or any(alg.point_in_ring(c, hole) == "boundary" for hole in b.holes)
        for c in _interior_line_probes(a)
    )
    if boundary_overlap and interior_on_boundary:
        ib = "1"
    elif (boundary_point or boundary_overlap) and (
        interior_on_boundary
        or any(
            _in_line_interior(p, a)
            for s1, s2 in a.segments()
            for e1, e2 in b.boundary_segments()
            for kind, pts in (alg.segment_intersection(s1, s2, e1, e2),)
            if kind == "point"
            for p in pts
        )
    ):
        ib = "0"
    else:
        ib = _F

    covered = _line_covered_by_polygon_closure(a, b)
    ie = _F if covered else "1"

    bi = (
        "0"
        if any(b.locate_coord(e) == "interior" for e in boundary_a)
        else _F
    )
    bb = (
        "0"
        if any(b.locate_coord(e) == "boundary" for e in boundary_a)
        else _F
    )
    be = (
        "0"
        if any(b.locate_coord(e) == "exterior" for e in boundary_a)
        else _F
    )
    return f"{ii}{ib}{ie}{bi}{bb}{be}21" + "2"


def _relate_polygon_polygon(a: Polygon, b: Polygon) -> str:
    from repro.geometry.predicates import _area_area_interiors

    interiors = _area_area_interiors(a, b)
    ii = "2" if interiors else _F

    # Boundary/boundary: overlap along edges (1), isolated points (0), F.
    edge_overlap = False
    point_contact = False
    for s1, s2 in a.boundary_segments():
        for t1, t2 in b.boundary_segments():
            kind, _pts = alg.segment_intersection(s1, s2, t1, t2)
            if kind == "segment":
                edge_overlap = True
            elif kind == "point":
                point_contact = True
    bb = "1" if edge_overlap else ("0" if point_contact else _F)

    # A's interior vs B's boundary: a stretch of B's boundary inside A.
    def interior_boundary(inner: Polygon, outer: Polygon) -> str:
        stretch = any(
            outer.locate_coord(c) == "interior"
            for c in _polygon_boundary_probes(inner)
        )
        return "1" if stretch else _F

    ib = interior_boundary(b, a)  # B boundary probes inside A
    bi = interior_boundary(a, b)

    a_in_b = _polygon_covered_by_polygon(a, b)
    b_in_a = _polygon_covered_by_polygon(b, a)
    ie = _F if a_in_b else "2"
    ei = _F if b_in_a else "2"
    be = _F if a_in_b else "1"
    eb = _F if b_in_a else "1"
    return f"{ii}{ib}{ie}{bi}{bb}{be}{ei}{eb}2"


def relate(a: Geometry, b: Geometry) -> str:
    """Compute the DE-9IM matrix of two atomic geometries."""
    if isinstance(a, Point) and isinstance(b, Point):
        return _relate_point_point(a, b)
    if isinstance(a, Point) and isinstance(b, LineString):
        return _relate_point_line(a, b)
    if isinstance(a, LineString) and isinstance(b, Point):
        return _transpose(_relate_point_line(b, a))
    if isinstance(a, Point) and isinstance(b, Polygon):
        return _relate_point_polygon(a, b)
    if isinstance(a, Polygon) and isinstance(b, Point):
        return _transpose(_relate_point_polygon(b, a))
    if isinstance(a, LineString) and isinstance(b, LineString):
        return _relate_line_line(a, b)
    if isinstance(a, LineString) and isinstance(b, Polygon):
        return _relate_line_polygon(a, b)
    if isinstance(a, Polygon) and isinstance(b, LineString):
        return _transpose(_relate_line_polygon(b, a))
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        return _relate_polygon_polygon(a, b)
    raise GeometryError(
        f"relate() supports atomic geometries; got "
        f"{a.geom_type} / {b.geom_type}"
    )


def _transpose(matrix: str) -> str:
    """Swap the roles of the two operands (matrix transpose)."""
    return "".join(
        matrix[row * 3 + col] for col in range(3) for row in range(3)
    )
