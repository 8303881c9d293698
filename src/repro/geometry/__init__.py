"""Planar geometry kernel (ISO 19107 / OGC Simple Features subset).

This package is the substrate for every spatial feature of the
reproduction: the PRML spatial operators, the GeoMD layers, the GeoMDQL
spatial filters and the synthetic world generators.

Public surface:

* geometry types — :class:`Point`, :class:`LineString`, :class:`Polygon`,
  multi-part variants, :class:`GeometryCollection`, :class:`Envelope`;
* WKT I/O — :func:`wkt_loads` / :func:`wkt_dumps`;
* topological predicates — :func:`intersects`, :func:`disjoint`,
  :func:`within`, :func:`contains`, :func:`crosses`, :func:`equals` —
  plus the general DE-9IM :func:`relate` matrix with :func:`matches`
  pattern tests;
* operations — :func:`distance`, :func:`intersection`, :func:`centroid`;
* metrics — :class:`PlanarMetric`, :class:`HaversineMetric`;
* the reference radius scan — :func:`brute_force_within_distance`.
"""

from repro.geometry.gtypes import (
    Envelope,
    Geometry,
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    as_point,
)
from repro.geometry.de9im import dim_char, matches, relate
from repro.geometry.index import brute_force_within_distance
from repro.geometry.metrics import (
    EARTH_RADIUS_M,
    HaversineMetric,
    Metric,
    PlanarMetric,
    convert_to_metres,
)
from repro.geometry.ops import (
    centroid,
    clip_line_to_polygon,
    clip_polygon_convex,
    distance,
    intersection,
    is_convex,
    split_line_at,
)
from repro.geometry.predicates import (
    contains,
    crosses,
    disjoint,
    equals,
    intersects,
    within,
)
from repro.geometry.wkt import dumps as wkt_dumps
from repro.geometry.wkt import loads as wkt_loads

__all__ = [
    "Envelope",
    "Geometry",
    "GeometryCollection",
    "LineString",
    "MultiLineString",
    "MultiPoint",
    "MultiPolygon",
    "Point",
    "Polygon",
    "as_point",
    "dim_char",
    "matches",
    "relate",
    "brute_force_within_distance",
    "EARTH_RADIUS_M",
    "HaversineMetric",
    "Metric",
    "PlanarMetric",
    "convert_to_metres",
    "centroid",
    "clip_line_to_polygon",
    "clip_polygon_convex",
    "distance",
    "intersection",
    "is_convex",
    "split_line_at",
    "contains",
    "crosses",
    "disjoint",
    "equals",
    "intersects",
    "within",
    "wkt_dumps",
    "wkt_loads",
]
