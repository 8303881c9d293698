"""Spatial OLAP engine: cube queries and the GeoMDQL-lite language.

The warehouse-analysis substrate the paper's rules personalize: cube
queries with attribute and spatial filters, the :class:`Cube` a
personalized view hands the BI tool, and the GeoMDQL-lite text query
language whose ``BY`` and ``WHERE`` roll up and filter.
"""

from repro.olap.cube import Cube
from repro.olap.gmdql import parse_query
from repro.olap.query import (
    AggSpec,
    AttributeFilter,
    CellSet,
    ComparisonOp,
    CubeQuery,
    LayerRef,
    LevelRef,
    SpatialFilter,
    SpatialRelation,
    execute,
)

__all__ = [
    "AggSpec",
    "AttributeFilter",
    "CellSet",
    "ComparisonOp",
    "Cube",
    "CubeQuery",
    "LayerRef",
    "LevelRef",
    "SpatialFilter",
    "SpatialRelation",
    "execute",
    "parse_query",
]
