"""Spatial OLAP engine: cube queries and navigation.

The warehouse-analysis substrate the paper's rules personalize: cube
queries with attribute and spatial filters, roll-up/drill-down/slice/dice
navigation and the GeoMDQL-lite text query language.
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
