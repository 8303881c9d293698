"""Geographic multidimensional extension (GeoMD) of the MD metamodel.

Provides the paper's ``GeometricTypes`` enumeration, spatial levels,
thematic layers, the schema-personalization algebra behind the
``BecomeSpatial``/``AddLayer`` PRML actions, and UML export with the
``<<SpatialLevel>>``/``<<Layer>>`` stereotypes (Fig. 6).
"""

from repro.geomd.gtypes_enum import GeometricType, geometric_types_enumeration
from repro.geomd.schema import GEOMETRY_ATTRIBUTE, GeoMDSchema, Layer, SchemaSets
from repro.geomd.uml_export import geomd_profile, geomd_to_uml

__all__ = [
    "GEOMETRY_ATTRIBUTE",
    "GeoMDSchema",
    "GeometricType",
    "Layer",
    "SchemaSets",
    "geometric_types_enumeration",
    "geomd_profile",
    "geomd_to_uml",
]
