"""In-memory star-schema storage for (Geo)MD schemas.

Dimension tables with explicit roll-up links, columnar fact tables,
geographic layer tables, referential-integrity checks and roll-up
caches.  A star is rebuilt, not restored: it is a function of the world,
the registered rules and the ingested rows.
"""

from repro.storage.snapshot import star_to_dict
from repro.storage.star import StarMutation, StarSchema
from repro.storage.tables import (
    DimensionTable,
    FactTable,
    Feature,
    LayerTable,
    Member,
)

__all__ = [
    "DimensionTable",
    "FactTable",
    "Feature",
    "LayerTable",
    "Member",
    "StarMutation",
    "StarSchema",
    "star_to_dict",
]
