"""The Geographic Multidimensional model (GeoMD) — refs [10, 11].

A :class:`GeoMDSchema` is an :class:`~repro.mdm.model.MDSchema` extended
with:

* **spatial levels** — Base classes that carry a geometric description
  (the ``<<SpatialLevel>>`` stereotype of Fig. 6), created by the
  ``BecomeSpatial`` personalization action;
* **layers** — thematic geographic data external to the domain (the
  ``<<Layer>>`` stereotype: airports, train lines, highways), created by
  the ``AddLayer`` personalization action.

The two mutation methods *are* the paper's schema-personalization algebra.
A tenant applies them once, when a rule is registered
(:meth:`repro.personalization.engine.PersonalizationEngine.add_rule`
loads everything the rule's ``AddLayer``/``BecomeSpatial`` actions can
name into the star's schema).  A session never mutates a schema: its
schema actions pick, from the tenant's :class:`SchemaSets`, the shared
schema of the set of layers and spatial levels they named, so what one
user's rules add is never seen by another user.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.concurrency import make_lock
from repro.errors import SchemaError
from repro.geomd.gtypes_enum import GeometricType
from repro.mdm.model import Attribute, AttributeKind, Dimension, Fact, MDSchema
from repro.uml.core import GEOMETRY, DataType, STRING

__all__ = ["Layer", "GeoMDSchema", "SchemaSets", "GEOMETRY_ATTRIBUTE"]

#: Conventional name of the geometry attribute added by ``BecomeSpatial``.
GEOMETRY_ATTRIBUTE = "geometry"


class Layer:
    """A thematic geographic layer (``AddLayer`` result).

    Layers group geographic features external to the warehouse domain —
    "in order to correlate sales with the distance between stores and
    highway exits, we have to add a thematic layer describing highways"
    (Section 4.2.4).  Feature instances live in
    :class:`repro.storage.tables.LayerTable`.
    """

    def __init__(
        self,
        name: str,
        geometric_type: GeometricType,
        attributes: Iterable[Attribute] = (),
    ) -> None:
        if not name:
            raise SchemaError("layers require a name")
        self.name = name
        self.geometric_type = geometric_type
        self.attributes: dict[str, Attribute] = {}
        for attr in attributes:
            if attr.name in self.attributes:
                raise SchemaError(
                    f"layer {name!r} already has attribute {attr.name!r}"
                )
            self.attributes[attr.name] = attr
        if "name" not in self.attributes:
            self.attributes["name"] = Attribute(
                "name", STRING, AttributeKind.DESCRIPTOR
            )

    def __repr__(self) -> str:
        return f"<Layer {self.name} {self.geometric_type.name}>"


class GeoMDSchema(MDSchema):
    """MD schema + spatiality: spatial levels and thematic layers."""

    def __init__(
        self,
        name: str,
        dimensions: Iterable[Dimension],
        facts: Iterable[Fact],
        layers: Iterable[Layer] = (),
        spatial_levels: Mapping[str, GeometricType] | None = None,
    ) -> None:
        super().__init__(name, dimensions, facts)
        self.layers: dict[str, Layer] = {}
        for layer in layers:
            if layer.name in self.layers:
                raise SchemaError(f"schema {name!r} already has layer {layer.name!r}")
            self.layers[layer.name] = layer
        self.spatial_levels: dict[str, GeometricType] = {}
        for level_ref, gtype in (spatial_levels or {}).items():
            self._check_level_ref(level_ref)
            self.spatial_levels[level_ref] = gtype
            self._ensure_geometry_attribute(level_ref)

    # -- construction from a plain MD schema -----------------------------------

    @classmethod
    def from_md(cls, schema: MDSchema) -> "GeoMDSchema":
        """Lift a plain MD schema into an (initially non-spatial) GeoMD one.

        This is the first step of the personalization process of Fig. 1:
        the designer starts from the MD model and schema rules then add the
        required spatiality.  The originating schema is not mutated.
        """
        copy = MDSchema.from_dict(schema.to_dict())
        return cls(
            copy.name,
            copy.dimensions.values(),
            copy.facts.values(),
        )

    # -- the schema-personalization algebra ---------------------------------------

    def become_spatial(
        self, level_ref: str, geometric_type: GeometricType
    ) -> None:
        """Add a geometric description to a level (``BecomeSpatial``).

        ``level_ref`` is ``"Dimension.Level"`` or just ``"Dimension"`` for
        its leaf level.  Idempotent for the same geometric type; raises on
        a conflicting re-declaration.
        """
        level_ref = self._normalize_level_ref(level_ref)
        existing = self.spatial_levels.get(level_ref)
        if existing is not None:
            if existing is geometric_type:
                return
            raise SchemaError(
                f"level {level_ref!r} is already spatial with type "
                f"{existing.name}; cannot redeclare as {geometric_type.name}"
            )
        self.spatial_levels[level_ref] = geometric_type
        self._ensure_geometry_attribute(level_ref)

    def add_layer(
        self,
        name: str,
        geometric_type: GeometricType,
        attributes: Iterable[Attribute] = (),
    ) -> Layer:
        """Add a thematic layer (``AddLayer``).  Idempotent on same type."""
        existing = self.layers.get(name)
        if existing is not None:
            if existing.geometric_type is geometric_type:
                return existing
            raise SchemaError(
                f"layer {name!r} already exists with type "
                f"{existing.geometric_type.name}; cannot redeclare as "
                f"{geometric_type.name}"
            )
        layer = Layer(name, geometric_type, attributes)
        self.layers[name] = layer
        return layer

    # -- queries ---------------------------------------------------------------

    def layer(self, name: str) -> Layer:
        try:
            return self.layers[name]
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no layer {name!r}; "
                f"available: {sorted(self.layers)}"
            ) from None

    def is_spatial_level(self, level_ref: str) -> bool:
        try:
            return self._normalize_level_ref(level_ref) in self.spatial_levels
        except SchemaError:
            return False

    def level_geometric_type(self, level_ref: str) -> GeometricType:
        level_ref = self._normalize_level_ref(level_ref)
        try:
            return self.spatial_levels[level_ref]
        except KeyError:
            raise SchemaError(
                f"level {level_ref!r} is not spatial; spatial levels: "
                f"{sorted(self.spatial_levels)}"
            ) from None

    # -- helpers -------------------------------------------------------------

    def _normalize_level_ref(self, level_ref: str) -> str:
        parts = level_ref.split(".")
        if len(parts) == 1:
            dimension = self.dimension(parts[0])
            return f"{dimension.name}.{dimension.leaf}"
        if len(parts) == 2:
            self._check_level_ref(level_ref)
            return level_ref
        raise SchemaError(
            f"bad level reference {level_ref!r}; expected 'Dim' or 'Dim.Level'"
        )

    def _check_level_ref(self, level_ref: str) -> None:
        dim_name, _, level_name = level_ref.partition(".")
        dimension = self.dimension(dim_name)
        dimension.level(level_name or dimension.leaf)

    def _ensure_geometry_attribute(self, level_ref: str) -> None:
        dim_name, _, level_name = level_ref.partition(".")
        level = self.dimension(dim_name).level(level_name)
        if GEOMETRY_ATTRIBUTE not in level.attributes:
            level.add_attribute(
                Attribute(GEOMETRY_ATTRIBUTE, GEOMETRY, AttributeKind.DIMENSION_ATTRIBUTE)
            )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        data = super().to_dict()
        data["layers"] = [
            {
                "name": layer.name,
                "geometric_type": layer.geometric_type.name,
                "attributes": [
                    {"name": a.name, "type": a.type.name, "kind": a.kind.value}
                    for a in layer.attributes.values()
                ],
            }
            for layer in self.layers.values()
        ]
        data["spatial_levels"] = {
            ref: gtype.name for ref, gtype in self.spatial_levels.items()
        }
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "GeoMDSchema":
        base = MDSchema.from_dict(data)
        from repro.uml.core import BOOLEAN, DATE, GEOMETRY, INTEGER, REAL, STRING

        types: dict[str, DataType] = {
            t.name: t for t in (STRING, INTEGER, REAL, BOOLEAN, GEOMETRY, DATE)
        }
        layers = [
            Layer(
                ld["name"],
                GeometricType[ld["geometric_type"]],
                [
                    Attribute(a["name"], types[a["type"]], AttributeKind(a["kind"]))
                    for a in ld["attributes"]
                    if a["name"] != "name"
                ],
            )
            for ld in data.get("layers", ())
        ]
        spatial_levels = {
            ref: GeometricType[name]
            for ref, name in data.get("spatial_levels", {}).items()
        }
        return cls(
            base.name,
            base.dimensions.values(),
            base.facts.values(),
            layers,
            spatial_levels,
        )

    def __repr__(self) -> str:
        return (
            f"<GeoMDSchema {self.name} facts={sorted(self.facts)} "
            f"dims={sorted(self.dimensions)} layers={sorted(self.layers)} "
            f"spatial={sorted(self.spatial_levels)}>"
        )


class SchemaSets:
    """The shared :class:`GeoMDSchema` of each set of added layers and
    spatial levels.

    ``loaded`` is the tenant's schema, into which rule registration loads
    every layer and spatial level the rules can name; :attr:`base` is
    that schema as it stood before.  A set is keyed by a sorted tuple of
    ``"layer:<name>"`` and ``"level:<Dim.Level>"`` strings (JSON-safe,
    ``()`` for the base).  Its schema is the base plus those layers and
    levels, added in ``loaded``'s order; it is built once and shared,
    read-only, by every session holding the set.
    """

    def __init__(self, loaded: GeoMDSchema) -> None:
        self.loaded = loaded
        self._base = loaded.to_dict()
        self.base = GeoMDSchema.from_dict(self._base)
        self._lock = make_lock("SchemaSets._lock")
        # guarded-by: _lock
        self._schemas: dict[tuple[str, ...], GeoMDSchema] = {(): self.base}

    def schema(self, key: tuple[str, ...]) -> GeoMDSchema:
        """The shared schema of the set ``key``.  Raises
        :class:`~repro.errors.SchemaError` for a key that is not sorted
        and free of duplicates, or that names anything not loaded."""
        with self._lock:
            schema = self._schemas.get(key)
            if schema is None:
                schema = self._schemas[key] = self._build(key)
        return schema

    def with_item(
        self, key: tuple[str, ...], item: str
    ) -> tuple[tuple[str, ...], GeoMDSchema]:
        """The set ``key`` plus ``item``, and that set's schema."""
        key = tuple(sorted({*key, item}))
        return key, self.schema(key)

    def _build(self, key: tuple[str, ...]) -> GeoMDSchema:
        if list(key) != sorted(set(key)):
            raise SchemaError(f"schema set {list(key)} is not sorted and unique")
        schema = GeoMDSchema.from_dict(self._base)
        for name, layer in self.loaded.layers.items():
            if f"layer:{name}" in key:
                schema.add_layer(name, layer.geometric_type)
        for ref, geometric_type in self.loaded.spatial_levels.items():
            if f"level:{ref}" in key:
                schema.become_spatial(ref, geometric_type)
        built = {f"layer:{name}" for name in schema.layers}
        built |= {f"level:{ref}" for ref in schema.spatial_levels}
        if not built.issuperset(key):
            raise SchemaError(
                f"{sorted(set(key) - built)} not loaded with the tenant; "
                f"only registered rules' layers and levels can be added"
            )
        return schema
