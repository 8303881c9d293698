"""In-memory star-schema tables: dimensions, facts and layers.

The reproduction's warehouse substrate.  Dimension tables hold level
members with explicit roll-up links (the ``r``/``d`` associations of the
MD profile materialized as parent keys); the fact table is columnar
(one code array per foreign key, one float array per measure, written
only by its columnar append) so that loads, OLAP scans and
personalized selections stay cheap; layer tables hold the geographic
features that ``AddLayer`` exposes to the rules.
"""

from __future__ import annotations

from array import array
from itertools import compress, islice
from typing import Iterable, Iterator, Mapping, Sequence

from repro.concurrency import make_lock
from repro.errors import StorageError
from repro.geomd.schema import GEOMETRY_ATTRIBUTE, Layer
from repro.geometry import Geometry
from repro.mdm.model import Dimension, Fact
from repro.storage.columns import Dictionary

__all__ = ["Member", "DimensionTable", "FactTable", "Feature", "LayerTable"]


class Member:
    """A member (row) of a dimension level."""

    __slots__ = ("level", "key", "attributes", "parents")

    def __init__(
        self,
        level: str,
        key: str,
        attributes: Mapping[str, object],
        parents: Mapping[str, str],
    ) -> None:
        self.level = level
        self.key = key
        self.attributes = dict(attributes)
        #: parent level name -> parent member key (one per roll-up edge)
        self.parents = dict(parents)

    def get(self, attribute: str) -> object:
        if attribute in self.attributes:
            return self.attributes[attribute]
        raise StorageError(
            f"member {self.key!r} of level {self.level!r} has no attribute "
            f"{attribute!r}; available: {sorted(self.attributes)}"
        )

    @property
    def geometry(self) -> Geometry | None:
        value = self.attributes.get(GEOMETRY_ATTRIBUTE)
        if value is None:
            return None
        if not isinstance(value, Geometry):
            raise StorageError(
                f"member {self.key!r}: geometry attribute holds "
                f"{type(value).__name__}, not a Geometry"
            )
        return value

    def __repr__(self) -> str:
        return f"<Member {self.level}:{self.key}>"


class DimensionTable:
    """Members of every level of one dimension, with roll-up links."""

    def __init__(self, dimension: Dimension) -> None:
        self.dimension = dimension
        self._levels: dict[str, dict[str, Member]] = {
            name: {} for name in dimension.levels
        }
        #: level -> the levels it rolls up to, derived once: a
        #: dimension's hierarchies are fixed when it is built.
        self._parent_levels: dict[str, frozenset[str]] = {
            name: frozenset(
                coarser
                for h in dimension.hierarchies.values()
                for finer, coarser in h.rollup_edges()
                if finer == name
            )
            for name in dimension.levels
        }

    def add_member(
        self,
        level: str,
        key: str,
        attributes: Mapping[str, object] | None = None,
        parents: Mapping[str, str] | None = None,
    ) -> Member:
        """Insert a member; parent keys are validated against stored members.

        ``parents`` maps parent level name -> parent member key for every
        roll-up edge leaving ``level``.  Parents must be inserted first
        (coarsest levels before finer ones).
        """
        if level not in self._levels:
            raise StorageError(
                f"dimension {self.dimension.name!r} has no level {level!r}"
            )
        if key in self._levels[level]:
            raise StorageError(
                f"duplicate member {key!r} in level "
                f"{self.dimension.name}.{level}"
            )
        attributes = dict(attributes or {})
        level_def = self.dimension.level(level)
        attributes.setdefault(level_def.key, key)
        for attr_name in attributes:
            if attr_name not in level_def.attributes and attr_name != GEOMETRY_ATTRIBUTE:
                raise StorageError(
                    f"level {self.dimension.name}.{level} has no attribute "
                    f"{attr_name!r}"
                )
        parents = dict(parents or {})
        expected_parents = self._parent_levels[level]
        for parent_level, parent_key in parents.items():
            if parent_level not in expected_parents:
                raise StorageError(
                    f"level {level!r} does not roll up to {parent_level!r}"
                )
            if parent_key not in self._levels.get(parent_level, {}):
                raise StorageError(
                    f"unknown parent member {parent_key!r} in level "
                    f"{parent_level!r} (insert coarser levels first)"
                )
        missing = expected_parents - set(parents)
        if missing:
            raise StorageError(
                f"member {key!r} of level {level!r} is missing parents for "
                f"{sorted(missing)}"
            )
        member = Member(level, key, attributes, parents)
        self._levels[level][key] = member
        return member

    def copy(self, dimension: Dimension) -> "DimensionTable":
        """This table's members under ``dimension`` (a copied schema's
        definition of the same dimension), in insertion order, each a
        new :class:`Member` with its own attribute and parent dicts."""
        table = DimensionTable(dimension)
        for level, members in self._levels.items():
            table._levels[level] = {
                key: Member(level, key, member.attributes, member.parents)
                for key, member in list(members.items())
            }
        return table

    def member(self, level: str, key: str) -> Member:
        try:
            return self._levels[level][key]
        except KeyError:
            raise StorageError(
                f"no member {key!r} in level {self.dimension.name}.{level}"
            ) from None

    def members(self, level: str) -> list[Member]:
        if level not in self._levels:
            raise StorageError(
                f"dimension {self.dimension.name!r} has no level {level!r}"
            )
        return list(self._levels[level].values())

    def size(self, level: str) -> int:
        return len(self._levels[level])

    def rollup(self, member: Member, target_level: str) -> Member:
        """Walk roll-up links from a member to its ancestor at a level."""
        if member.level == target_level:
            return member
        path = self.dimension.rollup_path(target_level)
        if member.level not in path:
            raise StorageError(
                f"cannot roll up from {member.level!r} to {target_level!r}: "
                f"no shared hierarchy path"
            )
        current = member
        start = path.index(member.level)
        for next_level in path[start + 1 :]:
            parent_key = current.parents.get(next_level)
            if parent_key is None:
                raise StorageError(
                    f"member {current.key!r} of level {current.level!r} has "
                    f"no parent at level {next_level!r}"
                )
            current = self.member(next_level, parent_key)
            if current.level == target_level:
                return current
        return current

    def geometry_of(self, member: Member) -> Geometry | None:
        return member.geometry

    def leaf_members(self) -> list[Member]:
        return self.members(self.dimension.leaf)

    def __repr__(self) -> str:
        sizes = {lv: len(members) for lv, members in self._levels.items()}
        return f"<DimensionTable {self.dimension.name} {sizes}>"


class FactTable:
    """Dictionary-encoded columnar fact storage (struct-of-arrays).

    Each dimension's key column is an ``array('i')`` of codes into an
    interned :class:`~repro.storage.columns.Dictionary`; each measure is
    an ``array('d')``.  Scans, filters and group-bys run over the dense
    arrays (:meth:`rows_matching`, :meth:`key_codes`,
    :meth:`measure_values`); the row-dict API (:meth:`row`,
    :meth:`key_column`) decodes on demand as a compatibility view.
    """

    def __init__(self, fact: Fact) -> None:
        self.fact = fact
        #: dimension -> interned key dictionary; encode() only under _lock.
        self._dictionaries: dict[str, Dictionary] = {
            d: Dictionary() for d in fact.dimension_names
        }
        #: dimension -> append-only code column (codes index _dictionaries).
        self._codes: dict[str, array] = {
            d: array("i") for d in fact.dimension_names
        }
        self._measures: dict[str, array] = {m: array("d") for m in fact.measures}
        self._count = 0
        #: dimension -> {leaf key -> ascending row ids}; built lazily by
        #: :meth:`key_postings` and maintained incrementally on insert, so
        #: a built posting map never goes stale.  ``_lock`` linearizes
        #: inserts against posting builds: without it a build racing an
        #: insert from another session's request could install a map
        #: permanently missing (or double-counting) the new row.
        # guarded-by: _lock
        self._postings: dict[str, dict[str, list[int]]] = {}
        self._lock = make_lock("FactTable._lock")

    def check_names(
        self, dimensions: Iterable[str], measures: Iterable[str]
    ) -> None:
        """Raise :class:`~repro.errors.StorageError` unless ``dimensions``
        and ``measures`` name exactly this fact's dimensions and measures."""
        if set(dimensions) != set(self.fact.dimension_names):
            raise StorageError(
                f"fact {self.fact.name!r} expects coordinates for "
                f"{sorted(self.fact.dimension_names)}, got {sorted(dimensions)}"
            )
        if set(measures) != set(self.fact.measures):
            raise StorageError(
                f"fact {self.fact.name!r} expects measures "
                f"{sorted(self.fact.measures)}, got {sorted(measures)}"
            )

    def insert_columns(
        self,
        keys: Mapping[str, Sequence[str]],
        measures: Mapping[str, Sequence[float]],
    ) -> list[int]:
        """Append a batch of rows given as columns: the table's one append.

        ``keys`` maps every dimension to its column of keys and
        ``measures`` every measure to its column of numbers, all of one
        length.  The names, the lengths and every measure value are
        checked before anything is appended (all-or-nothing).  Under the
        insert lock each key column is encoded through its dimension's
        dictionary in row order, so codes keep their first-appearance
        order; then the code and measure columns and any posting lists
        already built are extended.  Returns the new row ids in order.
        """
        self.check_names(keys, measures)
        lengths = {
            name: len(column)
            for name, column in (*keys.items(), *measures.items())
        }
        if len(set(lengths.values())) > 1:
            raise StorageError(
                f"fact {self.fact.name!r} expects columns of one length, "
                f"got {lengths}"
            )
        values: dict[str, array] = {}
        for measure_name, column in measures.items():
            for kind in dict.fromkeys(map(type, column)):
                if issubclass(kind, bool) or not issubclass(kind, (int, float)):
                    raise StorageError(
                        f"measure {measure_name!r} expects a number, got "
                        f"{kind.__name__}"
                    )
            values[measure_name] = array("d", column)
        count = next(iter(lengths.values()))
        if not count:
            return []
        with self._lock:
            first_row = self._count
            for dim_name, column in keys.items():
                encode = self._dictionaries[dim_name].encode
                self._codes[dim_name].extend(map(encode, column))
            for measure_name, column in values.items():
                self._measures[measure_name].extend(column)
            self._count += count
            for dim_name, postings in self._postings.items():
                for row_id, key in enumerate(keys[dim_name], first_row):
                    postings.setdefault(key, []).append(row_id)
        return list(range(first_row, first_row + count))

    def copy(self, fact: Fact) -> "FactTable":
        """This table's rows under ``fact`` (a copied schema's definition
        of the same fact): its own dictionaries and ``array`` slices of
        every column, all read at one row count under the insert lock.
        Postings are not copied; the copy builds its own on first use."""
        table = FactTable(fact)
        with self._lock:
            count = self._count
            table._dictionaries = {
                dim: dictionary.copy()
                for dim, dictionary in self._dictionaries.items()
            }
            table._codes = {
                dim: column[:count] for dim, column in self._codes.items()
            }
            table._measures = {
                measure: column[:count]
                for measure, column in self._measures.items()
            }
        table._count = count
        return table

    def __len__(self) -> int:
        return self._count

    def dictionary(self, dimension: str) -> Dictionary:
        """The interned key dictionary of one dimension column."""
        try:
            return self._dictionaries[dimension]
        except KeyError:
            raise StorageError(
                f"fact {self.fact.name!r} has no dimension {dimension!r}"
            ) from None

    def key_codes(self, dimension: str) -> array:
        """The live ``array('i')`` code column of one dimension.

        Append-only: snapshot ``len(table)`` first and slice/``islice``
        to that length for a consistent view under concurrent inserts.
        """
        try:
            return self._codes[dimension]
        except KeyError:
            raise StorageError(
                f"fact {self.fact.name!r} has no dimension {dimension!r}"
            ) from None

    def measure_values(self, measure: str) -> array:
        """The live ``array('d')`` column of one measure (append-only)."""
        try:
            return self._measures[measure]
        except KeyError:
            raise StorageError(
                f"fact {self.fact.name!r} has no measure {measure!r}"
            ) from None

    def key_column(self, dimension: str) -> list[str]:
        """Compatibility view: the decoded key column as a fresh list."""
        dictionary = self.dictionary(dimension)
        n = self._count
        return dictionary.decode_many(islice(self._codes[dimension], n))

    def key_postings(self, dimension: str) -> dict[str, list[int]]:
        """Inverted key column: ``leaf key -> ascending row ids``.

        Turns per-dimension fact filtering into posting-list unions and
        intersections instead of full-column scans.  Built on first use;
        :meth:`insert_columns` appends to a built map, so callers may hold
        on to the returned mapping only within one request.
        """
        with self._lock:
            postings = self._postings.get(dimension)
            if postings is None:
                dictionary = self.dictionary(dimension)  # existence check
                postings = {}
                decode = dictionary.decode
                for row_id, code in enumerate(self._codes[dimension]):
                    postings.setdefault(decode(code), []).append(row_id)
                self._postings[dimension] = postings
        return postings

    def measure_column(self, measure: str) -> list[float]:
        """Compatibility view: the measure column as a fresh list."""
        values = self.measure_values(measure)
        return list(islice(values, self._count))

    def rows_matching(
        self,
        relevant: Mapping[str, Iterable[str]],
        row_ids: Sequence[int] | None = None,
    ) -> list[int]:
        """Row ids whose leaf key is allowed in *every* given dimension.

        ``relevant`` maps dimension -> allowed leaf keys (dimensions not
        present are unconstrained).  The full-table path evaluates each
        dimension as a byte mask over the code column and intersects the
        masks as big-int AND.  When ``row_ids`` is
        given, only those rows are tested (in input order) — the shape
        the incremental view patcher needs for small deltas.
        """
        n = self._count
        lookups: list[tuple[array, bytearray]] = []
        for dim_name, keys in relevant.items():
            dictionary = self.dictionary(dim_name)
            mask = dictionary.lookup_mask(keys)
            if 1 not in mask:
                return []  # no allowed key was ever interned: nothing matches
            lookups.append((self._codes[dim_name], mask))
        if row_ids is not None:
            if not lookups:
                return [row_id for row_id in row_ids if 0 <= row_id < n]
            return [
                row_id
                for row_id in row_ids
                if 0 <= row_id < n
                and all(mask[column[row_id]] for column, mask in lookups)
            ]
        if not lookups:
            return list(range(n))
        if n == 0:
            return []
        matched: int | None = None
        for column, mask in lookups:
            column_mask = bytes(map(mask.__getitem__, islice(column, n)))
            value = int.from_bytes(column_mask, "little")
            matched = value if matched is None else matched & value
        assert matched is not None
        return list(compress(range(n), matched.to_bytes(n, "little")))

    def row(self, row_id: int) -> dict[str, object]:
        if not 0 <= row_id < self._count:
            raise StorageError(
                f"row id {row_id} out of range (0..{self._count - 1})"
            )
        out: dict[str, object] = {
            dim: self._dictionaries[dim].decode(column[row_id])
            for dim, column in self._codes.items()
        }
        out.update(
            {measure: column[row_id] for measure, column in self._measures.items()}
        )
        return out

    def row_ids(self) -> range:
        return range(self._count)


class Feature:
    """One geographic feature of a thematic layer."""

    __slots__ = ("feature_id", "name", "geometry", "attributes")

    def __init__(
        self,
        feature_id: int,
        name: str,
        geometry: Geometry,
        attributes: Mapping[str, object] | None = None,
    ) -> None:
        self.feature_id = feature_id
        self.name = name
        self.geometry = geometry
        self.attributes = dict(attributes or {})

    def __repr__(self) -> str:
        return f"<Feature {self.name!r} #{self.feature_id}>"


class LayerTable:
    """Feature instances of one thematic layer, type-checked on insert."""

    def __init__(self, layer: Layer) -> None:
        self.layer = layer
        self._features: list[Feature] = []
        self._by_name: dict[str, Feature] = {}

    def add_feature(
        self,
        name: str,
        geometry: Geometry,
        attributes: Mapping[str, object] | None = None,
    ) -> Feature:
        return self.add_features([(name, geometry, attributes)])[0]

    def add_features(
        self,
        entries: Iterable[tuple[str, Geometry, Mapping[str, object] | None]],
    ) -> list[Feature]:
        """Append ``(name, geometry, attributes)`` features, checking
        every one (geometric type, unique name) before appending any."""
        entries = list(entries)
        names: set[str] = set()
        for name, geometry, _attributes in entries:
            if not self.layer.geometric_type.accepts(geometry):
                raise StorageError(
                    f"layer {self.layer.name!r} is declared "
                    f"{self.layer.geometric_type.name}; got a "
                    f"{geometry.geom_type} for feature {name!r}"
                )
            if name in self._by_name or name in names:
                raise StorageError(
                    f"layer {self.layer.name!r} already has a feature {name!r}"
                )
            names.add(name)
        added = []
        for name, geometry, attributes in entries:
            feature = Feature(len(self._features), name, geometry, attributes)
            self._features.append(feature)
            self._by_name[name] = feature
            added.append(feature)
        return added

    def copy(self, layer: Layer) -> "LayerTable":
        """This table's features under ``layer`` (a copied schema's
        definition of the same layer), in order, each a new
        :class:`Feature` with its own attribute dict and the same
        (immutable) geometry."""
        table = LayerTable(layer)
        for feature in list(self._features):
            copied = Feature(
                feature.feature_id, feature.name, feature.geometry, feature.attributes
            )
            table._features.append(copied)
            table._by_name[copied.name] = copied
        return table

    def features(self) -> list[Feature]:
        return list(self._features)

    def feature(self, name: str) -> Feature:
        try:
            return self._by_name[name]
        except KeyError:
            raise StorageError(
                f"layer {self.layer.name!r} has no feature {name!r}"
            ) from None

    def geometries(self) -> Iterator[Geometry]:
        for feature in self._features:
            yield feature.geometry

    def __len__(self) -> int:
        return len(self._features)

    def __repr__(self) -> str:
        return f"<LayerTable {self.layer.name} n={len(self._features)}>"
