"""The star schema: binding an (Geo)MD schema to its instance tables.

A :class:`StarSchema` owns one :class:`~repro.storage.tables.DimensionTable`
per dimension, one :class:`~repro.storage.tables.FactTable` per fact and one
:class:`~repro.storage.tables.LayerTable` per thematic layer.  It enforces
referential integrity (fact keys must reference leaf members) and geometry
conformance for spatial levels, and provides the roll-up structures the
OLAP engine relies on.

Generation-based invalidation
-----------------------------

The star is the shared substrate of every cache in the hot request path
(memoized personalized views, the lazy indexes below), so it carries a
monotonically-increasing :attr:`~StarSchema.generation` counter.  Every
write — a member add, a level's geometry load
(:meth:`~StarSchema.become_spatial`), a fact append, a layer's feature
load, a layer add — bumps it; downstream caches store the generation
they were built at and treat any difference as a miss.  A tenant's
rules write the star only when they are registered (the layers and
level geometries their schema actions name); serving never writes it,
so besides registration only ingest moves the generation.  The lazy
structures owned here (the inverted roll-up index, the leaf-code
roll-up translation tables and the per-level :class:`LevelGeometries`
records) are instead patched or dropped *in place* by the write
itself, so they can never serve stale data.

The oracle switch
-----------------

:attr:`~StarSchema.oracle` is the one transparency switch of the system.
Every layer reads it from the star it already holds and, when it is set,
takes its reference path: index-backed lookups scan, views rebuild on
every call, :func:`~repro.olap.query.execute` runs the row-loop
reference executor, and the recommender's cache is bypassed.  Tests
and the benchmark harness set it to prove that every cache and index
returns exactly what the reference paths return.

The mutation log
----------------

Every write logs one typed :class:`StarMutation` carrying its delta to
a bounded, generation-ordered :class:`MutationLog` owned by the star.
Listeners receive each mutation exactly once (outside the lock), but
the log is the durable record: downstream layers patch instead of
invalidating, and :class:`repro.storage.snapshot.StarHistory` replays
the retained suffix over generation-stamped checkpoints to answer
``as_of`` reads against a past generation.

Copies
------

:meth:`StarSchema.copy` makes an independent star with the same
contents, generation counters and mutation log, but no lazy caches,
listeners or history.  The fact columns are copied as ``array`` slices,
so a copy costs a small fraction of a load.  The workload harness gives
each tenant a copy of one loaded star, and
:class:`repro.storage.snapshot.StarHistory` keeps its checkpoints as
copies and rebuilds a past generation on a copy of one.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.concurrency import make_lock
from repro.errors import StorageError
from repro.geomd.gtypes_enum import GeometricType
from repro.geomd.schema import GEOMETRY_ATTRIBUTE, GeoMDSchema
from repro.geometry import Geometry, LineString, Point, Polygon
from repro.geometry.index import EnvelopeColumns
from repro.mdm.model import MDSchema
from repro.storage.tables import DimensionTable, FactTable, LayerTable, Member

__all__ = [
    "LevelGeometries",
    "MutationLog",
    "StarMutation",
    "StarSchema",
    "freeze_payload",
    "thaw_payload",
]


def freeze_payload(mapping: Mapping[str, object] | None) -> tuple:
    """Deep-freeze a delta payload into nested sorted tuples.

    :class:`StarMutation` is frozen and cached/logged, so its payload must
    be immutable too: mappings become ``((key, value), ...)`` sorted by
    key, sequences become tuples.  Geometries pass through untouched —
    they are already immutable value objects.
    """
    if not mapping:
        return ()
    return tuple(sorted((key, _freeze_value(value)) for key, value in mapping.items()))


def _freeze_value(value: object) -> object:
    if isinstance(value, Mapping):
        return tuple(sorted((k, _freeze_value(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple, set, frozenset)):
        return tuple(_freeze_value(v) for v in value)
    return value


def thaw_payload(payload: tuple) -> dict[str, object]:
    """Inverse of :func:`freeze_payload` for the top level.

    Nested frozen mappings stay as item tuples; use :func:`thaw_mapping`
    on individual fields whose original shape was a mapping.
    """
    return dict(payload)


def thaw_mapping(value: object) -> dict:
    """Rebuild a mapping field frozen by :func:`freeze_payload`."""
    if isinstance(value, tuple):
        return dict(value)
    if isinstance(value, Mapping):
        return dict(value)
    return {}


@dataclass(frozen=True)
class StarMutation:
    """Typed description of one star write, logged and delivered to listeners.

    ``generation`` is the star generation *after* the write.  Every
    mutation carries its delta: a fact append the appended ``row_ids``;
    a member add, a geometry load, a layer's feature load and a layer
    add their arguments in ``payload`` (a :func:`freeze_payload`
    tuple), tagged by ``op``.  Downstream caches patch through these
    deltas and :class:`repro.storage.snapshot.StarHistory` replays them.
    """

    kind: str  # "member" | "fact" | "feature" | "schema"
    generation: int
    dimension: str | None = None
    layer: str | None = None
    fact: str | None = None
    row_ids: tuple[int, ...] = ()
    # "add" | "become_spatial" | "append" | "bulk" | "add_layer"
    op: str | None = None
    payload: tuple = ()

    @property
    def is_fact_delta(self) -> bool:
        """True for a fact append (the one write that patches views)."""
        return self.kind == "fact"

    @property
    def is_member_add(self) -> bool:
        """True for a member insert (a new leaf or ancestor)."""
        return self.kind == "member" and self.op == "add"

    def payload_dict(self) -> dict[str, object]:
        """The delta payload as a plain dict (top level only)."""
        return thaw_payload(self.payload)


class MutationLog:
    """Bounded, generation-ordered log of one star's typed mutations.

    Appended by the star inside its cache lock (so entries are strictly
    ordered by generation) and read by :class:`repro.storage.snapshot.StarHistory`
    replay and the health endpoint.  Eviction drops the oldest entries;
    per-kind counters are cumulative and survive eviction.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise StorageError("MutationLog needs max_entries >= 1")
        self.max_entries = max_entries
        self._lock = make_lock("MutationLog._lock")
        # guarded-by: _lock
        self._entries: deque[StarMutation] = deque()
        # kind -> cumulative count (never decremented on eviction).
        # guarded-by: _lock
        self._kind_counts: dict[str, int] = {}

    def append(self, mutation: StarMutation) -> None:
        with self._lock:
            self._entries.append(mutation)
            self._kind_counts[mutation.kind] = (
                self._kind_counts.get(mutation.kind, 0) + 1
            )
            while len(self._entries) > self.max_entries:
                self._entries.popleft()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def copy(self) -> "MutationLog":
        """An independent log with the same bound, entries and per-kind
        counts (entries are frozen, so they are shared)."""
        log = MutationLog(self.max_entries)
        with self._lock:
            log._entries = deque(self._entries)
            log._kind_counts = dict(self._kind_counts)
        return log

    def between(self, start: int, end: int) -> list[StarMutation]:
        """Retained mutations with ``start < generation <= end``, in order."""
        with self._lock:
            return [m for m in self._entries if start < m.generation <= end]

    def stats(self) -> dict[str, object]:
        with self._lock:
            return {
                "length": len(self._entries),
                "max_entries": self.max_entries,
                "kinds": dict(self._kind_counts),
                "oldest_generation": (
                    self._entries[0].generation if self._entries else None
                ),
                "newest_generation": (
                    self._entries[-1].generation if self._entries else None
                ),
            }

#: Sentinel distinguishing "not cached yet" from a cached ``None``
#: (a level without geometries legitimately caches as ``None``).
_UNBUILT = object()


class _RollupTranslation:
    """Leaf-code → ancestor-ordinal table for one ``(fact, dimension, level)``.

    ``codes[leaf_code]`` is an index into ``keys``, the distinct ancestor
    keys at the target level in first-encounter order.  This is the unit
    of the vectorized group-by: translating a fact's code column through
    ``codes`` replaces one :meth:`StarSchema.rollup_member` call per row
    with one array gather per column.

    A table is immutable per member generation except for *growth*:
    when the fact dictionary interns new leaf keys, :meth:`extend`
    appends their translations under the star's cache lock.  ``codes``
    and ``keys`` are append-only, so unlocked readers holding a
    reference stay correct (their row snapshot only references the
    prefix that existed when they took it).
    """

    __slots__ = ("member_generation", "codes", "keys", "_ordinals")

    def __init__(self, member_generation: int) -> None:
        self.member_generation = member_generation
        self.codes = array("i")
        self.keys: list[str] = []
        self._ordinals: dict[str, int] = {}

    def extend(
        self, star: "StarSchema", table: FactTable, dimension: str, level: str
    ) -> None:
        """Translate any leaf codes interned since the last build.

        Must be called under the star's ``_cache_lock``; appends one
        entry per new dictionary code, resolving ancestry by walking
        parent links (:meth:`StarSchema.rollup_member`).
        """
        dictionary = table.dictionary(dimension)
        size = len(dictionary)
        while len(self.codes) < size:
            leaf_key = dictionary.decode(len(self.codes))
            ancestor_key = star.rollup_member(dimension, leaf_key, level).key
            ordinal = self._ordinals.get(ancestor_key)
            if ordinal is None:
                ordinal = len(self.keys)
                self.keys.append(ancestor_key)
                self._ordinals[ancestor_key] = ordinal
            self.codes.append(ordinal)


#: Geometry types that are never empty, so ``Distance`` measures them
#: against any geometry it measures at all (a collection with an empty
#: part could make it raise on some members and not on others).
_PRIMITIVE_TYPES = frozenset((Point, LineString, Polygon))


@dataclass(frozen=True, slots=True)
class LevelGeometries:
    """One level's members as the spatial readers see them.

    ``members`` holds the level's members in member order and
    ``geometries[i]`` the geometry of ``members[i]`` (``None`` where it
    has none).  ``primitive`` says whether every one is a ``Point``,
    ``LineString`` or ``Polygon``.  ``index`` is the envelope columns
    over the positions of the members that carry a geometry, so its
    answers come in member order.  Built by
    :meth:`StarSchema.level_grid_index` and never changed: a member
    mutation drops it.
    """

    members: tuple[Member, ...]
    geometries: tuple[Geometry | None, ...]
    primitive: bool
    index: EnvelopeColumns


class StarSchema:
    """Instance storage for one (Geo)MD schema."""

    def __init__(self, schema: MDSchema) -> None:
        self.schema = schema
        self._dimensions: dict[str, DimensionTable] = {
            name: DimensionTable(dim) for name, dim in schema.dimensions.items()
        }
        self._facts: dict[str, FactTable] = {
            name: FactTable(fact) for name, fact in schema.facts.items()
        }
        self._layers: dict[str, LayerTable] = {}
        if isinstance(schema, GeoMDSchema):
            for name, layer in schema.layers.items():
                self._layers[name] = LayerTable(layer)
        # dimension -> member generation, the stamp of its roll-up
        # translation tables (keyed on it instead of the global
        # generation, so no write evicts a resolved roll-up).  No write
        # moves it: parent links are fixed when a member is added, a new
        # leaf is referenced by no existing fact, and a geometry load
        # changes no link, so every resolved roll-up stays correct.  The
        # stamp keeps the tables' keys generation-carrying, as the
        # ``gen-key`` lint rule requires of every cache.
        self._member_generations: dict[str, int] = {}
        # Bumped by every write but a fact append; the recommender's
        # profile cache keys on this (profiles read members and the
        # journal, never fact rows).
        self._metadata_generation = 0
        #: When True, every layer over this star takes its reference
        #: path instead of its caches and indexes (see the module
        #: docstring); runtime-mutable.
        self.oracle: bool = False
        self._generation = 0
        # (dimension, level) -> {ancestor key -> leaf keys}; lazy.
        # guarded-by: _cache_lock
        self._rollup_index: dict[tuple[str, str], dict[str, set[str]]] = {}
        # (fact, dimension, level) -> _RollupTranslation; lazy, stamped
        # with the dimension's member generation and extended in place
        # when the fact dictionary grows.
        # guarded-by: _cache_lock
        self._rollup_translations: dict[tuple[str, str, str], _RollupTranslation] = {}
        # (dimension, level) -> LevelGeometries | None.
        # guarded-by: _cache_lock
        self._level_grid: dict[tuple[str, str], object] = {}
        #: Linearizes lazy index builds against the writes that patch
        #: or drop them.  The service only serializes requests
        #: per-session, so two sessions of one tenant can race a build
        #: against a mutation; without the lock the loser could install
        #: a permanently stale index.
        self._cache_lock = make_lock("StarSchema._cache_lock")
        #: Observers of every mutation, called with a :class:`StarMutation`
        #: *outside* ``_cache_lock`` (listeners may take their own locks
        #: and read the star back).  The engine's shared view store
        #: subscribes here to patch or carry materialized views.
        self._mutation_listeners: list[Callable[[StarMutation], None]] = []
        #: Ordered, bounded log of every write; appended inside
        #: ``_cache_lock`` so entries are strictly generation-ordered
        #: even when listeners race.
        self.mutation_log = MutationLog()
        #: Set by :meth:`repro.storage.snapshot.StarHistory.attach`;
        #: ``None`` until a history is attached (as-of reads then fail
        #: with a clear error instead of silently serving live data).
        self.history = None

    # -- generations and listeners --------------------------------------------

    @property
    def generation(self) -> int:
        """Monotonic data version; bumped by every write."""
        return self._generation

    @property
    def metadata_generation(self) -> int:
        """Version of everything but fact rows (members, features, schema)."""
        return self._metadata_generation

    def add_mutation_listener(
        self, listener: Callable[[StarMutation], None]
    ) -> None:
        """Register an observer of every write's :class:`StarMutation`."""
        self._mutation_listeners.append(listener)

    def remove_mutation_listener(
        self, listener: Callable[[StarMutation], None]
    ) -> None:
        """Deregister a mutation observer (no-op when absent).

        The star holds a strong reference to each listener; a caller
        replacing an engine over a live star should detach the old one so
        its view store stops being maintained (and can be collected).
        """
        try:
            self._mutation_listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, mutation: StarMutation) -> None:
        for listener in self._mutation_listeners:
            listener(mutation)

    def _log(self, kind: str, **fields: object) -> StarMutation:  # guarded-by-caller: _cache_lock
        """Bump the generation (and, but for a fact append, the metadata
        generation) and log one mutation of ``kind`` carrying ``fields``.

        Must be called under ``_cache_lock``, after the write and its
        cache patches, so a copy pairs the generation with the contents;
        the caller notifies the listeners once it has released the lock.
        """
        self._generation += 1
        if kind != "fact":
            self._metadata_generation += 1
        mutation = StarMutation(kind=kind, generation=self._generation, **fields)
        self.mutation_log.append(mutation)
        return mutation

    def _patch_member_add(self, dimension: str, level: str, key: str) -> None:  # guarded-by-caller: _cache_lock
        """Extend the dimension's lazy caches for one added member.

        Must be called under ``_cache_lock``.  A new leaf joins every
        built inverted index for its dimension; a new non-leaf member
        has no leaf descendants yet, so the indexes need no entry
        (readers fall back to an empty set).  Only the added level's
        record is dropped; its next read rebuilds it.
        """
        table = self.dimension_table(dimension)
        if level == table.dimension.leaf:
            for (dim, target_level), index in list(self._rollup_index.items()):
                if dim != dimension:
                    continue
                try:
                    ancestor = self.rollup_member(dimension, key, target_level)
                except StorageError:
                    # No ancestry path at this level — degrade this one
                    # index to a lazy rebuild rather than guessing.
                    del self._rollup_index[(dim, target_level)]
                    continue
                index.setdefault(ancestor.key, set()).add(key)
        self._level_grid.pop((dimension, level), None)

    # -- access ---------------------------------------------------------------

    def dimension_table(self, name: str) -> DimensionTable:
        try:
            return self._dimensions[name]
        except KeyError:
            raise StorageError(
                f"star schema has no dimension table {name!r}; "
                f"available: {sorted(self._dimensions)}"
            ) from None

    def fact_table(self, name: str | None = None) -> FactTable:
        if name is None:
            if len(self._facts) != 1:
                raise StorageError(
                    f"star schema has {len(self._facts)} fact tables; "
                    f"name one explicitly"
                )
            return next(iter(self._facts.values()))
        try:
            return self._facts[name]
        except KeyError:
            raise StorageError(
                f"star schema has no fact table {name!r}; "
                f"available: {sorted(self._facts)}"
            ) from None

    def layer_table(self, name: str) -> LayerTable:
        try:
            return self._layers[name]
        except KeyError:
            raise StorageError(
                f"star schema has no layer table {name!r}; "
                f"available: {sorted(self._layers)}"
            ) from None

    @property
    def layer_tables(self) -> dict[str, LayerTable]:
        return dict(self._layers)

    def ensure_layer_table(self, name: str) -> LayerTable:
        """Create the table for a layer added to the schema after binding.

        Registering a rule whose ``AddLayer`` names a new layer adds it
        to a loaded star's schema; the engine then creates the table
        here, which logs a ``schema`` mutation carrying the layer's name
        and geometric type.
        """
        with self._cache_lock:
            table = self._layers.get(name)
            if table is not None:
                return table
            if not isinstance(self.schema, GeoMDSchema):
                raise StorageError(
                    "cannot add a layer table to a non-GeoMD star schema"
                )
            layer = self.schema.layer(name)
            table = LayerTable(layer)
            self._layers[name] = table
            mutation = self._log(
                "schema",
                op="add_layer",
                payload=freeze_payload(
                    {"layer": name, "geometric_type": layer.geometric_type.name}
                ),
            )
        self._notify(mutation)
        return table

    # -- loading ----------------------------------------------------------------

    def add_member(
        self,
        dimension: str,
        level: str,
        key: str,
        attributes: Mapping[str, object] | None = None,
        parents: Mapping[str, str] | None = None,
    ) -> Member:
        """Add one member and log it as a ``member`` mutation of op
        ``add``.

        A member of a spatial level whose geometry the level's type does
        not accept is refused before it is added.  Parent links are
        fixed at creation and a brand-new member is referenced by no
        existing fact row, so every resolved roll-up stays correct: the
        inverted roll-up index is extended in place and only the added
        level's :class:`LevelGeometries` record is dropped.
        """
        self._check_member_geometry(dimension, level, key, attributes)
        member = self.dimension_table(dimension).add_member(
            level, key, attributes, parents
        )
        with self._cache_lock:
            self._patch_member_add(dimension, level, key)
            mutation = self._log(
                "member",
                dimension=dimension,
                op="add",
                payload=freeze_payload(
                    {
                        "level": level,
                        "key": key,
                        "attributes": dict(member.attributes),
                        "parents": dict(member.parents),
                    }
                ),
            )
        self._notify(mutation)
        return member

    def become_spatial(
        self,
        level_ref: str,
        geometric_type: GeometricType,
        geometries: Mapping[str, Geometry],
    ) -> None:
        """Make a level spatial and give its members geometries
        (``BecomeSpatial``, paper §5.1).

        ``level_ref`` is ``"Dimension.Level"`` (or ``"Dimension"`` for
        its leaf level) and ``geometries`` maps member keys of that
        level to their geometries.  The load is checked
        (:meth:`check_spatial`) before anything is written.  Then the
        level is made spatial in the star's schema (a conflicting
        re-declaration raises :class:`~repro.errors.SchemaError`, also
        before any write), the members' geometry attributes are written
        and only the level's :class:`LevelGeometries` record is dropped;
        roll-ups survive, since no parent link moves.  Logs one
        ``member`` mutation of op ``become_spatial`` carrying the level,
        the type and the geometries, which as-of reads replay.
        """
        dimension, level, loads = self.check_spatial(
            level_ref, geometric_type, geometries
        )
        with self._cache_lock:
            self.schema.become_spatial(f"{dimension}.{level}", geometric_type)
            for member, geometry in loads:
                member.attributes[GEOMETRY_ATTRIBUTE] = geometry
            self._level_grid.pop((dimension, level), None)
            mutation = self._log(
                "member",
                dimension=dimension,
                op="become_spatial",
                payload=freeze_payload(
                    {
                        "level": level,
                        "geometric_type": geometric_type.name,
                        "geometries": dict(geometries),
                    }
                ),
            )
        self._notify(mutation)

    def check_spatial(
        self,
        level_ref: str,
        geometric_type: GeometricType,
        geometries: Mapping[str, Geometry],
    ) -> tuple[str, str, list[tuple[Member, Geometry]]]:
        """Check a :meth:`become_spatial` load, writing nothing.

        A non-GeoMD star, an unknown member or a geometry that
        ``geometric_type`` does not accept raises
        :class:`~repro.errors.StorageError`.  Returns the dimension, the
        level and each ``(member, geometry)`` pair to write.
        """
        if not isinstance(self.schema, GeoMDSchema):
            raise StorageError(
                "cannot make a level of a non-GeoMD star schema spatial"
            )
        dimension, _, level = level_ref.partition(".")
        table = self.dimension_table(dimension)
        level = level or table.dimension.leaf
        loads = [(table.member(level, key), g) for key, g in geometries.items()]
        for member, geometry in loads:
            if not geometric_type.accepts(geometry):
                raise StorageError(
                    f"geometry for {member.key!r} is a {geometry.geom_type}, "
                    f"but {level_ref} was declared {geometric_type.name}"
                )
        return dimension, level, loads

    def _check_member_geometry(
        self,
        dimension: str,
        level: str,
        key: str,
        attributes: Mapping[str, object] | None,
    ) -> None:
        if not isinstance(self.schema, GeoMDSchema):
            return
        ref = f"{dimension}.{level}"
        declared = self.schema.spatial_levels.get(ref)
        geometry = (attributes or {}).get(GEOMETRY_ATTRIBUTE)
        if declared is None or geometry is None:
            return  # a level may be spatial before its geometries load
        if not isinstance(geometry, Geometry):
            raise StorageError(
                f"member {key!r}: geometry attribute holds "
                f"{type(geometry).__name__}, not a Geometry"
            )
        if not declared.accepts(geometry):
            raise StorageError(
                f"member {key!r} of spatial level {ref} carries a "
                f"{geometry.geom_type}, but the level is declared "
                f"{declared.name}"
            )

    def insert_fact(
        self,
        fact: str,
        coordinates: Mapping[str, str],
        measures: Mapping[str, float],
    ) -> int:
        """Insert a fact row, checking every key against the leaf members."""
        return self.insert_facts(fact, [(coordinates, measures)])[0]

    def insert_facts(
        self,
        fact: str,
        rows: Iterable[tuple[Mapping[str, str], Mapping[str, float]]],
    ) -> list[int]:
        """Insert many ``(coordinates, measures)`` rows as one batch.

        Referential checks run once per distinct leaf key, the table
        append shares one lock acquisition (:meth:`FactTable.insert_many`),
        and downstream caches see ONE :class:`StarMutation` carrying the
        whole row-id delta — the shape the incremental view patcher and
        the bulk loaders want.  Returns the new row ids in input order.
        """
        table = self.fact_table(fact)
        rows = list(rows)
        leaf_levels: dict[str, tuple[DimensionTable, str]] = {}
        checked: dict[str, set[str]] = {}
        for coordinates, _measures in rows:
            for dim_name, key in coordinates.items():
                cached = leaf_levels.get(dim_name)
                if cached is None:
                    dim_table = self.dimension_table(dim_name)
                    cached = (dim_table, dim_table.dimension.leaf)
                    leaf_levels[dim_name] = cached
                    checked[dim_name] = set()
                if key in checked[dim_name]:
                    continue
                dim_table, leaf = cached
                try:
                    dim_table.member(leaf, key)
                except StorageError:
                    raise StorageError(
                        f"fact {fact!r}: unknown {dim_name!r} leaf member "
                        f"{key!r}"
                    ) from None
                checked[dim_name].add(key)
        row_ids = table.insert_many(rows)
        if row_ids:
            with self._cache_lock:
                mutation = self._log(
                    "fact", fact=table.fact.name, row_ids=tuple(row_ids), op="append"
                )
            self._notify(mutation)
        return row_ids

    def add_features(
        self,
        layer: str,
        features: Iterable[tuple[str, Geometry, Mapping[str, object] | None]],
    ) -> None:
        """Load ``(name, geometry, attributes)`` features into a layer as
        one write (a rule-named layer's load).

        Every feature is checked before any is added (a wrong geometric
        type or a taken name raises :class:`~repro.errors.StorageError`
        and changes nothing).  One ``feature`` mutation of op ``bulk``
        carries every loaded feature; it is the star's only feature
        write.
        """
        loaded = self.layer_table(layer).add_features(features)
        with self._cache_lock:
            mutation = self._log(
                "feature",
                layer=layer,
                op="bulk",
                payload=freeze_payload(
                    {
                        "features": [
                            (f.name, f.geometry, dict(f.attributes)) for f in loaded
                        ]
                    }
                ),
            )
        self._notify(mutation)

    # -- roll-up ------------------------------------------------------------------

    def rollup_member(self, dimension: str, leaf_key: str, level: str) -> Member:
        """Ancestor of a leaf member at ``level``, by its parent links."""
        table = self.dimension_table(dimension)
        return table.rollup(table.member(table.dimension.leaf, leaf_key), level)

    def rollup_index(self, dimension: str, level: str) -> dict[str, set[str]]:
        """Inverted roll-up map: ``ancestor key at level -> leaf keys``.

        Built lazily from one pass over the leaf members and extended
        by :meth:`add_member`; turns roll-up filtering from an
        O(leaf-members) scan per query into dict lookups.
        """
        cache_key = (dimension, level)
        # Read and build under the cache lock: it is uncontended in
        # steady state, so a dict .get under it costs the same dict .get.
        with self._cache_lock:
            index = self._rollup_index.get(cache_key)
            if index is None:
                table = self.dimension_table(dimension)
                index = {}
                for leaf in table.leaf_members():
                    ancestor = self.rollup_member(dimension, leaf.key, level)
                    index.setdefault(ancestor.key, set()).add(leaf.key)
                self._rollup_index[cache_key] = index
        return index

    def rollup_translation(
        self, fact: str, dimension: str, level: str
    ) -> _RollupTranslation:
        """Leaf-code → ancestor-ordinal table for one fact dimension.

        The vectorized group-by's unit: ``table.codes`` maps every code
        of the fact's ``dimension`` dictionary to an ordinal into
        ``table.keys`` (distinct ancestor keys at ``level``).  Stamped
        with the dimension's member generation (no write moves that
        stamp); a dictionary growth (fact appends interning new leaf
        keys) extends it in place.
        """
        cache_key = (fact, dimension, level)
        table = self.fact_table(fact)
        # No unlocked fast path: the cache lock is uncontended in steady
        # state, as in rollup_index.
        with self._cache_lock:
            member_generation = self._member_generations.get(dimension, 0)
            translation = self._rollup_translations.get(cache_key)
            if (
                translation is None
                or translation.member_generation != member_generation
            ):
                translation = _RollupTranslation(member_generation)
                self._rollup_translations[cache_key] = translation
            translation.extend(self, table, dimension, level)
        return translation

    def leaf_keys_rolled_to(
        self, dimension: str, level: str, member_keys: Iterable[str]
    ) -> set[str]:
        """Leaf member keys whose ancestor at ``level`` is in ``member_keys``."""
        if not self.oracle:
            index = self.rollup_index(dimension, level)
            out: set[str] = set()
            for key in member_keys:
                out.update(index.get(key, ()))
            return out
        wanted = set(member_keys)
        table = self.dimension_table(dimension)
        out = set()
        for leaf in table.leaf_members():
            if self.rollup_member(dimension, leaf.key, level).key in wanted:
                out.add(leaf.key)
        return out

    # -- lazy spatial index -------------------------------------------------------

    def level_grid_index(
        self, dimension: str, level: str
    ) -> LevelGeometries | None:
        """The level's cached :class:`LevelGeometries` record.

        ``None`` when no member of the level carries a geometry yet.
        Reading the members' geometries raises the
        :class:`~repro.errors.StorageError` of the first one whose
        geometry attribute holds something else, and caches nothing.
        Dropped by the writes to its level: :meth:`add_member` and
        :meth:`become_spatial`.
        """
        cache_key = (dimension, level)
        with self._cache_lock:
            cached = self._level_grid.get(cache_key, _UNBUILT)
            if cached is _UNBUILT:
                members = tuple(self.dimension_table(dimension).members(level))
                geometries = tuple(member.geometry for member in members)
                located = [
                    (geometry, position)
                    for position, geometry in enumerate(geometries)
                    if geometry is not None
                ]
                cached = (
                    LevelGeometries(
                        members,
                        geometries,
                        all(type(g) in _PRIMITIVE_TYPES for g in geometries),
                        EnvelopeColumns(located),
                    )
                    if located
                    else None
                )
                self._level_grid[cache_key] = cached
        return cached  # type: ignore[return-value]

    # -- copying --------------------------------------------------------------------

    def copy(self) -> "StarSchema":
        """An independent star holding this star's contents and counters.

        The copy has its own schema (a ``to_dict``/``from_dict`` round
        trip), its own :class:`Member` and :class:`Feature` objects with
        their own attribute and parent dicts (geometries are immutable
        and shared), its own key dictionaries, ``array`` slices of every
        fact column and a copy of the :class:`MutationLog`, each in
        insertion or code order.  It stands at the same generation,
        metadata generation and per-dimension member generations, with
        the same :attr:`oracle` switch, so it answers every read as this
        star does, and mutating either side leaves the other untouched.
        It has no lazy caches, listeners or history, and copying logs
        no mutation.

        Everything is read under ``_cache_lock`` (and each fact table's
        insert lock), so the copy pairs its generation with the contents
        the star held at it, as a
        :class:`~repro.storage.snapshot.StarHistory` checkpoint needs.
        """
        with self._cache_lock:
            schema = type(self.schema).from_dict(self.schema.to_dict())
            copy = StarSchema(schema)
            copy._dimensions = {
                name: table.copy(schema.dimensions[name])
                for name, table in self._dimensions.items()
            }
            copy._facts = {
                name: table.copy(schema.facts[name])
                for name, table in self._facts.items()
            }
            copy._layers = {
                name: table.copy(schema.layers[name])  # type: ignore[attr-defined]
                for name, table in self._layers.items()
            }
            copy._member_generations = dict(self._member_generations)
            copy._metadata_generation = self._metadata_generation
            copy._generation = self._generation
            copy.mutation_log = self.mutation_log.copy()
        copy.oracle = self.oracle
        return copy

    # -- statistics -----------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Row counts per table (used by reports and benchmarks)."""
        out: dict[str, int] = {}
        for name, table in self._dimensions.items():
            for level in table.dimension.levels:
                out[f"dim:{name}.{level}"] = table.size(level)
        for name, fact_table in self._facts.items():
            out[f"fact:{name}"] = len(fact_table)
        for name, layer_table in self._layers.items():
            out[f"layer:{name}"] = len(layer_table)
        return out

    def __repr__(self) -> str:
        facts = {name: len(t) for name, t in self._facts.items()}
        return f"<StarSchema {self.schema.name} facts={facts}>"
