"""Generation time travel over a live star, and its equality oracle.

:class:`StarHistory` answers **as-of-generation reads** (the Iceberg
time-travel idiom): it listens to the star's mutation stream, keeps
generation-stamped checkpoints as
:meth:`~repro.storage.star.StarSchema.copy` copies of the star (a
baseline when it attaches, then one every ``checkpoint_interval``
generations), and answers :meth:`StarHistory.as_of` by copying the
newest checkpoint at or before the requested generation and replaying
the mutation log's typed deltas forward onto the copy.  Every star
write (a level's geometry load and a layer's feature load included)
logs its delta, so any range the bounded log still holds replays.
Copies and replay preserve insertion order end to end — member levels,
fact row order, dictionary code assignment — so a query against the
reconstructed star is bit-identical to the answer the live star gave at
that generation.

The star has no persistence path: it is a function of the world, the
registered rules and the ingested rows.  :func:`star_to_dict` renders a
star — schema, members with roll-up links and geometries (as WKT inside
a ``{"__wkt__": ...}`` wrapper), fact columns, layer features — as one
JSON-ready dict, the equality oracle of the copy and history tests.
"""

from __future__ import annotations

from repro.concurrency import make_lock
from repro.errors import StorageError
from repro.geomd.gtypes_enum import GeometricType
from repro.geomd.schema import GeoMDSchema
from repro.geometry import Geometry, wkt_dumps
from repro.lru import ThreadSafeLRU
from repro.storage.star import StarMutation, StarSchema, thaw_mapping

__all__ = [
    "HistoryError",
    "StarHistory",
    "star_to_dict",
]


class HistoryError(StorageError):
    """An as-of read cannot be answered from the retained history."""

_WKT_KEY = "__wkt__"


def _encode_value(value: object) -> object:
    if isinstance(value, Geometry):
        return {_WKT_KEY: wkt_dumps(value)}
    return value


def star_to_dict(star: StarSchema) -> dict:
    """Render a loaded star schema as a JSON-ready dict."""
    schema = star.schema
    data: dict = {
        "schema": schema.to_dict(),
        "schema_kind": "geomd" if isinstance(schema, GeoMDSchema) else "md",
        "dimensions": {},
        "facts": {},
        "layers": {},
    }
    for dim_name, dimension in schema.dimensions.items():
        table = star.dimension_table(dim_name)
        levels: dict[str, list[dict]] = {}
        for level_name in dimension.levels:
            levels[level_name] = [
                {
                    "key": member.key,
                    "attributes": {
                        name: _encode_value(value)
                        for name, value in member.attributes.items()
                    },
                    "parents": dict(member.parents),
                }
                for member in table.members(level_name)
            ]
        data["dimensions"][dim_name] = levels
    for fact_name in schema.facts:
        table = star.fact_table(fact_name)
        n = len(table)
        # Fact columns travel dictionary-encoded, mirroring the in-memory
        # layout: per dimension the interned keys in code order plus the
        # raw code column.  Codes are assigned in first-appearance order
        # on both sides, so a round trip is bit-identical.
        data["facts"][fact_name] = {
            "dictionaries": {
                dim: table.dictionary(dim).keys()
                for dim in table.fact.dimension_names
            },
            "codes": {
                dim: list(table.key_codes(dim))[:n]
                for dim in table.fact.dimension_names
            },
            "measures": {
                m: list(table.measure_column(m)) for m in table.fact.measures
            },
        }
    for layer_name, layer_table in star.layer_tables.items():
        data["layers"][layer_name] = [
            {
                "name": feature.name,
                "wkt": wkt_dumps(feature.geometry),
                "attributes": feature.attributes,
            }
            for feature in layer_table.features()
        ]
    return data


#: Checkpoints a :class:`StarHistory` keeps (the oldest is dropped first).
MAX_CHECKPOINTS = 8

#: Reconstructed past stars a :class:`StarHistory` keeps, least recently
#: read dropped first.
MAX_RECONSTRUCTIONS = 4


class StarHistory:
    """Generation-stamped checkpoints + log replay for as-of reads.

    Attached to a live star (one history per star), this listens to its
    mutation stream and keeps up to :data:`MAX_CHECKPOINTS` checkpoints,
    each a :meth:`StarSchema.copy` of the star at the generation it
    captured:

    * a **baseline** checkpoint at attach time (an engine attaches on
      first use, after registration loaded the tenant);
    * a **periodic** checkpoint every ``checkpoint_interval`` generations
      so replay chains stay bounded.

    :meth:`as_of` answers a read at generation ``g`` by copying the
    newest checkpoint at or before ``g`` and replaying the retained
    mutation-log deltas forward onto the copy; every star write logs
    one, so every retained range replays.  The last
    :data:`MAX_RECONSTRUCTIONS` reconstructions are cached.  Retention
    is explicit: a request in the future, older than the oldest
    checkpoint, or whose replay range has been evicted from the
    bounded log raises :class:`HistoryError` (mapped to the API error
    envelope as ``as_of_unavailable``).
    """

    def __init__(self, star: StarSchema, *, checkpoint_interval: int = 4096) -> None:
        if checkpoint_interval < 1:
            raise HistoryError("checkpoint_interval must be >= 1")
        self.star = star
        self.checkpoint_interval = checkpoint_interval
        self._lock = make_lock("StarHistory._lock")
        # generation -> copy of the star taken at that generation; never
        # mutated (as_of replays onto a copy of it).
        # guarded-by: _lock
        self._checkpoints: dict[int, StarSchema] = {}
        # generation -> reconstructed StarSchema (immutable once built).
        self._stars = ThreadSafeLRU(MAX_RECONSTRUCTIONS)
        self.checkpoints_taken = 0
        self.replays = 0
        self._take_checkpoint()
        star.add_mutation_listener(self._on_mutation)
        star.history = self

    @classmethod
    def attach(cls, star: StarSchema, **kwargs) -> "StarHistory":
        """The star's history, creating and registering one if absent."""
        if star.history is not None:
            return star.history
        return cls(star, **kwargs)

    def detach(self) -> None:
        """Stop listening and unbind from the star."""
        self.star.remove_mutation_listener(self._on_mutation)
        if self.star.history is self:
            self.star.history = None

    # -- checkpointing --------------------------------------------------------

    def _on_mutation(self, mutation: StarMutation) -> None:
        with self._lock:
            newest = max(self._checkpoints, default=-1)
        if mutation.generation - newest >= self.checkpoint_interval:
            self._take_checkpoint()

    def _take_checkpoint(self) -> None:
        """Checkpoint the star's current state, stamped with its generation.

        :meth:`StarSchema.copy` reads the generation and the contents
        under the star's cache lock, so a concurrent write cannot slide
        the counter under a half-copied star; a table write that
        precedes the lock its mutation is logged under can still leak
        in, which replay tolerates by skipping already-present rows,
        members and features.
        """
        checkpoint = self.star.copy()
        with self._lock:
            self._checkpoints[checkpoint.generation] = checkpoint
            self.checkpoints_taken += 1
            while len(self._checkpoints) > MAX_CHECKPOINTS:
                del self._checkpoints[min(self._checkpoints)]

    # -- as-of reads ----------------------------------------------------------

    def as_of(self, generation: int) -> StarSchema:
        """The star as it stood at ``generation`` (bit-identical replay).

        Returns the live star when ``generation`` is current; otherwise a
        reconstructed, effectively read-only star (cached per
        generation) whose :attr:`~StarSchema.oracle` is set to the live
        star's current value on every call, so an as-of query takes the
        same code paths as a live one.  Raises :class:`HistoryError` when
        the generation is in the future or has fallen out of the
        retained history.
        """
        current = self.star.generation
        if generation == current:
            return self.star
        if generation > current:
            raise HistoryError(
                f"as_of generation {generation} is in the future "
                f"(current generation is {current})"
            )
        cached = self._stars.get(generation)
        if cached is not None:
            cached.oracle = self.star.oracle  # type: ignore[attr-defined]
            return cached  # type: ignore[return-value]
        with self._lock:
            base = max(
                (g for g in self._checkpoints if g <= generation), default=None
            )
            if base is None:
                oldest = min(self._checkpoints, default=None)
                raise HistoryError(
                    f"as_of generation {generation} predates the retained "
                    f"history (oldest checkpoint: {oldest})"
                )
            checkpoint = self._checkpoints[base]
        mutations = self.star.mutation_log.between(base, generation)
        if len(mutations) != generation - base:
            raise HistoryError(
                f"as_of generation {generation}: the mutation range "
                f"({base}, {generation}] is no longer fully retained"
            )
        reconstructed = checkpoint.copy()
        reconstructed.oracle = self.star.oracle
        for mutation in mutations:
            self._replay(reconstructed, mutation)
        self.replays += 1
        self._stars.put(generation, reconstructed)
        return reconstructed

    def _replay(self, star: StarSchema, mutation: StarMutation) -> None:
        """Apply one logged delta to a reconstructed star.

        Replay is idempotent per entry (already-present rows, members
        and features are skipped, and a geometry load rewrites the same
        geometries) so a checkpoint that raced a table write cannot
        poison reconstruction.
        """
        payload = mutation.payload_dict()
        if mutation.is_fact_delta:
            live = self.star.fact_table(mutation.fact)
            dims = live.fact.dimension_names
            measure_names = live.fact.measures
            rows = []
            for row_id in mutation.row_ids:
                row = live.row(row_id)
                rows.append(
                    (
                        {dim: row[dim] for dim in dims},
                        {m: row[m] for m in measure_names},
                    )
                )
            table = star.fact_table(mutation.fact)
            fresh = [
                row for offset, row in zip(mutation.row_ids, rows)
                if offset >= len(table)
            ]
            if fresh:
                star.insert_facts(mutation.fact, fresh)
        elif mutation.is_member_add:
            dimension = mutation.dimension
            level = str(payload["level"])
            key = str(payload["key"])
            table = star.dimension_table(dimension)
            try:
                table.member(level, key)
            except StorageError:
                star.add_member(
                    dimension,
                    level,
                    key,
                    thaw_mapping(payload.get("attributes")),
                    parents={
                        str(p): str(k)
                        for p, k in thaw_mapping(payload.get("parents")).items()
                    },
                )
        elif mutation.kind == "member":
            star.become_spatial(
                f"{mutation.dimension}.{payload['level']}",
                GeometricType[str(payload["geometric_type"])],
                thaw_mapping(payload["geometries"]),
            )
        elif mutation.kind == "feature":
            table = star.layer_table(mutation.layer)
            fresh = []
            for name, geometry, attributes in payload["features"]:
                try:
                    table.feature(str(name))
                except StorageError:
                    fresh.append((str(name), geometry, thaw_mapping(attributes)))
            if fresh:
                star.add_features(mutation.layer, fresh)
        else:  # a layer add
            layer = str(payload["layer"])
            star.schema.add_layer(  # type: ignore[attr-defined]
                layer, GeometricType[str(payload["geometric_type"])]
            )
            star.ensure_layer_table(layer)

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        """The health endpoint's per-datamart ``mutations.history`` block:
        the retained window, the bounds, checkpoint and replay counts,
        and ``fact_rows_held``, the fact rows held by the checkpoints
        and the cached reconstructions."""
        reconstructions = self._stars.values()
        with self._lock:
            generations = sorted(self._checkpoints)
            held = [*self._checkpoints.values(), *reconstructions]
        return {
            "checkpoints": len(generations),
            "max_checkpoints": MAX_CHECKPOINTS,
            "oldest_checkpoint": generations[0] if generations else None,
            "newest_checkpoint": generations[-1] if generations else None,
            "checkpoint_interval": self.checkpoint_interval,
            "checkpoints_taken": self.checkpoints_taken,
            "replays": self.replays,
            "reconstructions_cached": len(reconstructions),
            "max_reconstructions": MAX_RECONSTRUCTIONS,
            "fact_rows_held": sum(
                len(star.fact_table(name))
                for star in held
                for name in star.schema.facts
            ),
        }
