"""JSON snapshots of loaded star schemas, and generation time travel.

The repository side of the warehouse: a loaded (and possibly already
personalized) star — schema, dimension members with roll-up links and
geometries, fact columns, layer features — serializes to one JSON
document and loads back bit-identically.  Geometries travel as WKT inside
a ``{"__wkt__": ...}`` wrapper so plain JSON tooling can still read the
files.

:class:`StarHistory` answers **as-of-generation reads** (the Iceberg
time-travel idiom) without this serialization: it listens to the star's
mutation stream, keeps generation-stamped checkpoints as
:meth:`~repro.storage.star.StarSchema.copy` copies of the star (eagerly
after every mutation that has no replayable delta, periodically
otherwise), and answers :meth:`StarHistory.as_of` by copying the newest
checkpoint at or before the requested generation and replaying the
mutation log's typed deltas forward onto the copy.  Copies and replay
preserve insertion order end to end — member levels, fact row order,
dictionary code assignment — so a query against the reconstructed star
is bit-identical to the answer the live star gave at that generation.
:func:`star_to_dict` and :func:`star_from_dict` serve :func:`save_star`
and :func:`load_star`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.concurrency import make_rlock
from repro.errors import StorageError
from repro.geomd.gtypes_enum import GeometricType
from repro.geomd.schema import GeoMDSchema
from repro.geometry import Geometry, wkt_dumps, wkt_loads
from repro.lru import ThreadSafeLRU
from repro.mdm.model import MDSchema
from repro.storage.star import StarMutation, StarSchema, thaw_mapping

__all__ = [
    "HistoryError",
    "StarHistory",
    "star_to_dict",
    "star_from_dict",
    "save_star",
    "load_star",
]


class HistoryError(StorageError):
    """An as-of read cannot be answered from the retained history."""

_WKT_KEY = "__wkt__"


def _encode_value(value: object) -> object:
    if isinstance(value, Geometry):
        return {_WKT_KEY: wkt_dumps(value)}
    return value


def _decode_value(value: object) -> object:
    if isinstance(value, dict) and set(value) == {_WKT_KEY}:
        return wkt_loads(value[_WKT_KEY])
    return value


def star_to_dict(star: StarSchema) -> dict:
    """Serialize a loaded star schema to a JSON-ready dict."""
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


def star_from_dict(data: dict) -> StarSchema:
    """Rebuild a star schema (and its contents) from a snapshot dict."""
    if data.get("schema_kind") == "geomd":
        schema: MDSchema = GeoMDSchema.from_dict(data["schema"])
    else:
        schema = MDSchema.from_dict(data["schema"])
    star = StarSchema(schema)

    for dim_name, levels in data["dimensions"].items():
        dimension = schema.dimension(dim_name)
        # Parents must exist before children: insert levels coarsest-first
        # (reverse of any hierarchy path order containing them).
        ordered: list[str] = []
        remaining = set(levels)
        while remaining:
            progressed = False
            for level_name in sorted(remaining):
                parents = {
                    coarser
                    for h in dimension.hierarchies.values()
                    for finer, coarser in h.rollup_edges()
                    if finer == level_name
                }
                if parents <= set(ordered):
                    ordered.append(level_name)
                    remaining.discard(level_name)
                    progressed = True
            if not progressed:
                raise StorageError(
                    f"snapshot dimension {dim_name!r} has an unsatisfiable "
                    f"level order"
                )
        for level_name in ordered:
            for member_data in levels[level_name]:
                star.add_member(
                    dim_name,
                    level_name,
                    member_data["key"],
                    {
                        name: _decode_value(value)
                        for name, value in member_data["attributes"].items()
                    },
                    parents=member_data["parents"],
                )

    for fact_name, fact_data in data["facts"].items():
        if "codes" in fact_data:
            # Dictionary-encoded format: decode each dimension's code
            # column through its interned key list.
            dictionaries = fact_data["dictionaries"]
            keys = {}
            for dim, codes in fact_data["codes"].items():
                interned = dictionaries.get(dim, [])
                try:
                    keys[dim] = [interned[code] for code in codes]
                except (IndexError, TypeError):
                    raise StorageError(
                        f"snapshot fact {fact_name!r}: code column for "
                        f"{dim!r} references codes beyond its dictionary "
                        f"({len(interned)} keys)"
                    ) from None
        else:
            keys = fact_data["keys"]  # legacy row-keys format
        measures = fact_data["measures"]
        dims = list(keys)
        measure_names = list(measures)
        counts = {len(column) for column in keys.values()} | {
            len(column) for column in measures.values()
        }
        if len(counts) > 1:
            raise StorageError(
                f"snapshot fact {fact_name!r} has ragged columns: {counts}"
            )
        star.insert_facts(
            fact_name,
            [
                (
                    {dim: keys[dim][row] for dim in dims},
                    {m: measures[m][row] for m in measure_names},
                )
                for row in range(next(iter(counts), 0))
            ],
        )

    for layer_name, features in data["layers"].items():
        table = star.ensure_layer_table(layer_name)
        for feature in features:
            table.add_feature(
                feature["name"],
                wkt_loads(feature["wkt"]),
                feature["attributes"],
            )
    return star


def save_star(star: StarSchema, path: str | Path) -> None:
    """Write a star snapshot as JSON."""
    Path(path).write_text(json.dumps(star_to_dict(star), sort_keys=True))


def load_star(path: str | Path) -> StarSchema:
    """Load a star snapshot written by :func:`save_star`."""
    return star_from_dict(json.loads(Path(path).read_text()))


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

    * a **baseline** checkpoint at attach time;
    * an **eager** checkpoint after every mutation that carries no
      replayable delta (in-place member updates, payload-less
      degradations).  It runs as a mutation listener, so it captures
      the star with the mutation applied: the log cannot reproduce
      such a mutation, so the checkpoint re-anchors answerability;
    * a **periodic** checkpoint every ``checkpoint_interval`` generations
      so replay chains stay bounded under pure-delta churn.

    :meth:`as_of` answers a read at generation ``g`` by copying the
    newest checkpoint at or before ``g`` and replaying the retained
    mutation-log deltas forward onto the copy; the last
    :data:`MAX_RECONSTRUCTIONS` reconstructions are cached.  Retention
    is explicit: a request older than the oldest checkpoint, or whose
    replay range has been evicted from the bounded log, raises
    :class:`HistoryError` (mapped to the API error envelope as
    ``as_of_unavailable``).
    """

    def __init__(self, star: StarSchema, *, checkpoint_interval: int = 4096) -> None:
        if checkpoint_interval < 1:
            raise HistoryError("checkpoint_interval must be >= 1")
        self.star = star
        self.checkpoint_interval = checkpoint_interval
        self._lock = make_rlock("StarHistory._lock")
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
        if not mutation.is_replayable:
            self._take_checkpoint()
            return
        with self._lock:
            newest = max(self._checkpoints, default=-1)
        if mutation.generation - newest >= self.checkpoint_interval:
            self._take_checkpoint()

    def _take_checkpoint(self) -> None:
        """Checkpoint the star's current state, stamped with its generation.

        :meth:`StarSchema.copy` reads the generation and the contents
        under the star's cache lock, so a concurrent ``note_*_change``
        cannot slide the counter under a half-copied star; table writes
        that precede their ``note_*`` call can still leak in, which
        replay tolerates by skipping already-present rows, members and
        features.
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
        if len(mutations) != generation - base or not all(
            m.is_replayable for m in mutations
        ):
            raise HistoryError(
                f"as_of generation {generation}: the mutation range "
                f"({base}, {generation}] is no longer fully retained or "
                f"replayable"
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

        Replay is idempotent per entry (already-present members and
        features are skipped) so a checkpoint that raced a table write
        cannot poison reconstruction.
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
        elif mutation.is_feature_add:
            self._replay_feature(
                star,
                mutation.layer,
                str(payload["name"]),
                payload.get("geometry"),
                thaw_mapping(payload.get("attributes")),
            )
        elif mutation.is_feature_bulk:
            for entry in payload.get("features", ()):
                name, geometry, attributes = entry
                self._replay_feature(
                    star, mutation.layer, str(name), geometry,
                    thaw_mapping(attributes),
                )
        elif mutation.is_schema_patch:
            schema = star.schema
            if not isinstance(schema, GeoMDSchema):
                raise HistoryError(
                    "cannot replay a schema patch onto a non-GeoMD star"
                )
            geometric_type = GeometricType[str(payload["geometric_type"])]
            if mutation.op == "add_layer":
                schema.add_layer(str(payload["layer"]), geometric_type)
                star.ensure_layer_table(str(payload["layer"]))
            else:
                schema.become_spatial(str(payload["level"]), geometric_type)
        else:  # pragma: no cover - as_of() pre-validates replayability
            raise HistoryError(
                f"mutation at generation {mutation.generation} "
                f"({mutation.kind}/{mutation.op}) is not replayable"
            )

    def _replay_feature(
        self,
        star: StarSchema,
        layer: str,
        name: str,
        geometry: object,
        attributes: dict,
    ) -> None:
        if not isinstance(geometry, Geometry):
            raise HistoryError(
                f"feature delta for layer {layer!r} carries no geometry"
            )
        table = star.ensure_layer_table(layer)
        try:
            table.feature(name)
        except StorageError:
            star.add_feature(layer, name, geometry, attributes)

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
