"""Cube queries over a star schema: grouping, filtering, aggregation.

This is the OLAP substrate the paper assumes under its BI tools.  A
:class:`CubeQuery` names a fact, aggregation specs, grouping levels and
filters; :func:`execute` scans the fact table (optionally restricted to a
personalized row selection — the output of ``SelectInstance`` rules) and
produces a :class:`CellSet`.

Two filter families exist:

* :class:`AttributeFilter` — classic value predicates on level attributes;
* :class:`SpatialFilter` — the paper's geographic conditions: a spatial
  level's member geometry against a thematic layer or literal geometry,
  via the PRML operator set (Intersect/Disjoint/Inside/Distance...).
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from repro.errors import QueryError, SchemaError, StorageError
from repro.geomd.schema import GeoMDSchema
from repro.geometry import Geometry, PlanarMetric, Metric
from repro.geometry import contains as g_contains
from repro.geometry import crosses as g_crosses
from repro.geometry import disjoint as g_disjoint
from repro.geometry import equals as g_equals
from repro.geometry import intersects as g_intersects
from repro.geometry import within as g_within
from repro.geometry.index import candidate_probe, distance_prefilter_sound
from repro.mdm.model import Aggregator, MDSchema
from repro.storage.star import StarSchema

__all__ = [
    "LevelRef",
    "AggSpec",
    "ComparisonOp",
    "AttributeFilter",
    "SpatialRelation",
    "SpatialFilter",
    "LayerRef",
    "CubeQuery",
    "CellSet",
    "execute",
    "execute_reference",
]

_T = TypeVar("_T")


def resolve_name(lookup: Callable[[str], _T], name: str) -> _T:
    """``lookup(name)`` on the schema or star; a name neither holds is the
    query's own mistake, so it raises :class:`QueryError`."""
    try:
        return lookup(name)
    except (SchemaError, StorageError) as exc:
        raise QueryError(str(exc)) from None


def resolve_spatial_level(schema: GeoMDSchema, ref: "LevelRef") -> str:
    """``ref``'s level, which ``schema`` must make spatial."""
    level = ref.resolve_level(schema)
    level_ref = f"{ref.dimension}.{level}"
    if level_ref not in schema.spatial_levels:
        raise QueryError(
            f"level {level_ref} is not spatial; apply BecomeSpatial first "
            f"(spatial levels: {sorted(schema.spatial_levels)})"
        )
    return level


@dataclass(frozen=True)
class LevelRef:
    """Reference to a dimension level, e.g. ``Store.City``."""

    dimension: str
    level: str | None = None

    @classmethod
    def parse(cls, text: str) -> "LevelRef":
        parts = text.split(".")
        if len(parts) == 1:
            return cls(parts[0])
        if len(parts) == 2:
            return cls(parts[0], parts[1])
        raise QueryError(f"bad level reference {text!r}; expected 'Dim[.Level]'")

    def resolve_level(self, schema: MDSchema) -> str:
        dimension = resolve_name(schema.dimension, self.dimension)
        if self.level is None:
            return dimension.leaf
        resolve_name(dimension.level, self.level)  # existence check
        return self.level

    def __str__(self) -> str:
        return self.dimension if self.level is None else f"{self.dimension}.{self.level}"


@dataclass(frozen=True)
class AggSpec:
    """One aggregation column: ``SUM(UnitSales)``, ``COUNT(*)``..."""

    aggregator: Aggregator
    measure: str = "*"

    @property
    def label(self) -> str:
        return f"{self.aggregator.value}({self.measure})"


class ComparisonOp(enum.Enum):
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    IN = "IN"

    def apply(self, left: object, right: object) -> bool:
        if self is ComparisonOp.EQ:
            return left == right
        if self is ComparisonOp.NE:
            return left != right
        if self is ComparisonOp.IN:
            if not isinstance(right, (list, tuple, set, frozenset)):
                raise QueryError("IN requires a collection right-hand side")
            return left in right
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            # Fall back to string ordering for non-numeric operands.
            left, right = str(left), str(right)
        if self is ComparisonOp.LT:
            return left < right  # type: ignore[operator]
        if self is ComparisonOp.LE:
            return left <= right  # type: ignore[operator]
        if self is ComparisonOp.GT:
            return left > right  # type: ignore[operator]
        return left >= right  # type: ignore[operator]


@dataclass(frozen=True)
class AttributeFilter:
    """Keep facts whose member at ``ref`` satisfies ``attribute op value``."""

    ref: LevelRef
    attribute: str
    op: ComparisonOp
    value: object


class SpatialRelation(enum.Enum):
    """The paper's boolean spatial operators plus distance comparison."""

    INTERSECT = "Intersect"
    DISJOINT = "Disjoint"
    CROSS = "Cross"
    INSIDE = "Inside"
    EQUALS = "Equals"
    CONTAINS = "Contains"
    DISTANCE = "Distance"


@dataclass(frozen=True)
class LayerRef:
    """Reference to a thematic layer by name."""

    name: str


@dataclass(frozen=True)
class SpatialFilter:
    """Keep facts whose member geometry relates to a layer/geometry.

    For non-distance relations: the member geometry must satisfy the
    relation against **at least one** feature of the target layer (or the
    literal geometry).  For ``DISTANCE``: the *minimum* distance from the
    member geometry to the target is compared via ``op threshold`` (metres).
    """

    ref: LevelRef
    relation: SpatialRelation
    target: LayerRef | Geometry
    op: ComparisonOp | None = None
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.relation is SpatialRelation.DISTANCE:
            if self.op is None or self.threshold is None:
                raise QueryError(
                    "DISTANCE spatial filters require op and threshold"
                )
            if self.threshold < 0:
                raise QueryError(
                    f"DISTANCE threshold must be non-negative, got "
                    f"{self.threshold}"
                )
        elif self.op is not None or self.threshold is not None:
            raise QueryError(
                f"{self.relation.value} spatial filters take no op/threshold"
            )


@dataclass
class CubeQuery:
    """A complete OLAP query."""

    fact: str
    aggregations: Sequence[AggSpec]
    group_by: Sequence[LevelRef] = field(default_factory=tuple)
    where: Sequence[AttributeFilter | SpatialFilter] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.aggregations:
            raise QueryError("a cube query needs at least one aggregation")


class CellSet:
    """Query result: axes (grouping refs) and measure cells."""

    def __init__(
        self,
        axes: Sequence[LevelRef],
        labels: Sequence[str],
        cells: Mapping[tuple[str, ...], tuple[float, ...]],
        fact_rows_scanned: int,
        fact_rows_matched: int,
    ) -> None:
        self.axes = tuple(axes)
        self.labels = tuple(labels)
        self.cells = dict(cells)
        self.fact_rows_scanned = fact_rows_scanned
        self.fact_rows_matched = fact_rows_matched

    def __len__(self) -> int:
        return len(self.cells)

    def value(self, coordinate: tuple[str, ...] | str, label: str | None = None) -> float:
        """Value of one cell; ``label`` defaults to the only aggregation."""
        if isinstance(coordinate, str):
            coordinate = (coordinate,)
        if label is None:
            if len(self.labels) != 1:
                raise QueryError(
                    f"cell set has {len(self.labels)} measures; name one of "
                    f"{list(self.labels)}"
                )
            label = self.labels[0]
        try:
            values = self.cells[coordinate]
        except KeyError:
            raise QueryError(
                f"no cell at {coordinate!r}; coordinates: "
                f"{sorted(self.cells)[:10]}..."
            ) from None
        return values[self.labels.index(label)]

    def to_rows(self) -> list[tuple]:
        """Sorted ``(coordinate..., value...)`` tuples."""
        return [
            coord + self.cells[coord] for coord in sorted(self.cells)
        ]

    def format_table(self) -> str:
        """Fixed-width text table (benchmark harness output)."""
        headers = [str(a) for a in self.axes] + list(self.labels)
        rows = [
            [str(part) for part in coord]
            + [f"{v:.2f}" if isinstance(v, float) else str(v) for v in values]
            for coord, values in sorted(self.cells.items())
        ]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            " | ".join(h.ljust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        lines.extend(
            " | ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows
        )
        return "\n".join(lines)


class _Accumulator:
    """Streaming accumulator for one aggregation spec."""

    __slots__ = ("spec", "count", "total", "min", "max", "distinct")

    def __init__(self, spec: AggSpec) -> None:
        self.spec = spec
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.distinct: set[float] | None = (
            set() if spec.aggregator is Aggregator.COUNT_DISTINCT else None
        )

    def add(self, value: float | None) -> None:
        self.count += 1
        if value is None:
            return
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if self.distinct is not None:
            self.distinct.add(value)

    def result(self) -> float:
        agg = self.spec.aggregator
        if agg is Aggregator.COUNT:
            return float(self.count)
        if agg is Aggregator.COUNT_DISTINCT:
            assert self.distinct is not None
            return float(len(self.distinct))
        if agg is Aggregator.SUM:
            return self.total
        if agg is Aggregator.AVG:
            return self.total / self.count if self.count else 0.0
        if agg is Aggregator.MIN:
            return self.min if self.min is not None else 0.0
        return self.max if self.max is not None else 0.0


def _relation_predicate(relation: SpatialRelation):
    return {
        SpatialRelation.INTERSECT: g_intersects,
        SpatialRelation.DISJOINT: g_disjoint,
        SpatialRelation.CROSS: g_crosses,
        SpatialRelation.INSIDE: g_within,
        SpatialRelation.EQUALS: g_equals,
        SpatialRelation.CONTAINS: g_contains,
    }[relation]


def _allowed_keys_for_attribute_filter(
    star: StarSchema, flt: AttributeFilter
) -> set[str]:
    schema = star.schema
    level = flt.ref.resolve_level(schema)
    table = star.dimension_table(flt.ref.dimension)
    matching = {
        member.key
        for member in table.members(level)
        if flt.op.apply(member.attributes.get(flt.attribute), flt.value)
    }
    if level == table.dimension.leaf:
        return matching
    return star.leaf_keys_rolled_to(flt.ref.dimension, level, matching)


def _target_geometries(star: StarSchema, target: LayerRef | Geometry) -> list[Geometry]:
    if isinstance(target, LayerRef):
        table = resolve_name(star.layer_table, target.name)
        return [f.geometry for f in table.features()]
    return [target]


def _spatial_matching_with_index(
    star: StarSchema,
    flt: SpatialFilter,
    metric: Metric,
    dimension: str,
    level: str,
    targets: list[Geometry],
) -> set[str]:
    """Member keys matching ``flt``, pre-filtered through the envelope
    columns of the level's cached record (:meth:`StarSchema.level_grid_index`).

    Each target's envelope (a layer feature or a literal geometry)
    probes the level's columns once, and only the candidate members get
    the exact test: the path Example 5.2's rule takes at every login.
    """
    record = star.level_grid_index(dimension, level)
    if record is None:
        return set()  # no member of the level carries a geometry yet
    index, members, geometries = record.index, record.members, record.geometries
    matching: set[str] = set()
    if flt.relation is SpatialRelation.DISTANCE:
        assert flt.op is not None and flt.threshold is not None
        for target in targets:
            probe = candidate_probe(target.envelope, flt.threshold)
            for position in index.query_envelope(probe):
                key = members[position].key
                if key in matching:
                    continue
                if flt.op.apply(
                    metric.distance(geometries[position], target), flt.threshold
                ):
                    matching.add(key)
        return matching
    predicate = _relation_predicate(flt.relation)
    if flt.relation is SpatialRelation.DISJOINT:
        # A member whose (loosened) envelope intersects no target
        # envelope is geometrically disjoint from every target; only
        # envelope-level candidates need the exact all-targets test.
        candidates: set[int] = set()
        for target in targets:
            candidates.update(index.query_envelope(candidate_probe(target.envelope)))
        matching = {
            member.key
            for member, geometry in zip(members, geometries)
            if geometry is not None
        }
        for position in candidates:
            if not all(predicate(geometries[position], t) for t in targets):
                matching.discard(members[position].key)
        return matching
    for target in targets:
        for position in index.query_envelope(candidate_probe(target.envelope)):
            key = members[position].key
            if key in matching:
                continue
            if predicate(geometries[position], target):
                matching.add(key)
    return matching


def _allowed_keys_for_spatial_filter(
    star: StarSchema, flt: SpatialFilter, metric: Metric
) -> set[str]:
    schema = star.schema
    if not isinstance(schema, GeoMDSchema):
        raise QueryError(
            "spatial filters require a GeoMD schema (run schema "
            "personalization first)"
        )
    level = resolve_spatial_level(schema, flt.ref)
    targets = _target_geometries(star, flt.target)
    table = star.dimension_table(flt.ref.dimension)
    # Boolean relations imply (or are implied by) envelope intersection,
    # so the envelope pre-filter is sound for every one of them.
    if (
        not star.oracle
        and targets
        and (
            flt.relation is not SpatialRelation.DISTANCE
            or distance_prefilter_sound(metric, flt.op.value)
        )
    ):
        matching = _spatial_matching_with_index(
            star, flt, metric, flt.ref.dimension, level, targets
        )
    else:
        matching = set()
        for member in table.members(level):
            geometry = member.geometry
            if geometry is None:
                continue
            if flt.relation is SpatialRelation.DISTANCE:
                if not targets:
                    continue
                assert flt.op is not None and flt.threshold is not None
                min_d = min(metric.distance(geometry, t) for t in targets)
                if flt.op.apply(min_d, flt.threshold):
                    matching.add(member.key)
            else:
                predicate = _relation_predicate(flt.relation)
                if flt.relation is SpatialRelation.DISJOINT:
                    # Disjoint from the whole target set, not from any one part.
                    if all(predicate(geometry, t) for t in targets):
                        matching.add(member.key)
                elif any(predicate(geometry, t) for t in targets):
                    matching.add(member.key)
    if level == table.dimension.leaf:
        return matching
    return star.leaf_keys_rolled_to(flt.ref.dimension, level, matching)


def _prepare(star: StarSchema, query: CubeQuery, metric: Metric | None):
    """Shared validation + phase 1 (filters → allowed leaf keys).

    Returns ``(fact, fact_table, group_levels, allowed)``; both executors
    run phase 2 over this, so filter semantics can never drift between
    the vectorized path and the row-loop reference.
    """
    metric = metric or PlanarMetric()
    schema = star.schema
    fact = resolve_name(schema.fact, query.fact)
    fact_table = resolve_name(star.fact_table, query.fact)

    for spec in query.aggregations:
        if spec.measure != "*":
            resolve_name(fact.measure, spec.measure)  # existence check
        elif spec.aggregator not in (Aggregator.COUNT,):
            raise QueryError(
                f"{spec.aggregator.value}(*) is not meaningful; only COUNT(*)"
            )

    group_levels: list[tuple[str, str]] = []
    for ref in query.group_by:
        if ref.dimension not in fact.dimension_names:
            raise QueryError(
                f"fact {fact.name!r} has no dimension {ref.dimension!r}"
            )
        group_levels.append((ref.dimension, ref.resolve_level(schema)))

    # Phase 1: filters -> allowed leaf-key sets per dimension (semi-joins).
    allowed: dict[str, set[str]] = {}
    for flt in query.where:
        if isinstance(flt, AttributeFilter):
            keys = _allowed_keys_for_attribute_filter(star, flt)
        else:
            keys = _allowed_keys_for_spatial_filter(star, flt, metric)
        dim = flt.ref.dimension
        if dim not in fact.dimension_names:
            raise QueryError(f"fact {fact.name!r} has no dimension {dim!r}")
        allowed[dim] = allowed[dim] & keys if dim in allowed else keys

    return fact, fact_table, group_levels, allowed


def _execute_rowloop(star, query, selection, fact, fact_table, group_levels, allowed) -> CellSet:
    """Phase 2, row-at-a-time: the original reference semantics."""
    key_columns = {dim: fact_table.key_column(dim) for dim, _ in group_levels}
    filter_columns = {dim: fact_table.key_column(dim) for dim in allowed}
    measure_columns = {
        spec.measure: fact_table.measure_column(spec.measure)
        for spec in query.aggregations
        if spec.measure != "*"
    }
    groups: dict[tuple[str, ...], list[_Accumulator]] = {}
    row_iter = selection if selection is not None else fact_table.row_ids()
    scanned = 0
    matched = 0
    for row_id in row_iter:
        scanned += 1
        skip = False
        for dim, keys in allowed.items():
            if filter_columns[dim][row_id] not in keys:
                skip = True
                break
        if skip:
            continue
        matched += 1
        coordinate = tuple(
            star.rollup_member(dim, key_columns[dim][row_id], level).key
            for dim, level in group_levels
        )
        accumulators = groups.get(coordinate)
        if accumulators is None:
            accumulators = [_Accumulator(spec) for spec in query.aggregations]
            groups[coordinate] = accumulators
        for accumulator in accumulators:
            measure = accumulator.spec.measure
            value = measure_columns[measure][row_id] if measure != "*" else None
            accumulator.add(value)

    cells = {
        coordinate: tuple(acc.result() for acc in accumulators)
        for coordinate, accumulators in groups.items()
    }
    return CellSet(
        axes=tuple(query.group_by),
        labels=tuple(spec.label for spec in query.aggregations),
        cells=cells,
        fact_rows_scanned=scanned,
        fact_rows_matched=matched,
    )


def _execute_vectorized(star, query, selection, fact, fact_table, group_levels, allowed) -> CellSet:
    """Phase 2, batch-wise over the encoded columns.

    Filters become byte masks over code columns (big-int AND across
    dimensions), the group-by becomes leaf-code → ancestor-ordinal
    translation (:meth:`StarSchema.rollup_translation`) combined into a
    single integer group id per row, and aggregation accumulates per
    group id in measure-column order — the same row order as the
    reference loop, so float results are bit-identical.
    """
    n = len(fact_table)
    rows: Sequence[int]
    if selection is not None:
        # Preserve the selection's order and duplicates: the reference
        # executor scans it as-is, and float accumulation order matters.
        sel_rows = list(selection)
        scanned = len(sel_rows)
        if allowed:
            lookups = [
                (
                    fact_table.key_codes(dim),
                    fact_table.dictionary(dim).lookup_mask(keys),
                )
                for dim, keys in allowed.items()
            ]
            rows = [
                row_id
                for row_id in sel_rows
                if all(mask[column[row_id]] for column, mask in lookups)
            ]
        else:
            rows = sel_rows
    else:
        scanned = n
        if allowed:
            rows = fact_table.rows_matching(allowed)
            while rows and rows[-1] >= n:  # rows appended since len() above
                rows.pop()
        else:
            rows = range(n)
    matched = len(rows)

    # Group ids: translate each group dimension's leaf codes to ancestor
    # ordinals, then mix into one int per row (radix = per-level key count).
    translations = [
        star.rollup_translation(fact.name, dim, level)
        for dim, level in group_levels
    ]
    key_lists = [list(t.keys) for t in translations]
    sizes = [len(keys) for keys in key_lists]
    gids: list[int] | None = None
    if group_levels and matched:
        for (dim, _level), translation, size in zip(
            group_levels, translations, sizes
        ):
            column = fact_table.key_codes(dim)
            if isinstance(rows, range):
                leaf_codes = islice(column, n)
            else:
                leaf_codes = map(column.__getitem__, rows)
            ordinals = map(translation.codes.__getitem__, leaf_codes)
            if gids is None:
                gids = list(ordinals)
            else:
                gids = [g * size + o for g, o in zip(gids, ordinals)]
    if gids is None:
        gids = [0] * matched

    counts = Counter(gids)

    # Measure columns restricted to the matched rows, in row order.
    value_lists: dict[str, list[float]] = {}
    for spec in query.aggregations:
        measure = spec.measure
        if measure == "*" or measure in value_lists:
            continue
        column = fact_table.measure_values(measure)
        if isinstance(rows, range):
            value_lists[measure] = list(islice(column, n))
        else:
            value_lists[measure] = list(map(column.__getitem__, rows))

    spec_results: list[dict[int, float]] = []
    for spec in query.aggregations:
        agg = spec.aggregator
        if agg is Aggregator.COUNT:
            spec_results.append({g: float(c) for g, c in counts.items()})
            continue
        values = value_lists[spec.measure]
        if agg in (Aggregator.SUM, Aggregator.AVG):
            sums: dict[int, float] = {}
            for g, v in zip(gids, values):
                acc = sums.get(g)
                # "v + 0.0" mirrors the reference's "total = 0.0; total
                # += v" first step (normalizes -0.0 identically).
                sums[g] = v + 0.0 if acc is None else acc + v
            if agg is Aggregator.SUM:
                spec_results.append(sums)
            else:
                spec_results.append(
                    {g: total / counts[g] for g, total in sums.items()}
                )
        elif agg is Aggregator.MIN:
            mins: dict[int, float] = {}
            for g, v in zip(gids, values):
                cur = mins.get(g)
                if cur is None or v < cur:
                    mins[g] = v
            spec_results.append(mins)
        elif agg is Aggregator.MAX:
            maxs: dict[int, float] = {}
            for g, v in zip(gids, values):
                cur = maxs.get(g)
                if cur is None or v > cur:
                    maxs[g] = v
            spec_results.append(maxs)
        else:  # COUNT_DISTINCT
            distinct: dict[int, set[float]] = {}
            for g, v in zip(gids, values):
                seen = distinct.get(g)
                if seen is None:
                    distinct[g] = {v}
                else:
                    seen.add(v)
            spec_results.append(
                {g: float(len(seen)) for g, seen in distinct.items()}
            )

    cells: dict[tuple[str, ...], tuple[float, ...]] = {}
    for gid in counts:
        parts = []
        g = gid
        for size, keys in zip(reversed(sizes), reversed(key_lists)):
            g, ordinal = divmod(g, size)
            parts.append(keys[ordinal])
        coordinate = tuple(reversed(parts))
        cells[coordinate] = tuple(results[gid] for results in spec_results)
    return CellSet(
        axes=tuple(query.group_by),
        labels=tuple(spec.label for spec in query.aggregations),
        cells=cells,
        fact_rows_scanned=scanned,
        fact_rows_matched=matched,
    )


def _resolve_as_of(
    star: StarSchema,
    query: CubeQuery,
    selection: Iterable[int] | None,
    as_of: int,
) -> tuple[StarSchema, Iterable[int] | None]:
    """Swap in the historical star (and clamp the selection) for ``as_of``.

    The query must run against the *reconstructed* star — spatial
    filters read layer tables and member geometries live, so merely
    restricting row ids over the current star would leak future
    metadata.  The selection row ids are clamped to the historical fact
    prefix: fact tables are append-only, so the prefix that existed at
    generation ``g`` is exactly ``row_id < len(historical table)``.
    """
    from repro.storage.snapshot import HistoryError

    history = star.history
    if history is None:
        raise HistoryError(
            "star keeps no history; attach a StarHistory (engines do so "
            "by default) to serve as_of reads"
        )
    historical = history.as_of(as_of)
    if historical is star:
        return star, selection
    if selection is not None:
        limit = len(historical.fact_table(query.fact))
        selection = [row_id for row_id in selection if row_id < limit]
    return historical, selection


def execute(
    star: StarSchema,
    query: CubeQuery,
    selection: Iterable[int] | None = None,
    metric: Metric | None = None,
    as_of: int | None = None,
) -> CellSet:
    """Run a cube query.

    ``selection`` optionally restricts the scan to specific fact row ids —
    this is how personalized instance views (``SelectInstance``) plug into
    ordinary, *non-spatial* downstream queries, the scenario of
    Section 4.2.4 of the paper.

    ``as_of`` answers against a past star generation: the star's
    attached :class:`~repro.storage.snapshot.StarHistory` reconstructs
    the generation from checkpoint + mutation-log replay and the query
    runs against that star (with ``selection`` clamped to the historical
    fact prefix) — bit-identical to the answer the live star gave then.

    Dispatches to the columnar batch executor unless the star's
    :attr:`~repro.storage.star.StarSchema.oracle` switch is set, in which
    case the row-loop reference path runs (see
    :func:`execute_reference`); the two produce bit-identical cell sets.
    """
    if star.oracle:
        return execute_reference(star, query, selection, metric, as_of)
    if as_of is not None:
        star, selection = _resolve_as_of(star, query, selection, as_of)
    prep = _prepare(star, query, metric)
    return _execute_vectorized(star, query, selection, *prep)


def execute_reference(
    star: StarSchema,
    query: CubeQuery,
    selection: Iterable[int] | None = None,
    metric: Metric | None = None,
    as_of: int | None = None,
) -> CellSet:
    """Run a cube query on the row-loop reference executor, always.

    The baseline of the identical-response benchmark gate and of the
    equivalence property tests: one :meth:`StarSchema.rollup_member`
    call per row, streaming :class:`_Accumulator` per group.
    """
    if as_of is not None:
        star, selection = _resolve_as_of(star, query, selection, as_of)
    prep = _prepare(star, query, metric)
    return _execute_rowloop(star, query, selection, *prep)
