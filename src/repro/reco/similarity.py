"""Pairwise user similarity over journaled spatial workloads.

Implements the hierarchy+geometry decomposition of Aissa & Gouider's
spatial-personalization similarity measure: two analysts are similar when
(a) their selections roll up into the same dimension members — shared
ancestors count, so two users working on different stores of the same
city still overlap at the ``City`` level — and (b) the regions they
analyse are geometrically close (envelope overlap, centroid distance).

The hierarchy component rides the storage layer's inverted roll-up index
(:meth:`~repro.storage.star.StarSchema.rollup_index`): a user's leaf
selection is lifted to every coarser level by one dict pass per level,
no per-member tree walks.  The geometry component goes through
:mod:`repro.geometry` (envelopes, centroids) and never touches exact
predicates — profiles are footprints, not topology.

All similarities are symmetric and land in ``[0, 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import SchemaError, StorageError
from repro.geometry import Envelope, Point, centroid
from repro.storage.star import StarSchema

__all__ = [
    "SpatialProfile",
    "build_spatial_profile",
    "hierarchy_similarity",
    "geometry_similarity",
    "user_similarity",
]


@dataclass(frozen=True)
class SpatialProfile:
    """One user's spatial footprint, ready for pairwise comparison.

    ``level_keys`` holds the selected member keys per ``(dimension,
    level)`` *including* the rolled-up ancestors of every selected leaf;
    ``level_weights`` discounts coarser levels (two users sharing a State
    are less similar than two sharing a Store).  ``envelope`` and
    ``centroid`` summarize the geometry of the selected members.
    """

    level_keys: Mapping[tuple[str, str], frozenset[str]]
    level_weights: Mapping[tuple[str, str], float]
    envelope: Envelope | None
    centroid: Point | None

    @property
    def is_empty(self) -> bool:
        return not self.level_keys and self.envelope is None


def build_spatial_profile(
    star: StarSchema,
    members: Mapping[tuple[str, str], Iterable[str]],
) -> SpatialProfile:
    """Lift a journaled member selection into a :class:`SpatialProfile`.

    ``members`` is ``(dimension, level) -> keys`` as recorded by the
    journal.  Selections at non-leaf levels are first expanded to their
    leaves (through the roll-up index), then every leaf set is lifted
    back up to each reachable coarser level — so the profile captures the
    full vertical footprint of the workload.
    """
    leaf_keys: dict[str, set[str]] = {}
    for (dimension, level), keys in members.items():
        try:
            table = star.dimension_table(dimension)
        except StorageError:  # lint-ok: swallowed-error - documented stale-key degradation
            continue  # journaled against a schema that no longer has it
        keys = set(keys)
        if level == table.dimension.leaf:
            expanded = keys
        else:
            try:
                expanded = star.leaf_keys_rolled_to(dimension, level, keys)
            except (StorageError, SchemaError):  # lint-ok: swallowed-error - documented stale-key degradation
                continue
        leaf_keys.setdefault(dimension, set()).update(expanded)

    level_keys: dict[tuple[str, str], frozenset[str]] = {}
    level_weights: dict[tuple[str, str], float] = {}
    centroids: list[Point] = []
    coords: list[tuple[float, float]] = []
    for dimension, leaves in leaf_keys.items():
        table = star.dimension_table(dimension)
        dim = table.dimension
        # The journal outlives sessions (and star reloads): journaled keys
        # may no longer exist, and one stale entry must not poison every
        # profile of the tenant.
        leaves &= {member.key for member in table.leaf_members()}
        if not leaves:
            continue
        level_keys[(dimension, dim.leaf)] = frozenset(leaves)
        level_weights[(dimension, dim.leaf)] = 1.0
        for level in dim.levels:
            if level == dim.leaf:
                continue
            try:
                depth = len(dim.rollup_path(level)) - 1
                if not star.oracle:
                    index = star.rollup_index(dimension, level)
                    ancestors = frozenset(
                        ancestor
                        for ancestor, leaf_set in index.items()
                        if leaf_set & leaves
                    )
                else:
                    # The scan path the inverted index replaces, one
                    # roll-up walk per leaf.
                    ancestors = frozenset(
                        star.rollup_member(dimension, key, level).key
                        for key in leaves
                    )
            except (SchemaError, StorageError):  # lint-ok: swallowed-error - documented stale-key degradation
                continue  # level not on a hierarchy / roll-up link missing
            if ancestors:
                level_keys[(dimension, level)] = ancestors
                level_weights[(dimension, level)] = 0.5**depth
        for key in leaves:
            geometry = table.member(dim.leaf, key).geometry
            if geometry is None or geometry.is_empty:
                continue
            centroids.append(centroid(geometry))
            coords.extend(geometry.coords())

    mean_centroid = None
    if centroids:
        mean_centroid = Point(
            sum(p.x for p in centroids) / len(centroids),
            sum(p.y for p in centroids) / len(centroids),
        )
    return SpatialProfile(
        level_keys=level_keys,
        level_weights=level_weights,
        envelope=Envelope.of_coords(coords) if coords else None,
        centroid=mean_centroid,
    )


def _jaccard(a: frozenset[str], b: frozenset[str]) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def hierarchy_similarity(a: SpatialProfile, b: SpatialProfile) -> float:
    """Depth-weighted Jaccard over the shared dimension levels."""
    levels = set(a.level_keys) | set(b.level_keys)
    if not levels:
        return 0.0
    total = 0.0
    weight_sum = 0.0
    for level in levels:
        weight = max(
            a.level_weights.get(level, 0.0), b.level_weights.get(level, 0.0)
        )
        total += weight * _jaccard(
            a.level_keys.get(level, frozenset()),
            b.level_keys.get(level, frozenset()),
        )
        weight_sum += weight
    return total / weight_sum if weight_sum else 0.0


def geometry_similarity(a: SpatialProfile, b: SpatialProfile) -> float:
    """Envelope-overlap + centroid-proximity similarity of two footprints.

    The overlap term is the area ratio of the envelope intersection to
    the envelope union (0 for disjoint or degenerate envelopes); the
    proximity term decays with centroid distance on the scale of the
    union envelope's diagonal, so "close" means close relative to the
    region the two users jointly analyse.
    """
    if a.envelope is None or b.envelope is None:
        return 0.0
    union = a.envelope.union(b.envelope)
    overlap = 0.0
    if union.area > 0 and a.envelope.intersects(b.envelope):
        inter_w = min(a.envelope.max_x, b.envelope.max_x) - max(
            a.envelope.min_x, b.envelope.min_x
        )
        inter_h = min(a.envelope.max_y, b.envelope.max_y) - max(
            a.envelope.min_y, b.envelope.min_y
        )
        overlap = (inter_w * inter_h) / union.area
    if a.centroid is None or b.centroid is None:
        return 0.5 * overlap
    distance = a.centroid.distance_to(b.centroid)
    diagonal = (union.width**2 + union.height**2) ** 0.5
    if diagonal == 0.0:
        proximity = 1.0  # both footprints collapse to the same point
    else:
        proximity = 1.0 / (1.0 + 4.0 * distance / diagonal)
    return 0.5 * overlap + 0.5 * proximity


def user_similarity(
    a: SpatialProfile, b: SpatialProfile, hierarchy_weight: float = 0.5
) -> float:
    """Combined similarity: ``w·hierarchy + (1-w)·geometry``."""
    if not 0.0 <= hierarchy_weight <= 1.0:
        raise ValueError("hierarchy_weight must be within [0, 1]")
    if a.is_empty or b.is_empty:
        return 0.0
    return hierarchy_weight * hierarchy_similarity(a, b) + (
        1.0 - hierarchy_weight
    ) * geometry_similarity(a, b)
