"""Spatial indexes: envelope columns, a uniform grid and an STR-packed R-tree.

:class:`EnvelopeColumns` is the index the engine serves from: the star
caches one per spatial level and per layer
(:meth:`~repro.storage.star.StarSchema.level_grid_index`,
:meth:`~repro.storage.star.StarSchema.layer_grid_index`).  GeoMDQL
spatial filters and PRML rules of Example 5.2's shape ("stores at less
than 5 km of my location") both query it through
:func:`candidate_probe`, after :func:`distance_prefilter_sound` has said
the pre-filter is exact for their metric and comparison; only the
candidates then take the exact test.  :class:`GridIndex` and
:class:`STRtree` answer envelope, radius and nearest-neighbour queries
for the ablation benchmark ABL1, which compares them against
:func:`brute_force_within_distance`.
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import Generic, Hashable, Iterable, Iterator, Sequence, TypeVar

from repro.errors import GeometryError
from repro.geometry.algorithms import EPS
from repro.geometry.gtypes import Envelope, Geometry, Point
from repro.geometry.metrics import Metric, PlanarMetric
from repro.vectorized import numpy_backend

__all__ = [
    "EnvelopeColumns",
    "GridIndex",
    "STRtree",
    "brute_force_within_distance",
    "candidate_probe",
    "distance_prefilter_sound",
]

T = TypeVar("T", bound=Hashable)


def distance_prefilter_sound(metric: Metric, comparison: str) -> bool:
    """Whether an envelope probe may pre-filter ``distance <comparison> d``.

    Envelope distances are planar lower bounds of geometry distances, so
    "envelopes farther apart than ``d``" soundly excludes a geometry only
    under a planar metric and for the upper-bound comparisons ``<`` and
    ``<=``.
    """
    return comparison in ("<", "<=") and isinstance(metric, PlanarMetric)


def candidate_probe(env: Envelope, threshold: float = 0.0) -> Envelope:
    """Loosen an envelope for candidate queries.

    The exact predicates are tolerance-based (they pre-check
    ``envelope.expanded(EPS)``) and the exact distance computation
    rounds (a point at ``(-5e-151, 0)`` probed from ``(1, 0)`` computes
    at distance ``1``, a hair under its true distance), so the index
    probe must be *at least* as permissive as the exact tests or the
    indexed path would drop members the scan keeps.  Over-inclusion is
    harmless — the exact tests decide.
    """
    scale = max(
        abs(env.min_x), abs(env.min_y), abs(env.max_x), abs(env.max_y), 1.0
    )
    return env.expanded(threshold + EPS + 1e-9 * (scale + threshold))


def brute_force_within_distance(
    items: Iterable[tuple[Geometry, T]], center: Point, radius: float
) -> list[T]:
    """Reference implementation: linear scan with exact distance test."""
    from repro.geometry import ops

    return [item for geom, item in items if ops.distance(geom, center) <= radius]


class EnvelopeColumns(Generic[T]):
    """Columnar envelope store: four parallel coordinate arrays.

    The struct-of-arrays counterpart of an envelope prefilter: the
    entries' bounding boxes are stored as ``array('d')`` columns
    (``min_x``/``min_y``/``max_x``/``max_y``) and an envelope query is
    one vectorized range test over all four — a tight C-level loop
    (or four numpy comparisons when the ``REPRO_NUMPY=1`` backend is
    on), with none of the grid's cell bookkeeping.  The candidate set
    is exactly :meth:`Envelope.intersects` applied to every entry, so
    it is a drop-in replacement for :meth:`GridIndex.query_envelope`.
    """

    # One tuple of (items, min_x, min_y, max_x, max_y): readers snapshot
    # it with a single attribute load, and extend() rebinds it atomically
    # so a query racing an append sees a consistent (old or new) version.
    __slots__ = ("_columns",)

    def __init__(self, entries: Sequence[tuple[Geometry, T]]) -> None:
        if not entries:
            raise GeometryError("cannot build an index over zero entries")
        self._columns = self._build((), array("d"), array("d"), array("d"), array("d"), entries)

    @staticmethod
    def _build(
        items: Sequence[T],
        min_x: array,
        min_y: array,
        max_x: array,
        max_y: array,
        entries: Sequence[tuple[Geometry, T]],
    ) -> tuple:
        out_items = list(items)
        for geom, item in entries:
            env = geom.envelope
            out_items.append(item)
            min_x.append(env.min_x)
            min_y.append(env.min_y)
            max_x.append(env.max_x)
            max_y.append(env.max_y)
        return (out_items, min_x, min_y, max_x, max_y)

    def __len__(self) -> int:
        return len(self._columns[0])

    def extend(self, entries: Sequence[tuple[Geometry, T]]) -> None:
        """Append entries (the feature-delta patch path).

        Layers are append-only, so a built index absorbs new features
        without a full rebuild.  Copy-on-write: the coordinate columns
        are copied (a memcpy of doubles), extended, and swapped in with
        one atomic attribute rebind — concurrent readers (including the
        numpy path, which exports the arrays' buffers) keep answering
        over the version they snapshotted.  Callers must serialize
        ``extend`` against each other; the star does so under its cache
        lock.
        """
        if not entries:
            return
        items, min_x, min_y, max_x, max_y = self._columns
        self._columns = self._build(
            items,
            array("d", min_x),
            array("d", min_y),
            array("d", max_x),
            array("d", max_y),
            entries,
        )

    def query_envelope(self, env: Envelope) -> list[T]:
        """Items whose envelope intersects ``env`` (candidate set)."""
        qmin_x, qmin_y = env.min_x, env.min_y
        qmax_x, qmax_y = env.max_x, env.max_y
        items, col_min_x, col_min_y, col_max_x, col_max_y = self._columns
        np = numpy_backend()
        if np is not None:
            min_x = np.frombuffer(col_min_x, dtype=np.float64)
            min_y = np.frombuffer(col_min_y, dtype=np.float64)
            max_x = np.frombuffer(col_max_x, dtype=np.float64)
            max_y = np.frombuffer(col_max_y, dtype=np.float64)
            hits = (
                (max_x >= qmin_x)
                & (min_x <= qmax_x)
                & (max_y >= qmin_y)
                & (min_y <= qmax_y)
            )
            return [items[i] for i in np.flatnonzero(hits).tolist()]
        return [
            item
            for item, imin_x, imin_y, imax_x, imax_y in zip(
                items, col_min_x, col_min_y, col_max_x, col_max_y
            )
            if imax_x >= qmin_x
            and imin_x <= qmax_x
            and imax_y >= qmin_y
            and imin_y <= qmax_y
        ]


class GridIndex(Generic[T]):
    """Uniform grid over the indexed extent.

    Cell size defaults to ``extent / sqrt(n)`` so that a uniformly random
    point set averages O(1) entries per cell.  Degrades on heavily skewed
    data — which is exactly what ABL1 demonstrates against the R-tree.
    """

    def __init__(self, entries: Sequence[tuple[Geometry, T]], cell_size: float | None = None):
        if not entries:
            raise GeometryError("cannot build an index over zero entries")
        self._entries = [(geom.envelope, geom, item) for geom, item in entries]
        extent = self._entries[0][0]
        for env, _g, _i in self._entries[1:]:
            extent = extent.union(env)
        self.extent = extent
        if cell_size is None:
            side = max(extent.width, extent.height, 1e-9)
            cell_size = side / max(1.0, math.sqrt(len(self._entries)))
        if cell_size <= 0:
            raise GeometryError("cell_size must be positive")
        self.cell_size = cell_size
        self._cells: dict[tuple[int, int], list[int]] = {}
        for idx, (env, _geom, _item) in enumerate(self._entries):
            for key in self._keys_for(env):
                self._cells.setdefault(key, []).append(idx)

    def __len__(self) -> int:
        return len(self._entries)

    def _key_of(self, x: float, y: float) -> tuple[int, int]:
        return (
            int((x - self.extent.min_x) // self.cell_size),
            int((y - self.extent.min_y) // self.cell_size),
        )

    def _keys_for(self, env: Envelope) -> Iterator[tuple[int, int]]:
        # Clamp to the indexed extent: every entry lies inside it, so cells
        # beyond it are guaranteed empty.  Without the clamp a huge query
        # envelope over a tiny extent would enumerate astronomically many
        # empty cells.
        min_x = max(env.min_x, self.extent.min_x)
        min_y = max(env.min_y, self.extent.min_y)
        max_x = min(env.max_x, self.extent.max_x)
        max_y = min(env.max_y, self.extent.max_y)
        if min_x > max_x or min_y > max_y:
            return
        kx0, ky0 = self._key_of(min_x, min_y)
        kx1, ky1 = self._key_of(max_x, max_y)
        for kx in range(kx0, kx1 + 1):
            for ky in range(ky0, ky1 + 1):
                yield (kx, ky)

    def query_envelope(self, env: Envelope) -> list[T]:
        """Items whose envelope intersects ``env`` (candidate set)."""
        seen: set[int] = set()
        out: list[T] = []
        for key in self._keys_for(env):
            for idx in self._cells.get(key, ()):
                if idx in seen:
                    continue
                seen.add(idx)
                entry_env, _geom, item = self._entries[idx]
                if entry_env.intersects(env):
                    out.append(item)
        return out

    def within_distance(self, center: Point, radius: float) -> list[T]:
        """Items whose geometry lies within ``radius`` of ``center`` (exact)."""
        from repro.geometry import ops

        if radius < 0:
            raise GeometryError("radius must be non-negative")
        probe = candidate_probe(center.envelope, radius)
        seen: set[int] = set()
        out: list[T] = []
        for key in self._keys_for(probe):
            for idx in self._cells.get(key, ()):
                if idx in seen:
                    continue
                seen.add(idx)
                entry_env, geom, item = self._entries[idx]
                if entry_env.distance(probe) > 0:
                    continue
                if ops.distance(geom, center) <= radius:
                    out.append(item)
        return out


class _Node:
    __slots__ = ("envelope", "children", "entries")

    def __init__(
        self,
        envelope: Envelope,
        children: list["_Node"] | None = None,
        entries: list[int] | None = None,
    ) -> None:
        self.envelope = envelope
        self.children = children or []
        self.entries = entries or []

    @property
    def is_leaf(self) -> bool:
        return not self.children


class STRtree(Generic[T]):
    """Sort-Tile-Recursive packed R-tree (static, bulk-loaded).

    The classic Leutenegger et al. packing: sort by x-centre, slice into
    vertical tiles, sort each tile by y-centre, pack runs of ``node_capacity``
    entries, and recurse on the resulting node envelopes.
    """

    def __init__(
        self, entries: Sequence[tuple[Geometry, T]], node_capacity: int = 16
    ) -> None:
        if not entries:
            raise GeometryError("cannot build an index over zero entries")
        if node_capacity < 2:
            raise GeometryError("node_capacity must be at least 2")
        self.node_capacity = node_capacity
        self._geoms = [geom for geom, _item in entries]
        self._items = [item for _geom, item in entries]
        envelopes = [geom.envelope for geom in self._geoms]
        leaves = self._pack_leaves(envelopes)
        self.root = self._build_upwards(leaves)

    def __len__(self) -> int:
        return len(self._items)

    def _pack_leaves(self, envelopes: list[Envelope]) -> list[_Node]:
        order = sorted(range(len(envelopes)), key=lambda i: envelopes[i].center[0])
        leaf_count = math.ceil(len(order) / self.node_capacity)
        slice_count = max(1, math.ceil(math.sqrt(leaf_count)))
        slice_size = math.ceil(len(order) / slice_count)
        leaves: list[_Node] = []
        for s in range(0, len(order), slice_size):
            tile = sorted(
                order[s : s + slice_size], key=lambda i: envelopes[i].center[1]
            )
            for t in range(0, len(tile), self.node_capacity):
                run = tile[t : t + self.node_capacity]
                env = envelopes[run[0]]
                for i in run[1:]:
                    env = env.union(envelopes[i])
                leaves.append(_Node(env, entries=list(run)))
        return leaves

    def _build_upwards(self, nodes: list[_Node]) -> _Node:
        while len(nodes) > 1:
            order = sorted(range(len(nodes)), key=lambda i: nodes[i].envelope.center[0])
            parent_count = math.ceil(len(order) / self.node_capacity)
            slice_count = max(1, math.ceil(math.sqrt(parent_count)))
            slice_size = math.ceil(len(order) / slice_count)
            parents: list[_Node] = []
            for s in range(0, len(order), slice_size):
                tile = sorted(
                    order[s : s + slice_size],
                    key=lambda i: nodes[i].envelope.center[1],
                )
                for t in range(0, len(tile), self.node_capacity):
                    run = [nodes[i] for i in tile[t : t + self.node_capacity]]
                    env = run[0].envelope
                    for child in run[1:]:
                        env = env.union(child.envelope)
                    parents.append(_Node(env, children=run))
            nodes = parents
        return nodes[0]

    def query_envelope(self, env: Envelope) -> list[T]:
        """Items whose envelope intersects ``env``."""
        out: list[T] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.envelope.intersects(env):
                continue
            if node.is_leaf:
                for idx in node.entries:
                    if self._geoms[idx].envelope.intersects(env):
                        out.append(self._items[idx])
            else:
                stack.extend(node.children)
        return out

    def within_distance(self, center: Point, radius: float) -> list[T]:
        """Items whose geometry lies within ``radius`` of ``center`` (exact)."""
        from repro.geometry import ops

        if radius < 0:
            raise GeometryError("radius must be non-negative")
        probe = candidate_probe(center.envelope, radius)
        out: list[T] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.envelope.intersects(probe):
                continue
            if node.is_leaf:
                for idx in node.entries:
                    if ops.distance(self._geoms[idx], center) <= radius:
                        out.append(self._items[idx])
            else:
                stack.extend(node.children)
        return out

    def nearest(self, center: Point, k: int = 1) -> list[tuple[float, T]]:
        """The ``k`` nearest items as ``(distance, item)`` pairs, ascending.

        Classic best-first search over node envelopes with a max-heap of
        current results.
        """
        from repro.geometry import ops

        if k < 1:
            raise GeometryError("k must be at least 1")
        probe = Envelope(center.x, center.y, center.x, center.y)
        candidates: list[tuple[float, int, _Node]] = []
        counter = 0
        heapq.heappush(candidates, (self.root.envelope.distance(probe), counter, self.root))
        results: list[tuple[float, int]] = []  # max-heap via negated distance
        while candidates:
            node_dist, _tie, node = heapq.heappop(candidates)
            if len(results) == k and node_dist > -results[0][0]:
                break
            if node.is_leaf:
                for idx in node.entries:
                    d = ops.distance(self._geoms[idx], center)
                    if len(results) < k:
                        heapq.heappush(results, (-d, idx))
                    elif d < -results[0][0]:
                        heapq.heapreplace(results, (-d, idx))
            else:
                for child in node.children:
                    counter += 1
                    heapq.heappush(
                        candidates,
                        (child.envelope.distance(probe), counter, child),
                    )
        ordered = sorted(((-negd, idx) for negd, idx in results), key=lambda t: t[0])
        return [(d, self._items[idx]) for d, idx in ordered]
