"""The spatial index: envelope columns sorted on ``min_x``.

:class:`EnvelopeColumns` is the index the engine serves from: the star
caches one inside each spatial level's record
(:meth:`~repro.storage.star.StarSchema.level_grid_index`).  GeoMDQL
spatial filters and PRML rules of Example 5.2's shape ("stores at less
than 5 km of my location") both probe it once per target through
:func:`candidate_probe`, after :func:`distance_prefilter_sound` has said
the pre-filter is exact for their metric and comparison; only the
candidates then take the exact test.  Its columns are sorted on
``min_x``, so a query bisects to the slab of entries that can reach the
probe and range-tests only those.  The ablation benchmark ABL1
compares that path against :func:`brute_force_within_distance`, the
reference linear scan.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from operator import itemgetter
from typing import Generic, Hashable, Iterable, Sequence, TypeVar

from repro.errors import GeometryError
from repro.geometry.algorithms import EPS
from repro.geometry.gtypes import Envelope, Geometry, Point
from repro.geometry.metrics import Metric, PlanarMetric

__all__ = [
    "EnvelopeColumns",
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
    """Columnar envelope store, sorted on ``min_x`` and bisected.

    The entries' bounding boxes are stored as ``array('d')`` columns
    (``min_x``/``min_y``/``max_x``/``max_y``) in ascending ``min_x``
    order, next to each slot's entry number and the widest envelope's
    width ``w``.  An entry whose envelope meets a query ``q`` has
    ``max_x >= q.min_x``, hence ``min_x >= q.min_x - w``, and
    ``min_x <= q.max_x``: :meth:`query_envelope` bisects the ``min_x``
    column to that slab and range-tests only the slab's entries.  The
    answer is exactly :meth:`Envelope.intersects` applied to every
    entry, in entry order.

    Example 5.2 probes a few kilometres around a login among stores
    spread over a region, so the slab holds a handful of the level's
    members.  That is why the index is not a tree: walking an R-tree's
    node envelopes costs more in Python than it saves at a level's
    size.  Over the medium world's 240 stores, probing 5 km around each
    store (best of 25 passes, one CPU of a 2-vCPU host), an STR-packed
    R-tree's envelope query took about 62 us, a scan of all four
    columns about 31 us and the bisect about 5 us.
    """

    # One tuple of (items, entry numbers, min_x, min_y, max_x, max_y,
    # width), the middle five in x-sorted order, built once and never
    # changed: a query reads it with a single attribute load.
    __slots__ = ("_columns",)

    def __init__(self, entries: Sequence[tuple[Geometry, T]]) -> None:
        if not entries:
            raise GeometryError("cannot build an index over zero entries")
        rows = []
        for number, (geom, _item) in enumerate(entries):
            env = geom.envelope
            rows.append((env.min_x, env.min_y, env.max_x, env.max_y, number))
        rows.sort(key=itemgetter(0))
        min_x, min_y, max_x, max_y, numbers = zip(*rows)
        # Rounded up: every envelope's exact width is at most this.
        width = math.nextafter(
            max(hi - lo for lo, hi in zip(min_x, max_x)), math.inf
        )
        self._columns = (
            [item for _geom, item in entries],
            array("q", numbers),
            array("d", min_x),
            array("d", min_y),
            array("d", max_x),
            array("d", max_y),
            width,
        )

    def __len__(self) -> int:
        return len(self._columns[0])

    def query_envelope(self, env: Envelope) -> list[T]:
        """Items whose envelope intersects ``env`` (candidate set), in
        entry order."""
        qmin_x, qmin_y = env.min_x, env.min_y
        qmax_x, qmax_y = env.max_x, env.max_y
        items, numbers, col_min_x, col_min_y, col_max_x, col_max_y, width = (
            self._columns
        )
        # Rounded down, so the slab keeps every entry reaching qmin_x.
        lo = bisect_left(col_min_x, math.nextafter(qmin_x - width, -math.inf))
        hi = bisect_right(col_min_x, qmax_x)
        hits = [
            number
            for number, imin_y, imax_x, imax_y in zip(
                numbers[lo:hi], col_min_y[lo:hi], col_max_x[lo:hi], col_max_y[lo:hi]
            )
            if imax_x >= qmin_x and imax_y >= qmin_y and imin_y <= qmax_y
        ]
        hits.sort()
        return [items[number] for number in hits]
