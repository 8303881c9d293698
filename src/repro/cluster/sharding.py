"""Tenant-to-worker affinity: a consistent-hash ring over worker ids.

The :class:`~repro.service.registry.DatamartRegistry` is the sharding
seam — a tenant (datamart) is the unit of state locality, because a
tenant's view-store entries and live sessions key on per-tenant
objects.  Routing every request of a tenant to one
worker keeps that worker's L1 caches warm for it; any other routing is
still *correct* (the shared backend answers everywhere — affinity is a
performance property, not a correctness one).

A ring of :data:`REPLICAS` points per worker rather than
``hash(name) % workers``: a pool of one more worker remaps only the
tenants the new worker takes over, and the ring spreads the four
workload tenants 2/2 over two workers, where each name's ring point
modulo 2 would put all four on worker 0.  A pool's size is fixed for
its life, so the ring is built once and never shrinks.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Hashable, Iterable

__all__ = ["ConsistentHashRing", "REPLICAS"]

#: Ring points per worker.
REPLICAS = 64


def _point(data: str) -> int:
    return int.from_bytes(hashlib.sha1(data.encode("utf-8")).digest()[:8], "big")


class ConsistentHashRing:
    """Maps keys (tenant names) to nodes (worker ids) on a hash ring."""

    def __init__(self, nodes: Iterable[Hashable] = ()) -> None:
        self._points: list[int] = []
        self._owners: dict[int, Hashable] = {}
        for node in nodes:
            self.add(node)

    def add(self, node: Hashable) -> None:
        for replica in range(REPLICAS):
            point = _point(f"{node!r}#{replica}")
            if point in self._owners:  # replica collision paranoia
                continue
            bisect.insort(self._points, point)
            self._owners[point] = node

    def lookup(self, key: str) -> Hashable:
        """The node owning ``key`` (first replica point clockwise)."""
        if not self._points:
            raise LookupError("the ring has no nodes")
        index = bisect.bisect(self._points, _point(key)) % len(self._points)
        return self._owners[self._points[index]]
