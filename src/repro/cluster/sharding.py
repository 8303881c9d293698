"""Tenant-to-worker affinity: a consistent-hash ring over worker ids.

The :class:`~repro.service.registry.DatamartRegistry` is the sharding
seam — a tenant (datamart) is the unit of state locality, because a
tenant's view-store entries and live sessions key on per-tenant
objects.  Routing every request of a tenant to one
worker keeps that worker's L1 caches warm for it; any other routing is
still *correct* (the shared backend answers everywhere — affinity is a
performance property, not a correctness one).

A consistent ring rather than ``hash(name) % workers`` so that changing
the worker count remaps only ``~1/N`` of the tenants — the property
that matters when a pool is resized against a warm state backend.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Hashable, Iterable, Sequence

__all__ = ["ConsistentHashRing"]


def _point(data: str) -> int:
    return int.from_bytes(hashlib.sha1(data.encode("utf-8")).digest()[:8], "big")


class ConsistentHashRing:
    """Maps keys (tenant names) to nodes (worker ids) on a hash ring."""

    def __init__(self, nodes: Iterable[Hashable] = (), replicas: int = 64) -> None:
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._points: list[int] = []
        self._owners: dict[int, Hashable] = {}
        for node in nodes:
            self.add(node)

    def add(self, node: Hashable) -> None:
        for replica in range(self.replicas):
            point = _point(f"{node!r}#{replica}")
            if point in self._owners:  # replica collision paranoia
                continue
            bisect.insort(self._points, point)
            self._owners[point] = node

    def remove(self, node: Hashable) -> None:
        stale = [p for p, owner in self._owners.items() if owner == node]
        for point in stale:
            del self._owners[point]
            self._points.remove(point)

    def lookup(self, key: str) -> Hashable:
        """The node owning ``key`` (first replica point clockwise)."""
        if not self._points:
            raise LookupError("the ring has no nodes")
        index = bisect.bisect(self._points, _point(key)) % len(self._points)
        return self._owners[self._points[index]]

    def assignments(self, keys: Sequence[str]) -> dict[Hashable, list[str]]:
        """node -> the keys it owns (for balance introspection)."""
        out: dict[Hashable, list[str]] = {}
        for key in keys:
            out.setdefault(self.lookup(key), []).append(key)
        return out

    def __len__(self) -> int:
        return len(set(self._owners.values()))
