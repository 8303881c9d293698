"""Tests for the tenant-affinity consistent-hash ring."""

import types
from collections import Counter

import pytest

from repro.cluster.pool import ClusterClient
from repro.cluster.sharding import ConsistentHashRing
from repro.workload import WORKLOAD_TENANTS

TENANTS = [f"datamart-{i}" for i in range(64)]


class TestConsistentHashRing:
    def test_lookup_is_deterministic(self):
        first = ConsistentHashRing(range(4))
        second = ConsistentHashRing(range(4))
        assert [first.lookup(t) for t in TENANTS] == [
            second.lookup(t) for t in TENANTS
        ]

    def test_lookup_stays_on_the_ring(self):
        ring = ConsistentHashRing(range(3))
        assert {ring.lookup(t) for t in TENANTS} <= {0, 1, 2}

    def test_every_node_owns_something(self):
        ring = ConsistentHashRing(range(4))
        assert {ring.lookup(t) for t in TENANTS} == {0, 1, 2, 3}

    def test_the_workload_tenants_split_two_and_two(self):
        """The layout the workload harness states and the benchmark's
        two-worker pool relies on: each worker serves two of the four
        tenants (each name's ring point modulo 2 would put all four on
        worker 0)."""
        client = ClusterClient(types.SimpleNamespace(workers=2))
        owners = Counter(client.worker_for_tenant(t) for t in WORKLOAD_TENANTS)
        assert owners == {0: 2, 1: 2}

    def test_resize_remaps_a_bounded_fraction(self):
        """The property the ring exists for: adding a worker must remap
        only the tenants the new worker takes over — every other tenant
        keeps its warm worker."""
        before = ConsistentHashRing(range(4))
        after = ConsistentHashRing(range(5))
        moved = [t for t in TENANTS if before.lookup(t) != after.lookup(t)]
        assert all(after.lookup(t) == 4 for t in moved)
        assert len(moved) < len(TENANTS) / 2

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            ConsistentHashRing().lookup("x")
