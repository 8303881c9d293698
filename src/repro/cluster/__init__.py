"""The stateless serving tier (ROADMAP item 2).

Externalizes the portal's state — session records and workload-journal
events, which a worker change must carry — behind a
:class:`~repro.cluster.backend.StateBackend`: the persistent
``sqlite3`` one under ``REPRO_BACKEND=sqlite``, or
:class:`~repro.cluster.backend.InMemoryBackend`, the tests' fake.  A
pre-fork :class:`~repro.cluster.pool.WorkerPool` serves it, routing
each tenant to one worker through the
:class:`~repro.cluster.sharding.ConsistentHashRing`.  Each
backend-backed store is its in-heap store plus a shared tier;
:mod:`repro.cluster.config` is where both are built.  Derived results
— query answers and materialized views — are recomputed by each worker
in its own heap and never shared.  The versioned codecs are the wire
format.
"""
from repro.cluster.backend import InMemoryBackend, SqliteBackend, StateBackend
from repro.cluster.codecs import CodecError
from repro.cluster.config import (
    backend_kind,
    env_backend,
    fresh_namespace,
    make_journal,
    make_service_stores,
    make_session_store,
    set_shared_backend,
    shared_backend,
    worker_id,
)
from repro.cluster.sharding import ConsistentHashRing
from repro.cluster.stores import BackendSessionStore, BackendWorkloadJournal

__all__ = [
    "StateBackend",
    "InMemoryBackend",
    "SqliteBackend",
    "CodecError",
    "BackendSessionStore",
    "BackendWorkloadJournal",
    "ConsistentHashRing",
    "backend_kind",
    "shared_backend",
    "set_shared_backend",
    "fresh_namespace",
    "env_backend",
    "make_session_store",
    "make_journal",
    "make_service_stores",
    "worker_id",
]
