"""The stateless serving tier (ROADMAP item 2).

Externalizes the portal's state — session records and workload-journal
events, which a worker change must carry — behind a pluggable
:class:`~repro.cluster.backend.StateBackend` (in-memory, or persistent
``sqlite3`` with ``REPRO_BACKEND=sqlite``) and serves it from a
pre-fork :class:`~repro.cluster.pool.WorkerPool` with tenant→worker
affinity.  Each backend-backed store is its in-heap store plus a shared
tier; :mod:`repro.cluster.config` is where both are built.  Derived
results — query answers and materialized views — are recomputed by
each worker in its own heap and never shared.  The versioned codecs are
the wire format.
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
from repro.cluster.migrate import migrate_backend
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
    "migrate_backend",
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
