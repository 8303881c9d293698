"""The stateless serving tier (ROADMAP item 2).

Externalizes the portal's shared state — session records, the façade
query cache, view-store entries, workload-journal events — behind a
pluggable :class:`~repro.cluster.backend.StateBackend` (in-memory, or
persistent ``sqlite3`` with ``REPRO_BACKEND=sqlite``) and serves it
from a pre-fork :class:`~repro.cluster.pool.WorkerPool` with
tenant→worker affinity.  Each backend-backed store is its in-heap store
plus a shared tier; :mod:`repro.cluster.config` is where every store is
built.  The star generation in each view and query-cache key is the
cross-process invalidation protocol; the versioned codecs are the wire
format.
"""
from repro.cluster.backend import InMemoryBackend, SqliteBackend, StateBackend
from repro.cluster.codecs import CodecError
from repro.cluster.config import (
    backend_kind,
    env_backend,
    fresh_namespace,
    make_journal,
    make_query_cache,
    make_service_stores,
    make_session_store,
    make_view_store,
    set_shared_backend,
    shared_backend,
    state_health,
    worker_id,
)
from repro.cluster.migrate import migrate_backend
from repro.cluster.sharding import ConsistentHashRing
from repro.cluster.stores import (
    BackendQueryCache,
    BackendSessionStore,
    BackendViewStore,
    BackendWorkloadJournal,
)

__all__ = [
    "StateBackend",
    "InMemoryBackend",
    "SqliteBackend",
    "CodecError",
    "BackendSessionStore",
    "BackendQueryCache",
    "BackendViewStore",
    "BackendWorkloadJournal",
    "ConsistentHashRing",
    "migrate_backend",
    "backend_kind",
    "shared_backend",
    "set_shared_backend",
    "fresh_namespace",
    "env_backend",
    "make_session_store",
    "make_query_cache",
    "make_view_store",
    "make_journal",
    "make_service_stores",
    "state_health",
    "worker_id",
]
