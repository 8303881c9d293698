"""Backend selection for the serving tier (``REPRO_BACKEND``).

The service and engine construct their stores through the ``make_*``
factories here instead of hard-coding the in-heap classes.  With the
default environment nothing changes: every factory returns exactly the
in-heap store.  With ``REPRO_BACKEND=sqlite`` each factory returns the
backend-backed store over one process-wide
:class:`~repro.cluster.backend.SqliteBackend` (``REPRO_STATE`` names the
file; the default is a per-process temp file) — this is how the tier-1
suite runs end-to-end over the persistent tier in CI's ``cluster`` job,
and how the :mod:`~repro.cluster.pool` workers share state.

Each factory call gets a *fresh namespace* by default, so independently
constructed services/engines stay isolated from each other exactly as
independently constructed in-heap stores do (process-wide file, but
disjoint key spaces).  The worker pool passes *fixed* namespaces
instead — sharing is explicit, never accidental.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from typing import Callable

from repro.cluster.backend import InMemoryBackend, SqliteBackend, StateBackend

__all__ = [
    "backend_kind",
    "shared_backend",
    "set_shared_backend",
    "fresh_namespace",
    "make_session_store",
    "make_query_cache",
    "make_view_store",
    "make_journal",
    "state_health",
    "worker_id",
]

_BACKEND_ENV = "REPRO_BACKEND"
_STATE_ENV = "REPRO_STATE"
_WORKER_ENV = "REPRO_WORKER_ID"

_namespace_counter = itertools.count(1)
_shared: StateBackend | None = None
_shared_pid: int | None = None


def backend_kind() -> str:
    """The configured backend kind: ``"memory"`` (default) or ``"sqlite"``."""
    kind = os.environ.get(_BACKEND_ENV, "memory").strip().lower() or "memory"
    if kind not in ("memory", "sqlite"):
        raise ValueError(
            f"unknown {_BACKEND_ENV}={kind!r} (expected 'memory' or 'sqlite')"
        )
    return kind


def _default_state_path() -> str:
    path = os.environ.get(_STATE_ENV)
    if path:
        return path
    # No explicit path: one file per process tree, parked in the temp
    # dir.  Forked workers inherit the parent's resolved path through
    # the shared backend object, so a pool shares state even without
    # REPRO_STATE set.
    return os.path.join(
        tempfile.gettempdir(), f"repro-state-{os.getpid()}.sqlite"
    )


def shared_backend() -> StateBackend:
    """The process-wide backend the env-selected stores share.

    Created on first use; forked children inherit the object (the
    sqlite implementation re-opens its connection per pid).
    """
    global _shared, _shared_pid
    if _shared is None:
        _shared = (
            SqliteBackend(_default_state_path())
            if backend_kind() == "sqlite"
            else InMemoryBackend()
        )
        _shared_pid = os.getpid()
    return _shared


def set_shared_backend(backend: StateBackend | None) -> StateBackend | None:
    """Replace the process-wide backend (tests, pool workers); returns
    the previous one so callers can restore it."""
    global _shared
    previous = _shared
    _shared = backend
    return previous


def fresh_namespace(label: str = "ns") -> str:
    """A namespace no other store constructed in this process uses.

    The pid component keeps namespaces of *different* processes on one
    shared file apart too (a forked worker constructing a default store
    must not collide with its siblings).
    """
    return f"{label}-{os.getpid()}-{next(_namespace_counter)}"


def worker_id() -> int | None:
    """This process's pool worker id (``REPRO_WORKER_ID``), if any."""
    raw = os.environ.get(_WORKER_ENV)
    return int(raw) if raw is not None and raw.isdigit() else None


# -- store factories ----------------------------------------------------------------


def make_session_store(
    ttl: float = 1800.0,
    max_sessions: int = 256,
    resolver: Callable[[str, str, dict], object] | None = None,
    namespace: str | None = None,
    backend: StateBackend | None = None,
):
    """The env-selected session store (see module docstring)."""
    if backend is None and backend_kind() == "memory":
        from repro.service.sessions import InMemorySessionStore

        return InMemorySessionStore(ttl=ttl, max_sessions=max_sessions)
    from repro.cluster.stores import BackendSessionStore

    return BackendSessionStore(
        backend or shared_backend(),
        namespace=namespace or fresh_namespace("svc"),
        ttl=ttl,
        max_live=max_sessions,
        resolver=resolver,
    )


def make_query_cache(
    max_size: int,
    namespace: str | None = None,
    backend: StateBackend | None = None,
):
    """The env-selected query-result cache (ThreadSafeLRU-compatible)."""
    if backend is None and backend_kind() == "memory":
        from repro.lru import ThreadSafeLRU

        return ThreadSafeLRU(max_size)
    from repro.cluster.stores import BackendQueryCache

    return BackendQueryCache(
        backend or shared_backend(),
        namespace=namespace or fresh_namespace("svc"),
        max_size=max_size,
    )


def make_view_store(
    max_size: int,
    namespace: str | None = None,
    backend: StateBackend | None = None,
):
    """The env-selected shared materialized-view store."""
    if backend is None and backend_kind() == "memory":
        from repro.personalization.view_store import ViewStore

        return ViewStore(max_size)
    from repro.cluster.stores import BackendViewStore

    return BackendViewStore(
        backend or shared_backend(),
        namespace=namespace or fresh_namespace("eng"),
        max_size=max_size,
    )


def make_journal(
    max_events_per_user: int = 10_000,
    namespace: str | None = None,
    backend: StateBackend | None = None,
):
    """The env-selected workload journal."""
    if backend is None and backend_kind() == "memory":
        from repro.reco.journal import WorkloadJournal

        return WorkloadJournal(max_events_per_user=max_events_per_user)
    from repro.cluster.stores import BackendWorkloadJournal

    return BackendWorkloadJournal(
        backend or shared_backend(),
        namespace=namespace or fresh_namespace("svc"),
        max_events_per_user=max_events_per_user,
    )


def state_health() -> dict:
    """The ``state_backend`` block of ``/api/v1/health``.

    Reports the configured kind without instantiating a backend in the
    default mode (a health probe must not create state files).  The
    check mirrors the ``make_*`` factories exactly: in memory mode they
    return in-heap stores even when an earlier sqlite singleton is
    still alive in the process, so the block says ``memory`` then too.
    """
    if backend_kind() == "memory":
        return {"kind": "memory", "worker_id": worker_id(), "stores": {}}
    stats = shared_backend().stats()
    stats["worker_id"] = worker_id()
    return stats
