"""Store construction and backend selection (``REPRO_BACKEND``).

The ``make_*`` factories here are the only code that picks a class for
the two stores that hold state.  Each takes an optional ``backend``:
without one it returns the in-heap store
(:class:`~repro.service.sessions.InMemorySessionStore`,
:class:`~repro.reco.journal.WorkloadJournal`); with one, the same store
plus its shared tier over that backend (:mod:`repro.cluster.stores`).
:func:`make_service_stores` builds a whole portal's session store and
journal in one call.  Derived results have no shared tier: every
worker computes its query answers and keeps its engines' view stores
(:class:`~repro.personalization.view_store.ViewStore`) in its own heap.

:func:`env_backend` is the environment's choice for stores nobody
configured: ``None`` by default, so the service defaults are the
in-heap stores, and under ``REPRO_BACKEND=sqlite`` one process-wide
:class:`~repro.cluster.backend.SqliteBackend` (``REPRO_STATE`` names the
file; the default is a per-process temp file, removed when that process
exits) — this is how the tier-1 suite runs end-to-end over the
persistent tier in CI's ``cluster`` job.

A backend-backed store gets a *fresh namespace* unless one is passed,
so independently constructed services stay isolated from each other
exactly as independently constructed in-heap stores do (process-wide
file, but disjoint key spaces).  The worker pool passes *fixed*
namespaces instead — sharing is explicit, never accidental.
"""

from __future__ import annotations

import atexit
import itertools
import os
import tempfile

from repro.cluster.backend import SqliteBackend, StateBackend
from repro.cluster.stores import BackendSessionStore, BackendWorkloadJournal
from repro.reco.journal import WorkloadJournal
from repro.service.sessions import InMemorySessionStore

__all__ = [
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

_BACKEND_ENV = "REPRO_BACKEND"
_STATE_ENV = "REPRO_STATE"
_WORKER_ENV = "REPRO_WORKER_ID"

_namespace_counter = itertools.count(1)
_shared: StateBackend | None = None


def backend_kind() -> str:
    """The configured backend kind: ``"memory"`` (default) or ``"sqlite"``."""
    kind = os.environ.get(_BACKEND_ENV, "memory").strip().lower() or "memory"
    if kind not in ("memory", "sqlite"):
        raise ValueError(
            f"unknown {_BACKEND_ENV}={kind!r} (expected 'memory' or 'sqlite')"
        )
    return kind


def _default_state_backend() -> SqliteBackend:
    """The sqlite backend on ``REPRO_STATE``, else on a file of its own.

    Without an explicit path there is one file per process tree, parked
    in the temp dir.  Forked workers inherit the parent's resolved path
    through the shared backend object, so a pool shares state even
    without ``REPRO_STATE`` set.  The file's name holds the creating pid,
    so no later process can open it: that process removes it at exit.
    """
    path = os.environ.get(_STATE_ENV)
    if path:
        return SqliteBackend(path)
    pid = os.getpid()
    backend = SqliteBackend(
        os.path.join(tempfile.gettempdir(), f"repro-state-{pid}.sqlite")
    )
    atexit.register(_remove_state_file, backend, pid)
    return backend


def _remove_state_file(backend: SqliteBackend, creator_pid: int) -> None:
    # A forked pool worker inherits this hook with the backend; the file
    # is its parent's to remove.
    if os.getpid() != creator_pid:
        return
    backend.close()
    for suffix in ("", "-wal", "-shm"):
        try:
            os.remove(backend.path + suffix)
        except FileNotFoundError:
            pass


def shared_backend() -> StateBackend:
    """The process-wide backend the env-selected stores share under
    ``REPRO_BACKEND=sqlite`` (its only callers check that mode first).

    Created on first use; forked children inherit the object (the
    sqlite implementation re-opens its connection per pid).
    """
    global _shared
    if _shared is None:
        _shared = _default_state_backend()
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


def env_backend() -> StateBackend | None:
    """The backend ``REPRO_BACKEND`` selects for stores built without an
    explicit one: the shared backend under ``sqlite``, ``None`` (the
    in-heap stores) in the default mode — even when an earlier sqlite
    singleton is still alive in the process."""
    return shared_backend() if backend_kind() == "sqlite" else None


def make_session_store(
    ttl: float = 1800.0,
    max_sessions: int = 256,
    *,
    backend: StateBackend | None = None,
    namespace: str | None = None,
) -> InMemorySessionStore:
    """The session store: in-heap, or its two-tier form over ``backend``."""
    if backend is None:
        return InMemorySessionStore(ttl=ttl, max_sessions=max_sessions)
    return BackendSessionStore(
        backend,
        namespace=namespace or fresh_namespace("svc"),
        ttl=ttl,
        max_sessions=max_sessions,
    )


def make_journal(
    max_events_per_user: int = 10_000,
    *,
    backend: StateBackend | None = None,
    namespace: str | None = None,
) -> WorkloadJournal:
    """The workload journal, kept in ``backend`` if given."""
    if backend is None:
        return WorkloadJournal(max_events_per_user=max_events_per_user)
    return BackendWorkloadJournal(
        backend,
        namespace=namespace or fresh_namespace("svc"),
        max_events_per_user=max_events_per_user,
    )


def make_service_stores(
    backend: StateBackend | None,
    namespace: str | None = None,
    *,
    ttl: float = 1800.0,
    max_sessions: int = 256,
) -> dict[str, object]:
    """One portal's session store and journal, as
    :class:`~repro.service.facade.PersonalizationService` keyword
    arguments: in-heap without ``backend``, else over it under one
    ``namespace`` (fresh by default).  The workers of a pool pass the
    same backend and namespace — that is what makes them share state."""
    if backend is not None:
        namespace = namespace or fresh_namespace("svc")
    return {
        "session_store": make_session_store(
            ttl, max_sessions, backend=backend, namespace=namespace
        ),
        "journal": make_journal(backend=backend, namespace=namespace),
    }

