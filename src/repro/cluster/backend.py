"""Pluggable state backends for the stateless serving tier.

The portal's state — session records and workload-journal events — used
to live in one Python heap, making one process the hard ceiling
(ROADMAP item 2).  A :class:`StateBackend` is the storage those stores
externalize into: a namespaced key/value store of *encoded* entries (see
:mod:`repro.cluster.codecs`) plus atomic named counters (the journal's
sequence numbers).  Derived results (query answers, materialized views)
are not state: each worker recomputes them in its own heap.

Two implementations, both stdlib-only:

* :class:`InMemoryBackend` — a lock-guarded dict of dicts, the tests'
  fake backend: values are JSON text, so anything that round-trips
  through it also round-trips through the persistent backend.
* :class:`SqliteBackend` — a ``sqlite3`` file in WAL mode.  One
  connection per process (re-opened after ``fork``, detected by pid),
  every statement under a process lock; cross-process writers are
  serialized by SQLite itself (``busy_timeout`` retries).  This is the
  backend the :mod:`repro.cluster.pool` worker processes share.

Values are *strings* by contract (the codecs' JSON), never live
objects: the in-memory backend enforces it so a test over it cannot
depend on shared mutable state the persistent backend would not
provide.

Keys sort bytewise; prefix scans (``items``/``keys``/``count`` with
``prefix=``) are how the journal reads one user's history back in
sequence order.  Store and counter names are namespaced by their owners
(``"<namespace>:sessions"``), so any number of independent stores share
one backend file.
"""

from __future__ import annotations

import os
import sqlite3
from abc import ABC, abstractmethod

from repro.concurrency import make_lock
from repro.errors import StorageError

__all__ = ["StateBackend", "InMemoryBackend", "SqliteBackend"]

#: Upper bound for prefix range scans: one code point above any
#: character the key alphabet uses (keys are identifiers, separators and
#: zero-padded digits, all far below it).
_PREFIX_HI = "\U0010ffff"


class StateBackend(ABC):
    """Namespaced key/value stores + atomic counters, values as text."""

    #: Implementation tag surfaced by ``stats()`` / the health endpoint.
    kind: str = "abstract"

    # -- key/value ------------------------------------------------------------

    @abstractmethod
    def put(
        self, store: str, key: str, value: str, *, create: bool = True
    ) -> bool:
        """Insert or replace one entry, returning whether it was written.

        With ``create=False`` the write only replaces an entry that
        exists, atomically: a session refresh must not resurrect a
        record another worker deleted at logout.
        """

    @abstractmethod
    def get(self, store: str, key: str) -> str | None: ...

    @abstractmethod
    def delete(self, store: str, key: str) -> None:
        """Forget one entry (no-op if absent)."""

    @abstractmethod
    def items(self, store: str, prefix: str = "") -> list[tuple[str, str]]:
        """``(key, value)`` pairs under the prefix, sorted by key."""

    @abstractmethod
    def keys(self, store: str, prefix: str = "") -> list[str]:
        """The keys ``items`` would return, without reading a value."""

    @abstractmethod
    def count(self, store: str, prefix: str = "") -> int: ...

    @abstractmethod
    def clear(self, store: str) -> None: ...

    # -- counters -------------------------------------------------------------

    @abstractmethod
    def incr(self, name: str, amount: int = 1) -> int:
        """Atomically add to a counter (created at 0), returning the
        new value — the cross-process allocator for journal sequence
        numbers."""

    @abstractmethod
    def counter(self, name: str) -> int:
        """Current counter value (0 if never incremented)."""

    @abstractmethod
    def counters(self, prefix: str = "") -> dict[str, int]: ...

    # -- introspection ---------------------------------------------------------

    @abstractmethod
    def store_names(self) -> list[str]: ...

    def stats(self) -> dict:
        """Backend kind + per-store row counts (health endpoint shape)."""
        return {
            "kind": self.kind,
            "stores": {name: self.count(name) for name in self.store_names()},
            "counters": len(self.counters()),
        }

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class InMemoryBackend(StateBackend):
    """Heap-resident backend, the tests' fake: one process, but with
    the encode/decode boundary of the persistent one."""

    kind = "memory"

    def __init__(self) -> None:
        self._lock = make_lock("InMemoryBackend._lock")
        #: store name -> key -> encoded value
        # guarded-by: _lock
        self._stores: dict[str, dict[str, str]] = {}
        # guarded-by: _lock
        self._counters: dict[str, int] = {}

    def put(
        self, store: str, key: str, value: str, *, create: bool = True
    ) -> bool:
        if not isinstance(value, str):
            raise StorageError(
                f"backend values must be encoded text, got {type(value).__name__}"
            )
        with self._lock:
            entries = self._stores.setdefault(store, {})
            if not create and key not in entries:
                return False
            entries[key] = value
            return True

    def get(self, store: str, key: str) -> str | None:
        with self._lock:
            return self._stores.get(store, {}).get(key)

    def delete(self, store: str, key: str) -> None:
        with self._lock:
            self._stores.get(store, {}).pop(key, None)

    def items(self, store: str, prefix: str = "") -> list[tuple[str, str]]:
        with self._lock:
            entries = self._stores.get(store, {})
            return sorted(
                (key, value)
                for key, value in entries.items()
                if key.startswith(prefix)
            )

    def keys(self, store: str, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(
                key for key in self._stores.get(store, {}) if key.startswith(prefix)
            )

    def count(self, store: str, prefix: str = "") -> int:
        with self._lock:
            entries = self._stores.get(store, {})
            if not prefix:
                return len(entries)
            return sum(1 for key in entries if key.startswith(prefix))

    def clear(self, store: str) -> None:
        with self._lock:
            self._stores.pop(store, None)

    def incr(self, name: str, amount: int = 1) -> int:
        with self._lock:
            value = self._counters.get(name, 0) + amount
            self._counters[name] = value
            return value

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def counters(self, prefix: str = "") -> dict[str, int]:
        with self._lock:
            return {
                name: value
                for name, value in self._counters.items()
                if name.startswith(prefix)
            }

    def store_names(self) -> list[str]:
        with self._lock:
            return sorted(self._stores)


class SqliteBackend(StateBackend):
    """Persistent backend on a ``sqlite3`` file in WAL mode.

    WAL lets the pool's worker processes read concurrently while one
    writes; write-write conflicts block on ``busy_timeout`` instead of
    raising.  The connection is opened lazily and re-opened whenever the
    pid changes: a SQLite connection must never be used across ``fork``,
    and the pre-fork pool inherits this object in every child.
    """

    kind = "sqlite"

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = make_lock("SqliteBackend._lock")
        # guarded-by: _lock
        self._conn: sqlite3.Connection | None = None
        # guarded-by: _lock
        self._pid: int | None = None

    # -- connection lifecycle ---------------------------------------------------

    def _connection(self) -> sqlite3.Connection:  # guarded-by-caller: _lock
        pid = os.getpid()
        if self._conn is None or self._pid != pid:
            # A connection inherited across fork shares file offsets with
            # the parent; never reuse it — open a fresh one for this pid.
            self._conn = sqlite3.connect(
                self.path,
                timeout=30.0,
                isolation_level=None,  # autocommit; statements are atomic
                check_same_thread=False,  # guarded by _lock instead
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA busy_timeout=30000")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS kv ("
                " store TEXT NOT NULL,"
                " key TEXT NOT NULL,"
                " value TEXT NOT NULL,"
                " PRIMARY KEY (store, key))"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS counters ("
                " name TEXT PRIMARY KEY,"
                " value INTEGER NOT NULL)"
            )
            self._pid = pid
        return self._conn

    def close(self) -> None:
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                self._conn.close()
            self._conn = None
            self._pid = None

    # -- key/value ------------------------------------------------------------

    def put(
        self, store: str, key: str, value: str, *, create: bool = True
    ) -> bool:
        if not isinstance(value, str):
            raise StorageError(
                f"backend values must be encoded text, got {type(value).__name__}"
            )
        with self._lock:
            if not create:
                cursor = self._connection().execute(
                    "UPDATE kv SET value = ? WHERE store = ? AND key = ?",
                    (value, store, key),
                )
                return cursor.rowcount > 0
            self._connection().execute(
                "INSERT OR REPLACE INTO kv (store, key, value) VALUES (?, ?, ?)",
                (store, key, value),
            )
            return True

    def get(self, store: str, key: str) -> str | None:
        with self._lock:
            row = self._connection().execute(
                "SELECT value FROM kv WHERE store = ? AND key = ?",
                (store, key),
            ).fetchone()
            return row[0] if row is not None else None

    def delete(self, store: str, key: str) -> None:
        with self._lock:
            self._connection().execute(
                "DELETE FROM kv WHERE store = ? AND key = ?", (store, key)
            )

    def items(self, store: str, prefix: str = "") -> list[tuple[str, str]]:
        return self._scan("key, value", store, prefix)

    def keys(self, store: str, prefix: str = "") -> list[str]:
        return [key for (key,) in self._scan("key", store, prefix)]

    def _scan(self, columns: str, store: str, prefix: str) -> list[tuple]:
        """``columns`` of the store's rows under the prefix, by key."""
        with self._lock:
            if prefix:
                return self._connection().execute(
                    f"SELECT {columns} FROM kv"
                    " WHERE store = ? AND key >= ? AND key < ?"
                    " ORDER BY key",
                    (store, prefix, prefix + _PREFIX_HI),
                ).fetchall()
            return self._connection().execute(
                f"SELECT {columns} FROM kv WHERE store = ? ORDER BY key",
                (store,),
            ).fetchall()

    def count(self, store: str, prefix: str = "") -> int:
        with self._lock:
            if prefix:
                row = self._connection().execute(
                    "SELECT COUNT(*) FROM kv"
                    " WHERE store = ? AND key >= ? AND key < ?",
                    (store, prefix, prefix + _PREFIX_HI),
                ).fetchone()
            else:
                row = self._connection().execute(
                    "SELECT COUNT(*) FROM kv WHERE store = ?", (store,)
                ).fetchone()
            return int(row[0])

    def clear(self, store: str) -> None:
        with self._lock:
            self._connection().execute(
                "DELETE FROM kv WHERE store = ?", (store,)
            )

    # -- counters -------------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> int:
        with self._lock:
            row = self._connection().execute(
                "INSERT INTO counters (name, value) VALUES (?, ?)"
                " ON CONFLICT (name) DO UPDATE SET value = value + excluded.value"
                " RETURNING value",
                (name, amount),
            ).fetchone()
            return int(row[0])

    def counter(self, name: str) -> int:
        with self._lock:
            row = self._connection().execute(
                "SELECT value FROM counters WHERE name = ?", (name,)
            ).fetchone()
            return int(row[0]) if row is not None else 0

    def counters(self, prefix: str = "") -> dict[str, int]:
        with self._lock:
            if prefix:
                rows = self._connection().execute(
                    "SELECT name, value FROM counters"
                    " WHERE name >= ? AND name < ?",
                    (prefix, prefix + _PREFIX_HI),
                ).fetchall()
            else:
                rows = self._connection().execute(
                    "SELECT name, value FROM counters"
                ).fetchall()
            return {name: int(value) for name, value in rows}

    def store_names(self) -> list[str]:
        with self._lock:
            rows = self._connection().execute(
                "SELECT DISTINCT store FROM kv ORDER BY store"
            ).fetchall()
            return [row[0] for row in rows]

    def stats(self) -> dict:
        out = super().stats()
        out["path"] = self.path
        return out
