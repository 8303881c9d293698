"""Backend-to-backend state migration.

A portal that grew up on the default in-memory tier can move to the
persistent tier without losing its live state: every store row and
every counter is copied verbatim (the codecs' JSON is the wire format
of both backends, so migration is a plain copy, not a re-encode).  The
cross-version test drives this end to end — a live portal's sessions
and journal survive into a sqlite-backed service in a "new process" (a
freshly constructed service over the destination backend), which
recomputes query answers and views in its own heap.
"""

from __future__ import annotations

from repro.cluster.backend import StateBackend

__all__ = ["migrate_backend"]


def migrate_backend(
    source: StateBackend,
    destination: StateBackend,
    *,
    clear_destination_stores: bool = False,
) -> dict[str, int]:
    """Copy every store row and counter from ``source`` to
    ``destination``, returning per-store row counts (plus a
    ``"counters"`` tally).

    Existing destination rows under the same keys are overwritten;
    pass ``clear_destination_stores=True`` to drop each migrated store
    on the destination first (exact-mirror semantics).
    """
    copied: dict[str, int] = {}
    for store in source.store_names():
        if clear_destination_stores:
            destination.clear(store)
        rows = 0
        for key, value in source.items(store):
            destination.put(store, key, value)
            rows += 1
        copied[store] = rows
    counters = source.counters()
    for name, value in counters.items():
        current = destination.counter(name)
        if current != value:
            destination.incr(name, value - current)
    copied["counters"] = len(counters)
    return copied
