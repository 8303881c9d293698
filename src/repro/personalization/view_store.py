"""The engine-owned shared materialized-view store.

PR 2 memoized each :class:`~repro.personalization.engine.PersonalizedView`
*per session*; a thousand analysts with the same personalization outcome
paid a thousand identical fact-table scans, and any star mutation threw
every view away.  This store makes materialized views shared, maintained
warehouse objects (the shift the user-centric-warehouse survey line of
related work describes):

* **Sharing** — views are keyed on ``(fact, selection fingerprint, star
  generation)``.  The fingerprint is the *content* identity of a
  :class:`~repro.prml.evaluator.SelectionSet` (sorted member/feature
  triples, see :meth:`SelectionSet.fingerprint`), not the per-session
  uid, so any number of sessions whose selections are equal share one
  build.  Tenant isolation is structural: each engine owns its own store
  over its own star.
* **Incremental maintenance** — fact appends arrive as typed
  :class:`~repro.storage.star.StarMutation` deltas carrying the appended
  row ids.  Instead of rebuilding, every live view is *patched*: the
  delta rows are filtered through the view's selection and the survivors
  appended.  Views over other fact tables of a multi-fact star are
  carried to the new generation untouched.  Every other write carries
  every entry: a view's ``fact_rows`` depend only on member *existence
  and parent links* of the dimensions its selection references (never on
  features, layers or member geometries), no write moves a parent link,
  and a brand-new member is referenced by no existing fact row.  A member
  add inside a referenced dimension only resets the entry's cached patch
  filter, since a new leaf under a selected ancestor joins it.  A view
  carries no schema, so sessions with different schema sets share it.
* **Bounds and transparency** — the store is LRU-bounded (``max_size``)
  and thread-safe; every engine owns one in its process's heap, so each
  worker of a pool builds its own views.  Sessions over a star whose
  :attr:`~repro.storage.star.StarSchema.oracle` switch is set bypass it,
  which is how ``tests/workload/test_oracle_gate.py`` proves the store is
  transparent.

This deliberately does *not* reuse :class:`repro.lru.ThreadSafeLRU`:
the store's defining operations — single-flight builds under the lock
and wholesale generational *rekeying* of the map on every fact delta —
are not LRU-map semantics, and bolting them onto the shared primitive
would complicate every other owner for one consumer.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING

from repro.concurrency import make_lock
from repro.storage.star import StarMutation, StarSchema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.personalization.engine import PersonalizedView
    from repro.prml.evaluator import SelectionSet

__all__ = ["ViewStore"]

#: (fact name, selection fingerprint, star generation)
_Key = tuple[str, str, int]


class _Entry:
    """One stored view plus its lazily-resolved patch filter.

    ``relevant`` caches ``selection.relevant_leaf_keys`` (the projected
    row filter) the first time the entry is patched.  The projection
    depends only on the members of the dimensions the selection
    references, so the one write that can change it, a member add in a
    referenced dimension (a new leaf under a selected ancestor joins the
    filter), resets the cache to ``None``; appends pay plain
    set-membership checks instead of re-resolving roll-ups per insert.
    """

    __slots__ = ("view", "relevant")

    def __init__(self, view: "PersonalizedView") -> None:
        self.view = view
        self.relevant: dict[str, set[str]] | None = None

    def references_dimension(self, dimension: str) -> bool:
        """Whether the view's selection constrains ``dimension``."""
        return any(
            dim == dimension for dim, _level in self.view.selection.members
        )


class ViewStore:
    """Thread-safe, LRU-bounded store of shared materialized views."""

    def __init__(self, max_size: int = 128) -> None:
        if max_size < 1:
            raise ValueError("max_size must be >= 1")
        self.max_size = max_size
        self._lock = make_lock("ViewStore._lock")
        # guarded-by: _lock
        self._entries: "OrderedDict[_Key, _Entry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.patches = 0
        self.carries = 0
        self.evictions = 0
        self.invalidations = 0

    # -- lookup / build -------------------------------------------------------

    def get_or_build(
        self, star: StarSchema, fact: str, selection: "SelectionSet"
    ) -> "PersonalizedView":
        """The shared view for ``(fact, selection content, star state)``.

        Builds at most once per key: the store lock is held across the
        build, so N sessions racing on an identical cold selection pay
        one fact scan, not N (single-flight).  The accepted trade: cold
        builds of *different* selections serialize behind it, and a
        mutation's ``on_mutation`` delivery waits for an in-flight build
        (never the reverse — a star write releases the star's cache
        lock before notifying, so the two locks cannot deadlock).
        """
        with self._lock:
            key = (fact, selection.fingerprint(), star.generation)
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return entry.view
            self.misses += 1
            # Build from a snapshot of the live selection, and key the
            # entry by the *snapshot's* fingerprint: the stored view must
            # not alias state the session keeps mutating, and a
            # concurrent acquisition rule growing the selection between
            # lookup and build must not store the new content under the
            # old content's key (that would silently serve another
            # session's rows to everyone whose selection still
            # fingerprints to the old key).
            from repro.personalization.engine import PersonalizedView

            frozen = selection.snapshot()
            key = (fact, frozen.fingerprint(), star.generation)
            view = PersonalizedView.build(star, fact, frozen)
            self.builds += 1
            self._entries[key] = _Entry(view)
            self._trim()
            return view

    # -- maintenance ----------------------------------------------------------

    def on_mutation(self, star: StarSchema, mutation: StarMutation) -> None:
        """React to one star mutation (the engine's listener target).

        Only entries exactly one generation behind the mutation are
        maintained; anything older missed an intermediate mutation and
        is dropped (the build path recreates it on demand).  A fact
        append *patches* the entries over its fact; every other entry,
        and every entry under any other write, is carried to the new
        generation as-is.  A member add resets the cached patch filter
        of the entries that reference its dimension.
        """
        with self._lock:
            for key in list(self._entries):
                fact, fingerprint, generation = key
                entry = self._entries.pop(key)
                if generation != mutation.generation - 1:
                    self.invalidations += 1
                    continue
                if mutation.is_fact_delta and fact == mutation.fact:
                    entry.view = self._patch(star, entry, mutation.row_ids)
                    self.patches += 1
                else:
                    if mutation.is_member_add and entry.references_dimension(
                        mutation.dimension
                    ):
                        entry.relevant = None
                    self.carries += 1
                self._entries[(fact, fingerprint, mutation.generation)] = entry
            self._trim()

    def _patch(
        self,
        star: StarSchema,
        entry: _Entry,
        row_ids: tuple[int, ...],
    ) -> "PersonalizedView":
        from repro.personalization.engine import PersonalizedView

        view = entry.view
        # fact_rows are ascending; a build that raced the append may have
        # already scanned the new rows, so only genuinely-new ids append
        # (guards against double-counting).
        last = view.fact_rows[-1] if view.fact_rows else -1
        fresh = [row_id for row_id in row_ids if row_id > last]
        selection = view.selection
        if fresh and not selection.is_empty:
            if entry.relevant is None:
                entry.relevant = selection.relevant_leaf_keys(
                    star, star.fact_table(view.fact)
                )
            if entry.relevant:
                # Filter the delta on the encoded columns directly
                # (rows_matching takes no locks, so no new lock edges).
                fresh = star.fact_table(view.fact).rows_matching(
                    entry.relevant, row_ids=fresh
                )
        if not fresh:
            return view
        return PersonalizedView(
            star=view.star,
            selection=selection,
            fact_rows=view.fact_rows + fresh,
            fact=view.fact,
        )

    def invalidate(self) -> None:
        """Drop every entry (an engine detaching from its star)."""
        with self._lock:
            self.invalidations += len(self._entries)
            self._entries.clear()

    # -- bounds / introspection -----------------------------------------------

    def _trim(self) -> None:  # guarded-by-caller: _lock
        while len(self._entries) > self.max_size:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Counters for the health endpoint and the benchmark harness."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_size": self.max_size,
                "hits": self.hits,
                "misses": self.misses,
                "builds": self.builds,
                "patches": self.patches,
                "carries": self.carries,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
