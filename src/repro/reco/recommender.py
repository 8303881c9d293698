"""Ranked recommendations from the journals of similar users.

For a target ``(datamart, user)`` the recommender:

1. reads every journaled user's
   :class:`~repro.reco.journal.UserSummary` from the workload journal
   and lifts its selected members into a
   :class:`~repro.reco.similarity.SpatialProfile` over the tenant's star;
2. ranks the other users by
   :func:`~repro.reco.similarity.user_similarity` and keeps the top-k
   (``TOP_K`` unless the request names ``k``) with nonzero similarity;
3. collects candidates of the requested kind from those users'
   summaries — GeoMDQL query texts, fetched layers, or selected
   dimension members — excluding everything the target user already
   ran/fetched/selected;
4. scores each candidate by the summed similarity of its supporters, so
   an item shared by several close peers outranks one from a single
   distant user.

Each user's ``(summary, profile)`` pair is cached, and a recommendation
reads every history at most once: step 3 reads the summaries step 1
fetched.  A summary reads nothing but its user's journal, and a profile
that and the star's *metadata* (members, features, schema), so each
pair is keyed on ``(datamart, user, position, star metadata
generation)``.  The position is the sequence number of the user's last
journal event, read for every user at once by
:meth:`~repro.reco.journal.WorkloadJournal.positions` per call.  Another
user's append or a fact append keeps a pair warm; the user's own append
or a metadata mutation misses, and nothing is ever invalidated by hand.
A star whose :attr:`~repro.storage.star.StarSchema.oracle` switch is set
bypasses the cache.  The ranked answer itself is not cached: it depends
on every user's journal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.lru import ThreadSafeLRU
from repro.reco.journal import UserSummary, WorkloadJournal
from repro.reco.similarity import (
    SpatialProfile,
    build_spatial_profile,
    user_similarity,
)
from repro.storage.star import StarSchema

__all__ = ["Recommendation", "Recommender"]


@dataclass(frozen=True)
class Recommendation:
    """One ranked suggestion.

    ``item`` is kind-shaped: ``{"q": ...}`` for queries, ``{"layer":
    ...}`` for layers, ``{"dimension", "level", "key"}`` for members.
    ``supporters`` lists the similar users it came from, and ``score`` is
    the sum of their similarities to the target user.
    """

    kind: str
    item: dict
    score: float
    supporters: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "item": dict(self.item),
            "score": round(self.score, 6),
            "supporters": list(self.supporters),
        }


#: The cache's bound: one entry per journaled user of each tenant is the
#: working set.
PROFILE_CACHE_SIZE = 512
#: Similar users a recommendation draws on when the request names no k.
TOP_K = 3
#: The hierarchy term's weight in :func:`user_similarity` (geometry has
#: the rest).
HIERARCHY_WEIGHT = 0.5

#: Each recommendation kind (the endpoint variants), with its item
#: fields and a user's items of that kind as identity tuples (an item is
#: the fields zipped with one).
_ITEMS = {
    "queries": (("q",), lambda summary: [(q,) for q in summary.queries]),
    "layers": (("layer",), lambda summary: [(layer,) for layer in summary.layers]),
    "members": (
        ("dimension", "level", "key"),
        lambda summary: [
            (dimension, level, key)
            for (dimension, level), keys in summary.members.items()
            for key in keys
        ],
    ),
}
KINDS = tuple(_ITEMS)


class Recommender:
    """Similarity-driven recommendations over a :class:`WorkloadJournal`."""

    def __init__(self, journal: WorkloadJournal) -> None:
        self.journal = journal
        self._footprint_cache = ThreadSafeLRU(PROFILE_CACHE_SIZE)

    # -- similarity ---------------------------------------------------------------

    def _footprints(
        self, datamart: str, user_id: str, star: StarSchema
    ) -> dict[str, tuple[UserSummary, SpatialProfile]]:
        """Every journaled user's summary and profile, the requester's
        first (at position 0 when it has no event yet), then the others
        in user order.  The positions and the generation are read before
        the events, so an entry never holds events older than its key
        says."""
        positions = self.journal.positions(datamart)
        generation = star.metadata_generation
        footprints = {}
        for user in [user_id, *sorted(positions.keys() - {user_id})]:
            key = (datamart, user, positions.get(user, 0), generation)
            footprint = None if star.oracle else self._footprint_cache.get(key)
            if footprint is None:
                summary = self.journal.summary(datamart, user)
                profile = build_spatial_profile(star, summary.members)
                footprint = (summary, profile)
                if not star.oracle:
                    self._footprint_cache.put(key, footprint)
            footprints[user] = footprint
        return footprints

    @staticmethod
    def _ranking(
        user_id: str,
        footprints: dict[str, tuple[UserSummary, SpatialProfile]],
        k: int | None,
    ) -> list[tuple[str, float]]:
        """The ranking :meth:`similar_users` answers, over fetched
        footprints."""
        target = footprints[user_id][1]
        scored: list[tuple[str, float]] = []
        for other, (_summary, profile) in footprints.items():
            if other == user_id:
                continue
            similarity = user_similarity(target, profile, HIERARCHY_WEIGHT)
            if similarity > 0.0:
                scored.append((other, similarity))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[: TOP_K if k is None else k]

    def similar_users(
        self,
        datamart: str,
        user_id: str,
        star: StarSchema,
        k: int | None = None,
    ) -> list[tuple[str, float]]:
        """Top-k journaled peers by similarity (nonzero only), ranked.

        Ties break on the user id so rankings are deterministic.
        """
        return self._ranking(
            user_id, self._footprints(datamart, user_id, star), k
        )

    # -- recommendation -----------------------------------------------------------

    def recommend(
        self,
        datamart: str,
        user_id: str,
        star: StarSchema,
        kind: str,
        *,
        k: int | None = None,
        allowed_layers: Iterable[str] | None = None,
        exclude_members: Iterable[tuple[str, str, str]] = (),
    ) -> tuple[list[Recommendation], list[tuple[str, float]]]:
        """Ranked recommendations plus the similar-user ranking behind them.

        ``allowed_layers`` confines layer suggestions to what the target
        session's personalized schema actually exposes (no leaking
        another user's wider schema); ``exclude_members`` removes the
        target session's own live selection on top of the journaled
        exclusions.  The candidates come from the summaries the ranking
        already read.
        """
        if kind not in KINDS:
            raise ValueError(
                f"unknown recommendation kind {kind!r}; expected one of {KINDS}"
            )
        footprints = self._footprints(datamart, user_id, star)
        neighbours = self._ranking(user_id, footprints, k)
        fields, items_of = _ITEMS[kind]
        items = self._ranked(
            kind,
            fields,
            user_id,
            neighbours,
            lambda user: items_of(footprints[user][0]),
            exclude_members if kind == "members" else (),
        )
        if kind == "layers" and allowed_layers is not None:
            # Votes are per item, so dropping a ranked item changes no
            # other item's score or place.
            allowed = set(allowed_layers)
            items = [r for r in items if r.item["layer"] in allowed]
        return items, neighbours

    @staticmethod
    def _ranked(
        kind: str,
        fields: tuple[str, ...],
        user_id: str,
        neighbours: list[tuple[str, float]],
        items_of: Callable[[str], Iterable[tuple]],
        exclude: Iterable[tuple] = (),
    ) -> list[Recommendation]:
        """The neighbours' votes, ranked by score, then by identity.

        ``items_of(user)`` gives a user's items as identity tuples (the
        item is ``fields`` zipped with one).  In neighbour order, each
        neighbour adds its similarity to the score of every item it has
        that neither the requester has nor ``exclude`` names, and joins
        its supporters, so every score sums in the same order.
        """
        owned = {*exclude, *items_of(user_id)}
        votes: dict[tuple, tuple[float, list[str]]] = {}
        for other, similarity in neighbours:
            for identity in items_of(other):
                if identity in owned:
                    continue
                score, supporters = votes.get(identity, (0.0, []))
                votes[identity] = (score + similarity, supporters + [other])
        recommendations = [
            Recommendation(
                kind=kind,
                item=dict(zip(fields, identity)),
                score=score,
                supporters=tuple(sorted(supporters)),
            )
            for identity, (score, supporters) in votes.items()
        ]
        recommendations.sort(key=lambda r: (-r.score, sorted(r.item.items())))
        return recommendations

    # -- introspection ------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """The cache's counters.  The ``memo_*`` names are the health
        schema's: dashboards and the benchmark read them."""
        return {
            "memo_size": len(self._footprint_cache),
            "max_size": self._footprint_cache.max_size,
            "memo_hits": self._footprint_cache.hits,
            "memo_misses": self._footprint_cache.misses,
        }
