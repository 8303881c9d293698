"""Ranked recommendations from the journals of similar users.

For a target ``(datamart, user)`` the recommender:

1. builds every journaled user's :class:`~repro.reco.similarity.SpatialProfile`
   from the workload journal and the tenant's star;
2. ranks the other users by
   :func:`~repro.reco.similarity.user_similarity` and keeps the top-k
   with nonzero similarity;
3. collects candidates of the requested kind from those users' journals —
   GeoMDQL query texts, fetched layers, or selected dimension members —
   excluding everything the target user already ran/fetched/selected;
4. scores each candidate by the summed similarity of its supporters, so
   an item shared by several close peers outranks one from a single
   distant user.

Only the profiles are cached.  A profile reads nothing but its user's
journaled selections and the star's *metadata* (members, features,
schema), so each one is keyed on ``(datamart, user, position, star
metadata generation)``.  The position is the sequence number of the
user's last journal event, read for every user at once by
:meth:`~repro.reco.journal.WorkloadJournal.positions` per call.  Another
user's append or a fact append keeps a profile warm; the user's own
append or a metadata mutation misses, and nothing is ever invalidated by
hand.  A star whose
:attr:`~repro.storage.star.StarSchema.oracle` switch is set bypasses the
cache.  The ranked answer itself is not cached: it depends on every
user's journal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.lru import ThreadSafeLRU
from repro.reco.journal import WorkloadJournal
from repro.reco.similarity import (
    SpatialProfile,
    build_spatial_profile,
    user_similarity,
)
from repro.storage.star import StarSchema

__all__ = ["Recommendation", "Recommender"]

#: Recommendation kinds, mirroring the endpoint variants.
KINDS = ("queries", "layers", "members")


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


#: The profile cache's bound: one entry per journaled user of each tenant
#: is the working set.
PROFILE_CACHE_SIZE = 512


class Recommender:
    """Similarity-driven recommendations over a :class:`WorkloadJournal`."""

    def __init__(
        self,
        journal: WorkloadJournal,
        *,
        top_k: int = 3,
        hierarchy_weight: float = 0.5,
    ) -> None:
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.journal = journal
        self.top_k = top_k
        self.hierarchy_weight = hierarchy_weight
        self._profiles = ThreadSafeLRU(PROFILE_CACHE_SIZE)

    # -- similarity ---------------------------------------------------------------

    def _profile(
        self, datamart: str, user_id: str, position: int, star: StarSchema
    ) -> SpatialProfile:
        """The user's profile.  ``position`` is read before the events,
        so an entry never holds events older than its key says."""
        if star.oracle:
            return build_spatial_profile(
                star, self.journal.member_profile(datamart, user_id)
            )
        key = (datamart, user_id, position, star.metadata_generation)
        cached = self._profiles.get(key)
        if cached is None:
            cached = build_spatial_profile(
                star, self.journal.member_profile(datamart, user_id)
            )
            self._profiles.put(key, cached)
        return cached

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
        k = self.top_k if k is None else k
        positions = self.journal.positions(datamart)
        target = self._profile(
            datamart, user_id, positions.get(user_id, 0), star
        )
        scored: list[tuple[str, float]] = []
        for other in sorted(positions):
            if other == user_id:
                continue
            similarity = user_similarity(
                target,
                self._profile(datamart, other, positions[other], star),
                self.hierarchy_weight,
            )
            if similarity > 0.0:
                scored.append((other, similarity))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored[:k]

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
        exclusions.
        """
        if kind not in KINDS:
            raise ValueError(
                f"unknown recommendation kind {kind!r}; expected one of {KINDS}"
            )
        neighbours = self.similar_users(datamart, user_id, star, k)
        if kind == "queries":
            items = self._query_candidates(datamart, user_id, neighbours)
        elif kind == "layers":
            items = self._layer_candidates(
                datamart, user_id, neighbours, allowed_layers
            )
        else:
            items = self._member_candidates(
                datamart, user_id, neighbours, exclude_members
            )
        return items, neighbours

    # -- candidate collection -----------------------------------------------------

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

    def _query_candidates(
        self,
        datamart: str,
        user_id: str,
        neighbours: list[tuple[str, float]],
    ) -> list[Recommendation]:
        return self._ranked(
            "queries",
            ("q",),
            user_id,
            neighbours,
            lambda user: [(q,) for q in self.journal.queries(datamart, user)],
        )

    def _layer_candidates(
        self,
        datamart: str,
        user_id: str,
        neighbours: list[tuple[str, float]],
        allowed_layers: Iterable[str] | None,
    ) -> list[Recommendation]:
        allowed = None if allowed_layers is None else set(allowed_layers)
        return self._ranked(
            "layers",
            ("layer",),
            user_id,
            neighbours,
            lambda user: [
                (layer,)
                for layer in self.journal.layers(datamart, user)
                if allowed is None or layer in allowed
            ],
        )

    def _member_candidates(
        self,
        datamart: str,
        user_id: str,
        neighbours: list[tuple[str, float]],
        exclude_members: Iterable[tuple[str, str, str]],
    ) -> list[Recommendation]:
        return self._ranked(
            "members",
            ("dimension", "level", "key"),
            user_id,
            neighbours,
            lambda user: [
                (dimension, level, key)
                for (dimension, level), keys in self.journal.member_profile(
                    datamart, user
                ).items()
                for key in keys
            ],
            exclude_members,
        )

    # -- introspection ------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """The profile cache's counters.  The ``memo_*`` names are the
        health schema's: dashboards and the benchmark read them."""
        return {
            "memo_size": len(self._profiles),
            "max_size": self._profiles.max_size,
            "memo_hits": self._profiles.hits,
            "memo_misses": self._profiles.misses,
        }
