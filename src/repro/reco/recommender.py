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

Results are memoized under the cache hierarchy's invalidation protocol:
the key carries the tenant's journal generation and star *metadata*
generation (members/features/schema — suggestions never read fact rows,
so fact appends keep the memo warm) plus a caller-supplied context stamp
(e.g. the requesting session's selection ``(uid, generation)`` and its
visible layers) — any journal append, metadata mutation or selection
change is a miss, and nothing is ever invalidated by hand.
``memo_size=0`` disables memoization, and a star whose
:attr:`~repro.storage.star.StarSchema.oracle` switch is set bypasses
both the result memo and the profile cache; the benchmark harness uses
that to prove the memo is transparent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

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


class Recommender:
    """Similarity-driven recommendations over a :class:`WorkloadJournal`."""

    def __init__(
        self,
        journal: WorkloadJournal,
        *,
        top_k: int = 3,
        hierarchy_weight: float = 0.5,
        memo_size: int = 128,
    ) -> None:
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        if memo_size < 0:
            raise ValueError("memo_size must be >= 0")
        self.journal = journal
        self.top_k = top_k
        self.hierarchy_weight = hierarchy_weight
        self.memo_size = memo_size
        self._memo = ThreadSafeLRU(memo_size)
        #: Built profiles are pure functions of ``(datamart, user, journal
        #: generation, star metadata generation)``, so one call per
        #: kind (or per target user) reuses them instead of replaying the
        #: journal per call.  Same invalidation protocol as the result memo;
        #: one entry per journaled user is the working set, bounded
        #: generously relative to the result memo.
        self._profiles = ThreadSafeLRU(max(4 * memo_size, 64))

    @property
    def memo_hits(self) -> int:
        return self._memo.hits

    @property
    def memo_misses(self) -> int:
        return self._memo.misses

    # -- similarity ---------------------------------------------------------------

    def _profile(
        self, datamart: str, user_id: str, star: StarSchema
    ) -> SpatialProfile:
        if star.oracle or self.memo_size == 0:
            return build_spatial_profile(
                star, self.journal.member_profile(datamart, user_id)
            )
        key = (
            datamart,
            user_id,
            self.journal.generation(datamart),
            star.metadata_generation,
        )
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
        target = self._profile(datamart, user_id, star)
        scored: list[tuple[str, float]] = []
        for other in self.journal.users(datamart):
            if other == user_id:
                continue
            similarity = user_similarity(
                target,
                self._profile(datamart, other, star),
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
        context_key: Hashable = None,
    ) -> tuple[list[Recommendation], list[tuple[str, float]]]:
        """Ranked recommendations plus the similar-user ranking behind them.

        ``allowed_layers`` confines layer suggestions to what the target
        session's personalized schema actually exposes (no leaking
        another user's wider schema); ``exclude_members`` removes the
        target session's own live selection on top of the journaled
        exclusions.  ``context_key`` must capture whatever of that
        session state the caller passed in (the façade uses the
        selection's ``(uid, generation)``) so the memo can never answer
        across contexts.
        """
        if kind not in KINDS:
            raise ValueError(
                f"unknown recommendation kind {kind!r}; expected one of {KINDS}"
            )
        k = self.top_k if k is None else k
        memo_key = None
        if not star.oracle and self.memo_size > 0:
            memo_key = (
                datamart,
                user_id,
                kind,
                k,
                self.journal.generation(datamart),
                star.metadata_generation,
                None if allowed_layers is None else frozenset(allowed_layers),
                frozenset(exclude_members),
                context_key,
            )
            cached = self._memo.get(memo_key)
            if cached is not None:
                return list(cached[0]), list(cached[1])

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
        if memo_key is not None:
            self._memo.put(memo_key, (tuple(items), tuple(neighbours)))
        return items, neighbours

    # -- candidate collection -----------------------------------------------------

    def _ranked(
        self,
        kind: str,
        votes: dict[tuple, tuple[dict, float, list[str]]],
    ) -> list[Recommendation]:
        """Sort candidates by score desc, then by identity for stability."""
        recommendations = [
            Recommendation(
                kind=kind,
                item=item,
                score=score,
                supporters=tuple(sorted(supporters)),
            )
            for item, score, supporters in votes.values()
        ]
        recommendations.sort(key=lambda r: (-r.score, sorted(r.item.items())))
        return recommendations

    def _query_candidates(
        self,
        datamart: str,
        user_id: str,
        neighbours: list[tuple[str, float]],
    ) -> list[Recommendation]:
        already_ran = set(self.journal.queries(datamart, user_id))
        votes: dict[tuple, tuple[dict, float, list[str]]] = {}
        for other, similarity in neighbours:
            for q in self.journal.queries(datamart, other):
                if q in already_ran:
                    continue
                item, score, supporters = votes.get((q,), ({"q": q}, 0.0, []))
                votes[(q,)] = (item, score + similarity, supporters + [other])
        return self._ranked("queries", votes)

    def _layer_candidates(
        self,
        datamart: str,
        user_id: str,
        neighbours: list[tuple[str, float]],
        allowed_layers: Iterable[str] | None,
    ) -> list[Recommendation]:
        fetched = self.journal.layers(datamart, user_id)
        allowed = None if allowed_layers is None else set(allowed_layers)
        votes: dict[tuple, tuple[dict, float, list[str]]] = {}
        for other, similarity in neighbours:
            for layer in self.journal.layers(datamart, other):
                if layer in fetched:
                    continue
                if allowed is not None and layer not in allowed:
                    continue
                item, score, supporters = votes.get(
                    (layer,), ({"layer": layer}, 0.0, [])
                )
                votes[(layer,)] = (
                    item,
                    score + similarity,
                    supporters + [other],
                )
        return self._ranked("layers", votes)

    def _member_candidates(
        self,
        datamart: str,
        user_id: str,
        neighbours: list[tuple[str, float]],
        exclude_members: Iterable[tuple[str, str, str]],
    ) -> list[Recommendation]:
        excluded: set[tuple[str, str, str]] = set(exclude_members)
        for (dimension, level), keys in self.journal.member_profile(
            datamart, user_id
        ).items():
            excluded.update((dimension, level, key) for key in keys)
        votes: dict[tuple, tuple[dict, float, list[str]]] = {}
        for other, similarity in neighbours:
            for (dimension, level), keys in self.journal.member_profile(
                datamart, other
            ).items():
                for key in keys:
                    identity = (dimension, level, key)
                    if identity in excluded:
                        continue
                    item, score, supporters = votes.get(
                        identity,
                        (
                            {
                                "dimension": dimension,
                                "level": level,
                                "key": key,
                            },
                            0.0,
                            [],
                        ),
                    )
                    votes[identity] = (
                        item,
                        score + similarity,
                        supporters + [other],
                    )
        return self._ranked("members", votes)

    # -- memo ---------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "memo_size": len(self._memo),
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
        }
