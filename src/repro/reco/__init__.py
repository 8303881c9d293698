"""Workload journal + spatial recommendation subsystem.

The paper personalizes a spatial data warehouse *per user*; the related
work's next step is *recommendation* — suggesting queries, layers and
dimension members a user has not explored yet, based on what similar
users did (Ben Ahmed et al.; Aissa & Gouider's hierarchy+geometry
similarity decomposition).  This package provides the three parts:

* :mod:`repro.reco.journal` — an append-only, thread-safe
  :class:`WorkloadJournal` recording every query, spatial selection and
  layer fetch per ``(datamart, user)``, hooked in at the service façade
  so it observes exactly the traffic the caches do; its one reader for
  recommendation, :meth:`WorkloadJournal.summary`, folds a history into
  a :class:`UserSummary` in one pass;
* :mod:`repro.reco.similarity` — pairwise user similarity combining
  dimension-hierarchy overlap (shared rolled-up members through the
  star's inverted roll-up index) with geometric overlap of the selected
  regions (envelope intersection + centroid distance);
* :mod:`repro.reco.recommender` — ranked suggestions (GeoMDQL query
  texts, layers, dimension members) from the summaries of the top-k most
  similar users, excluding what the target user already has; each
  user's summary and spatial profile are cached together under that
  user's journal position, so a recommendation reads each history at
  most once.
"""

from repro.reco.journal import UserSummary, WorkloadEvent, WorkloadJournal
from repro.reco.recommender import Recommendation, Recommender
from repro.reco.similarity import (
    SpatialProfile,
    build_spatial_profile,
    geometry_similarity,
    hierarchy_similarity,
    user_similarity,
)

__all__ = [
    "Recommendation",
    "Recommender",
    "SpatialProfile",
    "UserSummary",
    "WorkloadEvent",
    "WorkloadJournal",
    "build_spatial_profile",
    "geometry_similarity",
    "hierarchy_similarity",
    "user_similarity",
]
