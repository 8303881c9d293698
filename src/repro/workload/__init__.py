"""Synthetic workload engine: generation, replay, measurement.

Three layers behind one import surface:

* **generator** (:mod:`~repro.workload.cohorts`,
  :mod:`~repro.workload.generator`) — cohort blueprints (hand-written or
  reverse-ETL'd from a recorded :class:`~repro.reco.journal.
  WorkloadJournal`) turned into deterministic, seedable, replayable
  event streams;
* **driver** (:mod:`~repro.workload.driver`) — serial / closed-loop /
  open-loop replay of a stream against an in-process portal or a
  pre-fork cluster pool, with latency percentiles and error counts;
* **metrics** (:mod:`~repro.workload.metrics`) — health-route scraping
  bracketing a run: cache hit rates, view patches-vs-rebuilds,
  rehydrations and lock contention.

:mod:`~repro.workload.harness` binds them into named scale tiers
(smoke/small/medium/large) and portal factories shared by the
``repro workload`` CLI, the repository benchmark (``perfbench/``) and
the tier-1 gates.
"""

from repro.workload.cohorts import (
    EVENT_KINDS,
    CohortSpec,
    WorkloadProfile,
    candidate_locations,
    default_profile,
    profile_from_journal,
)
from repro.workload.driver import (
    ClusterTarget,
    InProcessTarget,
    LatencyStats,
    ReplayDriver,
    ReplayReport,
)
from repro.workload.generator import (
    AS_OF_EPOCH,
    STREAM_FORMAT,
    EventStream,
    GeneratorConfig,
    TrafficEvent,
    WorkloadGenerator,
)
from repro.workload.harness import (
    WORKLOAD_TENANTS,
    WORKLOAD_TIERS,
    WorkloadTier,
    build_tier_world,
    build_workload_portal,
    demo_journal_profile,
    generator_for_tier,
    tier,
)
from repro.workload.metrics import (
    contention_summary,
    health_window,
    merge_health,
)

__all__ = [
    "EVENT_KINDS",
    "CohortSpec",
    "WorkloadProfile",
    "candidate_locations",
    "default_profile",
    "profile_from_journal",
    "AS_OF_EPOCH",
    "STREAM_FORMAT",
    "EventStream",
    "GeneratorConfig",
    "TrafficEvent",
    "WorkloadGenerator",
    "ClusterTarget",
    "InProcessTarget",
    "LatencyStats",
    "ReplayDriver",
    "ReplayReport",
    "WORKLOAD_TENANTS",
    "WORKLOAD_TIERS",
    "WorkloadTier",
    "build_tier_world",
    "build_workload_portal",
    "demo_journal_profile",
    "generator_for_tier",
    "tier",
    "contention_summary",
    "health_window",
    "merge_health",
]
