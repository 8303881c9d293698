"""Scale tiers and portal factories for the workload engine.

A :class:`WorkloadTier` binds a generator configuration (population,
sessions, interleaving width, fact multiplier) to a world scale, so
"run the medium tier" means the same thing in the repository benchmark
(``perfbench/``), the ``repro workload`` CLI and the tier-1 gates.  The
tier ladder:

========  ============  ==========  ========  =================
tier      population    sessions    world     fact multiplier
========  ============  ==========  ========  =================
smoke     200           12          small     1
small     2,000         48          small     1
medium    50,000        240         medium    2
large     1,000,000     1,200       large     5
========  ============  ==========  ========  =================

Populations are *numbers* — the generator materializes only the users
that sessions actually sample — so the large tier's million users cost
its 1,200 sessions, not a million profile objects.  Only the sampled
(active) users are registered on the portal.

:func:`build_workload_portal` builds both serving topologies: without a
backend, a single-process in-memory portal (in-heap stores, immune to
``REPRO_BACKEND`` in the surrounding environment); with one, the
worker-pool wiring — every store
backend-backed under fixed namespaces — suitable as a
:class:`~repro.cluster.pool.WorkerPool` app factory.  Both register the
same users over the same deterministic world, which is what makes the
identical-response gate between targets meaningful.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ReproError
from repro.workload.cohorts import (
    WorkloadProfile,
    candidate_locations,
    default_profile,
    profile_from_journal,
)
from repro.workload.generator import (
    EventStream,
    GeneratorConfig,
    WorkloadGenerator,
)

__all__ = [
    "WORKLOAD_TENANTS",
    "WORLD_SCALES",
    "WORKLOAD_TIERS",
    "WorkloadTier",
    "tier",
    "build_tier_world",
    "generator_for_tier",
    "build_workload_portal",
    "demo_journal_profile",
    "stream_for_tier",
]

#: The multi-tenant layout every workload portal uses: four identical
#: tenants, ring-balanced 2/2 across a two-worker pool.
WORKLOAD_TENANTS = ("dm-0", "dm-1", "dm-2", "dm-3")

THRESHOLD = 3

#: Live sessions each workload portal process keeps; a pool worker
#: spills the least recently used beyond it (they rehydrate on use).
WORKLOAD_LIVE_SESSIONS = 256


def _world_scales() -> dict:
    from repro.data import WorldConfig

    return {
        "small": WorldConfig(seed=7, sales=2_000),
        "medium": WorldConfig(
            seed=7,
            cities_per_state=8,
            stores_per_city=5,
            customers_per_city=20,
            sales=10_000,
        ),
        "large": WorldConfig(
            seed=7,
            cities_per_state=10,
            stores_per_city=8,
            customers_per_city=30,
            sales=50_000,
        ),
    }


class _LazyScales:
    """Mapping facade so importing this module doesn't import the data
    package until a world is actually needed."""

    def __getitem__(self, key: str):
        return _world_scales()[key]

    def keys(self):
        return _world_scales().keys()

    def __iter__(self):
        return iter(_world_scales())


#: The world-size ladder every tier and ``repro workload replay`` reads.
WORLD_SCALES = _LazyScales()


@dataclass(frozen=True)
class WorkloadTier:
    """One named point on the scale ladder."""

    name: str
    world_scale: str
    config: GeneratorConfig
    description: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "world_scale": self.world_scale,
            "config": self.config.to_dict(),
            "description": self.description,
        }


WORKLOAD_TIERS: dict[str, WorkloadTier] = {
    "smoke": WorkloadTier(
        name="smoke",
        world_scale="small",
        config=GeneratorConfig(
            seed=10,
            users=200,
            sessions=12,
            events_per_session=(5, 9),
            concurrency=4,
            datamarts=WORKLOAD_TENANTS,
            fact_multiplier=1,
        ),
        description="CI-affordable sanity tier (seconds, not minutes)",
    ),
    "small": WorkloadTier(
        name="small",
        world_scale="small",
        config=GeneratorConfig(
            seed=10,
            users=2_000,
            sessions=48,
            events_per_session=(6, 12),
            concurrency=8,
            datamarts=WORKLOAD_TENANTS,
            fact_multiplier=1,
        ),
        description="The historical fixture scale, now with real traffic",
    ),
    "medium": WorkloadTier(
        name="medium",
        world_scale="medium",
        config=GeneratorConfig(
            seed=10,
            users=50_000,
            sessions=240,
            events_per_session=(8, 14),
            concurrency=16,
            datamarts=WORKLOAD_TENANTS,
            fact_multiplier=2,
        ),
        description="50k-user population over a 20k-row fact table",
    ),
    "large": WorkloadTier(
        name="large",
        world_scale="large",
        config=GeneratorConfig(
            seed=10,
            users=1_000_000,
            sessions=1_200,
            events_per_session=(8, 16),
            concurrency=32,
            datamarts=WORKLOAD_TENANTS,
            fact_multiplier=5,
        ),
        description="Million-user population over a 250k-row fact table",
    ),
}


def tier(name: str) -> WorkloadTier:
    try:
        return WORKLOAD_TIERS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOAD_TIERS))
        raise ReproError(f"unknown workload tier {name!r} (known: {known})")


def build_tier_world(tier: WorkloadTier):
    """The tier's deterministic world, fact multiplier applied."""
    from repro.data import generate_world

    base = _world_scales()[tier.world_scale]
    config = dataclasses.replace(
        base, sales=base.sales * tier.config.fact_multiplier
    )
    return generate_world(config)


def generator_for_tier(
    tier: WorkloadTier,
    world,
    profile: WorkloadProfile | None = None,
) -> WorkloadGenerator:
    """A generator whose login locations are the world's store points."""
    return WorkloadGenerator(
        profile if profile is not None else default_profile(),
        tier.config,
        candidate_locations(store.location for store in world.stores),
    )


def _synthetic_profile(user_id: str):
    """A registered profile for one synthetic user (same role as the
    paper's regional manager, so every personalization rule applies)."""
    from repro.data import build_motivating_user_model
    from repro.sus.model import UserProfile

    profile = UserProfile(build_motivating_user_model(), user_id=user_id)
    profile.set("DecisionMaker.name", user_id)
    profile.set("DecisionMaker.dm2role.name", "RegionalSalesManager")
    return profile


def build_workload_portal(
    world,
    active_users,
    datamarts=WORKLOAD_TENANTS,
    backend=None,
):
    """A multi-tenant portal ready to replay a generated stream.

    ``active_users`` is :meth:`EventStream.active_users` (or any
    iterable of ``(datamart, user_id, cohort)``): only sampled users are
    registered, which is what keeps million-user population tiers cheap.
    With ``backend``, the session store and the journal are
    backend-backed under the fixed ``wl`` namespace — pass the same
    backend to every worker of a pool; without, they are in-heap.  The
    view stores are in-heap either way.

    The world is loaded once per portal: every tenant serves its own
    :meth:`~repro.storage.star.StarSchema.copy` of one loaded star,
    which answers every read as a star loaded for that tenant alone.
    """
    from repro.data import build_sales_star

    star = build_sales_star(world)
    return _portal_over(
        world, {name: star.copy() for name in datamarts}, active_users, backend
    )


def _portal_over(world, stars, active_users, backend):
    """The portal :func:`build_workload_portal` describes, over ``stars``
    (datamart name -> the tenant's star, in registration order)."""
    from repro.cluster.config import make_service_stores
    from repro.data import (
        ALL_PAPER_RULES,
        WorldGeoSource,
        build_motivating_user_model,
    )
    from repro.personalization import PersonalizationEngine
    from repro.service import DatamartRegistry, PersonalizationService
    from repro.web import PortalApp

    users_by_tenant: dict[str, list[str]] = {}
    for datamart, user_id, _cohort in active_users:
        users_by_tenant.setdefault(datamart, []).append(user_id)
    unknown = set(users_by_tenant) - set(stars)
    if unknown:
        raise ReproError(
            f"stream logs into unregistered datamarts: {sorted(unknown)}"
        )
    registry = DatamartRegistry()
    for index, (name, star) in enumerate(stars.items()):
        engine = PersonalizationEngine(
            star,
            build_motivating_user_model(),
            geo_source=WorldGeoSource(world),
            parameters={"threshold": THRESHOLD},
        )
        engine.add_rules(ALL_PAPER_RULES.values())
        tenant = registry.register(
            name, engine, description="workload tenant", default=index == 0
        )
        for user_id in sorted(set(users_by_tenant.get(name, ()))):
            tenant.register_user(_synthetic_profile(user_id))
    service = PersonalizationService(
        registry,
        **make_service_stores(
            backend, "wl", ttl=3600.0, max_sessions=WORKLOAD_LIVE_SESSIONS
        ),
    )
    return PortalApp(service=service)


def demo_journal_profile(similarity: float = 0.5) -> WorkloadProfile:
    """Reverse-ETL seed: cohorts mined from the demo workload's journal.

    Builds a throwaway single-tenant portal, replays the paper's
    three-analyst demo workload through it, and derives cohort
    parameters from the recorded journal — the profile whose replayed
    traffic the containment test checks against the organic sessions.
    """
    from repro.data import (
        ALL_PAPER_RULES,
        WorldGeoSource,
        build_motivating_user_model,
        build_regional_manager_profile,
        build_sales_star,
        generate_world,
        replay_demo_workload,
    )
    from repro.personalization import PersonalizationEngine
    from repro.web import PortalApp

    world = generate_world(_world_scales()["small"])
    engine = PersonalizationEngine(
        build_sales_star(world),
        build_motivating_user_model(),
        geo_source=WorldGeoSource(world),
        parameters={"threshold": THRESHOLD},
    )
    engine.add_rules(ALL_PAPER_RULES.values())
    app = PortalApp(engine, datamart_name="sales")
    app.register_user(build_regional_manager_profile(build_motivating_user_model()))
    replay_demo_workload(app, world)
    return profile_from_journal(
        app.service.journal, "sales", similarity=similarity
    )


def stream_for_tier(
    tier: WorkloadTier,
    world=None,
    profile: WorkloadProfile | None = None,
) -> EventStream:
    """Convenience: world → generator → stream in one call."""
    if world is None:
        world = build_tier_world(tier)
    return generator_for_tier(tier, world, profile=profile).stream()
