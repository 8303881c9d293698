"""Seeded inputs: the traffic stream and the rows the loader appends.

The traffic is the repository's own synthetic workload, not a mix made
up for the benchmark: the ``medium`` scale tier of
:mod:`repro.workload.harness` (a 50,000-user population, 240 sessions
over the four tenants of a 20,000-sale world) drawn by
:class:`repro.workload.generator.WorkloadGenerator` from
:func:`repro.workload.cohorts.default_profile` — the analysts, planners
and wanderers cohorts, with their views, roll-ups, spatial selection
reports, layer fetches, recommendation fetches and as-of reads.  Only
the generator's seed is replaced, by ``--seed``; the world is the
tier's fixed world, so ``--seed`` varies the traffic over it.
"""

from __future__ import annotations

import dataclasses
import random

__all__ = ["TIER", "INGEST_EVERY", "traffic", "fact_rows"]

#: The scale tier the traffic comes from.
TIER = "medium"

#: The loader appends one sale before every INGEST_EVERY-th request: the
#: cadence of the repository's mutation-churn benchmark (EXT8 in
#: ``benchmarks/run_benchmarks.py`` appends a fact row every 8th step).
INGEST_EVERY = 8


def traffic(seed: int):
    """The tier's world and the event stream generated with ``seed``."""
    from repro.workload.harness import build_tier_world, generator_for_tier, tier

    selected = tier(TIER)
    selected = dataclasses.replace(
        selected, config=dataclasses.replace(selected.config, seed=seed)
    )
    world = build_tier_world(selected)
    return world, generator_for_tier(selected, world).stream()


def fact_rows(rng: random.Random, members: dict, size: int) -> list[tuple]:
    """``size`` new sales over existing leaf members
    (``members``: dimension name -> sorted leaf keys)."""
    rows = []
    for _ in range(size):
        units = rng.randint(1, 10)
        cost = round(units * rng.uniform(0.5, 80.0), 2)
        rows.append(
            (
                {name: rng.choice(keys) for name, keys in members.items()},
                {
                    "UnitSales": units,
                    "StoreCost": cost,
                    "StoreSales": round(cost * rng.uniform(1.1, 1.6), 2),
                },
            )
        )
    return rows
