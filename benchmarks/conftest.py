"""Shared benchmark fixtures.

Benchmarks regenerate each paper figure/example (pytest-benchmark timings)
and print the series they measure.  The file names do not match pytest's
default ``test_*.py`` pattern, so name them.  Run with::

    pytest benchmarks/bench_*.py --benchmark-only -s

or, as CI does, once each with the timing off::

    pytest benchmarks/bench_*.py -q --benchmark-disable
"""

import pytest

from repro.data import (
    ALL_PAPER_RULES,
    WorldConfig,
    WorldGeoSource,
    build_motivating_user_model,
    build_regional_manager_profile,
    build_sales_star,
    generate_world,
)
from repro.personalization import PersonalizationEngine

THRESHOLD = 3

#: Warehouse scales used by the sweep benchmarks (QC1/ABL*).
SCALES = {
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
        states_x=4,
        states_y=3,
        cities_per_state=8,
        stores_per_city=6,
        customers_per_city=25,
        train_lines=8,
        sales=40_000,
    ),
}


@pytest.fixture(scope="session")
def world():
    return generate_world(SCALES["small"])


@pytest.fixture()
def star(world):
    return build_sales_star(world)


@pytest.fixture()
def user_schema():
    return build_motivating_user_model()


@pytest.fixture()
def profile(user_schema):
    return build_regional_manager_profile(user_schema)


@pytest.fixture()
def engine(world, star, user_schema):
    eng = PersonalizationEngine(
        star,
        user_schema,
        geo_source=WorldGeoSource(world),
        parameters={"threshold": THRESHOLD},
    )
    eng.add_rules(ALL_PAPER_RULES.values())
    return eng


def build_engine_at_scale(scale_name):
    """Standalone engine builder for parameter sweeps."""
    config = SCALES[scale_name]
    world = generate_world(config)
    star = build_sales_star(world)
    engine = PersonalizationEngine(
        star,
        build_motivating_user_model(),
        geo_source=WorldGeoSource(world),
        parameters={"threshold": THRESHOLD},
    )
    engine.add_rules(ALL_PAPER_RULES.values())
    return world, star, engine
