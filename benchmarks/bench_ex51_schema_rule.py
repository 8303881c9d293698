"""EX51 — the addSpatiality schema rule (Example 5.1): the tenant loads
what the rule names when it is registered, and a regional manager's
login adds it to that session's schema."""

from repro.data import (
    ADD_SPATIALITY,
    WorldGeoSource,
    build_regional_manager_profile,
    build_sales_star,
)
from repro.personalization import PersonalizationEngine


def test_ex51_schema_rule(benchmark, world, user_schema):
    source = WorldGeoSource(world)

    def run_schema_rule():
        star = build_sales_star(world)
        engine = PersonalizationEngine(star, user_schema, geo_source=source)
        engine.add_rule(ADD_SPATIALITY)
        session = engine.start_session(build_regional_manager_profile(user_schema))
        return session.outcomes[0], star, session

    (outcome, star, session) = benchmark(run_schema_rule)
    assert outcome.layers_added == ["Airport"]
    assert outcome.levels_spatialized == ["Store.Store"]
    assert len(star.layer_table("Airport")) == len(world.airports)
    store = star.dimension_table("Store").members("Store")[0]
    assert store.geometry is not None
    assert session.context.geomd_schema.is_spatial_level("Store.Store")
    print("\n[EX51] addSpatiality executed:")
    print(
        f"  layers added={outcome.layers_added}, "
        f"levels spatialized={outcome.levels_spatialized}, "
        f"airports loaded={len(star.layer_table('Airport'))}, "
        f"stores backfilled={star.dimension_table('Store').size('Store')}"
    )
