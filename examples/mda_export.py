"""Export a personalized GeoMD schema to SQL (the MDA future work).

Runs the schema rules for the regional sales manager, then generates the
PostGIS star-schema DDL for the *personalized* GeoMD model — the
PIM → PSM transformation the authors' MDA framework performs.

Run:  python examples/mda_export.py
"""

from repro.data import (
    ADD_CITY_SPATIALITY,
    ADD_SPATIALITY,
    WorldGeoSource,
    build_motivating_user_model,
    build_regional_manager_profile,
    build_sales_star,
    generate_world,
)
from repro.mda import generate_ddl
from repro.personalization import PersonalizationEngine


def main() -> None:
    world = generate_world()
    star = build_sales_star(world)
    engine = PersonalizationEngine(
        star,
        build_motivating_user_model(),
        geo_source=WorldGeoSource(world),
    )
    engine.add_rules([ADD_SPATIALITY, ADD_CITY_SPATIALITY])

    profile = build_regional_manager_profile()
    session = engine.start_session(profile)
    schema = session.context.geomd_schema

    print(generate_ddl(schema, dialect="postgis"))
    session.end()


if __name__ == "__main__":
    main()
