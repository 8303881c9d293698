"""Examples 5.1 + 5.2 walked end to end, with the schema diff printed.

The regional sales manager scenario: the ``addSpatiality`` schema rule
adds the Airport layer and spatializes the Store level (Fig. 2 → Fig. 6),
then ``5kmStores`` pre-selects the stores within 5 km of the manager's
location so every succeeding analysis — in any BI tool — only sees them.

Run:  python examples/regional_manager.py
"""

from repro.data import (
    ADD_CITY_SPATIALITY,
    ADD_SPATIALITY,
    FIVE_KM_STORES,
    WorldGeoSource,
    build_motivating_user_model,
    build_regional_manager_profile,
    build_sales_schema,
    build_sales_star,
    generate_world,
)
from repro.geomd import GeoMDSchema
from repro.mdm import diff_schemas
from repro.olap import parse_query, execute
from repro.personalization import PersonalizationEngine


def main() -> None:
    world = generate_world()
    star = build_sales_star(world)
    engine = PersonalizationEngine(
        star,
        build_motivating_user_model(),
        geo_source=WorldGeoSource(world),
    )
    engine.add_rules([ADD_SPATIALITY, ADD_CITY_SPATIALITY, FIVE_KM_STORES])

    before = GeoMDSchema.from_md(build_sales_schema())

    profile = build_regional_manager_profile(name="Ana Garcia")
    location = world.cities[0].location
    print(f"Ana logs in from {world.cities[0].name} {location.wkt}")
    session = engine.start_session(profile, location=location)

    print("\n--- Example 5.1: schema personalization (Fig. 2 -> Fig. 6) ---")
    print(diff_schemas(before, session.context.geomd_schema).summary())

    print("\n--- Example 5.2: instance personalization ---")
    selected = sorted(session.selection.members[("Store", "Store")])
    print(f"stores within 5 km of Ana: {len(selected)}")
    for name in selected:
        store = next(s for s in world.stores if s.name == name)
        distance = store.location.distance_to(location)
        print(f"  {name:30s} {distance/1000:5.2f} km")

    print("\n--- Succeeding analysis (GeoMDQL over the personalized view) ---")
    view = session.view()
    query = parse_query(
        "SELECT SUM(StoreSales), COUNT(*) FROM Sales BY Time.Month",
        session.context.geomd_schema,
    )
    result = execute(star, query, view.fact_rows)
    print(result.format_table())
    print(
        f"\n(scanned {result.fact_rows_scanned} personalized rows instead of "
        f"{len(star.fact_table())})"
    )
    session.end()


if __name__ == "__main__":
    main()
