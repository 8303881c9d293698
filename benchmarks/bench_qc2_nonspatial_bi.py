"""QC2 — non-spatial BI tools benefit (Section 4.2.4).

"Each decision maker could take advantage ... even if the BI tool used
for the analysis does not support spatial data."  The bench runs a purely
relational GeoMDQL query (no spatial operator in the query text) over the
personalized view and checks the result equals a spatially-filtered query
a spatial engine would have had to run itself.
"""

from repro.data import build_regional_manager_profile
from repro.olap import execute, parse_query

PLAIN_QUERY = "SELECT SUM(StoreSales), COUNT(*) FROM Sales BY Store.State"
SPATIAL_QUERY = (
    "SELECT SUM(StoreSales), COUNT(*) FROM Sales BY Store.State "
    "WHERE DISTANCE(Store, LAYER Airport) < 20 KM"
)

NEAR_AIRPORT_STORES = """\
Rule:nearAirportStores When SessionStart do
  Foreach s in (GeoMD.Store)
    Foreach a in (GeoMD.Airport)
      If (Distance(s.geometry, a.geometry) < 20km) then
        SelectInstance(s)
      endIf
    endForeach
  endForeach
endWhen
"""


def test_qc2_nonspatial_bi(benchmark, engine, star, user_schema):
    # Replace the location rule with an airports-proximity instance rule so
    # the personalized view mirrors the spatial WHERE clause exactly.
    engine.rule("5kmStores").enabled = False
    engine.rule("TrainAirportCity").enabled = False
    engine.add_rule(NEAR_AIRPORT_STORES)
    profile = build_regional_manager_profile(user_schema)
    session = engine.start_session(profile)
    view = session.view()

    plain = parse_query(PLAIN_QUERY, session.context.geomd_schema)

    def non_spatial_tool():
        return execute(star, plain, view.fact_rows)

    personalized_result = benchmark(non_spatial_tool)

    # A spatial engine evaluating the condition itself must agree.
    spatial_result = execute(star, parse_query(SPATIAL_QUERY, session.context.geomd_schema))
    assert personalized_result.cells == spatial_result.cells
    assert personalized_result.fact_rows_scanned < len(star.fact_table())

    print("\n[QC2] non-spatial BI over personalized view == spatial engine:")
    print(personalized_result.format_table())
    print(
        f"  personalized scan: {personalized_result.fact_rows_scanned} rows; "
        f"spatial-engine scan: {spatial_result.fact_rows_scanned} rows "
        f"(of {len(star.fact_table())})"
    )
    session.end()
