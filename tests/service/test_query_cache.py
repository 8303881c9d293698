"""Tests for the façade's LRU query-result cache.

The cache key is ``(datamart, canonical query text, selection
fingerprint, schema set, as_of, star generation)``, the generation read
before the answer is computed; an as-of key carries no live generation —
these tests pin the protocol: hits only while the star stands still,
misses on any selection change or any star mutation, as-of entries warm
across mutations, entries shared across sessions exactly when their
selections hold the same content under the same schema, never across
tenants, byte-identical responses with the star's ``oracle`` switch
set, and bounded size.
"""

import pytest

from repro.errors import BadRequestError
from repro.geomd import GeometricType
from repro.data import (
    WorldGeoSource,
    build_regional_manager_profile,
    build_sales_star,
)
from repro.lru import ThreadSafeLRU
from repro.personalization import PersonalizationEngine
from repro.service import (
    DatamartRegistry,
    LoginRequest,
    PersonalizationService,
    QueryRequest,
    SelectionRequest,
)

QUERY = "SELECT SUM(UnitSales) FROM Sales BY Product.Family"
WIDEN_CONDITION = (
    "Distance(GeoMD.Store.City.geometry, GeoMD.Airport.geometry)<20km"
)


@pytest.fixture()
def registry(engine, world, user_schema):
    registry = DatamartRegistry()
    sales = registry.register("sales", engine, description="paper scenario")
    sales.register_user(build_regional_manager_profile(user_schema))
    twin_engine = PersonalizationEngine(
        build_sales_star(world),
        user_schema,
        geo_source=WorldGeoSource(world),
    )
    twin = registry.register("twin", twin_engine, description="no rules")
    twin.register_user(build_regional_manager_profile(user_schema))
    return registry


@pytest.fixture()
def service(registry):
    return PersonalizationService(registry)


def _login(service, world, datamart=None):
    location = world.stores[0].location
    return service.login(
        LoginRequest(user="ana-garcia", datamart=datamart, location=location)
    ).token


@pytest.fixture()
def token(service, world):
    return _login(service, world)


class TestHitsAndMisses:
    def test_repeat_query_hits(self, service, token):
        first = service.query(token, QueryRequest(q=QUERY))
        assert service.query_cache_misses == 1
        second = service.query(token, QueryRequest(q=QUERY))
        assert service.query_cache_hits == 1
        assert second.to_dict() == first.to_dict()

    def test_surrounding_whitespace_is_canonicalized(self, service, token):
        service.query(token, QueryRequest(q=QUERY))
        service.query(token, QueryRequest(q=f"  {QUERY}\n"))
        assert service.query_cache_hits == 1

    def test_internal_whitespace_is_significant(self, service, token):
        """Whitespace inside the query can live inside string literals —
        two queries differing there must never share a cache entry."""
        base = "SELECT COUNT(*) FROM Sales WHERE Store.City.name = 'Alicante'"
        spaced = base.replace("'Alicante'", "'Ali  cante'")
        hit = service.query(token, QueryRequest(q=base))
        miss = service.query(token, QueryRequest(q=spaced))
        assert service.query_cache_hits == 0
        assert service.query_cache_misses == 2
        assert miss.fact_rows_matched == 0
        assert hit.fact_rows_matched > 0

    def test_mutating_a_response_never_poisons_the_cache(self, service, token):
        """Satellite regression: cached payload rows are frozen tuples and
        every response materializes fresh lists — a consumer editing a
        returned row (or the rows list) must not corrupt later hits."""
        first = service.query(token, QueryRequest(q=QUERY))
        pristine = [list(row) for row in first.rows]
        first.rows[0][0] = "VANDALIZED"
        first.rows.clear()
        second = service.query(token, QueryRequest(q=QUERY))
        assert service.query_cache_hits == 1
        assert second.rows == pristine
        second.to_dict()["rows"][0][0] = "VANDALIZED"
        assert service.query(token, QueryRequest(q=QUERY)).rows == pristine

    def test_cached_payload_rows_are_frozen(self, service, token):
        service.query(token, QueryRequest(q=QUERY))
        (payload,) = list(service._query_cache._entries.values())
        assert isinstance(payload.rows, tuple)
        assert all(isinstance(row, tuple) for row in payload.rows)

    def test_pagination_shares_one_entry(self, service, token):
        from repro.service import PageRequest

        full = service.query(token, QueryRequest(q=QUERY))
        paged = service.query(
            token, QueryRequest(q=QUERY, page=PageRequest(limit=1))
        )
        assert service.query_cache_hits == 1
        assert paged.rows == full.rows[:1]
        assert paged.page.total == len(full.rows)

    def test_selection_generation_change_misses(self, service, token):
        service.query(token, QueryRequest(q=QUERY))
        for _ in range(4):  # interest threshold is 3
            service.record_selection(
                token,
                SelectionRequest(
                    target="GeoMD.Store.City", condition=WIDEN_CONDITION
                ),
            )
        service.rerun_instance_rules(token)
        before_hits = service.query_cache_hits
        widened = service.query(token, QueryRequest(q=QUERY))
        assert service.query_cache_hits == before_hits
        assert service.query_cache_misses == 2
        assert widened.fact_rows_scanned > 0

    def test_feature_member_and_schema_mutations_miss(
        self, service, token, engine
    ):
        """Every mutation moves the star generation, so the repeat query
        misses even when the mutation cannot change its answer: a
        feature add on a layer the query does not read, a member add
        no fact row references, and a schema patch adding a layer.  The
        fresh answer equals the first."""
        from repro.geomd import GeometricType
        from repro.geometry import Point

        star = engine.star

        def add_layer():
            star.schema.add_layer("Harbour", GeometricType.POINT)
            star.ensure_layer_table("Harbour")

        first = service.query(token, QueryRequest(q=QUERY))
        mutations = [
            lambda: star.add_features(
                "Airport", [("Test Field", Point(0.0, 0.0), None)]
            ),
            lambda: star.add_member("Product", "Family", "Test Family"),
            add_layer,
        ]
        for count, mutate in enumerate(mutations, start=2):
            mutate()
            fresh = service.query(token, QueryRequest(q=QUERY))
            assert service.query_cache_hits == 0
            assert service.query_cache_misses == count
            assert fresh.to_dict() == first.to_dict()

    def test_as_of_entry_stays_warm_across_mutations(
        self, service, token, engine
    ):
        """An as-of answer is history: its key carries no live
        generation, so a fact append and a feature add leave it cached,
        and the cached answer equals the first."""
        from repro.geometry import Point

        star = engine.star
        fact_table = star.fact_table()
        row = fact_table.row(0)
        past = QueryRequest(q=QUERY, as_of=star.generation)
        first = service.query(token, past)
        star.insert_fact(
            fact_table.fact.name,
            {d: row[d] for d in fact_table.fact.dimension_names},
            {m: row[m] for m in fact_table.fact.measures},
        )
        star.add_features("Airport", [("Test Field", Point(0.0, 0.0), None)])
        again = service.query(token, past)
        assert service.query_cache_misses == 1
        assert service.query_cache_hits == 1
        assert again.to_dict() == first.to_dict()

    def test_fact_insert_misses(self, service, token, engine):
        """A fact append moves the star generation, so the entry is
        unreachable."""
        service.query(token, QueryRequest(q=QUERY))
        star = engine.star
        fact_table = star.fact_table()
        row = fact_table.row(0)
        star.insert_fact(
            fact_table.fact.name,
            {d: row[d] for d in fact_table.fact.dimension_names},
            {m: row[m] for m in fact_table.fact.measures},
        )
        service.query(token, QueryRequest(q=QUERY))
        assert service.query_cache_hits == 0
        assert service.query_cache_misses == 2

    def test_sale_appended_during_the_scan_is_not_served_stale(
        self, service, token, engine, monkeypatch
    ):
        """The answer is keyed on the generation read before the scan:
        a sale that lands while the scan runs files the entry under a
        generation the star has left, so the repeated query counts it."""
        from repro.service import facade

        star = engine.star
        fact_table = star.fact_table()
        real_execute = facade.execute
        appended = []

        def execute_then_append(star_, query, selection, *args, **kwargs):
            result = real_execute(star_, query, selection, *args, **kwargs)
            if not appended:
                # A sale inside the personalized view, so the count moves.
                row = fact_table.row(next(iter(selection)) if selection else 0)
                star.insert_fact(
                    fact_table.fact.name,
                    {d: row[d] for d in fact_table.fact.dimension_names},
                    {m: row[m] for m in fact_table.fact.measures},
                )
                appended.append(row)
            return result

        monkeypatch.setattr(facade, "execute", execute_then_append)
        count = QueryRequest(q="SELECT COUNT(*) FROM Sales")
        first = service.query(token, count)
        second = service.query(token, count)
        assert appended
        assert second.rows[0][0] == first.rows[0][0] + 1
        assert service.query_cache_hits == 0

    def test_member_update_misses(self, service, token, engine, world):
        """A geometry load on a dimension of the queried fact moves the
        star generation."""
        service.query(token, QueryRequest(q=QUERY))
        engine.star.become_spatial(
            "Store.Store",
            GeometricType.POINT,
            WorldGeoSource(world).level_geometries("Store", "Store"),
        )
        service.query(token, QueryRequest(q=QUERY))
        assert service.query_cache_hits == 0
        assert service.query_cache_misses == 2

    def test_geometry_load_carries_the_view_and_misses(
        self, service, token, engine, world
    ):
        """A session whose selection references Store keeps its view
        object across a City geometry load (no parent link moves), with
        no build and no invalidation; its next query still misses, since
        the cache keys on the star generation."""
        session = service.sessions.get(token).session
        assert ("Store", "Store") in session.selection.members
        service.query(token, QueryRequest(q=QUERY))
        warm = session.view()
        before = engine.view_store.stats()
        engine.star.become_spatial(
            "Store.City",
            GeometricType.POINT,
            WorldGeoSource(world).level_geometries("Store", "City"),
        )
        service.query(token, QueryRequest(q=QUERY))
        assert session.view() is warm
        after = engine.view_store.stats()
        assert after["builds"] == before["builds"]
        assert after["invalidations"] == before["invalidations"]
        assert service.query_cache_hits == 0
        assert service.query_cache_misses == 2


class TestIsolation:
    def test_equal_selections_share_entries_across_sessions(
        self, service, world
    ):
        """PR 4 semantics: the key carries the selection *fingerprint*
        (content identity), so two sessions of one tenant whose
        personalization landed on the same instances share one entry."""
        first = _login(service, world)
        second = _login(service, world)
        result_one = service.query(first, QueryRequest(q=QUERY))
        result_two = service.query(second, QueryRequest(q=QUERY))
        assert service.query_cache_misses == 1
        assert service.query_cache_hits == 1
        assert result_one.to_dict() == result_two.to_dict()

    def test_differing_selections_never_share_entries(self, service, world):
        first = _login(service, world)
        second = _login(service, world)
        service.query(first, QueryRequest(q=QUERY))
        # Widen the second session's selection past the first's.
        for _ in range(4):  # interest threshold is 3
            service.record_selection(
                second,
                SelectionRequest(
                    target="GeoMD.Store.City", condition=WIDEN_CONDITION
                ),
            )
        service.rerun_instance_rules(second)
        service.query(second, QueryRequest(q=QUERY))
        assert service.query_cache_misses == 2
        assert service.query_cache_hits == 0

    def test_differing_schema_sets_never_share_entries(
        self, service, registry, user_schema
    ):
        """Without a location both selections are empty, but only the
        manager's schema makes Store spatial and holds the Airport
        layer: the analyst's spatial query stays a query error."""
        analyst = build_regional_manager_profile(user_schema, name="Dan Analyst")
        analyst.set("DecisionMaker.dm2role.name", "Analyst")
        registry.get("sales").register_user(analyst)
        manager = service.login(LoginRequest(user="ana-garcia")).token
        other = service.login(LoginRequest(user="dan-analyst")).token
        spatial = "SELECT COUNT(*) FROM Sales WHERE DISTANCE(Store, LAYER Airport) < 20 KM"
        assert service.query(manager, QueryRequest(q=spatial)).rows
        with pytest.raises(BadRequestError) as excinfo:
            service.query(other, QueryRequest(q=spatial))
        assert excinfo.value.code == "query_error"
        assert service.query_cache_hits == 0

    def test_tenants_never_share_entries(self, service, world):
        sales = _login(service, world, datamart="sales")
        twin = _login(service, world, datamart="twin")
        personalized = service.query(sales, QueryRequest(q=QUERY))
        unrestricted = service.query(twin, QueryRequest(q=QUERY))
        assert service.query_cache_misses == 2
        assert service.query_cache_hits == 0
        # The twin tenant has no rules: it scans the whole fact table,
        # the personalized tenant does not — a shared entry would have
        # leaked one tenant's personalized rows to the other.
        assert (
            unrestricted.fact_rows_scanned > personalized.fact_rows_scanned
        )


class TestMultiFactDatamart:
    @pytest.fixture()
    def dual_service(self, dual_fact_star, user_schema):
        registry = DatamartRegistry()
        dual = registry.register(
            "dual", PersonalizationEngine(dual_fact_star, user_schema)
        )
        dual.register_user(build_regional_manager_profile(user_schema))
        return PersonalizationService(registry)

    def test_each_fact_queryable_through_service(self, dual_service):
        token = dual_service.login(
            LoginRequest(user="ana-garcia", datamart="dual")
        ).token
        sales = dual_service.query(
            token, QueryRequest(q="SELECT SUM(Units) FROM Sales")
        )
        returns = dual_service.query(
            token, QueryRequest(q="SELECT SUM(Count) FROM Returns")
        )
        assert sales.rows == [[8.0]]
        assert returns.rows == [[1.0]]
        assert dual_service.query_cache_misses == 2

    def test_schema_and_stats_work_without_fact(self, dual_service):
        token = dual_service.login(
            LoginRequest(user="ana-garcia", datamart="dual")
        ).token
        schema = dual_service.schema(token)
        assert {f["name"] for f in schema["facts"]} == {"Sales", "Returns"}
        stats = dual_service.view_stats(token)
        assert set(stats["facts"]) == {"Sales", "Returns"}
        assert stats["facts"]["Sales"]["fact_rows_total"] == 2
        assert stats["facts"]["Returns"]["fact_rows_total"] == 1


class TestConfiguration:
    def test_disabled_cache_is_transparent(self, registry, world):
        cached_service = PersonalizationService(registry)
        cached_token = _login(cached_service, world)
        warm = cached_service.query(cached_token, QueryRequest(q=QUERY))
        hit = cached_service.query(cached_token, QueryRequest(q=QUERY))
        for datamart in registry:
            datamart.engine.star.oracle = True
        oracle_service = PersonalizationService(registry)
        oracle_token = _login(oracle_service, world)
        cold = oracle_service.query(oracle_token, QueryRequest(q=QUERY))
        again = oracle_service.query(oracle_token, QueryRequest(q=QUERY))
        assert oracle_service.query_cache_hits == 0
        assert oracle_service.query_cache_misses == 0
        assert hit.to_dict() == warm.to_dict() == cold.to_dict()
        assert again.to_dict() == cold.to_dict()

    def test_lru_eviction_bounds_entries(self, registry, world):
        service = PersonalizationService(registry, query_cache=ThreadSafeLRU(2))
        token = _login(service, world)
        queries = [
            QUERY,
            "SELECT SUM(StoreSales) FROM Sales BY Product.Family",
            "SELECT COUNT(*) FROM Sales BY Store.City",
        ]
        for q in queries:
            service.query(token, QueryRequest(q=q))
        assert len(service._query_cache) == 2
        misses = service.query_cache_misses
        service.query(token, QueryRequest(q=queries[0]))
        # The oldest entry was evicted: querying it again is a miss.
        assert service.query_cache_misses == misses + 1
