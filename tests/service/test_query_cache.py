"""Tests for the façade's LRU query-result cache.

The cache key is ``(datamart, canonical query text, selection
fingerprint, as_of)`` and each payload carries per-dimension generation
stamps revalidated on read — these tests pin the protocol: hits only
while every stamp matches, misses on any selection change or any star
mutation the query's inputs depend on, warm entries through mutations
they provably don't (PR 9), entries shared across sessions exactly when
their selections hold the same content, never across tenants,
byte-identical responses with the cache disabled, and bounded size.
"""

import pytest

from repro.data import (
    WorldGeoSource,
    build_regional_manager_profile,
    build_sales_star,
)
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

    def test_unrelated_feature_mutation_keeps_entry_warm(
        self, service, token, engine
    ):
        """PR 9: the payload's stamps cover only the layers the query's
        spatial filters read — a feature insert elsewhere leaves the
        entry warm, and the warm answer equals a fresh build."""
        from repro.geometry import Point

        first = service.query(token, QueryRequest(q=QUERY))
        engine.star.add_feature("Airport", "Test Field", Point(0.0, 0.0))
        warm = service.query(token, QueryRequest(q=QUERY))
        assert service.query_cache_hits == 1
        assert service.query_cache_misses == 1
        assert warm.to_dict() == first.to_dict()

    def test_fact_insert_misses(self, service, token, engine):
        """A fact append moves the fact stamp, so the entry is stale."""
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
        """The answer is stamped with the generations it was computed
        from: a sale that lands while the scan runs leaves the entry
        stale, so the repeated query counts it."""
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

    def test_member_update_misses(self, service, token, engine):
        """An in-place member update on a dimension of the queried fact
        moves that dimension's stamp."""
        service.query(token, QueryRequest(q=QUERY))
        engine.star.note_member_change("Product", op="update")
        service.query(token, QueryRequest(q=QUERY))
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
        uncached_service = PersonalizationService(registry, query_cache_size=0)
        cached_token = _login(cached_service, world)
        uncached_token = _login(uncached_service, world)
        warm = cached_service.query(cached_token, QueryRequest(q=QUERY))
        hit = cached_service.query(cached_token, QueryRequest(q=QUERY))
        cold = uncached_service.query(uncached_token, QueryRequest(q=QUERY))
        again = uncached_service.query(uncached_token, QueryRequest(q=QUERY))
        assert uncached_service.query_cache_hits == 0
        assert uncached_service.query_cache_misses == 0
        assert hit.to_dict() == warm.to_dict() == cold.to_dict()
        assert again.to_dict() == cold.to_dict()

    def test_negative_size_rejected(self, registry):
        with pytest.raises(ValueError):
            PersonalizationService(registry, query_cache_size=-1)

    def test_lru_eviction_bounds_entries(self, registry, world):
        service = PersonalizationService(registry, query_cache_size=2)
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
        if hasattr(service._query_cache, "backend"):
            # Backend-backed cache (REPRO_BACKEND=sqlite): the L1 evicted
            # the oldest entry but the shared L2 retained it, so the
            # re-query is a decode hit rather than a rebuild.
            assert service.query_cache_misses == misses
        else:
            # The oldest entry was evicted: querying it again is a miss.
            assert service.query_cache_misses == misses + 1
