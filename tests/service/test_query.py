"""Tests for the façade's query path.

Every query parses against the session's schema, takes the session's
view and scans it: an answer depends on the tenant, the query text, the
session's selection and schema, ``as_of`` and the star, and these tests
pin that dependence through the answers themselves — internal
whitespace and a wider selection change the answer, writes that cannot
reach it leave it equal, a sale appended between queries or during a
scan is counted by the next query, tenants and schema sets answer apart, and the star's
``oracle`` switch answers with the same bytes.
"""

import pytest

from repro.errors import BadRequestError
from repro.data import (
    WorldGeoSource,
    build_regional_manager_profile,
    build_sales_star,
)
from repro.personalization import PersonalizationEngine
from repro.service import (
    DatamartRegistry,
    LoginRequest,
    PageRequest,
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


def _append_sale(star, row_id):
    """Append a copy of fact row ``row_id``."""
    fact_table = star.fact_table()
    row = fact_table.row(row_id)
    star.insert_fact(
        fact_table.fact.name,
        {d: row[d] for d in fact_table.fact.dimension_names},
        {m: row[m] for m in fact_table.fact.measures},
    )


class TestAnswers:
    def test_every_query_scans(self, service, world, monkeypatch):
        """Repeated queries, and a query from another session whose
        selection equals the first's, each run the executor, and each
        response reports the rows its own scan counted."""
        from repro.service import facade

        real_execute = facade.execute
        cell_sets = []

        def counting_execute(*args, **kwargs):
            cell_set = real_execute(*args, **kwargs)
            cell_sets.append(cell_set)
            return cell_set

        monkeypatch.setattr(facade, "execute", counting_execute)
        first = _login(service, world)
        second = _login(service, world)
        first_session = service.sessions.get(first).session
        second_session = service.sessions.get(second).session
        assert (
            first_session.selection.fingerprint()
            == second_session.selection.fingerprint()
        )
        results = [
            service.query(token, QueryRequest(q=QUERY))
            for token in (first, first, first, second)
        ]
        assert len(cell_sets) == 4
        for result, cell_set in zip(results, cell_sets):
            assert result.fact_rows_scanned == cell_set.fact_rows_scanned
            assert result.fact_rows_matched == cell_set.fact_rows_matched
        assert all(r.to_dict() == results[0].to_dict() for r in results)

    def test_internal_whitespace_is_significant(self, service, token):
        """Whitespace inside the query can live inside string literals,
        so two texts differing there answer apart."""
        base = "SELECT COUNT(*) FROM Sales WHERE Store.City.name = 'Alicante'"
        spaced = base.replace("'Alicante'", "'Ali  cante'")
        matched = service.query(token, QueryRequest(q=base))
        unmatched = service.query(token, QueryRequest(q=spaced))
        assert unmatched.fact_rows_matched == 0
        assert matched.fact_rows_matched > 0

    def test_mutating_a_response_leaves_the_next_unchanged(
        self, service, token
    ):
        """A consumer editing a returned row (or the rows list) does not
        reach the next response."""
        first = service.query(token, QueryRequest(q=QUERY))
        pristine = [list(row) for row in first.rows]
        first.rows[0][0] = "VANDALIZED"
        first.rows.clear()
        second = service.query(token, QueryRequest(q=QUERY))
        assert second.rows == pristine
        second.to_dict()["rows"][0][0] = "VANDALIZED"
        assert service.query(token, QueryRequest(q=QUERY)).rows == pristine

    def test_pagination_pages_the_full_answer(self, service, token):
        full = service.query(token, QueryRequest(q=QUERY))
        paged = service.query(
            token, QueryRequest(q=QUERY, page=PageRequest(limit=1, offset=1))
        )
        assert paged.rows == full.rows[1:2]
        assert paged.page.total == len(full.rows)
        assert paged.fact_rows_scanned == full.fact_rows_scanned

    def test_a_wider_selection_widens_the_answer(self, service, token):
        narrow = service.query(token, QueryRequest(q=QUERY))
        for _ in range(4):  # interest threshold is 3
            service.record_selection(
                token,
                SelectionRequest(
                    target="GeoMD.Store.City", condition=WIDEN_CONDITION
                ),
            )
        service.rerun_instance_rules(token)
        widened = service.query(token, QueryRequest(q=QUERY))
        assert narrow.fact_rows_scanned > 0
        assert widened.fact_rows_scanned > narrow.fact_rows_scanned

    def test_writes_that_cannot_change_the_answer_leave_it_equal(
        self, service, token, engine
    ):
        """A feature add on a layer the query does not read, a member add
        no fact row references, and a schema patch adding a layer each
        move the star generation; the next answer equals the first."""
        from repro.geomd import GeometricType
        from repro.geometry import Point

        star = engine.star

        def add_layer():
            star.schema.add_layer("Harbour", GeometricType.POINT)
            star.ensure_layer_table("Harbour")

        first = service.query(token, QueryRequest(q=QUERY))
        writes = [
            lambda: star.add_features(
                "Airport", [("Test Field", Point(0.0, 0.0), None)]
            ),
            lambda: star.add_member("Product", "Family", "Test Family"),
            add_layer,
        ]
        for write in writes:
            generation = star.generation
            write()
            assert star.generation > generation
            fresh = service.query(token, QueryRequest(q=QUERY))
            assert fresh.to_dict() == first.to_dict()

    def test_as_of_answer_is_unchanged_by_later_writes(
        self, service, token, engine
    ):
        """An as-of answer is history: a fact append and a feature add
        after it leave it equal."""
        from repro.geometry import Point

        star = engine.star
        past = QueryRequest(q=QUERY, as_of=star.generation)
        first = service.query(token, past)
        _append_sale(star, 0)
        star.add_features("Airport", [("Test Field", Point(0.0, 0.0), None)])
        again = service.query(token, past)
        assert again.to_dict() == first.to_dict()

    def test_a_sale_appended_between_queries_is_counted(
        self, service, token, engine, monkeypatch
    ):
        """A sale inside the personalized view appended between two
        queries is counted by the second."""
        from repro.service import facade

        real_execute = facade.execute
        selections = []

        def record_selection(star_, query, selection, *args, **kwargs):
            selections.append(selection)
            return real_execute(star_, query, selection, *args, **kwargs)

        monkeypatch.setattr(facade, "execute", record_selection)
        count = QueryRequest(q="SELECT COUNT(*) FROM Sales")
        first = service.query(token, count)
        _append_sale(
            engine.star, next(iter(selections[0])) if selections[0] else 0
        )
        second = service.query(token, count)
        assert second.rows[0][0] == first.rows[0][0] + 1

    def test_a_sale_appended_during_the_scan_is_counted(
        self, service, token, engine, monkeypatch
    ):
        """A sale inside the personalized view that lands while a scan
        runs is counted by the next query."""
        from repro.service import facade

        star = engine.star
        real_execute = facade.execute
        appended = []

        def execute_then_append(star_, query, selection, *args, **kwargs):
            result = real_execute(star_, query, selection, *args, **kwargs)
            if not appended:
                row_id = next(iter(selection)) if selection else 0
                _append_sale(star, row_id)
                appended.append(row_id)
            return result

        monkeypatch.setattr(facade, "execute", execute_then_append)
        count = QueryRequest(q="SELECT COUNT(*) FROM Sales")
        first = service.query(token, count)
        second = service.query(token, count)
        assert appended
        assert second.rows[0][0] == first.rows[0][0] + 1


class TestIsolation:
    def test_schema_sets_answer_apart(self, service, registry, user_schema):
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

    def test_tenants_answer_apart(self, service, world):
        sales = _login(service, world, datamart="sales")
        twin = _login(service, world, datamart="twin")
        personalized = service.query(sales, QueryRequest(q=QUERY))
        unrestricted = service.query(twin, QueryRequest(q=QUERY))
        # The twin tenant has no rules: it scans the whole fact table,
        # the personalized tenant does not.
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


class TestOracle:
    def test_oracle_answers_equal_the_default(self, registry, world):
        default_service = PersonalizationService(registry)
        default_token = _login(default_service, world)
        default = [
            default_service.query(default_token, QueryRequest(q=QUERY))
            for _ in range(2)
        ]
        for datamart in registry:
            datamart.engine.star.oracle = True
        oracle_service = PersonalizationService(registry)
        oracle_token = _login(oracle_service, world)
        oracle = [
            oracle_service.query(oracle_token, QueryRequest(q=QUERY))
            for _ in range(2)
        ]
        bodies = [result.to_dict() for result in default + oracle]
        assert all(body == bodies[0] for body in bodies)
