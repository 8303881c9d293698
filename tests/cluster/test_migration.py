"""Cross-version migration: a live in-memory portal moves to sqlite.

The satellite scenario end to end: a portal that grew up on the
(backend-backed) in-memory tier is migrated with
:func:`repro.cluster.migrate.migrate_backend` to a sqlite file, and a
*freshly constructed* service — new engines, new stores, a stand-in for
a new process — over the destination backend resumes it: the old
session token resolves through rehydration with its selection and
schema set restored (no rule fires), the journal keeps its history and
its sequence counter, and the new service recomputes the old answers.
"""

import pytest

from repro.cluster.backend import InMemoryBackend, SqliteBackend
from repro.cluster.config import make_service_stores
from repro.cluster.migrate import migrate_backend
from repro.data import (
    ALL_PAPER_RULES,
    WorldConfig,
    WorldGeoSource,
    build_motivating_user_model,
    build_regional_manager_profile,
    build_sales_star,
    generate_world,
)
from repro.errors import UnauthorizedError
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


def build_portal(backend):
    """A deterministic one-tenant portal over ``backend`` with fixed
    namespaces (the wiring the worker pool uses)."""
    world = generate_world(WorldConfig(seed=7))
    engine = PersonalizationEngine(
        build_sales_star(world),
        build_motivating_user_model(),
        geo_source=WorldGeoSource(world),
        parameters={"threshold": 3},
    )
    engine.add_rules(ALL_PAPER_RULES.values())
    registry = DatamartRegistry()
    sales = registry.register("sales", engine, description="paper scenario")
    sales.register_user(build_regional_manager_profile())
    service = PersonalizationService(
        registry, **make_service_stores(backend, "portal")
    )
    return world, service


class TestLivePortalMigration:
    @pytest.fixture()
    def migrated(self, tmp_path):
        source = InMemoryBackend()
        world, old_service = build_portal(source)
        token = old_service.login(
            LoginRequest(
                user="ana-garcia",
                datamart=None,
                location=world.stores[0].location,
            )
        ).token
        baseline = old_service.query(token, QueryRequest(q=QUERY))
        old_service.record_selection(
            token,
            SelectionRequest(
                target="GeoMD.Store.City", condition=WIDEN_CONDITION
            ),
        )
        positions = old_service.journal.positions("sales")
        assert positions
        session = old_service.sessions.get(token).session

        destination = SqliteBackend(str(tmp_path / "migrated.sqlite"))
        counts = migrate_backend(source, destination)
        _world, new_service = build_portal(destination)
        yield {
            "token": token,
            "baseline": baseline,
            "positions": positions,
            "fingerprint": session.selection.fingerprint(),
            "schema_set": session.context.schema_set,
            "counts": counts,
            "old_service": old_service,
            "new_service": new_service,
        }
        destination.close()

    def test_every_store_row_copied(self, migrated):
        counts = migrated["counts"]
        assert counts["portal:sessions"] == 1
        assert counts["portal:journal"] == 2  # query + selection events
        assert counts["counters"] == 1  # the journal's sequence counter

    def test_old_token_resolves_in_new_process(self, migrated):
        record = migrated["new_service"].sessions.get(migrated["token"])
        assert record.user_id == "ana-garcia"
        assert record.datamart == "sales"
        # The rebuilt session holds the selection and schema set the
        # old one had, restored from the record.
        assert record.session.selection.fingerprint() == migrated["fingerprint"]
        assert record.session.context.schema_set == migrated["schema_set"]
        assert migrated["new_service"].sessions.stats()["rehydrations"] == 1

    def test_queries_resume_with_identical_results(self, migrated):
        result = migrated["new_service"].query(
            migrated["token"], QueryRequest(q=QUERY)
        )
        assert result.rows == migrated["baseline"].rows
        assert result.axes == migrated["baseline"].axes

    def test_journal_history_and_sequence_survive(self, migrated):
        new_journal = migrated["new_service"].journal
        assert new_journal.positions("sales") == migrated["positions"]
        events = new_journal.events("sales", "ana-garcia")
        assert [e.kind for e in events] == ["query", "selection"]
        assert events[0].payload["q"] == QUERY
        # New traffic keeps counting from the migrated sequence counter:
        # a user's position, which the recommender's profile keys carry,
        # only ever grows.
        appended = new_journal.record_query("sales", "ana-garcia", "q2")
        assert appended.seq > events[-1].seq
        assert new_journal.positions("sales") == {"ana-garcia": appended.seq}

    def test_logout_in_new_process_kills_the_token(self, migrated):
        migrated["new_service"].logout(migrated["token"])
        with pytest.raises(UnauthorizedError):
            migrated["new_service"].sessions.get(migrated["token"])
