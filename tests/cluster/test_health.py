"""The health endpoint's per-backend state tier stats (``state_backend``).

The cluster mode's load balancer (and CI's cluster job) reads this
block: backend kind, rows per store, and the pool worker id.  It names
the stores the service runs on: a service over in-heap stores reports
``memory`` *without* creating any state file, whatever
``REPRO_BACKEND`` selects.
"""

import pytest

from repro.cluster.backend import InMemoryBackend
from repro.cluster.config import make_service_stores, set_shared_backend
from repro.data import build_regional_manager_profile
from repro.service import (
    DatamartRegistry,
    LoginRequest,
    PersonalizationService,
    QueryRequest,
)

QUERY = "SELECT SUM(UnitSales) FROM Sales BY Product.Family"


@pytest.fixture()
def registry(engine, user_schema):
    registry = DatamartRegistry()
    sales = registry.register("sales", engine, description="paper scenario")
    sales.register_user(build_regional_manager_profile(user_schema))
    return registry


class TestDefaultMode:
    def test_health_reports_memory_tier(self, registry, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.delenv("REPRO_WORKER_ID", raising=False)
        service = PersonalizationService(registry)
        block = service.health()["state_backend"]
        assert block["kind"] == "memory"
        assert block["worker_id"] is None
        assert block["stores"] == {}


class TestInHeapStoresUnderSqlite:
    def test_health_reports_memory_and_creates_no_file(
        self, registry, monkeypatch, tmp_path
    ):
        state = tmp_path / "state.sqlite"
        monkeypatch.setenv("REPRO_BACKEND", "sqlite")
        monkeypatch.setenv("REPRO_STATE", str(state))
        monkeypatch.delenv("REPRO_WORKER_ID", raising=False)
        previous = set_shared_backend(None)
        try:
            service = PersonalizationService(
                registry, **make_service_stores(None)
            )
            block = service.health()["state_backend"]
        finally:
            created = set_shared_backend(previous)
            if created is not None:
                created.close()
        assert block == {"kind": "memory", "worker_id": None, "stores": {}}
        assert not state.exists()

    def test_construction_creates_no_shared_backend(
        self, registry, monkeypatch, tmp_path
    ):
        """A service given both stores never asks the environment for
        the process-wide backend."""
        monkeypatch.setenv("REPRO_BACKEND", "sqlite")
        monkeypatch.setenv("REPRO_STATE", str(tmp_path / "state.sqlite"))
        previous = set_shared_backend(None)
        try:
            PersonalizationService(registry, **make_service_stores(None))
        finally:
            created = set_shared_backend(previous)
            if created is not None:
                created.close()
        assert created is None


class TestBackendMode:
    @pytest.fixture()
    def service(self, registry):
        return PersonalizationService(
            registry, **make_service_stores(InMemoryBackend(), "portal")
        )

    def test_health_reports_per_store_rows(self, registry, service, world):
        token = service.login(
            LoginRequest(
                user="ana-garcia",
                datamart=None,
                location=world.stores[0].location,
            )
        ).token
        service.query(token, QueryRequest(q=QUERY))
        block = service.health()["state_backend"]
        assert block["kind"] == "memory"
        # State only: the query's answer stays in this process's heap.
        assert block["stores"] == {"portal:sessions": 1, "portal:journal": 1}
        sessions = block["sessions"]
        assert sessions["live"] == 1
        assert sessions["persisted"] == 1
        assert sessions["rehydrations"] == 0

    def test_worker_id_travels_through(self, registry, service, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_ID", "3")
        assert service.health()["state_backend"]["worker_id"] == 3

    def test_health_is_served_by_the_portal(self, service):
        """The block reaches the HTTP surface unfiltered."""
        from repro.web import PortalApp

        response = PortalApp(service=service).handle("GET", "/api/v1/health")
        assert response.ok
        block = response.json()["state_backend"]
        assert set(block) >= {"kind", "stores", "worker_id"}
