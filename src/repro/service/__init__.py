"""The personalization *service* layer: transport-independent application
logic behind the versioned ``/api/v1`` web surface.

The seed fused application logic, session state and transport into the
portal class.  This package splits that into reusable parts — typed DTOs
(:mod:`repro.service.dtos`), a session store with TTL/eviction
(:mod:`repro.service.sessions`), multi-datamart tenancy
(:mod:`repro.service.registry`) and the façade that ties them together
(:mod:`repro.service.facade`) — so any adapter (in-process, stdlib HTTP,
a future async front end) can serve the same personalization API.
"""

from repro.service.dtos import (
    DatamartInfo,
    LayerResult,
    LoginRequest,
    LoginResult,
    LogoutResult,
    PageInfo,
    PageRequest,
    QueryRequest,
    QueryResult,
    RecommendationRequest,
    RecommendationResult,
    RerunResult,
    SelectionRequest,
    SelectionResult,
)
from repro.service.facade import CellSetPayload, PersonalizationService
from repro.service.registry import Datamart, DatamartRegistry
from repro.service.sessions import InMemorySessionStore, SessionRecord

__all__ = [
    "CellSetPayload",
    "Datamart",
    "DatamartInfo",
    "DatamartRegistry",
    "InMemorySessionStore",
    "LayerResult",
    "LoginRequest",
    "LoginResult",
    "LogoutResult",
    "PageInfo",
    "PageRequest",
    "PersonalizationService",
    "QueryRequest",
    "QueryResult",
    "RecommendationRequest",
    "RecommendationResult",
    "RerunResult",
    "SelectionRequest",
    "SelectionResult",
    "SessionRecord",
]
