"""Web portal simulation: the "web-based" half of the paper's title.

Plain request/response objects and a GeWOlap-style portal app exposing
the personalization service as a versioned ``/api/v1`` REST surface
(login → personalized view → GeoMDQL queries → spatial-selection events
→ logout) through one fixed request pipeline, plus a stdlib HTTP adapter
for interactive use.  Application logic, session storage and
multi-datamart tenancy live in :mod:`repro.service`.
"""

from repro.web.http import (
    Request,
    Response,
    error_response,
    json_response,
    parse_json_body,
)
from repro.web.portal import API_PREFIX, PortalApp

__all__ = [
    "API_PREFIX",
    "PortalApp",
    "Request",
    "Response",
    "error_response",
    "json_response",
    "parse_json_body",
]
