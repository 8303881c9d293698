"""Exception hierarchy shared by every subsystem of :mod:`repro`.

Each subsystem raises subclasses of :class:`ReproError` so that callers can
catch a single base class at API boundaries (the web portal, the
personalization engine) while tests can assert on precise failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class GeometryError(ReproError):
    """Invalid geometric construction or unsupported geometric operation."""


class WKTError(GeometryError):
    """Malformed Well-Known Text input."""


class ModelError(ReproError):
    """Invalid (meta)model construction: UML, MD or GeoMD schemas."""


class ProfileError(ModelError):
    """Stereotype/profile misuse (wrong base metaclass, duplicates...)."""


class SchemaError(ModelError):
    """Multidimensional schema violates a structural constraint."""


class StorageError(ReproError):
    """Star-schema storage integrity violation (keys, arity, types)."""


class QueryError(ReproError):
    """Malformed or unresolvable OLAP query."""


class UserModelError(ReproError):
    """Invalid spatial-aware user model structure or profile update."""


class PRMLError(ReproError):
    """Base class for PRML language errors."""


class PRMLSyntaxError(PRMLError):
    """Lexical or syntactic error in PRML source text.

    Carries the 1-based ``line`` and ``column`` of the offending token so
    tooling can point at the rule text.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class PRMLSemanticError(PRMLError):
    """A parsed rule references unknown model elements or mistypes an op."""


class PRMLRuntimeError(PRMLError):
    """Failure while evaluating a rule against a runtime context."""


class PersonalizationError(ReproError):
    """Personalization engine misconfiguration or phase-ordering violation."""


class ServiceError(ReproError):
    """Application-service failure with a uniform wire representation.

    Every instance carries a machine-readable ``code``, an HTTP ``status``
    and an optional structured ``detail``; :meth:`envelope` renders the
    canonical ``{"error": {"code", "message", "detail"}}`` body that all
    ``/api/v1`` error responses share.
    """

    default_code = "internal"
    default_status = 500

    def __init__(
        self,
        message: str,
        *,
        code: str | None = None,
        status: int | None = None,
        detail: object = None,
    ) -> None:
        super().__init__(message)
        self.code = code or self.default_code
        self.status = status or self.default_status
        self.detail = detail

    def envelope(self) -> dict:
        return {
            "error": {
                "code": self.code,
                "message": str(self),
                "detail": self.detail,
            }
        }


class BadRequestError(ServiceError):
    """The request is syntactically or semantically invalid (HTTP 400)."""

    default_code = "bad_request"
    default_status = 400


class UnauthorizedError(ServiceError):
    """Missing, unknown or expired session credentials (HTTP 401)."""

    default_code = "unauthorized"
    default_status = 401


class NotFoundError(ServiceError):
    """A named resource (user, datamart, layer, route) does not exist."""

    default_code = "not_found"
    default_status = 404
