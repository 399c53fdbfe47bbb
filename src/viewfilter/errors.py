"""Domain error hierarchy shared by the engine, store, CLI, and HTTP service.

Every error carries a stable machine-readable ``code`` and maps to one HTTP
status, so the CLI and the service can render identical error documents.
"""

from __future__ import annotations

from typing import Any


class DomainError(Exception):
    """Base class for all domain-level failures."""

    code = "domain_error"
    http_status = 400

    def __init__(self, message: str, **details: Any):
        super().__init__(message)
        self.message = message
        self.details = details

    def to_doc(self) -> dict:
        error: dict[str, Any] = {"code": self.code, "message": self.message}
        if self.details:
            error["details"] = self.details
        return {"error": error}


class InternalError(DomainError):
    """A failure the program did not anticipate (a defect or an environment fault).

    Built only by the last-resort handlers of the CLI and the service.
    """

    code = "internal"
    http_status = 500

    @classmethod
    def report(cls, exc: Exception) -> "InternalError":
        """Write the traceback of ``exc`` to standard error; returns the error to answer with."""
        import traceback  # here, so that CLI start-up does not pay for it

        traceback.print_exception(exc)
        return cls(f"internal error: {type(exc).__name__}")


class NotFoundError(DomainError):
    code = "not_found"
    http_status = 404


class PermissionDeniedError(DomainError):
    code = "permission_denied"
    http_status = 403


class ConflictError(DomainError):
    """Duplicate decision, duplicate identifier, or a lost write race."""

    code = "conflict"
    http_status = 409


class InvalidStateError(DomainError):
    """Operation not allowed in the entity's current lifecycle state."""

    code = "invalid_state"
    http_status = 409


class InvalidInputError(DomainError):
    code = "invalid_input"
    http_status = 422


class DocumentError(DomainError):
    """A document does not conform to its canonical schema."""

    code = "bad_document"
    http_status = 422


class PolicyParseError(DomainError):
    """Policy text that cannot be tokenized or does not match the grammar."""

    code = "policy_parse_error"
    http_status = 422

    def __init__(self, message: str, line: int, column: int):
        super().__init__(message, line=line, column=column)
        self.line = line
        self.column = column


class PolicySemanticError(DomainError):
    """Well-formed policy text violating a semantic rule (bounds, duplicates)."""

    code = "policy_semantic_error"
    http_status = 422

    def __init__(self, message: str, line: int):
        super().__init__(message, line=line)
        self.line = line


class ModelRejectedError(DomainError):
    """Model import refused; carries the violation codes that caused it."""

    code = "model_rejected"
    http_status = 422

    def __init__(self, message: str, violations: list[dict]):
        super().__init__(message, violations=violations)
        self.violations = violations
