"""Error and result types for JSON Schema validation.

Validation never raises on invalid *instances*: it returns a
:class:`ValidationResult` carrying every :class:`ValidationFailure` found,
each locating the offending value (``instance_path``) and the schema rule
that rejected it (``schema_path`` + ``keyword``).  Malformed *schemas*
raise :class:`SchemaCompileError` at compile time.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import SchemaError, ValidationError
from repro.jsonvalue.pointer import JsonPointer


class SchemaCompileError(SchemaError):
    """Raised when a schema document is structurally invalid."""


class InstanceValidationError(ValidationError):
    """Raised by ``validate_or_raise`` when an instance is invalid."""

    def __init__(self, result: "ValidationResult") -> None:
        summary = "; ".join(str(f) for f in result.failures[:3])
        more = len(result.failures) - 3
        if more > 0:
            summary += f" (+{more} more)"
        super().__init__(f"instance is invalid: {summary}")
        self.result = result


class ValidationFailure:
    """One reason an instance failed validation (immutable, equal by
    fields).

    ``instance_path`` points into the instance, ``schema_path`` into the
    schema document, and ``keyword`` names the violated assertion.
    """

    def __init__(
        self,
        instance_path: JsonPointer,
        schema_path: JsonPointer,
        keyword: str,
        message: str,
    ) -> None:
        object.__setattr__(self, "instance_path", instance_path)
        object.__setattr__(self, "schema_path", schema_path)
        object.__setattr__(self, "keyword", keyword)
        object.__setattr__(self, "message", message)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __str__(self) -> str:
        where = str(self.instance_path) or "<root>"
        return f"{where}: {self.message} [{self.keyword} at {self.schema_path or '#'}]"


class ValidationResult:
    """The outcome of validating one instance against one schema."""

    def __init__(self, failures: "list[ValidationFailure] | None" = None) -> None:
        self.failures = [] if failures is None else failures

    @property
    def valid(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.valid

    def extend(self, failures: Iterable[ValidationFailure]) -> None:
        self.failures.extend(failures)

    def __str__(self) -> str:
        if self.valid:
            return "valid"
        return f"invalid ({len(self.failures)} failures)"
