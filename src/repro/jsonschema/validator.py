"""JSON Schema validator (Draft-07 core), after Pezoa et al. (WWW '16).

The tutorial presents JSON Schema as the reference schema language for
JSON, with "traditional type constructors, like union and concatenation,
as well as very powerful constructors like negation types".  This module
implements the draft-07 validation vocabulary over the library's own JSON
substrate:

- general: ``type`` ``enum`` ``const`` ``format``
- numeric: ``multipleOf`` ``maximum`` ``exclusiveMaximum`` ``minimum``
  ``exclusiveMinimum``
- strings: ``maxLength`` ``minLength`` ``pattern``
- arrays: ``items`` ``additionalItems`` ``maxItems`` ``minItems``
  ``uniqueItems`` ``contains``
- objects: ``maxProperties`` ``minProperties`` ``required`` ``properties``
  ``patternProperties`` ``additionalProperties`` ``dependencies``
  ``propertyNames``
- combinators: ``allOf`` ``anyOf`` ``oneOf`` ``not`` ``if``/``then``/``else``
- references: ``$ref`` with JSON-Pointer fragments via
  :class:`~repro.jsonschema.refs.SchemaRegistry`
- boolean schemas ``true``/``false``

Instance equality for ``enum``/``const`` follows the spec: numbers compare
mathematically (``1 == 1.0``) but booleans are never equal to numbers.

Two engines share these semantics.  The interpretive walk
(``JsonSchema._walk``) visits every keyword and is the only code that
builds :class:`ValidationFailure` records.  The compiled checker
(``is_valid``) turns each schema node into a closure once, dispatches on
the instance's Python type, and stops at the first failure without
building pointers or failures.  ``validate`` runs the checker first and
walks only the instances it rejects, so failures, their order, paths and
messages are exactly the walk's.
"""

from __future__ import annotations

import itertools
import math
import re
import threading
from typing import Any, Callable, Optional

from repro.jsonvalue.model import JsonKind, freeze, is_integer_value, kind_of
from repro.jsonvalue.pointer import JsonPointer
from repro.jsonschema.errors import (
    InstanceValidationError,
    SchemaCompileError,
    ValidationFailure,
    ValidationResult,
)
from repro.jsonschema.formats import FORMAT_CHECKS
from repro.jsonschema.refs import SchemaRegistry, reject_nested_ids

_TYPE_NAMES = frozenset(
    ("null", "boolean", "integer", "number", "string", "array", "object")
)

_ROOT = JsonPointer()


def json_schema_equal(left: Any, right: Any) -> bool:
    """Instance equality per the JSON Schema spec.

    Numbers compare by mathematical value; booleans are a distinct type;
    arrays compare element-wise; objects by key set and member equality.
    """
    lk, rk = kind_of(left), kind_of(right)
    if lk is not rk:
        return False
    if lk is JsonKind.NUMBER:
        return left == right  # 1 == 1.0 mathematically
    if lk is JsonKind.ARRAY:
        return len(left) == len(right) and all(
            json_schema_equal(a, b) for a, b in zip(left, right)
        )
    if lk is JsonKind.OBJECT:
        return left.keys() == right.keys() and all(
            json_schema_equal(v, right[k]) for k, v in left.items()
        )
    return left == right


def _instance_has_type(instance: Any, name: str) -> bool:
    kind = kind_of(instance)
    if name == "null":
        return kind is JsonKind.NULL
    if name == "boolean":
        return kind is JsonKind.BOOLEAN
    if name == "string":
        return kind is JsonKind.STRING
    if name == "array":
        return kind is JsonKind.ARRAY
    if name == "object":
        return kind is JsonKind.OBJECT
    if name == "number":
        return kind is JsonKind.NUMBER
    if name == "integer":
        # Draft 6+: any number with zero fractional part is an integer.
        if kind is not JsonKind.NUMBER:
            return False
        return is_integer_value(instance) or (
            isinstance(instance, float) and instance.is_integer()
        )
    raise SchemaCompileError(f"unknown type name {name!r}")


class JsonSchema:
    """A compiled, validatable JSON Schema.

    Parameters
    ----------
    document:
        The raw schema (a dict, or a boolean schema).
    registry:
        Optional :class:`SchemaRegistry` for cross-document ``$ref``.
    assert_formats:
        When true (default) the ``format`` keyword is an assertion for the
        formats this library knows; unknown formats always pass.
    max_ref_depth:
        Bound on chained/recursive ``$ref`` expansion during a single
        validation walk.
    """

    def __init__(
        self,
        document: Any,
        registry: Optional[SchemaRegistry] = None,
        *,
        assert_formats: bool = True,
        max_ref_depth: int = 64,
    ) -> None:
        self.document = document
        self.registry = registry if registry is not None else SchemaRegistry()
        self.assert_formats = assert_formats
        self.max_ref_depth = max_ref_depth
        self._pattern_cache: dict[str, re.Pattern[str]] = {}
        self._checker: Optional[Callable[[Any], bool]] = None
        reject_nested_ids(document)
        self.registry.register_root(document)
        self._check_schema(document, _ROOT)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def validate(self, instance: Any) -> ValidationResult:
        """Validate ``instance``; returns a result carrying all failures.

        Instances the compiled checker accepts return an empty result at
        once; the rest are walked, and the walk reports every failure.
        """
        try:
            if self.is_valid(instance):
                return ValidationResult()
        except Exception:
            pass  # the walk raises (or reports) it, in its own order
        return self._walk(instance)

    def is_valid(self, instance: Any) -> bool:
        """Whether ``instance`` is valid: the verdict of :meth:`validate`.

        Runs the compiled checker, built on first use: it stops at the
        first failing keyword and records nothing.  ``$ref`` targets are
        resolved when first reached, so an unresolvable reference raises
        :class:`SchemaCompileError` only if validation reaches it.
        """
        check = self._checker
        if check is None:
            check = self._checker = _CheckerCompiler(self).compile(
                self.document, self.document
            )
        return bool(check(instance))

    def __getstate__(self) -> dict:
        # The checker is a web of closures; a copy rebuilds its own.
        return {**self.__dict__, "_checker": None}

    def validate_or_raise(self, instance: Any) -> None:
        """Raise :class:`InstanceValidationError` if ``instance`` is invalid."""
        result = self.validate(instance)
        if not result.valid:
            raise InstanceValidationError(result)

    # ------------------------------------------------------------------
    # compile-time structure checking
    # ------------------------------------------------------------------

    def _check_schema(self, schema: Any, path: JsonPointer) -> None:
        if isinstance(schema, bool):
            return
        if not isinstance(schema, dict):
            raise SchemaCompileError(
                f"schema at {path or '#'} must be an object or boolean, "
                f"got {type(schema).__name__}"
            )
        self._check_keywords(schema, path)
        for key, sub in schema.items():
            if key in ("properties", "patternProperties"):
                if not isinstance(sub, dict):
                    raise SchemaCompileError(f"{key} at {path} must be an object")
                for name, subschema in sub.items():
                    if key == "patternProperties":
                        self._compile_pattern(name, path.child(key))
                    self._check_schema(subschema, path.child(key).child(name))
            elif key in ("items",) and isinstance(sub, list):
                for i, subschema in enumerate(sub):
                    self._check_schema(subschema, path.child(key).child(i))
            elif key in (
                "items",
                "additionalItems",
                "additionalProperties",
                "contains",
                "propertyNames",
                "not",
                "if",
                "then",
                "else",
            ):
                self._check_schema(sub, path.child(key))
            elif key in ("allOf", "anyOf", "oneOf"):
                if not isinstance(sub, list) or not sub:
                    raise SchemaCompileError(
                        f"{key} at {path} must be a non-empty array of schemas"
                    )
                for i, subschema in enumerate(sub):
                    self._check_schema(subschema, path.child(key).child(i))
            elif key == "definitions":
                if not isinstance(sub, dict):
                    raise SchemaCompileError(f"definitions at {path} must be an object")
                for name, subschema in sub.items():
                    self._check_schema(subschema, path.child(key).child(name))
            elif key == "dependencies":
                if not isinstance(sub, dict):
                    raise SchemaCompileError(f"dependencies at {path} must be an object")
                for name, dep in sub.items():
                    if isinstance(dep, list):
                        if not all(isinstance(d, str) for d in dep):
                            raise SchemaCompileError(
                                f"property dependency {name!r} at {path} must list strings"
                            )
                    else:
                        self._check_schema(dep, path.child(key).child(name))

    def _check_keywords(self, schema: dict, path: JsonPointer) -> None:
        if "type" in schema:
            t = schema["type"]
            names = t if isinstance(t, list) else [t]
            for name in names:
                if not isinstance(name, str) or name not in _TYPE_NAMES:
                    raise SchemaCompileError(f"invalid type name {name!r} at {path}")
        if "required" in schema:
            req = schema["required"]
            if not isinstance(req, list) or not all(isinstance(r, str) for r in req):
                raise SchemaCompileError(f"required at {path} must be a string array")
        if "enum" in schema:
            if not isinstance(schema["enum"], list) or not schema["enum"]:
                raise SchemaCompileError(f"enum at {path} must be a non-empty array")
        if "pattern" in schema:
            self._compile_pattern(schema["pattern"], path)
        for key in ("multipleOf", "maximum", "exclusiveMaximum", "minimum", "exclusiveMinimum"):
            if key in schema:
                v = schema[key]
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise SchemaCompileError(f"{key} at {path} must be a number")
                if key == "multipleOf" and v <= 0:
                    raise SchemaCompileError(f"multipleOf at {path} must be positive")
        for key in (
            "maxLength",
            "minLength",
            "maxItems",
            "minItems",
            "maxProperties",
            "minProperties",
        ):
            if key in schema:
                v = schema[key]
                if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                    raise SchemaCompileError(
                        f"{key} at {path} must be a non-negative integer"
                    )
        if "$ref" in schema and not isinstance(schema["$ref"], str):
            raise SchemaCompileError(f"$ref at {path} must be a string")

    def _compile_pattern(self, pattern: Any, path: JsonPointer) -> re.Pattern[str]:
        if not isinstance(pattern, str):
            raise SchemaCompileError(f"pattern at {path} must be a string")
        cached = self._pattern_cache.get(pattern)
        if cached is None:
            try:
                cached = re.compile(pattern)
            except re.error as exc:
                raise SchemaCompileError(
                    f"invalid regular expression {pattern!r} at {path}: {exc}"
                ) from exc
            self._pattern_cache[pattern] = cached
        return cached

    # ------------------------------------------------------------------
    # validation walk
    # ------------------------------------------------------------------

    def _walk(self, instance: Any) -> ValidationResult:
        """The interpretive walk: every failure, in keyword order."""
        result = ValidationResult()
        self._validate(
            self.document, self.document, instance, _ROOT, _ROOT, result, 0
        )
        return result

    def _validate(
        self,
        schema: Any,
        document: Any,
        instance: Any,
        inst_path: JsonPointer,
        schema_path: JsonPointer,
        result: ValidationResult,
        ref_depth: int,
    ) -> None:
        if schema is True:
            return
        if schema is False:
            result.failures.append(
                ValidationFailure(
                    inst_path, schema_path, "false", "schema 'false' rejects everything"
                )
            )
            return
        if not isinstance(schema, dict):  # pragma: no cover - compile check
            raise SchemaCompileError(f"invalid schema node at {schema_path}")

        if "$ref" in schema:
            # Draft-07: $ref replaces all sibling keywords.
            if ref_depth >= self.max_ref_depth:
                result.failures.append(
                    ValidationFailure(
                        inst_path,
                        schema_path,
                        "$ref",
                        f"$ref expansion exceeded depth {self.max_ref_depth}",
                    )
                )
                return
            target, target_doc = self.registry.resolve(schema["$ref"], document)
            self._validate(
                target,
                target_doc,
                instance,
                inst_path,
                schema_path.child("$ref"),
                result,
                ref_depth + 1,
            )
            return

        fail = result.failures.append

        def failure(keyword: str, message: str) -> None:
            fail(ValidationFailure(inst_path, schema_path.child(keyword), keyword, message))

        kind = kind_of(instance)

        # --- general assertions ---------------------------------------
        if "type" in schema:
            t = schema["type"]
            names = t if isinstance(t, list) else [t]
            if not any(_instance_has_type(instance, n) for n in names):
                failure("type", f"expected type {'/'.join(names)}, got {kind}")
        if "enum" in schema:
            if not any(json_schema_equal(instance, v) for v in schema["enum"]):
                failure("enum", "value is not one of the enumerated values")
        if "const" in schema:
            if not json_schema_equal(instance, schema["const"]):
                failure("const", "value does not equal the const value")
        if self.assert_formats and "format" in schema and kind is JsonKind.STRING:
            check = FORMAT_CHECKS.get(schema["format"])
            if check is not None and not check(instance):
                failure("format", f"not a valid {schema['format']!r} string")

        # --- kind-specific assertions ----------------------------------
        if kind is JsonKind.NUMBER and not isinstance(instance, bool):
            self._validate_number(schema, instance, failure)
        elif kind is JsonKind.STRING:
            self._validate_string(schema, instance, failure)
        elif kind is JsonKind.ARRAY:
            self._validate_array(
                schema, document, instance, inst_path, schema_path, result, ref_depth, failure
            )
        elif kind is JsonKind.OBJECT:
            self._validate_object(
                schema, document, instance, inst_path, schema_path, result, ref_depth, failure
            )

        # --- combinators ------------------------------------------------
        if "allOf" in schema:
            for i, sub in enumerate(schema["allOf"]):
                self._validate(
                    sub,
                    document,
                    instance,
                    inst_path,
                    schema_path.child("allOf").child(i),
                    result,
                    ref_depth,
                )
        if "anyOf" in schema:
            if not any(
                self._quietly_valid(sub, document, instance, ref_depth)
                for sub in schema["anyOf"]
            ):
                failure("anyOf", "value matches none of the anyOf branches")
        if "oneOf" in schema:
            matching = sum(
                1
                for sub in schema["oneOf"]
                if self._quietly_valid(sub, document, instance, ref_depth)
            )
            if matching != 1:
                failure("oneOf", f"value matches {matching} oneOf branches, expected exactly 1")
        if "not" in schema:
            if self._quietly_valid(schema["not"], document, instance, ref_depth):
                failure("not", "value matches the negated schema")
        if "if" in schema:
            condition = self._quietly_valid(schema["if"], document, instance, ref_depth)
            branch_key = "then" if condition else "else"
            branch = schema.get(branch_key)
            if branch is not None:
                self._validate(
                    branch,
                    document,
                    instance,
                    inst_path,
                    schema_path.child(branch_key),
                    result,
                    ref_depth,
                )

    def _quietly_valid(self, schema: Any, document: Any, instance: Any, ref_depth: int) -> bool:
        probe = ValidationResult()
        self._validate(schema, document, instance, _ROOT, _ROOT, probe, ref_depth)
        return probe.valid

    # --- numbers -------------------------------------------------------

    @staticmethod
    def _validate_number(schema: dict, instance: Any, failure) -> None:
        if "multipleOf" in schema:
            factor = schema["multipleOf"]
            if not _is_multiple(instance, factor):
                failure("multipleOf", f"{instance} is not a multiple of {factor}")
        if "maximum" in schema and instance > schema["maximum"]:
            failure("maximum", f"{instance} exceeds maximum {schema['maximum']}")
        if "exclusiveMaximum" in schema and instance >= schema["exclusiveMaximum"]:
            failure(
                "exclusiveMaximum",
                f"{instance} is not below exclusiveMaximum {schema['exclusiveMaximum']}",
            )
        if "minimum" in schema and instance < schema["minimum"]:
            failure("minimum", f"{instance} is below minimum {schema['minimum']}")
        if "exclusiveMinimum" in schema and instance <= schema["exclusiveMinimum"]:
            failure(
                "exclusiveMinimum",
                f"{instance} is not above exclusiveMinimum {schema['exclusiveMinimum']}",
            )

    # --- strings -------------------------------------------------------

    def _validate_string(self, schema: dict, instance: str, failure) -> None:
        if "maxLength" in schema and len(instance) > schema["maxLength"]:
            failure("maxLength", f"string longer than {schema['maxLength']}")
        if "minLength" in schema and len(instance) < schema["minLength"]:
            failure("minLength", f"string shorter than {schema['minLength']}")
        if "pattern" in schema:
            pattern = self._compile_pattern(schema["pattern"], _ROOT)
            if pattern.search(instance) is None:
                failure("pattern", f"string does not match pattern {schema['pattern']!r}")

    # --- arrays --------------------------------------------------------

    def _validate_array(
        self,
        schema: dict,
        document: Any,
        instance: list,
        inst_path: JsonPointer,
        schema_path: JsonPointer,
        result: ValidationResult,
        ref_depth: int,
        failure,
    ) -> None:
        if "maxItems" in schema and len(instance) > schema["maxItems"]:
            failure("maxItems", f"array has more than {schema['maxItems']} items")
        if "minItems" in schema and len(instance) < schema["minItems"]:
            failure("minItems", f"array has fewer than {schema['minItems']} items")
        if schema.get("uniqueItems"):
            i = _duplicate_index(instance)
            if i is not None:
                failure("uniqueItems", f"items are not unique (duplicate at {i})")
        items = schema.get("items")
        if items is not None:
            if isinstance(items, list):
                for i, item in enumerate(instance):
                    if i < len(items):
                        self._validate(
                            items[i],
                            document,
                            item,
                            inst_path.child(i),
                            schema_path.child("items").child(i),
                            result,
                            ref_depth,
                        )
                    else:
                        additional = schema.get("additionalItems")
                        if additional is None:
                            break
                        self._validate(
                            additional,
                            document,
                            item,
                            inst_path.child(i),
                            schema_path.child("additionalItems"),
                            result,
                            ref_depth,
                        )
            else:
                for i, item in enumerate(instance):
                    self._validate(
                        items,
                        document,
                        item,
                        inst_path.child(i),
                        schema_path.child("items"),
                        result,
                        ref_depth,
                    )
        if "contains" in schema:
            if not any(
                self._quietly_valid(schema["contains"], document, item, ref_depth)
                for item in instance
            ):
                failure("contains", "no array item matches the contains schema")

    # --- objects -------------------------------------------------------

    def _validate_object(
        self,
        schema: dict,
        document: Any,
        instance: dict,
        inst_path: JsonPointer,
        schema_path: JsonPointer,
        result: ValidationResult,
        ref_depth: int,
        failure,
    ) -> None:
        if "maxProperties" in schema and len(instance) > schema["maxProperties"]:
            failure("maxProperties", f"object has more than {schema['maxProperties']} members")
        if "minProperties" in schema and len(instance) < schema["minProperties"]:
            failure("minProperties", f"object has fewer than {schema['minProperties']} members")
        if "required" in schema:
            for name in schema["required"]:
                if name not in instance:
                    failure("required", f"required member {name!r} is missing")

        properties = schema.get("properties", {})
        pattern_properties = schema.get("patternProperties", {})
        additional = schema.get("additionalProperties")

        for name, value in instance.items():
            matched = False
            if name in properties:
                matched = True
                self._validate(
                    properties[name],
                    document,
                    value,
                    inst_path.child(name),
                    schema_path.child("properties").child(name),
                    result,
                    ref_depth,
                )
            for pattern_text, sub in pattern_properties.items():
                pattern = self._compile_pattern(pattern_text, _ROOT)
                if pattern.search(name) is not None:
                    matched = True
                    self._validate(
                        sub,
                        document,
                        value,
                        inst_path.child(name),
                        schema_path.child("patternProperties").child(pattern_text),
                        result,
                        ref_depth,
                    )
            if not matched and additional is not None:
                self._validate(
                    additional,
                    document,
                    value,
                    inst_path.child(name),
                    schema_path.child("additionalProperties"),
                    result,
                    ref_depth,
                )

        if "propertyNames" in schema:
            for name in instance:
                self._validate(
                    schema["propertyNames"],
                    document,
                    name,
                    inst_path.child(name),
                    schema_path.child("propertyNames"),
                    result,
                    ref_depth,
                )

        if "dependencies" in schema:
            for name, dep in schema["dependencies"].items():
                if name not in instance:
                    continue
                if isinstance(dep, list):
                    for required_name in dep:
                        if required_name not in instance:
                            failure(
                                "dependencies",
                                f"member {name!r} requires member {required_name!r}",
                            )
                else:
                    self._validate(
                        dep,
                        document,
                        instance,
                        inst_path,
                        schema_path.child("dependencies").child(name),
                        result,
                        ref_depth,
                    )


def _is_multiple(instance: Any, factor: Any) -> bool:
    if isinstance(instance, int) and isinstance(factor, int):
        return instance % factor == 0
    quotient = instance / factor
    return math.isfinite(quotient) and (
        quotient == int(quotient)
        or math.isclose(quotient, round(quotient), rel_tol=1e-12)
        and math.isclose(round(quotient) * factor, instance, rel_tol=1e-12)
    )


def _duplicate_index(items: list) -> Optional[int]:
    """Position of the first item equal (spec equality) to an earlier one."""
    seen: set = set()
    for i, item in enumerate(items):
        # freeze distinguishes 1 from 1.0, but spec equality does not;
        # normalise integral floats to int for the key.
        key = _numeric_normalize(freeze(item))
        if key in seen:
            return i
        seen.add(key)
    return None


# ---------------------------------------------------------------------------
# compiled checker
# ---------------------------------------------------------------------------

_Check = Callable[[Any], bool]

# The builtin type of each JSON kind; a checker is a table over these.
_JSON_TYPES = (type(None), bool, int, float, str, list, dict)
_JSON_TYPE_SET = frozenset(_JSON_TYPES)
_KIND_TYPES = {
    JsonKind.NULL: type(None),
    JsonKind.BOOLEAN: bool,
    JsonKind.STRING: str,
    JsonKind.ARRAY: list,
    JsonKind.OBJECT: dict,
}
# The builtin types each ``type`` name admits outright.  An integral
# float is also an "integer" (draft 6+), decided per instance.
_TYPE_ADMITS = {
    "null": {type(None)},
    "boolean": {bool},
    "integer": {int},
    "number": {int, float},
    "string": {str},
    "array": {list},
    "object": {dict},
}


def _builtin_type(instance: Any) -> type:
    """The builtin whose checks apply to ``instance`` (a subclass of one,
    such as an ``OrderedDict``).  Non-JSON values raise ``TypeError`` from
    ``kind_of``, as they do in the walk."""
    kind = kind_of(instance)
    if kind is JsonKind.NUMBER:
        return int if isinstance(instance, int) else float
    return _KIND_TYPES[kind]


def _accept(instance: Any) -> bool:
    return True


def _reject(instance: Any) -> bool:
    return False


def _conjunction(checks: list) -> _Check:
    if _reject in checks:
        return _reject
    checks = [c for c in checks if c is not _accept]
    if not checks:
        return _accept
    if len(checks) == 1:
        return checks[0]
    steps = tuple(checks)

    def all_pass(x: Any) -> bool:
        for step in steps:
            if not step(x):
                return False
        return True

    return all_pass


def _disjunction(checks: list) -> _Check:
    if _accept in checks:
        return _accept
    checks = [c for c in checks if c is not _reject]
    if not checks:
        return _reject
    if len(checks) == 1:
        return checks[0]
    branches = tuple(checks)

    def any_pass(x: Any) -> bool:
        for branch in branches:
            if branch(x):
                return True
        return False

    return any_pass


def _negation(check: _Check) -> _Check:
    if check is _accept:
        return _reject
    if check is _reject:
        return _accept
    return lambda x: not check(x)


def _for_type(check: _Check, t: type) -> _Check:
    """``check`` restricted to instances of builtin type ``t``."""
    by_type = getattr(check, "by_type", None)
    return check if by_type is None else by_type[t]


def _dispatch(by_type: dict) -> _Check:
    """One checker from a check per builtin type."""
    if all(c is _accept or c is _reject for c in by_type.values()):
        admitted = frozenset(t for t, c in by_type.items() if c is _accept)

        def check(x: Any) -> bool:
            t = type(x)
            if t in admitted:
                return True
            if t in _JSON_TYPE_SET:
                return False
            return _builtin_type(x) in admitted

    else:
        get = by_type.get

        def check(x: Any) -> bool:
            step = get(type(x))
            if step is None:
                step = by_type[_builtin_type(x)]
            return step(x)

    check.by_type = by_type  # type: ignore[attr-defined]
    return check


def _deferred(exc: Exception) -> _Check:
    """A node that failed to compile raises only when validation reaches it."""

    def check(x: Any) -> bool:
        raise exc

    return check


_EAGER_LEVELS = 8


class _CheckerCompiler:
    """Builds the boolean checker of a :class:`JsonSchema`.

    Each (schema node, base document) pair compiles once into a closure
    that returns whether an instance is valid, stopping at the first
    failing keyword.  A dict node's closure dispatches on the instance's
    builtin type to the conjunction of the keywords that apply to it, so
    ``type`` is decided before any call and an ``anyOf`` whose branches
    admit different types picks its branch by type.  A ``$ref`` resolves
    and compiles its target on first use and counts toward
    ``max_ref_depth`` on every expansion, as in the walk.

    Compilation runs ``_EAGER_LEVELS`` schema levels deep at a time;
    deeper nodes compile when first reached, so a deeply nested schema
    never needs a deeper Python stack than checking an instance does.
    """

    def __init__(self, schema: JsonSchema) -> None:
        self.schema = schema
        self.memo: dict[tuple[int, int], tuple[_Check, Any, Any]] = {}
        self.nesting = 0  # compile calls open on the stack
        # $ref expansions open on the current path, per thread.
        self.ref_depth = threading.local()

    def compile(self, node: Any, document: Any) -> _Check:
        if node is True:
            return _accept
        if node is False:
            return _reject
        key = (id(node), id(document))
        hit = self.memo.get(key)
        if hit is not None:
            return hit[0]
        if self.nesting >= _EAGER_LEVELS:
            return self._on_first_use(node, document)
        self.nesting += 1
        try:
            check = self._node(node, document)
        except Exception as exc:  # a malformed node in a registry document
            check = _deferred(exc)
        finally:
            self.nesting -= 1
        # The memo keeps the node and document alive, so ids stay theirs.
        self.memo[key] = (check, node, document)
        return check

    def _on_first_use(self, node: Any, document: Any) -> _Check:
        compiled: Optional[_Check] = None

        def check(x: Any) -> bool:
            nonlocal compiled
            if compiled is None:
                compiled = self.compile(node, document)
            return compiled(x)

        return check

    def _node(self, node: Any, document: Any) -> _Check:
        if not isinstance(node, dict):
            raise SchemaCompileError(f"invalid schema node {node!r}")
        if "$ref" in node:
            return self._ref(node["$ref"], document)

        def sub(child: Any) -> _Check:
            return self.compile(child, document)

        per_type: dict[type, list] = {t: [] for t in _JSON_TYPES}

        def everywhere(check: _Check) -> None:
            for checks in per_type.values():
                checks.append(check)

        if "type" in node:
            t = node["type"]
            admitted: set = set()
            for name in t if isinstance(t, list) else [t]:
                if name not in _TYPE_ADMITS:
                    raise SchemaCompileError(f"unknown type name {name!r}")
                admitted |= _TYPE_ADMITS[name]
            integral = "integer" in t if isinstance(t, list) else t == "integer"
            for builtin, checks in per_type.items():
                if builtin not in admitted:
                    integral_float = builtin is float and integral
                    checks.append(float.is_integer if integral_float else _reject)
        if "enum" in node:
            values = node["enum"]
            everywhere(lambda x: any(json_schema_equal(x, v) for v in values))
        if "const" in node:
            const = node["const"]
            everywhere(lambda x: json_schema_equal(x, const))

        number = _conjunction(self._number(node))
        per_type[int].append(number)
        per_type[float].append(number)
        per_type[str].append(_conjunction(self._string(node)))
        per_type[list].append(_conjunction(self._array(node, sub)))
        per_type[dict].append(_conjunction(self._object(node, sub)))

        for branch in map(sub, node.get("allOf", ())):
            for builtin, checks in per_type.items():
                checks.append(_for_type(branch, builtin))
        if "anyOf" in node:
            branches = [sub(b) for b in node["anyOf"]]
            for builtin, checks in per_type.items():
                checks.append(_disjunction([_for_type(b, builtin) for b in branches]))
        if "oneOf" in node:
            everywhere(_one_of(tuple(sub(b) for b in node["oneOf"])))
        if "not" in node:
            negated = sub(node["not"])
            for builtin, checks in per_type.items():
                checks.append(_negation(_for_type(negated, builtin)))
        if "if" in node:
            then, otherwise = node.get("then"), node.get("else")
            then_check = _accept if then is None else sub(then)
            else_check = _accept if otherwise is None else sub(otherwise)
            if then_check is not _accept or else_check is not _accept:
                condition = sub(node["if"])
                everywhere(
                    lambda x: (then_check if condition(x) else else_check)(x)
                )
        return _dispatch({t: _conjunction(c) for t, c in per_type.items()})

    def _ref(self, ref: str, document: Any) -> _Check:
        registry = self.schema.registry
        limit = self.schema.max_ref_depth
        depth = self.ref_depth
        compile_target = self.compile
        target: Optional[_Check] = None

        def expand(x: Any) -> bool:
            nonlocal target
            opened = getattr(depth, "open", 0)
            if opened >= limit:
                return False
            if target is None:
                target = compile_target(*registry.resolve(ref, document))
            depth.open = opened + 1
            try:
                return target(x)
            finally:
                depth.open = opened

        return expand

    @staticmethod
    def _number(node: dict) -> list:
        checks: list = []
        if "multipleOf" in node:
            factor = node["multipleOf"]
            checks.append(lambda x: _is_multiple(x, factor))
        # Negated comparisons, as the walk fails on ``x > maximum`` etc.
        if "maximum" in node:
            maximum = node["maximum"]
            checks.append(lambda x: not x > maximum)
        if "exclusiveMaximum" in node:
            exclusive_maximum = node["exclusiveMaximum"]
            checks.append(lambda x: not x >= exclusive_maximum)
        if "minimum" in node:
            minimum = node["minimum"]
            checks.append(lambda x: not x < minimum)
        if "exclusiveMinimum" in node:
            exclusive_minimum = node["exclusiveMinimum"]
            checks.append(lambda x: not x <= exclusive_minimum)
        return checks

    def _string(self, node: dict) -> list:
        checks: list = []
        if "maxLength" in node:
            max_length = node["maxLength"]
            checks.append(lambda x: len(x) <= max_length)
        if "minLength" in node:
            min_length = node["minLength"]
            checks.append(lambda x: len(x) >= min_length)
        if "pattern" in node:
            search = self.schema._compile_pattern(node["pattern"], _ROOT).search
            checks.append(lambda x: search(x) is not None)
        if self.schema.assert_formats and "format" in node:
            check = FORMAT_CHECKS.get(node["format"])
            if check is not None:
                checks.append(check)
        return checks

    @staticmethod
    def _array(node: dict, sub: Callable[[Any], _Check]) -> list:
        checks: list = []
        if "maxItems" in node:
            max_items = node["maxItems"]
            checks.append(lambda x: len(x) <= max_items)
        if "minItems" in node:
            min_items = node["minItems"]
            checks.append(lambda x: len(x) >= min_items)
        if node.get("uniqueItems"):
            checks.append(lambda x: _duplicate_index(x) is None)
        items = node.get("items")
        if isinstance(items, list):
            positional = tuple(map(sub, items))
            additional = node.get("additionalItems")
            extra = None if additional is None else sub(additional)
            count = len(positional)

            def tuple_items(x: list) -> bool:
                for check, item in zip(positional, x):
                    if not check(item):
                        return False
                if extra is None or len(x) <= count:
                    return True
                return all(map(extra, itertools.islice(x, count, None)))

            checks.append(tuple_items)
        elif items is not None:
            each = sub(items)
            if each is not _accept:
                checks.append(lambda x: all(map(each, x)))
        if "contains" in node:
            contains = sub(node["contains"])
            checks.append(lambda x: any(map(contains, x)))
        return checks

    def _object(self, node: dict, sub: Callable[[Any], _Check]) -> list:
        checks: list = []
        if "maxProperties" in node:
            max_properties = node["maxProperties"]
            checks.append(lambda x: len(x) <= max_properties)
        if "minProperties" in node:
            min_properties = node["minProperties"]
            checks.append(lambda x: len(x) >= min_properties)
        members = self._members(node, sub, frozenset(node.get("required", ())))
        if members is not None:
            checks.append(members)
        if "propertyNames" in node:
            names = sub(node["propertyNames"])
            if names is not _accept:
                checks.append(lambda x: all(map(names, x)))
        for name, dependency in node.get("dependencies", {}).items():
            checks.append(_dependency(name, dependency, sub))
        return checks

    def _members(
        self, node: dict, sub: Callable[[Any], _Check], required: frozenset
    ) -> Optional[_Check]:
        """``required`` with ``properties`` / ``patternProperties`` /
        ``additionalProperties`` in one closure, so checking nests no
        deeper on the stack than the walk does."""
        properties = {name: sub(s) for name, s in node.get("properties", {}).items()}
        additional = node.get("additionalProperties")
        extra = _accept if additional is None else sub(additional)
        patterns = tuple(
            (self.schema._compile_pattern(text, _ROOT).search, sub(s))
            for text, s in node.get("patternProperties", {}).items()
        )
        if patterns:

            def members(x: dict) -> bool:
                if not x.keys() >= required:
                    return False
                for name, value in x.items():
                    check = properties.get(name)
                    matched = check is not None
                    if matched and not check(value):
                        return False
                    for search, check in patterns:
                        if search(name) is not None:
                            matched = True
                            if not check(value):
                                return False
                    if not matched and not extra(value):
                        return False
                return True

            return members
        if extra is _accept and all(c is _accept for c in properties.values()):
            return (lambda x: x.keys() >= required) if required else None
        get = properties.get

        def members(x: dict) -> bool:
            if not x.keys() >= required:
                return False
            for name, value in x.items():
                if not get(name, extra)(value):
                    return False
            return True

        return members


def _one_of(branches: tuple) -> _Check:
    def one_of(x: Any) -> bool:
        matched = False
        for branch in branches:
            if branch(x):
                if matched:
                    return False
                matched = True
        return matched

    return one_of


def _dependency(name: str, dependency: Any, sub: Callable[[Any], _Check]) -> _Check:
    if isinstance(dependency, list):
        needed = frozenset(dependency)
        return lambda x: name not in x or x.keys() >= needed
    check = sub(dependency)
    return lambda x: name not in x or check(x)


def _numeric_normalize(frozen_key: Any) -> Any:
    """Collapse the int/float distinction inside a frozen value key."""
    if isinstance(frozen_key, tuple):
        if frozen_key and frozen_key[0] == "$num":
            value = frozen_key[2]
            if isinstance(value, float) and value.is_integer():
                return ("$num", "int", int(value))
            return frozen_key
        return tuple(_numeric_normalize(p) for p in frozen_key)
    return frozen_key


def compile_schema(
    document: Any,
    registry: Optional[SchemaRegistry] = None,
    *,
    assert_formats: bool = True,
) -> JsonSchema:
    """Compile a raw schema document into a validatable :class:`JsonSchema`."""
    return JsonSchema(document, registry, assert_formats=assert_formats)


def validate(schema_document: Any, instance: Any) -> ValidationResult:
    """One-shot validation convenience."""
    return compile_schema(schema_document).validate(instance)


def is_valid(schema_document: Any, instance: Any) -> bool:
    """One-shot boolean validation convenience."""
    return compile_schema(schema_document).is_valid(instance)
