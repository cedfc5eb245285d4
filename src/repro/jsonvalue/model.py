"""JSON value model: kinds, equality, freezing, and structural statistics.

JSON values are plain Python objects (``dict``/``list``/``str``/``int``/
``float``/``bool``/``None``).  This module provides the operations the rest
of the library needs on top of that representation:

- :func:`kind_of` maps a value to its :class:`JsonKind`, treating ``bool``
  correctly (``bool`` is a subclass of ``int`` in Python, which silently
  corrupts naive ``isinstance`` chains);
- :func:`strict_equal` distinguishes ``1`` from ``1.0`` and ``True`` from
  ``1``, which ordinary ``==`` does not;
- :func:`freeze` converts a value into a hashable form so values can be used
  as dictionary keys (needed by speculative parsers and skeleton mining);
- :func:`structural_stats` computes depth/size statistics used throughout
  the benchmarks;
- :func:`iter_paths` enumerates root-to-leaf paths, the core primitive of
  skeleton extraction.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Iterator, Tuple


class JsonKind(enum.Enum):
    """The six JSON kinds, plus nothing at all is not represented here.

    ``NUMBER`` covers both ints and floats; use :func:`is_integer_value`
    when the distinction matters (type inference keeps them separate).
    """

    NULL = "null"
    BOOLEAN = "boolean"
    NUMBER = "number"
    STRING = "string"
    ARRAY = "array"
    OBJECT = "object"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def kind_of(value: Any) -> JsonKind:
    """Return the :class:`JsonKind` of ``value``.

    Raises ``TypeError`` for non-JSON values (e.g. tuples, sets, datetimes),
    making accidental leakage of host types an immediate error rather than
    a silent mis-classification.
    """
    # bool must be tested before int: isinstance(True, int) is True.
    if value is None:
        return JsonKind.NULL
    if isinstance(value, bool):
        return JsonKind.BOOLEAN
    if isinstance(value, (int, float)):
        return JsonKind.NUMBER
    if isinstance(value, str):
        return JsonKind.STRING
    if isinstance(value, list):
        return JsonKind.ARRAY
    if isinstance(value, dict):
        return JsonKind.OBJECT
    raise TypeError(f"not a JSON value: {type(value).__name__}")


def is_integer_value(value: Any) -> bool:
    """True for ``int`` (but not ``bool``) values."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_json_value(value: Any, *, _depth: int = 0, max_depth: int = 1000) -> bool:
    """Check recursively that ``value`` is representable in JSON.

    Floats must be finite (RFC 8259 has no NaN/Infinity); object keys must
    be strings.
    """
    if _depth > max_depth:
        return False
    if value is None or isinstance(value, bool) or isinstance(value, str):
        return True
    if isinstance(value, int):
        return True
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(is_json_value(v, _depth=_depth + 1, max_depth=max_depth) for v in value)
    if isinstance(value, dict):
        return all(
            isinstance(k, str) and is_json_value(v, _depth=_depth + 1, max_depth=max_depth)
            for k, v in value.items()
        )
    return False


def strict_equal(left: Any, right: Any) -> bool:
    """Equality that distinguishes ``1``/``1.0``/``True``.

    Python's ``==`` conflates numeric types and booleans, so
    ``{"a": 1} == {"a": True}`` — which is wrong for schema work where
    ``boolean`` and ``number`` are different kinds.  Object key *order* is
    not significant.
    """
    lk = kind_of(left)
    rk = kind_of(right)
    if lk is not rk:
        return False
    if lk is JsonKind.NUMBER:
        if is_integer_value(left) is not is_integer_value(right):
            return False
        return left == right
    if lk is JsonKind.ARRAY:
        if len(left) != len(right):
            return False
        return all(strict_equal(a, b) for a, b in zip(left, right))
    if lk is JsonKind.OBJECT:
        if left.keys() != right.keys():
            return False
        return all(strict_equal(v, right[k]) for k, v in left.items())
    return left == right


# Sentinel wrappers used by freeze() so frozen objects/arrays cannot collide
# with string or tuple scalars that happen to look the same.
_OBJ_TAG = "$obj"
_ARR_TAG = "$arr"
_NUM_TAG = "$num"


def freeze(value: Any) -> Any:
    """Convert ``value`` into a hashable, canonical form.

    Objects become ``("$obj", ((k, frozen_v), ...))`` with keys sorted,
    arrays become ``("$arr", (frozen_v, ...))``, and numbers are tagged with
    their concrete Python type so ``1`` and ``1.0`` freeze differently.
    ``freeze`` is injective on JSON values up to :func:`strict_equal`.
    """
    k = kind_of(value)
    if k is JsonKind.OBJECT:
        return (_OBJ_TAG, tuple((key, freeze(v)) for key, v in sorted(value.items())))
    if k is JsonKind.ARRAY:
        return (_ARR_TAG, tuple(freeze(v) for v in value))
    if k is JsonKind.NUMBER:
        return (_NUM_TAG, "int" if is_integer_value(value) else "float", value)
    return value


def unfreeze(frozen: Any) -> Any:
    """Inverse of :func:`freeze` (object key order becomes sorted order)."""
    if isinstance(frozen, tuple):
        tag = frozen[0]
        if tag == _OBJ_TAG:
            return {k: unfreeze(v) for k, v in frozen[1]}
        if tag == _ARR_TAG:
            return [unfreeze(v) for v in frozen[1]]
        if tag == _NUM_TAG:
            return frozen[2]
        raise ValueError(f"not a frozen JSON value: {frozen!r}")
    return frozen


class StructuralStats:
    """Aggregate structural measurements of a JSON value (immutable,
    equal by fields).

    ``node_count`` counts every value (scalars, arrays, objects);
    ``max_depth`` is 1 for scalars; ``leaf_count`` counts scalars only.
    """

    def __init__(
        self,
        node_count: int,
        max_depth: int,
        leaf_count: int,
        object_count: int,
        array_count: int,
        key_count: int,
    ) -> None:
        object.__setattr__(self, "node_count", node_count)
        object.__setattr__(self, "max_depth", max_depth)
        object.__setattr__(self, "leaf_count", leaf_count)
        object.__setattr__(self, "object_count", object_count)
        object.__setattr__(self, "array_count", array_count)
        object.__setattr__(self, "key_count", key_count)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __add__(self, other: "StructuralStats") -> "StructuralStats":
        return StructuralStats(
            node_count=self.node_count + other.node_count,
            max_depth=max(self.max_depth, other.max_depth),
            leaf_count=self.leaf_count + other.leaf_count,
            object_count=self.object_count + other.object_count,
            array_count=self.array_count + other.array_count,
            key_count=self.key_count + other.key_count,
        )


def structural_stats(value: Any) -> StructuralStats:
    """Compute :class:`StructuralStats` for ``value`` iteratively.

    Iterative (explicit stack) so that deeply nested values measured by the
    benchmarks do not hit Python's recursion limit.
    """
    node_count = 0
    leaf_count = 0
    object_count = 0
    array_count = 0
    key_count = 0
    max_depth = 0
    stack: list[tuple[Any, int]] = [(value, 1)]
    while stack:
        current, depth = stack.pop()
        node_count += 1
        max_depth = max(max_depth, depth)
        kind = kind_of(current)
        if kind is JsonKind.OBJECT:
            object_count += 1
            key_count += len(current)
            for child in current.values():
                stack.append((child, depth + 1))
        elif kind is JsonKind.ARRAY:
            array_count += 1
            for child in current:
                stack.append((child, depth + 1))
        else:
            leaf_count += 1
    return StructuralStats(
        node_count=node_count,
        max_depth=max_depth,
        leaf_count=leaf_count,
        object_count=object_count,
        array_count=array_count,
        key_count=key_count,
    )


PathTuple = Tuple[object, ...]


def iter_paths(value: Any, *, leaves_only: bool = True) -> Iterator[tuple[PathTuple, Any]]:
    """Yield ``(path, subvalue)`` pairs in document order.

    A path is a tuple of object keys (``str``) and array positions (``int``).
    With ``leaves_only`` (the default) only scalar leaves are yielded, which
    is what skeleton mining and projection need; otherwise every node is
    yielded, including the root under the empty path.
    """
    stack: list[tuple[PathTuple, Any]] = [((), value)]
    while stack:
        path, current = stack.pop()
        kind = kind_of(current)
        container = kind in (JsonKind.OBJECT, JsonKind.ARRAY)
        if not container or not leaves_only:
            yield path, current
        if kind is JsonKind.OBJECT:
            for key in reversed(list(current.keys())):
                stack.append((path + (key,), current[key]))
        elif kind is JsonKind.ARRAY:
            for index in range(len(current) - 1, -1, -1):
                stack.append((path + (index,), current[index]))


def sort_keys_deep(value: Any) -> Any:
    """Return a copy of ``value`` with all object keys sorted recursively.

    Useful for canonical output and stable diffing in tests.
    """
    kind = kind_of(value)
    if kind is JsonKind.OBJECT:
        return {k: sort_keys_deep(value[k]) for k in sorted(value.keys())}
    if kind is JsonKind.ARRAY:
        return [sort_keys_deep(v) for v in value]
    return value
