"""Type terms of the internal JSON type algebra.

This is the type language of the tutorial's Part 4 (schema inference),
modelled on Baazizi, Colazzo, Ghelli & Sartiani (EDBT '17 / VLDB J '19):

- atomic types ``Null``, ``Bool``, ``Int``, ``Flt``, ``Num``, ``Str``
  (``Num`` is the join of ``Int`` and ``Flt``);
- record types ``{l1: T1, l2?: T2, ...}`` with per-field optionality;
- array types ``[T]`` abstracting every element by one item type;
- union types ``T1 + T2 + ...``;
- ``Bot`` (the empty type, identity for union) and ``Any`` (the top type).

All terms are immutable, hashable values with a canonical form
(:func:`repro.types.simplify.simplify` flattens and sorts unions), so they
can key dictionaries in merge trees and be compared structurally in tests.

Terms are plain classes with explicit constructors; assigning an
attribute raises ``AttributeError``, so the kernel sets its marks and
caches through ``object.__setattr__``.  Equality and hashing give the
hash-consed kernel (:mod:`repro.types.intern`) fast paths:

- ``t == t`` short-circuits on identity before any recursion;
- two *interned* terms of the same table are equal iff identical, so a
  deep compare between canonical terms is O(1);
- hashes and ``size()`` are computed once and cached on the instance
  (terms are immutable, so the caches can never go stale); ``size()``
  runs from an explicit stack, so deep terms cost no recursion.

Structural equality between non-interned terms is the seed's: equal
only for the same class and equal fields.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Tuple

from repro.errors import InferenceError


class Type:
    """Base class of every type term (not instantiable itself)."""

    __slots__ = ()

    # Instance attributes shadow these class-level defaults lazily:
    # ``_interned`` is set (to the owning intern table's *epoch token*)
    # by :class:`repro.types.intern.InternTable`; ``_hash`` and
    # ``_size`` cache the first computation.  ``_normal`` marks terms
    # known to be in simplify-normal form — a *structural* property, so
    # unlike the intern mark it stays valid across table epochs and
    # pickling; :func:`repro.types.simplify.simplify` returns marked
    # terms unchanged in O(1).
    _interned: Optional[object] = None
    _hash: Optional[int] = None
    _size: Optional[int] = None
    _normal: bool = False

    def size(self) -> int:
        """Number of AST nodes — the *succinctness* measure of EDBT '17.

        Sizes are computed children first from an explicit stack and
        cached on every node they reach, so a deep term costs no
        recursion.
        """
        cached = self._size
        if cached is not None:
            return cached
        stack: list[Type] = [self]
        while stack:
            node = stack[-1]
            pending = [c for c in node.children() if c._size is None]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if node._size is None:
                object.__setattr__(node, "_size", node._compute_size())
        return self._size  # type: ignore[return-value]

    def _compute_size(self) -> int:
        # Children are sized already (see size()).
        return 1 + sum(child._size for child in self.children())

    def __getstate__(self) -> dict:
        # Drop intern marks and caches: pickled copies (e.g. types shipped
        # back from multiprocessing workers) must rehydrate as plain
        # structural terms, not drag a whole intern table along.
        state = dict(self.__dict__)
        state.pop("_interned", None)
        state.pop("_hash", None)
        state.pop("_size", None)
        return state

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def children(self) -> Iterator["Type"]:
        """Yield direct sub-terms."""
        return iter(())

    def sort_key(self) -> tuple:
        """Total order over terms used to canonicalize union member order."""
        raise NotImplementedError

    def __str__(self) -> str:
        from repro.types.printer import type_to_string

        return type_to_string(self)


class BotType(Type):
    """The empty type ⊥: matches no value; identity for union."""

    def __eq__(self, other: object) -> bool:
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def sort_key(self) -> tuple:
        return (0,)

    def __repr__(self) -> str:
        return "BOT"


class AnyType(Type):
    """The top type ⊤: matches every value."""

    def __eq__(self, other: object) -> bool:
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(())

    def sort_key(self) -> tuple:
        return (9,)

    def __repr__(self) -> str:
        return "ANY"


# Atomic tags in join order: int/flt are refinements of num.
ATOMIC_TAGS = ("null", "bool", "int", "flt", "num", "str")
_ATOM_RANK = {tag: i for i, tag in enumerate(ATOMIC_TAGS)}


class AtomType(Type):
    """An atomic type: ``null``, ``bool``, ``int``, ``flt``, ``num`` or ``str``.

    ``num`` abstracts both ``int`` and ``flt``; the kind-equivalence merge
    produces it when integers and floats meet at the same position.
    """

    tag: str

    def __init__(self, tag: str) -> None:
        if tag not in _ATOM_RANK:
            raise InferenceError(f"unknown atomic tag {tag!r}")
        object.__setattr__(self, "tag", tag)

    @property
    def kind(self) -> str:
        """The JSON kind this atom belongs to (int/flt/num are 'number')."""
        return "number" if self.tag in ("int", "flt", "num") else self.tag

    def sort_key(self) -> tuple:
        return (1, _ATOM_RANK[self.tag])

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.tag == other.tag

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(("atom", self.tag))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return self.tag.capitalize()


# Leaves have no substructure to canonicalize: every instance is already
# in simplify-normal form.
BotType._normal = True
AnyType._normal = True
AtomType._normal = True


# Shared singleton-ish instances (structural equality makes these
# optional, but the names read better at call sites).
BOT = BotType()
ANY = AnyType()
NULL = AtomType("null")
BOOL = AtomType("bool")
INT = AtomType("int")
FLT = AtomType("flt")
NUM = AtomType("num")
STR = AtomType("str")


def _interned_distinct(left: Type, right: Type) -> bool:
    """True when both terms are canonical in the same intern epoch.

    Canonical terms of one table epoch are structurally equal iff
    identical, so when this holds (and ``left is not right``) the deep
    compare can be skipped entirely.  The mark is the table's epoch
    token, not the table itself: ``InternTable.clear()`` starts a new
    epoch, so terms surviving a clear can never falsely alias terms
    interned afterwards.
    """
    token = left._interned
    return token is not None and token is right._interned


class ArrType(Type):
    """Array type ``[T]``: every element matches item type ``T``.

    The empty array has type ``[Bot]`` — ``Bot`` never matches a value, and
    an array with no elements vacuously satisfies it.
    """

    item: Type

    def __init__(self, item: Type) -> None:
        object.__setattr__(self, "item", item)

    def children(self) -> Iterator[Type]:
        yield self.item

    def sort_key(self) -> tuple:
        return (2, self.item.sort_key())

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if _interned_distinct(self, other):
            return False
        return self.item == other.item

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(("arr", self.item))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Arr({self.item!r})"


class FieldType(Type):
    """One record member: name, value type, and a required flag.

    Optional fields (``required=False``) arise from merging records where
    the field is present in only some of them — printed as ``name?: T``.
    """

    name: str
    type: Type
    required: bool

    def __init__(self, name: str, type: Type, required: bool = True) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "required", required)

    def children(self) -> Iterator[Type]:
        yield self.type

    def sort_key(self) -> tuple:
        return (0, self.name, self.required, self.type.sort_key())

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if _interned_distinct(self, other):
            return False
        return (
            self.name == other.name
            and self.required == other.required
            and self.type == other.type
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(("field", self.name, self.required, self.type))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        mark = "" if self.required else "?"
        return f"{self.name}{mark}: {self.type!r}"


class RecType(Type):
    """Record type ``{l1: T1, l2?: T2}``.

    Fields are stored sorted by name, making structurally equal records
    compare equal regardless of construction order.  Unknown extra fields
    are *not* permitted by a record type (closed records), matching the
    inference papers' semantics.
    """

    fields: Tuple[FieldType, ...]

    def __init__(self, fields: Tuple[FieldType, ...]) -> None:
        names = [f.name for f in fields]
        if names != sorted(names):
            fields = tuple(sorted(fields, key=lambda f: f.name))
        if len(set(names)) != len(names):
            raise ValueError("duplicate field names in record type")
        object.__setattr__(self, "fields", fields)

    @classmethod
    def of(cls, mapping: Mapping[str, Type], optional: frozenset[str] = frozenset()) -> "RecType":
        """Build a record from a name→type mapping plus a set of optional names."""
        return cls(
            tuple(
                FieldType(name, t, required=name not in optional)
                for name, t in mapping.items()
            )
        )

    def field_map(self) -> dict[str, FieldType]:
        return {f.name: f for f in self.fields}

    def labels(self) -> frozenset[str]:
        return frozenset(f.name for f in self.fields)

    def required_labels(self) -> frozenset[str]:
        return frozenset(f.name for f in self.fields if f.required)

    def children(self) -> Iterator[Type]:
        return iter(self.fields)

    def _compute_size(self) -> int:
        # A field contributes its name node plus its type's size.
        return 1 + sum(1 + f.type._size for f in self.fields)

    def sort_key(self) -> tuple:
        return (3, tuple(f.sort_key() for f in self.fields))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if _interned_distinct(self, other):
            return False
        return self.fields == other.fields

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(("rec", self.fields))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return "Rec(" + ", ".join(repr(f) for f in self.fields) + ")"


class UnionType(Type):
    """Union type ``T1 + T2 + ...``.

    Use :func:`repro.types.simplify.union` to construct unions — it
    flattens nested unions, removes ``Bot`` and duplicates, and sorts
    members canonically.  The constructor itself only freezes what it is
    given (needed so ``simplify`` can build the canonical form).
    """

    members: Tuple[Type, ...]

    def __init__(self, members: Tuple[Type, ...] = ()) -> None:
        object.__setattr__(self, "members", members)

    def children(self) -> Iterator[Type]:
        return iter(self.members)

    def sort_key(self) -> tuple:
        return (4, tuple(m.sort_key() for m in self.members))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        if _interned_distinct(self, other):
            return False
        return self.members == other.members

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(("union", self.members))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return "Union(" + ", ".join(repr(m) for m in self.members) + ")"


def walk(t: Type) -> Iterator[Type]:
    """Yield ``t`` and every sub-term, pre-order."""
    stack = [t]
    while stack:
        current = stack.pop()
        yield current
        stack.extend(reversed(list(current.children())))
