"""Bridges from the inference type algebra to PL type declarations.

This closes the tutorial's loop between Part 4 (inference produces types)
and Part 3 (programming languages consume them): a type inferred from a
JSON collection becomes a TypeScript declaration (unions survive) or a
Swift ``Codable`` struct (unions fail loudly — Swift cannot express them,
which is exactly the comparison the tutorial makes).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.pl import swift as sw
from repro.pl import typescript as ts
from repro.pl.swift import SwiftInferenceError
from repro.types.terms import (
    AnyType,
    ArrType,
    AtomType,
    BotType,
    RecType,
    Type,
    UnionType,
)


def algebra_to_typescript(t: Type) -> ts.TSType:
    """Translate a type-algebra term into a TypeScript type (total)."""
    if isinstance(t, BotType):
        return ts.NEVER
    if isinstance(t, AnyType):
        return ts.UNKNOWN
    if isinstance(t, AtomType):
        if t.tag == "null":
            return ts.NULL
        if t.tag == "bool":
            return ts.BOOLEAN
        if t.tag == "str":
            return ts.STRING
        return ts.NUMBER  # int/flt/num all collapse: TS has one number type
    if isinstance(t, ArrType):
        return ts.TSArray(algebra_to_typescript(t.item))
    if isinstance(t, RecType):
        return ts.TSObject(
            tuple(
                ts.TSProperty(f.name, algebra_to_typescript(f.type), optional=not f.required)
                for f in t.fields
            )
        )
    if isinstance(t, UnionType):
        return ts.union(algebra_to_typescript(m) for m in t.members)
    raise TypeError(f"cannot translate {t!r} to TypeScript")


def algebra_to_swift(t: Type, name: str = "Root") -> sw.SwiftType:
    """Translate a type-algebra term into a Swift type (partial).

    Raises :class:`SwiftInferenceError` for union types other than the two
    Swift-representable shapes ``T + Null`` (→ ``T?``) and ``Int + Flt``
    (→ ``Double``).
    """
    if isinstance(t, AtomType):
        if t.tag == "null":
            return sw.SwiftOptional(sw.STRING)
        if t.tag == "bool":
            return sw.BOOL
        if t.tag == "int":
            return sw.INT
        if t.tag in ("flt", "num"):
            return sw.DOUBLE
        return sw.STRING
    if isinstance(t, ArrType):
        if isinstance(t.item, BotType):
            return sw.SwiftArray(sw.STRING)
        return sw.SwiftArray(algebra_to_swift(t.item, name + "Element"))
    if isinstance(t, RecType):
        fields = tuple(
            sw.SwiftField(
                f.name,
                _optionalize(
                    algebra_to_swift(f.type, _camel(name, f.name)), optional=not f.required
                ),
            )
            for f in t.fields
        )
        return sw.SwiftStruct(_camel(name), fields)
    if isinstance(t, UnionType):
        members = list(t.members)
        null_members = [m for m in members if isinstance(m, AtomType) and m.tag == "null"]
        rest = [m for m in members if m not in null_members]
        if null_members and len(rest) == 1:
            return sw.SwiftOptional(algebra_to_swift(rest[0], name))
        tags = {m.tag for m in members if isinstance(m, AtomType)}
        if tags == {"int", "flt"} and len(members) == 2:
            return sw.DOUBLE
        raise SwiftInferenceError(
            f"cannot represent union {t} in Swift (no union types)"
        )
    if isinstance(t, (BotType, AnyType)):
        raise SwiftInferenceError(f"cannot represent {t} in Swift")
    raise TypeError(f"cannot translate {t!r} to Swift")


def _optionalize(t: sw.SwiftType, *, optional: bool) -> sw.SwiftType:
    if optional and not isinstance(t, sw.SwiftOptional):
        return sw.SwiftOptional(t)
    return t


def _camel(*parts: str) -> str:
    out = []
    for part in parts:
        for piece in part.replace("-", "_").split("_"):
            if piece:
                out.append(piece[0].upper() + piece[1:])
    return "".join(out) or "Anonymous"


def typescript_declaration_for(docs: Iterable[Any], name: str = "Root") -> str:
    """Infer a type from sample documents and emit a TypeScript declaration."""
    from repro.types import Equivalence, merge_all, type_of

    inferred = merge_all((type_of(d) for d in docs), Equivalence.KIND)
    return ts.declaration(algebra_to_typescript(inferred), name)


def swift_declaration_for(docs: Iterable[Any], name: str = "Root") -> str:
    """Infer a struct from sample documents and emit Swift source.

    Raises :class:`SwiftInferenceError` when the data is too heterogeneous
    for Swift's type system.
    """
    from repro.types import Equivalence, merge_all, type_of

    inferred = merge_all((type_of(d) for d in docs), Equivalence.KIND)
    return _swift_source(algebra_to_swift(inferred, name), name)


def _swift_source(swift_type: sw.SwiftType, name: str) -> str:
    """A struct renders as its declaration, anything else as an alias."""
    if isinstance(swift_type, sw.SwiftStruct):
        return sw.render_struct(swift_type)
    return f"typealias {name} = {sw.render_type(swift_type)}\n"
