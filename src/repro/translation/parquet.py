"""A Parquet-like columnar shredder with definition/repetition levels.

The second half of the tutorial's translation opportunity (§5): nested
JSON stored *columnar*.  This is the Dremel record-shredding model that
Parquet implements:

- the schema is a tree of **required/optional fields**, **repeated**
  (list) nodes, and typed leaves;
- every leaf becomes a **column**; each value occurrence is stored as a
  triple ``(repetition_level, definition_level, value)``;
- the repetition level says *which repeated ancestor starts a new entry*;
  the definition level says *how far down the optional/repeated path the
  record actually reached* — together they encode the full nesting without
  storing any structure per row.

``assemble(shred(docs)) == docs`` (up to object key order) is DESIGN.md
invariant 6 and is property-tested against the dataset generators.

General unions are not representable (same restriction as real Parquet);
the schema-aware translation layer resolves them first
(:mod:`repro.translation.translate`).  The nullable shapes it produces
*are*: ``Null + leaf`` and ``Null + record`` each add one definition
level, so an optional object keeps typed leaf columns and an explicit
``null`` stays distinct from an absent field.
"""

from __future__ import annotations

from typing import Any, Iterable, Tuple

from repro.errors import TranslationError
from repro.jsonvalue.model import is_integer_value
from repro.types.terms import (
    ArrType,
    AtomType,
    BotType,
    RecType,
    Type,
    UnionType,
)

_LEAF_KINDS = ("bool", "long", "double", "string", "null", "json", "empty_object")


class PNode:
    """Base class of compiled Parquet-like schema nodes.

    Nodes are immutable values: equal (and hashed) by class and fields,
    the attributes each node's constructor sets, in order.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


class PLeaf(PNode):
    kind: str  # one of _LEAF_KINDS
    nullable: bool  # +1 definition level when value is not null

    def __init__(self, kind: str, nullable: bool = False) -> None:
        if kind not in _LEAF_KINDS:
            raise TranslationError(f"unknown leaf kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "nullable", nullable)


class PField(PNode):
    name: str
    node: PNode
    required: bool  # optional fields add a definition level

    def __init__(self, name: str, node: PNode, required: bool) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "required", required)


class PRecord(PNode):
    fields: Tuple[PField, ...]
    nullable: bool  # +1 definition level when the record is not null

    def __init__(self, fields: Tuple[PField, ...], nullable: bool = False) -> None:
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "nullable", nullable)


class PList(PNode):
    element: PNode  # adds one repetition and one definition level

    def __init__(self, element: PNode) -> None:
        object.__setattr__(self, "element", element)


def compile_schema(t: Type, memo: "dict | None" = None) -> PNode:
    """Compile an inferred type into a Parquet-like schema tree.

    Supported: records (with optionality), arrays, atoms, and the union
    shapes ``T + Null`` (nullable leaf or nullable record), plus unions
    of number atoms with an optional ``Null`` (double).  Any other union
    raises — resolve it first (see ``translate.resolve_type``).

    ``memo`` (id-of-node → compiled subtree) lets callers holding
    *canonical interned* types compile each shared subtree once; the
    translation layer keys such memos to the intern-table epoch.
    """
    if memo is not None:
        hit = memo.get(id(t))
        if hit is not None:
            return hit
    out = _compile(t, memo)
    if memo is not None:
        memo[id(t)] = out
    return out


def _compile(t: Type, memo: "dict | None") -> PNode:
    if isinstance(t, AtomType):
        kind = {
            "null": "null",
            "bool": "bool",
            "int": "long",
            "flt": "double",
            "num": "double",
            "str": "string",
        }[t.tag]
        return PLeaf(kind)
    if isinstance(t, ArrType):
        if isinstance(t.item, BotType):
            return PList(PLeaf("null"))
        return PList(compile_schema(t.item, memo))
    if isinstance(t, RecType):
        if not t.fields:
            # A field-less record has no leaf columns of its own; store it
            # as a marker leaf (value is always the empty object).
            return PLeaf("empty_object")
        return PRecord(
            tuple(
                PField(f.name, compile_schema(f.type, memo), required=f.required)
                for f in t.fields
            )
        )
    if isinstance(t, UnionType):
        members = list(t.members)
        nulls = [m for m in members if isinstance(m, AtomType) and m.tag == "null"]
        rest = [m for m in members if m not in nulls]
        if nulls and len(rest) == 1:
            inner = compile_schema(rest[0], memo)
            if isinstance(inner, PLeaf):
                return PLeaf(inner.kind, nullable=True)
            if isinstance(inner, PRecord):
                return PRecord(inner.fields, nullable=True)
            raise TranslationError(
                "nullable arrays are not supported; resolve the union first"
            )
        if rest and all(
            isinstance(m, AtomType) and m.tag in ("int", "flt", "num") for m in rest
        ):
            return PLeaf("double", nullable=bool(nulls))
        raise TranslationError(f"union {t} is not Parquet-representable")
    raise TranslationError(f"cannot compile {t!r} for columnar storage")


class Column:
    """One leaf column: parallel level and value arrays (``values`` holds
    only the defined values)."""

    def __init__(
        self,
        path: str,
        kind: str,
        max_repetition: int,
        max_definition: int,
        repetition_levels: "list | None" = None,
        definition_levels: "list | None" = None,
        values: "list | None" = None,
    ) -> None:
        self.path = path
        self.kind = kind
        self.max_repetition = max_repetition
        self.max_definition = max_definition
        self.repetition_levels = [] if repetition_levels is None else repetition_levels
        self.definition_levels = [] if definition_levels is None else definition_levels
        self.values = [] if values is None else values

    def entry_count(self) -> int:
        return len(self.repetition_levels)

    def encoded_size(self) -> int:
        """Approximate byte size: packed levels + plainly encoded values."""
        size = 0
        # Levels: one byte each when levels exist at all (Parquet bit-packs
        # tighter; one byte is a fair upper bound at our scale).
        if self.max_repetition > 0:
            size += len(self.repetition_levels)
        if self.max_definition > 0:
            size += len(self.definition_levels)
        return size + _plain_size(self.kind, self.values)


def _plain_size(kind: str, values: list) -> int:
    """Plain-encoded size of one column's values, all of ``kind``."""
    if kind == "bool":
        return len(values)
    if kind == "long":
        return sum(max(1, (abs(int(v)).bit_length() + 7) // 7) for v in values)
    if kind == "double":
        return 8 * len(values)
    if kind in ("string", "json"):
        # 4 length bytes each, plus the UTF-8 bytes of all of them.
        return 4 * len(values) + len("".join(values).encode("utf-8"))
    return 0  # null


class ColumnStore:
    """The shredded representation of a collection."""

    def __init__(self, schema: PNode, columns: dict, row_count: int) -> None:
        self.schema = schema
        self.columns = columns  # path -> Column
        self.row_count = row_count

    def total_encoded_size(self) -> int:
        return sum(c.encoded_size() for c in self.columns.values())

    def column(self, path: str) -> Column:
        if path not in self.columns:
            raise TranslationError(f"no column {path!r}")
        return self.columns[path]


def _leaf_columns(node: PNode, path: str, rep: int, deflevel: int, out: dict) -> None:
    if isinstance(node, PLeaf):
        out[path] = Column(
            path=path,
            kind=node.kind,
            max_repetition=rep,
            max_definition=deflevel + (1 if node.nullable else 0),
        )
        return
    if isinstance(node, PRecord):
        base = deflevel + (1 if node.nullable else 0)
        for f in node.fields:
            child_path = f"{path}.{f.name}" if path else f.name
            _leaf_columns(
                f.node, child_path, rep, base + (0 if f.required else 1), out
            )
        return
    if isinstance(node, PList):
        _leaf_columns(node.element, f"{path}.[]" if path else "[]", rep + 1, deflevel + 1, out)
        return
    raise TranslationError(f"unexpected schema node {node!r}")  # pragma: no cover


class Shredder:
    """Incremental record shredder: one document at a time, no corpus list.

    ``shred`` is this class run over a whole iterable; the single-pass
    translation pipeline feeds it per document instead, interleaved with
    the Avro row encoder, so prepared documents are never materialised
    as a second collection.
    """

    __slots__ = ("schema", "columns", "row_count")

    def __init__(self, schema: PNode) -> None:
        self.schema = schema
        self.columns: dict[str, Column] = {}
        _leaf_columns(schema, "", 0, 0, self.columns)
        self.row_count = 0

    def add(self, doc: Any) -> None:
        self.row_count += 1
        _shred_value(self.schema, doc, "", 0, 0, self.columns)

    def finish(self) -> ColumnStore:
        return ColumnStore(
            schema=self.schema, columns=self.columns, row_count=self.row_count
        )


def shred(documents: Iterable[Any], schema: PNode) -> ColumnStore:
    """Shred schema-conforming documents into columns."""
    shredder = Shredder(schema)
    for doc in documents:
        shredder.add(doc)
    return shredder.finish()


def _emit_missing(node: PNode, path: str, rep: int, deflevel: int, columns: dict) -> None:
    """Record 'not defined below this point' in every descendant column."""
    if isinstance(node, PLeaf):
        column = columns[path]
        column.repetition_levels.append(rep)
        column.definition_levels.append(deflevel)
        return
    if isinstance(node, PRecord):
        for f in node.fields:
            child = f"{path}.{f.name}" if path else f.name
            _emit_missing(f.node, child, rep, deflevel, columns)
        return
    if isinstance(node, PList):
        _emit_missing(node.element, f"{path}.[]" if path else "[]", rep, deflevel, columns)
        return
    raise TranslationError(f"unexpected schema node {node!r}")  # pragma: no cover


def leaf_paths(node: PNode, path: str = "") -> list:
    """Paths of every leaf column under ``node``.

    Exactly the columns :func:`_emit_missing` touches when the subtree at
    ``path`` is absent — the stream translate machine precompiles this
    traversal into flat ``(column, definition_level)`` emission lists so a
    missing optional field costs one loop over them, not a tree walk.
    """
    if isinstance(node, PLeaf):
        return [path]
    if isinstance(node, PRecord):
        out = []
        for f in node.fields:
            out.extend(leaf_paths(f.node, f"{path}.{f.name}" if path else f.name))
        return out
    if isinstance(node, PList):
        return leaf_paths(node.element, f"{path}.[]" if path else "[]")
    raise TranslationError(f"unexpected schema node {node!r}")  # pragma: no cover


def _shred_value(
    node: PNode,
    value: Any,
    path: str,
    rep: int,
    deflevel: int,
    columns: dict,
) -> None:
    if isinstance(node, PLeaf):
        column = columns[path]
        column.repetition_levels.append(rep)
        if node.nullable and value is None:
            column.definition_levels.append(deflevel)
        else:
            _check_leaf(node.kind, value, path)
            column.definition_levels.append(column.max_definition)
            if node.kind not in ("null", "empty_object"):
                column.values.append(value)
        return
    if isinstance(node, PRecord):
        if node.nullable:
            if value is None:
                # Defined up to the record itself but not past it: one
                # entry per descendant column at the record's own level.
                for f in node.fields:
                    child = f"{path}.{f.name}" if path else f.name
                    _emit_missing(f.node, child, rep, deflevel, columns)
                return
            deflevel += 1
        if not isinstance(value, dict):
            raise TranslationError(f"expected object at {path or '<root>'}, got {value!r}")
        matched = 0
        for f in node.fields:
            child = f"{path}.{f.name}" if path else f.name
            if f.name in value:
                matched += 1
                _shred_value(
                    f.node,
                    value[f.name],
                    child,
                    rep,
                    deflevel + (0 if f.required else 1),
                    columns,
                )
            elif f.required:
                raise TranslationError(f"missing required field {child!r}")
            else:
                _emit_missing(f.node, child, rep, deflevel, columns)
        if matched != len(value):
            known = {f.name for f in node.fields}
            extra = next(k for k in value if k not in known)
            where = f"{path}.{extra}" if path else extra
            raise TranslationError(
                f"document field {where!r} is not in the schema"
            )
        return
    if isinstance(node, PList):
        if not isinstance(value, list):
            raise TranslationError(f"expected array at {path or '<root>'}, got {value!r}")
        child = f"{path}.[]" if path else "[]"
        if not value:
            # Defined-but-empty list: definition stops at the list's own
            # level (one entry per descendant column).
            _emit_missing(node.element, child, rep, deflevel, columns)
            return
        continuation_rep = _rep_of(child)
        for i, element in enumerate(value):
            _shred_value(
                node.element,
                element,
                child,
                rep if i == 0 else continuation_rep,
                deflevel + 1,
                columns,
            )
        return
    raise TranslationError(f"unexpected schema node {node!r}")  # pragma: no cover


def _rep_of(path: str) -> int:
    return path.count(".[]") + (1 if path.startswith("[]") else 0)


def _check_leaf(kind: str, value: Any, path: str) -> None:
    ok = {
        "bool": lambda v: isinstance(v, bool),
        "long": is_integer_value,
        "double": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "string": lambda v: isinstance(v, str),
        "null": lambda v: v is None,
        "json": lambda v: isinstance(v, str),
        "empty_object": lambda v: isinstance(v, dict) and not v,
    }[kind]
    if not ok(value):
        raise TranslationError(f"value {value!r} does not fit column {path!r} ({kind})")


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def assemble(store: ColumnStore) -> list[Any]:
    """Rebuild the documents from the shredded columns."""
    # Split every column into per-row runs: repetition level 0 starts a row.
    per_row: dict[str, list[list[tuple[int, int, Any]]]] = {}
    for path, column in store.columns.items():
        rows: list[list[tuple[int, int, Any]]] = []
        value_index = 0
        for rep, deflevel in zip(column.repetition_levels, column.definition_levels):
            value: Any = None
            if deflevel == column.max_definition and column.kind not in ("null", "empty_object"):
                value = column.values[value_index]
                value_index += 1
            elif deflevel == column.max_definition and column.kind == "empty_object":
                value = {}
            if rep == 0:
                rows.append([])
            rows[-1].append((rep, deflevel, value))
        per_row[path] = rows

    documents = []
    for row in range(store.row_count):
        entries = {
            path: (rows[row] if row < len(rows) else [])
            for path, rows in per_row.items()
        }
        documents.append(_assemble_row(store.schema, entries))
    return documents


def _assemble_row(schema: PNode, entries: dict) -> Any:
    value, _ = _assemble_node(schema, "", 0, 0, entries, {p: 0 for p in entries})
    return value


def _assemble_node(
    node: PNode,
    path: str,
    rep: int,
    deflevel: int,
    entries: dict,
    cursors: dict,
) -> tuple[Any, bool]:
    """Rebuild the value of ``node``; returns (value, defined).

    ``deflevel`` is the definition level *at this node* (its own field
    optionality already counted).  ``cursors`` tracks, per column, how many
    entries have been consumed.
    """
    if isinstance(node, PLeaf):
        row_entries = entries[path]
        cursor = cursors[path]
        if cursor >= len(row_entries):
            raise TranslationError(f"column {path!r} exhausted during assembly")
        _, d, value = row_entries[cursor]
        cursors[path] = cursor + 1
        own_max = deflevel + (1 if node.nullable else 0)
        if d >= deflevel:
            if node.nullable and d < own_max:
                return None, True
            if node.kind == "null":
                return None, True
            if node.kind == "empty_object":
                return {}, True
            return value, True
        return None, False
    if isinstance(node, PRecord):
        # Defined iff the definition level of any descendant entry reaches
        # this record's level (probe the first leaf, def levels are
        # monotone along the path).
        probe_d = _peek_definition(node, path, entries, cursors)
        if probe_d < deflevel:
            _consume_missing(node, path, entries, cursors)
            return None, False
        inner = deflevel
        if node.nullable:
            if probe_d == deflevel:
                # Reached the record but not past its nullable level:
                # an explicit null, distinct from "field absent".
                _consume_missing(node, path, entries, cursors)
                return None, True
            inner = deflevel + 1
        out = {}
        for f in node.fields:
            child = f"{path}.{f.name}" if path else f.name
            child_def = inner + (0 if f.required else 1)
            value, defined = _assemble_node(f.node, child, rep, child_def, entries, cursors)
            if defined:
                out[f.name] = value
            # not defined: optional field absent → key omitted
        return out, True
    if isinstance(node, PList):
        child = f"{path}.[]" if path else "[]"
        child_rep = rep + 1
        child_def = deflevel + 1
        probe_d = _peek_definition(node.element, child, entries, cursors)
        if probe_d >= child_def:
            out_list = []
            while True:
                value, _ = _assemble_node(
                    node.element, child, child_rep, child_def, entries, cursors
                )
                out_list.append(value)
                if not _next_is_continuation(node.element, child, child_rep, entries, cursors):
                    break
            return out_list, True
        _consume_missing(node.element, child, entries, cursors)
        if probe_d >= deflevel:
            return [], True  # defined but empty
        return None, False  # list not reached at all
    raise TranslationError(f"unexpected schema node {node!r}")  # pragma: no cover


def _first_leaf(node: PNode, path: str) -> str:
    if isinstance(node, PLeaf):
        return path
    if isinstance(node, PRecord):
        f = node.fields[0]
        return _first_leaf(f.node, f"{path}.{f.name}" if path else f.name)
    if isinstance(node, PList):
        return _first_leaf(node.element, f"{path}.[]" if path else "[]")
    raise TranslationError(f"unexpected schema node {node!r}")  # pragma: no cover


def _peek_definition(node: PNode, path: str, entries: dict, cursors: dict) -> int:
    """Definition level of the next unconsumed entry of the first leaf."""
    probe = _first_leaf(node, path)
    cursor = cursors[probe]
    row_entries = entries[probe]
    if cursor >= len(row_entries):
        raise TranslationError(f"column {probe!r} exhausted during assembly")
    _, d, _ = row_entries[cursor]
    return d


def _consume_missing(node: PNode, path: str, entries: dict, cursors: dict) -> None:
    """Advance one entry in every descendant column (undefined subtree)."""
    if isinstance(node, PLeaf):
        cursors[path] += 1
        return
    if isinstance(node, PRecord):
        for f in node.fields:
            _consume_missing(f.node, f"{path}.{f.name}" if path else f.name, entries, cursors)
        return
    if isinstance(node, PList):
        _consume_missing(node.element, f"{path}.[]" if path else "[]", entries, cursors)
        return
    raise TranslationError(f"unexpected schema node {node!r}")  # pragma: no cover


def _next_is_continuation(
    element: PNode, child_path: str, child_rep: int, entries: dict, cursors: dict
) -> bool:
    """Does the next entry of the list's first leaf continue this list?"""
    probe = _first_leaf(element, child_path)
    cursor = cursors[probe]
    row_entries = entries[probe]
    if cursor >= len(row_entries):
        return False
    r, _, _ = row_entries[cursor]
    return r >= child_rep
