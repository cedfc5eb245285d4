"""The record classes of the modules every CLI route imports are plain
classes (no ``dataclasses``, see ``tests/test_lazy_imports.py``).  One
table pins what their callers rely on:

- constructor calls, positional and keyword, with the same defaults
  (a mutable default is a fresh empty list per instance);
- value classes are equal, and hash alike, only for the same class and
  equal fields; the others compare by identity;
- immutable classes raise ``AttributeError`` on assignment, mutable
  ones accept it;
- classes that cross a process boundary pickle to an equal copy.

Deeper contracts live beside the code that uses them: interned terms
drop their marks when pickled
(``tests/test_process_boundary.py::test_pickled_interned_terms_strip_marks_and_reintern_to_identity``),
parse errors carry their token across a pool
(``test_parser_errors_cross_the_process_boundary_intact``), and a
resolution's plan survives pickling
(``tests/test_translation_conformance.py::test_resolution_survives_pickling``).
"""

from __future__ import annotations

import pickle
from typing import NamedTuple, Optional

import pytest

from repro.inference.distributed import (
    DistributedRun,
    ParallelRun,
    RangeTask,
    SchedulePlan,
    StageCost,
    _Terms,
)
from repro.inference.engine import SubtreeSplit
from repro.inference.parametric import InferenceReport
from repro.jsonschema.errors import ValidationFailure, ValidationResult
from repro.jsonvalue.lexer import Token, TokenType
from repro.jsonvalue.model import StructuralStats
from repro.jsonvalue.parser import JsonParseError, ParseOptions
from repro.jsonvalue.pointer import JsonPointer
from repro.jsonvalue.serializer import DumpOptions
from repro.parsing.structural import StructuralIndex, SubtreeScan
from repro.translation.avro import (
    LONG,
    NULL,
    STRING,
    AArray,
    AField,
    AMap,
    APrimitive,
    ARecord,
    AUnion,
)
from repro.translation.parquet import Column, ColumnStore, PField, PLeaf, PList, PRecord
from repro.translation.translate import (
    CLEAN,
    ArrPlan,
    ObliviousReport,
    RecPlan,
    Resolution,
    TranslationReport,
    TranslationRun,
    _Clean,
    _Fallback,
)
from repro.types import Equivalence
from repro.types.intern import global_table
from repro.types.terms import (
    INT,
    STR,
    AnyType,
    ArrType,
    AtomType,
    BotType,
    FieldType,
    RecType,
    UnionType,
)

KIND = Equivalence.KIND
ROOT = JsonPointer()


class Case(NamedTuple):
    cls: type
    fields: tuple  # constructor parameters, in order
    args: tuple  # one value per field
    defaults: dict  # trailing fields the constructor may omit
    frozen: bool
    # A value class: the same args but the first changed.  None for
    # classes that compare by identity.
    other: Optional[tuple] = None
    pickles: bool = False


def _store():
    return ColumnStore(PLeaf("long"), {}, 0)


def _report():
    return TranslationReport(1, _store(), None, 0, 1, 0, 10)


CASES = [
    # jsonvalue
    Case(Token, ("type", "value", "offset", "end_offset", "line", "column"),
         (TokenType.NUMBER, 1, 0, 1, 1, 1), {}, True, pickles=True),
    Case(StructuralStats,
         ("node_count", "max_depth", "leaf_count", "object_count",
          "array_count", "key_count"),
         (1, 1, 1, 0, 0, 0), {}, True, other=(2, 1, 1, 0, 0, 0)),
    Case(ParseOptions, ("max_depth", "duplicate_keys", "require_top_level_container"),
         (512, "last", False),
         {"max_depth": 512, "duplicate_keys": "last",
          "require_top_level_container": False}, True),
    Case(DumpOptions, ("indent", "sort_keys", "ensure_ascii", "allow_nan"),
         (None, False, False, False),
         {"indent": None, "sort_keys": False, "ensure_ascii": False,
          "allow_nan": False}, True),
    # jsonschema
    Case(ValidationFailure, ("instance_path", "schema_path", "keyword", "message"),
         (ROOT, ROOT.child("type"), "type", "not a string"), {}, True,
         other=(ROOT.child("a"), ROOT.child("type"), "type", "not a string")),
    Case(ValidationResult, ("failures",), ([],), {"failures": []}, False),
    # type terms
    Case(BotType, (), (), {}, True, other=(), pickles=True),
    Case(AnyType, (), (), {}, True, other=(), pickles=True),
    Case(AtomType, ("tag",), ("int",), {}, True, other=("str",), pickles=True),
    Case(ArrType, ("item",), (INT,), {}, True, other=(STR,), pickles=True),
    Case(FieldType, ("name", "type", "required"), ("a", INT, True),
         {"required": True}, True, other=("b", INT, True), pickles=True),
    Case(RecType, ("fields",), ((FieldType("a", INT),),), {}, True,
         other=((FieldType("b", INT),),), pickles=True),
    Case(UnionType, ("members",), ((INT, STR),), {"members": ()}, True,
         other=((INT,),), pickles=True),
    # inference
    Case(SubtreeSplit, ("frames", "kind", "chunks"), (("arr1",), "array", ((1, 2),)),
         {}, True, other=((), "array", ((1, 2),))),
    Case(InferenceReport, ("inferred", "equivalence", "document_count"),
         (INT, KIND, 1), {}, True),
    Case(StageCost, ("name", "tasks", "max_task_units", "total_units", "shipped_bytes"),
         ("map+combine", 1, 2, 3, 4), {}, False),
    Case(DistributedRun, ("result", "partitions", "equivalence", "stages"),
         (INT, 1, KIND, []), {"stages": []}, False),
    Case(ParallelRun,
         ("result", "partitions", "processes", "equivalence",
          "partition_documents", "plan"),
         (INT, 1, 1, KIND, [3], None), {"partition_documents": [], "plan": None},
         False, pickles=True),
    Case(RangeTask,
         ("path", "format", "ranges", "fold", "equivalence", "kind", "depth"),
         ("corpus.ndjson", None, ((0, 10),), "types", KIND, "", 512),
         {"equivalence": KIND, "kind": "", "depth": 512}, True, pickles=True),
    Case(SchedulePlan,
         ("mode", "jobs", "documents", "cpus", "sample_docs_per_sec",
          "estimated_serial_seconds", "estimated_parallel_seconds", "reason",
          "calibration_source"),
         ("serial", 1, 10, 2, 0.0, 0.0, 0.0, "one worker requested", "default"),
         {"calibration_source": "default"}, True),
    Case(_Terms,
         ("what", "units", "serial_seconds", "split_seconds", "mode",
          "sample_docs_per_sec"),
         ("10-line corpus", 10, 0.0, 0.0, "parallel", 0.0),
         {"serial_seconds": 0.0, "split_seconds": 0.0, "mode": "parallel",
          "sample_docs_per_sec": 0.0}, True),
    # translation: Avro schemas
    Case(APrimitive, ("name",), ("long",), {}, True, other=("string",)),
    Case(AField, ("name", "type"), ("a", LONG), {}, True, other=("b", LONG)),
    Case(ARecord, ("name", "fields"), ("R", (AField("a", LONG),)), {}, True,
         other=("S", (AField("a", LONG),))),
    Case(AArray, ("items",), (LONG,), {}, True, other=(STRING,)),
    Case(AUnion, ("branches",), ((NULL, LONG),), {}, True, other=((NULL,),)),
    Case(AMap, ("values",), (LONG,), {}, True, other=(STRING,)),
    # translation: Parquet schemas and columns
    Case(PLeaf, ("kind", "nullable"), ("long", False), {"nullable": False}, True,
         other=("double", False)),
    Case(PField, ("name", "node", "required"), ("a", PLeaf("long"), True), {}, True,
         other=("b", PLeaf("long"), True)),
    Case(PRecord, ("fields", "nullable"), ((PField("a", PLeaf("long"), True),), False),
         {"nullable": False}, True, other=((), False)),
    Case(PList, ("element",), (PLeaf("long"),), {}, True, other=(PLeaf("double"),)),
    Case(Column,
         ("path", "kind", "max_repetition", "max_definition",
          "repetition_levels", "definition_levels", "values"),
         ("a", "long", 0, 0, [0], [0], [7]),
         {"repetition_levels": [], "definition_levels": [], "values": []}, False),
    Case(ColumnStore, ("schema", "columns", "row_count"), (PLeaf("long"), {}, 0), {},
         False),
    # translation: plans and reports
    Case(_Clean, (), (), {}, True),
    Case(_Fallback, (), (), {}, True),
    Case(ArrPlan, ("item",), (CLEAN,), {}, True),
    Case(RecPlan, ("children", "labels"), ({}, frozenset({"a"})), {}, True),
    Case(Resolution, ("resolved", "fallbacks", "plan"), (INT, (), CLEAN), {}, True),
    Case(TranslationReport,
         ("document_count", "columnar", "avro_rows", "fallback_count",
          "typed_leaf_columns", "json_leaf_columns", "input_bytes", "row_bytes"),
         (1, _store(), None, 0, 1, 0, 10, 12), {"row_bytes": None}, False),
    Case(TranslationRun,
         ("translation", "inferred", "resolved", "equivalence", "artifacts"),
         (_report(), INT, INT, KIND, {"rows.avro": 3}), {"artifacts": None}, False),
    Case(ObliviousReport, ("document_count", "blobs"), (1, [b"{}"]), {}, False),
    # parsing
    Case(StructuralIndex,
         ("text", "string_mask", "colons", "commas", "open_braces",
          "close_braces", "open_brackets", "close_brackets", "colon_levels",
          "comma_levels", "max_level"),
         ("{}", 0, 0, 0, 1, 2, 0, 0, [0], [0], 1), {}, False),
    Case(SubtreeScan, ("kind", "open", "close", "parts"), ("array", 0, 5, ((1, 4),)),
         {}, True),
]
IDS = [case.cls.__name__ for case in CASES]


def _fields(obj, case: Case) -> list:
    return [getattr(obj, name) for name in case.fields]


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_constructor_calls(case):
    positional = case.cls(*case.args)
    assert _fields(positional, case) == list(case.args)
    keyword = case.cls(**dict(zip(case.fields, case.args)))
    assert _fields(keyword, case) == list(case.args)

    required = len(case.fields) - len(case.defaults)
    assert tuple(case.fields[required:]) == tuple(case.defaults)
    first = case.cls(*case.args[:required])
    second = case.cls(*case.args[:required])
    for name, default in case.defaults.items():
        assert getattr(first, name) == default
        if isinstance(default, list):  # a fresh list per instance
            assert getattr(first, name) is not getattr(second, name)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_equality_and_hash(case):
    one = case.cls(*case.args)
    two = case.cls(*case.args)
    subclass = type("Sub", (case.cls,), {})
    assert one == one
    assert one != subclass(*case.args)
    if case.other is None:
        assert one != two  # identity
        return
    assert one == two and not one != two
    assert hash(one) == hash(two)
    if case.other != case.args:
        assert one != case.cls(*case.other)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_assignment(case):
    obj = case.cls(*case.args)
    name = case.fields[0] if case.fields else "anything"
    if case.frozen:
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    else:
        setattr(obj, name, None)
        assert getattr(obj, name) is None


@pytest.mark.parametrize(
    "case", [case for case in CASES if case.pickles],
    ids=[case.cls.__name__ for case in CASES if case.pickles],
)
def test_pickle_round_trip(case):
    obj = case.cls(*case.args)
    if isinstance(obj, Token):
        # Tokens cross a pool inside the parse errors that carry them.
        obj = pickle.loads(pickle.dumps(JsonParseError("unexpected", obj))).token
    else:
        obj = pickle.loads(pickle.dumps(obj))
    assert type(obj) is case.cls
    assert _fields(obj, case) == list(case.args)


@pytest.mark.parametrize(
    "term",
    [RecType((FieldType("a", ArrType(INT)), FieldType("b", UnionType((INT, STR)))))],
)
def test_pickled_terms_carry_no_marks(term):
    canonical = global_table().canonical(term)
    hash(canonical)
    canonical.size()
    state = pickle.loads(pickle.dumps(canonical)).__dict__
    assert not {"_interned", "_hash", "_size"} & set(state)
    assert state["_normal"] is True
