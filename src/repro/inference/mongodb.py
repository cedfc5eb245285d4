"""mongodb-schema-style streaming analyzer (tutorial §4.1).

``mongodb-schema`` "analyzes JSON objects pulled from MongoDB, and
processes them in a **streaming fashion**; it is able to return quite
concise schemas, but it **cannot infer information describing field
correlation**".

The reproduction: a :class:`StreamingAnalyzer` consuming one document at a
time in O(schema) memory.  For every field (recursively, with arrays
abstracted to their elements) it tracks

- ``count`` — in how many parent documents the field appeared,
- ``probability`` — count / parents seen,
- per-BSON-ish-type counts and probabilities,
- a bounded reservoir of sample values.

The output deliberately has **no correlation information**: each field is
summarised independently, so ``{"a":1,"b":1}`` vs ``{"a":2}``/``{"b":2}``
produce identical summaries — a property the tests assert, since it is the
limitation the tutorial uses to position the parametric approach.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from typing import Any, Iterable, Optional

from repro.errors import InferenceError
from repro.jsonvalue.model import JsonKind, is_integer_value, kind_of


def _type_name(value: Any) -> str:
    kind = kind_of(value)
    if kind is JsonKind.NULL:
        return "Null"
    if kind is JsonKind.BOOLEAN:
        return "Boolean"
    if kind is JsonKind.NUMBER:
        return "Long" if is_integer_value(value) else "Double"
    if kind is JsonKind.STRING:
        return "String"
    if kind is JsonKind.ARRAY:
        return "Array"
    return "Document"


@dataclass
class TypeSummary:
    """Statistics for one (field, type) pair."""

    name: str
    count: int = 0
    samples: list = dc_field(default_factory=list)
    # For Array: summary of the elements; for Document: nested fields.
    elements: Optional["FieldSummaryMap"] = None
    document: Optional["FieldSummaryMap"] = None

    def probability(self, parent_count: int) -> float:
        return self.count / parent_count if parent_count else 0.0


@dataclass
class FieldSummary:
    """Statistics for one field across all parents that could carry it."""

    name: str
    count: int = 0
    types: dict = dc_field(default_factory=dict)  # type name -> TypeSummary

    def probability(self, parent_count: int) -> float:
        return self.count / parent_count if parent_count else 0.0


class FieldSummaryMap:
    """A set of field summaries under one parent (document or array elems)."""

    def __init__(self) -> None:
        self.fields: dict[str, FieldSummary] = {}
        self.parent_count = 0


class StreamingAnalyzer:
    """Streaming, field-level schema analyzer (no correlations, by design)."""

    def __init__(self, *, sample_size: int = 5, seed: int = 0) -> None:
        self.sample_size = sample_size
        self._rng = random.Random(seed)
        self._root = FieldSummaryMap()
        self._seen = 0

    def feed(self, document: Any) -> None:
        """Consume one document (must be an object, as in MongoDB)."""
        if not isinstance(document, dict):
            raise InferenceError("mongodb-schema analyzes object documents only")
        self._seen += 1
        self._feed_object(self._root, document)

    def feed_many(self, documents: Iterable[Any]) -> "StreamingAnalyzer":
        for doc in documents:
            self.feed(doc)
        return self

    def _feed_object(self, summary_map: FieldSummaryMap, obj: dict) -> None:
        summary_map.parent_count += 1
        for name, value in obj.items():
            summary = summary_map.fields.get(name)
            if summary is None:
                summary = FieldSummary(name)
                summary_map.fields[name] = summary
            summary.count += 1
            self._feed_value(summary, value)

    def _feed_value(self, summary: FieldSummary, value: Any) -> None:
        tname = _type_name(value)
        tsummary = summary.types.get(tname)
        if tsummary is None:
            tsummary = TypeSummary(tname)
            summary.types[tname] = tsummary
        tsummary.count += 1
        self._reservoir(tsummary, value)
        if tname == "Document":
            if tsummary.document is None:
                tsummary.document = FieldSummaryMap()
            self._feed_object(tsummary.document, value)
        elif tname == "Array":
            if tsummary.elements is None:
                tsummary.elements = FieldSummaryMap()
            # Array elements are summarised as an anonymous "[]" field.
            tsummary.elements.parent_count += 1
            elem_summary = tsummary.elements.fields.get("[]")
            if elem_summary is None:
                elem_summary = FieldSummary("[]")
                tsummary.elements.fields["[]"] = elem_summary
            for element in value:
                elem_summary.count += 1
                self._feed_value(elem_summary, element)

    def _reservoir(self, tsummary: TypeSummary, value: Any) -> None:
        if tsummary.name in ("Document", "Array"):
            return
        samples = tsummary.samples
        if len(samples) < self.sample_size:
            samples.append(value)
        else:
            index = self._rng.randint(0, tsummary.count - 1)
            if index < self.sample_size:
                samples[index] = value

    # -- output ----------------------------------------------------------

    def result(self) -> dict[str, Any]:
        """A JSON-ready summary, shaped like mongodb-schema's output."""
        if not self._seen:
            raise InferenceError("no documents analyzed")
        return {
            "count": self._seen,
            "fields": _render_map(self._root),
        }

    def schema_size(self) -> int:
        """Node count of the summary (conciseness measure for E10)."""

        def size_of(node: Any) -> int:
            if isinstance(node, dict):
                return 1 + sum(size_of(v) for v in node.values())
            if isinstance(node, list):
                return 1 + sum(size_of(v) for v in node)
            return 1

        return size_of(self.result())


def _render_map(summary_map: FieldSummaryMap) -> list[dict[str, Any]]:
    out = []
    for name in sorted(summary_map.fields):
        summary = summary_map.fields[name]
        types_out = []
        for tname in sorted(summary.types):
            tsummary = summary.types[tname]
            entry: dict[str, Any] = {
                "name": tname,
                "count": tsummary.count,
                "probability": round(tsummary.count / summary.count, 4),
            }
            if tsummary.samples:
                entry["samples"] = list(tsummary.samples)
            if tsummary.document is not None:
                entry["fields"] = _render_map(tsummary.document)
            if tsummary.elements is not None:
                entry["elements"] = _render_map(tsummary.elements)
            types_out.append(entry)
        out.append(
            {
                "name": name,
                "count": summary.count,
                "probability": round(summary.probability(summary_map.parent_count), 4),
                "types": types_out,
            }
        )
    return out


def analyze(documents: Iterable[Any], *, sample_size: int = 5, seed: int = 0) -> dict[str, Any]:
    """One-shot convenience: stream all documents, return the summary."""
    analyzer = StreamingAnalyzer(sample_size=sample_size, seed=seed)
    analyzer.feed_many(documents)
    return analyzer.result()
