"""Parametric schema inference (Baazizi et al., EDBT '17 / VLDB J '19).

The tutorial's own line of work: a *distributed, parametric* inference
algorithm "capable of inferring schemas at different levels of abstraction".
The algorithm is a map/reduce over the collection:

- **map**: each document is typed exactly — fused straight into canonical
  interned terms by :class:`repro.types.build.TypeEncoder`, the
  recursion-free equivalent of ``intern(type_of(document))``;
- **reduce**: types are merged monoidally under an *equivalence parameter*
  (:class:`repro.types.merge.Equivalence`) that controls precision:
  ``KIND`` fuses aggressively (one record type), ``LABEL`` keeps records
  with different label sets as distinct union members, preserving field
  correlations.

Because merge is associative and commutative (property-tested), the reduce
can be arbitrarily partitioned — which is what
:mod:`repro.inference.distributed` exploits.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable

from repro.errors import InferenceError
from repro.inference.engine import accumulate
from repro.types import (
    Equivalence,
    Type,
    matches,
    type_to_jsonschema,
    type_to_string,
)


class InferenceReport:
    """The inferred type plus the measurements the papers report
    (immutable)."""

    def __init__(
        self, inferred: Type, equivalence: Equivalence, document_count: int
    ) -> None:
        object.__setattr__(self, "inferred", inferred)
        object.__setattr__(self, "equivalence", equivalence)
        object.__setattr__(self, "document_count", document_count)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def schema_size(self) -> int:
        """AST node count — the succinctness measure."""
        return self.inferred.size()

    def to_jsonschema(self) -> dict:
        return type_to_jsonschema(self.inferred)

    def __str__(self) -> str:
        return (
            f"[{self.equivalence.value}] {self.document_count} docs -> "
            f"size {self.schema_size}: {type_to_string(self.inferred)}"
        )


def infer_type(
    documents: Iterable[Any], equivalence: Equivalence = Equivalence.KIND
) -> Type:
    """Infer the type of a collection under the given equivalence.

    Runs through the incremental engine: documents are typed by the
    fused encoder and folded into a
    :class:`~repro.inference.engine.TypeAccumulator` one at a time, so
    the collection is never materialized as a list of types and no raw
    (un-interned) type tree is ever built.  The result is structurally
    identical to the seed's
    ``merge_all([type_of(d) for d in documents], equivalence)``.
    """
    accumulator = accumulate(documents, equivalence)
    if accumulator.is_empty():
        raise InferenceError("cannot infer a schema from an empty collection")
    return accumulator.result()


def infer(
    documents: Iterable[Any], equivalence: Equivalence = Equivalence.KIND
) -> InferenceReport:
    """Infer and report (type + size + count)."""
    accumulator = accumulate(documents, equivalence)
    if accumulator.is_empty():
        raise InferenceError("cannot infer a schema from an empty collection")
    return InferenceReport(
        inferred=accumulator.result(),
        equivalence=equivalence,
        document_count=accumulator.document_count,
    )


def precision_against(inferred: Type, witnesses: Iterable[Any]) -> float:
    """Fraction of *witness* documents accepted by the inferred type.

    With witnesses drawn from outside the training collection this is the
    (inverse of the) over-generalisation measure: KIND typically accepts
    more outsiders than LABEL because fused records forget correlations.
    """
    iterator = iter(witnesses)
    try:
        first = next(iterator)
    except StopIteration:
        raise InferenceError("precision_against needs at least one witness") from None
    total = 0
    accepted = 0
    for w in itertools.chain((first,), iterator):
        total += 1
        if matches(w, inferred):
            accepted += 1
    return accepted / total
