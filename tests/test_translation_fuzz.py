"""Translation fuzz tier: generated corpora through the DOM reference.

The conformance tier pins the benchmark corpora; this tier turns
hypothesis loose on the same contracts (the stream flow's own fuzz
tier is ``tests/test_stream_translate_fuzz.py``):

- the rows :func:`~repro.translation.avro.encode_row` writes decode
  back to the encoded documents;
- feeding documents to a schema inferred from a *subset* (so unseen
  fields appear) fails with :class:`TranslationError`, never a leaked
  ``KeyError``;
- translating documents against an arbitrary unrelated schema — the
  adversarial case — raises nothing outside the :class:`ReproError`
  hierarchy.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, TranslationError
from repro.translation import avro, resolve_type, schema_aware_translate
from repro.types import Equivalence, merge_all, type_of
from tests.strategies import json_documents, json_objects


def _widened_equal(a, b):
    """Structural equality up to int→float widening (never bool↔number)."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return float(a) == float(b)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_widened_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _widened_equal(a[k], b[k]) for k in a
        )
    return type(a) is type(b) and a == b


def _fallback_free_documents() -> st.SearchStrategy:
    """Collections the resolver translates with no fallback column.

    Each position holds one kind of value: an atom, optionally nullable
    or with int/float drift (which widens to ``num``), an array, or an
    optionally nullable record whose fields may be absent.  Only unions
    of other kinds fall back, so none is generated — generating them and
    discarding the draws fails Hypothesis's ``filter_too_much`` check.
    """
    floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
    atoms = st.sampled_from(
        [
            st.none(),
            st.booleans(),
            st.integers(min_value=-(2**53), max_value=2**53),
            floats,
            st.text(max_size=8),
            st.one_of(st.integers(min_value=-(2**53), max_value=2**53), floats),
        ]
    )

    def nullable(values: st.SearchStrategy) -> st.SearchStrategy:
        return values.map(lambda s: st.one_of(st.none(), s))

    def records(children: st.SearchStrategy) -> st.SearchStrategy:
        return st.dictionaries(st.text(max_size=8), children, max_size=5).map(
            lambda fields: st.fixed_dictionaries({}, optional=fields)
        )

    values = st.recursive(
        st.one_of(atoms, nullable(atoms)),
        lambda children: st.one_of(
            children.map(lambda s: st.lists(s, max_size=4)),
            records(children),
            nullable(records(children)),
        ),
        max_leaves=10,
    )
    return records(values).flatmap(
        lambda document: st.lists(document, min_size=1, max_size=8)
    )


@given(_fallback_free_documents())
@settings(max_examples=60, deadline=None)
def test_encode_row_round_trips(docs):
    inferred = merge_all((type_of(d) for d in docs), Equivalence.KIND)
    resolved, fallbacks = resolve_type(inferred)
    assert not fallbacks
    schema = avro.from_algebra(resolved)
    for doc in docs:
        row = avro.encode_row(schema, doc)
        # The wire format cannot tell an absent optional field from an
        # explicit null, so decode returns the null-filled document; a
        # leaf the resolver widened to num travels as a double, so
        # integers may come back float-typed (but value-equal).
        expected = avro._fill_missing(schema, doc)
        decoded = avro.decode(schema, row)
        assert _widened_equal(expected, decoded)


@given(json_documents(min_size=2))
@settings(max_examples=60, deadline=None)
def test_unseen_fields_raise_translation_error(docs):
    # Infer from a strict subset, then translate the full collection:
    # any field the subset never exhibited must surface as a
    # TranslationError (naming the path), not a KeyError.
    subset = docs[: len(docs) // 2]
    inferred = merge_all((type_of(d) for d in subset), Equivalence.KIND)
    subset_fields = set()
    for d in subset:
        subset_fields.update(d)
    assume(any(set(d) - subset_fields for d in docs))
    try:
        schema_aware_translate(docs, inferred)
    except TranslationError:
        pass


@given(json_documents(max_size=4), json_objects(max_leaves=8))
@settings(max_examples=60, deadline=None)
def test_mismatched_schema_never_leaks_internal_errors(docs, other):
    # The fully adversarial pairing: documents translated against the
    # schema of an unrelated document.  Any failure must stay inside the
    # ReproError hierarchy — no KeyError, no AssertionError.
    inferred = type_of(other)
    try:
        schema_aware_translate(docs, inferred)
    except ReproError:
        pass
