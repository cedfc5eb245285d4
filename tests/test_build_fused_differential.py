"""Differential property tests: the fused encoder vs the seed composition.

The contract of the fused map phase is exact:

    ``type_of_interned(v, table)  is  table.intern(type_of(v))``

for every JSON value — identical by *interned identity*, not merely
structurally equal.  These tests pin that law with hypothesis-generated
values (including deep nesting and repeated shapes), for the DOM encoder,
the global-table convenience, the streaming text path, and the engine's
``add``; plus the recursion-freedom the seed encoder cannot offer, and
the counted map phase against a recursive reference implementation.
"""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given, settings

from repro.inference.counting import (
    CAtom,
    CArr,
    CField,
    CRec,
    CUnion,
    counted_type_of,
    merge_counted,
)
from repro.inference.engine import accumulate, accumulate_types
from repro.inference.streaming import type_of_text
from repro.jsonvalue.model import is_integer_value, kind_of, JsonKind
from repro.types import (
    Equivalence,
    InternTable,
    TypeEncoder,
    intern,
    type_of,
    type_of_interned,
)
from tests.strategies import json_documents, json_values


# ---------------------------------------------------------------------------
# the composition law
# ---------------------------------------------------------------------------


class TestFusedDifferential:
    @given(json_values())
    def test_private_table_identity_and_structure(self, value):
        table = InternTable()
        fused = type_of_interned(value, table)
        seed = table.intern(type_of(value))
        assert fused is seed
        assert fused == type_of(value)

    @given(json_values())
    def test_global_table_identity(self, value):
        assert type_of_interned(value) is intern(type_of(value))

    @given(json_values())
    def test_fused_output_is_canonical_fixpoint(self, value):
        table = InternTable()
        fused = type_of_interned(value, table)
        # Canonical and in normal form: re-canonicalizing is the identity.
        assert table.canonical(fused) is fused
        assert fused._normal

    @given(json_values())
    def test_encode_idempotent_identity(self, value):
        table = InternTable()
        encoder = TypeEncoder(table)
        assert encoder.encode(value) is encoder.encode(value)

    @given(json_values())
    def test_streaming_fused_matches_seed_composition(self, value):
        table = InternTable()
        text = json.dumps(value)
        fused = type_of_text(text, table=table)
        assert fused is table.intern(type_of(value))

    @given(json_documents(min_size=1, max_size=6))
    def test_engine_add_matches_type_then_add_type(self, documents):
        table_a = InternTable()
        table_b = InternTable()
        via_fused = accumulate(documents, Equivalence.KIND, table=table_a)
        via_seed = accumulate_types(
            (type_of(d) for d in documents), Equivalence.KIND, table=table_b
        )
        assert via_fused.result() == via_seed.result()


class TestRepeatedShapes:
    def test_scalar_record_shape_cache_shares_nodes(self):
        table = InternTable()
        encoder = TypeEncoder(table)
        a = encoder.encode({"id": 1, "name": "ada", "score": 2.5})
        b = encoder.encode({"id": 7, "name": "bob", "score": 0.5})
        assert a is b

    def test_field_order_does_not_matter(self):
        table = InternTable()
        encoder = TypeEncoder(table)
        assert encoder.encode({"x": 1, "y": "s"}) is encoder.encode({"y": "t", "x": 2})

    def test_nested_repeated_shapes_share_subterms(self):
        table = InternTable()
        encoder = TypeEncoder(table)
        a = encoder.encode({"user": {"id": 1}, "tags": ["a", "b"]})
        b = encoder.encode({"user": {"id": 2}, "tags": ["c"]})
        assert a is b

    def test_cache_survives_only_its_epoch(self):
        table = InternTable()
        encoder = TypeEncoder(table)
        before = encoder.encode({"a": 1})
        table.clear()
        after = encoder.encode({"a": 1})
        # New epoch: a fresh canonical node, still correct vs the seed
        # composition in the *current* epoch.
        assert after is not before
        assert after is table.intern(type_of({"a": 1}))


class TestDeepNesting:
    def test_deep_differential_within_recursion_limit(self):
        value = 0
        for i in range(200):
            value = [value] if i % 2 else {"n": value}
        table = InternTable()
        assert type_of_interned(value, table) is table.intern(type_of(value))

    def test_fused_encoder_is_recursion_free(self):
        value = 1
        for _ in range(sys.getrecursionlimit() * 3):
            value = [value]
        table = InternTable()
        fused = type_of_interned(value, table)  # must not raise
        with pytest.raises(RecursionError):
            type_of(value)
        # The result is its own canonical fixpoint even at this depth.
        assert table.canonical(fused) is fused


class TestEncoderStrictness:
    def test_non_json_values_raise_like_the_seed(self):
        for bad in ((1, 2), {1, 2}, object()):
            with pytest.raises(TypeError):
                type_of(bad)
            with pytest.raises(TypeError):
                type_of_interned(bad, InternTable())

    def test_scalar_subclasses_match_seed_classification(self):
        class MyInt(int):
            pass

        table = InternTable()
        value = {"n": MyInt(3)}
        assert type_of_interned(value, table) is table.intern(type_of(value))

    def test_container_subclasses_match_seed_classification(self):
        from collections import OrderedDict

        class MyList(list):
            pass

        table = InternTable()
        value = [OrderedDict(a=MyList([1, "x"]), b=MyList()), {"c": OrderedDict()}]
        assert type_of_interned(value, table) is table.intern(type_of(value))
        with pytest.raises(TypeError):
            type_of_interned({"a": MyList([(1, 2)])}, InternTable())


# ---------------------------------------------------------------------------
# counted map phase vs a recursive reference
# ---------------------------------------------------------------------------


def _counted_reference(value, equivalence):
    """The seed's recursive counted_type_of, kept verbatim as an oracle."""
    kind = kind_of(value)
    if kind is JsonKind.NULL:
        return CUnion((CAtom("null", 1),))
    if kind is JsonKind.BOOLEAN:
        return CUnion((CAtom("bool", 1),))
    if kind is JsonKind.NUMBER:
        return CUnion((CAtom("int" if is_integer_value(value) else "flt", 1),))
    if kind is JsonKind.STRING:
        return CUnion((CAtom("str", 1),))
    if kind is JsonKind.ARRAY:
        items = merge_counted(
            (_counted_reference(v, equivalence) for v in value),
            equivalence,
        )
        return CUnion((CArr(items, 1, len(value)),))
    fields = tuple(
        CField(name, _counted_reference(v, equivalence), 1)
        for name, v in value.items()
    )
    return CUnion((CRec(fields, 1),))


class TestCountedIterative:
    @given(json_values())
    @settings(max_examples=60)
    def test_iterative_counted_matches_recursive_reference(self, value):
        for equivalence in (Equivalence.KIND, Equivalence.LABEL):
            assert counted_type_of(value, equivalence) == _counted_reference(
                value, equivalence
            )

    def test_counted_deep_nesting_is_recursion_free(self):
        value = 1
        for _ in range(sys.getrecursionlimit() * 3):
            value = [value]
        counted = counted_type_of(value)  # must not raise
        assert counted.count == 1
