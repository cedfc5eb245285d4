"""Metamorphic & differential oracles for the memoized subtype engine.

Two pins, per the PR contract:

- **soundness oracle** (metamorphic): for generated ``(value, type)``
  pairs, ``matches(v, s)`` and ``is_subtype(s, t)`` together imply
  ``matches(v, t)`` — subtyping may only relate types whose value sets
  nest;
- **reference agreement** (differential): the memoized iterative checker
  returns exactly what the seed's unmemoized recursive ``_sub`` returns
  on every generated pair, cold or warm cache, global or private table.

Plus the edge-case regressions called out in the issue: empty-array
``[Bot]`` membership/subtyping, ``Num <: Int + Flt`` under memoization,
and duplicate record field names rejected identically by the fused and
seed record constructors.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from repro.datasets import tweets
from repro.types import (
    ANY,
    ArrType,
    BOOL,
    BOT,
    Equivalence,
    FLT,
    FieldType,
    INT,
    InternTable,
    NULL,
    NUM,
    RecType,
    STR,
    is_equivalent,
    is_subtype,
    matches,
    merge_all,
    type_of,
    union,
    union2,
)
from repro.types.subtype import is_subtype_reference
from repro.types.intern import global_table
from tests.strategies import json_values

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

_LEAVES = st.sampled_from([BOT, ANY, NULL, BOOL, INT, FLT, NUM, STR])

# Types drawn from the fragment inference produces (exact value types and
# their merges) plus the algebra's leaves and small unions of both.
json_types = st.one_of(
    _LEAVES,
    json_values(max_leaves=10).map(type_of),
    st.lists(json_values(max_leaves=8), min_size=1, max_size=3).map(
        lambda vs: union(type_of(v) for v in vs)
    ),
    st.lists(json_values(max_leaves=8), min_size=1, max_size=3).map(
        lambda vs: merge_all([type_of(v) for v in vs])
    ),
    st.tuples(_LEAVES, _LEAVES).map(lambda pair: union2(*pair)),
)


# ---------------------------------------------------------------------------
# metamorphic soundness oracle
# ---------------------------------------------------------------------------


class TestSoundnessOracle:
    @given(json_values(max_leaves=12), st.lists(json_values(max_leaves=8), max_size=2), json_types)
    @settings(max_examples=150)
    def test_subtype_preserves_membership(self, value, extras, t):
        # s always contains value by construction (type_of is exact).
        s = union(type_of(v) for v in [value, *extras])
        assert matches(value, s)
        if is_subtype(s, t):
            assert matches(value, t)

    @given(json_values(max_leaves=12), st.lists(json_values(max_leaves=8), min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_merge_produces_supertype_of_each_input(self, value, others):
        # The merged type of a collection accepts every member document —
        # and the memoized checker agrees the exact type sits below it.
        types = [type_of(v) for v in [value, *others]]
        merged = merge_all(types)
        assert matches(value, merged)
        assert is_subtype(type_of(value), merged) == is_subtype_reference(
            type_of(value), merged
        )


# ---------------------------------------------------------------------------
# differential agreement with the unmemoized reference
# ---------------------------------------------------------------------------


def _deep_type(levels: int, leaf):
    """Alternate array and record layers around ``leaf``."""
    t = leaf
    for i in range(levels):
        t = RecType.of({"a": t, "b": ArrType(t)}) if i % 2 else ArrType(t)
    return t


_TWEETS = tweets(200, seed=15)
_TWEETS_LABEL = merge_all([type_of(d) for d in _TWEETS], Equivalence.LABEL)
_TWEETS_KIND = merge_all([type_of(d) for d in _TWEETS], Equivalence.KIND)


class TestReferenceAgreement:
    @given(json_types, json_types)
    @settings(max_examples=200)
    # A 16-level pair: the worklist and its memo well past the depth the
    # strategies reach.
    @example(_deep_type(16, INT), _deep_type(16, NUM))
    @example(_deep_type(16, NUM), _deep_type(16, INT))
    # A document against the wide LABEL union of its corpus, and that
    # union against the corpus's KIND merge.
    @example(type_of(_TWEETS[0]), _TWEETS_LABEL)
    @example(_TWEETS_LABEL, _TWEETS_KIND)
    def test_memoized_agrees_with_reference(self, s, t):
        expected = is_subtype_reference(s, t)
        assert is_subtype(s, t) == expected
        # Warm cache must answer identically.
        assert is_subtype(s, t) == expected

    @given(json_types, json_types)
    @settings(max_examples=100)
    def test_equivalence_agrees_with_reference(self, s, t):
        expected = is_subtype_reference(s, t) and is_subtype_reference(t, s)
        assert is_equivalent(s, t) == expected

    @given(json_types, json_types)
    @settings(max_examples=60)
    def test_private_table_agrees_with_global(self, s, t):
        assert is_subtype(s, t, table=InternTable()) == is_subtype(s, t)

    @given(json_types)
    @settings(max_examples=60)
    def test_reflexive(self, t):
        assert is_subtype(t, t)
        assert is_equivalent(t, t)

    def test_memo_survives_table_clear(self):
        table = global_table()
        assert is_subtype(INT, NUM)
        table.clear()
        # New epoch: stale id-keyed verdicts must not leak.
        assert is_subtype(INT, NUM)
        assert not is_subtype(NUM, INT)


# ---------------------------------------------------------------------------
# issue regressions
# ---------------------------------------------------------------------------


class TestEmptyArrayRegressions:
    def test_empty_array_membership(self):
        assert matches([], ArrType(BOT))
        assert not matches([1], ArrType(BOT))
        assert matches([], ArrType(STR))  # vacuously

    def test_empty_array_subtyping(self):
        for t in (ArrType(STR), ArrType(NUM), ArrType(ArrType(BOT)), ArrType(ANY)):
            assert is_subtype(ArrType(BOT), t)
            assert is_subtype(ArrType(BOT), t) == is_subtype_reference(ArrType(BOT), t)
        assert not is_subtype(ArrType(STR), ArrType(BOT))
        assert is_subtype(ArrType(BOT), ArrType(BOT))
        assert is_equivalent(ArrType(BOT), ArrType(BOT))

    def test_empty_array_against_unions(self):
        t = union2(ArrType(INT), STR)
        assert is_subtype(ArrType(BOT), t)
        assert matches([], t)


class TestNumSplitUnderMemoization:
    def test_num_below_int_plus_flt_repeatedly(self):
        split = union2(INT, FLT)
        for _ in range(3):  # cold cache, then warm, then warm again
            assert is_subtype(NUM, split)
            assert not is_subtype(split, INT)
            assert is_equivalent(NUM, split)

    def test_num_split_requires_both_halves(self):
        assert not is_subtype(NUM, union2(INT, STR))
        assert not is_subtype(NUM, union2(FLT, NULL))
        assert is_subtype(NUM, union((INT, FLT, STR)))

    def test_num_split_nested_in_containers(self):
        assert is_subtype(ArrType(NUM), ArrType(union2(INT, FLT)))
        left = RecType.of({"n": NUM})
        right = RecType.of({"n": union2(INT, FLT)})
        assert is_subtype(left, right) and is_subtype(right, left)
        assert is_equivalent(left, right)


class TestDuplicateFieldNames:
    def test_raw_constructor_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RecType((FieldType("a", INT), FieldType("a", STR)))

    def test_fused_constructor_rejects_duplicates(self):
        table = InternTable()
        f1 = table.field_of("a", table.intern(INT))
        f2 = table.field_of("a", table.intern(STR))
        with pytest.raises(ValueError):
            table.rec_of([f1, f2])

    def test_fused_and_seed_raise_the_same_error(self):
        fields = (FieldType("a", INT), FieldType("a", INT, required=False))
        with pytest.raises(ValueError) as seed_err:
            RecType(fields)
        table = InternTable()
        with pytest.raises(ValueError) as fused_err:
            table.rec_of(
                [
                    table.field_of("a", table.intern(INT)),
                    table.field_of("a", table.intern(INT), required=False),
                ]
            )
        assert str(seed_err.value) == str(fused_err.value)
