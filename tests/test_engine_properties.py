"""Property tests for the incremental engine and the hash-consed kernel.

The acceptance bar of the refactor: for arbitrary document collections,
orderings and chunkings, under both equivalences, the streaming
:class:`repro.inference.engine.TypeAccumulator` produces a type
structurally identical to the seed's batch ``merge_all`` — and interning
is exactly structural equality (``intern(a) is intern(b)`` iff
``a == b``).
"""

from hypothesis import given, settings, strategies as st

from repro.datasets import tweets
from repro.inference.engine import (
    CountingAccumulator,
    TypeAccumulator,
    accumulate,
    accumulate_types,
)
from repro.inference.counting import infer_counted, merge_counted, counted_type_of
from repro.types import (
    ANY,
    BOOL,
    BOT,
    Equivalence,
    FLT,
    INT,
    NULL,
    NUM,
    STR,
    ArrType,
    FieldType,
    RecType,
    UnionType,
    merge_all,
    simplify,
    type_of,
)
from repro.types.intern import InternTable

from tests.strategies import json_documents, json_values

EQUIVALENCES = [Equivalence.KIND, Equivalence.LABEL]


def chunked(items, sizes):
    """Split ``items`` into chunks of the given sizes (last chunk takes the rest)."""
    chunks = []
    start = 0
    for size in sizes:
        if start >= len(items):
            break
        chunks.append(items[start : start + size])
        start += size
    if start < len(items):
        chunks.append(items[start:])
    return [c for c in chunks if c]


class TestAccumulatorEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(docs=json_documents(min_size=1, max_size=8), eq=st.sampled_from(EQUIVALENCES))
    def test_streaming_fold_matches_merge_all(self, docs, eq):
        expected = merge_all((type_of(d) for d in docs), eq)
        assert accumulate(docs, eq).result() == expected

    @settings(max_examples=60, deadline=None)
    @given(
        docs=json_documents(min_size=1, max_size=10),
        eq=st.sampled_from(EQUIVALENCES),
        data=st.data(),
    )
    def test_arbitrary_chunking_and_ordering(self, docs, eq, data):
        expected = merge_all((type_of(d) for d in docs), eq)
        order = data.draw(st.permutations(list(range(len(docs)))))
        shuffled = [docs[i] for i in order]
        sizes = data.draw(
            st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=5)
        )
        combined = TypeAccumulator(eq)
        for chunk in chunked(shuffled, sizes):
            combined.combine(accumulate(chunk, eq))
        assert combined.result() == expected
        assert combined.document_count == len(docs)

    @settings(max_examples=40, deadline=None)
    @given(docs=json_documents(min_size=1, max_size=8), eq=st.sampled_from(EQUIVALENCES))
    def test_duplicate_absorption_is_idempotent(self, docs, eq):
        expected = accumulate(docs, eq).result()
        doubled = TypeAccumulator(eq)
        for d in docs:
            doubled.add(d)
            doubled.add(d)
        assert doubled.result() == expected

    @settings(max_examples=40, deadline=None)
    @given(docs=json_documents(min_size=1, max_size=8), eq=st.sampled_from(EQUIVALENCES))
    def test_private_table_matches_global(self, docs, eq):
        expected = accumulate(docs, eq).result()
        private = accumulate(docs, eq, table=InternTable()).result()
        assert private == expected

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(json_values(max_leaves=10), min_size=1, max_size=8),
        eq=st.sampled_from(EQUIVALENCES),
    )
    def test_arbitrary_values_not_just_objects(self, values, eq):
        types = [type_of(v) for v in values]
        expected = merge_all(types, eq)
        assert accumulate_types(types, eq).result() == expected


def type_terms(max_leaves: int = 10):
    """Raw (unsimplified) type terms: nested and repeated union members,
    records over a small label alphabet with mixed required flags."""
    leaves = st.sampled_from([NULL, BOOL, INT, FLT, NUM, STR, BOT, ANY])

    def extend(children):
        fields = st.dictionaries(
            st.sampled_from("abc"), st.tuples(children, st.booleans()), max_size=3
        )
        return st.one_of(
            children.map(ArrType),
            fields.map(
                lambda f: RecType(
                    tuple(FieldType(name, t, req) for name, (t, req) in f.items())
                )
            ),
            st.lists(children, min_size=1, max_size=3).map(
                lambda ms: UnionType(tuple(ms))
            ),
        )

    return st.recursive(leaves, extend, max_leaves=max_leaves)


class TestBatchFold:
    @settings(max_examples=60, deadline=None)
    @given(
        docs=json_documents(min_size=1, max_size=10),
        eq=st.sampled_from(EQUIVALENCES),
        data=st.data(),
    )
    def test_add_types_in_any_batches_matches_merge_all(self, docs, eq, data):
        repeats = data.draw(
            st.lists(st.integers(min_value=0, max_value=len(docs) - 1), max_size=6)
        )
        docs = docs + [docs[i] for i in repeats]
        order = data.draw(st.permutations(list(range(len(docs)))))
        docs = [docs[i] for i in order]
        sizes = data.draw(
            st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6)
        )
        table = InternTable()
        acc = TypeAccumulator(eq, table=table)
        for batch in chunked(docs, sizes):
            acc.add_types([type_of(d) for d in batch])
        types = [type_of(d) for d in docs]
        assert acc.result() is table.canonical(merge_all(types, eq))
        assert acc.document_count == len(docs)

    @settings(max_examples=80, deadline=None)
    @given(
        types=st.lists(type_terms(), max_size=6),
        eq=st.sampled_from(EQUIVALENCES),
        data=st.data(),
    )
    def test_merge_many_matches_merge_all_in_any_order(self, types, eq, data):
        table = InternTable()
        expected = table.canonical(merge_all(types, eq))
        assert table.merge_many(types, eq) is expected
        order = data.draw(st.permutations(list(range(len(types)))))
        assert table.merge_many([types[i] for i in order], eq) is expected


class TestBoundedState:
    """The accumulator's state stops growing once a collection's variants
    have all been seen: O(classes) memory, independent of collection size."""

    def test_state_is_equal_after_1k_and_4k_documents(self):
        docs = tweets(4000, seed=14)
        for eq in EQUIVALENCES:
            acc = TypeAccumulator(eq, table=InternTable())
            for d in docs[:1000]:
                acc.add(d)
            after_1k = (acc.class_count(), acc.state_nodes())
            for d in docs[1000:]:
                acc.add(d)
            assert (acc.class_count(), acc.state_nodes()) == after_1k


class TestCountingAccumulator:
    @settings(max_examples=40, deadline=None)
    @given(docs=json_documents(min_size=1, max_size=8), eq=st.sampled_from(EQUIVALENCES))
    def test_matches_batch_merge_counted(self, docs, eq):
        batch = merge_counted((counted_type_of(d, eq) for d in docs), eq)
        acc = CountingAccumulator(eq)
        for d in docs:
            acc.add(d)
        assert acc.result() == batch
        assert infer_counted(docs, eq) == batch

    @settings(max_examples=30, deadline=None)
    @given(
        docs=json_documents(min_size=2, max_size=8),
        eq=st.sampled_from(EQUIVALENCES),
        split=st.integers(min_value=1, max_value=7),
    )
    def test_combine_matches_whole(self, docs, eq, split):
        split = min(split, len(docs) - 1)
        left = CountingAccumulator(eq)
        right = CountingAccumulator(eq)
        for d in docs[:split]:
            left.add(d)
        for d in docs[split:]:
            right.add(d)
        left.combine(right)
        assert left.result() == infer_counted(docs, eq)
        assert left.document_count == len(docs)


class TestInterning:
    @settings(max_examples=80, deadline=None)
    @given(a=json_values(max_leaves=12), b=json_values(max_leaves=12))
    def test_intern_identity_iff_structural_equality(self, a, b):
        table = InternTable()
        ta, tb = type_of(a), type_of(b)
        ia, ib = table.intern(ta), table.intern(tb)
        assert ia == ta and ib == tb
        assert (ia is ib) == (ta == tb)

    @settings(max_examples=50, deadline=None)
    @given(v=json_values(max_leaves=12), eq=st.sampled_from(EQUIVALENCES))
    def test_canonical_is_interned_simplify(self, v, eq):
        table = InternTable()
        t = type_of(v)
        assert table.canonical(t) == simplify(t)
        # reduce_types matches the pure reduction.
        assert table.reduce_types(t, eq) == merge_all((t,), eq)

    @settings(max_examples=50, deadline=None)
    @given(
        a=json_values(max_leaves=10),
        b=json_values(max_leaves=10),
        eq=st.sampled_from(EQUIVALENCES),
    )
    def test_native_merge_matches_merge_all(self, a, b, eq):
        table = InternTable()
        ta, tb = type_of(a), type_of(b)
        assert table.merge_types(ta, tb, eq) == merge_all((ta, tb), eq)
