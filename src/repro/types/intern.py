"""Hash-consed type kernel: canonical unique instances for type terms.

Schema inference spends its time comparing, hashing and merging type
terms.  The seed did all of that structurally — deep recursive ``__eq__``
and ``__hash__`` on every dictionary probe of the reduce phase.  This
module removes the recursion from the hot path by *hash-consing*
(interning) terms:

- :meth:`InternTable.intern` returns **the** canonical instance for any
  structurally-equal term, built bottom-up so that every sub-term is
  canonical too.  Because children of canonical nodes are canonical, the
  intern probe for a node is a flat tuple of child identities — no deep
  traversal beyond the one O(size) walk of the input itself, and no
  allocation at all for structures the table has already seen.
- Canonical terms carry an intern mark that :mod:`repro.types.terms`
  uses for O(1) equality (equal iff identical) and cached hashing.
- :meth:`InternTable.canonical` fuses simplification and interning into
  a single probe-first walk, memoized per canonical node.
- :meth:`InternTable.merge_many` is the *native* parametric merge on
  canonical terms: the one-pass class fusion of
  :func:`repro.types.merge.merge_all` (flatten union members, drop
  repeats by identity, partition by class key, fuse each class once),
  run from an explicit work stack so deep documents cost no Python
  recursion.  Reductions (a list of one distinct node) are memoized per
  node, classes of two members per pair, and every node the fusion
  builds is recorded as its own reduction, so a representative that a
  batch leaves untouched is one dictionary probe.  :meth:`InternTable.fuse_into` keeps the top-level
  class partition between calls: it is how
  :class:`repro.inference.engine.TypeAccumulator` folds a whole line
  batch into its class representatives at once.  The pairwise
  :meth:`InternTable.merge_types` (memoized on ``(id(left), id(right),
  equivalence)``) and :meth:`InternTable.reduce_types` are entry points
  over the same pass.  Parity with ``merge_all`` is pinned by the
  batching/ordering property tests.

The table holds strong references to every canonical node, so the
``id()``-based keys can never be recycled while the table lives.  A
process-wide default table (:func:`global_table`) backs the module-level
:func:`intern` / :func:`merge_interned` / :func:`reduce_interned`
conveniences.

**Memory model.**  A table grows with the number of *distinct*
structures it has seen — that is the point of hash-consing — and never
evicts on its own.  Long-lived processes that infer over many unrelated
collections should either pass a private ``InternTable`` per workload
(every engine entry point takes ``table=``) or call
:meth:`InternTable.clear` between workloads: clearing starts a new
*epoch* (intern marks are per-epoch tokens), so types retained from
before the clear stay valid and simply lose the O(1) equality fast path
against newer types.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional

from repro.types.merge import Equivalence, class_key
from repro.types.simplify import union
from repro.types.terms import (
    ANY,
    AnyType,
    ArrType,
    AtomType,
    BOOL,
    BOT,
    BotType,
    FLT,
    FieldType,
    INT,
    NULL,
    NUM,
    RecType,
    STR,
    Type,
    UnionType,
)


class InternTable:
    """A hash-consing table plus merge/reduce memo caches."""

    __slots__ = (
        "_nodes",
        "_canonical",
        "_merge_cache",
        "_reduce_cache",
        "_token",
        "hits",
        "misses",
    )

    def __init__(self) -> None:
        # Epoch token: canonical nodes are marked with this object, and
        # equality fast paths compare marks.  clear() replaces the token,
        # so nodes from a cleared epoch can never falsely alias nodes of
        # the current one.
        self._token: object = object()
        self._nodes: dict[Hashable, Type] = {}
        # id(canonical node) -> its simplified canonical form; fixpoints
        # map to themselves, making repeat canonical() probes O(1).
        self._canonical: dict[int, Type] = {}
        self._merge_cache: dict[tuple[int, int, Equivalence], Type] = {}
        self._reduce_cache: dict[tuple[int, Equivalence], Type] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------

    def intern(self, t: Type) -> Type:
        """Return the canonical instance structurally equal to ``t``."""
        if t._interned is self._token:
            return t
        cls = t.__class__
        if cls is AtomType:
            return self._leaf(("atom", t.tag), t)  # type: ignore[union-attr]
        if cls is ArrType:
            return self._arr(self.intern(t.item))  # type: ignore[union-attr]
        if cls is FieldType:
            return self._field(t.name, self.intern(t.type), t.required)  # type: ignore[union-attr]
        if cls is RecType:
            return self._rec([self.intern(f) for f in t.fields])  # type: ignore[union-attr]
        if cls is UnionType:
            members = tuple(self.intern(m) for m in t.members)  # type: ignore[union-attr]
            key = ("union", tuple(map(id, members)))
            node = self._nodes.get(key)
            if node is not None:
                self.hits += 1
                return node
            return self._adopt(key, UnionType(members))
        if cls is BotType:
            return self._leaf(("bot",), t)
        if cls is AnyType:
            return self._leaf(("any",), t)
        raise TypeError(f"cannot intern {t!r}")

    # Probe-first constructors: no Type allocation when the structure is
    # already known.  All child arguments must be canonical already.

    def _leaf(self, key: Hashable, t: Type) -> Type:
        node = self._nodes.get(key)
        if node is not None:
            self.hits += 1
            return node
        return self._adopt(key, t)

    def _arr(self, item: Type) -> Type:
        key = ("arr", id(item))
        node = self._nodes.get(key)
        if node is not None:
            self.hits += 1
            return node
        return self._adopt(key, ArrType(item))

    def _field(self, name: str, ftype: Type, required: bool) -> FieldType:
        key = ("f", name, required, id(ftype))
        node = self._nodes.get(key)
        if node is not None:
            self.hits += 1
            return node  # type: ignore[return-value]
        return self._adopt(key, FieldType(name, ftype, required))  # type: ignore[return-value]

    def _rec(self, fields: list) -> Type:
        # The intern key must be order-canonical: RecType sorts its
        # fields in __post_init__, so sort here before probing.
        names = [f.name for f in fields]
        if any(names[i] > names[i + 1] for i in range(len(names) - 1)):
            fields = sorted(fields, key=lambda f: f.name)
        key = ("rec", tuple(map(id, fields)))
        node = self._nodes.get(key)
        if node is not None:
            self.hits += 1
            return node
        return self._adopt(key, RecType(tuple(fields)))

    def _adopt(self, key: Hashable, candidate: Type) -> Type:
        self.misses += 1
        # setdefault keeps a concurrent racer from installing a second
        # canonical node for the same structure; mark only the winner.
        node = self._nodes.setdefault(key, candidate)
        if node is candidate:
            object.__setattr__(node, "_interned", self._token)
        return node

    # ------------------------------------------------------------------
    # public probe-first constructors (the fused map phase)
    # ------------------------------------------------------------------
    #
    # These build canonical nodes directly — no raw tree, no re-intern
    # walk.  Preconditions (checked nowhere, for speed): every child
    # passed in must be canonical in THIS table's current epoch and in
    # simplify-normal form.  The fused encoder of repro.types.build and
    # the streaming typer uphold this by constructing bottom-up.

    def atom(self, tag: str) -> Type:
        """The canonical atom for ``tag`` (allocates only on first use)."""
        key = ("atom", tag)
        node = self._nodes.get(key)
        if node is not None:
            self.hits += 1
            return node
        return self._adopt(key, AtomType(tag))

    def arr_of(self, item: Type) -> Type:
        """Canonical ``[item]`` for a canonical, normal ``item``."""
        out = self._arr(item)
        if not out._normal:
            object.__setattr__(out, "_normal", True)
        return out

    def field_of(self, name: str, ftype: Type, required: bool = True) -> FieldType:
        """Canonical field for a canonical, normal ``ftype``."""
        out = self._field(name, ftype, required)
        if not out._normal:
            object.__setattr__(out, "_normal", True)
        return out

    def rec_of(self, fields: list) -> Type:
        """Canonical record over canonical, normal fields.

        Sorts by name when needed and rejects duplicate field names with
        the same ``ValueError`` the raw :class:`RecType` constructor
        raises — the fused and seed encoders fail identically.
        """
        out = self._rec(fields)
        if not out._normal:
            object.__setattr__(out, "_normal", True)
        return out

    def union_of(self, members) -> Type:
        """Canonical union of canonical, normal members.

        Runs the full :func:`repro.types.simplify.union` canonicalization
        (flatten, drop Bot, dedupe, absorb, sort), then probes by member
        identity so repeated shapes allocate nothing.
        """
        u = union(members)
        if u.__class__ is UnionType:
            key = ("union", tuple(map(id, u.members)))
            node = self._nodes.get(key)
            if node is not None:
                self.hits += 1
                if not node._normal:
                    object.__setattr__(node, "_normal", True)
                return node
            return self._adopt(key, u)
        # Bot, Any, or a single member that is already canonical.
        return self.intern(u)

    # ------------------------------------------------------------------
    # canonicalization (simplify ∘ intern in one pass)
    # ------------------------------------------------------------------

    def canonical(self, t: Type) -> Type:
        """The interned simplified form of ``t`` (one probe-first walk).

        Equivalent to ``intern(simplify(t))``; canonical outputs are
        recorded as their own fixpoints, so re-canonicalizing a node the
        table produced is a dictionary hit.  Terms carrying the
        normal-form mark (see :mod:`repro.types.simplify`) skip the
        simplification walk entirely: they only need interning, and when
        already interned here they are their own fixpoint.
        """
        if t._interned is self._token:
            out = self._canonical.get(id(t))
            if out is not None:
                return out
            if t._normal:
                self._canonical[id(t)] = t
                return t
        elif t._normal:
            out = self.intern(t)
            object.__setattr__(out, "_normal", True)
            self._canonical[id(out)] = out
            return out
        out = self._canonicalize(t)
        object.__setattr__(out, "_normal", True)
        self._canonical[id(out)] = out
        if t._interned is self._token:
            self._canonical[id(t)] = out
        return out

    def _canonicalize(self, t: Type) -> Type:
        cls = t.__class__
        if cls is AtomType:
            return self._leaf(("atom", t.tag), t)  # type: ignore[union-attr]
        if cls is ArrType:
            return self._arr(self.canonical(t.item))  # type: ignore[union-attr]
        if cls is RecType:
            return self._rec(
                [
                    self._field(f.name, self.canonical(f.type), f.required)
                    for f in t.fields  # type: ignore[union-attr]
                ]
            )
        if cls is FieldType:
            return self._field(t.name, self.canonical(t.type), t.required)  # type: ignore[union-attr]
        if cls is UnionType:
            # union() flattens, dedupes, absorbs and sorts — the same
            # canonicalization simplify applies, over canonical members.
            return self.intern(union(self.canonical(m) for m in t.members))  # type: ignore[union-attr]
        if cls is BotType:
            return self._leaf(("bot",), t)
        if cls is AnyType:
            return self._leaf(("any",), t)
        raise TypeError(f"cannot canonicalize {t!r}")

    # ------------------------------------------------------------------
    # the native parametric merge: one n-ary pass on an explicit stack
    # ------------------------------------------------------------------

    def merge_many(self, types: Iterable[Type], equivalence: Equivalence) -> Type:
        """``merge_all(types, equivalence)`` as the canonical interned node.

        One pass of the seed's class fusion over canonical terms: union
        members are flattened, repeats dropped by identity, the rest
        partitioned by :func:`~repro.types.merge.class_key`, and each
        class fused once — records gather every field's member types and
        a presence count, arrays gather their items, number atoms join
        to ``num``.  Nested member lists are fused the same way from an
        explicit work stack, so nesting depth costs no Python recursion.
        A list of one distinct term is a reduction, memoized per node, a
        class of two members is memoized per pair, and every node the
        fusion builds is recorded as its own reduction.
        """
        members = [self.canonical(t) for t in types]
        if not members:
            return self._leaf(("bot",), BOT)
        return self._fuse(members, equivalence, None)

    def fuse_into(
        self, classes: dict, types: Iterable[Type], equivalence: Equivalence
    ) -> None:
        """Fuse ``types`` into a class map in one :meth:`merge_many` pass.

        ``classes`` maps each :func:`~repro.types.merge.class_key` to its
        reduced representative, in first-appearance order — the top-level
        partition of ``merge_many`` kept between calls, so that
        ``union(classes.values())`` is ``merge_many`` over everything
        fused so far.  Only the classes the new members fall into are
        fused again, each once, with its representative as one member.
        """
        members = [self.canonical(t) for t in types]
        if members:
            self._fuse(members, equivalence, classes)

    def merge_types(self, left: Type, right: Type, equivalence: Equivalence) -> Type:
        """Memoized ``merge_all((left, right), equivalence)``, interned."""
        left = self.canonical(left)
        right = self.canonical(right)
        key = (id(left), id(right), equivalence)
        out = self._merge_cache.get(key)
        if out is None:
            out = self.merge_many((left, right), equivalence)
            self._merge_cache[key] = out
            # Merge is commutative; prime the mirrored key too.
            self._merge_cache[(id(right), id(left), equivalence)] = out
        return out

    def reduce_types(self, t: Type, equivalence: Equivalence) -> Type:
        """Memoized ``reduce_type(t, equivalence)``, interned."""
        return self.merge_many((t,), equivalence)

    def _fuse(self, members: list, equivalence: Equivalence, into) -> Optional[Type]:
        """Run the fusion of canonical ``members`` to completion.

        The work stack holds two kinds of task: a list is a member list
        to fuse (:meth:`_expand`), a tuple the assembly of one list's
        classes once its nested lists are fused (:meth:`_build`).  Each
        list task leaves exactly one node on ``values``.
        """
        values: list[Type] = []
        work: list = []
        out = self._expand(members, equivalence, work, into)
        while work:
            task = work.pop()
            if task.__class__ is list:
                node = self._expand(task, equivalence, work, None)
            else:
                node = self._build(task, equivalence, values)
            if node is not None:
                values.append(node)
        return values.pop() if values else out

    def _expand(self, types: list, equivalence: Equivalence, work: list, into):
        """Partition one member list; return its fused node when no
        nested list needs fusing, else push its assembly and the nested
        lists and return ``None``."""
        reduce_cache = self._reduce_cache
        single = self._repeated(types) if into is None else None
        if single is not None:
            out = reduce_cache.get((id(single), equivalence))
            if out is not None:
                return out

        seen: set[int] = set()
        flat: list[Type] = []
        for t in types:
            if t.__class__ is UnionType:
                for m in t.members:  # type: ignore[union-attr]
                    if id(m) not in seen:
                        seen.add(id(m))
                        flat.append(m)
            elif id(t) not in seen:
                seen.add(id(t))
                flat.append(t)

        groups: dict[Hashable, list[Type]] = {}
        for m in flat:
            key = class_key(m, equivalence)
            group = groups.get(key)
            if group is not None:
                group.append(m)
                continue
            rep = into.get(key) if into is not None else None
            if rep is None or id(rep) in seen:
                groups[key] = [m]
            else:
                groups[key] = [rep, m]

        # One plan entry per class: a finished node, None for an array
        # awaiting its item, or a record's [(name, required, type or
        # None)] awaiting the fused field types marked None.  A class of
        # two members shares merge_types' pair memo (two members of one
        # class merge to that class's node), so a stream fed one type at
        # a time probes a recurring pair instead of fusing it again.
        plan: list = []
        nested: list[list[Type]] = []
        pairs: list[tuple] = []
        for group in groups.values():
            m0 = group[0]
            if len(group) == 1:
                out = reduce_cache.get((id(m0), equivalence))
                if out is not None:
                    plan.append(out)
                    continue
            elif len(group) == 2:
                pair = (id(m0), id(group[1]), equivalence)
                out = self._merge_cache.get(pair)
                if out is not None:
                    plan.append(out)
                    continue
                pairs.append((len(plan), pair))
            cls = m0.__class__
            if cls is RecType:
                total = len(group)
                by_name: dict[str, list[Type]] = {}
                required: dict[str, bool] = {}
                for rec in group:
                    for f in rec.fields:  # type: ignore[union-attr]
                        ftypes = by_name.get(f.name)
                        if ftypes is None:
                            by_name[f.name] = [f.type]
                            required[f.name] = f.required
                        else:
                            ftypes.append(f.type)
                            if not f.required:
                                required[f.name] = False
                fields = []
                for name, ftypes in by_name.items():
                    ftype = self._reduced_if_cached(ftypes, equivalence)
                    if ftype is None:
                        nested.append(ftypes)
                    fields.append(
                        (name, required[name] and len(ftypes) == total, ftype)
                    )
                plan.append(fields)
            elif cls is ArrType:
                items = [m.item for m in group]  # type: ignore[union-attr]
                item = self._reduced_if_cached(items, equivalence)
                if item is None:
                    nested.append(items)
                    plan.append(None)
                else:
                    plan.append(self._reduced(self._arr(item), equivalence))
            elif cls is AtomType and len(group) > 1:
                # Distinct atoms share a class only as numbers under KIND.
                plan.append(self.atom("num"))
            else:
                # A lone atom, or Bot/Any (never two distinct members).
                plan.append(m0)

        task = (single, into, tuple(groups), plan, pairs, len(nested))
        if not nested:
            return self._build(task, equivalence, values=[])
        work.append(task)
        work.extend(reversed(nested))
        return None

    @staticmethod
    def _repeated(types: list) -> Optional[Type]:
        """The node ``types`` holds when it is one node repeated."""
        first = types[0]
        for t in types:
            if t is not first:
                return None
        return first

    def _reduced_if_cached(self, types: list, equivalence: Equivalence):
        """The memoized reduction of a list of one repeated node, if any."""
        node = self._repeated(types)
        return None if node is None else self._reduce_cache.get((id(node), equivalence))

    def _build(self, task: tuple, equivalence: Equivalence, values: list):
        """Assemble one member list's classes from its fused nested lists
        (the last ``n`` entries of ``values``, in push order)."""
        single, into, keys, plan, pairs, n = task
        if n:
            cut = len(values) - n
            fused = iter(values[cut:])
            del values[cut:]
        results = []
        for entry in plan:
            if entry is None:
                entry = self._reduced(self._arr(next(fused)), equivalence)
            elif entry.__class__ is list:
                entry = self._reduced(
                    self._rec(
                        [
                            self._field(
                                name, next(fused) if ftype is None else ftype, req
                            )
                            for name, req, ftype in entry
                        ]
                    ),
                    equivalence,
                )
            results.append(entry)
        merge_cache = self._merge_cache
        for index, (a, b, eq) in pairs:
            merge_cache[(a, b, eq)] = merge_cache[(b, a, eq)] = results[index]
        if into is not None:
            into.update(zip(keys, results))
            return None
        out = results[0] if len(results) == 1 else self.union_of(results)
        out = self._reduced(out, equivalence)
        if single is not None:
            self._reduce_cache[(id(single), equivalence)] = out
        return out

    def _reduced(self, node: Type, equivalence: Equivalence) -> Type:
        """Record a fused node as its own (normal-form) reduction."""
        if not node._normal:
            object.__setattr__(node, "_normal", True)
        self._reduce_cache[(id(node), equivalence)] = node
        return node

    # ------------------------------------------------------------------
    # introspection / maintenance
    # ------------------------------------------------------------------

    def epoch(self) -> object:
        """The current epoch token.

        Callers that key external memo caches on ``id()`` of canonical
        nodes (e.g. the memoized subtype checker) compare this token to
        detect a :meth:`clear` and invalidate, since cleared nodes may be
        garbage-collected and their ids recycled.
        """
        return self._token

    def __len__(self) -> int:
        return len(self._nodes)

    def stats(self) -> dict[str, int]:
        return {
            "nodes": len(self._nodes),
            "hits": self.hits,
            "misses": self.misses,
            "merge_entries": len(self._merge_cache),
            "reduce_entries": len(self._reduce_cache),
        }

    def clear(self) -> None:
        """Drop every canonical node and cache, starting a new epoch.

        Nodes interned before the clear remain valid terms: they keep
        the *old* epoch token, so equality against anything interned
        afterwards falls back to the structural compare instead of the
        identity fast path.  Long-lived processes can therefore call
        ``clear()`` between unrelated inference runs to reclaim the
        table's memory without corrupting types they still hold.
        """
        self._token = object()
        self._nodes.clear()
        self._canonical.clear()
        self._merge_cache.clear()
        self._reduce_cache.clear()
        self.hits = 0
        self.misses = 0


_GLOBAL = InternTable()


def global_table() -> InternTable:
    """The process-wide intern table used by the inference engine."""
    return _GLOBAL


class EpochMemo:
    """An external memo cache keyed on ``id()`` of canonical nodes.

    The pattern the memoized subtype checker established, extracted for
    every subsystem that caches per-node results outside the table (the
    subtype verdict memo, the translation resolver, the compiled
    Avro/Parquet schema caches): :meth:`map_for` hands out the persistent
    dict when ``table`` is the process-wide global table, clearing it
    whenever the table starts a new epoch — cleared nodes may be
    garbage-collected and their ids recycled, so entries from an older
    epoch must never be consulted.  Private tables get a fresh throwaway
    dict per call instead; correctness never depends on the cache.
    """

    __slots__ = ("_token", "_data")

    def __init__(self) -> None:
        self._token: object = None
        self._data: dict = {}

    def map_for(self, table: InternTable) -> dict:
        if table is not _GLOBAL:
            return {}
        token = table.epoch()
        if token is not self._token:
            self._data.clear()
            self._token = token
        return self._data


def intern(t: Type) -> Type:
    """Intern ``t`` in the global table."""
    return _GLOBAL.intern(t)


def merge_interned(left: Type, right: Type, equivalence: Equivalence) -> Type:
    """Globally memoized pairwise parametric merge."""
    return _GLOBAL.merge_types(left, right, equivalence)


def reduce_interned(t: Type, equivalence: Equivalence) -> Type:
    """Globally memoized parametric reduction."""
    return _GLOBAL.reduce_types(t, equivalence)


def intern_stats() -> dict[str, int]:
    """Counters of the global table (nodes, hit/miss, cache sizes)."""
    return _GLOBAL.stats()


# Pre-seed the global table with the module-level leaf singletons of
# terms.py, so `intern(NULL) is NULL` etc. — code that used the named
# constants keeps getting the exact same objects back.
for _leaf in (BOT, ANY, NULL, BOOL, INT, FLT, NUM, STR):
    intern(_leaf)
del _leaf
