"""Mapping JSON values to their exact types (the *map* phase of inference).

``type_of`` computes the most precise type of a single value in this
algebra: records list every present field as required; arrays abstract
their elements by the union of the element types (the abstraction step the
EDBT '17 paper applies at arrays, since arrays are homogeneous-ish in
practice and element positions are not tracked).

``type_of_interned`` / :class:`TypeEncoder` are the *fused* map phase:
they construct canonical interned terms directly against an
:class:`~repro.types.intern.InternTable` — probe-first, bottom-up, with
an explicit stack instead of recursion — so typing a document the table
has seen the shape of before allocates nothing and never builds the raw
tree that ``intern(type_of(value))`` would throw away.  The composition
law ``type_of_interned(v) is intern(type_of(v))`` is pinned by the
differential property tests in ``tests/test_build_fused_differential.py``.

:class:`EventTypeEncoder` extends the fused map phase to *text*: it
consumes raw JSON text (:meth:`EventTypeEncoder.encode_text`; UTF-8
bytes decode first, :meth:`EventTypeEncoder.encode_bytes`) and resolves
every closing container through the same record/array shape caches —
no ``JSONValue`` DOM, no per-document frame objects, just text to a
canonical interned type.  ``encode_text`` is a **regex-vectorized
structural scan**: compiled phase-specific master patterns (built from
the lexer's shared token fragments) consume the inter-token whitespace
and the next token — or a whole ``"key": scalar-value ,`` member /
array element — per C-speed ``match`` call, so the happy path does no
per-character Python dispatch at all.  ``encode_text`` raises exactly
the errors the DOM parser raises (same class, message and offset), so
the streaming and parsing paths fail identically.
"""

from __future__ import annotations

from typing import Any, Optional

import re

from repro.jsonvalue.lexer import (
    FULL_STRING_BODY_PATTERN_BYTES,
    INT_PATTERN,
    NUMBER_BOUNDARY_CHARS,
    STRING_BODY_PATTERN,
    STRING_BODY_PATTERN_BYTES,
    UTF8_VALIDATION_PATTERN,
    WHITESPACE_PATTERN,
    Token,
    TokenType,
    _Scanner,
)
from repro.jsonvalue.model import JsonKind, is_integer_value, kind_of
from repro.jsonvalue.parser import JsonParseError
from repro.types.intern import InternTable, global_table
from repro.types.simplify import union
from repro.types.terms import (
    ArrType,
    BOOL,
    BOT,
    FLT,
    FieldType,
    INT,
    NULL,
    RecType,
    STR,
    Type,
)


def type_of(value: Any) -> Type:
    """Return the exact type of ``value``.

    - scalars map to their atom (ints to ``Int``, floats to ``Flt``);
    - objects map to a record with every field required;
    - arrays map to ``[T1 + ... + Tn]`` over the element types, with the
      empty array mapping to ``[Bot]``.
    """
    kind = kind_of(value)
    if kind is JsonKind.NULL:
        return NULL
    if kind is JsonKind.BOOLEAN:
        return BOOL
    if kind is JsonKind.NUMBER:
        return INT if is_integer_value(value) else FLT
    if kind is JsonKind.STRING:
        return STR
    if kind is JsonKind.ARRAY:
        if not value:
            return ArrType(BOT)
        return ArrType(union(type_of(v) for v in value))
    # Object.
    return RecType(
        tuple(FieldType(name, type_of(v), required=True) for name, v in value.items())
    )


class TypeEncoder:
    """Fused map phase: one JSON value → its canonical interned type.

    Equivalent to ``table.intern(type_of(value))`` but:

    - **recursion-free** — containers are traversed with an explicit
      frame stack, so arbitrarily deep documents encode without touching
      Python's recursion limit (the seed ``type_of`` cannot);
    - **probe-first** — every node is looked up in the intern table by
      child identity before anything is allocated, so repeated structure
      costs dictionary probes only;
    - **shape-cached** — every closing container is resolved through a
      per-encoder cache keyed on its child signature (field names and
      canonical child identities for records, member identities for
      arrays), so the repeated record shapes that dominate real
      collections skip even the per-field intern probes and the
      field-sort of record construction.

    The shape caches are the *per-batch* caches: private to the encoder
    instance and rebound automatically when the backing table starts a
    new epoch (:meth:`InternTable.clear`), so stale canonical nodes can
    never leak across a clear.
    """

    __slots__ = (
        "table",
        "_epoch",
        "_scalars",
        "_null",
        "_bool",
        "_int",
        "_flt",
        "_str",
        "_empty_arr",
        "_rec_cache",
        "_arr_cache",
    )

    def __init__(self, table: Optional[InternTable] = None) -> None:
        self.table = table if table is not None else global_table()
        self._rebind()

    def _rebind(self) -> None:
        """(Re)acquire canonical leaves for the table's current epoch."""
        table = self.table
        self._epoch = table.epoch()
        self._null = table.intern(NULL)
        self._bool = table.intern(BOOL)
        self._int = table.intern(INT)
        self._flt = table.intern(FLT)
        self._str = table.intern(STR)
        self._empty_arr = table.arr_of(table.intern(BOT))
        # Exact-type scalar dispatch.  type() distinguishes bool from int
        # (bool cannot be subclassed), so this is the whole kind_of chain
        # in one dictionary probe; scalar *subclasses* fall through to
        # _scalar_slow.
        self._scalars = {
            type(None): self._null,
            bool: self._bool,
            int: self._int,
            float: self._flt,
            str: self._str,
        }
        self._rec_cache: dict = {}
        self._arr_cache: dict = {}

    # ------------------------------------------------------------------

    def _scalar_slow(self, value: Any) -> Optional[Type]:
        """Classify values whose exact type missed the dispatch table.

        Returns the canonical atom for scalar subclasses, ``None`` for
        dict/list (subclasses included), and raises the same ``TypeError``
        as :func:`repro.jsonvalue.model.kind_of` for non-JSON values.
        """
        if isinstance(value, (dict, list)):
            return None
        kind = kind_of(value)
        if kind is JsonKind.NULL:
            return self._null
        if kind is JsonKind.BOOLEAN:
            return self._bool
        if kind is JsonKind.NUMBER:
            return self._int if is_integer_value(value) else self._flt
        return self._str

    def _open(self, value: Any):
        """Start encoding a container: a frame, or the finished type.

        Frames are plain lists ``[is_object, iterator, key parts,
        child types, pending name]`` — anything that is *not* a list is
        an already-canonical result (empty arrays resolve immediately).
        Key parts accumulate the container's shape signature — alternating
        field name / canonical child id for records, child ids for arrays
        — which the close step probes against the shape caches before
        constructing anything.
        """
        if isinstance(value, dict):
            return [True, iter(value.items()), [], [], None]
        if not value:
            return self._empty_arr
        return [False, iter(value), [], [], None]

    def encode(self, value: Any) -> Type:
        """The canonical interned type of ``value``.

        Identical (by object identity) to ``table.intern(type_of(value))``.
        """
        table = self.table
        if table.epoch() is not self._epoch:
            self._rebind()
        scalars = self._scalars
        atom = scalars.get(type(value))
        if atom is None:
            atom = self._scalar_slow(value)
        if atom is not None:
            return atom
        opened = self._open(value)
        if opened.__class__ is not list:
            return opened
        stack = [opened]
        result: Optional[Type] = None
        while stack:
            frame = stack[-1]
            keyparts = frame[2]
            ctypes = frame[3]
            pushed = False
            if frame[0]:
                for name, v in frame[1]:
                    atom = scalars.get(type(v))
                    if atom is None:
                        atom = self._scalar_slow(v)
                        if atom is None:
                            child = self._open(v)
                            if child.__class__ is list:
                                frame[4] = name
                                stack.append(child)
                                pushed = True
                                break
                            keyparts.append(name)
                            keyparts.append(id(child))
                            ctypes.append(child)
                            continue
                    keyparts.append(name)
                    keyparts.append(id(atom))
                    ctypes.append(atom)
                if pushed:
                    continue
                key = tuple(keyparts)
                done = self._rec_cache.get(key)
                if done is None:
                    field_of = table.field_of
                    done = table.rec_of(
                        [field_of(n, t) for n, t in zip(keyparts[0::2], ctypes)]
                    )
                    self._rec_cache[key] = done
            else:
                for v in frame[1]:
                    atom = scalars.get(type(v))
                    if atom is None:
                        atom = self._scalar_slow(v)
                        if atom is None:
                            child = self._open(v)
                            if child.__class__ is list:
                                stack.append(child)
                                pushed = True
                                break
                            keyparts.append(id(child))
                            ctypes.append(child)
                            continue
                    keyparts.append(id(atom))
                    ctypes.append(atom)
                if pushed:
                    continue
                key = tuple(keyparts)
                done = self._arr_cache.get(key)
                if done is None:
                    done = table.arr_of(table.union_of(ctypes))
                    self._arr_cache[key] = done
            stack.pop()
            if stack:
                parent = stack[-1]
                if parent[0]:
                    parent[2].append(parent[4])
                    parent[2].append(id(done))
                    parent[3].append(done)
                    parent[4] = None
                else:
                    parent[2].append(id(done))
                    parent[3].append(done)
            else:
                result = done
        assert result is not None
        return result


# Parser phases of the fused text machine (mirrors the DOM parser and
# the event parser: about to read a value / an object key / the
# punctuation following a completed value).  The OR_CLOSE variants are
# the "just opened a container" states where the closing bracket is
# still legal.
_PHASE_VALUE = 0
_PHASE_KEY = 1
_PHASE_AFTER = 2
_PHASE_KEY_OR_CLOSE = 3
_PHASE_VALUE_OR_CLOSE = 4

# --------------------------------------------------------------------------
# The regex-vectorized structural scan.
#
# One compiled master pattern per parser phase, composed from the lexer's
# shared token fragments.  Each pattern folds the inter-token whitespace
# run and the next token into a *single* C-speed ``match`` call, so the
# per-token Python cost of ``encode_text`` is one regex call plus one
# integer dispatch on ``lastindex`` — no per-character work at all on the
# happy path.  Anything a pattern declines (escaped strings, malformed
# literals, EOF, garbage) drops to the real lexer at the same position,
# which either resolves the token or raises the exact parser error.
#
# Line/column bookkeeping is *lazy*: newlines are only counted (from a
# monotonically advancing anchor, so the total work stays linear) when a
# slow path or an error actually needs a position.
# --------------------------------------------------------------------------

_STRING_BODY = STRING_BODY_PATTERN
# INT ∪ FLOAT as one backtrack-free alternative: the (always
# participating, possibly empty) tail group is what makes the literal a
# float, so integers match in a single forward scan — no failed-float
# re-scan — and the kind falls out of the tail group's width.
_NUMBER_TAIL = r"(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"

# The scalar alternatives, one capturing group each so ``lastindex``
# names the kind in a single attribute read (the opening quote stands
# in for the whole string — its content never matters to its type;
# true/false and null are separate groups for the same reason).
# Relative groups: +1 string, +2 number (containing +3 tail),
# +4 true/false, +5 null, +6 empty array, +7 empty object.
_SCALAR_GROUPS = (
    '(")' + _STRING_BODY + '"'
    + "|(" + INT_PATTERN + "(" + _NUMBER_TAIL + "))"
    + "|(true|false)|(null)"
    + r"|(\[" + WHITESPACE_PATTERN + r"\])"
    + r"|(\{" + WHITESPACE_PATTERN + r"\})"
)

# Expect-a-value contexts.  Group indices drive the dispatch:
#   1 string   2 number   3 number tail   4 true/false   5 null
#   6 empty array   7 empty object
#   8 "{"   9 "["   10 "]" (legal only just after "[")
_VALUE_SCAN = re.compile(
    WHITESPACE_PATTERN + "(?:"
    + _SCALAR_GROUPS
    + r"|(\{)|(\[)|(\])"
    ")"
)
# Expect-an-object-key contexts: the key string *and* its colon in one
# match (group 1 captures the key's content), or the closing brace
# (group 2, legal only just after "{").
_KEY_SCAN = re.compile(
    WHITESPACE_PATTERN
    + '(?:"(' + _STRING_BODY + ')"' + WHITESPACE_PATTERN + r":|(\}))"
)
# After-a-completed-value contexts: the only legal tokens are "," and the
# closing brackets.
_AFTER_SCAN = re.compile(WHITESPACE_PATTERN + r"([,\]}])")

# The member/element fused fast paths: a whole scalar object member
# (key, colon, value, and the following "," or "}") or a whole scalar
# array element (value plus "," or "]") in *one* match — and when the
# value is itself a container, the key and its opening bracket in one
# match.  These are the shapes that dominate real collections — flat
# records of scalars and arrays of scalars — and fusing them drops the
# Python loop from one iteration per token to one per member or
# element.  The (captureless) terminator doubles as the number-boundary
# guard: a maximal number match followed by anything but
# whitespace-then-terminator fails the whole pattern, so malformed
# literals ("01", "1.e5") can never sneak through — they fall back to
# the per-token machine and its exact errors.
#
# Member groups: 1 key content, 2 string, 3 number, 4 number tail,
# 5 true/false, 6 null, 7 empty array, 8 empty object,
# 9 "{" or "[" (the value opens a container).
_MEMBER_BODY = (
    '"(' + _STRING_BODY + ')"'
    + WHITESPACE_PATTERN + ":" + WHITESPACE_PATTERN
    + "(?:(?:" + _SCALAR_GROUPS + ")"
    + WHITESPACE_PATTERN + r"[,}]|([{\[]))"
)
_MEMBER_SCAN = re.compile(WHITESPACE_PATTERN + _MEMBER_BODY)
# Element groups: 1 string, 2 number, 3 number tail, 4 true/false,
# 5 null, 6 empty array, 7 empty object, 8 "{" or "[".
_ELEMENT_BODY = (
    "(?:(?:" + _SCALAR_GROUPS + ")"
    + WHITESPACE_PATTERN + r"[,\]]|([{\[]))"
)
_ELEMENT_SCAN = re.compile(WHITESPACE_PATTERN + _ELEMENT_BODY)
# Continuation variants: after a nested container closes, its sibling
# member/element (comma included) in one match — so closing a child
# flows straight back into the parent's fused loop without a trip
# through the phase machine.
_AFTER_MEMBER_SCAN = re.compile(
    WHITESPACE_PATTERN + "," + WHITESPACE_PATTERN + _MEMBER_BODY
)
_AFTER_ELEMENT_SCAN = re.compile(
    WHITESPACE_PATTERN + "," + WHITESPACE_PATTERN + _ELEMENT_BODY
)

_WS_RUN = re.compile(WHITESPACE_PATTERN)
_NUMBER_BOUNDARY = frozenset(NUMBER_BOUNDARY_CHARS)
_NUMBER_START = "-0123456789"

# UTF-8 validity of raw bytes, checked lazily: a C-speed search for any
# high byte, then, only when one exists, one strict-validation match.
# The line-shape cache below runs this check on its cache hits.
_BYTES_HIGH_BYTE = re.compile(rb"[\x80-\xff]")
_BYTES_UTF8_RUN = re.compile(UTF8_VALIDATION_PATTERN)

# --------------------------------------------------------------------------
# The batched line-shape cache (``encode_lines``).
#
# Typing a corpus line is a function of its *shape* — structure bytes,
# key names, scalar kinds — never of its string contents or number
# values.  ``encode_lines`` exploits that at corpus granularity: a few
# whole-buffer C passes reduce every line to an unforgeable *skeleton*
# (value-string contents dropped, number literals folded to their kind,
# keys kept verbatim), and a skeleton→canonical-type dict then resolves
# repeated shapes with one dict probe per line — no scan, no decode, no
# per-member Python at all.  The passes:
#
#   1. ``b'\"":\"'.replace`` marks every ``"key":`` by fusing the closing
#      quote and colon into ``\x04`` (memchr speed).  Key strings now
#      have no closing quote, so the string-strip pass cannot touch
#      them — key *names* stay verbatim in the skeleton.
#   2. one group-free sub replaces every remaining (value) string
#      literal with ``\x03``.
#   3. ``bytes.translate`` folds digits 1-9 to ``0`` and a ``00+`` sub
#      collapses digit runs: every int literal becomes ``0``, floats
#      become ``0.0``/``0e0``-class spellings — number *kind* survives,
#      value does not.
#
# Soundness rests on bypasses, each a corpus-level C search that almost
# never fires: control bytes (could forge the ``\x03``/``\x04``
# markers), backslashes (escape processing makes quote pairing
# content-dependent), ``"<ws>:`` spaced keys (step 1 only fuses compact
# ``":``), digit-bearing keys (step 3 would fold them), and pre-fold
# leading-zero shapes (``01`` would fold into ``12``'s skeleton).  A
# line that trips any bypass is typed by the machine and never cached.
# Lines that cache hit are UTF-8-validated individually (value contents
# differ per line) before the cached node is returned.
#
# On a cache miss the line's skeleton is additionally *collapsed* —
# runs of identical array elements fold to one (``[0,0,0]`` and ``[0]``
# have the same array type) — and both keys alias the computed type, so
# shape-heavy corpora converge while exact repeats stay one probe.
# --------------------------------------------------------------------------

_SKEL_CTRL = re.compile(rb"[\x00-\x08\x0b\x0c\x0e-\x1f]")
_SKEL_STRIP_SIMPLE = re.compile(b'"' + STRING_BODY_PATTERN_BYTES + b'"')
_SKEL_STRIP_FULL = re.compile(b'"' + FULL_STRING_BODY_PATTERN_BYTES + b'"')
_SKEL_WSKEY = re.compile(rb'"[ \t]+:')
_SKEL_KEYDIG = re.compile(rb'"[^\x04"0-9]*[0-9]')
_SKEL_LEADING_ZERO = re.compile(rb"(?<![0-9.eE+])(?<![eE]-)0[0-9]")
# Digit-bearing keys (``p99``, ``utf8``, ``h2o``…) used to trip the
# keydig guard wholesale and push their lines to the scan machine.
# Instead, a protect pass shifts digits *inside key regions* (an
# opening quote through its ``\x04`` key marker, never spanning a line
# break) up into \x10-\x19 — length-preserving and injective, so
# distinct keys keep distinct skeletons, and the value-digit fold no
# longer touches them.  Raw \x10-\x19 bytes in input cannot collide:
# they are control bytes, and control-bearing lines never touch the
# cache.  Keys the protect pattern cannot cover (an escaped quote
# before the digit keeps the ``"…\x04`` shape from matching) still
# match the keydig search afterwards and fall back per line as before.
_SKEL_KEYDIG_PROTECT = re.compile(rb'"[^"\x04\r\n]*[0-9][^"\x04\r\n]*\x04')
_SKEL_DIGIT_SHIFT = bytes.maketrans(b"0123456789", bytes(range(0x10, 0x1A)))


def _skel_shift_key_digits(match) -> bytes:
    return match.group(0).translate(_SKEL_DIGIT_SHIFT)
_SKEL_FOLD = bytes.maketrans(b"123456789", b"000000000")
_SKEL_RUNS = re.compile(rb"00+")
_SKEL_BREAK = re.compile(rb"\r\n|\r|\n")
# Collapse of repeated identical array elements (scalar skeletons, then
# innermost containers — iterated to a fixpoint on the miss path only).
# Both boundary assertions are load-bearing: a backreference happily
# matches a *prefix* of the next element (``0,0`` inside ``0,0.0``) and
# the engine can equally start a match mid-token (``0,0`` inside
# ``0.0,0``) — either would alias int/float-mixed and pure-float array
# skeletons — so a run collapses only when nothing token-extending
# precedes it or follows it.
_SKEL_RUN_START = rb"(?<![0-9.a-zA-Z+\-])"
_SKEL_RUN_END = rb"(?![0-9.a-zA-Z+\-])"
_SKEL_SCALAR_RUN = re.compile(
    _SKEL_RUN_START
    + rb"(0(?:\.0)?(?:[eE][+-]?0)?|\x03|true|false|null)(?:,\1)+"
    + _SKEL_RUN_END
)
_SKEL_CONTAINER_RUN = re.compile(
    _SKEL_RUN_START + rb"(\{[^{}]*\}|\[[^\[\]]*\])(?:,\1)+" + _SKEL_RUN_END
)

# Adaptive state: stop skeletonizing when the corpus doesn't repeat.
_SKEL_MIN_ATTEMPTS = 2048
_SKEL_CACHE_LIMIT = 1 << 16


def _collapse_skeleton(skeleton: bytes) -> bytes:
    """Fold runs of identical array elements to one element."""
    skeleton = _SKEL_SCALAR_RUN.sub(rb"\1", skeleton)
    previous = None
    while previous != skeleton:
        previous = skeleton
        skeleton = _SKEL_CONTAINER_RUN.sub(rb"\1", skeleton)
    return skeleton

# Shape-signature key domains.  The fused loops append their small-int
# group code for scalar children (and 0 for floats, whose group is
# shared with ints), while every other path — the value_scan
# fallback, TypeEncoder.encode, and container attaches — appends ``id(child)``.  The two domains can never collide: CPython
# ids are object addresses, far above the single-digit codes, so the
# same shape reached through different paths at worst occupies two
# cache slots resolving to the same canonical node (rec_of/arr_of are
# probe-first).  Any future code scheme must stay outside the id range.


class EventTypeEncoder(TypeEncoder):
    """Token-driven fused map phase: text → canonical type.

    Extends :class:`TypeEncoder` with the compiled structural scan
    (:meth:`encode_text`): one regex-driven pass from JSON text to the
    canonical interned type (whole scalar members and elements per
    C-speed match), with the exact error behaviour (class, message,
    offset) of the DOM parser under its default options.  UTF-8 bytes
    decode and take the same scan (:meth:`encode_bytes`); NDJSON line
    batches resolve repeated shapes through a line-shape cache first
    (:meth:`encode_lines`).

    Every input produces, by object identity, the same node that
    ``table.intern(type_of(parse(text)))`` would — the conformance and
    fuzz suites pin this.  Duplicate object keys follow the parser's
    default last-wins policy.
    """

    __slots__ = ("_empty_rec", "_line_cache", "_line_stats")

    def _rebind(self) -> None:
        super()._rebind()
        table = self.table
        self._empty_rec = table.rec_of([])
        # Line-shape cache of encode_lines: skeleton bytes → canonical
        # node of this epoch, plus [attempts, hits, enabled] adaptive
        # state.  Rebuilt per epoch — the cached nodes are table state.
        self._line_cache: dict = {}
        self._line_stats: list = [0, 0, True]

    # ------------------------------------------------------------------
    # shared close steps (shape-cache resolution)
    # ------------------------------------------------------------------

    def _close_record(self, keyparts: list, ctypes: list) -> Type:
        key = tuple(keyparts)
        done = self._rec_cache.get(key)
        if done is None:
            table = self.table
            field_of = table.field_of
            fields: dict = {}
            # Duplicate keys: last wins, matching the DOM parser's
            # default duplicate_keys="last" (dict insertion order keeps
            # the record's shape signature stable either way).
            for name, t in zip(keyparts[0::2], ctypes):
                fields[name] = t
            done = table.rec_of([field_of(n, t) for n, t in fields.items()])
            self._rec_cache[key] = done
        return done

    def _close_array(self, keyparts: list, ctypes: list) -> Type:
        if not ctypes:
            return self._empty_arr
        key = tuple(keyparts)
        done = self._arr_cache.get(key)
        if done is None:
            table = self.table
            done = table.arr_of(table.union_of(ctypes))
            self._arr_cache[key] = done
        return done

    # ------------------------------------------------------------------
    # fused lexer loop: one pass from text to canonical type
    # ------------------------------------------------------------------

    def _fail_at(self, text: str, pos: int, message: str):
        """Raise the structural error the DOM parser would raise here.

        The parser works token-at-a-time, so its structural errors carry
        the *lexed* offending token — and when that token is itself
        malformed, the lexical error wins.  Reproduce both by lexing the
        offending position with the real scanner.  Line bookkeeping is
        computed here, on the terminal path, rather than tracked during
        the scan.
        """
        scanner = _Scanner(text)
        scanner.pos = pos
        scanner.line = text.count("\n", 0, pos) + 1
        scanner.line_start = text.rfind("\n", 0, pos) + 1
        token = scanner.next_token()  # may raise the (correct) lex error
        raise JsonParseError(message, token)

    def _fail_eof(self, text: str, phase: int):
        """Raise the phase-appropriate error for input ending early."""
        pos = len(text)
        line = text.count("\n") + 1
        column = pos - (text.rfind("\n") + 1) + 1
        eof = Token(TokenType.EOF, None, pos, pos, line, column)
        if phase == _PHASE_AFTER:
            raise JsonParseError("expected ',' or closing bracket", eof)
        if phase == _PHASE_KEY or phase == _PHASE_KEY_OR_CLOSE:
            raise JsonParseError("expected object key string", eof)
        raise JsonParseError("expected a JSON value", eof)

    def _fail_depth(self, text: str, pos: int, max_depth: int, is_object: bool):
        """Raise the parser's nesting-limit error for the bracket at ``pos``."""
        line = text.count("\n", 0, pos) + 1
        column = pos - (text.rfind("\n", 0, pos) + 1) + 1
        token_type = TokenType.LBRACE if is_object else TokenType.LBRACKET
        raise JsonParseError(
            f"maximum nesting depth of {max_depth} exceeded",
            Token(token_type, None, pos, pos + 1, line, column),
        )

    def encode_text(self, text: str, *, max_depth: int = 512) -> Type:
        """The canonical interned type of one JSON text.

        Identical (by object identity) to
        ``table.intern(type_of(parse(text)))`` but runs the compiled
        structural scan over the text: one phase-specific master regex
        consumes the inter-token whitespace *and* the next token per
        C-speed ``match`` call (strings, numbers, literals, punctuation
        — and for object members the key and its colon together), so no
        per-character Python dispatch happens on the happy path.  Scalar
        literals resolve to canonical atoms straight from which
        alternative matched (a string's *content* never matters to its
        type, only that it lexes); closing containers resolve through
        the shape caches.  Anything the patterns decline (escapes,
        malformed literals, structural errors) defers to the real lexer
        at the exact same position, so malformed text raises exactly
        what :func:`repro.jsonvalue.parser.parse` raises under its
        default options: the same
        :class:`~repro.jsonvalue.parser.JsonParseError` /
        :class:`~repro.jsonvalue.lexer.JsonLexError` class, message and
        offset.
        """
        table = self.table
        if table.epoch() is not self._epoch:
            self._rebind()
        int_atom = self._int
        flt_atom = self._flt
        str_atom = self._str
        bool_atom = self._bool
        null_atom = self._null
        value_scan = _VALUE_SCAN.match
        key_scan = _KEY_SCAN.match
        after_scan = _AFTER_SCAN.match
        member_scan = _MEMBER_SCAN.match
        element_scan = _ELEMENT_SCAN.match
        after_member_scan = _AFTER_MEMBER_SCAN.match
        after_element_scan = _AFTER_ELEMENT_SCAN.match
        ws_run = _WS_RUN.match
        close_record = self._close_record
        close_array = self._close_array
        empty_arr = self._empty_arr
        empty_rec = self._empty_rec
        length = len(text)
        pos = 0
        stack: list[list] = []
        phase = _PHASE_VALUE
        result: Optional[Type] = None
        # Set when the fused loop just declined at the current position:
        # the outer dispatch skips the (guaranteed-failing) re-match and
        # goes straight to the per-token scan.
        declined = False

        # Lazily synchronized lexer for the slow paths.  ``nl_pos`` is a
        # monotonically advancing anchor with known line bookkeeping, so
        # repeated slow tokens re-count newlines only over the text
        # between anchors (linear total), not from the start each time.
        scanner: Optional[_Scanner] = None
        nl_pos = 0
        nl_line = 1
        nl_start = 0

        def lex_at(p: int) -> _Scanner:
            nonlocal scanner, nl_pos, nl_line, nl_start
            if scanner is None:
                scanner = _Scanner(text)
            if p > nl_pos:
                newlines = text.count("\n", nl_pos, p)
                if newlines:
                    nl_line += newlines
                    nl_start = text.rfind("\n", nl_pos, p) + 1
                nl_pos = p
            scanner.pos = p
            scanner.line = nl_line
            scanner.line_start = nl_start
            return scanner

        while True:
            fused = None
            if phase == _PHASE_AFTER:
                m = after_scan(text, pos)
                if m is None:
                    # EOF (success at top level), or a non-punctuation
                    # token the parser would lex before failing.
                    ws_end = ws_run(text, pos).end()
                    if ws_end >= length:
                        if not stack:
                            assert result is not None
                            return result
                        self._fail_eof(text, phase)
                    if not stack:
                        self._fail_at(
                            text, ws_end, "trailing data after JSON document"
                        )
                    self._fail_at(text, ws_end, "expected ',' or closing bracket")
                end = m.end()
                ch = text[end - 1]
                if not stack:
                    self._fail_at(
                        text, end - 1, "trailing data after JSON document"
                    )
                frame = stack[-1]
                if ch == ",":
                    pos = end
                    phase = _PHASE_KEY if frame[0] else _PHASE_VALUE
                    continue
                # "}" or "]": must close the innermost container's kind.
                if (ch == "}") != frame[0]:
                    self._fail_at(text, end - 1, "expected ',' or closing bracket")
                pos = end
                stack.pop()
                if frame[0]:
                    completed = close_record(frame[1], frame[2])
                else:
                    completed = close_array(frame[1], frame[2])
                if not stack:
                    result = completed
                    continue
                parent = stack[-1]
                parent[1].append(id(completed))
                parent[2].append(completed)
                # Chain straight back into the fused loop when the next
                # sibling member/element (comma included) matches.
                if parent[0]:
                    fused = after_member_scan(text, pos)
                else:
                    fused = after_element_scan(text, pos)
                if fused is None:
                    continue

            elif phase == _PHASE_KEY or phase == _PHASE_KEY_OR_CLOSE:
                # Fused fast path: whole scalar members (key, colon,
                # value, terminator) in one match each — or the key and
                # its opening bracket when the value is a container —
                # handled by the unified fused loop below.  Anything
                # else (escaped keys, malformed input, "}") takes the
                # per-token scan here.
                if declined:
                    declined = False
                else:
                    fused = member_scan(text, pos)
                if fused is None:
                    m = key_scan(text, pos)
                    if m is None:
                        # Escaped key string, missing colon, EOF, garbage.
                        ws_end = ws_run(text, pos).end()
                        if ws_end >= length:
                            self._fail_eof(text, phase)
                        if text[ws_end] != '"':
                            self._fail_at(
                                text, ws_end, "expected object key string"
                            )
                        lexer = lex_at(ws_end)
                        name = lexer.scan_string().value  # may raise in place
                        colon = ws_run(text, lexer.pos).end()
                        if colon >= length or text[colon] != ":":
                            self._fail_at(text, colon, "expected ':'")
                        stack[-1][1].append(name)
                        pos = colon + 1
                        phase = _PHASE_VALUE
                        continue
                    end = m.end()
                    if m.lastindex == 2:  # "}"
                        if phase == _PHASE_KEY:
                            # A comma promised another member.
                            self._fail_at(
                                text, end - 1, "expected object key string"
                            )
                        pos = end
                        stack.pop()
                        completed = self._empty_rec
                        if stack:
                            parent = stack[-1]
                            parent[1].append(id(completed))
                            parent[2].append(completed)
                        else:
                            result = completed
                        phase = _PHASE_AFTER
                        continue
                    # Key string and its colon, one match.
                    stack[-1][1].append(m.group(1))
                    pos = end
                    phase = _PHASE_VALUE
                    continue

            elif stack and not stack[-1][0]:
                # _PHASE_VALUE / _PHASE_VALUE_OR_CLOSE inside an array:
                # scalar elements (and container-opening elements) take
                # the unified fused loop below.
                if declined:
                    declined = False
                else:
                    fused = element_scan(text, pos)

            if fused is not None:
                # ------------------------------------------------------
                # The unified fused loop: one iteration per member or
                # element.  ``m`` is a member match (in objects) or an
                # element match (in arrays); closing a container flows
                # straight into the parent's next sibling through the
                # ","-including continuation patterns, so deeply nested
                # documents stay inside this loop.
                # ------------------------------------------------------
                m = fused
                frame = stack[-1]
                keyparts = frame[1]
                ctypes = frame[2]
                in_object = frame[0]
                while True:
                    if in_object:
                        keyparts.append(m.group(1))
                        kind = m.lastindex
                        pos = m.end()
                        if kind == 2:
                            atom = str_atom
                        elif kind == 3:
                            tail_start, tail_end = m.span(4)
                            if tail_start == tail_end:
                                atom = int_atom
                            else:
                                # Distinct signature code: ints and
                                # floats share the number group.
                                kind = 0
                                atom = flt_atom
                        elif kind == 5:
                            atom = bool_atom
                        elif kind == 6:
                            atom = null_atom
                        elif kind == 7:  # empty array value
                            if len(stack) >= max_depth:
                                self._fail_depth(text, m.start(7), max_depth, False)
                            atom = empty_arr
                        elif kind == 8:  # empty object value
                            if len(stack) >= max_depth:
                                self._fail_depth(text, m.start(8), max_depth, True)
                            atom = empty_rec
                        else:  # kind == 9: the value opens a container
                            in_object = text[pos - 1] == "{"
                            if len(stack) >= max_depth:
                                self._fail_depth(
                                    text, pos - 1, max_depth, in_object
                                )
                            frame = [in_object, [], []]
                            stack.append(frame)
                            keyparts = frame[1]
                            ctypes = frame[2]
                            if in_object:
                                m = member_scan(text, pos)
                                if m is None:
                                    declined = True
                                    phase = _PHASE_KEY_OR_CLOSE
                                    break
                            else:
                                m = element_scan(text, pos)
                                if m is None:
                                    declined = True
                                    phase = _PHASE_VALUE_OR_CLOSE
                                    break
                            continue
                        keyparts.append(kind)
                        ctypes.append(atom)
                        if text[pos - 1] == ",":
                            m = member_scan(text, pos)
                            if m is not None:
                                continue
                            declined = True
                            phase = _PHASE_KEY
                            break
                        # "}" — the record is complete.
                        stack.pop()
                        completed = close_record(keyparts, ctypes)
                    else:
                        kind = m.lastindex
                        pos = m.end()
                        if kind == 1:
                            atom = str_atom
                        elif kind == 2:
                            tail_start, tail_end = m.span(3)
                            if tail_start == tail_end:
                                atom = int_atom
                            else:
                                # Distinct signature code: ints and
                                # floats share the number group.
                                kind = 0
                                atom = flt_atom
                        elif kind == 4:
                            atom = bool_atom
                        elif kind == 5:
                            atom = null_atom
                        elif kind == 6:  # empty array element
                            if len(stack) >= max_depth:
                                self._fail_depth(text, m.start(6), max_depth, False)
                            atom = empty_arr
                        elif kind == 7:  # empty object element
                            if len(stack) >= max_depth:
                                self._fail_depth(text, m.start(7), max_depth, True)
                            atom = empty_rec
                        else:  # kind == 8: the element opens a container
                            in_object = text[pos - 1] == "{"
                            if len(stack) >= max_depth:
                                self._fail_depth(
                                    text, pos - 1, max_depth, in_object
                                )
                            frame = [in_object, [], []]
                            stack.append(frame)
                            keyparts = frame[1]
                            ctypes = frame[2]
                            if in_object:
                                m = member_scan(text, pos)
                                if m is None:
                                    declined = True
                                    phase = _PHASE_KEY_OR_CLOSE
                                    break
                            else:
                                m = element_scan(text, pos)
                                if m is None:
                                    declined = True
                                    phase = _PHASE_VALUE_OR_CLOSE
                                    break
                            continue
                        keyparts.append(kind)
                        ctypes.append(atom)
                        if text[pos - 1] == ",":
                            m = element_scan(text, pos)
                            if m is not None:
                                continue
                            declined = True
                            phase = _PHASE_VALUE
                            break
                        # "]" — the array is complete.
                        stack.pop()
                        completed = close_array(keyparts, ctypes)
                    # Attach the closed container and continue with its
                    # parent's next sibling, comma fused into the match.
                    if not stack:
                        result = completed
                        phase = _PHASE_AFTER
                        break
                    frame = stack[-1]
                    keyparts = frame[1]
                    ctypes = frame[2]
                    in_object = frame[0]
                    keyparts.append(id(completed))
                    ctypes.append(completed)
                    if in_object:
                        m = after_member_scan(text, pos)
                    else:
                        m = after_element_scan(text, pos)
                    if m is None:
                        phase = _PHASE_AFTER
                        break
                continue

            # _PHASE_VALUE / _PHASE_VALUE_OR_CLOSE, per-token scan.
            m = value_scan(text, pos)
            if m is None:
                # Escaped string, malformed literal, EOF, or garbage —
                # the real lexer resolves or raises at this position.
                ws_end = ws_run(text, pos).end()
                if ws_end >= length:
                    self._fail_eof(text, phase)
                ch = text[ws_end]
                if ch == '"':
                    lexer = lex_at(ws_end)
                    lexer.scan_string()  # may raise in place
                    pos = lexer.pos
                    completed = str_atom
                elif ch in _NUMBER_START:
                    lexer = lex_at(ws_end)
                    token = lexer.scan_number()  # raises (the scan declined)
                    pos = lexer.pos
                    completed = (
                        int_atom if token.value.__class__ is int else flt_atom
                    )
                else:
                    self._fail_at(text, ws_end, "expected a JSON value")
            else:
                idx = m.lastindex
                end = m.end()
                if idx == 1:  # simple string: its content never matters
                    pos = end
                    completed = str_atom
                elif idx == 2:  # number
                    if end < length and text[end] in _NUMBER_BOUNDARY:
                        # The maximal match may extend into a malformed
                        # literal ("01", "1.e5", "1e+"): re-scan with the
                        # lexer for the exact outcome.
                        lexer = lex_at(m.start(2))
                        token = lexer.scan_number()
                        pos = lexer.pos
                        completed = (
                            int_atom if token.value.__class__ is int else flt_atom
                        )
                    else:
                        pos = end
                        tail_start, tail_end = m.span(3)
                        completed = (
                            int_atom if tail_start == tail_end else flt_atom
                        )
                elif idx == 4:  # true / false
                    pos = end
                    completed = bool_atom
                elif idx == 5:  # null
                    pos = end
                    completed = null_atom
                elif idx == 6:  # empty array
                    if len(stack) >= max_depth:
                        self._fail_depth(text, m.start(6), max_depth, False)
                    pos = end
                    completed = empty_arr
                elif idx == 7:  # empty object
                    if len(stack) >= max_depth:
                        self._fail_depth(text, m.start(7), max_depth, True)
                    pos = end
                    completed = empty_rec
                elif idx == 8:  # "{"
                    if len(stack) >= max_depth:
                        self._fail_depth(text, end - 1, max_depth, True)
                    pos = end
                    stack.append([True, [], []])
                    phase = _PHASE_KEY_OR_CLOSE
                    continue
                elif idx == 9:  # "["
                    if len(stack) >= max_depth:
                        self._fail_depth(text, end - 1, max_depth, False)
                    pos = end
                    stack.append([False, [], []])
                    phase = _PHASE_VALUE_OR_CLOSE
                    continue
                else:  # idx == 10: "]"
                    if phase != _PHASE_VALUE_OR_CLOSE:
                        self._fail_at(text, end - 1, "expected a JSON value")
                    pos = end
                    stack.pop()
                    completed = empty_arr
            if stack:
                frame = stack[-1]
                frame[1].append(id(completed))
                frame[2].append(completed)
            else:
                result = completed
            phase = _PHASE_AFTER
            continue

    # ------------------------------------------------------------------
    # byte buffers: decode, then the one structural scan
    # ------------------------------------------------------------------

    def encode_bytes(
        self,
        data,
        start: int = 0,
        end: Optional[int] = None,
        *,
        max_depth: int = 512,
    ) -> Type:
        """The canonical interned type of one JSON document held as
        UTF-8 bytes: ``encode_text(str(memoryview(data)[start:end],
        "utf-8"), max_depth=max_depth)``.

        ``data`` is anything the buffer protocol covers: ``bytes``, an
        ``mmap.mmap``, a ``memoryview``.
        Undecodable input raises the decode's ``UnicodeDecodeError``;
        malformed JSON raises the parser's exact error, with character
        offsets relative to ``start``.  There is one structural scan, the
        str one: a decode is cheap next to a scan, and CPython's str
        regex engine outruns its bytes engine.
        """
        return self.encode_text(
            str(memoryview(data)[start:end], "utf-8"), max_depth=max_depth
        )

    # ------------------------------------------------------------------
    # batched line-shape cache: many raw lines per C pass
    # ------------------------------------------------------------------

    def _encode_line_fallback(self, line: bytes, max_depth: int) -> Type:
        """Type one raw line outside the shape cache.

        :meth:`encode_bytes` for a whole ``bytes`` line, without the
        memoryview: the decode raises the pipeline's exact
        ``UnicodeDecodeError``, the str machine the parser's exact error.
        """
        return self.encode_text(line.decode("utf-8"), max_depth=max_depth)

    def encode_lines(self, lines, *, max_depth: int = 512) -> list:
        """Canonical interned types for a batch of raw NDJSON lines.

        ``lines`` is a sequence of ``bytes``, one non-blank JSON
        document each; the result list is aligned with it.  Semantics
        are exactly ``[encode_bytes(line) for line in lines]`` — same
        types by identity, same errors — but the work is batched: a few
        whole-buffer C passes skeletonize every line at once (see the
        line-shape cache notes above), repeated shapes resolve with one
        dict probe per line, and only novel shapes decode and run the
        scan machine.
        The cache persists on the encoder across batches and is rebuilt
        when the backing table starts a new epoch.

        Corpora whose shapes do not repeat stop paying for
        skeletonization: when the hit rate stays under 25% after the
        first few thousand lines, the encoder disables the cache and
        subsequent batches go straight to the machine.
        """
        table = self.table
        if table.epoch() is not self._epoch:
            self._rebind()
        stats = self._line_stats
        fallback = self._encode_line_fallback
        if not stats[2] or max_depth != 512:
            # Cache disabled (or a non-default nesting limit, which the
            # skeleton key does not carry): straight to the machine.
            return [fallback(line, max_depth) for line in lines]

        whole = b"\n".join(lines)
        skeleton = _SKEL_STRIP(whole)
        if skeleton is None:
            # A line contained a raw line break: alignment is gone.
            return [fallback(line, max_depth) for line in lines]
        sk_lines, sk_pre_lines, guards = skeleton
        if len(sk_lines) != len(lines):  # pragma: no cover - break bytes
            return [fallback(line, max_depth) for line in lines]
        ctrl_any, bsl_any, wskey_any, high_any, lz_any, kd_any = guards

        cache = self._line_cache
        get = cache.get
        out = []
        append = out.append
        hits = 0
        store = len(cache) < _SKEL_CACHE_LIMIT
        # Guard-tripping lines never touch the cache — neither storing
        # (their skeleton may misrepresent them) nor *hitting* (a raw
        # control byte can forge the skeleton markers and alias a clean
        # line's entry).  The per-line searches run only when the
        # corpus-level flags fired, so clean corpora pay nothing.
        guarded = ctrl_any or bsl_any or wskey_any or lz_any or kd_any
        for i, line in enumerate(lines):
            if guarded and (
                (ctrl_any and _SKEL_CTRL.search(line))
                or (bsl_any and b"\\" in line)
                or (wskey_any and _SKEL_WSKEY.search(line))
                or (lz_any and _SKEL_LEADING_ZERO.search(sk_pre_lines[i]))
                or (kd_any and _SKEL_KEYDIG.search(sk_pre_lines[i]))
            ):
                append(fallback(line, max_depth))
                continue
            skel = sk_lines[i]
            done = get(skel)
            if done is None:
                canonical = _collapse_skeleton(skel)
                done = get(canonical)
                if done is None:
                    done = fallback(line, max_depth)
                    if store:
                        cache[canonical] = done
                        if canonical != skel:
                            cache[skel] = done
                    append(done)
                    continue
                # Canonical hit through a fresh alias.
                if store:
                    cache[skel] = done
            # UTF-8 validity is per line (cached shapes share nothing
            # with this line's string contents).
            if high_any and _BYTES_HIGH_BYTE.search(line) is not None:
                run = _BYTES_UTF8_RUN.match(line)
                if run.end() != len(line):
                    line.decode("utf-8")  # raises the exact error
            hits += 1
            append(done)
        stats[0] += len(lines)
        stats[1] += hits
        if stats[0] >= _SKEL_MIN_ATTEMPTS and stats[1] * 4 < stats[0]:
            stats[2] = False
        return out

    @property
    def line_cache_stats(self) -> tuple:
        """``(attempts, hits, enabled)`` of the line-shape cache.

        Attempts count lines that entered :meth:`encode_lines` with the
        cache enabled; hits are the ones resolved by a cached skeleton.
        The adaptive scheduler reads the measured hit rate back into its
        cost model, so the timed sample prices warm cached folding
        instead of assuming every line pays the full structural scan.
        """
        attempts, hits, enabled = self._line_stats
        return attempts, hits, bool(enabled)


def _SKEL_STRIP(whole: bytes):
    """Run the corpus-level skeleton passes over one joined buffer.

    Returns ``(skeleton lines, pre-fold skeleton lines or None, guard
    flags)``, or ``None`` when line alignment cannot be preserved.
    """
    ctrl_any = _SKEL_CTRL.search(whole) is not None
    bsl_any = b"\\" in whole
    wskey_any = _SKEL_WSKEY.search(whole) is not None
    high_any = _BYTES_HIGH_BYTE.search(whole) is not None
    marked = whole.replace(b'":', b"\x04")
    strip = _SKEL_STRIP_FULL if bsl_any else _SKEL_STRIP_SIMPLE
    sk_pre = strip.sub(b"\x03", marked)
    if _SKEL_KEYDIG.search(sk_pre) is not None:
        # Shift key-region digits out of the fold's way; the guards
        # below then see only what the protect pass could not cover.
        sk_pre = _SKEL_KEYDIG_PROTECT.sub(_skel_shift_key_digits, sk_pre)
    lz_any = _SKEL_LEADING_ZERO.search(sk_pre) is not None
    kd_any = _SKEL_KEYDIG.search(sk_pre) is not None
    sk_all = _SKEL_RUNS.sub(b"0", sk_pre.translate(_SKEL_FOLD))
    sk_lines = _SKEL_BREAK.split(sk_all)
    sk_pre_lines = _SKEL_BREAK.split(sk_pre) if (lz_any or kd_any) else None
    if sk_pre_lines is not None and len(sk_pre_lines) != len(sk_lines):
        return None  # pragma: no cover - break bytes inside a line
    return (
        sk_lines,
        sk_pre_lines,
        (ctrl_any, bsl_any, wskey_any, high_any, lz_any, kd_any),
    )


_DEFAULT_ENCODER: Optional[TypeEncoder] = None


def type_of_interned(value: Any, table: Optional[InternTable] = None) -> Type:
    """The canonical interned type of ``value`` — ``intern(type_of(value))``
    fused into one probe-first, recursion-free pass.

    With no ``table`` this uses a process-wide encoder bound to the
    global intern table; pass an explicit table to keep workloads
    isolated (a fresh encoder per call — hold a :class:`TypeEncoder`
    yourself for batch work against a private table).
    """
    global _DEFAULT_ENCODER
    if table is None or table is global_table():
        encoder = _DEFAULT_ENCODER
        if encoder is None:
            encoder = _DEFAULT_ENCODER = TypeEncoder(global_table())
        return encoder.encode(value)
    return TypeEncoder(table).encode(value)
