"""Mison-style structural index (Li et al., VLDB '17).

Mison "exploits AVX instructions to speed up data parsing and discarding
unused objects … it infers structural information of data on the fly in
order to detect and prune parts of the data that are not needed".

The reproduction keeps Mison's *bit-parallel* design with Python's
arbitrary-precision integers playing the role of SIMD words — bitwise AND/
OR/XOR/shift on a bigint operate on the whole document at machine-word
granularity inside CPython, preserving the algorithm's word-level
semantics (the substitution DESIGN.md documents):

1. **character bitmaps** for ``\\`` ``"`` ``:`` ``,`` ``{`` ``}`` ``[`` ``]``
   (bit *i* set iff ``text[i]`` is that character);
2. the **structural-quote bitmap**: quotes minus escaped quotes, via the
   classic backslash-run parity computation;
3. the **string mask** (interior of string literals), from the structural
   quotes by prefix-XOR parity — Mison's carryless-multiply step;
4. **masked structural bitmaps**: colons/commas/braces/brackets *outside*
   strings;
5. **leveled bitmaps**: colon/comma bitmaps per nesting level, built only
   up to the depth the projection needs (Mison's key cost saving).

The index exposes positional queries used by the projected parser:
top-level member colons of an object span, element commas of an array
span, and matching-bracket lookup.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from repro.errors import JsonError
from repro.jsonvalue.lexer import FULL_STRING_BODY_PATTERN_BYTES
from repro.jsonvalue.parser import c_scan_once


def _char_bitmap(text: str, ch: str) -> int:
    """Bit *i* set iff ``text[i] == ch`` (bigint as an n-bit SIMD word)."""
    bitmap = 0
    start = text.find(ch)
    while start != -1:
        bitmap |= 1 << start
        start = text.find(ch, start + 1)
    return bitmap


def _structural_quotes(quote_bitmap: int, backslash_bitmap: int, length: int) -> int:
    """Quotes that really delimit strings: drop quotes escaped by an odd
    run of backslashes (Mison step 2)."""
    if not backslash_bitmap:
        return quote_bitmap
    # A quote at i is escaped iff the maximal backslash run ending at i-1
    # has odd length.  Compute run parities bit-parallel: a backslash run
    # starts where a backslash has no backslash predecessor.
    starts = backslash_bitmap & ~(backslash_bitmap << 1)
    escaped = 0
    run_start = starts
    while run_start:
        low = run_start & -run_start
        i = low.bit_length() - 1
        # Extend the run from position i.
        j = i
        while (backslash_bitmap >> j) & 1:
            j += 1
        run_length = j - i
        if run_length % 2 == 1 and (quote_bitmap >> j) & 1:
            escaped |= 1 << j
        run_start &= run_start - 1
        # Skip any start bits inside this run (there are none by construction).
    return quote_bitmap & ~escaped


def _string_mask(structural_quotes: int, length: int) -> int:
    """Bit *i* set iff position *i* lies strictly inside a string literal.

    Prefix-XOR over quote bits (Mison's carryless multiplication): between
    the (2k+1)-th and (2k+2)-th structural quote every bit is set.
    """
    mask = 0
    quotes = structural_quotes
    open_pos = -1
    while quotes:
        low = quotes & -quotes
        pos = low.bit_length() - 1
        if open_pos < 0:
            open_pos = pos
        else:
            # Interior of the literal: positions open_pos+1 .. pos-1,
            # and the delimiters themselves are also "in string" for
            # masking purposes (they are not structural punctuation).
            span = pos - open_pos + 1
            mask |= ((1 << span) - 1) << open_pos
            open_pos = -1
        quotes &= quotes - 1
    if open_pos >= 0:
        raise JsonError("unbalanced string quotes in document")
    return mask


class StructuralIndex:
    """The leveled structural index of one JSON text.

    ``colon_levels`` and ``comma_levels`` are per-level bitmaps, index 0
    = depth 1 (inside the top-level container).
    """

    def __init__(
        self,
        text: str,
        string_mask: int,
        colons: int,
        commas: int,
        open_braces: int,
        close_braces: int,
        open_brackets: int,
        close_brackets: int,
        colon_levels: list[int],
        comma_levels: list[int],
        max_level: int,
    ) -> None:
        self.text = text
        self.string_mask = string_mask
        self.colons = colons
        self.commas = commas
        self.open_braces = open_braces
        self.close_braces = close_braces
        self.open_brackets = open_brackets
        self.close_brackets = close_brackets
        self.colon_levels = colon_levels
        self.comma_levels = comma_levels
        self.max_level = max_level

    @classmethod
    def build(cls, text: str, *, levels: int = 1) -> "StructuralIndex":
        """Build the index with leveled bitmaps down to ``levels``."""
        backslash = _char_bitmap(text, "\\")
        quotes = _char_bitmap(text, '"')
        structural_quotes = _structural_quotes(quotes, backslash, len(text))
        string_mask = _string_mask(structural_quotes, len(text))
        keep = ~string_mask

        colons = _char_bitmap(text, ":") & keep
        commas = _char_bitmap(text, ",") & keep
        open_braces = _char_bitmap(text, "{") & keep
        close_braces = _char_bitmap(text, "}") & keep
        open_brackets = _char_bitmap(text, "[") & keep
        close_brackets = _char_bitmap(text, "]") & keep

        colon_levels, comma_levels = cls._leveled(
            text,
            colons,
            commas,
            open_braces | open_brackets,
            close_braces | close_brackets,
            levels,
        )
        return cls(
            text=text,
            string_mask=string_mask,
            colons=colons,
            commas=commas,
            open_braces=open_braces,
            close_braces=close_braces,
            open_brackets=open_brackets,
            close_brackets=close_brackets,
            colon_levels=colon_levels,
            comma_levels=comma_levels,
            max_level=levels,
        )

    @staticmethod
    def _leveled(
        text: str,
        colons: int,
        commas: int,
        opens: int,
        closes: int,
        levels: int,
    ) -> tuple[list[int], list[int]]:
        """Distribute structural colons/commas over nesting levels.

        One pass over the *set bits* of the merged punctuation bitmaps —
        the document body is never re-scanned (only punctuation positions
        are visited, which is the Mison property).
        """
        colon_levels = [0] * levels
        comma_levels = [0] * levels
        merged = colons | commas | opens | closes
        depth = 0
        bits = merged
        while bits:
            low = bits & -bits
            pos = low.bit_length() - 1
            if (opens >> pos) & 1:
                depth += 1
            elif (closes >> pos) & 1:
                depth -= 1
                if depth < 0:
                    raise JsonError("unbalanced brackets in document")
            elif (colons >> pos) & 1:
                if 1 <= depth <= levels:
                    colon_levels[depth - 1] |= low
            else:  # comma
                if 1 <= depth <= levels:
                    comma_levels[depth - 1] |= low
            bits &= bits - 1
        if depth != 0:
            raise JsonError("unbalanced brackets in document")
        return colon_levels, comma_levels

    # ------------------------------------------------------------------
    # positional queries
    # ------------------------------------------------------------------

    def matching_close(self, open_pos: int) -> int:
        """Position of the bracket matching the opener at ``open_pos``."""
        opens = self.open_braces | self.open_brackets
        closes = self.close_braces | self.close_brackets
        if not ((opens >> open_pos) & 1):
            raise JsonError(f"no structural opener at position {open_pos}")
        depth = 0
        bits = (opens | closes) >> open_pos
        pos = open_pos
        while bits:
            low = bits & -bits
            offset = low.bit_length() - 1
            pos = open_pos + offset
            if (opens >> pos) & 1:
                depth += 1
            else:
                depth -= 1
                if depth == 0:
                    return pos
            bits &= bits - 1
        raise JsonError(f"no matching close for opener at {open_pos}")

    def bits_in_span(self, bitmap: int, start: int, end: int) -> Iterator[int]:
        """Positions of set bits of ``bitmap`` within [start, end)."""
        window = (bitmap >> start) & ((1 << (end - start)) - 1)
        while window:
            low = window & -window
            yield start + low.bit_length() - 1
            window &= window - 1

    def object_member_colons(self, open_pos: int, close_pos: int, level: int) -> list[int]:
        """Colons of the direct members of the object spanning [open, close]."""
        if level > self.max_level:
            raise JsonError(
                f"index built to level {self.max_level}, need {level}"
            )
        return list(self.bits_in_span(self.colon_levels[level - 1], open_pos, close_pos))

    def array_element_commas(self, open_pos: int, close_pos: int, level: int) -> list[int]:
        """Commas separating direct elements of the array span."""
        if level > self.max_level:
            raise JsonError(
                f"index built to level {self.max_level}, need {level}"
            )
        return list(self.bits_in_span(self.comma_levels[level - 1], open_pos, close_pos))

    def key_before_colon(self, colon_pos: int) -> str:
        """Decode the member name whose colon sits at ``colon_pos``."""
        text = self.text
        end = colon_pos - 1
        while end >= 0 and text[end] in " \t\r\n":
            end -= 1
        if end < 0 or text[end] != '"':
            raise JsonError(f"no member name before colon at {colon_pos}")
        # Walk back to the opening quote, skipping escaped quotes using
        # the string mask: the opening quote is the nearest quote whose
        # predecessor position is NOT inside the string.
        start = end - 1
        while start >= 0:
            if text[start] == '"' and not ((self.string_mask >> (start - 1)) & 1 if start else False):
                break
            start -= 1
        from repro.jsonvalue.lexer import _Scanner

        scanner = _Scanner(text)
        scanner.pos = start
        token = scanner.scan_string()
        assert isinstance(token.value, str)
        return token.value

    def value_span(self, colon_pos: int, container_close: int, level: int) -> tuple[int, int]:
        """The [start, end) span of the value following ``colon_pos``.

        ``container_close`` is the position of the enclosing container's
        closing brace; the value ends at the next same-level comma or at
        the close.
        """
        text = self.text
        start = colon_pos + 1
        while text[start] in " \t\r\n":
            start += 1
        if level <= self.max_level:
            for comma in self.bits_in_span(
                self.comma_levels[level - 1], colon_pos, container_close
            ):
                return start, comma
            return start, container_close
        raise JsonError(f"index built to level {self.max_level}, need {level}")

# ---------------------------------------------------------------------------
# Bytes-native top-level splitter (intra-document parallelism).
#
# The line-parallel pipeline dies on one huge document: a single 500 MB
# record serializes the whole fold.  The splitter carves the top-level
# container of an undecoded byte buffer (mmap, memoryview, bytes)
# into contiguous *subtree ranges* that workers can type independently
# (one element at a time), to be reassembled through the
# merge monoid.
#
# Two carving strategies share one contract:
#
# - :func:`scan_depth1_spans` — the exact pass: the stdlib C decoder
#   (``c_scan_once``) reads one depth-1 element, or one member's key
#   and value, at a time from UTF-8 windows of about 256 KiB, and a
#   running byte cursor maps each span back to buffer offsets, so
#   nothing walks the bytes one at a time in Python and only one window
#   plus one element is ever decoded.  Used below a size threshold,
#   after a declined speculative carve, and by the edge-case tests.
# - :func:`propose_chunks` — the speculative carver for huge buffers:
#   evenly spaced byte offsets are snapped forward to element-separator
#   shapes (``}<ws>,<ws>{`` and friends) found by C-speed searches, so
#   the parent's split cost is O(workers), not O(bytes).
#
# Both only *propose* a tiling.  Soundness never rests on the proposal:
# every chunk is a byte range that must itself parse as a complete
# element/member list (the worker validates it with the full scan
# machine), the dropped separator bytes are validated against the
# ``<ws>,<ws>`` grammar by construction, and the opener/closer/edge
# whitespace are checked explicitly — so the document bytes are tiled by
# verified regions and any speculation failure (separator bytes found
# inside a string, at the wrong depth, malformed input, …) surfaces as a
# validation failure, never as a silently different type.  Before any
# worker types a speculative chunk, :func:`probe_chunk` reads its first
# window with the exact carve's item step: a closer right after a
# complete item proves the cut sat deeper than depth 1, so the driver
# re-plans without starting a worker, and then re-cuts with
# ``propose_chunks(..., probes=N)``, which moves each such cut past the
# closer that proved it.  When the workers fail a chunk instead, or the
# re-cut fails on them, the driver re-carves with the exact scan, and
# failing that scans the whole document serially, which raises the
# parser-exact error (or, for under-approximated valid shapes, returns
# the correct type).
# ---------------------------------------------------------------------------

_SPLIT_WS = re.compile(rb"[ \t\n\r]*")
# Speculative element separators, by element kind.  The bracket/quote
# anchors stay inside the flanking chunks; only the ``<ws>,<ws>`` core
# is dropped, which is what makes the dropped bytes self-validating.
_SEP_RECORD = re.compile(rb"\}[ \t\n\r]*,[ \t\n\r]*\{")
_SEP_ARRAY = re.compile(rb"\][ \t\n\r]*,[ \t\n\r]*\[")
_SEP_MEMBER = re.compile(rb"[\}\]][ \t\n\r]*,[ \t\n\r]*\"")
# A member whose value opens a container: the spine candidates.
_SPINE_MEMBER = re.compile(
    b'"(' + FULL_STRING_BODY_PATTERN_BYTES + b')"'
    + rb"[ \t\n\r]*:[ \t\n\r]*([\[{])"
)
_SEP_COMMA = re.compile(rb",")
_ANY_BRACKET = re.compile(rb"[{\[]")

_LBRACE, _RBRACE, _LBRACKET, _RBRACKET = 0x7B, 0x7D, 0x5B, 0x5D
_COMMA = 0x2C

# The exact carve decodes the buffer through UTF-8 windows of this many
# bytes; a window grows only to fit one element larger than it.
_SCAN_WINDOW = 1 << 18
# A probe of a speculative chunk decodes at most this many bytes.
_PROBE_WINDOW = 1 << 16
_TEXT_WS = re.compile(r"[ \t\n\r]*").match


class SubtreeScan:
    """The exact depth-1 carve of one document's byte range.

    ``parts`` holds one tuple per direct child of the top container:
    ``(start, end)`` element value spans for an array,
    ``(key_start, key_body_start, key_body_end, value_start, value_end)``
    for an object — ``key_start`` is the opening quote (so a member span
    runs ``key_start:value_end``), the body span excludes the quotes
    (the raw key bytes, escapes still encoded).  Immutable.
    """

    def __init__(self, kind: str, open: int, close: int, parts: tuple) -> None:
        object.__setattr__(self, "kind", kind)  # "object" | "array"
        object.__setattr__(self, "open", open)
        object.__setattr__(self, "close", close)
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


def scan_depth1_spans(data, start: int = 0, end: Optional[int] = None):
    """Exact split of a top-level container into child spans.

    Returns a :class:`SubtreeScan`, or ``None`` when the range is not a
    splittable container document (top-level scalar, malformed shape or
    value, invalid UTF-8, trailing garbage, …) — the caller then types
    the range serially, so errors and under-approximations resolve
    exactly as the serial scan would.  The buffer is decoded
    ``_SCAN_WINDOW`` bytes at a time (see :func:`_depth1_parts`).
    """
    if end is None:
        end = len(data)
    pos = _SPLIT_WS.match(data, start, end).end()
    if pos >= end:
        return None
    top = data[pos]
    if top != _LBRACE and top != _LBRACKET:
        return None
    try:
        with memoryview(data) as view:
            found = _depth1_parts(view, pos + 1, end, top == _LBRACE)
    except (ValueError, RecursionError):
        # Invalid UTF-8 (``UnicodeDecodeError`` is a ``ValueError``), or
        # a value nested deeper than the C decoder recurses.
        return None
    if found is None:
        return None
    parts, close = found
    if _SPLIT_WS.match(data, close + 1, end).end() != end:
        return None  # trailing bytes after the document
    return SubtreeScan(
        kind="object" if top == _LBRACE else "array",
        open=pos,
        close=close,
        parts=tuple(parts),
    )


def _depth1_parts(view, pos: int, end: int, is_object: bool):
    """``(parts, close)`` of the container whose opener ends at byte
    ``pos``, or ``None``.

    Each step reads one item (:func:`_read_items`) and the ``,`` or
    closer after it, with the C decoder over a window of the buffer
    decoded from the step's first byte.  A window ends on a UTF-8 lead
    byte (:func:`_window_stop`), so it never splits a character, and a
    running byte cursor maps the step's character offsets to buffer
    offsets.  A step that fails, or reaches the end of a window that is
    not the end of the range, may have been cut (``12|3``, ``1|e5``,
    half a string, an element larger than the window), so it runs again
    on a window that starts where the step starts, twice as large if it
    already did.  Only a step that fails in a window reaching ``end``
    declines.
    """
    inner = _SPLIT_WS.match(view, pos, end).end()
    if inner < end and view[inner] == (_RBRACE if is_object else _RBRACKET):
        return [], inner  # "{}" / "[]"
    close_char = "}" if is_object else "]"
    parts = []
    window = size = _SCAN_WINDOW
    while True:
        stop = _window_stop(view, pos + size, end)
        text = str(view[pos:stop], "utf-8")
        ascii = text.isascii()
        window_start = pos
        seen, seen_at = 0, pos  # running cursor: text[seen] is at byte seen_at
        for marks in _read_items(text, is_object):
            after = marks[-1]
            if text[after : after + 1] not in (",", close_char):
                break
            if ascii:
                offsets = [window_start + m for m in marks]
            else:
                offsets = []
                for m in marks:
                    seen_at += len(text[seen:m].encode())
                    seen = m
                    offsets.append(seen_at)
            if is_object:
                parts.append((offsets[0], offsets[0] + 1, *offsets[1:4]))
            else:
                parts.append((offsets[0], offsets[1]))
            if text[after] == close_char:
                return parts, offsets[-1]
            pos = offsets[-1] + 1
        # The step at byte ``pos`` did not complete in this window.
        if stop == end:
            return None
        size = size * 2 if pos == window_start else window


def _window_stop(view, stop: int, end: int) -> int:
    """``stop`` capped at ``end``, or backed off to a UTF-8 lead byte
    (at most three continuation bytes precede one in valid UTF-8)."""
    if stop >= end:
        return end
    lead = stop
    while lead > stop - 3 and view[lead] & 0xC0 == 0x80:
        lead -= 1
    return lead


def _read_items(text: str, is_object: bool):
    """The item step: yield the character marks of each item of
    ``text``, ``<ws> [key <ws> : <ws>] value <ws>``, read by the C
    decoder — ``(key, key_end, value, value_end, after)`` for a member
    (``key_end`` is the closing quote), ``(value, value_end, after)``
    for an element, where ``after`` is the first character past the
    item (``len(text)`` at the end of the text).  Stops after an item
    that no ``,`` follows, or at the first item that does not decode.
    """
    ws = _TEXT_WS
    scan = c_scan_once
    step = 0
    while True:
        j = ws(text, step).end()
        try:
            if is_object:
                if text[j : j + 1] != '"':
                    return
                k = scan(text, j)[1]
                colon = ws(text, k).end()
                if text[colon : colon + 1] != ":":
                    return
                v = ws(text, colon + 1).end()
            else:
                v = j
            e = scan(text, v)[1]
        except (StopIteration, ValueError):
            return
        after = ws(text, e).end()
        yield (j, k - 1, v, e, after) if is_object else (v, e, after)
        if text[after : after + 1] != ",":
            return
        step = after + 1


def probe_chunk(data, start: int, end: int, kind: str) -> Optional[int]:
    """Byte offset of a closer that proves ``data[start:end]`` is not a
    ``kind`` item list, or ``None`` when its first window cannot tell.

    Reads at most ``_PROBE_WINDOW`` bytes with the exact carve's item
    step.  A ``]`` or ``}`` right after a complete item, inside the
    window, closes a container the chunk never opened: the cut that
    starts the chunk sat deeper than depth 1, and typing the chunk
    (:func:`~repro.inference.engine.type_subtree_chunks`) fails there.
    A window edge, or an item that does not decode (a number or string
    the window cut, or input the typing pass reports), proves nothing.
    """
    with memoryview(data) as view:
        stop = _window_stop(view, start + _PROBE_WINDOW, end)
        try:
            text = str(view[start:stop], "utf-8")
            for marks in _read_items(text, kind == "object"):
                after = marks[-1]
                if text[after : after + 1] in ("]", "}"):
                    return start + len(text[:after].encode())
        except (ValueError, RecursionError):
            pass
    return None


def document_bounds(data, start: int = 0, end: Optional[int] = None):
    """``(kind, open, close)`` of the top-level container, by the edge
    bytes alone (no interior scan), or ``None``.  Speculative: the
    closer is only *positionally* plausible; chunk validation decides."""
    if end is None:
        end = len(data)
    pos = _SPLIT_WS.match(data, start, end).end()
    if pos >= end:
        return None
    tail = end
    while tail > pos and data[tail - 1] in b" \t\n\r":
        tail -= 1
    close = tail - 1
    if close <= pos:
        return None
    top = data[pos]
    if top == _LBRACE and data[close] == _RBRACE:
        return "object", pos, close
    if top == _LBRACKET and data[close] == _RBRACKET:
        return "array", pos, close
    return None


def propose_chunks(
    data, open_: int, close: int, kind: str, targets: int, probes: int = 0
) -> Optional[list]:
    """Speculative chunk spans tiling ``(open_, close)`` exclusive.

    Evenly spaced candidate offsets snap forward to the next
    element-separator shape; each returned ``(start, end)`` span should
    parse as a complete element list (array) or member list (object) —
    the typing pass verifies that, so a separator matched inside a
    string or at the wrong depth fails loudly there, never silently.
    With ``probes``, each cut is probed (:func:`probe_chunk`) up to that
    many times: a cut the probe proves deeper than depth 1 re-snaps to
    the next separator from the closer that proved it on, and one still
    proven wrong at its last probe is dropped.  Returns ``None`` when
    fewer than two chunks can be proposed.
    """
    interior_start = open_ + 1
    size = close - interior_start
    if targets < 2 or size < 2:
        return None
    p = _SPLIT_WS.match(data, interior_start, close).end()
    if p >= close:
        return None
    first = data[p]
    drop_comma = False
    if kind == "array":
        if first == _LBRACE:
            sep = _SEP_RECORD
        elif first == _LBRACKET:
            sep = _SEP_ARRAY
        else:
            # A flat scalar array has no interior brackets at all, so
            # every comma is a depth-1 separator; with brackets present
            # a bare comma is hopeless speculation — decline.
            if _ANY_BRACKET.search(data, p, close) is not None:
                return None
            sep = _SEP_COMMA
            drop_comma = True
    else:
        sep = _SEP_MEMBER
    step = max(1, size // targets)
    boundaries = []
    cursor = interior_start + step
    while cursor < close and len(boundaries) < targets - 1:
        m = sep.search(data, cursor, close)
        if m is None:
            break
        if drop_comma:
            cut, resume = m.start(), m.end()
        else:
            m = _resnap(data, sep, m, close, kind, probes)
            if m is None:
                cursor += step
                continue
            cut, resume = m.start() + 1, m.end() - 1
        boundaries.append((cut, resume))
        cursor = max(resume + 1, m.start() + step)
    if not boundaries:
        return None
    chunks = []
    prev = interior_start
    for cut, resume in boundaries:
        chunks.append((prev, cut))
        prev = resume
    chunks.append((prev, close))
    return chunks


def _resnap(data, sep, m, close: int, kind: str, probes: int):
    """The separator match ``m`` once no probe proves the chunk after it
    wrong, at most ``probes`` probes; ``None`` when the last one still
    does, or no separator is left.  A proven cut moves to the first
    separator from the closer that proved it on: one that closer opens
    sits one level up."""
    for left in range(probes, 0, -1):
        closer = probe_chunk(data, m.end() - 1, close, kind)
        if closer is None:
            return m
        m = sep.search(data, closer, close) if left > 1 else None
        if m is None:
            return None
    return m


def propose_spine(data, open_: int, close: int):
    """Speculative descent for ``{"…": …, "big": [huge]}`` shapes.

    When a top-level *object* cannot chunk (few members, one dominant
    container value), the parallelism lives one level down.  This
    proposes: the span of leading members (``None`` when the big member
    is first), the decoded-key *byte* span of the dominant member, and
    the value span — valid only when the dominant container member is
    the **last** member (its value runs to the closing brace).  Returns
    ``None`` when the shape does not match; validation is again
    downstream.
    """
    vclose = close - 1
    while vclose > open_ and data[vclose] in b" \t\n\r":
        vclose -= 1
    pos = open_ + 1
    for _ in range(16):  # candidate budget: this is O(1) speculation
        m = _SPINE_MEMBER.search(data, pos, close)
        if m is None:
            return None
        pos = m.end()
        vopen = m.end() - 1
        if vopen >= vclose:
            return None
        if data[vclose] != (
            _RBRACKET if data[vopen] == _LBRACKET else _RBRACE
        ):
            continue  # value cannot run to the closing brace
        head_end = m.start()
        cursor = head_end
        while cursor > open_ + 1 and data[cursor - 1] in b" \t\n\r":
            cursor -= 1
        if cursor > open_ + 1:
            if data[cursor - 1] != _COMMA:
                # A non-comma byte right before the key means this match
                # sits *inside* an earlier member's value; keep looking.
                continue
            head = (open_ + 1, cursor - 1)
        else:
            head = None
        return head, m.span(1), (vopen, vclose + 1)
    return None
