"""Tokenizer for RFC 8259 JSON text.

Produces :class:`Token` objects carrying byte offsets and line/column
positions, which the DOM parser, the streaming event parser, and the
Mison-style structural index all consume.  The lexer is strict by default
(no NaN/Infinity, no comments, no trailing garbage is its caller's concern)
and decodes string escapes including surrogate pairs.
"""

from __future__ import annotations

import enum
import re
from typing import Iterator, Optional

from repro.errors import JsonError


class JsonLexError(JsonError):
    """Raised on malformed input at the token level."""

    def __init__(self, message: str, offset: int, line: int, column: int) -> None:
        super().__init__(f"{message} at line {line}, column {column} (offset {offset})")
        self.raw_message = message
        self.offset = offset
        self.line = line
        self.column = column

    def __reduce__(self):
        # Default exception pickling replays __init__ with ``args`` (the
        # one formatted string); rebuild from the real signature instead
        # so lexer errors survive the worker→parent pipe intact.
        return (type(self), (self.raw_message, self.offset, self.line, self.column))


class TokenType(enum.Enum):
    LBRACE = "{"
    RBRACE = "}"
    LBRACKET = "["
    RBRACKET = "]"
    COLON = ":"
    COMMA = ","
    STRING = "string"
    NUMBER = "number"
    TRUE = "true"
    FALSE = "false"
    NULL = "null"
    EOF = "eof"


class Token:
    """One lexical token (immutable).

    ``value`` is the decoded Python value for STRING/NUMBER/TRUE/FALSE/NULL
    tokens and ``None`` for punctuation. ``offset``/``end_offset`` index into
    the source text (useful for raw-slice tricks in the fast parsers).
    """

    def __init__(
        self,
        type: TokenType,
        value: object,
        offset: int,
        end_offset: int,
        line: int,
        column: int,
    ) -> None:
        object.__setattr__(self, "type", type)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "end_offset", end_offset)
        object.__setattr__(self, "line", line)
        object.__setattr__(self, "column", column)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


_WHITESPACE = " \t\n\r"
_PUNCT = {
    "{": TokenType.LBRACE,
    "}": TokenType.RBRACE,
    "[": TokenType.LBRACKET,
    "]": TokenType.RBRACKET,
    ":": TokenType.COLON,
    ",": TokenType.COMMA,
}
_ESCAPES = {
    '"': '"',
    "\\": "\\",
    "/": "/",
    "b": "\b",
    "f": "\f",
    "n": "\n",
    "r": "\r",
    "t": "\t",
}
_NUMBER_START = set("-0123456789")
_DIGITS = set("0123456789")

# --------------------------------------------------------------------------
# Shared token patterns.
#
# The lexer's own fast paths, the stream translator's member scan and the
# bytes scanners below compose these fragments, so there is exactly one
# definition of "a simple string" / "an RFC 8259 number" in the system.
#
# - SIMPLE_STRING_PATTERN matches a string literal with no escapes and no
#   unescaped control characters — the overwhelmingly common case, which
#   needs no decoding at all (its value is the raw slice between the
#   quotes).  Strings containing ``\`` or a control character fail the
#   pattern *entirely* (the character class cannot match them), so a match
#   is always a complete, valid literal.
# - FLOAT_PATTERN / INT_PATTERN split the number grammar by whether the
#   literal has a fraction or exponent; FLOAT must be tried first (regex
#   alternation is first-match, and every float starts with a valid int).
#   Both match *maximally*, but a match followed by one of
#   NUMBER_BOUNDARY_CHARS (".", "e", "E", a digit) may extend into a
#   malformed literal ("01", "1.e5", "1e+") — callers must defer those to
#   the character-level scan for the exact error.
# --------------------------------------------------------------------------

STRING_BODY_PATTERN = r'[^"\\\x00-\x1f]*'
SIMPLE_STRING_PATTERN = '"' + STRING_BODY_PATTERN + '"'
INT_PATTERN = r"-?(?:0|[1-9][0-9]*)"
FLOAT_PATTERN = (
    r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][+-]?[0-9]+)?|[eE][+-]?[0-9]+)"
)
WHITESPACE_PATTERN = r"[ \t\n\r]*"
NUMBER_BOUNDARY_CHARS = ".eE0123456789"

# --------------------------------------------------------------------------
# Bytes mirrors of the shared fragments.
#
# The bytes scanners (the structural splitter of
# :mod:`repro.parsing.structural`) run the same grammar directly over
# mmap buffers.  Every fragment mirrors its str twin by plain ASCII
# encoding — including the string body: in bytes mode the very same
# class ``[^"\\\x00-\x1f]`` matches any byte ``\x20``–``\xff`` except
# ``"`` and ``\``, which skips UTF-8 multibyte content *structurally*
# (multibyte sequences contain no bytes below ``\x80``, so they can
# never hide a quote or backslash and the byte-level string extent
# agrees with the char-level one whenever the bytes are valid UTF-8).
# Validity itself is the decoder's business.
# --------------------------------------------------------------------------

INT_PATTERN_BYTES = INT_PATTERN.encode("ascii")
WHITESPACE_PATTERN_BYTES = WHITESPACE_PATTERN.encode("ascii")
STRING_BODY_PATTERN_BYTES = STRING_BODY_PATTERN.encode("ascii")

# One valid escape sequence.  Any \uXXXX is lexically valid (the lexer
# preserves lone surrogates), so four hex digits suffice.
STRING_ESCAPE_PATTERN_BYTES = rb'\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})'
# A whole string-literal body, escapes included — used by the bytes
# scanners' per-token tier, where a match is a complete literal whose
# decoded content would lex identically (escape validity included; only
# UTF-8 validity remains for the lazy document-level check).
FULL_STRING_BODY_PATTERN_BYTES = (
    STRING_BODY_PATTERN_BYTES
    + rb"(?:(?:"
    + STRING_ESCAPE_PATTERN_BYTES
    + rb")"
    + STRING_BODY_PATTERN_BYTES
    + rb")*"
)

_SIMPLE_STRING_RE = re.compile(SIMPLE_STRING_PATTERN)
# One capturing group around the float alternative: ``lastindex`` is 1
# exactly when the literal has a fraction or exponent.
_NUMBER_RE = re.compile("(" + FLOAT_PATTERN + ")|" + INT_PATTERN)
_WHITESPACE_RE = re.compile(WHITESPACE_PATTERN)
_NUMBER_BOUNDARY = frozenset(NUMBER_BOUNDARY_CHARS)


class _Scanner:
    """Mutable cursor over the source text with line/column tracking."""

    __slots__ = ("text", "length", "pos", "line", "line_start")

    def __init__(self, text: str) -> None:
        self.text = text
        self.length = len(text)
        self.pos = 0
        self.line = 1
        self.line_start = 0

    @property
    def column(self) -> int:
        return self.pos - self.line_start + 1

    def error(self, message: str, offset: Optional[int] = None) -> JsonLexError:
        pos = self.pos if offset is None else offset
        return JsonLexError(message, pos, self.line, pos - self.line_start + 1)

    def skip_whitespace(self) -> None:
        pos = self.pos
        end = _WHITESPACE_RE.match(self.text, pos).end()
        if end != pos:
            # One C-speed match consumes the whole run; newlines are
            # re-counted only when the run contains any.
            newlines = self.text.count("\n", pos, end)
            if newlines:
                self.line += newlines
                self.line_start = self.text.rfind("\n", pos, end) + 1
            self.pos = end

    def scan_string(self) -> Token:
        """Scan a string literal; ``pos`` must sit on the opening quote."""
        text = self.text
        start = self.pos
        simple = _SIMPLE_STRING_RE.match(text, start)
        if simple is not None:
            # No escapes, no control characters: the value is the raw
            # slice (and cannot contain a newline, so line bookkeeping
            # is untouched).
            end = simple.end()
            token = Token(
                TokenType.STRING, text[start + 1 : end - 1], start, end,
                self.line, self.column,
            )
            self.pos = end
            return token
        line = self.line
        column = self.column
        pos = start + 1
        length = self.length
        # Fast path: no escapes — find the closing quote in one scan.
        chunks: list[str] = []
        chunk_start = pos
        while True:
            if pos >= length:
                raise self.error("unterminated string", start)
            ch = text[pos]
            if ch == '"':
                chunks.append(text[chunk_start:pos])
                pos += 1
                break
            if ch == "\\":
                chunks.append(text[chunk_start:pos])
                pos += 1
                if pos >= length:
                    raise self.error("unterminated escape sequence", start)
                esc = text[pos]
                if esc in _ESCAPES:
                    chunks.append(_ESCAPES[esc])
                    pos += 1
                elif esc == "u":
                    code, pos = self._scan_unicode_escape(pos + 1)
                    chunks.append(code)
                else:
                    raise self.error(f"invalid escape character {esc!r}", pos)
                chunk_start = pos
            elif ch < "\x20":
                raise self.error(
                    f"unescaped control character 0x{ord(ch):02x} in string", pos
                )
            else:
                pos += 1
        self.pos = pos
        return Token(TokenType.STRING, "".join(chunks), start, pos, line, column)

    def _scan_unicode_escape(self, pos: int) -> tuple[str, int]:
        """Decode ``\\uXXXX`` starting after the ``u``; handles surrogate pairs."""
        text = self.text
        if pos + 4 > self.length:
            raise self.error("truncated \\u escape", pos - 2)
        hex_digits = text[pos : pos + 4]
        try:
            code = int(hex_digits, 16)
        except ValueError:
            raise self.error(f"invalid \\u escape {hex_digits!r}", pos - 2) from None
        pos += 4
        if 0xD800 <= code <= 0xDBFF:
            # High surrogate: must be followed by \uDC00-\uDFFF.
            if text[pos : pos + 2] == "\\u":
                try:
                    low = int(text[pos + 2 : pos + 6], 16)
                except ValueError:
                    low = -1
                if 0xDC00 <= low <= 0xDFFF:
                    combined = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                    return chr(combined), pos + 6
            # Lone surrogate: preserved as-is (matches stdlib json behaviour).
            return chr(code), pos
        return chr(code), pos

    def scan_number(self) -> Token:
        """Scan a number literal per the RFC 8259 grammar."""
        text = self.text
        start = self.pos
        line = self.line
        column = self.column
        pos = start
        length = self.length
        fast = _NUMBER_RE.match(text, start)
        if fast is not None:
            end = fast.end()
            if end >= length or text[end] not in _NUMBER_BOUNDARY:
                # Maximal valid literal with a clean boundary; a trailing
                # ".", "e"/"E" or digit could extend into a malformed
                # literal ("01", "1.e5", "1e+"), which the character walk
                # below rejects with the exact error.
                literal = text[start:end]
                value = float(literal) if fast.lastindex else int(literal)
                self.pos = end
                return Token(TokenType.NUMBER, value, start, end, line, column)
        if text[pos] == "-":
            pos += 1
            if pos >= length or text[pos] not in _DIGITS:
                raise self.error("minus sign must be followed by digits", start)
        if text[pos] == "0":
            pos += 1
            if pos < length and text[pos] in _DIGITS:
                raise self.error("leading zeros are not allowed", start)
        else:
            while pos < length and text[pos] in _DIGITS:
                pos += 1
        is_float = False
        if pos < length and text[pos] == ".":
            is_float = True
            pos += 1
            if pos >= length or text[pos] not in _DIGITS:
                raise self.error("decimal point must be followed by digits", pos)
            while pos < length and text[pos] in _DIGITS:
                pos += 1
        if pos < length and text[pos] in "eE":
            is_float = True
            pos += 1
            if pos < length and text[pos] in "+-":
                pos += 1
            if pos >= length or text[pos] not in _DIGITS:
                raise self.error("exponent must contain digits", pos)
            while pos < length and text[pos] in _DIGITS:
                pos += 1
        literal = text[start:pos]
        value: object = float(literal) if is_float else int(literal)
        self.pos = pos
        return Token(TokenType.NUMBER, value, start, pos, line, column)

    def scan_keyword(self) -> Token:
        text = self.text
        start = self.pos
        line = self.line
        column = self.column
        for word, token_type, value in (
            ("true", TokenType.TRUE, True),
            ("false", TokenType.FALSE, False),
            ("null", TokenType.NULL, None),
        ):
            if text.startswith(word, start):
                self.pos = start + len(word)
                return Token(token_type, value, start, self.pos, line, column)
        raise self.error(f"unexpected character {text[start]!r}", start)

    def next_token(self) -> Token:
        self.skip_whitespace()
        if self.pos >= self.length:
            return Token(TokenType.EOF, None, self.pos, self.pos, self.line, self.column)
        ch = self.text[self.pos]
        punct = _PUNCT.get(ch)
        if punct is not None:
            token = Token(punct, None, self.pos, self.pos + 1, self.line, self.column)
            self.pos += 1
            return token
        if ch == '"':
            return self.scan_string()
        if ch in _NUMBER_START:
            return self.scan_number()
        return self.scan_keyword()


def tokenize(text: str) -> Iterator[Token]:
    """Yield every token of ``text`` including a final EOF token."""
    scanner = _Scanner(text)
    while True:
        token = scanner.next_token()
        yield token
        if token.type is TokenType.EOF:
            return
