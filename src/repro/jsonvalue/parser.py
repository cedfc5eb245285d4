"""Iterative DOM parser for JSON text.

``parse`` turns a JSON document into plain Python values using the tokens
produced by :mod:`repro.jsonvalue.lexer`.  The parser is *iterative* (an
explicit container stack rather than recursion) so the configurable
``max_depth`` limit is the only nesting bound — adversarially deep inputs
raise :class:`JsonParseError`, never ``RecursionError``.

Behaviour is controlled by :class:`ParseOptions`:

- ``max_depth`` guards against unbounded nesting;
- ``duplicate_keys`` selects the policy for repeated object members
  (``"last"`` wins by default, matching the stdlib; ``"first"`` and
  ``"error"`` are available because schema tools care about duplicates);
- ``require_top_level_container`` enforces the old RFC 4627 restriction
  some systems still assume.

``parse_lines`` parses newline-delimited JSON (NDJSON), the usual shape of
the datasets the tutorial's inference tools consume.

The token parser (``_parse_reference``) defines the semantics and owns
every error.  ``parse`` first tries the standard library's C decoder
when the options cannot tell the two apart (``duplicate_keys="last"``
and no top-level restriction); a decoded value nested deeper than
``max_depth`` is parsed again, so the limit raises its positioned
error.  On the inputs the C decoder accepts it returns the same values
— ints stay ints, key order is kept, a repeated key keeps its first
position and its last value, lone surrogates are preserved — and
anything it rejects (``NaN``, a BOM, trailing data, a control
character, a too-long int, ...) is parsed again by the token parser,
which raises the positioned error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Literal, Optional

from repro.errors import JsonError
from repro.jsonvalue.lexer import Token, TokenType, _Scanner

DuplicatePolicy = Literal["last", "first", "error"]


class JsonParseError(JsonError):
    """Raised on structurally malformed JSON documents."""

    def __init__(self, message: str, token: Token) -> None:
        super().__init__(
            f"{message} at line {token.line}, column {token.column} "
            f"(offset {token.offset})"
        )
        self.raw_message = message
        self.token = token

    def __reduce__(self):
        # Default exception pickling replays __init__ with ``args`` (the
        # one formatted string), which does not match this signature —
        # rebuild from (raw message, token) so parse errors raised in
        # worker processes cross the pipe intact instead of killing the
        # pool's result handler.
        return (type(self), (self.raw_message, self.token))


@dataclass(frozen=True)
class ParseOptions:
    """Knobs for :func:`parse`. The defaults accept any RFC 8259 document."""

    max_depth: int = 512
    duplicate_keys: DuplicatePolicy = "last"
    require_top_level_container: bool = False


DEFAULT_OPTIONS = ParseOptions()

# Parser phases: about to read a value / an object key / the punctuation
# following a completed value.
_PHASE_VALUE = 0
_PHASE_KEY = 1
_PHASE_AFTER = 2

_SCALARS = frozenset(
    (
        TokenType.STRING,
        TokenType.NUMBER,
        TokenType.TRUE,
        TokenType.FALSE,
        TokenType.NULL,
    )
)

_MISSING = object()  # distinguishes "no result yet" from a parsed None


def _reject_constant(name: str) -> Any:
    raise ValueError(f"{name} is not JSON")


# The C decoder, made strict: NaN/Infinity/-Infinity raise instead of
# decoding (control characters in strings already raise, strict=True).
# ``c_scan_once(text, pos)`` decodes the one value starting exactly at
# ``pos`` and returns ``(value, end)``; it raises ``StopIteration`` when
# no value starts there.
_C_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_c_decode = _C_DECODER.decode
c_scan_once = _C_DECODER.scan_once


def nesting_exceeds(value: Any, max_depth: int) -> bool:
    """Whether ``value`` nests containers more than ``max_depth`` deep.

    Iterative, one level at a time, so any decoded value is measured
    without recursion; the walk stops at the first level past the limit.
    """
    level = [value] if value.__class__ in (dict, list) else []
    depth = 0
    while level:
        depth += 1
        if depth > max_depth:
            return True
        inner = []
        for container in level:
            items = container.values() if container.__class__ is dict else container
            inner += [v for v in items if v.__class__ in (dict, list)]
        level = inner
    return False


def parse(text: str, options: ParseOptions = DEFAULT_OPTIONS) -> Any:
    """Parse one JSON document from ``text`` and return its value.

    Raises :class:`JsonParseError` (or :class:`~repro.jsonvalue.lexer.JsonLexError`)
    on malformed input, including trailing garbage.
    """
    if options.duplicate_keys == "last" and not options.require_top_level_container:
        try:
            value = _c_decode(text)
        except (ValueError, RecursionError):
            pass  # the token parser decides, and raises the error
        else:
            # The bracket count bounds the depth, so only a document with
            # more brackets than the limit needs its depth measured.
            max_depth = options.max_depth
            if text.count("{") + text.count("[") <= max_depth or not nesting_exceeds(
                value, max_depth
            ):
                return value
    return _parse_reference(text, options)


def _parse_reference(text: str, options: ParseOptions = DEFAULT_OPTIONS) -> Any:
    """The token parser: the definition of ``parse``'s results and errors."""
    scanner = _Scanner(text)
    token = scanner.next_token()

    if options.require_top_level_container and token.type not in (
        TokenType.LBRACE,
        TokenType.LBRACKET,
    ):
        raise JsonParseError("top-level value must be an object or array", token)

    duplicate_policy = options.duplicate_keys
    max_depth = options.max_depth

    stack: list[Any] = []  # enclosing containers (dicts and lists)
    key_stack: list[Optional[str]] = []  # pending member name per object frame
    pending_key: Optional[str] = None
    pending_key_token: Optional[Token] = None
    result: Any = _MISSING
    phase = _PHASE_VALUE

    def attach(value: Any) -> None:
        """Store a completed value into the innermost container (or the result)."""
        nonlocal pending_key, result
        if not stack:
            result = value
            return
        container = stack[-1]
        if isinstance(container, dict):
            key = pending_key
            assert key is not None and pending_key_token is not None
            if key in container:
                if duplicate_policy == "error":
                    raise JsonParseError(f"duplicate object key {key!r}", pending_key_token)
                if duplicate_policy == "last":
                    container[key] = value
                # "first": keep the existing binding.
            else:
                container[key] = value
            pending_key = None
        else:
            container.append(value)

    while True:
        if phase == _PHASE_VALUE:
            ttype = token.type
            if ttype is TokenType.LBRACE:
                if len(stack) >= max_depth:
                    raise JsonParseError(
                        f"maximum nesting depth of {max_depth} exceeded", token
                    )
                stack.append({})
                key_stack.append(pending_key)
                pending_key = None
                token = scanner.next_token()
                if token.type is TokenType.RBRACE:
                    completed = stack.pop()
                    pending_key = key_stack.pop()
                    attach(completed)
                    token = scanner.next_token()
                    phase = _PHASE_AFTER
                else:
                    phase = _PHASE_KEY
            elif ttype is TokenType.LBRACKET:
                if len(stack) >= max_depth:
                    raise JsonParseError(
                        f"maximum nesting depth of {max_depth} exceeded", token
                    )
                stack.append([])
                key_stack.append(pending_key)
                pending_key = None
                token = scanner.next_token()
                if token.type is TokenType.RBRACKET:
                    completed = stack.pop()
                    pending_key = key_stack.pop()
                    attach(completed)
                    token = scanner.next_token()
                    phase = _PHASE_AFTER
                # else: stay in _PHASE_VALUE for the first element.
            elif ttype in _SCALARS:
                attach(token.value)
                token = scanner.next_token()
                phase = _PHASE_AFTER
            else:
                raise JsonParseError("expected a JSON value", token)
        elif phase == _PHASE_KEY:
            if token.type is not TokenType.STRING:
                raise JsonParseError("expected object key string", token)
            pending_key = token.value  # type: ignore[assignment]
            pending_key_token = token
            token = scanner.next_token()
            if token.type is not TokenType.COLON:
                raise JsonParseError("expected ':'", token)
            token = scanner.next_token()
            phase = _PHASE_VALUE
        else:  # _PHASE_AFTER: a value has just been completed.
            if not stack:
                if token.type is not TokenType.EOF:
                    raise JsonParseError("trailing data after JSON document", token)
                assert result is not _MISSING
                return result
            top = stack[-1]
            if token.type is TokenType.COMMA:
                token = scanner.next_token()
                phase = _PHASE_KEY if isinstance(top, dict) else _PHASE_VALUE
            elif isinstance(top, dict) and token.type is TokenType.RBRACE:
                completed = stack.pop()
                pending_key = key_stack.pop()
                attach(completed)
                token = scanner.next_token()
            elif isinstance(top, list) and token.type is TokenType.RBRACKET:
                completed = stack.pop()
                pending_key = key_stack.pop()
                attach(completed)
                token = scanner.next_token()
            else:
                raise JsonParseError("expected ',' or closing bracket", token)


def parse_lines(
    lines: Iterable[str], options: ParseOptions = DEFAULT_OPTIONS, *, skip_blank: bool = True
) -> Iterator[Any]:
    """Parse newline-delimited JSON: one document per input line.

    ``lines`` may be any iterable of strings (e.g. an open file).  Blank
    lines are skipped unless ``skip_blank`` is false, in which case they
    raise.
    """
    for line in lines:
        if skip_blank and not line.strip():
            continue
        yield parse(line, options)
