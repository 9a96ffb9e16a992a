"""Function-definition and call extraction over a restricted source grammar.

The grammar is line-oriented:

* a definition header is ``def name(p1, p2):`` at any indentation, with an
  optional trailing comment; parameters are plain identifiers,
* a body is every following line indented deeper than the header, up to
  the next code line at or left of the header's indentation; blank and
  comment-only lines never end a body, and a comment-only line joins only
  the bodies it is indented deeper than,
* ``#`` starts a comment running to the end of the line,
* string literals use single or double quotes, and a backslash escapes
  the character after it; a string closes on its line, or on a later one
  when its line ends in an unescaped backslash, and a line that starts
  inside such a string is read only after the quote that closes it.
  Triple-quoted strings are not in the grammar,
* a line that starts inside an open bracket or string, or after a line
  ending in a backslash, continues the line before it: it never opens or
  closes a definition, and it belongs to every body the line before it
  belongs to,
* a call is an identifier immediately followed by ``(``, outside strings
  and comments. Dotted names (``obj.method(``) and keywords do not count.

Nested definitions are flattened: each one becomes its own FunctionDef,
and a call inside a nested body is attributed to the innermost enclosing
definition only. One pass over the lines keeps a stack of the open
definitions and one of the open brackets, and reports the first error in
source order; a bracket left open is known only at the end of the input,
so it is reported only when nothing else is wrong.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .corpus import KEYWORDS, CorpusEntry
from .errors import ParseError

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEF_RE = re.compile(r"def\b")
_HEADER_RE = re.compile(
    r"^[ \t]*def\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"\s*\((?P<params>[^()#]*)\)\s*:\s*(?:#.*)?$"
)
# The inside of a string quoted by each quote. An escape is a backslash
# and the character after it, so a string's last backslash is unescaped
# when the run of backslashes it ends is odd.
_STRING_BODIES = {q: rf"[^{q}\\]*(?:\\.[^{q}\\]*)*" for q in "\"'"}
# One token of a line; `lastgroup` names its kind (None for a comment or
# a closed string). finditer tries the alternatives at each position in
# turn and skips a character none of them matches. A call whose arguments
# hold no bracket, quote or comment is one token, closed on its line.
_TOKEN_RE = re.compile(r"""
    \#.*                                # a comment runs to the end of the line
  | "%s" | '%s'                         # a closed string literal
  | (?P<open>["'])                      # a quote that does not close on its line
  | (?P<skip>\.?(?:def\s+)*)            # an attribute, or a name right after `def`
    (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    (?:(?P<call>\()(?P<args>[^][(){}"'\#\\]*\))?)?  # arguments closed on this line
  | (?P<bracket>[][(){}])
  | (?P<backslash>\\$)                  # the line goes on on the next one
""" % (_STRING_BODIES['"'], _STRING_BODIES["'"]), re.VERBOSE)
# The rest of a string, from a point inside it: up to its closing quote,
# or to an unescaped backslash that ends the line, where it goes on.
_STRING_TAILS = {q: re.compile(rf"{body}(?:(?P<closed>{q})|\\$)")
                 for q, body in _STRING_BODIES.items()}
_CLOSERS = {"(": ")", "[": "]", "{": "}"}
_NOTHING_TO_CONTINUE = "backslash before a blank line or the end of the input"

@dataclass(frozen=True)
class FunctionDef:
    """One parsed definition: its header pieces, the verbatim body slice,
    and the callee names found in its own body lines (deduplicated,
    first-occurrence order, library calls included). `text` is the whole
    definition, header included."""

    name: str
    params: tuple[str, ...]
    body_text: str
    calls: tuple[str, ...]
    text: str


@dataclass(frozen=True)
class TraceFragment:
    """The parse result of one corpus entry: its functions plus the
    caller->callee edges between functions defined in the same entry."""

    entry_id: str
    functions: tuple[FunctionDef, ...]
    call_edges: tuple[tuple[str, str], ...]


@dataclass
class _Definition:
    """A definition while it is parsed: offsets into the source text and
    its calls so far (a dict keeps first-occurrence order)."""

    name: str
    params: tuple[str, ...]
    indent: int
    line_no: int
    start: int
    body_start: int | None = None
    body_end: int = 0
    calls: dict[str, None] = field(default_factory=dict)


def _parse_header(line: str, line_no: int, indent: int, start: int) -> _Definition:
    match = _HEADER_RE.match(line)
    if not match:
        raise ParseError("bad definition header", line_no, indent + 1)
    text = match["params"]
    params = []
    if text.strip():
        at = match.start("params")  # where the next piece starts
        for raw in text.split(","):
            piece = raw.strip()
            if not _IDENT_RE.fullmatch(piece):
                col = at + len(raw) - len(raw.lstrip()) + 1
                raise ParseError(f"bad parameter {piece!r}", line_no, col)
            params.append(piece)
            at += len(raw) + 1
    return _Definition(match["name"], tuple(params), indent, line_no, start)


def _close(definition: _Definition) -> None:
    if definition.body_start is None:
        raise ParseError(f"definition of {definition.name!r} has no body",
                         definition.line_no, definition.indent + 1)


def extract_functions(source_text: str) -> list[FunctionDef]:
    """Parse source text into its function definitions, in source order.

    Body slices are exact substrings of `source_text`. Raises ParseError
    on the first grammar violation in source order (bad header,
    definition without a body, unterminated string, unmatched or unclosed
    bracket, backslash with no line to continue).
    """
    definitions: list[_Definition] = []
    open_defs: list[_Definition] = []  # outermost first; indents strictly increase
    brackets: list[tuple[str, int, int]] = []  # open brackets: (bracket, line, column)
    backslash: tuple[int, int] | None = None  # where the line before ended in one
    string: tuple[str, int, int] | None = None  # the open string's quote, line and column
    end = -1
    for line_no, line in enumerate(source_text.split("\n"), 1):
        start, end = end + 1, end + 1 + len(line)
        code = line.lstrip(" \t")
        if not code.strip() and not string:
            if backslash:
                raise ParseError(_NOTHING_TO_CONTINUE, *backslash)
            continue
        indent = len(line) - len(code)
        pos = 0  # where the line's code starts
        if brackets or backslash or string:
            if not string and _DEF_RE.match(code):
                raise ParseError("definition inside a continued line", line_no, indent + 1)
            for definition in open_defs:
                definition.body_end = end
            backslash = None
            if string:
                tail = _STRING_TAILS[string[0]].match(line)
                if not tail:  # the string never closes
                    if open_defs:
                        raise ParseError("unterminated string literal", *string[1:])
                    string = None
                    continue
                if not tail["closed"]:  # it goes on on the next line
                    continue
                string, pos = None, tail.end()
        else:
            is_comment = code.startswith("#")
            while not is_comment and open_defs and indent <= open_defs[-1].indent:
                _close(open_defs.pop())
            for definition in open_defs:
                if definition.indent >= indent:
                    break
                if definition.body_start is None:
                    definition.body_start = start
                definition.body_end = end
            if is_comment:
                continue
            if _DEF_RE.match(code):
                open_defs.append(_parse_header(line, line_no, indent, start))
                definitions.append(open_defs[-1])
                continue
        # Outside every definition only brackets and backslashes count, up
        # to a quote that never closes.
        calls = open_defs[-1].calls if open_defs else None
        for token in _TOKEN_RE.finditer(line, pos):
            kind = token.lastgroup
            if kind == "call" or kind == "args":
                if calls is not None and not token["skip"] and token["name"] not in KEYWORDS:
                    calls[token["name"]] = None
                if kind == "call":
                    brackets.append(("(", line_no, token.end()))
            elif kind == "bracket":
                bracket = token["bracket"]
                if bracket in _CLOSERS:
                    brackets.append((bracket, line_no, token.end()))
                elif not brackets or _CLOSERS[brackets.pop()[0]] != bracket:
                    raise ParseError(f"unmatched {bracket!r}", line_no, token.end())
            elif kind == "open":
                if _STRING_TAILS[token["open"]].match(line, token.end()):
                    string = token["open"], line_no, token.start() + 1
                elif calls is not None:
                    raise ParseError("unterminated string literal", line_no, token.start() + 1)
                break
            elif kind == "backslash":
                backslash = line_no, token.end()
    if backslash:
        raise ParseError(_NOTHING_TO_CONTINUE, *backslash)
    if string and open_defs:
        raise ParseError("unterminated string literal", *string[1:])
    if brackets:
        bracket, line_no, col = brackets[0]
        raise ParseError(f"{bracket!r} was never closed", line_no, col)
    for definition in reversed(open_defs):
        _close(definition)
    return [
        FunctionDef(
            name=d.name,
            params=d.params,
            body_text=source_text[d.body_start:d.body_end],
            calls=tuple(d.calls),
            text=source_text[d.start:d.body_end],
        )
        for d in definitions
    ]


def build_trace_fragment(entry: CorpusEntry) -> TraceFragment:
    """Parse one corpus entry into functions plus intra-entry call edges.

    Only calls whose target is defined in the same entry become edges;
    everything else (library calls, references to other entries) is
    treated as external and dropped.
    """
    functions = extract_functions(entry.source_text)
    defined = {fn.name for fn in functions}
    # A dict keeps the first occurrence of each edge, in order.
    edges = dict.fromkeys(
        (fn.name, callee) for fn in functions for callee in fn.calls if callee in defined)
    return TraceFragment(
        entry_id=entry.entry_id,
        functions=tuple(functions),
        call_edges=tuple(edges),
    )
