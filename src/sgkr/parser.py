"""Function-definition and call extraction over a restricted source grammar.

The grammar is line-oriented:

* a definition header is ``def name(p1, p2):`` at any indentation, with an
  optional trailing comment; parameters are plain identifiers,
* a body is every following line indented deeper than the header, up to
  the next code line at or left of the header's indentation; blank and
  comment-only lines never end a body, and a comment-only line joins only
  the bodies it is indented deeper than,
* ``#`` starts a comment running to the end of the line,
* string literals use single or double quotes and close on the same line,
* a call is an identifier immediately followed by ``(``, outside strings
  and comments. Dotted names (``obj.method(``) and keywords do not count.

Nested definitions are flattened: each one becomes its own FunctionDef,
and a call inside a nested body is attributed to the innermost enclosing
definition only. One pass over the lines keeps a stack of the open
definitions and reports the first error in source order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .corpus import CorpusEntry
from .errors import ParseError

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEF_RE = re.compile(r"def\b")
_HEADER_RE = re.compile(
    r"^[ \t]*def\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"\s*\((?P<params>[^()#]*)\)\s*:\s*(?:#.*)?$"
)
# One token of a body line. finditer tries the alternatives at each
# position in turn and skips a character none of them matches.
_TOKEN_RE = re.compile(r"""
    \#.*                                # a comment runs to the end of the line
  | "[^"]*" | '[^']*'                   # a closed string literal
  | (?P<open>["'])                      # a quote that never closes
  | (?P<skip>\.?(?:def\s+)*)            # an attribute, or a name right after `def`
    (?P<name>[A-Za-z_][A-Za-z0-9_]*)(?P<call>\()?
""", re.VERBOSE)

KEYWORDS = frozenset({
    "and", "as", "assert", "break", "class", "continue", "def", "del",
    "elif", "else", "except", "finally", "for", "from", "global", "if",
    "import", "in", "is", "lambda", "nonlocal", "not", "or", "pass",
    "raise", "return", "try", "while", "with", "yield",
})


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
    definition without a body, unterminated string).
    """
    definitions: list[_Definition] = []
    open_defs: list[_Definition] = []  # outermost first; indents strictly increase
    end = -1
    for line_no, line in enumerate(source_text.split("\n"), 1):
        start, end = end + 1, end + 1 + len(line)
        code = line.lstrip(" \t")
        if not code.strip():
            continue
        indent = len(line) - len(code)
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
        elif open_defs:
            for token in _TOKEN_RE.finditer(line):
                if token["open"]:
                    raise ParseError("unterminated string literal", line_no, token.start() + 1)
                if token["call"] and not token["skip"] and token["name"] not in KEYWORDS:
                    open_defs[-1].calls[token["name"]] = None
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
