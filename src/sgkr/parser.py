"""Function-definition and call extraction over a restricted source grammar.

The grammar is line-oriented:

* a definition header is ``def name(p1, p2):`` at any indentation, with an
  optional trailing comment; parameters are plain identifiers,
* a body is every following line indented deeper than the header (blank
  lines inside the body are allowed),
* ``#`` starts a comment running to the end of the line,
* string literals use single or double quotes and close on the same line,
* a call is an identifier immediately followed by ``(``, outside strings
  and comments. Dotted names (``obj.method(``) and keywords do not count.

Nested definitions are flattened: each one becomes its own FunctionDef,
and a call inside a nested body is attributed to the innermost enclosing
definition only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .corpus import CorpusEntry
from .errors import ParseError

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_HEADER_RE = re.compile(
    r"^(?P<indent>[ \t]*)def\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"\s*\((?P<params>[^()#]*)\)\s*:\s*(?:#.*)?$"
)

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
    line: int  # 1-based header line, for diagnostics


@dataclass(frozen=True)
class TraceFragment:
    """The parse result of one corpus entry: its functions plus the
    caller->callee edges between functions defined in the same entry."""

    entry_id: str
    functions: tuple[FunctionDef, ...]
    call_edges: tuple[tuple[str, str], ...]


def _line_starts(source_text: str) -> list[int]:
    starts = [0]
    for i, ch in enumerate(source_text):
        if ch == "\n":
            starts.append(i + 1)
    return starts


def _indent_width(line: str) -> int:
    return len(line) - len(line.lstrip(" \t"))


def _scan_calls(line: str, line_no: int) -> list[str]:
    """Callee names on one line, honoring strings and comments."""
    calls = []
    i = 0
    prev_token = ""
    while i < len(line):
        ch = line[i]
        if ch == "#":
            break
        if ch in "'\"":
            closing = line.find(ch, i + 1)
            if closing == -1:
                raise ParseError("unterminated string literal", line_no, i + 1)
            i = closing + 1
            prev_token = ""
            continue
        match = _IDENT_RE.match(line, i)
        if match:
            name = match.group()
            end = match.end()
            is_attribute = i > 0 and line[i - 1] == "."
            is_call = end < len(line) and line[end] == "("
            if is_call and not is_attribute and name not in KEYWORDS and prev_token != "def":
                calls.append(name)
            prev_token = name
            i = end
            continue
        if not ch.isspace():
            prev_token = ""
        i += 1
    return calls


def _parse_header(line: str, line_no: int) -> tuple[str, str, tuple[str, ...]]:
    match = _HEADER_RE.match(line)
    if not match:
        raise ParseError("bad definition header", line_no, _indent_width(line) + 1)
    params_text = match.group("params").strip()
    params = []
    if params_text:
        for piece in params_text.split(","):
            piece = piece.strip()
            if not _IDENT_RE.fullmatch(piece):
                col = line.index(match.group("params")) + 1
                raise ParseError(f"bad parameter {piece!r}", line_no, col)
            params.append(piece)
    return match.group("indent"), match.group("name"), tuple(params)


def extract_functions(source_text: str) -> list[FunctionDef]:
    """Parse source text into its function definitions, in source order.

    Body slices are exact substrings of `source_text`. Raises ParseError
    on grammar violations (bad header, definition without a body,
    unterminated string).
    """
    lines = source_text.split("\n")
    starts = _line_starts(source_text)

    # Pass 1: locate definitions and their body line ranges.
    headers = []  # (index, line_no, indent, name, params)
    for idx, line in enumerate(lines):
        if re.match(r"^[ \t]*def\b", line):
            indent, name, params = _parse_header(line, idx + 1)
            headers.append((idx, idx + 1, len(indent), name, params))

    defs: list[dict] = []
    for idx, line_no, indent, name, params in headers:
        first_body = None
        last_body = None
        scan = idx + 1
        while scan < len(lines):
            line = lines[scan]
            if not line.strip():
                scan += 1
                continue
            if _indent_width(line) <= indent:
                break
            if first_body is None:
                first_body = scan
            last_body = scan
            scan += 1
        if first_body is None:
            raise ParseError(f"definition of {name!r} has no body", line_no, indent + 1)
        defs.append({
            "name": name, "params": params, "line": line_no,
            "header_idx": idx, "first": first_body, "last": last_body,
        })

    # Pass 2: attribute each line to its innermost definition. Definitions
    # appear in header order, so a nested def always comes after its
    # encloser and simply overwrites the ownership of its own range.
    owner = [-1] * len(lines)
    for d_index, d in enumerate(defs):
        for line_idx in range(d["first"], d["last"] + 1):
            owner[line_idx] = d_index

    header_lines = {d["header_idx"] for d in defs}
    for d_index, d in enumerate(defs):
        calls: list[str] = []
        seen: set[str] = set()
        for line_idx in range(d["first"], d["last"] + 1):
            if owner[line_idx] != d_index or line_idx in header_lines:
                continue
            for name in _scan_calls(lines[line_idx], line_idx + 1):
                if name not in seen:
                    seen.add(name)
                    calls.append(name)
        d["calls"] = tuple(calls)

    result = []
    for d in defs:
        body_start = starts[d["first"]]
        body_end = starts[d["last"]] + len(lines[d["last"]])
        result.append(FunctionDef(
            name=d["name"],
            params=d["params"],
            body_text=source_text[body_start:body_end],
            calls=d["calls"],
            text=source_text[starts[d["header_idx"]]:body_end],
            line=d["line"],
        ))
    return result


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
