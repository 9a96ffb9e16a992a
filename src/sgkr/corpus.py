"""Loading and validation of corpora of annotated example solutions.

A corpus is described by a JSON manifest listing entries; each entry points
at a source file, declares the semantic inputs/outputs of the solution
(with the function each one attaches to), and carries a per-function
knowledge annotation map.

Every input file the package reads goes through `read_text`, and every
JSON one but the graph document (which `graph.deserialize` parses from a
string) through `read_json`; `check` is the one field checker of all
their records.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Mapping, NamedTuple

from .errors import DuplicateEntryId, MalformedManifest, MissingFile, NotUtf8, SgkrError


def read_text(path: Path, what: str) -> str:
    """A file's text, decoded as UTF-8. A missing file raises MissingFile
    naming it as `what`; other bytes raise NotUtf8 naming the file."""
    if not path.is_file():
        raise MissingFile(f"{what} not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise NotUtf8(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc


def read_json(path: Path, error: type[SgkrError], what: str) -> object:
    """A JSON file's value. Any text `json.loads` refuses raises `error`:
    malformed JSON (`JSONDecodeError` is a `ValueError`), an integer past
    the interpreter's digit limit (`ValueError`) and nesting past the
    recursion limit (`RecursionError`)."""
    text = read_text(path, what)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{what} {path} is not valid JSON: {exc}") from exc


def check(record: object, fields: Mapping[str, type | tuple[type, ...]], where: str,
          error: type[SgkrError]) -> dict:
    """`record`, if it is an object with exactly `fields`, each value of
    its field's type (or of one of its types); `object` admits any value.
    The test is `type(value) is`, which is `isinstance` on what
    `json.loads` makes, except that `true` is no int. Otherwise `error`,
    with a message that starts with `where`, the record's field path."""
    if type(record) is not dict:
        raise error(f"{where}: expected an object")
    if record.keys() != fields.keys():
        raise error(f"{where}: fields {sorted(record)} != {sorted(fields)}")
    for name, kinds in fields.items():
        kinds = kinds if type(kinds) is tuple else (kinds,)
        if object not in kinds and type(record[name]) not in kinds:
            names = " or ".join(kind.__name__ for kind in kinds)
            raise error(f"{where}: {name!r} must be a {names}")
    return record


# Words of the source grammar that are never function names: the parser
# reads no call from them, and the lexical baseline drops them from code.
KEYWORDS = frozenset({
    "and", "as", "assert", "break", "class", "continue", "def", "del",
    "elif", "else", "except", "finally", "for", "from", "global", "if",
    "import", "in", "is", "lambda", "nonlocal", "not", "or", "pass",
    "raise", "return", "try", "while", "with", "yield",
})

_PUNCT_RE = re.compile(r"[^\w\s]")


def normalize_label(text: str) -> str:
    """Normalize a tag label or question: lowercase, punctuation stripped
    (underscores survive), whitespace collapsed; its tokens joined by
    single spaces."""
    return " ".join(label_tokens(text))


def label_tokens(text: str) -> tuple[str, ...]:
    """Token sequence of a label or question: lowercased, punctuation
    made a separator, split on runs of whitespace."""
    return tuple(_PUNCT_RE.sub(" ", text.lower()).split())


class IoDecl(NamedTuple):
    """One declared semantic input or output: a normalized label plus the
    name of the function it attaches to."""

    label: str
    anchor: str


class IoSpec(NamedTuple):
    inputs: tuple[IoDecl, ...]
    outputs: tuple[IoDecl, ...]


class CorpusEntry(NamedTuple):
    entry_id: str
    source_text: str
    io_spec: IoSpec
    knowledge_map: dict[str, str]


class Corpus(NamedTuple):
    """An ordered collection of entries. Entry order is significant: it
    decides which duplicate node survives merging downstream."""

    name: str
    version: str
    entries: tuple[CorpusEntry, ...]


_MANIFEST_FIELDS = {"corpus_name": str, "version": str, "entries": list}
_ENTRY_FIELDS = {"id": str, "source": str, "inputs": list, "outputs": list, "knowledge": dict}
_IO_FIELDS = {"label": str, "anchor": str}


def _io_decls(raw: dict, side: str, where: str) -> tuple[IoDecl, ...]:
    if not raw[side]:
        raise MalformedManifest(f"{where}: at least one {side[:-1]} label required")
    decls = []
    for i, item in enumerate(raw[side]):
        check(item, _IO_FIELDS, f"{where}[{i}]", MalformedManifest)
        decls.append(IoDecl(label=normalize_label(item["label"]), anchor=item["anchor"]))
    return tuple(decls)


def _parse_entry(raw: object, base_dir: Path, where: str) -> CorpusEntry:
    check(raw, _ENTRY_FIELDS, where, MalformedManifest)
    if not raw["id"]:
        raise MalformedManifest(f"{where}: 'id' must be a non-empty string")
    inputs = _io_decls(raw, "inputs", f"{where}.inputs")
    outputs = _io_decls(raw, "outputs", f"{where}.outputs")
    for fn_name, text in raw["knowledge"].items():
        if type(text) is not str:
            raise MalformedManifest(f"{where}.knowledge: {fn_name!r} must be a str")
    return CorpusEntry(
        entry_id=raw["id"],
        source_text=read_text(base_dir / raw["source"], "source file"),
        io_spec=IoSpec(inputs=inputs, outputs=outputs),
        knowledge_map=dict(raw["knowledge"]),
    )


def load_corpus(manifest_path: str | Path) -> Corpus:
    """Load a corpus from a JSON manifest.

    Referenced source files are resolved relative to the manifest's
    directory and read eagerly, so the returned Corpus is self-contained.
    """
    manifest_path = Path(manifest_path)
    raw = read_json(manifest_path, MalformedManifest, "manifest")
    check(raw, _MANIFEST_FIELDS, "manifest", MalformedManifest)

    entries = []
    seen_ids: set[str] = set()
    for i, raw_entry in enumerate(raw["entries"]):
        entry = _parse_entry(raw_entry, manifest_path.parent, f"entries[{i}]")
        if entry.entry_id in seen_ids:
            raise DuplicateEntryId(f"duplicate entry id: {entry.entry_id!r}")
        seen_ids.add(entry.entry_id)
        entries.append(entry)

    return Corpus(name=raw["corpus_name"], version=raw["version"], entries=tuple(entries))
