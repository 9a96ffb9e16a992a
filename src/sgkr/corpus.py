"""Loading and validation of corpora of annotated example solutions.

A corpus is described by a JSON manifest listing entries; each entry points
at a source file, declares the semantic inputs/outputs of the solution
(with the function each one attaches to), and carries a per-function
knowledge annotation map.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DuplicateEntryId, MalformedManifest, MissingFile, NotUtf8


def read_text(path: Path) -> str:
    """A file's text, decoded as UTF-8; other bytes raise NotUtf8 naming
    the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise NotUtf8(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc


_PUNCT_RE = re.compile(r"[^\w\s]")
_WS_RE = re.compile(r"\s+")


def normalize_label(text: str) -> str:
    """Normalize a tag label or question: lowercase, punctuation stripped
    (underscores survive), whitespace collapsed."""
    cleaned = _PUNCT_RE.sub(" ", text.lower())
    return _WS_RE.sub(" ", cleaned).strip()


def label_tokens(text: str) -> tuple[str, ...]:
    """Token sequence of a normalized label or question. `str.split`
    splits on the whitespace `_WS_RE` collapses, so only the punctuation
    pass of `normalize_label` is needed."""
    return tuple(_PUNCT_RE.sub(" ", text.lower()).split())


@dataclass(frozen=True)
class IoDecl:
    """One declared semantic input or output: a normalized label plus the
    name of the function it attaches to."""

    label: str
    anchor: str


@dataclass(frozen=True)
class IoSpec:
    inputs: tuple[IoDecl, ...]
    outputs: tuple[IoDecl, ...]


@dataclass(frozen=True)
class CorpusEntry:
    entry_id: str
    source_text: str
    io_spec: IoSpec
    knowledge_map: dict[str, str] = field(hash=False)


@dataclass(frozen=True)
class Corpus:
    """An ordered collection of entries. Entry order is significant: it
    decides which duplicate node survives merging downstream."""

    name: str
    version: str
    entries: tuple[CorpusEntry, ...]


_ENTRY_FIELDS = {"id", "source", "inputs", "outputs", "knowledge"}
_MANIFEST_FIELDS = {"corpus_name", "version", "entries"}
_IO_FIELDS = {"label", "anchor"}


def _require(condition: bool, message: str, path: str) -> None:
    if not condition:
        raise MalformedManifest(message, path)


def _parse_io_list(raw: object, path: str) -> tuple[IoDecl, ...]:
    _require(isinstance(raw, list), "expected a list", path)
    decls = []
    for i, item in enumerate(raw):
        item_path = f"{path}[{i}]"
        _require(isinstance(item, dict), "expected an object", item_path)
        unknown = set(item) - _IO_FIELDS
        _require(not unknown, f"unknown fields {sorted(unknown)}", item_path)
        _require("label" in item, "missing field 'label'", item_path)
        _require("anchor" in item, "missing field 'anchor'", item_path)
        _require(isinstance(item["label"], str), "'label' must be a string", item_path)
        _require(isinstance(item["anchor"], str), "'anchor' must be a string", item_path)
        decls.append(IoDecl(label=normalize_label(item["label"]), anchor=item["anchor"]))
    return tuple(decls)


def _parse_entry(raw: object, base_dir: Path, path: str) -> CorpusEntry:
    _require(isinstance(raw, dict), "expected an object", path)
    unknown = set(raw) - _ENTRY_FIELDS
    _require(not unknown, f"unknown fields {sorted(unknown)}", path)
    for required in sorted(_ENTRY_FIELDS):
        _require(required in raw, f"missing field '{required}'", path)
    _require(isinstance(raw["id"], str) and raw["id"], "'id' must be a non-empty string", path)
    _require(isinstance(raw["source"], str), "'source' must be a string", path)

    inputs = _parse_io_list(raw["inputs"], f"{path}.inputs")
    outputs = _parse_io_list(raw["outputs"], f"{path}.outputs")
    _require(len(inputs) >= 1, "at least one input label required", f"{path}.inputs")
    _require(len(outputs) >= 1, "at least one output label required", f"{path}.outputs")

    knowledge = raw["knowledge"]
    _require(isinstance(knowledge, dict), "'knowledge' must be an object", f"{path}.knowledge")
    for fn_name, text in knowledge.items():
        _require(isinstance(text, str), f"knowledge for '{fn_name}' must be a string",
                 f"{path}.knowledge")

    source_path = base_dir / raw["source"]
    if not source_path.is_file():
        raise MissingFile(f"source file not found: {source_path}")
    source_text = read_text(source_path)

    return CorpusEntry(
        entry_id=raw["id"],
        source_text=source_text,
        io_spec=IoSpec(inputs=inputs, outputs=outputs),
        knowledge_map=dict(knowledge),
    )


def load_corpus(manifest_path: str | Path) -> Corpus:
    """Load a corpus from a JSON manifest.

    Referenced source files are resolved relative to the manifest's
    directory and read eagerly, so the returned Corpus is self-contained.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.is_file():
        raise MissingFile(f"manifest not found: {manifest_path}")
    try:
        raw = json.loads(read_text(manifest_path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise MalformedManifest(f"not valid JSON: {exc}") from exc

    _require(isinstance(raw, dict), "manifest must be an object", "")
    unknown = set(raw) - _MANIFEST_FIELDS
    _require(not unknown, f"unknown fields {sorted(unknown)}", "")
    for required in sorted(_MANIFEST_FIELDS):
        _require(required in raw, f"missing field '{required}'", "")
    _require(isinstance(raw["corpus_name"], str), "'corpus_name' must be a string", "corpus_name")
    _require(isinstance(raw["version"], str), "'version' must be a string", "version")
    _require(isinstance(raw["entries"], list), "'entries' must be a list", "entries")

    entries = []
    seen_ids: set[str] = set()
    for i, raw_entry in enumerate(raw["entries"]):
        entry = _parse_entry(raw_entry, manifest_path.parent, f"entries[{i}]")
        if entry.entry_id in seen_ids:
            raise DuplicateEntryId(f"duplicate entry id: {entry.entry_id!r}")
        seen_ids.add(entry.entry_id)
        entries.append(entry)

    return Corpus(name=raw["corpus_name"], version=raw["version"], entries=tuple(entries))


def save_corpus(corpus: Corpus, directory: str | Path, manifest_name: str = "manifest.json") -> Path:
    """Write a corpus back to disk as a manifest plus one source file per
    entry. Loading the written manifest yields an equal Corpus."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for entry in corpus.entries:
        source_name = f"{entry.entry_id}.py"
        (directory / source_name).write_text(entry.source_text, encoding="utf-8")
        entries.append({
            "id": entry.entry_id,
            "source": source_name,
            "inputs": [{"label": d.label, "anchor": d.anchor} for d in entry.io_spec.inputs],
            "outputs": [{"label": d.label, "anchor": d.anchor} for d in entry.io_spec.outputs],
            "knowledge": entry.knowledge_map,
        })
    document = {"corpus_name": corpus.name, "version": corpus.version, "entries": entries}
    manifest_path = directory / manifest_name
    manifest_path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return manifest_path
