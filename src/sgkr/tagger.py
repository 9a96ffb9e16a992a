"""Semantic I/O tag extraction from natural-language questions.

The vocabulary comes from the graph's I/O node labels, optionally widened
by an alias file. A label matches a question when its token sequence (or
an alias's) occurs contiguously in the normalized question; longer labels
win contested token spans. Input and output labels are matched
independently, so one token span may serve both sides.

Making a `TagVocabulary` compiles each kind's labels and aliases once into
one table per pattern width, mapping a token tuple to its label (the
smallest label, where one tuple belongs to several). A question then costs
one table lookup per window per distinct width, longest width first, not
one pass per label: O(tokens x widths), whatever the vocabulary's size.
Within one width the hits are taken in (pattern, position) order and a
hit on a span an earlier one consumed is skipped, so the result is that
of trying every pattern longest first, ties lexically, left to right.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .corpus import check, label_tokens, normalize_label, parse_json, read_text
from .errors import AliasCollision, SchemaViolation
from .graph import INPUT, OUTPUT, DependencyGraph, _maps_to, _ReadOnly


# One kind's compiled matcher: (width, {token tuple: label}) pairs, the
# widest first.
_Tables = tuple[tuple[int, dict[tuple[str, ...], str]], ...]


class TagVocabulary(_ReadOnly):
    """Known labels by kind; each label maps to its (possibly empty)
    tuple of normalized aliases. Both maps are read-only views of private
    copies, and both kinds' matchers are compiled when the vocabulary is
    made."""

    __slots__ = ("inputs", "outputs", "_tables")

    def __init__(self, inputs: Mapping[str, tuple[str, ...]],
                 outputs: Mapping[str, tuple[str, ...]]):
        init = object.__setattr__
        init(self, "inputs", MappingProxyType(dict(inputs)))
        init(self, "outputs", MappingProxyType(dict(outputs)))
        init(self, "_tables", (_compile(self.inputs), _compile(self.outputs)))

    def freeze(self) -> tuple:
        return dict(self.inputs), dict(self.outputs), self._tables

    @classmethod
    def thaw(cls, payload: tuple) -> TagVocabulary:
        """The vocabulary `freeze` gave `payload`. A payload of another
        shape raises ValueError or TypeError."""
        inputs, outputs, tables = payload
        if not (_maps_to(inputs, tuple) and _maps_to(outputs, tuple) and type(tables) is tuple
                and len(tables) == 2 and all(map(_tables_hold, tables))):
            raise ValueError("vocabulary section of the wrong shape")
        vocab = cls.__new__(cls)
        init = object.__setattr__
        init(vocab, "inputs", MappingProxyType(inputs))
        init(vocab, "outputs", MappingProxyType(outputs))
        init(vocab, "_tables", tables)
        return vocab


def _tables_hold(tables: object) -> bool:
    """Whether `tables` are one kind's compiled tables: (width, table)
    pairs, the widest first, each table mapping tuples of `width` strings
    to a string."""
    if type(tables) is not tuple or not set(map(type, tables)) <= {tuple}:
        return False
    widths = [pair[0] if len(pair) == 2 else None for pair in tables]
    return (set(map(type, widths)) <= {int} and widths == sorted(set(widths), reverse=True)
            and min(widths, default=1) >= 1
            and all(type(table) is dict and set(map(type, table)) <= {tuple}
                    and set(map(len, table)) <= {width}
                    and set(map(type, chain.from_iterable(table))) <= {str}
                    and set(map(type, table.values())) <= {str}
                    for width, table in tables))


class TagSet(NamedTuple):
    inputs: frozenset[str]
    outputs: frozenset[str]
    fallback: bool


_ALIAS_FIELDS = {"label": str, "kind": str}


def load_aliases(path: str | Path) -> dict[str, dict[str, str]]:
    """Read an alias file: a JSON object mapping alias -> {label, kind}."""
    path = Path(path)
    return parse_aliases(read_text(path, "alias file"), path)


def parse_aliases(text: str, path: Path) -> dict[str, dict[str, str]]:
    """The aliases of `text`, the alias file at `path`."""
    raw = parse_json(text, path, SchemaViolation, "alias file")
    if type(raw) is not dict:
        raise SchemaViolation("alias file must be a JSON object")
    for alias, target in raw.items():
        check(target, _ALIAS_FIELDS, f"alias {alias!r}", SchemaViolation)
        if target["kind"] not in (INPUT, OUTPUT):
            raise SchemaViolation(f"alias {alias!r}: bad kind {target['kind']!r}")
    return raw


def build_vocabulary(
    graph: DependencyGraph,
    aliases: dict[str, dict[str, str]] | None = None,
) -> TagVocabulary:
    """Collect I/O labels from the graph and merge in aliases.

    An alias may not resolve to two different labels of the same kind,
    and may not shadow another label of its kind.
    """
    labels: dict[str, dict[str, list[str]]] = {INPUT: {}, OUTPUT: {}}
    for node in graph.io_nodes.values():
        labels[node.kind].setdefault(node.label, [])

    alias_owner: dict[tuple[str, str], str] = {}
    for alias, target in (aliases or {}).items():
        normalized = normalize_label(alias)
        label = normalize_label(target["label"])
        kind = target["kind"]
        if label not in labels[kind]:
            raise SchemaViolation(
                f"alias {alias!r} targets unknown {kind} label {label!r}"
            )
        claimed = alias_owner.get((normalized, kind))
        if claimed is not None and claimed != label:
            raise AliasCollision(
                f"alias {normalized!r} maps to both {claimed!r} and {label!r} ({kind})"
            )
        if normalized in labels[kind] and normalized != label:
            raise AliasCollision(
                f"alias {normalized!r} shadows the {kind} label of the same name"
            )
        alias_owner[(normalized, kind)] = label
        if normalized != label and normalized not in labels[kind][label]:
            labels[kind][label].append(normalized)

    return TagVocabulary(
        inputs={lbl: tuple(sorted(al)) for lbl, al in sorted(labels[INPUT].items())},
        outputs={lbl: tuple(sorted(al)) for lbl, al in sorted(labels[OUTPUT].items())},
    )


def _compile(side: Mapping[str, tuple[str, ...]]) -> _Tables:
    """One table per pattern width over a kind's labels and aliases."""
    tables: dict[int, dict[tuple[str, ...], str]] = {}
    for label, aliases in side.items():
        for text in (label, *aliases):
            pattern = label_tokens(text)
            if pattern:
                table = tables.setdefault(len(pattern), {})
                owner = table.get(pattern)
                if owner is None or label < owner:
                    table[pattern] = label
    return tuple(sorted(tables.items(), key=lambda item: -item[0]))


def _match(tokens: tuple[str, ...], tables: _Tables) -> frozenset[str]:
    """Greedy longest-first contiguous matching over one kind's tables: a
    matched span is consumed, so a later pattern cannot reuse it."""
    consumed = [False] * len(tokens)
    matched: set[str] = set()
    for width, table in tables:
        hits = sorted((window, i) for i in range(len(tokens) - width + 1)
                      if (window := tokens[i:i + width]) in table)
        for window, i in hits:
            if not any(consumed[i:i + width]):
                consumed[i:i + width] = [True] * width
                matched.add(table[window])
    return frozenset(matched)


def extract_tags(question: str, vocab: TagVocabulary) -> TagSet:
    """Match a question against the vocabulary and flag fallback when
    either side comes up empty."""
    tokens = label_tokens(question)
    inputs, outputs = (_match(tokens, tables) for tables in vocab._tables)
    return TagSet(inputs=inputs, outputs=outputs, fallback=not inputs or not outputs)
