"""Semantic I/O tag extraction from natural-language questions.

The vocabulary comes from the graph's I/O node labels, optionally widened
by an alias file. A label matches a question when its token sequence (or
an alias's) occurs contiguously in the normalized question; longer labels
win contested token spans. Input and output labels are matched
independently, so one token span may serve both sides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .corpus import label_tokens, normalize_label, read_text
from .errors import AliasCollision, MissingFile, SchemaViolation
from .graph import INPUT, OUTPUT, DependencyGraph


@dataclass(frozen=True)
class TagVocabulary:
    """Known labels by kind; each label maps to its (possibly empty)
    tuple of normalized aliases."""

    inputs: dict[str, tuple[str, ...]]
    outputs: dict[str, tuple[str, ...]]


@dataclass(frozen=True)
class TagSet:
    inputs: frozenset[str]
    outputs: frozenset[str]
    fallback: bool


def load_aliases(path: str | Path) -> dict[str, dict[str, str]]:
    """Read an alias file: a JSON object mapping alias -> {label, kind}."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"alias file not found: {path}")
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"alias file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaViolation("alias file must be a JSON object")
    for alias, target in raw.items():
        if not isinstance(target, dict) or set(target) != {"label", "kind"}:
            raise SchemaViolation(f"alias {alias!r}: expected {{label, kind}}")
        if not isinstance(target["label"], str):
            raise SchemaViolation(f"alias {alias!r}: label must be a string")
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


def _match_side(tokens: tuple[str, ...], side: dict[str, tuple[str, ...]]) -> frozenset[str]:
    """Greedy longest-first contiguous matching over one kind's labels.

    Every label and alias is a token pattern; patterns are tried longest
    first (ties broken lexically) and a matched span is consumed, so a
    shorter pattern cannot reuse it.
    """
    patterns: list[tuple[tuple[str, ...], str]] = []
    for label, aliases in side.items():
        patterns.append((label_tokens(label), label))
        for alias in aliases:
            patterns.append((label_tokens(alias), label))
    patterns.sort(key=lambda item: (-len(item[0]), item[0], item[1]))

    consumed = [False] * len(tokens)
    matched: set[str] = set()
    for pattern, label in patterns:
        width = len(pattern)
        if width == 0:
            continue
        i = 0
        while i + width <= len(tokens):
            window = tokens[i:i + width]
            if window == pattern and not any(consumed[i:i + width]):
                consumed[i:i + width] = [True] * width
                matched.add(label)
                i += width
            else:
                i += 1
    return frozenset(matched)


def extract_tags(question: str, vocab: TagVocabulary) -> TagSet:
    """Match a question against the vocabulary and flag fallback when
    either side comes up empty."""
    tokens = label_tokens(question)
    inputs = _match_side(tokens, vocab.inputs)
    outputs = _match_side(tokens, vocab.outputs)
    return TagSet(inputs=inputs, outputs=outputs, fallback=not inputs or not outputs)
