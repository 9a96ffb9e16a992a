"""Similarity-baseline retrievers and the retrieval evaluation harness.

Two baselines stand in for model-based retrieval: an Okapi-style lexical
ranker over each node's name, knowledge and code identifiers, and a
cosine ranker over externally supplied vectors. The lexical index (node
documents tokenized, term counts, idf) is built once per graph, which is
read-only, and memoized on it, so an evaluation tokenizes the corpus
once, not once per question; both rankers take their name-sorted node
list from it. A vector store computes each vector's norm once, when it
is made. The harness scores any retrieved name set against gold
needed/unneeded annotations.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import read_text
from .errors import (
    MissingFile,
    MissingResult,
    MissingVector,
    SchemaViolation,
    VectorDimensionMismatch,
)
from .graph import DependencyGraph, KnowledgeCodeNode
from .parser import KEYWORDS

_WORD_RE = re.compile(r"\w+")

BM25_K1 = 1.2
BM25_B = 0.75


def text_tokens(text: str) -> list[str]:
    """Lowercased word tokens; snake_case splits into its parts."""
    tokens = []
    for word in _WORD_RE.findall(text.lower()):
        tokens.extend(part for part in word.split("_") if part)
    return tokens


def code_identifier_tokens(code: str) -> list[str]:
    """Identifier tokens of a code body, keywords and bare numbers
    dropped, snake_case split."""
    return [part for word in _WORD_RE.findall(code) if word not in KEYWORDS and not word.isdigit()
            for part in word.lower().split("_") if part]


def node_document_tokens(node: KnowledgeCodeNode) -> list[str]:
    return (
        text_tokens(node.function_name)
        + text_tokens(node.knowledge)
        + code_identifier_tokens(node.code)
    )


class LexicalRanker:
    """Okapi ranking over knowledge-code nodes (k1=1.2, b=0.75).

    The idf uses the ln(1 + (N - n + 0.5) / (n + 0.5)) form, so scores
    are non-negative and zero exactly when no query token occurs in the
    node's document.
    """

    def __init__(self, nodes: Sequence[KnowledgeCodeNode]):
        self.names = [node.function_name for node in nodes]
        docs = [node_document_tokens(node) for node in nodes]
        self._term_freqs = {name: Counter(doc) for name, doc in zip(self.names, docs)}
        self._doc_lens = {name: len(doc) for name, doc in zip(self.names, docs)}
        n_docs = len(docs)
        self._avgdl = (sum(self._doc_lens.values()) / n_docs) if n_docs else 0.0
        doc_freq = Counter()
        for doc in docs:
            doc_freq.update(set(doc))
        self._idf = {
            term: math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
            for term, df in doc_freq.items()
        }

    def score(self, question: str, function_name: str) -> float:
        return self._score(text_tokens(question), function_name)

    def _score(self, terms: list[str], function_name: str) -> float:
        term_freq = self._term_freqs[function_name]
        doc_len = self._doc_lens[function_name]
        if not doc_len or not self._avgdl:
            return 0.0
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * doc_len / self._avgdl)
        total = 0.0
        for term in terms:
            freq = term_freq.get(term)
            if not freq:
                continue
            total += self._idf[term] * freq * (BM25_K1 + 1.0) / (freq + norm)
        return total

    def rank(self, question: str) -> list[tuple[str, float]]:
        terms = text_tokens(question)
        scored = [(name, self._score(terms, name)) for name in self.names]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored


def lexical_ranker(graph: DependencyGraph) -> LexicalRanker:
    """The graph's ranker over its nodes sorted by name, built on first use."""
    ranker = graph.cache.get("lexical")
    if ranker is None:
        ranker = graph.cache["lexical"] = LexicalRanker(
            sorted(graph.kc_nodes.values(), key=lambda node: node.function_name))
    return ranker


@dataclass(frozen=True)
class VectorStore:
    """Precomputed vectors keyed by name (function names for nodes, the
    literal question string for queries), with each vector's norm."""

    dimension: int
    vectors: dict[str, tuple[float, ...]]
    _norms: dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_norms", {name: _norm(vector)
                                            for name, vector in self.vectors.items()})

    def get(self, name: str) -> tuple[float, ...]:
        try:
            return self.vectors[name]
        except KeyError:
            raise MissingVector(f"no vector for {name!r}") from None

    def rank(self, question: str, names: Sequence[str]) -> list[tuple[str, float]]:
        """`names` with their cosine to the question's vector, highest
        first, ties by name."""
        query, query_norm = self.get(question), self._norms[question]
        scored = [(name, _cosine(query, query_norm, self.get(name), self._norms[name]))
                  for name in names]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored


def load_vectors(path: str | Path) -> VectorStore:
    """Read a vector file: first line the dimension, then one
    ``name<TAB>floats`` record per line."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"vector file not found: {path}")
    lines = read_text(path).splitlines()
    if not lines:
        raise SchemaViolation("vector file is empty")
    try:
        dimension = int(lines[0].strip())
    except ValueError as exc:
        raise SchemaViolation(f"bad dimension header: {lines[0]!r}") from exc
    vectors: dict[str, tuple[float, ...]] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        if "\t" not in line:
            raise SchemaViolation(f"line {lineno}: expected name<TAB>floats")
        name, _, payload = line.partition("\t")
        if name in first_line:
            raise SchemaViolation(f"line {lineno}: {name!r} already has a vector on line "
                                  f"{first_line[name]}")
        first_line[name] = lineno
        try:
            values = tuple(float(piece) for piece in payload.split())
        except ValueError as exc:
            raise SchemaViolation(f"line {lineno}: bad float") from exc
        if len(values) != dimension:
            raise VectorDimensionMismatch(
                f"line {lineno}: {name!r} has {len(values)} components, expected {dimension}"
            )
        vectors[name] = values
    return VectorStore(dimension=dimension, vectors=vectors)


def _norm(vector: Sequence[float]) -> float:
    return math.sqrt(sum(x * x for x in vector))


def _cosine(a: Sequence[float], norm_a: float, b: Sequence[float], norm_b: float) -> float:
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return sum(x * y for x, y in zip(a, b)) / (norm_a * norm_b)


def cosine(a: Sequence[float], b: Sequence[float]) -> float:
    return _cosine(a, _norm(a), b, _norm(b))


def retrieve_topk(
    question: str,
    graph: DependencyGraph,
    k: int,
    scorer: str = "lexical",
    vectors: VectorStore | None = None,
) -> list[str]:
    """Top-k function names under the chosen scorer, highest score first,
    ties by name. Returns exactly min(k, node count) names."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if scorer == "lexical":
        ranked = lexical_ranker(graph).rank(question)
    elif scorer == "vectors":
        if vectors is None:
            raise ValueError("scorer 'vectors' requires a VectorStore")
        ranked = vectors.rank(question, lexical_ranker(graph).names)
    else:
        raise ValueError(f"unknown scorer {scorer!r}")
    return [name for name, _ in ranked[:k]]


@dataclass(frozen=True)
class GoldAnnotation:
    question: str
    needed: frozenset[str]
    unneeded: frozenset[str]


def load_gold(path: str | Path) -> list[GoldAnnotation]:
    """Read gold annotations: a JSON list of {question, needed, unneeded}."""
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"gold file not found: {path}")
    try:
        raw = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"gold file is not valid JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise SchemaViolation("gold file must be a JSON list")
    gold = []
    for i, record in enumerate(raw):
        if not isinstance(record, dict) or set(record) != {"question", "needed", "unneeded"}:
            raise SchemaViolation(f"gold[{i}]: expected {{question, needed, unneeded}}")
        if not isinstance(record["question"], str):
            raise SchemaViolation(f"gold[{i}]: question must be a string")
        for key in ("needed", "unneeded"):
            names = record[key]
            if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
                raise SchemaViolation(f"gold[{i}]: {key} must be a list of strings")
        needed = frozenset(record["needed"])
        unneeded = frozenset(record["unneeded"])
        overlap = needed & unneeded
        if overlap:
            raise SchemaViolation(f"gold[{i}]: {sorted(overlap)} both needed and unneeded")
        gold.append(GoldAnnotation(question=record["question"], needed=needed, unneeded=unneeded))
    return gold


@dataclass(frozen=True)
class RetrievalScore:
    precision: float
    recall: float
    f1: float
    retrieved_kc_count: int


def score_retrieval(retrieved: frozenset[str] | set[str], needed: frozenset[str]) -> RetrievalScore:
    """Precision/recall over function-name sets.

    Empty retrieval scores precision 1 only when nothing was needed;
    empty needed scores recall 1 (nothing was missed).
    """
    retrieved = frozenset(retrieved)
    hits = len(retrieved & needed)
    if retrieved:
        precision = hits / len(retrieved)
    else:
        precision = 1.0 if not needed else 0.0
    recall = hits / len(needed) if needed else 1.0
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    return RetrievalScore(
        precision=precision, recall=recall, f1=f1, retrieved_kc_count=len(retrieved)
    )


@dataclass(frozen=True)
class EvalReport:
    per_question: tuple[tuple[str, RetrievalScore], ...]
    mean_precision: float
    mean_recall: float
    mean_f1: float
    mean_retrieved: float


def evaluate(
    results: Mapping[str, frozenset[str] | set[str]],
    gold: Sequence[GoldAnnotation],
) -> EvalReport:
    """Score one method's per-question retrieved sets against the gold
    annotations. Every gold question must have a result."""
    per_question = []
    for annotation in gold:
        if annotation.question not in results:
            raise MissingResult(f"no result for question {annotation.question!r}")
        score = score_retrieval(frozenset(results[annotation.question]), annotation.needed)
        per_question.append((annotation.question, score))
    n = len(per_question)
    if n == 0:
        return EvalReport(per_question=(), mean_precision=0.0, mean_recall=0.0,
                          mean_f1=0.0, mean_retrieved=0.0)
    return EvalReport(
        per_question=tuple(per_question),
        mean_precision=sum(s.precision for _, s in per_question) / n,
        mean_recall=sum(s.recall for _, s in per_question) / n,
        mean_f1=sum(s.f1 for _, s in per_question) / n,
        mean_retrieved=sum(s.retrieved_kc_count for _, s in per_question) / n,
    )


def format_eval_table(reports: Mapping[str, EvalReport]) -> str:
    """Aligned plain-text table of per-method aggregate means."""
    headers = ("method", "precision", "recall", "f1", "avg kc nodes")
    rows = [headers]
    for method, report in reports.items():
        rows.append((
            method,
            f"{report.mean_precision:.3f}",
            f"{report.mean_recall:.3f}",
            f"{report.mean_f1:.3f}",
            f"{report.mean_retrieved:.2f}",
        ))
    widths = [max(len(row[col]) for row in rows) for col in range(len(headers))]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(widths[col]) for col, cell in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * widths[col] for col in range(len(headers))))
    return "\n".join(lines) + "\n"


def eval_report_to_dict(report: EvalReport) -> dict:
    return {
        "per_question": [
            {
                "question": question,
                "precision": score.precision,
                "recall": score.recall,
                "f1": score.f1,
                "retrieved_kc_count": score.retrieved_kc_count,
            }
            for question, score in report.per_question
        ],
        "mean_precision": report.mean_precision,
        "mean_recall": report.mean_recall,
        "mean_f1": report.mean_f1,
        "mean_retrieved": report.mean_retrieved,
    }
