"""Similarity-baseline retrievers and the retrieval evaluation harness.

Two baselines stand in for model-based retrieval: an Okapi-style lexical
ranker over each node's name, knowledge and code identifiers, and a
cosine ranker over externally supplied vectors. The lexical index is
inverted (term -> postings), built in one pass and memoized on the
graph, which is read-only; a question is scored over its own terms'
postings only. A vector store computes each vector's norm once, and the
vector ranker takes its name-sorted node list from a memo of its own.
The harness scores any retrieved name set against gold needed/unneeded
annotations.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .corpus import KEYWORDS, _WORDS, _WordTable, check, read_json, read_text
from .errors import (
    MissingResult,
    MissingVector,
    SchemaViolation,
    VectorDimensionMismatch,
)
from .graph import DependencyGraph, KnowledgeCodeNode, _ReadOnly

BM25_K1 = 1.2
BM25_B = 0.75


_WORD_PARTS = _WordTable(underscore=" ")


def text_tokens(text: str) -> list[str]:
    """Lowercased word tokens; snake_case splits into its parts."""
    return text.lower().translate(_WORD_PARTS).split()


def code_identifier_tokens(code: str) -> list[str]:
    """Identifier tokens of a code body, keywords and bare numbers
    dropped, snake_case split.

    Words are kept or dropped as written, lowercased, and only then split
    on `_`: lowercasing can make a non-word character (``'İ'.lower()``
    ends in U+0307), which stays in its token. Lowercasing the kept words
    joined by spaces is exact, since a space ends a final sigma's context."""
    kept = [word for word in code.translate(_WORDS).split()
            if word not in KEYWORDS and not word.isdigit()]
    return " ".join(kept).lower().replace("_", " ").split()


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
    node's document. Where several nodes share a name, each counts
    toward N and the document frequencies, and the name is listed once,
    scored by the document of the last of them.
    """

    def __init__(self, nodes: Sequence[KnowledgeCodeNode]):
        last = {node.function_name: i for i, node in enumerate(nodes)}
        self._names = sorted(last)
        # term -> (names, term frequencies), one posting per scored document
        self._postings: dict[str, tuple[list[str], list[int]]] = {}
        doc_lens: dict[str, int] = {}
        shadowed: Counter[str] = Counter()  # df of the documents a later node replaces
        for i, node in enumerate(nodes):
            tokens = node_document_tokens(node)
            counts = Counter(tokens)
            name = node.function_name
            if last[name] != i:
                shadowed.update(counts.keys())
                continue
            doc_lens[name] = len(tokens)
            for term, freq in counts.items():
                posting = self._postings.get(term)
                if posting is None:
                    self._postings[term] = ([name], [freq])
                else:
                    posting[0].append(name)
                    posting[1].append(freq)
        n_docs = len(nodes)
        avgdl = (sum(doc_lens.values()) / n_docs) if n_docs else 0.0
        # Only documents with a token have postings, and then avgdl > 0.
        self._norms = {name: BM25_K1 * (1.0 - BM25_B + BM25_B * doc_len / avgdl)
                       for name, doc_len in doc_lens.items() if doc_len}
        self._idf = {}
        for term, (names, _) in self._postings.items():
            df = len(names) + shadowed[term]
            self._idf[term] = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))

    def freeze(self) -> tuple:
        return self._names, self._postings, self._norms, self._idf

    @classmethod
    def thaw(cls, graph: DependencyGraph, state: tuple) -> LexicalRanker:
        names, postings, norms, idf = state
        if not (type(names) is list and type(postings) is dict and type(norms) is dict
                and type(idf) is dict and set(map(type, postings.values())) <= {tuple}):
            raise ValueError("lexical section of the wrong shape")
        ranker = cls.__new__(cls)
        ranker._names, ranker._postings, ranker._norms, ranker._idf = state
        return ranker

    def rank(self, question: str) -> list[tuple[str, float]]:
        """Every function name once, with its score, highest first, ties
        by name.

        Scores accumulate term by term over the question's postings;
        each document adds its terms in question order from 0.0, as a
        per-document sum would. A name with no posting scores 0.0."""
        scores: dict[str, float] = {}
        norms = self._norms
        for term in text_tokens(question):
            posting = self._postings.get(term)
            if posting is None:
                continue
            idf = self._idf[term]
            for name, freq in zip(*posting):
                scores[name] = (scores.get(name, 0.0)
                                + idf * freq * (BM25_K1 + 1.0) / (freq + norms[name]))
        ranked = [(name, scores[name]) for name in self._names if name in scores]
        ranked.sort(key=lambda item: -item[1])  # stable: equal scores stay in name order
        ranked += [(name, 0.0) for name in self._names if name not in scores]
        return ranked


def lexical_ranker(graph: DependencyGraph) -> LexicalRanker:
    """The graph's ranker over its nodes, built on first use."""
    return graph.derived("lexical", _build_ranker, LexicalRanker.freeze, LexicalRanker.thaw)


def _build_ranker(graph: DependencyGraph) -> LexicalRanker:
    return LexicalRanker(list(graph.kc_nodes.values()))


def sorted_names(graph: DependencyGraph) -> list[str]:
    """The graph's distinct function names in name order, built on first
    use."""
    return graph.derived("names", _sorted_names)


def _sorted_names(graph: DependencyGraph) -> list[str]:
    return sorted({node.function_name for node in graph.kc_nodes.values()})


class VectorStore(_ReadOnly):
    """Precomputed vectors keyed by name (function names for nodes, the
    literal question string for queries), with each vector's norm.
    Read-only once made."""

    __slots__ = ("dimension", "vectors", "_norms")

    def __init__(self, dimension: int, vectors: dict[str, tuple[float, ...]]):
        init = object.__setattr__
        init(self, "dimension", dimension)
        init(self, "vectors", vectors)
        init(self, "_norms", {name: _norm(vector) for name, vector in vectors.items()})

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
    lines = read_text(Path(path), "vector file").splitlines()
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
            values = tuple(map(float, payload.split()))
        except ValueError as exc:
            raise SchemaViolation(f"line {lineno}: bad float") from exc
        if not all(map(math.isfinite, values)):
            raise SchemaViolation(f"line {lineno}: {name!r} has a non-finite component")
        if len(values) != dimension:
            raise VectorDimensionMismatch(
                f"line {lineno}: {name!r} has {len(values)} components, expected {dimension}"
            )
        vectors[name] = values
    return VectorStore(dimension=dimension, vectors=vectors)


def _norm(vector: Sequence[float]) -> float:
    return math.sqrt(sum(map(operator.mul, vector, vector)))


def _cosine(a: Sequence[float], norm_a: float, b: Sequence[float], norm_b: float) -> float:
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return sum(map(operator.mul, a, b)) / (norm_a * norm_b)


def retrieve_topk(
    question: str,
    graph: DependencyGraph,
    k: int,
    scorer: str = "lexical",
    vectors: VectorStore | None = None,
) -> list[str]:
    """Top-k function names under the chosen scorer, highest score first,
    ties by name. Returns exactly min(k, distinct name count) names."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if scorer == "lexical":
        ranked = lexical_ranker(graph).rank(question)
    elif scorer == "vectors":
        if vectors is None:
            raise ValueError("scorer 'vectors' requires a VectorStore")
        ranked = vectors.rank(question, sorted_names(graph))
    else:
        raise ValueError(f"unknown scorer {scorer!r}")
    return [name for name, _ in ranked[:k]]


class GoldAnnotation(NamedTuple):
    question: str
    needed: frozenset[str]
    unneeded: frozenset[str]


_GOLD_FIELDS = {"question": str, "needed": list, "unneeded": list}


def load_gold(path: str | Path) -> list[GoldAnnotation]:
    """Read gold annotations: a JSON list of {question, needed, unneeded}."""
    raw = read_json(Path(path), SchemaViolation, "gold file")
    if type(raw) is not list:
        raise SchemaViolation("gold file must be a JSON list")
    gold = []
    for i, record in enumerate(raw):
        check(record, _GOLD_FIELDS, f"gold[{i}]", SchemaViolation)
        for key in ("needed", "unneeded"):
            if not all(type(name) is str for name in record[key]):
                raise SchemaViolation(f"gold[{i}]: {key!r} must hold strings")
        needed = frozenset(record["needed"])
        unneeded = frozenset(record["unneeded"])
        overlap = needed & unneeded
        if overlap:
            raise SchemaViolation(f"gold[{i}]: {sorted(overlap)} both needed and unneeded")
        gold.append(GoldAnnotation(question=record["question"], needed=needed, unneeded=unneeded))
    return gold


class RetrievalScore(NamedTuple):
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


class EvalReport(NamedTuple):
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
    n = len(per_question) or 1  # with no questions, every sum and mean is 0
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
    return {**report._asdict(),
            "per_question": [{"question": question, **score._asdict()}
                             for question, score in report.per_question]}
