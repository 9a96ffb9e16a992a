from __future__ import annotations

import math
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FEE_QUESTION
from oracles import (
    oracle_bm25_rank,
    oracle_code_identifier_tokens,
    oracle_node_document_tokens,
    oracle_text_tokens,
)
from sgkr import baselines, build_graph, load_corpus
from sgkr.baselines import (
    BM25_B,
    BM25_K1,
    EvalReport,
    GoldAnnotation,
    LexicalRanker,
    code_identifier_tokens,
    eval_report_to_dict,
    evaluate,
    format_eval_table,
    lexical_ranker,
    load_gold,
    load_vectors,
    node_document_tokens,
    retrieve_topk,
    score_retrieval,
    sorted_names,
    text_tokens,
)
from sgkr.corpus import KEYWORDS
from sgkr.errors import (
    MissingResult,
    MissingVector,
    SchemaViolation,
    VectorDimensionMismatch,
)
from sgkr.graph import DependencyGraph, KnowledgeCodeNode


def make_node(name, knowledge="", code=None):
    return KnowledgeCodeNode(
        node_id=f"kc:e:{name}", function_name=name,
        code=code or f"def {name}():\n    pass",
        knowledge=knowledge or f"about {name}",
        origin_entries=("e",),
    )


def retired_cosine(a, b):
    """The cosine as computed once per node pair, norms included (the
    same floats as the library's former public `cosine(a, b)`)."""
    dot = sum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(y * y for y in b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


# Text that stresses the tokenizers: case and length changing lowercase
# ('İ', 'ß', 'Σ'), non-decimal digits ('²', Arabic-Indic), a ligature,
# combining marks, runs of '_', and keywords in mixed case.
SPECIAL = ["İ", "ß", "ẞ", "Σ", "ς", "²", "٣", "٤٥", "ﬁ", "e\u0301", "\u0307", "\u0300",
           "_", "__", "___", "def", "DEF", "Return", "pass", "None", "10000", "x2", "Ǆ"]
WORDISH = st.lists(st.one_of(st.sampled_from(SPECIAL), st.text(max_size=3),
                             st.sampled_from(sorted(KEYWORDS))), max_size=6).map("".join)


def small_graph(*nodes):
    return DependencyGraph(kc_nodes={node.node_id: node for node in nodes})


def distinct(ranked):
    """`ranked` with each name kept at its first place only: the retired
    ranker lists a name once per node that has it, each time with the
    same score."""
    first: dict[str, float] = {}
    for name, score in ranked:
        first.setdefault(name, score)
    return list(first.items())


class TestTokenization:
    def test_snake_case_splits(self):
        assert text_tokens("compute_fee") == ["compute", "fee"]

    def test_lowercases(self):
        assert text_tokens("Most Expensive MCC") == ["most", "expensive", "mcc"]

    def test_code_tokens_drop_keywords_and_numbers(self):
        tokens = node_document_tokens(make_node("f", code="def f():\n    return 10000\n"))
        assert "return" not in tokens
        assert "10000" not in tokens
        assert "def" not in tokens

    def test_lowercasing_is_not_retokenized(self):
        # 'İ'.lower() is 'i' + U+0307, a non-word character: prose is
        # lowercased before it is split, a code word after.
        assert text_tokens("İstanbul") == ["i", "stanbul"]
        assert code_identifier_tokens("İ_a") == ["i\u0307", "a"]

    def test_word_characters_are_alphanumerics_and_underscore(self):
        """The premises of the `str.translate` tokenizers, over every code
        point: `\\w` matches exactly `str.isalnum()` and `_`, and
        lowercasing never makes whitespace or `_`."""
        everything = "".join(map(chr, range(sys.maxunicode + 1)))
        assert [match.start() for match in re.finditer(r"\w", everything)] == \
            [i for i, char in enumerate(everything) if char.isalnum() or char == "_"]
        lowered = everything.lower()
        assert sum(map(str.isspace, lowered)) == sum(map(str.isspace, everything))
        assert lowered.count("_") == 1

    def test_tables_remember_only_the_basic_multilingual_plane(self):
        astral = " ".join(map(chr, range(0x1D400, 0x1D800)))  # mathematical letters and digits
        assert text_tokens(astral) == oracle_text_tokens(astral)
        assert code_identifier_tokens(astral) == oracle_code_identifier_tokens(astral)
        assert max(baselines._WORD_PARTS) <= 0xFFFF
        assert max(baselines._WORDS) <= 0xFFFF

    @settings(max_examples=300, deadline=None)
    @given(st.lists(WORDISH, max_size=12).map(" ".join))
    def test_text_tokens_match_oracle(self, text):
        assert text_tokens(text) == oracle_text_tokens(text)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(WORDISH, max_size=12).map(" ".join))
    def test_code_tokens_match_oracle(self, code):
        assert code_identifier_tokens(code) == oracle_code_identifier_tokens(code)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40), st.text(max_size=40), st.text(max_size=40))
    def test_document_tokens_match_oracle_on_any_text(self, name, knowledge, code):
        node = make_node(name or "f", knowledge=knowledge, code=code)
        assert node_document_tokens(node) == oracle_node_document_tokens(node)


class TestLexicalRanker:
    def test_zero_when_no_shared_token(self):
        ranker = LexicalRanker([make_node("alpha"), make_node("beta")])
        assert dict(ranker.rank("zebra crossing"))["alpha"] == 0.0

    def test_positive_on_name_match(self):
        ranker = LexicalRanker([make_node("alpha")])
        assert dict(ranker.rank("alpha"))["alpha"] > 0.0

    def test_scores_are_never_negative(self, fee_graph):
        nodes = sorted(fee_graph.kc_nodes.values(), key=lambda n: n.function_name)
        ranker = LexicalRanker(nodes)
        for name, score in ranker.rank(FEE_QUESTION):
            assert score >= 0.0

    def test_matches_direct_formula_single_term(self):
        # Two one-token documents; score of a one-term query against the
        # matching document via the textbook expression.
        nodes = [make_node("alpha", knowledge="alpha", code="def alpha():\n    pass"),
                 make_node("beta", knowledge="beta", code="def beta():\n    pass")]
        ranker = LexicalRanker(nodes)
        doc_tokens = node_document_tokens(nodes[0])
        freq = doc_tokens.count("alpha")
        doc_len = len(doc_tokens)
        avgdl = (len(doc_tokens) + len(node_document_tokens(nodes[1]))) / 2
        df = 1
        idf = math.log(1 + (2 - df + 0.5) / (df + 0.5))
        norm = BM25_K1 * (1 - BM25_B + BM25_B * doc_len / avgdl)
        expected = idf * freq * (BM25_K1 + 1) / (freq + norm)
        assert dict(ranker.rank("alpha"))["alpha"] == pytest.approx(expected)

    def test_fee_question_misleads_toward_scheme_ranking(self, fee_graph):
        nodes = sorted(fee_graph.kc_nodes.values(), key=lambda n: n.function_name)
        scores = dict(LexicalRanker(nodes).rank(FEE_QUESTION))
        assert scores["cheapest_card_scheme"] > scores["rule_applies"]

    def test_scores_independent_of_document_order(self, fee_graph):
        nodes = sorted(fee_graph.kc_nodes.values(), key=lambda n: n.function_name)
        forward = LexicalRanker(nodes)
        backward = LexicalRanker(list(reversed(nodes)))
        assert forward.rank(FEE_QUESTION) == backward.rank(FEE_QUESTION)


FEE_EXTRA_QUESTIONS = [
    FEE_QUESTION + " fee fee rule",  # repeated terms
    "", "???", "zebra crossing", "FEE fee_rule MCC mcc", "sum sum sum sum",
]


class TestAgainstOracleRanker:
    """`rank` equals the retired document-major ranker exactly: the same
    names in the same order and the same floats, compared with `==`."""

    def test_fee_graph(self, fee_graph, fixture_dir):
        nodes = sorted(fee_graph.kc_nodes.values(), key=lambda n: n.function_name)
        ranker = LexicalRanker(nodes)
        questions = [annotation.question for annotation in load_gold(fixture_dir / "gold.json")]
        for question in questions + FEE_EXTRA_QUESTIONS:
            assert ranker.rank(question) == oracle_bm25_rank(nodes, question)
            assert lexical_ranker(fee_graph).rank(question) == oracle_bm25_rank(nodes, question)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(["alpha", "beta", "gamma", "f_1", "İx", "ß"]),
                           st.lists(WORDISH, max_size=6).map(" ".join),
                           st.lists(WORDISH, max_size=8).map(" ".join)),
                 max_size=8),
        st.lists(st.lists(WORDISH, max_size=6).map(" ".join), min_size=1, max_size=3),
    )
    def test_random_node_sets(self, specs, questions):
        """Names repeat, documents can be empty, and the question's terms
        can repeat or be absent from every document."""
        nodes = [KnowledgeCodeNode(node_id=f"kc:e{i}:{name}", function_name=name, code=code,
                                   knowledge=knowledge, origin_entries=(f"e{i}",))
                 for i, (name, knowledge, code) in enumerate(specs)]
        ranker = LexicalRanker(nodes)
        for question in questions + [" ".join(questions)]:
            assert ranker.rank(question) == distinct(oracle_bm25_rank(nodes, question))

    def test_repeated_name_scored_by_its_last_node(self):
        nodes = [make_node("f", knowledge="gamma gamma"), make_node("f", knowledge="delta"),
                 make_node("g", knowledge="gamma")]
        for question in ("gamma", "delta", "gamma delta f"):
            assert LexicalRanker(nodes).rank(question) == \
                distinct(oracle_bm25_rank(nodes, question))
        assert [name for name, _ in LexicalRanker(nodes).rank("delta")] == ["f", "g"]

    @pytest.mark.parametrize("size", ["small", "full"])
    def test_perfbench_cli_corpus(self, size, small_workloads, perfbench_gen, tmp_path):
        """The benchmark's `cli` corpus (seed 5) with its gold questions and
        workload questions (the first three at the benchmark's own size,
        where each oracle call tokenizes 4 101 documents)."""
        if size == "small":
            graph, _, questions, data = small_workloads["cli"]
        else:
            data = perfbench_gen.cli_workload(random.Random(5), tmp_path)
            graph, questions = build_graph(load_corpus(data.manifest)), data.questions[:3]
        nodes = sorted(graph.kc_nodes.values(), key=lambda n: n.function_name)
        gold = [annotation.question for annotation in load_gold(data.gold)]
        ranker = lexical_ranker(graph)
        for question in gold + questions:
            assert ranker.rank(question) == oracle_bm25_rank(nodes, question)


class TestRetrieveTopk:
    def test_exact_k(self):
        graph = small_graph(*(make_node(f"f{i}") for i in range(5)))
        assert len(retrieve_topk("f0 f1 f2", graph, 2)) == 2

    def test_k_larger_than_node_count(self):
        graph = small_graph(*(make_node(f"f{i}") for i in range(3)))
        assert len(retrieve_topk("whatever", graph, 10)) == 3

    def test_all_tied_scores_break_lexicographically(self, tmp_path):
        vec_file = tmp_path / "v.txt"
        vec_file.write_text(
            "2\nq\t0.0 1.0\nb\t1.0 0.0\na\t1.0 0.0\nc\t1.0 0.0\n")
        vectors = load_vectors(vec_file)
        graph = small_graph(make_node("b"), make_node("a"), make_node("c"))
        assert retrieve_topk("q", graph, 2, scorer="vectors", vectors=vectors) == ["a", "b"]

    @pytest.mark.parametrize("k, scorer, message", [
        (0, "lexical", "k must be >= 1"),
        (1, "vectors", "scorer 'vectors' requires a VectorStore"),
        (1, "bm25", "unknown scorer 'bm25'"),
    ])
    def test_bad_arguments_rejected(self, k, scorer, message):
        graph = small_graph(make_node("f"))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            retrieve_topk("f", graph, k, scorer=scorer)

    def test_ranker_built_once_per_graph(self, fee_graph):
        ranker = lexical_ranker(fee_graph)
        retrieve_topk(FEE_QUESTION, fee_graph, 3)
        retrieve_topk("another question", fee_graph, 3)
        assert lexical_ranker(fee_graph) is ranker

    def test_memoized_scores_are_bit_identical(self, fee_graph):
        nodes = sorted(fee_graph.kc_nodes.values(), key=lambda n: n.function_name)
        fresh = LexicalRanker(nodes)
        question = FEE_QUESTION + " fee fee rule"  # repeated terms
        ranked = lexical_ranker(fee_graph).rank(question)
        assert ranked == fresh.rank(question)
        assert [(name, score.hex()) for name, score in ranked] == \
            [(name, score.hex()) for name, score in oracle_bm25_rank(nodes, question)]

    def test_vectors_alone_build_no_lexical_index(self, fixture_dir):
        graph = build_graph(load_corpus(fixture_dir / "manifest.json"))
        store = load_vectors(fixture_dir / "vectors.txt")
        question = load_gold(fixture_dir / "gold.json")[0].question
        top = retrieve_topk(question, graph, 3, scorer="vectors", vectors=store)
        assert len(top) == 3
        assert "lexical" not in graph.cache
        assert sorted_names(graph) is graph.cache["names"]
        assert sorted_names(graph) == sorted(n.function_name for n in graph.kc_nodes.values())

    @pytest.mark.parametrize("gold_set", ["fee", "cli"])
    def test_vector_scores_are_bit_identical(self, gold_set, fee_graph, fixture_dir,
                                             small_workloads):
        """Norms computed once per store and the ranker's sorted names give
        the very floats of a cosine per node over freshly sorted nodes."""
        if gold_set == "fee":
            graph, gold, vectors = (fee_graph, fixture_dir / "gold.json",
                                    fixture_dir / "vectors.txt")
        else:
            graph, _, _, data = small_workloads["cli"]
            gold, vectors = data.gold, data.vectors
        store = load_vectors(vectors)
        nodes = sorted(graph.kc_nodes.values(), key=lambda n: n.function_name)
        for annotation in load_gold(gold):
            query = store.get(annotation.question)
            expected = sorted(((node.function_name,
                                retired_cosine(query, store.get(node.function_name)))
                               for node in nodes), key=lambda item: (-item[1], item[0]))
            ranked = store.rank(annotation.question, sorted_names(graph))
            assert [(name, score.hex()) for name, score in ranked] == \
                [(name, score.hex()) for name, score in expected]
            assert retrieve_topk(annotation.question, graph, len(nodes), scorer="vectors",
                                 vectors=store) == [name for name, _ in expected]

    def test_kc_nodes_mutation_seen_by_next_topk(self):
        graph = small_graph(make_node("alpha"), make_node("beta"))
        assert retrieve_topk("gamma", graph, 1) == ["alpha"]  # all tied at zero
        with pytest.raises(TypeError):
            graph.kc_nodes["kc:e:gamma"] = make_node("gamma")
        with pytest.raises(AttributeError):
            graph.kc_nodes["kc:e:beta"].knowledge = "gamma"
        widened = graph._replace(kc_nodes={**graph.kc_nodes, "kc:e:gamma": make_node("gamma")})
        assert retrieve_topk("gamma", widened, 1) == ["gamma"]
        beta = graph.kc_nodes["kc:e:beta"]
        relabelled = graph._replace(kc_nodes={**graph.kc_nodes,
                                              beta.node_id: beta._replace(knowledge="gamma")})
        assert retrieve_topk("gamma", relabelled, 1) == ["beta"]
        assert retrieve_topk("gamma", graph, 1) == ["alpha"]
        assert retrieve_topk("gamma", widened, 1) == ["gamma"]

    def test_repeated_name_listed_once(self, tmp_path):
        """A hand-written graph may give one name to several nodes; the
        top k still holds k distinct names under either scorer."""
        path = tmp_path / "v.txt"
        path.write_text("2\nq\t1 0\nf\t1 0\ng\t0.5 0.5\nh\t0 1\n")
        nodes = [make_node("f", knowledge="delta"), make_node("g", knowledge="delta gamma"),
                 make_node("h"), make_node("g", knowledge="delta")]
        graph = DependencyGraph(kc_nodes={f"kc:e{i}:{node.function_name}": node
                                          for i, node in enumerate(nodes)})
        assert sorted_names(graph) == ["f", "g", "h"]
        assert retrieve_topk("delta", graph, 3) == ["f", "g", "h"]
        assert retrieve_topk("q", graph, 3, scorer="vectors", vectors=load_vectors(path)) == \
            ["f", "g", "h"]

    def test_budget_exact_for_both_scorers(self, fee_graph, fixture_dir):
        vectors = load_vectors(fixture_dir / "vectors.txt")
        for k in (1, 2, 5):
            assert len(retrieve_topk(FEE_QUESTION, fee_graph, k)) == k
            assert len(retrieve_topk(FEE_QUESTION, fee_graph, k,
                                     scorer="vectors", vectors=vectors)) == k


class TestVectors:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3\nname with spaces\t0.5 -1.0 2.0\n\n \ng\t1 2 3\n")
        store = load_vectors(path)
        assert store.dimension == 3
        assert store.get("name with spaces") == (0.5, -1.0, 2.0)
        assert store.get("g") == (1.0, 2.0, 3.0)

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3\nf\t0.5 1.0\n")
        with pytest.raises(VectorDimensionMismatch):
            load_vectors(path)

    def test_missing_vector(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2\nf\t1.0 0.0\n")
        store = load_vectors(path)
        with pytest.raises(MissingVector):
            store.get("g")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("not a number\nf\t1.0\n")
        with pytest.raises(SchemaViolation):
            load_vectors(path)
        path.write_text("")
        with pytest.raises(SchemaViolation, match="^vector file is empty$"):
            load_vectors(path)

    def test_repeated_name_names_both_lines(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2\nf\t1.0 0.0\ng\t0.0 1.0\nf\t0.5 0.5\n")
        with pytest.raises(SchemaViolation, match=r"line 4: 'f' already has a vector on line 2"):
            load_vectors(path)

    @pytest.mark.parametrize("component", ["nan", "-inf", "inf"])
    def test_non_finite_component_rejected(self, tmp_path, component):
        path = tmp_path / "v.txt"
        path.write_text(f"2\nq\t1 1\nb\t1 0\nc\t0 {component}\n")
        with pytest.raises(SchemaViolation, match=r"^line 4: 'c' has a non-finite component$"):
            load_vectors(path)

    def test_cosine_zero_vector(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2\nq\t1 0\nzero\t0 0\nq0\t0 0\n")
        store = load_vectors(path)
        assert store.rank("q", ["zero"]) == [("zero", 0.0)]
        assert store.rank("q0", ["q"]) == [("q", 0.0)]

    def test_cosine_parallel(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2\nq\t2 0\na\t4 0\nb\t0 3\n")
        store = load_vectors(path)
        assert store.rank("q", ["b", "a"]) == [("a", retired_cosine((2.0, 0.0), (4.0, 0.0))),
                                               ("b", 0.0)]
        assert store.rank("q", ["a"])[0][1] == pytest.approx(1.0)


class TestScoreRetrieval:
    def test_perfect(self):
        score = score_retrieval({"a", "b"}, frozenset({"a", "b"}))
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_disjoint(self):
        score = score_retrieval({"a"}, frozenset({"b"}))
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_empty_retrieved_empty_needed(self):
        score = score_retrieval(set(), frozenset())
        assert score.precision == 1.0
        assert score.recall == 1.0

    def test_empty_retrieved_nonempty_needed(self):
        score = score_retrieval(set(), frozenset({"a"}))
        assert score.precision == 0.0
        assert score.recall == 0.0

    def test_counts_exclude_nothing_given_name_sets(self):
        score = score_retrieval({"a", "b", "c"}, frozenset({"a"}))
        assert score.retrieved_kc_count == 3
        assert score.precision == pytest.approx(1 / 3)


class TestEvaluate:
    def test_perfect_results_all_ones(self):
        gold = [GoldAnnotation("q1", frozenset({"a"}), frozenset({"b"})),
                GoldAnnotation("q2", frozenset({"b"}), frozenset({"a"}))]
        report = evaluate({"q1": {"a"}, "q2": {"b"}}, gold)
        assert report.mean_precision == 1.0
        assert report.mean_recall == 1.0
        assert report.mean_f1 == 1.0

    def test_no_questions_score_zero(self):
        assert evaluate({}, []) == EvalReport(per_question=(), mean_precision=0.0,
                                              mean_recall=0.0, mean_f1=0.0, mean_retrieved=0.0)

    def test_report_as_dict(self):
        gold = [GoldAnnotation("q1", frozenset({"a"}), frozenset()),
                GoldAnnotation("q2", frozenset({"a", "b"}), frozenset())]
        report = evaluate({"q1": {"a", "c"}, "q2": set()}, gold)
        assert eval_report_to_dict(report) == {
            "per_question": [
                {"question": "q1", "precision": 0.5, "recall": 1.0, "f1": 2 / 3,
                 "retrieved_kc_count": 2},
                {"question": "q2", "precision": 0.0, "recall": 0.0, "f1": 0.0,
                 "retrieved_kc_count": 0},
            ],
            "mean_precision": 0.25, "mean_recall": 0.5, "mean_f1": 1 / 3, "mean_retrieved": 1.0,
        }

    def test_missing_result(self):
        gold = [GoldAnnotation("q1", frozenset({"a"}), frozenset())]
        with pytest.raises(MissingResult):
            evaluate({}, gold)

    def test_aggregate_order_invariant(self):
        gold = [GoldAnnotation("q1", frozenset({"a"}), frozenset()),
                GoldAnnotation("q2", frozenset({"a", "b"}), frozenset())]
        results = {"q1": {"a", "b"}, "q2": {"a"}}
        forward = evaluate(results, gold)
        backward = evaluate(results, list(reversed(gold)))
        assert forward.mean_precision == pytest.approx(backward.mean_precision)
        assert forward.mean_recall == pytest.approx(backward.mean_recall)

    def test_gold_loading_rejects_overlap(self, tmp_path):
        path = tmp_path / "gold.json"
        path.write_text('[{"question": "q", "needed": ["a"], "unneeded": ["a"]}]')
        with pytest.raises(SchemaViolation):
            load_gold(path)

    def test_fixture_gold_loads(self, fixture_dir, fee_graph):
        gold = load_gold(fixture_dir / "gold.json")
        assert len(gold) == 3
        names = {n.function_name for n in fee_graph.kc_nodes.values()}
        for annotation in gold:
            assert annotation.needed <= names
            assert annotation.unneeded <= names
            assert not annotation.needed & annotation.unneeded

    def test_table_formatting_aligned(self):
        gold = [GoldAnnotation("q1", frozenset({"a"}), frozenset())]
        report = evaluate({"q1": {"a"}}, gold)
        table = format_eval_table({"sgkr": report, "lexical": report})
        lines = table.splitlines()
        assert lines[0].startswith("method")
        assert any(line.startswith("sgkr") for line in lines)
        assert any(line.startswith("lexical") for line in lines)
