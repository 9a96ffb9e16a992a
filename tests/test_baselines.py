from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, replace

import pytest

from conftest import FEE_QUESTION
from sgkr.baselines import (
    BM25_B,
    BM25_K1,
    GoldAnnotation,
    LexicalRanker,
    cosine,
    evaluate,
    format_eval_table,
    lexical_ranker,
    load_gold,
    load_vectors,
    node_document_tokens,
    retrieve_topk,
    score_retrieval,
    text_tokens,
)
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
    """The cosine as computed once per node pair, norms included."""
    dot = sum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(y * y for y in b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def small_graph(*nodes):
    return DependencyGraph(kc_nodes={node.node_id: node for node in nodes})


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


class TestLexicalRanker:
    def test_zero_when_no_shared_token(self):
        ranker = LexicalRanker([make_node("alpha"), make_node("beta")])
        assert ranker.score("zebra crossing", "alpha") == 0.0

    def test_positive_on_name_match(self):
        ranker = LexicalRanker([make_node("alpha")])
        assert ranker.score("alpha", "alpha") > 0.0

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
        assert ranker.score("alpha", "alpha") == pytest.approx(expected)

    def test_fee_question_misleads_toward_scheme_ranking(self, fee_graph):
        nodes = sorted(fee_graph.kc_nodes.values(), key=lambda n: n.function_name)
        ranker = LexicalRanker(nodes)
        assert ranker.score(FEE_QUESTION, "cheapest_card_scheme") > \
            ranker.score(FEE_QUESTION, "rule_applies")

    def test_scores_independent_of_document_order(self, fee_graph):
        nodes = sorted(fee_graph.kc_nodes.values(), key=lambda n: n.function_name)
        forward = LexicalRanker(nodes)
        backward = LexicalRanker(list(reversed(nodes)))
        for node in nodes:
            assert forward.score(FEE_QUESTION, node.function_name) == \
                pytest.approx(backward.score(FEE_QUESTION, node.function_name))


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
        assert ranked == sorted(((node.function_name, fresh.score(question, node.function_name))
                                 for node in nodes), key=lambda item: (-item[1], item[0]))

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
            ranked = store.rank(annotation.question, lexical_ranker(graph).names)
            assert [(name, score.hex()) for name, score in ranked] == \
                [(name, score.hex()) for name, score in expected]
            assert retrieve_topk(annotation.question, graph, len(nodes), scorer="vectors",
                                 vectors=store) == [name for name, _ in expected]

    def test_kc_nodes_mutation_seen_by_next_topk(self):
        graph = small_graph(make_node("alpha"), make_node("beta"))
        assert retrieve_topk("gamma", graph, 1) == ["alpha"]  # all tied at zero
        with pytest.raises(TypeError):
            graph.kc_nodes["kc:e:gamma"] = make_node("gamma")
        with pytest.raises(FrozenInstanceError):
            graph.kc_nodes["kc:e:beta"].knowledge = "gamma"
        widened = replace(graph, kc_nodes={**graph.kc_nodes, "kc:e:gamma": make_node("gamma")})
        assert retrieve_topk("gamma", widened, 1) == ["gamma"]
        beta = graph.kc_nodes["kc:e:beta"]
        relabelled = replace(graph, kc_nodes={**graph.kc_nodes,
                                              beta.node_id: replace(beta, knowledge="gamma")})
        assert retrieve_topk("gamma", relabelled, 1) == ["beta"]
        assert retrieve_topk("gamma", graph, 1) == ["alpha"]
        assert retrieve_topk("gamma", widened, 1) == ["gamma"]

    def test_budget_exact_for_both_scorers(self, fee_graph, fixture_dir):
        vectors = load_vectors(fixture_dir / "vectors.txt")
        for k in (1, 2, 5):
            assert len(retrieve_topk(FEE_QUESTION, fee_graph, k)) == k
            assert len(retrieve_topk(FEE_QUESTION, fee_graph, k,
                                     scorer="vectors", vectors=vectors)) == k


class TestVectors:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3\nname with spaces\t0.5 -1.0 2.0\n")
        store = load_vectors(path)
        assert store.dimension == 3
        assert store.get("name with spaces") == (0.5, -1.0, 2.0)

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

    def test_repeated_name_names_both_lines(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2\nf\t1.0 0.0\ng\t0.0 1.0\nf\t0.5 0.5\n")
        with pytest.raises(SchemaViolation, match=r"line 4: 'f' already has a vector on line 2"):
            load_vectors(path)

    def test_cosine_zero_vector(self):
        assert cosine((0.0, 0.0), (1.0, 0.0)) == 0.0

    def test_cosine_parallel(self):
        assert cosine((2.0, 0.0), (4.0, 0.0)) == pytest.approx(1.0)


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
