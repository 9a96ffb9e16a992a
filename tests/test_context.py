from __future__ import annotations

import random

import pytest

from conftest import FEE_QUESTION
from oracles import oracle_assemble_context
from sgkr.context import (
    FUNCTIONS_HEADER,
    KNOWLEDGE_HEADER,
    ContextBundle,
    assemble_context,
    bundle_to_dict,
    render_prompt_block,
)
from sgkr.graph import (
    CALL, FEEDS, INPUT, OUTPUT, YIELDS, DependencyGraph, IoNode, KnowledgeCodeNode,
)
from sgkr.retriever import RetrievalResult, SearchStats, retrieve
from sgkr.tagger import extract_tags


@pytest.fixture()
def fee_bundle(fee_graph, fee_vocab):
    result = retrieve(fee_graph, extract_tags(FEE_QUESTION, fee_vocab))
    return assemble_context(result, fee_graph)


def empty_result():
    return RetrievalResult(paths=(), subgraph_nodes=frozenset(), fallback=True,
                           stats=SearchStats())


class TestAssembleContext:
    def test_callee_before_caller(self, fee_graph, fee_vocab):
        # f2 called by f1 must come first in the bundle.
        result = retrieve(fee_graph, extract_tags(FEE_QUESTION, fee_vocab))
        bundle = assemble_context(result, fee_graph)
        names = [name for name, _ in bundle.knowledge_texts]
        assert names.index("compute_fee") < names.index("most_expensive")
        assert names.index("rule_applies") < names.index("compute_fee")
        assert names.index("find_all_mccs") < names.index("sum_fee")

    def test_fallback_gives_empty_bundle(self, fee_graph):
        bundle = assemble_context(empty_result(), fee_graph)
        assert bundle.knowledge_texts == ()
        assert bundle.code_examples == ()
        assert bundle.source_paths == ()

    def test_fee_bundle_has_five_of_each(self, fee_bundle):
        assert len(fee_bundle.knowledge_texts) == 5
        assert len(fee_bundle.code_examples) == 5

    def test_knowledge_and_code_share_name_order(self, fee_bundle):
        assert [n for n, _ in fee_bundle.knowledge_texts] == \
            [n for n, _ in fee_bundle.code_examples]

    def test_deterministic_order(self, fee_bundle):
        assert [n for n, _ in fee_bundle.knowledge_texts] == [
            "find_all_mccs", "rule_applies", "compute_fee", "most_expensive", "sum_fee",
        ]

    def test_source_paths_preserved(self, fee_graph, fee_vocab):
        result = retrieve(fee_graph, extract_tags(FEE_QUESTION, fee_vocab))
        bundle = assemble_context(result, fee_graph)
        assert bundle.source_paths == result.paths


class TestRenderPromptBlock:
    def test_headers_present_with_one_entry(self):
        bundle = ContextBundle(
            knowledge_texts=(("f", "does f things"),),
            code_examples=(("f", "def f():\n    pass"),),
            source_paths=(),
        )
        text = render_prompt_block(bundle)
        assert KNOWLEDGE_HEADER in text
        assert FUNCTIONS_HEADER in text
        assert "f: does f things" in text
        assert "def f():" in text

    def test_empty_bundle_renders_headers_only(self):
        text = render_prompt_block(ContextBundle((), (), ()))
        assert text == f"{KNOWLEDGE_HEADER}\n\n{FUNCTIONS_HEADER}\n"

    def test_rendering_is_byte_deterministic(self, fee_bundle):
        assert render_prompt_block(fee_bundle) == render_prompt_block(fee_bundle)

    def test_fee_render_shape(self, fee_bundle):
        text = render_prompt_block(fee_bundle)
        knowledge_part = text.split(FUNCTIONS_HEADER)[0]
        assert len([ln for ln in knowledge_part.splitlines() if ": " in ln]) == 5
        assert text.count("def ") == 5
        assert text.index(KNOWLEDGE_HEADER) < text.index(FUNCTIONS_HEADER)

    def test_rendered_names_come_from_bundle(self, fee_bundle, fee_graph):
        text = render_prompt_block(fee_bundle)
        subgraph_names = {name for name, _ in fee_bundle.knowledge_texts}
        for line in text.splitlines():
            if line.startswith("def "):
                name = line.split("def ", 1)[1].split("(", 1)[0]
                assert name in subgraph_names

    def test_knowledge_section_count_equals_code_section_count(self, fee_bundle):
        assert len(fee_bundle.knowledge_texts) == len(fee_bundle.code_examples)


class TestStructuredExport:
    def test_fields_mirror_bundle(self, fee_bundle):
        payload = bundle_to_dict(fee_bundle)
        assert [item["function_name"] for item in payload["knowledge"]] == \
            [name for name, _ in fee_bundle.knowledge_texts]
        assert [item["function_name"] for item in payload["functions"]] == \
            [name for name, _ in fee_bundle.code_examples]
        assert payload["paths"] == [list(p.nodes) for p in fee_bundle.source_paths]


def knotted_graph(rng):
    """Knowledge-code nodes in shuffled order, names drawn from a small
    pool so that some repeat, random CALL edges with self-calls and
    cycles, and I/O nodes wired in; returns the graph and a random
    subset of its nodes as a retrieved subgraph."""
    graph = DependencyGraph()
    ids = [f"kc:e{i}:n{i}" for i in range(rng.randint(1, 12))]
    rng.shuffle(ids)
    for node_id in ids:
        name = rng.choice(("alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"))
        graph.add_kc_node(KnowledgeCodeNode(
            node_id=node_id, function_name=name, code=f"def {name}():\n    pass  # {node_id}",
            knowledge=f"{name} as in {node_id}", origin_entries=("e",)))
    density = rng.choice((0.1, 0.25, 0.5))
    for src in ids:
        for dst in ids:
            if rng.random() < density:
                graph.add_edge(src, dst, CALL)
    for kind, edge_type in ((INPUT, FEEDS), (OUTPUT, YIELDS)):
        node_id = graph.io_node_id("x", kind)
        graph.add_io_node(IoNode(node_id=node_id, label="x", kind=kind))
        anchor = rng.choice(ids)
        graph.add_edge(*((node_id, anchor) if kind == INPUT else (anchor, node_id)), edge_type)
    every = sorted([*graph.kc_nodes, *graph.io_nodes])
    subgraph = frozenset(rng.sample(every, rng.randint(0, len(every))))
    return graph, RetrievalResult(paths=(), subgraph_nodes=subgraph, fallback=False,
                                  stats=SearchStats())


class TestAgainstRetiredAssembly:
    """Subgraph-local ordering against the retired whole-graph scan
    (`oracles.oracle_assemble_context`)."""

    def test_random_knotted_subgraphs(self):
        rng = random.Random(2026)
        for _ in range(3000):
            graph, result = knotted_graph(rng)
            bundle = assemble_context(result, graph)
            assert bundle == oracle_assemble_context(result, graph)
            assert render_prompt_block(bundle) == \
                render_prompt_block(oracle_assemble_context(result, graph))

    def test_fee_and_benchmark_questions(self, fee_graph, fee_vocab, small_workloads):
        cases = [(fee_graph, fee_vocab, [FEE_QUESTION])]
        cases += [(graph, vocab, questions) for graph, vocab, questions, _ in
                  small_workloads.values()]
        for graph, vocab, questions in cases:
            for question in questions:
                result = retrieve(graph, extract_tags(question, vocab))
                assert assemble_context(result, graph) == oracle_assemble_context(result, graph)

    def test_call_edge_added_after_a_bundle_is_seen(self):
        graph = DependencyGraph()
        for name in ("alpha", "beta"):
            graph.add_kc_node(KnowledgeCodeNode(
                node_id=f"kc:e:{name}", function_name=name, code=f"def {name}():\n    pass",
                knowledge=f"about {name}", origin_entries=("e",)))
        result = RetrievalResult(paths=(), subgraph_nodes=frozenset(graph.kc_nodes),
                                 fallback=False, stats=SearchStats())
        names = lambda: [name for name, _ in assemble_context(result, graph).knowledge_texts]
        assert names() == ["alpha", "beta"]
        graph.add_edge("kc:e:alpha", "kc:e:beta", CALL)
        assert names() == ["beta", "alpha"]
