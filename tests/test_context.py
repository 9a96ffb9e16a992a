from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import pytest

from conftest import FEE_QUESTION
from oracles import oracle_assemble_context, oracle_topological_names
from sgkr.context import (
    FUNCTIONS_HEADER,
    KNOWLEDGE_HEADER,
    ContextBundle,
    assemble_context,
    bundle_to_dict,
    render_prompt_block,
)
from sgkr.graph import (
    CALL, FEEDS, INPUT, OUTPUT, YIELDS, DependencyGraph, Edge, IoNode, KnowledgeCodeNode,
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
    ids = [f"kc:e{i}:n{i}" for i in range(rng.randint(1, 12))]
    rng.shuffle(ids)
    kc_nodes = {}
    for node_id in ids:
        name = rng.choice(("alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"))
        kc_nodes[node_id] = KnowledgeCodeNode(
            node_id=node_id, function_name=name, code=f"def {name}():\n    pass  # {node_id}",
            knowledge=f"{name} as in {node_id}", origin_entries=("e",))
    density = rng.choice((0.1, 0.25, 0.5))
    edges = {Edge(src, dst, CALL) for src in ids for dst in ids if rng.random() < density}
    io_nodes = {}
    for kind, edge_type in ((INPUT, FEEDS), (OUTPUT, YIELDS)):
        node_id = f"io:{kind}:x"
        io_nodes[node_id] = IoNode(node_id=node_id, label="x", kind=kind)
        anchor = rng.choice(ids)
        edges.add(Edge(*((node_id, anchor) if kind == INPUT else (anchor, node_id)), edge_type))
    graph = DependencyGraph(kc_nodes=kc_nodes, io_nodes=io_nodes, edges=edges)
    every = sorted([*graph.kc_nodes, *graph.io_nodes])
    subgraph = frozenset(rng.sample(every, rng.randint(0, len(every))))
    return graph, RetrievalResult(paths=(), subgraph_nodes=subgraph, fallback=False,
                                  stats=SearchStats())


class TestAgainstRetiredAssembly:
    """Subgraph-local ordering against the retired whole-graph scan
    (`oracles.oracle_assemble_context`)."""

    def test_random_knotted_subgraphs(self):
        # The retired assembly resolved a repeated name to its last node in
        # the graph; each entry now comes from the retrieved node itself, so
        # the two agree exactly where the graph's names are unique.
        rng = random.Random(2026)
        unique = 0
        for _ in range(3000):
            graph, result = knotted_graph(rng)
            bundle = assemble_context(result, graph)
            names = [node.function_name for node in graph.kc_nodes.values()]
            if len(set(names)) == len(names):
                unique += 1
                assert bundle == oracle_assemble_context(result, graph)
                assert render_prompt_block(bundle) == \
                    render_prompt_block(oracle_assemble_context(result, graph))
            retrieved = [graph.kc_nodes[nid] for nid in result.subgraph_nodes
                         if nid in graph.kc_nodes]
            assert [name for name, _ in bundle.knowledge_texts] == \
                [name for name, _ in bundle.code_examples] == \
                oracle_topological_names(result, graph)
            assert Counter(bundle.knowledge_texts) == \
                Counter((node.function_name, node.knowledge) for node in retrieved)
            assert Counter(bundle.code_examples) == \
                Counter((node.function_name, node.code) for node in retrieved)
        assert 0 < unique < 3000  # both branches ran

    def test_fee_and_benchmark_questions(self, fee_graph, fee_vocab, small_workloads):
        cases = [(fee_graph, fee_vocab, [FEE_QUESTION])]
        cases += [(graph, vocab, questions) for graph, vocab, questions, _ in
                  small_workloads.values()]
        for graph, vocab, questions in cases:
            for question in questions:
                result = retrieve(graph, extract_tags(question, vocab))
                assert assemble_context(result, graph) == oracle_assemble_context(result, graph)

    def test_call_edge_added_after_a_bundle_is_seen(self):
        graph = DependencyGraph(kc_nodes={f"kc:e:{name}": KnowledgeCodeNode(
            node_id=f"kc:e:{name}", function_name=name, code=f"def {name}():\n    pass",
            knowledge=f"about {name}", origin_entries=("e",)) for name in ("alpha", "beta")})
        result = RetrievalResult(paths=(), subgraph_nodes=frozenset(graph.kc_nodes),
                                 fallback=False, stats=SearchStats())
        names = lambda g: [name for name, _ in assemble_context(result, g).knowledge_texts]
        assert names(graph) == ["alpha", "beta"]
        with pytest.raises(AttributeError):
            graph.edges.add(Edge("kc:e:alpha", "kc:e:beta", CALL))
        called = replace(graph, edges={Edge("kc:e:alpha", "kc:e:beta", CALL)})
        assert names(called) == ["beta", "alpha"]
        assert names(graph) == ["alpha", "beta"]
