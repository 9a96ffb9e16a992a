from __future__ import annotations

import random

import pytest

from conftest import FEE_NEEDED, FEE_QUESTION, FEE_UNNEEDED
from oracles import oracle_simple_paths, random_io_graph
from sgkr.errors import UnknownNode
from sgkr.graph import (
    CALL,
    FEEDS,
    INPUT,
    OUTPUT,
    YIELDS,
    DependencyGraph,
    IoNode,
    KnowledgeCodeNode,
    serialize,
)
from sgkr.retriever import (
    RetrievalLimits,
    find_paths,
    retrieve,
    retrieved_kc_names,
)
from sgkr.tagger import TagSet, extract_tags

WIDE_LIMITS = RetrievalLimits(max_depth=16, max_paths=10**6)


def chain_graph():
    """input -> f1 -> f2 -> output where f1 calls f2 and f2 yields."""
    graph = DependencyGraph()
    for name in ("f1", "f2"):
        graph.add_kc_node(KnowledgeCodeNode(
            node_id=f"kc:e:{name}", function_name=name,
            code=f"def {name}():\n    pass", knowledge=name, origin_entries=("e",),
        ))
    graph.add_io_node(IoNode(node_id="io:input:start", label="start", kind=INPUT))
    graph.add_io_node(IoNode(node_id="io:output:end", label="end", kind=OUTPUT))
    graph.add_edge("kc:e:f1", "kc:e:f2", CALL)
    graph.add_edge("io:input:start", "kc:e:f1", FEEDS)
    graph.add_edge("kc:e:f2", "io:output:end", YIELDS)
    return graph


class TestFindPaths:
    def test_simple_chain(self):
        paths = find_paths(chain_graph(), ["io:input:start"], ["io:output:end"])
        assert [p.nodes for p in paths] == [
            ("io:input:start", "kc:e:f1", "kc:e:f2", "io:output:end"),
        ]

    def test_edge_orientation_flags(self):
        graph = chain_graph()
        path = find_paths(graph, ["io:input:start"], ["io:output:end"])[0]
        assert [(e.type, e.reversed) for e in path.edges] == [
            (FEEDS, False), (CALL, False), (YIELDS, False),
        ]

    def test_reverse_call_traversal(self):
        # The input feeds the callee, the caller yields the output: the
        # CALL edge must be walked against its stored direction.
        graph = chain_graph()
        graph.edges = {e for e in graph.edges if e.type == CALL}
        graph.add_edge("io:input:start", "kc:e:f2", FEEDS)
        graph.add_edge("kc:e:f1", "io:output:end", YIELDS)
        paths = find_paths(graph, ["io:input:start"], ["io:output:end"])
        assert [p.nodes for p in paths] == [
            ("io:input:start", "kc:e:f2", "kc:e:f1", "io:output:end"),
        ]
        call_step = paths[0].edges[1]
        assert call_step.reversed
        assert (call_step.src, call_step.dst) == ("kc:e:f1", "kc:e:f2")

    def test_disconnected_no_paths(self):
        graph = chain_graph()
        graph.add_kc_node(KnowledgeCodeNode(
            node_id="kc:e:island", function_name="island",
            code="def island():\n    pass", knowledge="island", origin_entries=("e",),
        ))
        graph.add_io_node(IoNode(node_id="io:output:far", label="far", kind=OUTPUT))
        graph.add_edge("kc:e:island", "io:output:far", YIELDS)
        assert find_paths(graph, ["io:input:start"], ["io:output:far"]) == []

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            find_paths(chain_graph(), ["io:input:ghost"], ["io:output:end"])

    def test_depth_limit(self):
        graph = chain_graph()
        limits = RetrievalLimits(max_depth=2, max_paths=10)
        stats_paths = find_paths(graph, ["io:input:start"], ["io:output:end"], limits)
        assert stats_paths == []

    def test_max_paths_truncation_flag(self):
        graph, sources, targets = random_io_graph(random.Random(123), max_kc=6)
        all_paths = find_paths(graph, sources, targets, WIDE_LIMITS)
        if len(all_paths) > 1:
            from sgkr.retriever import SearchStats
            stats = SearchStats()
            limited = find_paths(graph, sources, targets,
                                 RetrievalLimits(max_depth=16, max_paths=1), stats)
            assert len(limited) == 1
            assert stats.truncated_by_paths

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(20240811)
        for _ in range(150):
            graph, sources, targets = random_io_graph(rng)
            got = {p.nodes for p in find_paths(graph, sources, targets, WIDE_LIMITS)}
            expected = oracle_simple_paths(graph, sources, targets, WIDE_LIMITS.max_depth)
            assert got == expected

    def test_paths_sorted_by_length_then_nodes(self):
        rng = random.Random(99)
        for _ in range(50):
            graph, sources, targets = random_io_graph(rng)
            paths = find_paths(graph, sources, targets, WIDE_LIMITS)
            keys = [(len(p.nodes), p.nodes) for p in paths]
            assert keys == sorted(keys)

    def test_path_invariants(self):
        rng = random.Random(5)
        for _ in range(50):
            graph, sources, targets = random_io_graph(rng)
            for path in find_paths(graph, sources, targets, WIDE_LIMITS):
                assert path.nodes[0] in sources
                assert path.nodes[-1] in targets
                assert len(set(path.nodes)) == len(path.nodes)
                for interior in path.nodes[1:-1]:
                    assert interior in graph.kc_nodes


class TestRetrieve:
    def test_fee_question_exact_subgraph(self, fee_graph, fee_vocab):
        tags = extract_tags(FEE_QUESTION, fee_vocab)
        result = retrieve(fee_graph, tags)
        assert set(retrieved_kc_names(result, fee_graph)) == FEE_NEEDED
        assert not set(retrieved_kc_names(result, fee_graph)) & FEE_UNNEEDED

    def test_fallback_tagset_gives_empty_result(self, fee_graph):
        tags = TagSet(inputs=frozenset(), outputs=frozenset(), fallback=True)
        result = retrieve(fee_graph, tags)
        assert result.fallback
        assert result.paths == ()
        assert result.subgraph_nodes == frozenset()

    def test_union_is_exactly_path_nodes(self, fee_graph, fee_vocab):
        tags = extract_tags(FEE_QUESTION, fee_vocab)
        result = retrieve(fee_graph, tags)
        expected = set()
        for path in result.paths:
            expected.update(path.nodes)
        assert result.subgraph_nodes == expected

    def test_two_inputs_sharing_one_output_union_counts_once(self):
        graph = chain_graph()
        graph.add_io_node(IoNode(node_id="io:input:alt", label="alt", kind=INPUT))
        graph.add_edge("io:input:alt", "kc:e:f2", FEEDS)
        tags = TagSet(inputs=frozenset({"start", "alt"}),
                      outputs=frozenset({"end"}), fallback=False)
        result = retrieve(graph, tags)
        assert len(result.paths) == 2
        assert result.subgraph_nodes == {
            "io:input:start", "io:input:alt", "kc:e:f1", "kc:e:f2", "io:output:end",
        }

    def test_read_only(self, fee_graph, fee_vocab):
        before = serialize(fee_graph)
        retrieve(fee_graph, extract_tags(FEE_QUESTION, fee_vocab))
        assert serialize(fee_graph) == before

    def test_kc_count_excludes_io_nodes(self, fee_graph, fee_vocab):
        tags = extract_tags(FEE_QUESTION, fee_vocab)
        result = retrieve(fee_graph, tags)
        io_in_subgraph = [n for n in result.subgraph_nodes if n in fee_graph.io_nodes]
        assert len(retrieved_kc_names(result, fee_graph)) == \
            len(result.subgraph_nodes) - len(io_in_subgraph)
        assert len(retrieved_kc_names(result, fee_graph)) == 5

    def test_stats_populated(self, fee_graph, fee_vocab):
        result = retrieve(fee_graph, extract_tags(FEE_QUESTION, fee_vocab))
        assert result.stats.paths_found == len(result.paths) == 3
        assert result.stats.nodes_expanded > 0
        assert not result.stats.truncated_by_paths
