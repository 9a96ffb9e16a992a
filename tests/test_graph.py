from __future__ import annotations

import json
import random
import time
from dataclasses import FrozenInstanceError, replace

import pytest

from oracles import (
    oracle_call_cycles,
    oracle_cyclic_components,
    oracle_merge,
    oracle_reachable,
    random_call_graph,
    random_premerge_graph,
)
from sgkr.corpus import Corpus, CorpusEntry, IoDecl, IoSpec
from sgkr.errors import (
    AnchorNotFound,
    FormatVersionMismatch,
    KnowledgeBindingError,
    SchemaViolation,
)
from sgkr.graph import (
    CALL,
    FEEDS,
    INPUT,
    YIELDS,
    DependencyGraph,
    Edge,
    IoNode,
    KnowledgeCodeNode,
    assemble_raw_graph,
    build_graph,
    deserialize,
    insert_io_nodes,
    kc_node_id,
    merge_identical,
    serialize,
    to_dot,
    validate_graph,
)
from sgkr.parser import build_trace_fragment


def make_entry(entry_id, source, knowledge=None, inputs=(("x", None),), outputs=(("y", None),)):
    """Entry whose io anchors default to the first defined function."""
    from sgkr.parser import extract_functions
    first = extract_functions(source)[0].name if extract_functions(source) else "missing"
    io = IoSpec(
        inputs=tuple(IoDecl(lbl, anchor or first) for lbl, anchor in inputs),
        outputs=tuple(IoDecl(lbl, anchor or first) for lbl, anchor in outputs),
    )
    return CorpusEntry(entry_id=entry_id, source_text=source,
                       io_spec=io, knowledge_map=knowledge or {})


def corpus_of(*entries):
    return Corpus(name="t", version="1", entries=tuple(entries))


def assemble(*entries):
    corpus = corpus_of(*entries)
    fragments = [build_trace_fragment(e) for e in corpus.entries]
    return assemble_raw_graph(fragments, corpus)


class TestAssembleRawGraph:
    def test_same_name_across_entries_gives_two_nodes(self):
        graph = assemble(
            make_entry("e1", "def func1(x):\n    return x\n"),
            make_entry("e2", "def func1(x):\n    return x + 1\n"),
        )
        names = [n.function_name for n in graph.kc_nodes.values()]
        assert names == ["func1", "func1"]

    def test_chain_has_one_call_edge(self):
        graph = assemble(make_entry("e1", "def a():\n    b()\n\ndef b():\n    return 1\n"))
        assert len(graph.kc_nodes) == 2
        assert graph.edges == {(kc_node_id("e1", "a"), kc_node_id("e1", "b"), CALL)}

    def test_fee_fixture_premerge_node_count(self, fee_corpus):
        fragments = [build_trace_fragment(e) for e in fee_corpus.entries]
        graph = assemble_raw_graph(fragments, fee_corpus)
        assert len(graph.kc_nodes) == 13
        assert len({n.function_name for n in graph.kc_nodes.values()}) == 12

    def test_placeholder_knowledge_when_unannotated(self):
        graph = assemble(make_entry("e1", "def a(x):\n    return x + 1\n"))
        node = next(iter(graph.kc_nodes.values()))
        assert node.knowledge == "function a: return x + 1"

    def test_unknown_knowledge_key_raises(self):
        entry = make_entry("e1", "def a(x):\n    return x\n", knowledge={"b": "text"})
        with pytest.raises(KnowledgeBindingError):
            assemble(entry)

    def test_code_is_full_definition(self):
        graph = assemble(make_entry("e1", "def a(x):\n    return x\n"))
        node = next(iter(graph.kc_nodes.values()))
        assert node.code.startswith("def a(x):")


class TestMergeIdentical:
    def test_all_unique_is_identity(self):
        graph = assemble(make_entry("e1", "def a():\n    b()\n\ndef b():\n    return 1\n"))
        assert merge_identical(graph) == graph

    def test_input_does_not_mutate(self):
        graph = assemble(
            make_entry("e1", "def func1(x):\n    return x\n"),
            make_entry("e2", "def func1(x):\n    return x + 1\n"),
        )
        before = serialize(graph)
        merge_identical(graph)
        assert serialize(graph) == before

    def test_canonical_is_earliest_entry(self):
        graph = assemble(
            make_entry("e1", "def func1(x):\n    return x\n"),
            make_entry("e2", "def func1(x):\n    return x + 1\n"),
        )
        merged = merge_identical(graph)
        assert list(merged.kc_nodes) == [kc_node_id("e1", "func1")]
        node = merged.kc_nodes[kc_node_id("e1", "func1")]
        assert node.origin_entries == ("e1", "e2")
        assert node.variants == ("def func1(x):\n    return x + 1",)

    def test_differing_knowledge_appended_in_entry_order(self):
        graph = DependencyGraph(kc_nodes={kc_node_id(entry_id, "f"): KnowledgeCodeNode(
            node_id=kc_node_id(entry_id, "f"), function_name="f",
            code="def f():\n    pass", knowledge=text, origin_entries=(entry_id,),
        ) for entry_id, text in (("e1", "first"), ("e2", "second"), ("e3", "first"))})
        merged = merge_identical(graph)
        node = merged.kc_nodes[kc_node_id("e1", "f")]
        assert node.knowledge == "first\n\nsecond"

    def test_matches_relabel_oracle_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(200):
            graph = random_premerge_graph(rng)
            assert merge_identical(graph) == oracle_merge(graph)

    def test_idempotent(self):
        rng = random.Random(8)
        for _ in range(100):
            graph = random_premerge_graph(rng)
            merged = merge_identical(graph)
            assert merge_identical(merged) == merged

    def test_preserves_reachability_up_to_relabeling(self):
        rng = random.Random(9)
        for _ in range(100):
            graph = random_premerge_graph(rng)
            canon = {}
            for node in graph.kc_nodes.values():
                canon.setdefault(node.function_name, node.node_id)
            relabel = {n.node_id: canon[n.function_name] for n in graph.kc_nodes.values()}
            merged = merge_identical(graph)
            for start in graph.kc_nodes:
                before = {relabel[x] for x in oracle_reachable(graph, start) if x in relabel}
                after = oracle_reachable(merged, relabel[start])
                assert before <= after

    def test_node_count_equals_distinct_names(self):
        rng = random.Random(10)
        for _ in range(50):
            graph = random_premerge_graph(rng)
            merged = merge_identical(graph)
            names = {n.function_name for n in graph.kc_nodes.values()}
            assert len(merged.kc_nodes) == len(names)
            for edge in merged.edges:
                assert merged.has_node(edge.src) and merged.has_node(edge.dst)


class TestInsertIoNodes:
    def test_feeds_edge_added(self):
        graph = assemble(make_entry("e1", "def compute_fee(a):\n    return a\n"))
        spec = IoSpec(inputs=(IoDecl("transaction amount", "compute_fee"),),
                      outputs=(IoDecl("fee", "compute_fee"),))
        out = insert_io_nodes(graph, [spec])
        assert ("io:input:transaction amount", kc_node_id("e1", "compute_fee"), FEEDS) in out.edges
        assert (kc_node_id("e1", "compute_fee"), "io:output:fee", YIELDS) in out.edges

    def test_repeated_label_reuses_node_accumulates_edges(self):
        graph = assemble(make_entry(
            "e1", "def a(x):\n    return x\n\ndef b(x):\n    return x\n"))
        specs = [
            IoSpec(inputs=(IoDecl("x", "a"),), outputs=(IoDecl("y", "a"),)),
            IoSpec(inputs=(IoDecl("x", "b"),), outputs=(IoDecl("y", "b"),)),
        ]
        out = insert_io_nodes(graph, specs)
        assert len(out.io_nodes) == 2
        feeds = [e for e in out.edges if e.type == FEEDS]
        assert len(feeds) == 2

    def test_anchor_not_found(self):
        graph = assemble(make_entry("e1", "def a(x):\n    return x\n"))
        spec = IoSpec(inputs=(IoDecl("x", "missing"),), outputs=(IoDecl("y", "a"),))
        with pytest.raises(AnchorNotFound):
            insert_io_nodes(graph, [spec])

    def test_pure(self):
        graph = assemble(make_entry("e1", "def a(x):\n    return x\n"))
        before = serialize(graph)
        insert_io_nodes(graph, [IoSpec(inputs=(IoDecl("x", "a"),),
                                       outputs=(IoDecl("y", "a"),))])
        assert serialize(graph) == before


class TestValidateGraph:
    def test_fee_fixture_is_clean(self, fee_graph):
        report = validate_graph(fee_graph)
        assert report.ok
        assert report.violations == ()
        assert report.cycles == ()

    def test_two_cycle_reported(self):
        graph = assemble(make_entry("e1", "def a():\n    b()\n\ndef b():\n    a()\n"))
        report = validate_graph(graph)
        assert (kc_node_id("e1", "a"), kc_node_id("e1", "b"), kc_node_id("e1", "a")) \
            in report.cycles

    def test_self_loop_reported(self):
        graph = assemble(make_entry("e1", "def a():\n    return a()\n"))
        report = validate_graph(graph)
        assert report.cycles == ((kc_node_id("e1", "a"), kc_node_id("e1", "a")),)

    def test_dangling_edge_flagged(self):
        graph = assemble(make_entry("e1", "def a(x):\n    return x\n"))
        graph = replace(graph, edges=graph.edges | {Edge(kc_node_id("e1", "a"), "kc:e1:ghost", CALL)})
        report = validate_graph(graph)
        assert any("missing node" in v for v in report.violations)

    def test_unattached_io_flagged(self):
        graph = assemble(make_entry("e1", "def a(x):\n    return x\n"))
        graph = replace(graph, io_nodes={"io:input:x": IoNode(node_id="io:input:x", label="x",
                                                              kind=INPUT)})
        report = validate_graph(graph)
        assert any("unattached" in v for v in report.violations)

    def test_duplicate_names_flagged_pre_merge(self):
        graph = assemble(
            make_entry("e1", "def func1(x):\n    return x\n"),
            make_entry("e2", "def func1(x):\n    return x\n"),
        )
        report = validate_graph(graph)
        assert any("duplicate function name" in v for v in report.violations)

    def test_witnesses_match_cycle_oracle(self):
        rng = random.Random(11)
        for _ in range(1000):
            graph = random_call_graph(rng)
            report = validate_graph(graph)
            all_cycles = set(oracle_call_cycles(graph))
            assert set(report.cycles) <= all_cycles
            by_root = {min(component): component for component in oracle_cyclic_components(graph)}
            assert [cycle[0] for cycle in report.cycles] == sorted(by_root)
            for cycle in report.cycles:
                assert set(cycle) <= by_root[cycle[0]]
            assert report.ok == (not all_cycles)

    def test_witnesses_match_networkx_components(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(12)
        for _ in range(300):
            graph = random_call_graph(rng)
            digraph = nx.DiGraph()
            digraph.add_nodes_from(graph.kc_nodes)
            digraph.add_edges_from((edge.src, edge.dst) for edge in graph.edges)
            cyclic = [component for component in nx.strongly_connected_components(digraph)
                      if len(component) > 1 or any(digraph.has_edge(n, n) for n in component)]
            report = validate_graph(graph)
            assert [cycle[0] for cycle in report.cycles] == sorted(min(c) for c in cyclic)
            for cycle in report.cycles:
                assert any(set(cycle) <= component for component in cyclic)

    def test_long_call_chain_closed_on_itself(self):
        ids = [kc_node_id("e", f"f{i:04d}") for i in range(1500)]
        graph = DependencyGraph(
            kc_nodes={node_id: KnowledgeCodeNode(node_id, node_id, "c", "k", ("e",))
                      for node_id in ids},
            edges={Edge(src, dst, CALL) for src, dst in zip(ids, ids[1:] + ids[:1])},
        )
        started = time.perf_counter()
        report = validate_graph(graph)
        assert time.perf_counter() - started < 1.0
        assert report.cycles == (tuple(ids) + (ids[0],),)

    def test_dense_knot_has_one_witness(self):
        # 16 functions on a call ring plus 59 random chords: the ring makes
        # one component, the chords give it 344 062 simple cycles.
        rng = random.Random(13)
        ids = [kc_node_id("e", f"f{i:02d}") for i in range(16)]
        ring = {Edge(src, dst, CALL) for src, dst in zip(ids, ids[1:] + ids[:1])}
        chords = [(a, b) for a in ids for b in ids if a != b and (a, b, CALL) not in ring]
        graph = DependencyGraph(
            kc_nodes={node_id: KnowledgeCodeNode(node_id, node_id, "c", "k", ("e",))
                      for node_id in ids},
            edges=ring | {Edge(src, dst, CALL) for src, dst in rng.sample(chords, 59)},
        )
        assert len(graph.edges) == 75
        started = time.perf_counter()
        report = validate_graph(graph)
        assert time.perf_counter() - started < 1.0
        assert len(report.cycles) == 1
        assert report.cycles[0][0] == report.cycles[0][-1] == ids[0]


class TestReadOnly:
    def test_nodes_maps_and_edges_cannot_change(self, fee_graph):
        node_id, node = next(iter(fee_graph.kc_nodes.items()))
        with pytest.raises(FrozenInstanceError):
            node.knowledge = "changed"
        with pytest.raises(FrozenInstanceError):
            fee_graph.edges = frozenset()
        with pytest.raises(TypeError):
            fee_graph.kc_nodes[node_id] = node
        with pytest.raises(TypeError):
            del fee_graph.io_nodes[next(iter(fee_graph.io_nodes))]
        with pytest.raises(AttributeError):
            fee_graph.edges.clear()

    def test_graph_keeps_its_own_copy_and_replace_starts_a_fresh_cache(self):
        kc_nodes = {"kc:e:f": KnowledgeCodeNode("kc:e:f", "f", "c", "k", ("e",))}
        graph = DependencyGraph(kc_nodes=kc_nodes)
        kc_nodes.clear()
        assert list(graph.kc_nodes) == ["kc:e:f"]
        graph.cache["memo"] = object()
        changed = replace(graph, edges={Edge("kc:e:f", "kc:e:f", CALL)})
        assert changed.cache == {} and "memo" in graph.cache
        assert changed.kc_nodes == graph.kc_nodes and graph.edges == frozenset()


class TestSerialization:
    def test_round_trip_equality(self, fee_graph):
        document = serialize(fee_graph)
        assert deserialize(document) == fee_graph

    def test_serialize_deserialize_is_byte_stable(self, fee_graph):
        document = serialize(fee_graph)
        assert serialize(deserialize(document)) == document

    def test_empty_graph_round_trips(self):
        empty = DependencyGraph()
        assert deserialize(serialize(empty)) == empty

    def test_fee_fixture_has_twelve_kc_nodes_after_merge(self, fee_graph):
        document = serialize(fee_graph)
        restored = deserialize(document)
        assert len(restored.kc_nodes) == 12

    def test_version_mismatch(self, fee_graph):
        document = serialize(fee_graph).replace('"format_version": "1"', '"format_version": "99"')
        with pytest.raises(FormatVersionMismatch):
            deserialize(document)

    def test_schema_violation_on_unknown_field(self):
        with pytest.raises(SchemaViolation):
            deserialize('{"format_version": "1", "kc_nodes": [], "io_nodes": [], '
                        '"edges": [], "bogus": 1}')

    def test_schema_violation_on_bad_edge_type(self, fee_graph):
        document = serialize(fee_graph).replace('"type": "CALL"', '"type": "WIBBLE"', 1)
        with pytest.raises(SchemaViolation):
            deserialize(document)

    @pytest.mark.parametrize("path, value", [
        (("kc_nodes",), 5),
        (("kc_nodes", 0, "knowledge"), None),
        (("kc_nodes", 0, "origin_entries"), "abc"),
        (("kc_nodes", 0, "variants"), [7]),
        (("io_nodes", 0, "label"), 5),
        (("edges", 0, "src"), ["x"]),
        (("edges", 0, "type"), ["CALL"]),
    ])
    def test_schema_violation_on_wrongly_typed_field(self, fee_graph, path, value):
        document = json.loads(serialize(fee_graph))
        record = document
        for key in path[:-1]:
            record = record[key]
        record[path[-1]] = value
        with pytest.raises(SchemaViolation):
            deserialize(json.dumps(document))

    @pytest.mark.parametrize("source, target", [
        ("kc_nodes", "kc_nodes"), ("io_nodes", "io_nodes"), ("kc_nodes", "io_nodes"),
    ])
    def test_schema_violation_on_duplicate_node_id(self, fee_graph, source, target):
        document = json.loads(serialize(fee_graph))
        twin = dict(document[target][0], node_id=document[source][0]["node_id"])
        if target == "kc_nodes":
            twin["knowledge"] = "another text"
        document[target].append(twin)
        with pytest.raises(SchemaViolation, match="duplicate node_id"):
            deserialize(json.dumps(document))

    def test_not_json(self):
        with pytest.raises(SchemaViolation):
            deserialize("][")

    def test_canonical_same_graph_same_bytes(self, fee_corpus):
        first = serialize(build_graph(fee_corpus))
        second = serialize(build_graph(fee_corpus))
        assert first == second


class TestDotExport:
    def test_labels_and_edge_types_present(self, fee_graph):
        dot = to_dot(fee_graph)
        assert dot.startswith("digraph")
        assert '[label="compute_fee", shape=box]' in dot
        assert '[label="mcc (input)", shape=ellipse]' in dot
        assert 'label="CALL"' in dot and 'label="FEEDS"' in dot and 'label="YIELDS"' in dot


class TestBuildGraph:
    def test_fee_fixture_counts(self, fee_graph):
        assert len(fee_graph.kc_nodes) == 12
        assert len(fee_graph.io_nodes) == 6
        edge_types = [e.type for e in fee_graph.edges]
        assert edge_types.count(CALL) == 10
        assert edge_types.count(FEEDS) == 4
        assert edge_types.count(YIELDS) == 3

    def test_shared_function_has_both_origins(self, fee_graph):
        node = fee_graph.kc_nodes[kc_node_id("q1", "compute_fee")]
        assert node.origin_entries == ("q1", "q2")
        assert node.variants == ()  # identical bodies collapse without variants
