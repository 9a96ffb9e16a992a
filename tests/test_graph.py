from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    oracle_call_cycles,
    oracle_cyclic_components,
    oracle_deserialize,
    oracle_merge,
    oracle_reachable,
    oracle_serialize,
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
    EDGE_TYPES,
    FEEDS,
    INPUT,
    OUTPUT,
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


    def test_name_defined_16000_times_in_one_entry_in_linear_time(self):
        source = "".join(f"def f():\n    return {i}\n" for i in range(16000))
        corpus = corpus_of(make_entry("e", source + "def f():\n    return 0\n"))
        fragments = [build_trace_fragment(entry) for entry in corpus.entries]
        started = time.perf_counter()
        graph = assemble_raw_graph(fragments, corpus)
        assert time.perf_counter() - started < 0.5
        node = graph.kc_nodes[kc_node_id("e", "f")]
        assert node.code == "def f():\n    return 0"
        assert node.variants == tuple(f"def f():\n    return {i}" for i in range(1, 16000))


# Paragraphs of "a", "b" and runs of "\n", so that a paragraph, a note or
# the join of two notes may start or end with a line break.
PARAGRAPHS = st.lists(st.text(st.sampled_from("ab\n"), max_size=4), max_size=3)


@st.composite
def shared_name_graphs(draw):
    """Pre-merge graphs whose nodes share three names, with notes joined
    from PARAGRAPHS (empty notes among them), repeated origin entries, and
    variants that repeat one another or the node's own code."""
    bodies = st.sampled_from(["c0", "c1", "c2"])
    kc_nodes = {}
    for i in range(draw(st.integers(1, 8))):
        name = draw(st.sampled_from("fgh"))
        node_id = kc_node_id(f"e{i}", name)
        kc_nodes[node_id] = KnowledgeCodeNode(
            node_id, name, draw(bodies), "\n\n".join(draw(PARAGRAPHS)),
            tuple(draw(st.lists(st.sampled_from(["e0", "e1", "e2"]), max_size=3))),
            tuple(draw(st.lists(bodies, max_size=3))))
    ids = list(kc_nodes)
    edges = draw(st.lists(st.builds(Edge, st.sampled_from(ids), st.sampled_from(ids),
                                    st.just(CALL)), max_size=6))
    return DependencyGraph(kc_nodes=kc_nodes, edges=edges)


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

    def test_shared_note_gathered_paragraph_by_paragraph(self):
        note = {"rate": "Rates are per rule.\n\nRates are in basis points."}
        source = "def rate(x):\n    return x\n"
        graph = assemble(*(make_entry(f"e{i}", source, note) for i in (1, 2, 3)))
        node = merge_identical(graph).kc_nodes[kc_node_id("e1", "rate")]
        assert node.knowledge == note["rate"]

        fourth = {"rate": "Rates are in basis points.\n\nRates round down."}
        graph = assemble(*(make_entry(f"e{i}", source, note) for i in (1, 2, 3)),
                         make_entry("e4", source, fourth))
        node = merge_identical(graph).kc_nodes[kc_node_id("e1", "rate")]
        assert node.knowledge == note["rate"] + "\n\nRates round down."
        assert node.origin_entries == ("e1", "e2", "e3", "e4")

    @settings(max_examples=300, deadline=None)
    @given(shared_name_graphs())
    def test_matches_relabel_oracle_on_shared_names(self, graph):
        merged, expected = merge_identical(graph), oracle_merge(graph)
        assert merged == expected
        assert list(merged.kc_nodes) == list(expected.kc_nodes)

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


    def test_helper_shared_by_2000_entries_matches_oracle(self):
        # Knowledge texts: an empty one (no paragraph), repeats, two of two
        # paragraphs, one equal to a paragraph already gathered, and two
        # whose line breaks run on into the separator when joined.
        texts = ("shared", "", "two\n\nparts", "shared", "parts", "ends\n", "\nstarts",
                 "a\n\nb")
        bodies = ("def helper():\n    pass", "def helper():\n    return 1",
                  "def helper():\n    return 2")
        kc_nodes, edges = {}, set()
        for i in range(2000):
            helper, caller = kc_node_id(f"e{i}", "helper"), kc_node_id(f"e{i}", f"step{i}")
            kc_nodes[helper] = KnowledgeCodeNode(helper, "helper", bodies[i % 3],
                                                 texts[i % len(texts)], (f"e{i}",))
            kc_nodes[caller] = KnowledgeCodeNode(caller, f"step{i}", "c", "k", (f"e{i}",))
            edges.add(Edge(caller, helper, CALL))
        graph = DependencyGraph(kc_nodes=kc_nodes, edges=edges)
        merged, expected = merge_identical(graph), oracle_merge(graph)
        assert merged == expected
        assert list(merged.kc_nodes) == list(expected.kc_nodes)
        assert len(merged.kc_nodes) == 2001 and len(merged.edges) == 2000
        knowledge = merged.kc_nodes[kc_node_id("e0", "helper")].knowledge
        assert knowledge == "shared\n\ntwo\n\nparts\n\nends\n\n\n\nstarts\n\na\n\nb"

    def test_16000_copies_merge_in_linear_time(self):
        ids = [kc_node_id(f"e{i:05d}", "helper") for i in range(16000)]
        graph = DependencyGraph(kc_nodes={
            node_id: KnowledgeCodeNode(node_id, "helper", f"c{i % 3}", f"k{i % 5}", (node_id,))
            for i, node_id in enumerate(ids)})
        started = time.perf_counter()
        merged = merge_identical(graph)
        assert time.perf_counter() - started < 0.5
        node = merged.kc_nodes[ids[0]]
        assert node.origin_entries == tuple(ids)
        assert node.variants == ("c1", "c2")
        assert node.knowledge == "\n\n".join(f"k{i}" for i in range(5))


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


# The nodes of the one entry `test_structural_violation_flagged` builds.
A, B, X, Y = kc_node_id("e1", "a"), kc_node_id("e1", "b"), "io:input:x", "io:output:y"


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
        graph = graph._replace(edges=graph.edges | {Edge(kc_node_id("e1", "a"), "kc:e1:ghost", CALL)})
        report = validate_graph(graph)
        assert any("missing node" in v for v in report.violations)

    def test_unattached_io_flagged(self):
        graph = assemble(make_entry("e1", "def a(x):\n    return x\n"))
        graph = graph._replace(io_nodes={"io:input:x": IoNode(node_id="io:input:x", label="x",
                                                              kind=INPUT)})
        report = validate_graph(graph)
        assert any("unattached" in v for v in report.violations)

    @pytest.mark.parametrize("change, violation", [
        (lambda g: g._replace(kc_nodes={**g.kc_nodes, A: g.kc_nodes[A]._replace(knowledge="")}),
         f"kc node {A} has empty knowledge"),
        (lambda g: g._replace(io_nodes={**g.io_nodes, X: IoNode(X, "", INPUT)}),
         f"io node {X} has empty label"),
        (lambda g: g._replace(io_nodes={**g.io_nodes, X: IoNode(X, "x", "both")}),
         f"io node {X} has bad kind 'both'"),
        (lambda g: g._replace(edges=g.edges | {Edge(A, B, "USES")}),
         f"edge {Edge(A, B, 'USES')} has unknown type"),
        (lambda g: g._replace(edges=g.edges | {Edge(A, Y, CALL)}),
         f"CALL edge {Edge(A, Y, CALL)} must connect kc nodes"),
        (lambda g: g._replace(edges=g.edges | {Edge(A, B, FEEDS)}),
         f"FEEDS edge {Edge(A, B, FEEDS)} must run input io -> kc"),
        (lambda g: g._replace(edges=g.edges | {Edge(X, B, YIELDS)}),
         f"YIELDS edge {Edge(X, B, YIELDS)} must run kc -> output io"),
        (lambda g: g._replace(edges=g.edges - {Edge(A, Y, YIELDS)}),
         f"output io node {Y} is unattached"),
    ], ids=["empty-knowledge", "empty-label", "bad-kind", "unknown-edge-type", "call-to-io",
            "feeds-from-kc", "yields-to-kc", "output-unattached"])
    def test_structural_violation_flagged(self, change, violation):
        graph = build_graph(corpus_of(make_entry(
            "e1", "def a(x):\n    return b(x)\n\ndef b(x):\n    return x\n")))
        assert validate_graph(graph).violations == ()
        assert violation in validate_graph(change(graph)).violations

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
        with pytest.raises(AttributeError):
            node.knowledge = "changed"
        with pytest.raises(AttributeError):
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
        changed = graph._replace(edges={Edge("kc:e:f", "kc:e:f", CALL)})
        assert changed.cache == {} and "memo" in graph.cache
        assert changed.kc_nodes == graph.kc_nodes and graph.edges == frozenset()


class TestSerialization:
    def test_round_trip_equality(self, fee_graph):
        document = serialize(fee_graph)
        assert deserialize(document) == fee_graph
        assert fee_graph.__eq__(document) is NotImplemented and fee_graph != document

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


# Text with what a JSON writer must escape or may pass through: quotes,
# backslashes, control characters, non-ASCII, astral characters and lone
# surrogates, plus any other code point.
NASTY_TEXT = st.text(st.one_of(
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "/", "é", "\u2028",
                     "\U0001f600", "\ud800", "\udfff"]),
    st.characters(exclude_categories=()),
), max_size=12)


@st.composite
def nasty_graphs(draw):
    """Graphs whose every text is drawn from NASTY_TEXT, with empty and
    multi-element `origin_entries` and `variants`, and whose edges join
    existing nodes, so the document is also one `deserialize` accepts."""
    kc_ids = draw(st.lists(NASTY_TEXT, max_size=5, unique=True))
    kc_nodes = {node_id: KnowledgeCodeNode(
        node_id, draw(NASTY_TEXT), draw(NASTY_TEXT), draw(NASTY_TEXT),
        tuple(draw(st.lists(NASTY_TEXT, max_size=3))),
        tuple(draw(st.lists(NASTY_TEXT, max_size=3))),
    ) for node_id in kc_ids}
    io_ids = draw(st.lists(NASTY_TEXT.filter(lambda text: text not in kc_nodes),
                           max_size=4, unique=True))
    io_nodes = {node_id: IoNode(node_id, draw(NASTY_TEXT), draw(st.sampled_from([INPUT, OUTPUT])))
                for node_id in io_ids}
    ids = kc_ids + io_ids
    edges = set()
    if ids:
        edges = set(draw(st.lists(st.builds(Edge, st.sampled_from(ids), st.sampled_from(ids),
                                            st.sampled_from(sorted(EDGE_TYPES))), max_size=8)))
    return DependencyGraph(kc_nodes=kc_nodes, io_nodes=io_nodes, edges=edges)


def holds_surrogate_pair(text):
    """Whether a high surrogate directly precedes a low one in `text`."""
    return any("\ud800" <= high <= "\udbff" and "\udc00" <= low <= "\udfff"
               for high, low in zip(text, text[1:]))


def small_graphs(fee_graph, small_workloads):
    """The fee graph and both small benchmark graphs, by name."""
    graphs = {"fee": fee_graph}
    graphs.update((name, loaded[0]) for name, loaded in small_workloads.items())
    return graphs


class TestAgainstOracleWriter:
    """`serialize` writes the very bytes `json.dumps` writes."""

    def test_fee_small_benchmark_and_empty_graphs(self, fee_graph, small_workloads):
        graphs = small_graphs(fee_graph, small_workloads)
        graphs["empty"] = DependencyGraph()
        for name, graph in graphs.items():
            assert serialize(graph) == oracle_serialize(graph), name

    @settings(max_examples=100, deadline=None)
    @given(nasty_graphs())
    def test_nasty_text(self, graph):
        if any(map(holds_surrogate_pair, [*graph.kc_nodes, *graph.io_nodes])):
            with pytest.raises(SchemaViolation, match="surrogate pair"):
                serialize(graph)
            return
        document = serialize(graph)
        assert document == oracle_serialize(graph)
        assert document.isascii()
        # JSON reads an escaped surrogate pair as one astral character, so
        # the document, not the graph, is what must survive a round trip.
        assert deserialize(document) == oracle_deserialize(document)
        assert serialize(deserialize(document)) == document

    @pytest.mark.parametrize("ids", [
        ("\ud800\udfff", "\udfff"),  # read back, the pair sorts after the other id
        ("\ud800\udfff", "\U000103ff"),  # read back, the pair is the other id
    ])
    def test_id_with_surrogate_pair_refused(self, ids):
        graph = DependencyGraph(io_nodes={node_id: IoNode(node_id, "x", INPUT) for node_id in ids})
        with pytest.raises(SchemaViolation, match="surrogate pair"):
            serialize(graph)
        kc_graph = DependencyGraph(kc_nodes={ids[0]: KnowledgeCodeNode(ids[0], "f", "c", "k", ())})
        with pytest.raises(SchemaViolation, match="surrogate pair"):
            serialize(kc_graph)

    def test_lists_of_every_length(self):
        graph = DependencyGraph(kc_nodes={
            f"kc:{n}": KnowledgeCodeNode(f"kc:{n}", "f", "c", "k", ("e",) * n, ("v",) * (2 - n))
            for n in range(3)
        })
        assert serialize(graph) == oracle_serialize(graph)


def outcome(reader, document):
    """What `reader` makes of `document`: the graph, or the class and
    message of what it raised."""
    try:
        return reader(document)
    except Exception as exc:  # compared, so an unexpected kind shows too
        return type(exc), str(exc)


# A value of each JSON type.
JSON_VALUES = (None, True, 1, 1.5, "text", [], {})


def record_mutations(record, where):
    """(description, replacement) pairs for one record: a field dropped,
    added or renamed; every JSON type in every field; the record itself a
    non-object; a non-string in each string list."""
    for name in record:
        yield f"{where}: drop {name}", {k: v for k, v in record.items() if k != name}
        yield f"{where}: rename {name}", {(k + "_" if k == name else k): v
                                          for k, v in record.items()}
        for value in JSON_VALUES:
            yield f"{where}: {name} = {value!r}", dict(record, **{name: value})
    yield f"{where}: add a field", dict(record, bogus=1)
    for value in JSON_VALUES:
        if not isinstance(value, dict):
            yield f"{where}: record = {value!r}", value
    for name in ("origin_entries", "variants"):
        if name in record:
            for value in JSON_VALUES:
                if not isinstance(value, str):
                    yield (f"{where}: {name} holds {value!r}",
                           dict(record, **{name: record[name] + [value]}))


def document_mutations(document, picks):
    """(description, mutated document) pairs: every record mutation on
    the records `picks(records)` chooses of each kind, then mutations of
    meaning (kind, edge type, endpoints, ids, version) and of the
    document itself."""
    for section in ("kc_nodes", "io_nodes", "edges"):
        records = document[section]
        for i in picks(records):
            for description, replacement in record_mutations(records[i], f"{section}[{i}]"):
                mutated = dict(document, **{section: records[:i] + [replacement] + records[i + 1:]})
                yield description, mutated
    kc, io, edges = document["kc_nodes"], document["io_nodes"], document["edges"]

    def replaced(section, i, **fields):
        records = document[section]
        return dict(document, **{section: records[:i] + [dict(records[i], **fields)]
                                 + records[i + 1:]})

    for i in picks(io):
        yield f"io_nodes[{i}]: bad kind", replaced("io_nodes", i, kind="sideways")
    for i in picks(edges):
        yield f"edges[{i}]: bad type", replaced("edges", i, type="WIBBLE")
        yield f"edges[{i}]: dangling src", replaced("edges", i, src="kc:nowhere")
        yield f"edges[{i}]: dangling dst", replaced("edges", i, dst="io:nowhere")
        yield f"edges[{i}]: bad type and dangling", replaced("edges", i, type="X", src="x")
    for first, second in (("kc_nodes", "kc_nodes"), ("io_nodes", "io_nodes"),
                          ("kc_nodes", "io_nodes"), ("io_nodes", "kc_nodes")):
        for i in picks(document[second]):
            if (first, i) != (second, 0):
                twin_id = document[first][0]["node_id"]
                yield f"duplicate id {first}[0] at {second}[{i}]", replaced(second, i,
                                                                           node_id=twin_id)
    for value in ("2", "01", 1, None, ["1"]):
        yield f"format_version = {value!r}", dict(document, format_version=value)
    for name in document:
        yield f"document: drop {name}", {k: v for k, v in document.items() if k != name}
        for value in JSON_VALUES:
            yield f"document: {name} = {value!r}", dict(document, **{name: value})
    yield "document: add a field", dict(document, bogus=[])
    for value in JSON_VALUES:
        if not isinstance(value, dict):
            yield f"document = {value!r}", value
    if kc and edges:
        # Two faults: the first in document order is the one reported.
        yield "two faults", dict(document, kc_nodes=kc[:-1] + [dict(kc[-1], code=1)],
                                 edges=[dict(edges[0], src="x")] + edges[1:])


class TestAgainstOracleReader:
    """`deserialize` gives an equal graph, or the same exception class
    with the same message, as the retired reader."""

    def test_fee_document_every_record(self, fee_graph):
        document = json.loads(serialize(fee_graph))
        rejected = 0

        def every_record(records):
            return range(len(records))

        for description, mutated in document_mutations(document, every_record):
            text = json.dumps(mutated, indent=2)
            expected = outcome(oracle_deserialize, text)
            assert outcome(deserialize, text) == expected, description
            rejected += not isinstance(expected, DependencyGraph)
        assert rejected > 1500

    @pytest.mark.parametrize("workload", ["query", "cli"])
    def test_small_benchmark_documents(self, small_workloads, workload):
        graph = small_workloads[workload][0]
        document = json.loads(serialize(graph))
        rng = random.Random(workload)

        def picks(records):
            return sorted({0, len(records) - 1, rng.randrange(len(records))}) if records else []

        for description, mutated in document_mutations(document, picks):
            text = json.dumps(mutated)
            assert outcome(deserialize, text) == outcome(oracle_deserialize, text), description

    def test_valid_documents_read_equal(self, fee_graph, small_workloads):
        for name, graph in small_graphs(fee_graph, small_workloads).items():
            document = serialize(graph)
            assert deserialize(document) == oracle_deserialize(document) == graph, name
            # Key order and layout do not matter to either reader.
            shuffled = json.dumps({key: value for key, value in
                                   reversed(json.loads(document).items())})
            assert deserialize(shuffled) == graph, name

    @pytest.mark.parametrize("text", ["", "][", "[" * 100_000, '{"a": 1', "nan", "\"x\""])
    def test_not_a_document(self, text):
        assert outcome(deserialize, text) == outcome(oracle_deserialize, text)


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
