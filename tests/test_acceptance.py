"""Acceptance suite: one test per contract criterion, each printing a
single PASS/FAIL line. Run with ``pytest -s tests/test_acceptance.py``
to see the lines as they complete."""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

from conftest import FEE_NEEDED, FEE_QUESTION, FEE_UNNEEDED, FIXTURE_DIR
from oracles import oracle_merge, oracle_simple_paths, random_io_graph, random_premerge_graph
from sgkr.baselines import evaluate, load_gold, load_vectors, retrieve_topk
from sgkr.cli import main
from sgkr.context import assemble_context, render_prompt_block
from sgkr.graph import (
    FEEDS,
    INPUT,
    OUTPUT,
    YIELDS,
    DependencyGraph,
    Edge,
    IoNode,
    KnowledgeCodeNode,
    build_graph,
    merge_identical,
    serialize,
)
from sgkr.retriever import RetrievalLimits, find_paths, retrieve, retrieved_kc_names
from sgkr.tagger import extract_tags

WIDE = RetrievalLimits(max_depth=16, max_paths=10**6)


@contextmanager
def criterion(number: int, description: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


def plant_duplicate(graph: DependencyGraph, rng: random.Random) -> DependencyGraph:
    """The graph with at least one duplicated function name."""
    nodes = list(graph.kc_nodes.values())
    if len({n.function_name for n in nodes}) == len(nodes) and nodes:
        victim = rng.choice(nodes)
        copy = KnowledgeCodeNode(
            node_id=f"kc:extra:{victim.function_name}",
            function_name=victim.function_name,
            code=victim.code + "  # copy",
            knowledge="planted duplicate",
            origin_entries=("extra",),
        )
        graph = replace(graph, kc_nodes={**graph.kc_nodes, copy.node_id: copy})
    return graph


def test_criterion_1_merge_matches_bruteforce_oracle():
    with criterion(1, "merge equals relabel-and-dedup oracle on 1000 random graphs"):
        rng = random.Random(101)
        started = time.perf_counter()
        for _ in range(1000):
            graph = random_premerge_graph(rng, max_entries=5, max_funcs=6)
            graph = plant_duplicate(graph, rng)
            assert merge_identical(graph) == oracle_merge(graph)
        assert time.perf_counter() - started < 10.0


def test_criterion_2_merging_exposes_cross_trace_connectivity():
    with criterion(2, "merging connects input1 to output2 through the shared function"):
        kc_nodes, io_nodes, edges = {}, {}, set()
        for i, entry in (("1", "e1"), ("2", "e2")):
            kc_nodes[f"kc:{entry}:func1"] = KnowledgeCodeNode(
                node_id=f"kc:{entry}:func1", function_name="func1",
                code="def func1(x):\n    return x", knowledge="shared step",
                origin_entries=(entry,),
            )
            io_nodes[f"io:input:input{i}"] = IoNode(f"io:input:input{i}", f"input{i}", INPUT)
            io_nodes[f"io:output:output{i}"] = IoNode(f"io:output:output{i}", f"output{i}", OUTPUT)
            edges.add(Edge(f"io:input:input{i}", f"kc:{entry}:func1", FEEDS))
            edges.add(Edge(f"kc:{entry}:func1", f"io:output:output{i}", YIELDS))
        graph = DependencyGraph(kc_nodes=kc_nodes, io_nodes=io_nodes, edges=edges)

        before = find_paths(graph, ["io:input:input1"], ["io:output:output2"], WIDE)
        assert before == []

        merged = merge_identical(graph)
        after = find_paths(merged, ["io:input:input1"], ["io:output:output2"], WIDE)
        assert [p.nodes for p in after] == [
            ("io:input:input1", "kc:e1:func1", "io:output:output2"),
        ]


def test_criterion_3_bfs_matches_exhaustive_enumeration():
    with criterion(3, "BFS paths equal exhaustive simple-path enumeration on 500 graphs"):
        rng = random.Random(303)
        started = time.perf_counter()
        for _ in range(500):
            graph, sources, targets = random_io_graph(rng)
            got = {p.nodes for p in find_paths(graph, sources, targets, WIDE)}
            expected = oracle_simple_paths(graph, sources, targets, WIDE.max_depth)
            assert got == expected
        assert time.perf_counter() - started < 30.0


def test_criterion_4_fee_fixture_case_study(fee_graph, fee_vocab):
    with criterion(4, "fee-fixture question retrieves exactly the five needed functions"):
        started = time.perf_counter()
        tags = extract_tags(FEE_QUESTION, fee_vocab)
        result = retrieve(fee_graph, tags)
        retrieved = set(retrieved_kc_names(result, fee_graph))
        assert retrieved == FEE_NEEDED
        assert not retrieved & FEE_UNNEEDED

        gold = [g for g in load_gold(FIXTURE_DIR / "gold.json") if g.question == FEE_QUESTION]
        report = evaluate({FEE_QUESTION: retrieved}, gold)
        assert report.mean_precision == 1.0
        assert report.mean_recall == 1.0
        assert time.perf_counter() - started < 1.0


def test_criterion_5_kc_count_excludes_io_nodes(fee_graph, fee_vocab):
    with criterion(5, "retrieved node counts exclude semantic I/O nodes on every fixture query"):
        gold = load_gold(FIXTURE_DIR / "gold.json")
        questions = [g.question for g in gold] + [FEE_QUESTION, "most expensive mcc for mcc"]
        checked = 0
        for question in questions:
            result = retrieve(fee_graph, extract_tags(question, fee_vocab))
            kc_in_subgraph = {n for n in result.subgraph_nodes if n in fee_graph.kc_nodes}
            io_in_subgraph = {n for n in result.subgraph_nodes if n in fee_graph.io_nodes}
            count = len(retrieved_kc_names(result, fee_graph))
            assert count == len(kc_in_subgraph)
            assert count == len(result.subgraph_nodes) - len(io_in_subgraph)
            assert not io_in_subgraph & kc_in_subgraph
            if result.paths:
                assert io_in_subgraph  # every path starts and ends at io nodes
            checked += 1
        assert checked == len(questions)


def test_criterion_6_idempotence_and_determinism(fee_corpus, fee_graph, fee_vocab, tmp_path):
    with criterion(6, "merge idempotence and byte-identical documents and renderings"):
        rng = random.Random(606)
        for _ in range(1000):
            merged = merge_identical(random_premerge_graph(rng, max_entries=5, max_funcs=6))
            assert merge_identical(merged) == merged

        assert serialize(build_graph(fee_corpus)) == serialize(build_graph(fee_corpus))

        result = retrieve(fee_graph, extract_tags(FEE_QUESTION, fee_vocab))
        first = render_prompt_block(assemble_context(result, fee_graph))
        result_again = retrieve(fee_graph, extract_tags(FEE_QUESTION, fee_vocab))
        second = render_prompt_block(assemble_context(result_again, fee_graph))
        assert first == second

        documents = []
        for seed in ("1", "7777"):
            out = tmp_path / f"graph_{seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env.pop("SGKR_CONFIG", None)
            proc = subprocess.run(
                [sys.executable, "-m", "sgkr", "build",
                 "--manifest", str(FIXTURE_DIR / "manifest.json"), "--graph", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            documents.append(out.read_bytes())
        assert documents[0] == documents[1]


def test_criterion_7_fallback_contract(fee_graph, fee_vocab, tmp_path, capsys):
    with criterion(7, "questions missing an input or output tag fall back with empty context"):
        no_output = extract_tags("a transaction for this merchant", fee_vocab)
        assert no_output.inputs and not no_output.outputs and no_output.fallback
        no_input = extract_tags("just the average fee please", fee_vocab)
        assert no_input.outputs and not no_input.inputs and no_input.fallback
        nothing = extract_tags("hello world", fee_vocab)
        assert nothing.fallback

        for tags in (no_output, no_input, nothing):
            result = retrieve(fee_graph, tags)
            assert result.fallback and result.paths == ()
            bundle = assemble_context(result, fee_graph)
            assert bundle.knowledge_texts == () and bundle.code_examples == ()

        graph_path = tmp_path / "g.json"
        assert main(["build", "--manifest", str(FIXTURE_DIR / "manifest.json"),
                     "--graph", str(graph_path)]) == 0
        capsys.readouterr()
        exit_code = main(["query", "--graph", str(graph_path),
                          "--question", "a transaction for this merchant"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "FALLBACK" in captured.out
        assert "def " not in captured.out


def test_criterion_8_baseline_budget_contract(fee_graph):
    with criterion(8, "lexical and vector retrievers return exactly min(k, node count)"):
        vectors = load_vectors(FIXTURE_DIR / "vectors.txt")
        small = DependencyGraph(kc_nodes={f"kc:s:{name}": KnowledgeCodeNode(
            node_id=f"kc:s:{name}", function_name=name,
            code=f"def {name}():\n    pass", knowledge=f"about {name}",
            origin_entries=("s",),
        ) for name in ("alpha", "beta", "gamma")})
        small_vectors_lines = ["2"] + [f"{n}\t1.0 0.0" for n in ("alpha", "beta", "gamma")]
        small_vectors_lines.append("budget question\t0.5 0.5")
        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            vec_path = os.path.join(tmp, "small.txt")
            with open(vec_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(small_vectors_lines) + "\n")
            small_store = load_vectors(vec_path)

            for k in (1, 2, 5):
                assert len(retrieve_topk(FEE_QUESTION, fee_graph, k)) == min(k, 12)
                assert len(retrieve_topk(FEE_QUESTION, fee_graph, k,
                                         scorer="vectors", vectors=vectors)) == min(k, 12)
                assert len(retrieve_topk("budget question", small, k)) == min(k, 3)
                assert len(retrieve_topk("budget question", small, k,
                                         scorer="vectors", vectors=small_store)) == min(k, 3)
