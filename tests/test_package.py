"""The package's lazy exports, what a cold query imports, and the
read-only records and classes."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sgkr
from conftest import FEE_QUESTION, FIXTURE_DIR
from sgkr.baselines import evaluate, load_gold, load_vectors
from sgkr.context import assemble_context
from sgkr.graph import DependencyGraph, Edge, KnowledgeCodeNode, serialize, validate_graph
from sgkr.retriever import RetrievalLimits, retrieve, traversal_index
from sgkr.tagger import extract_tags

SRC = Path(__file__).resolve().parent.parent / "src"


class TestLazyPackage:
    def test_every_export_resolves_and_is_listed(self):
        listing = dir(sgkr)
        for name in sgkr.__all__:
            value = getattr(sgkr, name)
            module = sys.modules[f"sgkr.{sgkr._EXPORTS[name]}"]
            assert value is getattr(module, name)
            assert name in listing

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'nonesuch'"):
            sgkr.nonesuch  # noqa: B018


def cold_imports(argv):
    """Run `cli.main(argv)` in a fresh interpreter, started without `site`
    so that no start-up hook of the machine imports anything first. The
    result line gives the exit code and which of `dataclasses`, `inspect`,
    `sgkr.baselines` and `sgkr.parser` the command imported."""
    script = (
        "import sys\n"
        "from sgkr import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, sorted({'dataclasses', 'inspect', 'sgkr.baselines', 'sgkr.parser'}"
        " & sys.modules.keys()))\n"
    )
    env = {key: value for key, value in os.environ.items() if key != "SGKR_CONFIG"}
    env["PYTHONPATH"] = str(SRC)
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                            text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


def test_cold_query_imports_only_what_it_runs(fee_graph, tmp_path):
    document = tmp_path / "fee_graph.json"
    document.write_text(serialize(fee_graph), encoding="utf-8")
    assert cold_imports(["query", "--graph", str(document), "--aliases",
                         str(FIXTURE_DIR / "aliases.json"), "--question", FEE_QUESTION]) == "0 []"


def test_cold_eval_imports_only_what_it_runs(fee_graph, tmp_path):
    document = tmp_path / "fee_graph.json"
    document.write_text(serialize(fee_graph), encoding="utf-8")
    assert cold_imports([
        "eval", "--graph", str(document), "--gold", str(FIXTURE_DIR / "gold.json"),
        "--aliases", str(FIXTURE_DIR / "aliases.json"),
        "--vectors", str(FIXTURE_DIR / "vectors.txt"), "--methods", "sgkr,lexical,vectors",
    ]) == "0 ['sgkr.baselines']"


def every_record(fee_corpus, fee_graph, fee_vocab):
    """One instance of each read-only record and class."""
    tags = extract_tags(FEE_QUESTION, fee_vocab)
    result = retrieve(fee_graph, tags)
    entry = fee_corpus.entries[0]
    gold = load_gold(FIXTURE_DIR / "gold.json")
    report = evaluate({annotation.question: frozenset() for annotation in gold}, gold)
    return [
        fee_corpus, entry, entry.io_spec, entry.io_spec.inputs[0],
        fee_graph, next(iter(fee_graph.kc_nodes.values())),
        next(iter(fee_graph.io_nodes.values())), validate_graph(fee_graph),
        fee_vocab, tags, RetrievalLimits(), result, result.paths[0], result.paths[0].edges[0],
        traversal_index(fee_graph).blocks, assemble_context(result, fee_graph),
        load_vectors(FIXTURE_DIR / "vectors.txt"), gold[0], report, report.per_question[0][1],
    ]


class TestReadOnly:
    def test_fields_cannot_be_set_added_or_deleted(self, fee_corpus, fee_graph, fee_vocab):
        records = every_record(fee_corpus, fee_graph, fee_vocab)
        assert len({type(record).__name__ for record in records}) == 20
        for record in records:
            fields = getattr(record, "_fields", None) or type(record).__slots__
            with pytest.raises(AttributeError):
                setattr(record, fields[0], None)
            with pytest.raises(AttributeError):
                delattr(record, fields[0])
            with pytest.raises(AttributeError):
                record.extra = None

    def test_graph_equality_ignores_cache(self):
        node = KnowledgeCodeNode("kc:e:f", "f", "c", "k", ("e",))
        graph = DependencyGraph(kc_nodes={node.node_id: node})
        same = DependencyGraph(kc_nodes={node.node_id: node})
        graph.cache["memo"] = object()
        assert graph == same and same.cache == {}
        assert graph != same._replace(edges={Edge("kc:e:f", "kc:e:f", "CALL")})
        assert graph != DependencyGraph()


def test_replaced_limits_are_checked():
    assert RetrievalLimits()._replace(max_paths=3) == RetrievalLimits(max_paths=3)
    with pytest.raises(ValueError, match="must be positive"):
        RetrievalLimits()._replace(max_depth=0)
