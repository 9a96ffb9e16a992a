from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from conftest import FEE_QUESTION, FIXTURE_DIR
from sgkr import cli, retriever
from sgkr.cli import main
from sgkr.context import FUNCTIONS_HEADER, KNOWLEDGE_HEADER

MANIFEST = str(FIXTURE_DIR / "manifest.json")
ALIASES = str(FIXTURE_DIR / "aliases.json")
GOLD = str(FIXTURE_DIR / "gold.json")
VECTORS = str(FIXTURE_DIR / "vectors.txt")


def write_corpus(directory, sources, knowledge=None):
    """A manifest with one entry per (entry id, source) pair; each entry's
    input and output anchor at the first function it defines."""
    entries = []
    for entry_id, source in sources.items():
        (directory / f"{entry_id}.py").write_text(source)
        anchor = source.split("def ", 1)[1].split("(", 1)[0]
        entries.append({
            "id": entry_id, "source": f"{entry_id}.py",
            "inputs": [{"label": f"{entry_id} in", "anchor": anchor}],
            "outputs": [{"label": f"{entry_id} out", "anchor": anchor}],
            "knowledge": (knowledge or {}).get(entry_id, {}),
        })
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({"corpus_name": "t", "version": "1", "entries": entries}))
    return str(manifest)


@pytest.fixture()
def graph_path(tmp_path):
    out = tmp_path / "fee_graph.json"
    assert main(["build", "--manifest", MANIFEST, "--graph", str(out)]) == 0
    return str(out)


class TestBuild:
    def test_summary_mentions_node_count(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = main(["build", "--manifest", MANIFEST, "--graph", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "12 kc-nodes" in captured.out
        assert out.exists()

    def test_missing_manifest_nonzero_exit(self, tmp_path, capsys):
        code = main(["build", "--manifest", str(tmp_path / "nope.json"),
                     "--graph", str(tmp_path / "g.json")])
        captured = capsys.readouterr()
        assert code != 0
        assert "not found" in captured.err

    def test_empty_corpus_builds_empty_graph(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            {"corpus_name": "empty", "version": "1", "entries": []}))
        out = tmp_path / "g.json"
        code = main(["build", "--manifest", str(manifest), "--graph", str(out)])
        assert code == 0
        assert "0 kc-nodes" in capsys.readouterr().out

    def test_rebuild_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["build", "--manifest", MANIFEST, "--graph", str(first)]) == 0
        assert main(["build", "--manifest", MANIFEST, "--graph", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_rebuild_identical_across_hash_seeds(self, tmp_path):
        # Different PYTHONHASHSEED values shuffle set iteration order;
        # the written document must not care.
        outputs = []
        for seed in ("0", "424242"):
            out = tmp_path / f"g{seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env.pop("SGKR_CONFIG", None)
            result = subprocess.run(
                [sys.executable, "-m", "sgkr", "build",
                 "--manifest", MANIFEST, "--graph", str(out)],
                capture_output=True, text=True, env=env,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_fee_output_matches_recorded(self, tmp_path, capsys):
        out = tmp_path / "fee_graph.json"
        assert main(["build", "--manifest", MANIFEST, "--graph", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "built graph: 12 kc-nodes, 6 io-nodes, 17 edges; duplicate nodes merged: 1\n"
            "call cycles: 0\n"
            f"wrote {out}\n"
        )
        assert captured.err == ""
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "063b575c918a3537dd042ce6ce922443d57524d5549249ade5b2af0c03fe1534"

    def test_unknown_annotated_function_is_one_error(self, tmp_path, capsys):
        manifest = write_corpus(tmp_path, {"e1": "def a(x):\n    return x\n"},
                                knowledge={"e1": {"ghost": "never defined"}})
        code = main(["build", "--manifest", manifest, "--graph", str(tmp_path / "g.json")])
        lines = capsys.readouterr().err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith("error:") and "'ghost'" in lines[0]

    def test_cycle_knot_prints_one_line_per_component(self, tmp_path, capsys):
        # e1's three functions call each other (three simple cycles); e2's
        # two call each other (one more). That is two components.
        manifest = write_corpus(tmp_path, {
            "e1": "def a():\n    b()\n    c()\n\ndef b():\n    c()\n    a()\n\n"
                  "def c():\n    a()\n",
            "e2": "def d():\n    e()\n\ndef e():\n    d()\n",
        })
        code = main(["build", "--manifest", manifest, "--graph", str(tmp_path / "g.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "call cycles: 2\n" in out
        assert [line for line in out.splitlines() if "cycle:" in line] == [
            "  cycle: kc:e1:a -> kc:e1:b -> kc:e1:a",
            "  cycle: kc:e2:d -> kc:e2:e -> kc:e2:d",
        ]


class TestQuery:
    def test_fee_question_renders_five_functions(self, graph_path, capsys):
        code = main(["query", "--graph", graph_path, "--aliases", ALIASES,
                     "--question", FEE_QUESTION])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.count("def ") == 5
        assert KNOWLEDGE_HEADER in captured.out

    def test_gibberish_falls_back_exit_zero(self, graph_path, capsys):
        code = main(["query", "--graph", graph_path, "--question", "blorp zorp"])
        captured = capsys.readouterr()
        assert code == 0
        assert "FALLBACK" in captured.out
        assert "def " not in captured.out

    def test_depth_limit_yields_empty_context_with_note(self, graph_path, capsys):
        code = main(["query", "--graph", graph_path, "--aliases", ALIASES,
                     "--question", FEE_QUESTION, "--max-depth", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert "note:" in captured.out
        assert "def " not in captured.out
        assert FUNCTIONS_HEADER in captured.out

    def test_structured_output(self, graph_path, capsys):
        code = main(["query", "--graph", graph_path, "--aliases", ALIASES,
                     "--question", FEE_QUESTION, "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["fallback"] is False
        assert payload["retrieved_kc_count"] == 5
        assert len(payload["functions"]) == 5

    def test_missing_graph_nonzero(self, tmp_path, capsys):
        code = main(["query", "--graph", str(tmp_path / "ghost.json"),
                     "--question", "anything"])
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_repeat_query_byte_identical(self, graph_path, capsys):
        main(["query", "--graph", graph_path, "--aliases", ALIASES,
              "--question", FEE_QUESTION])
        first = capsys.readouterr().out
        main(["query", "--graph", graph_path, "--aliases", ALIASES,
              "--question", FEE_QUESTION])
        assert capsys.readouterr().out == first

    def test_work_budget_note(self, graph_path, capsys, monkeypatch):
        monkeypatch.setattr(retriever, "_MAX_EXPANSIONS", 3)
        code = main(["query", "--graph", graph_path, "--aliases", ALIASES,
                     "--question", FEE_QUESTION])
        captured = capsys.readouterr()
        assert code == 0
        assert "(work budget reached)" in captured.out
        assert "(depth limit reached)" not in captured.out

    def test_disconnected_question_has_no_limit_note(self, tmp_path, capsys):
        manifest = write_corpus(tmp_path, {"e1": "def f():\n    pass\n",
                                           "e2": "def g():\n    pass\n"})
        graph = tmp_path / "g.json"
        assert main(["build", "--manifest", manifest, "--graph", str(graph)]) == 0
        capsys.readouterr()
        code = main(["query", "--graph", str(graph), "--question", "from e1 in to e2 out"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("note: no dependency paths found\n")


class TestEval:
    def test_three_methods_table(self, graph_path, capsys):
        code = main(["eval", "--graph", graph_path, "--gold", GOLD,
                     "--aliases", ALIASES, "--methods", "sgkr,lexical,vectors",
                     "--vectors", VECTORS, "--k", "5"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert any(line.startswith("sgkr") for line in lines)
        assert any(line.startswith("lexical") for line in lines)
        assert any(line.startswith("vectors") for line in lines)

    def test_sgkr_scores_perfectly_on_fixture(self, graph_path, capsys):
        code = main(["eval", "--graph", graph_path, "--gold", GOLD,
                     "--aliases", ALIASES, "--methods", "sgkr",
                     "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["sgkr"]["mean_precision"] == 1.0
        assert payload["sgkr"]["mean_recall"] == 1.0

    def test_k_forwarded_to_lexical(self, graph_path, capsys):
        code = main(["eval", "--graph", graph_path, "--gold", GOLD,
                     "--methods", "lexical", "--k", "2", "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["lexical"]["mean_retrieved"] == 2.0

    def test_empty_gold_is_error(self, graph_path, tmp_path, capsys):
        empty = tmp_path / "gold.json"
        empty.write_text("[]")
        code = main(["eval", "--graph", graph_path, "--gold", str(empty)])
        assert code != 0
        assert "no questions" in capsys.readouterr().err

    def test_unknown_gold_function_is_error(self, graph_path, tmp_path, capsys):
        bad = tmp_path / "gold.json"
        bad.write_text(json.dumps([{
            "question": "q", "needed": ["not_a_function"], "unneeded": [],
        }]))
        code = main(["eval", "--graph", graph_path, "--gold", str(bad)])
        assert code != 0


    def test_work_budget_note_on_stderr(self, graph_path, capsys, monkeypatch):
        argv = ["eval", "--graph", graph_path, "--gold", GOLD, "--aliases", ALIASES,
                "--methods", "sgkr,lexical"]
        assert main(argv) == 0
        unbudgeted = capsys.readouterr()
        assert unbudgeted.err == ""
        monkeypatch.setattr(retriever, "_MAX_EXPANSIONS", 3)
        assert main(argv) == 0
        captured = capsys.readouterr()
        question = json.loads(open(GOLD, encoding="utf-8").read())[0]["question"]
        assert f"note: search for {question!r} stopped at the work budget\n" in captured.err
        assert "note:" not in captured.out

    @pytest.mark.parametrize("record", [
        {"question": "q", "needed": 5, "unneeded": []},
        {"question": "q", "needed": [["a"]], "unneeded": []},
        {"question": 5, "needed": [], "unneeded": []},
    ], ids=["needed-int", "needed-nested-list", "question-int"])
    def test_wrongly_typed_gold_is_error(self, graph_path, tmp_path, capsys, record):
        bad = tmp_path / "gold.json"
        bad.write_text(json.dumps([record]))
        code = main(["eval", "--graph", graph_path, "--gold", str(bad)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: gold[0]: ")
        assert "Traceback" not in captured.err

    def test_wrongly_typed_alias_label_is_error(self, graph_path, tmp_path, capsys):
        bad = tmp_path / "aliases.json"
        bad.write_text(json.dumps({"fee alias": {"label": 5, "kind": "input"}}))
        code = main(["query", "--graph", graph_path, "--aliases", str(bad),
                     "--question", FEE_QUESTION])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: alias 'fee alias': label must be a string\n"


class TestInspect:
    def test_lists_nodes_and_edges(self, graph_path, capsys):
        code = main(["inspect", "--graph", graph_path])
        captured = capsys.readouterr()
        assert code == 0
        assert "kc-nodes (12):" in captured.out
        assert "io-nodes (6):" in captured.out
        assert "edges (17):" in captured.out

    def test_dot_output(self, graph_path, capsys):
        code = main(["inspect", "--graph", graph_path, "--dot"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("digraph")

    def test_structured_prints_canonical_document(self, graph_path, capsys):
        code = main(["inspect", "--graph", graph_path, "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 0
        from pathlib import Path
        assert captured.out == Path(graph_path).read_text()

    def test_empty_graph_empty_listing(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(
            {"corpus_name": "empty", "version": "1", "entries": []}))
        out = tmp_path / "g.json"
        assert main(["build", "--manifest", str(manifest), "--graph", str(out)]) == 0
        capsys.readouterr()
        assert main(["inspect", "--graph", str(out)]) == 0
        captured = capsys.readouterr()
        assert "kc-nodes (0):" in captured.out
        assert "edges (0):" in captured.out

    def test_unknown_flag_usage_error(self, graph_path):
        with pytest.raises(SystemExit) as err:
            main(["inspect", "--graph", graph_path, "--wibble"])
        assert err.value.code == 2

    def test_nonpositive_limit_rejected(self, graph_path, capsys):
        code = main(["query", "--graph", graph_path, "--question", "x",
                     "--max-depth", "0"])
        assert code != 0
        assert "positive" in capsys.readouterr().err


class TestInputEncoding:
    @pytest.mark.parametrize("flag", ["--graph", "--manifest", "source", "--aliases",
                                      "--gold", "--vectors"])
    def test_non_utf8_input_is_error(self, graph_path, tmp_path, capsys, flag):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe{}\n")
        if flag == "--graph":
            argv = ["query", "--graph", str(bad), "--question", FEE_QUESTION]
        elif flag in ("--manifest", "source"):
            manifest = write_corpus(tmp_path, {"e1": "def f():\n    pass\n"})
            if flag == "source":
                (tmp_path / "e1.py").write_bytes(b"\xff\xfedef f():\n    pass\n")
                bad = tmp_path / "e1.py"
            else:
                manifest = str(bad)
            argv = ["build", "--manifest", manifest, "--graph", str(tmp_path / "g.json")]
        elif flag == "--aliases":
            argv = ["query", "--graph", graph_path, "--aliases", str(bad),
                    "--question", FEE_QUESTION]
        else:
            argv = ["eval", "--graph", graph_path, "--gold", GOLD, "--vectors", VECTORS,
                    "--methods", "sgkr,vectors", flag, str(bad)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error: {bad}: not UTF-8")
        assert "Traceback" not in captured.err


class TestDeeplyNestedJson:
    """JSON nested deeper than the decoder's recursion limit is an input
    error like any other malformed JSON, in every JSON file the CLI reads."""

    @pytest.mark.parametrize("kind", ["graph", "manifest", "aliases", "gold", "config"])
    def test_is_error_not_traceback(self, kind, graph_path, tmp_path, capsys, monkeypatch):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        argv = {
            "graph": ["query", "--graph", str(deep), "--question", FEE_QUESTION],
            "manifest": ["build", "--manifest", str(deep), "--graph", str(tmp_path / "g.json")],
            "aliases": ["query", "--graph", graph_path, "--aliases", str(deep),
                        "--question", FEE_QUESTION],
            "gold": ["eval", "--graph", graph_path, "--gold", str(deep)],
            "config": ["query", "--graph", graph_path, "--question", FEE_QUESTION],
        }[kind]
        if kind == "config":
            monkeypatch.setenv("SGKR_CONFIG", str(deep))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines()[-1].startswith("error:")
        assert "Traceback" not in captured.err


class TestConfigFile:
    def test_env_config_supplies_defaults(self, graph_path, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"graph": graph_path, "aliases": ALIASES}))
        monkeypatch.setenv("SGKR_CONFIG", str(config))
        code = main(["query", "--question", FEE_QUESTION])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.count("def ") == 5

    def test_flags_override_config(self, graph_path, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"graph": graph_path, "aliases": ALIASES,
                                      "max_depth": 1}))
        monkeypatch.setenv("SGKR_CONFIG", str(config))
        code = main(["query", "--question", FEE_QUESTION, "--max-depth", "16"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.count("def ") == 5

    def test_malformed_config_is_error(self, graph_path, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text('{"graph": ')
        monkeypatch.setenv("SGKR_CONFIG", str(config))
        code = main(["query", "--graph", graph_path, "--question", FEE_QUESTION])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: config file")

    def test_wrongly_typed_config_field_is_error(self, graph_path, tmp_path, capsys,
                                                 monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"graph": graph_path, "max_depth": "3"}))
        monkeypatch.setenv("SGKR_CONFIG", str(config))
        code = main(["query", "--question", FEE_QUESTION])
        assert code == 1
        assert "'max_depth' must be int" in capsys.readouterr().err

    def test_unknown_config_field_rejected(self, graph_path, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"graph": graph_path, "mystery": 1}))
        monkeypatch.setenv("SGKR_CONFIG", str(config))
        code = main(["query", "--question", FEE_QUESTION])
        assert code != 0
