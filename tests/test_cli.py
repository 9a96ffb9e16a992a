from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FEE_QUESTION, FIXTURE_DIR
from sgkr import cli, retriever, tagger
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

    @pytest.mark.parametrize("flag, message", [
        (["--graph", "g.json"], "no manifest given (--manifest)"),
        (["--manifest", MANIFEST], "no output path given (--graph)"),
    ])
    def test_missing_path_is_error(self, flag, message, capsys):
        assert main(["build", *flag]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_invariant_violation_is_a_warning_line(self, tmp_path, capsys):
        # "??" normalizes to the empty label, which the validator flags.
        (tmp_path / "e.py").write_text("def f(x):\n    return x\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"corpus_name": "t", "version": "1", "entries": [{
            "id": "e", "source": "e.py",
            "inputs": [{"label": "??", "anchor": "f"}],
            "outputs": [{"label": "y", "anchor": "f"}],
            "knowledge": {},
        }]}))
        code = main(["build", "--manifest", str(manifest), "--graph", str(tmp_path / "g.json")])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == "warning: io node io:input: has empty label\n"
        assert "wrote" in captured.out

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

    def test_unencodable_cycle_line_is_escaped(self, tmp_path, capsys):
        # The entry id holds a lone surrogate (the JSON escape "\ud800"),
        # which the cycle line names and no UTF-8 stream can print as is.
        (tmp_path / "e.py").write_text("def f(x):\n    return f(x)\n")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"corpus_name": "t", "version": "1", "entries": [{
            "id": "e\ud800", "source": "e.py",
            "inputs": [{"label": "x", "anchor": "f"}],
            "outputs": [{"label": "y", "anchor": "f"}],
            "knowledge": {},
        }]}))
        out = tmp_path / "g.json"
        errors = sys.stdout.errors
        code = main(["build", "--manifest", str(manifest), "--graph", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "  cycle: kc:e\\ud800:f -> kc:e\\ud800:f\n" in captured.out
        assert captured.err == ""
        assert "kc:e\\ud800:f" in out.read_text(encoding="utf-8")
        assert sys.stdout.errors == errors


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

    @settings(max_examples=100, deadline=None)
    @given(st.recursive(st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
                        | st.text(max_size=5),
                        lambda children: st.lists(children, max_size=4)
                        | st.dictionaries(st.text(max_size=3), children, max_size=4),
                        max_leaves=40),
           st.integers(0, 3000))
    def test_structured_writer_is_json_dumps(self, value, width):
        # `width` items give the encoder up to ~6 000 pieces, which it
        # writes in more than one batch.
        payload = {"value": value, "items": list(range(width))}
        out = io.StringIO()
        cli._write_json(payload, out)
        assert out.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_structured_output(self, graph_path, capsys):
        code = main(["query", "--graph", graph_path, "--aliases", ALIASES,
                     "--question", FEE_QUESTION, "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["fallback"] is False
        assert payload["retrieved_kc_count"] == 5
        assert len(payload["functions"]) == 5
        code = main(["query", "--graph", graph_path, "--question", "blorp zorp",
                     "--format", "structured"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["fallback"] is True
        assert payload["retrieved_kc_count"] == 0
        assert payload["functions"] == []

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
        monkeypatch.setattr(retriever, "_MAX_SCANS", 3)
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

    def test_unencodable_knowledge_answers_in_both_formats(self, tmp_path, capsys):
        # The manifest spells a lone surrogate as the JSON escape "\ud800":
        # valid JSON, and kept as an escape in the ASCII graph document,
        # but no UTF-8 stream can print it as is.
        manifest = write_corpus(tmp_path, {"e1": "def f():\n    pass\n"},
                                knowledge={"e1": {"f": "fee \ud800"}})
        assert "\\ud800" in (tmp_path / "manifest.json").read_text()
        graph = tmp_path / "g.json"
        assert main(["build", "--manifest", manifest, "--graph", str(graph)]) == 0
        capsys.readouterr()
        argv = ["query", "--graph", str(graph), "--question", "from e1 in to e1 out"]
        errors = sys.stdout.errors
        assert main(argv + ["--format", "structured"]) == 0
        assert json.loads(capsys.readouterr().out)["knowledge"][0]["knowledge"] == "fee \ud800"
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "fee \\ud800\n" in captured.out
        assert captured.err == ""
        assert sys.stdout.errors == errors


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
        monkeypatch.setattr(retriever, "_MAX_SCANS", 3)
        assert main(argv) == 0
        captured = capsys.readouterr()
        question = json.loads(Path(GOLD).read_text(encoding="utf-8"))[0]["question"]
        assert f"note: search for {question!r} stopped at the work budget\n" in captured.err
        assert "note:" not in captured.out

    @pytest.mark.parametrize("form", ["text", "structured"])
    def test_method_named_twice_is_scored_once(self, graph_path, capsys, monkeypatch, form):
        calls = {"build_vocabulary": 0, "retrieve": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        argv = ["eval", "--graph", graph_path, "--gold", GOLD, "--aliases", ALIASES,
                "--format", form, "--methods"]
        assert main(argv + ["sgkr,lexical"]) == 0
        once = capsys.readouterr()
        monkeypatch.setattr(tagger, "build_vocabulary",
                            counting("build_vocabulary", tagger.build_vocabulary))
        monkeypatch.setattr(retriever, "retrieve", counting("retrieve", retriever.retrieve))
        assert main(argv + ["sgkr,lexical,sgkr"]) == 0
        assert capsys.readouterr() == once
        gold = json.loads(Path(GOLD).read_text(encoding="utf-8"))
        # The first run kept the vocabulary beside the graph document.
        assert calls == {"build_vocabulary": 0, "retrieve": len(gold)}

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
        assert captured.err == "error: alias 'fee alias': 'label' must be a str\n"

    @pytest.mark.parametrize("methods, message", [
        ("sgkr,bogus", "unknown method 'bogus' (expected sgkr, lexical, vectors)"),
        ("sgkr,vectors", "method 'vectors' requires --vectors"),
        (",", "no methods given (--methods)"),
    ])
    def test_bad_methods_fail_before_any_retrieval(self, graph_path, capsys, monkeypatch,
                                                   methods, message):
        def no_retrieval(*args):
            raise AssertionError("retrieve called")

        monkeypatch.setattr(retriever, "retrieve", no_retrieval)
        code = main(["eval", "--graph", graph_path, "--gold", GOLD, "--methods", methods])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"


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

    @pytest.mark.parametrize("flags", [["--dot", "--format", "structured"],
                                       ["--format", "structured", "--dot"],
                                       ["--dot", "--format", "text"]])
    def test_dot_with_format_is_usage_error(self, graph_path, flags, capsys):
        with pytest.raises(SystemExit) as err:
            main(["inspect", "--graph", graph_path, *flags])
        assert err.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_structured_prints_canonical_document(self, graph_path, capsys):
        code = main(["inspect", "--graph", graph_path, "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 0
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

    @pytest.mark.parametrize("flag", [["--max-depth", "3"], ["--max-paths", "3"],
                                      ["--aliases", ALIASES]])
    def test_search_flags_are_usage_errors(self, graph_path, flag, capsys):
        with pytest.raises(SystemExit) as err:
            main(["inspect", "--graph", graph_path, *flag])
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_nonpositive_limit_rejected(self, graph_path, capsys):
        code = main(["query", "--graph", graph_path, "--question", "x",
                     "--max-depth", "0"])
        assert code != 0
        assert "positive" in capsys.readouterr().err


LIMIT_ERROR = "retrieval limits must be positive: RetrievalLimits(max_depth=0, max_paths=64)"


class TestFlagsBeforeFiles:
    """A bad flag is reported before any file is read, so a missing graph
    does not hide it."""

    def test_query_limit(self, tmp_path, capsys):
        code = main(["query", "--graph", str(tmp_path / "ghost.json"), "--question", "x",
                     "--max-depth", "0"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {LIMIT_ERROR}\n"

    @pytest.mark.parametrize("flag, message", [
        (["--k", "0"], "baseline budget k must be >= 1"),
        (["--max-depth", "0"], LIMIT_ERROR),
    ])
    def test_eval_flags(self, tmp_path, capsys, flag, message):
        code = main(["eval", "--graph", str(tmp_path / "ghost.json"),
                     "--gold", str(tmp_path / "ghost_gold.json"), *flag])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"


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



class TestClosedStdout:
    """A stdout whose flush fails, as on a pipe whose reader has gone:
    `main` flushes it when it sets and restores the escape rule, and a
    failed flush ends in an `error:` line with the collector restored."""

    class ClosedPipe(io.TextIOWrapper):
        def __init__(self, fail_from):
            super().__init__(io.BytesIO(), encoding="utf-8")
            self.fail_from = fail_from

        def flush(self):
            if self.errors in self.fail_from:
                raise BrokenPipeError(32, "Broken pipe")
            super().flush()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("fail_from", [("strict", "backslashreplace"), ("backslashreplace",)],
                             ids=["on-set", "on-restore"])
    def test_error_line_and_collector_restored(self, graph_path, capsys, monkeypatch,
                                               fail_from, enabled):
        stream = self.ClosedPipe(fail_from)
        monkeypatch.setattr(sys, "stdout", stream)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            code = main(["inspect", "--graph", graph_path, "--dot"])
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
            stream.fail_from = ()  # the stream is flushed again when it is freed
        assert code == 1
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

class TestCollectorState:
    """`main` runs the command with the cyclic collector off and freezes
    nothing, and returns with the collector as it found it: enabled or
    not, and the same freeze count, which only falls as frozen objects
    are freed."""

    @pytest.fixture(params=[(True, False), (False, False), (True, True), (False, True)],
                    ids=["enabled", "disabled", "enabled-frozen", "disabled-frozen"])
    def collector(self, request):
        enabled, frozen = request.param
        # Nothing in the test process freezes objects but `main`, which
        # must have unfrozen them again, in this test or any earlier one.
        assert gc.get_freeze_count() == 0
        was_enabled = gc.isenabled()
        if frozen:
            gc.freeze()
        if not enabled:
            gc.disable()
        try:
            yield gc.isenabled(), gc.get_freeze_count()
        finally:
            gc.unfreeze()
            if was_enabled:
                gc.enable()

    @pytest.mark.parametrize("case", ["loaded", "missing", "not-utf8", "not-json", "schema"])
    def test_left_as_found(self, case, collector, graph_path, tmp_path, capsys, monkeypatch):
        seen = {}
        deserialize = cli.graphmod.deserialize
        build_vocab = cli._build_vocab

        def spy_deserialize(document):
            seen["enabled while reading"] = gc.isenabled()
            return deserialize(document)

        def spy_build_vocab(g, aliases_path):
            seen["after loading"] = gc.isenabled(), gc.get_freeze_count()
            return build_vocab(g, aliases_path)

        monkeypatch.setattr(cli.graphmod, "deserialize", spy_deserialize)
        monkeypatch.setattr(cli, "_build_vocab", spy_build_vocab)
        document = tmp_path / "graph.json"
        if case == "loaded":
            document = graph_path
        elif case == "not-utf8":
            document.write_bytes(b"\xff\xfe{}\n")
        elif case == "not-json":
            document.write_text("][")
        elif case == "schema":
            document.write_text('{"format_version": "1"}')
        enabled, frozen = collector
        code = main(["query", "--graph", str(document), "--question", FEE_QUESTION])
        captured = capsys.readouterr()
        assert gc.isenabled() == enabled
        assert gc.get_freeze_count() == 0 if not frozen else 0 < gc.get_freeze_count() <= frozen
        if case == "loaded":
            assert code == 0 and FUNCTIONS_HEADER in captured.out
            assert seen["enabled while reading"] is False
            after_enabled, after_frozen = seen["after loading"]
            assert after_enabled is False
            assert after_frozen == 0 if not frozen else 0 < after_frozen <= frozen
        else:
            assert code == 1 and captured.err.startswith("error: ")
            assert "after loading" not in seen
            assert seen.get("enabled while reading", False) is False

    def test_earlier_garbage_stays_young(self, graph_path, capsys):
        # A caller's cyclic garbage made before an in-process call is still
        # freed by a young collection after it. The collector is off around
        # the call so that no automatic collection frees it first.
        class Cyclic:
            pass

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            garbage = Cyclic()
            garbage.self = garbage
            freed = weakref.ref(garbage)
            del garbage
            assert main(["query", "--graph", graph_path, "--question", FEE_QUESTION]) == 0
            gc.collect(1)
            assert freed() is None
        finally:
            if was_enabled:
                gc.enable()
        assert FUNCTIONS_HEADER in capsys.readouterr().out


class TestDeeplyNestedJson:
    """JSON that `json.loads` refuses although it is well formed is an
    input error like any other malformed JSON, in every JSON file the CLI
    reads: nesting deeper than the decoder's recursion limit, and an
    integer longer than the interpreter's digit limit. On a Python without
    that limit the integer is read, and then rejected as a wrongly typed
    document; either way the command ends in one `error:` line."""

    KINDS = ["graph", "manifest", "aliases", "gold", "config"]

    def run(self, kind, text, graph_path, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        argv = {
            "graph": ["query", "--graph", str(bad), "--question", FEE_QUESTION],
            "manifest": ["build", "--manifest", str(bad), "--graph", str(tmp_path / "g.json")],
            "aliases": ["query", "--graph", graph_path, "--aliases", str(bad),
                        "--question", FEE_QUESTION],
            "gold": ["eval", "--graph", graph_path, "--gold", str(bad)],
            "config": ["query", "--graph", graph_path, "--question", FEE_QUESTION],
        }[kind]
        if kind == "config":
            monkeypatch.setenv("SGKR_CONFIG", str(bad))
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.splitlines()[-1].startswith("error:")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("kind", KINDS)
    def test_is_error_not_traceback(self, kind, graph_path, tmp_path, capsys, monkeypatch):
        self.run(kind, "[" * 200_000, graph_path, tmp_path, capsys, monkeypatch)

    @pytest.mark.parametrize("kind", KINDS)
    def test_long_integer_is_error_not_traceback(self, kind, graph_path, tmp_path, capsys,
                                                 monkeypatch):
        self.run(kind, "9" * 5_000, graph_path, tmp_path, capsys, monkeypatch)


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
        assert "'max_depth' must be a int" in capsys.readouterr().err

    def test_unknown_config_field_rejected(self, graph_path, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"graph": graph_path, "mystery": 1}))
        monkeypatch.setenv("SGKR_CONFIG", str(config))
        code = main(["query", "--question", FEE_QUESTION])
        assert code != 0

    def test_bool_is_no_int_config_field(self, graph_path, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"graph": graph_path, "max_depth": True}))
        monkeypatch.setenv("SGKR_CONFIG", str(config))
        code = main(["query", "--question", FEE_QUESTION])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: config file {config}: 'max_depth' must be a int\n"

    def test_null_path_keeps_default(self, graph_path, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"aliases": None, "vectors": None}))
        monkeypatch.setenv("SGKR_CONFIG", str(config))
        code = main(["query", "--graph", graph_path, "--question", FEE_QUESTION])
        assert code == 0
        assert KNOWLEDGE_HEADER in capsys.readouterr().out

    def test_every_key_set_serves_every_command(self, tmp_path, capsys, monkeypatch):
        graph = tmp_path / "g.json"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "manifest": MANIFEST, "graph": str(graph), "max_depth": 16, "max_paths": 64,
            "aliases": ALIASES, "k": 5, "vectors": VECTORS, "gold": GOLD,
            "methods": "sgkr,lexical,vectors",
        }))
        monkeypatch.setenv("SGKR_CONFIG", str(config))
        assert main(["build"]) == 0
        assert capsys.readouterr().out.endswith(f"wrote {graph}\n")
        assert main(["query", "--question", FEE_QUESTION]) == 0
        assert capsys.readouterr().out.count("def ") == 5
        assert main(["eval", "--format", "structured"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == ["lexical", "sgkr", "vectors"]
        assert main(["inspect"]) == 0
        assert capsys.readouterr().out.startswith("kc-nodes (12):\n")

    def test_missing_config_file_is_error(self, graph_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SGKR_CONFIG", str(tmp_path / "ghost.json"))
        code = main(["query", "--graph", graph_path, "--question", FEE_QUESTION])
        assert code == 1
        assert capsys.readouterr().err == \
            f"error: config file not found: {tmp_path / 'ghost.json'}\n"
