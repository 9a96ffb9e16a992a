from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

from oracles import oracle_label_tokens, oracle_normalize_label
from sgkr.corpus import (
    Corpus,
    label_tokens,
    load_corpus,
    normalize_label,
)
from sgkr.errors import DuplicateEntryId, KnowledgeBindingError, MalformedManifest, MissingFile
from sgkr.graph import build_graph
from sgkr.parser import extract_functions


def save_corpus(corpus: Corpus, directory: Path) -> Path:
    """Write a corpus back to disk as a manifest plus one source file per
    entry, and return the manifest's path."""
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for entry in corpus.entries:
        source_name = f"{entry.entry_id}.py"
        (directory / source_name).write_text(entry.source_text, encoding="utf-8")
        entries.append({
            "id": entry.entry_id,
            "source": source_name,
            "inputs": [{"label": d.label, "anchor": d.anchor} for d in entry.io_spec.inputs],
            "outputs": [{"label": d.label, "anchor": d.anchor} for d in entry.io_spec.outputs],
            "knowledge": entry.knowledge_map,
        })
    document = {"corpus_name": corpus.name, "version": corpus.version, "entries": entries}
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return manifest_path


def write_manifest(tmp_path, entries, name="demo", version="1"):
    for entry in entries:
        (tmp_path / entry["source"]).write_text(entry.pop("_code", "def a(x):\n    return x\n"))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"corpus_name": name, "version": version, "entries": entries}))
    return manifest


def entry_dict(entry_id, source, **overrides):
    base = {
        "id": entry_id,
        "source": source,
        "inputs": [{"label": "x", "anchor": "a"}],
        "outputs": [{"label": "y", "anchor": "a"}],
        "knowledge": {},
    }
    base.update(overrides)
    return base


class TestNormalizeLabel:
    def test_lowercases_and_strips_punctuation(self):
        assert normalize_label("  Most Expensive MCC?! ") == "most expensive mcc"

    def test_underscores_survive(self):
        assert normalize_label("Crossfit_Hanna") == "crossfit_hanna"

    def test_punctuation_separates_tokens(self):
        assert normalize_label("fees,rates") == "fees rates"

    def test_whitespace_collapsed(self):
        assert normalize_label("a \t  b") == "a b"

    def test_tokens_split_on_every_whitespace_the_normalizer_collapses(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        spaces = set(re.findall(r"\s", every)) | set(filter(str.isspace, every))
        for space in sorted(spaces):
            for text in (f"a{space}b", f"{space}A-{space}{space}b?{space}"):
                assert label_tokens(text) == oracle_label_tokens(text), hex(ord(space))

    def test_tokens_of_arbitrary_text(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
        @hypothesis.given(hypothesis.strategies.text())
        def check(text):
            assert label_tokens(text) == oracle_label_tokens(text)

        check()

    def test_matches_two_pass_normalizer(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        edges = st.sampled_from(" \t\n\x0b\x1c\x1f\x85\xa0\u2028\u3000_-?!.aZ9\u00e9\u0130\u00df")

        @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @hypothesis.given(st.one_of(st.text(), st.text(edges)))
        def check(text):
            assert normalize_label(text) == oracle_normalize_label(text)

        check()


class TestLoadCorpus:
    def test_preserves_entry_order(self, tmp_path):
        manifest = write_manifest(tmp_path, [
            entry_dict("first", "a.py"),
            entry_dict("second", "b.py"),
        ])
        corpus = load_corpus(manifest)
        assert [e.entry_id for e in corpus.entries] == ["first", "second"]

    def test_duplicate_entry_id_rejected(self, tmp_path):
        manifest = write_manifest(tmp_path, [
            entry_dict("q1", "a.py"),
            entry_dict("q1", "b.py"),
        ])
        with pytest.raises(DuplicateEntryId):
            load_corpus(manifest)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MissingFile):
            load_corpus(tmp_path / "nope.json")

    def test_missing_source_file(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "corpus_name": "x", "version": "1",
            "entries": [entry_dict("q1", "gone.py")],
        }))
        with pytest.raises(MissingFile):
            load_corpus(manifest)

    def test_unknown_field_rejected_with_path(self, tmp_path):
        manifest = write_manifest(tmp_path, [
            dict(entry_dict("q1", "a.py"), extra=1),
        ])
        with pytest.raises(MalformedManifest) as err:
            load_corpus(manifest)
        assert "entries[0]" in str(err.value)

    def test_unknown_top_level_field_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "corpus_name": "x", "version": "1", "entries": [], "surprise": True,
        }))
        with pytest.raises(MalformedManifest):
            load_corpus(manifest)

    def test_empty_io_lists_rejected(self, tmp_path):
        manifest = write_manifest(tmp_path, [entry_dict("q1", "a.py", inputs=[])])
        with pytest.raises(MalformedManifest):
            load_corpus(manifest)

    @pytest.mark.parametrize("overrides, message", [
        ({"id": ""}, "entries[0]: 'id' must be a non-empty string"),
        ({"id": 1}, "entries[0]: 'id' must be a str"),
        ({"extra": 1}, "entries[0]: fields ['extra', 'id', 'inputs', 'knowledge', 'outputs', "
                       "'source'] != ['id', 'inputs', 'knowledge', 'outputs', 'source']"),
        ({"inputs": {}}, "entries[0]: 'inputs' must be a list"),
        ({"inputs": []}, "entries[0].inputs: at least one input label required"),
        ({"outputs": [["y", "a"]]}, "entries[0].outputs[0]: expected an object"),
        ({"inputs": [{"label": "x"}]},
         "entries[0].inputs[0]: fields ['label'] != ['anchor', 'label']"),
        ({"outputs": [{"label": "y", "anchor": None}]},
         "entries[0].outputs[0]: 'anchor' must be a str"),
        ({"knowledge": {"a": 1}}, "entries[0].knowledge: 'a' must be a str"),
    ], ids=["empty-id", "int-id", "extra-field", "inputs-object", "no-inputs",
            "output-list", "input-without-anchor", "null-anchor", "int-knowledge"])
    def test_malformed_entry_message(self, tmp_path, overrides, message):
        manifest = write_manifest(tmp_path, [entry_dict("q1", "a.py", **overrides)])
        with pytest.raises(MalformedManifest) as err:
            load_corpus(manifest)
        assert str(err.value) == message

    def test_not_json(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("not json {")
        with pytest.raises(MalformedManifest):
            load_corpus(manifest)

    def test_labels_normalized_on_load(self, tmp_path):
        manifest = write_manifest(tmp_path, [
            entry_dict("q1", "a.py",
                       inputs=[{"label": "  Account TYPE ", "anchor": "a"}]),
        ])
        corpus = load_corpus(manifest)
        assert corpus.entries[0].io_spec.inputs[0].label == "account type"


class TestFeeFixture:
    def test_two_entries_twelve_annotated_functions(self, fee_corpus):
        assert len(fee_corpus.entries) == 2
        annotated = set()
        for entry in fee_corpus.entries:
            annotated.update(entry.knowledge_map)
        assert len(annotated) == 12

    def test_every_entry_validates_cleanly(self, fee_corpus):
        for entry in fee_corpus.entries:
            parsed = {fn.name for fn in extract_functions(entry.source_text)}
            assert set(entry.knowledge_map) <= parsed, entry.entry_id


class TestValidateEntry:
    """An entry's knowledge annotations are checked against the functions
    its source defines when the graph is built."""

    def test_known_function_passes(self, tmp_path):
        manifest = write_manifest(tmp_path, [
            entry_dict("q1", "a.py", knowledge={"compute_fee": "text"},
                       inputs=[{"label": "x", "anchor": "compute_fee"}],
                       outputs=[{"label": "y", "anchor": "compute_fee"}],
                       _code="def compute_fee(x):\n    return x\n"),
        ])
        graph = build_graph(load_corpus(manifest))
        assert [node.knowledge for node in graph.kc_nodes.values()] == ["text"]

    def test_typo_reported(self, tmp_path):
        manifest = write_manifest(tmp_path, [
            entry_dict("q1", "a.py", knowledge={"compute_feee": "text"},
                       inputs=[{"label": "x", "anchor": "compute_fee"}],
                       outputs=[{"label": "y", "anchor": "compute_fee"}],
                       _code="def compute_fee(x):\n    return x\n"),
        ])
        with pytest.raises(KnowledgeBindingError, match="'compute_feee'"):
            build_graph(load_corpus(manifest))


class TestRoundTrip:
    def test_save_load_round_trips(self, fee_corpus, tmp_path):
        manifest = save_corpus(fee_corpus, tmp_path / "copy")
        assert load_corpus(manifest) == fee_corpus

    def test_round_trip_synthetic(self, tmp_path):
        manifest = write_manifest(tmp_path, [
            entry_dict("q1", "a.py", knowledge={"a": "does a thing"}),
        ])
        corpus = load_corpus(manifest)
        again = load_corpus(save_corpus(corpus, tmp_path / "out"))
        assert again == corpus
