"""The sidecar that `graph.load` keeps beside a graph document for the CLI.

Every command prints the same on a miss, on a hit and with the document
read the way the CLI read it before there was a sidecar; a hit runs none
of the builders; and a section that is missing, damaged, of the wrong
shape or not trusted is rebuilt from the document without a message. The
vocabulary and vector sections are keyed by the alias or vector file too:
a changed file is a miss, and a file the command refuses is never kept.
"""

from __future__ import annotations

import json
import marshal
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FEE_QUESTION, FIXTURE_DIR
from sgkr import baselines, cli, graph as graphmod, retriever, sidecar, tagger
from sgkr.corpus import read_text
from sgkr.errors import MissingFile, NotUtf8

SRC = Path(__file__).resolve().parent.parent / "src"
SECTIONS = ("graph", "traversal", "blocks", "lexical", "vocabulary", "vectors")


class Inputs(NamedTuple):
    """A graph document and the files its read commands take."""

    document: Path
    aliases: str
    gold: str
    vectors: str
    question: str


def build(manifest: Path, directory: Path) -> Path:
    document = directory / "graph.json"
    assert cli.main(["build", "--manifest", str(manifest), "--graph", str(document)]) == 0
    return document


@pytest.fixture()
def fee(tmp_path, capsys) -> Inputs:
    document = build(FIXTURE_DIR / "manifest.json", tmp_path)
    capsys.readouterr()
    return Inputs(document, str(FIXTURE_DIR / "aliases.json"), str(FIXTURE_DIR / "gold.json"),
                  str(FIXTURE_DIR / "vectors.txt"), FEE_QUESTION)


@pytest.fixture()
def small_cli(small_workloads, tmp_path, capsys) -> Inputs:
    data = small_workloads["cli"][3]
    document = build(data.manifest, tmp_path)
    capsys.readouterr()
    return Inputs(document, str(data.aliases), str(data.gold), str(data.vectors),
                  data.questions[0])


def eval_argv(inputs: Inputs, *form: str) -> list[str]:
    return ["eval", "--graph", str(inputs.document), "--gold", inputs.gold,
            "--aliases", inputs.aliases, "--vectors", inputs.vectors,
            "--methods", "sgkr,lexical,vectors", *form]


def query_argv(inputs: Inputs, *form: str) -> list[str]:
    return ["query", "--graph", str(inputs.document), "--aliases", inputs.aliases,
            "--question", inputs.question, *form]


def read_commands(inputs: Inputs) -> list[list[str]]:
    """`query`, `eval` and `inspect` in text and structured form, and
    `inspect --dot`."""
    commands = []
    for form in ((), ("--format", "structured")):
        commands += [query_argv(inputs, *form), eval_argv(inputs, *form),
                     ["inspect", "--graph", str(inputs.document), *form]]
    return commands + [["inspect", "--graph", str(inputs.document), "--dot"]]


def run(argv: list[str], capsys) -> tuple[int, str, str]:
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def without_sidecar(argv: list[str], capsys) -> tuple[int, str, str]:
    """What the command prints with the document read as the CLI read it
    before it kept a sidecar: in text mode, then `deserialize`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graphmod, "load", lambda path: graphmod.deserialize(
            read_text_mode(Path(path), "graph document")))
        return run(argv, capsys)


def read_text_mode(path: Path, what: str) -> str:
    """The text-mode reader that `read_text` replaced."""
    if not path.is_file():
        raise MissingFile(f"{what} not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise NotUtf8(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc


def cache_dir(inputs: Inputs) -> Path:
    return inputs.document.parent / sidecar.DIRECTORY


def section_path(inputs: Inputs, section: str) -> Path:
    return cache_dir(inputs) / f"{inputs.document.name}.{section}"


def clear(inputs: Inputs) -> None:
    for path in cache_dir(inputs).glob("*"):
        path.unlink()


class Builders:
    """Counting wrappers around each builder of a kept structure."""

    def __init__(self, patch: pytest.MonkeyPatch):
        self.counts = dict.fromkeys(SECTIONS, 0)
        self._wrap(patch, graphmod, "deserialize", "graph", graphmod.deserialize)
        for owner, section in ((retriever.TraversalIndex, "traversal"),
                               (retriever.BlockTree, "blocks")):
            patch.setattr(owner, "build", classmethod(self._counted(section, owner.build.__func__)))
        self._wrap(patch, baselines.LexicalRanker, "__init__", "lexical",
                   baselines.LexicalRanker.__init__)
        self._wrap(patch, tagger, "build_vocabulary", "vocabulary", tagger.build_vocabulary)
        self._wrap(patch, baselines, "parse_vectors", "vectors", baselines.parse_vectors)

    def _counted(self, section, function):
        def counted(*args, **kwargs):
            self.counts[section] += 1
            return function(*args, **kwargs)
        return counted

    def _wrap(self, patch, owner, name, section, function):
        patch.setattr(owner, name, self._counted(section, function))

    def take(self) -> dict[str, int]:
        counts, self.counts = self.counts, dict.fromkeys(SECTIONS, 0)
        return counts


@pytest.fixture()
def builders(monkeypatch) -> Builders:
    return Builders(monkeypatch)


class TestOutputs:
    @pytest.mark.parametrize("corpus", ["fee", "small_cli"])
    def test_hit_miss_and_without_sidecar_agree(self, corpus, request, capsys, builders):
        inputs = request.getfixturevalue(corpus)
        for argv in read_commands(inputs):
            expected = without_sidecar(argv, capsys)
            assert expected[0] == 0 and expected[2] == ""
            clear(inputs)
            builders.take()
            assert run(argv, capsys) == expected  # a miss: the sections are built and written
            assert builders.take()["graph"] == 1
            assert section_path(inputs, "graph").is_file()
            assert run(argv, capsys) == expected  # a hit
            assert builders.take() == dict.fromkeys(SECTIONS, 0)

    def test_a_hit_runs_no_builder(self, small_cli, capsys, builders):
        argv = eval_argv(small_cli)
        expected = without_sidecar(argv, capsys)
        builders.take()
        assert run(argv, capsys) == expected
        assert builders.take() == dict.fromkeys(SECTIONS, 1)
        assert sorted(path.name for path in cache_dir(small_cli).iterdir()) == \
            sorted(f"graph.json.{section}" for section in SECTIONS)
        assert run(argv, capsys) == expected
        assert builders.take() == dict.fromkeys(SECTIONS, 0)

    def test_query_never_opens_the_lexical_section(self, fee, capsys, monkeypatch):
        opened = []
        real_open = os.open
        monkeypatch.setattr(os, "open", lambda path, *args, **kwargs: (
            opened.append(Path(path).name), real_open(path, *args, **kwargs))[1])
        run(query_argv(fee), capsys)  # a miss writes no lexical section
        assert not section_path(fee, "lexical").exists()
        run(eval_argv(fee), capsys)
        assert section_path(fee, "lexical").is_file()
        opened.clear()
        expected = without_sidecar(query_argv(fee), capsys)
        assert run(query_argv(fee), capsys) == expected
        assert opened == ["graph.json.graph", "graph.json.vocabulary", "graph.json.traversal",
                          "graph.json.blocks"]

    def test_loaded_graph_equals_the_deserialized_one(self, small_cli):
        text = small_cli.document.read_text(encoding="utf-8")
        expected = graphmod.deserialize(text)
        for _ in ("miss", "hit"):
            loaded = graphmod.load(small_cli.document)
            assert loaded == expected and loaded.sidecar is not None
            assert list(loaded.kc_nodes) == list(expected.kc_nodes)
            assert list(loaded.io_nodes) == list(expected.io_nodes)
            assert graphmod.serialize(loaded) == text
            # The edges hold their ends' own id strings, parsed or thawed.
            ids = {node.node_id: node.node_id for node in
                   [*loaded.kc_nodes.values(), *loaded.io_nodes.values()]}
            assert all(ids[edge.src] is edge.src and ids[edge.dst] is edge.dst
                       for edge in loaded.edges)
        assert expected.sidecar is None

    def test_changed_document_is_read_again(self, fee, capsys):
        run(["inspect", "--graph", str(fee.document)], capsys)
        changed = graphmod.deserialize(fee.document.read_text(encoding="utf-8"))
        node = next(iter(changed.kc_nodes.values()))
        changed = changed._replace(kc_nodes={**changed.kc_nodes, node.node_id: node._replace(
            origin_entries=("renamed",))})
        fee.document.write_text(graphmod.serialize(changed), encoding="utf-8")
        argv = ["inspect", "--graph", str(fee.document)]
        expected = without_sidecar(argv, capsys)
        assert "from renamed]" in expected[1]
        assert run(argv, capsys) == expected

    def test_changed_code_is_a_miss(self, fee, capsys, builders, monkeypatch):
        argv = ["inspect", "--graph", str(fee.document)]
        expected = run(argv, capsys)
        builders.take()
        monkeypatch.setattr(sidecar, "_code", lambda: b"another sgkr")
        assert run(argv, capsys) == expected
        assert builders.take()["graph"] == 1

    def test_in_process_api_keeps_no_sidecar(self, fee, fee_graph, fee_vocab):
        for graph in (graphmod.deserialize(fee.document.read_text(encoding="utf-8")), fee_graph):
            assert graph.sidecar is None
            assert retriever.retrieve(graph, tagger.extract_tags(FEE_QUESTION, fee_vocab)).paths
            retriever.block_tree(graph)
            baselines.lexical_ranker(graph)
            vocab = tagger.build_vocabulary(graph, tagger.load_aliases(fee.aliases))
            assert vocab.inputs == fee_vocab.inputs
            store = baselines.load_vectors(fee.vectors)
            baselines.retrieve_topk(FEE_QUESTION, graph, 3, scorer="vectors", vectors=store)
        assert not cache_dir(fee).exists()


class TestFileSections:
    """The vocabulary and the vector store are kept under a key that covers
    the alias or vector file as well as the document."""

    def test_changed_file_is_a_miss(self, fee, tmp_path, capsys, builders):
        aliases, vectors = tmp_path / "aliases.json", tmp_path / "vectors.txt"
        aliases.write_bytes(Path(fee.aliases).read_bytes())
        vectors.write_bytes(Path(fee.vectors).read_bytes())
        inputs = fee._replace(aliases=str(aliases), vectors=str(vectors))
        argv = eval_argv(inputs)
        assert run(argv, capsys) == without_sidecar(argv, capsys)
        alias_map = json.loads(aliases.read_text(encoding="utf-8"))
        alias, target = next(iter(alias_map.items()))
        alias_map[alias + " extra"] = target
        lines = vectors.read_text(encoding="utf-8").splitlines()
        name, _, values = lines[1].partition("\t")
        lines[1] = name + "\t" + " ".join(["0.5"] * len(values.split()))
        for changed in ("vocabulary", "vectors"):
            if changed == "vocabulary":
                aliases.write_text(json.dumps(alias_map), encoding="utf-8")
            else:
                vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
            expected = without_sidecar(argv, capsys)
            builders.take()
            assert run(argv, capsys) == expected
            assert builders.take() == {name: int(name == changed) for name in SECTIONS}
            assert run(argv, capsys) == expected
            assert builders.take() == dict.fromkeys(SECTIONS, 0)

    def test_no_alias_file_and_one_of_the_same_labels(self, fee, tmp_path, capsys, builders):
        empty = tmp_path / "aliases.json"
        empty.write_text("{}", encoding="utf-8")
        plain = ["query", "--graph", str(fee.document), "--question", fee.question]
        with_file = [*plain, "--aliases", str(empty)]
        expected = without_sidecar(plain, capsys)
        assert expected == without_sidecar(with_file, capsys)
        # One vocabulary section, kept under the key of the last run's file.
        for argv, built in ((plain, 1), (plain, 0), (with_file, 1), (with_file, 0), (plain, 1)):
            builders.take()
            assert run(argv, capsys) == expected
            assert builders.take()["vocabulary"] == built

    @pytest.mark.parametrize("flag, text, message", [
        ("--aliases", None, "alias file not found: {path}"),
        ("--aliases", b"{\xff}", "{path}: not UTF-8 (invalid start byte at byte 1)"),
        ("--aliases", b"{", "alias file {path} is not valid JSON: Expecting property name "
                            "enclosed in double quotes: line 1 column 2 (char 1)"),
        ("--aliases", b'{"card": {"label": "no such label", "kind": "input"}}',
         "alias 'card' targets unknown input label 'no such label'"),
        ("--vectors", None, "vector file not found: {path}"),
        ("--vectors", b"2\nq\t0.5 \xff", "{path}: not UTF-8 (invalid start byte at byte 8)"),
        ("--vectors", b"2\nq\t0.5", "line 2: 'q' has 1 components, expected 2"),
    ])
    def test_refused_file_errors_every_time(self, fee, tmp_path, capsys, flag, text, message):
        path = tmp_path / "input"
        if text is not None:
            path.write_bytes(text)
        argv = eval_argv(fee)
        argv[argv.index(flag) + 1] = str(path)
        expected = (1, "", f"error: {message.format(path=path)}\n")
        assert without_sidecar(argv, capsys) == expected
        for _ in range(2):
            assert run(argv, capsys) == expected
        section = "vocabulary" if flag == "--aliases" else "vectors"
        assert not section_path(fee, section).exists()


def truncated(path: Path, key: bytes) -> None:
    data = path.read_bytes()
    path.write_bytes(data[:len(key) + (len(data) - len(key)) // 2])


def random_bytes(path: Path, key: bytes) -> None:
    path.write_bytes(os.urandom(len(path.read_bytes())))


def wrong_key(path: Path, key: bytes) -> None:
    data = path.read_bytes()
    path.write_bytes(bytes([data[0] ^ 1]) + data[1:])


def group_writable(path: Path, key: bytes) -> None:
    path.chmod(0o664)


def others_writable(path: Path, key: bytes) -> None:
    path.chmod(0o646)


def symlink(path: Path, key: bytes) -> None:
    # A whole, right section, but reached through a symlink.
    target = path.with_name("elsewhere")
    path.rename(target)
    path.symlink_to(target)


def directory(path: Path, key: bytes) -> None:
    path.unlink()
    path.mkdir()


DAMAGE = [truncated, random_bytes, wrong_key, group_writable, others_writable, symlink,
          directory]


def wrong_shapes(section: str, payload: object) -> list[object]:
    """Well-formed `marshal` payloads that are not the section's."""
    shapes: list[object] = [None, (), 7, "graph", (None,) * 4, {"a": 1}]
    if section == "graph":
        kc, io, edges = payload
        shapes += [(kc, io), (kc, io, edges, edges),
                   ((tuple(range(len(kc[0]))), *kc[1:]), io, edges),
                   ((*kc[:4], tuple(map(list, kc[4])), kc[5]), io, edges),
                   ((*kc[:4], kc[0], kc[5]), io, edges),
                   (kc, io, (edges[0], edges[1][:-1], edges[2]))]
    elif section == "traversal":
        moves, preds = payload
        shapes += [(preds, moves), (moves,), (moves, {1: []}), (list(moves.items()), preds)]
    elif section == "blocks":
        members, roots, parent = payload
        shapes += [(members, roots), (members, roots, {node: str(i) for node, i in parent.items()}),
                   (list(members), roots, parent), (members, roots + ("x",), parent)]
    elif section == "lexical":
        names, postings, norms, idf = payload
        shapes += [(tuple(names), postings, norms, idf), (names, list(postings), norms, idf),
                   (names, postings, norms)]
    elif section == "vocabulary":
        inputs, outputs, (input_tables, output_tables) = payload
        (width, table), *narrower = input_tables
        assert narrower  # so that the reordered tables are out of order
        label = next(iter(table.values()))
        shapes += [(inputs, outputs), (inputs, outputs, input_tables),
                   ({**inputs, label: [label]}, outputs, (input_tables, output_tables)),
                   ({**inputs, label: (label, 5)}, outputs, (input_tables, output_tables)),
                   (inputs, outputs, (input_tables, [*output_tables])),
                   (inputs, outputs, ((*narrower, (width, table)), output_tables)),
                   (inputs, outputs, (((width, table), (width, table)), output_tables)),
                   (inputs, outputs, (((0, {(): label}),), output_tables)),
                   (inputs, outputs, (((width, {**table, ("x",) * (width + 1): label}),
                                       *narrower), output_tables)),
                   (inputs, outputs, (((width, {**table, (5,) * width: label}), *narrower),
                                      output_tables)),
                   (inputs, outputs, (((width, {**table, ("x",) * width: 5}), *narrower),
                                      output_tables)),
                   (inputs, outputs, (((str(width), table), *narrower), output_tables))]
    else:
        dimension, vectors, norms = payload
        name = next(iter(vectors))
        shapes += [(str(dimension), vectors, norms), (dimension + 1, vectors, norms),
                   (dimension, vectors, {**norms, "stray": 1.0}),
                   (dimension, vectors, {**norms, name: 1}),
                   (dimension, {**vectors, name: list(vectors[name])}, norms),
                   (dimension, {**vectors, name: (1,) * dimension}, norms),
                   (dimension, vectors)]
    return shapes


class TestUntrustedSections:
    """Each gives the output with no sidecar, and its structure is built
    from the document."""

    @pytest.fixture()
    def made(self, fee, capsys):
        """The fee document with every section written, the eval output
        with no sidecar, and the key."""
        argv = eval_argv(fee)
        expected = without_sidecar(argv, capsys)
        assert run(argv, capsys) == expected
        key = sidecar.Sidecar(fee.document, fee.document.read_bytes()).key
        return fee, argv, expected, key

    @pytest.mark.parametrize("section", SECTIONS)
    @pytest.mark.parametrize("damage", DAMAGE, ids=lambda damage: damage.__name__)
    def test_damaged_section_is_rebuilt(self, made, section, damage, capsys, builders):
        inputs, argv, expected, key = made
        damage(section_path(inputs, section), key)
        builders.take()
        assert run(argv, capsys) == expected
        assert builders.take() == {name: int(name == section) for name in SECTIONS}

    @pytest.mark.parametrize("section", SECTIONS)
    def test_wrong_shape_is_rebuilt(self, made, section, capsys, builders):
        inputs, argv, expected, key = made
        path = section_path(inputs, section)
        payload = marshal.loads(path.read_bytes()[len(key):])
        for shape in wrong_shapes(section, payload):
            path.write_bytes(key + marshal.dumps(shape))
            builders.take()
            assert run(argv, capsys) == expected
            assert builders.take() == {name: int(name == section) for name in SECTIONS}

    def test_symlink_target_is_left_alone(self, made, capsys):
        inputs, argv, expected, key = made
        path = section_path(inputs, "graph")
        target = inputs.document.parent / "target"
        target.write_bytes(b"not a section")
        path.unlink()
        path.symlink_to(target)
        assert run(argv, capsys) == expected
        assert target.read_bytes() == b"not a section"
        assert not path.is_symlink()  # the section written after the rebuild replaced the link

    def test_foreign_owner_is_rebuilt(self, made, capsys, builders, monkeypatch):
        inputs, argv, expected, key = made
        monkeypatch.setattr(os, "geteuid", lambda: os.getuid() + 1)
        builders.take()
        assert run(argv, capsys) == expected
        assert builders.take() == dict.fromkeys(SECTIONS, 1)

    def test_cache_path_that_cannot_be_made(self, fee, capsys, builders):
        cache_dir(fee).write_text("in the way")
        argv = eval_argv(fee)
        expected = without_sidecar(argv, capsys)
        for _ in range(2):
            builders.take()
            assert run(argv, capsys) == expected
            assert builders.take() == dict.fromkeys(SECTIONS, 1)
        assert cache_dir(fee).read_text() == "in the way"

    @pytest.mark.skipif(os.geteuid() == 0, reason="the superuser may write any directory")
    def test_unwritable_directory_keeps_nothing(self, fee, capsys):
        argv = eval_argv(fee)
        expected = without_sidecar(argv, capsys)
        fee.document.parent.chmod(0o555)
        try:
            assert run(argv, capsys) == expected
            assert not cache_dir(fee).exists()
        finally:
            fee.document.parent.chmod(0o755)


def cold(argv: list[str], **env: str) -> subprocess.CompletedProcess:
    environment = {key: value for key, value in os.environ.items() if key != "SGKR_CONFIG"}
    environment.update(PYTHONPATH=str(SRC), **env)
    return subprocess.run([sys.executable, "-m", "sgkr", *argv], capture_output=True, text=True,
                          env=environment)


def test_sections_are_read_under_another_hash_seed(small_cli, capsys):
    argv = eval_argv(small_cli)
    expected = without_sidecar(argv, capsys)
    written = cold(argv, PYTHONHASHSEED="0")
    inodes = {path.name: path.stat().st_ino for path in cache_dir(small_cli).iterdir()}
    assert {"graph.json.graph", "graph.json.traversal", "graph.json.lexical"} <= inodes.keys()
    read = cold(argv, PYTHONHASHSEED="1")
    assert (read.returncode, read.stdout, read.stderr) == \
        (written.returncode, written.stdout, written.stderr) == expected
    assert {path.name: path.stat().st_ino for path in cache_dir(small_cli).iterdir()} == inodes


WRITER = """
import sys
from pathlib import Path
from sgkr.sidecar import Sidecar
document, tag = Path(sys.argv[1]), sys.argv[2]
side = Sidecar(document, document.read_bytes())
payload = tuple(f"{tag}{i:06d}" * 40 for i in range(6000))
for _ in range(25):
    side.write("graph", payload)
"""


def test_concurrent_writers_leave_whole_sections(fee):
    payloads = {tag: tuple(f"{tag}{i:06d}" * 40 for i in range(6000)) for tag in "ab"}
    side = sidecar.Sidecar(fee.document, fee.document.read_bytes())
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    writers = [subprocess.Popen([sys.executable, "-c", WRITER, str(fee.document), tag], env=env)
               for tag in payloads]
    deadline = time.monotonic() + 120
    while any(writer.poll() is None for writer in writers) and time.monotonic() < deadline:
        got = side.read("graph", lambda payload: payload)
        assert got is None or got in payloads.values()
    assert [writer.wait(timeout=10) for writer in writers] == [0, 0]
    assert side.read("graph", lambda payload: payload) in payloads.values()
    assert [path.name for path in cache_dir(fee).iterdir()] == ["graph.json.graph"]


def test_import_cli_imports_no_hashing():
    script = ("import sys\nbefore = set(sys.modules)\nimport sgkr.cli\n"
              "print(sorted({'hashlib', 'marshal', 'sgkr.sidecar'} & (sys.modules.keys() - before)))")
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.stdout == "[]\n", result.stderr


class TestDecode:
    """The document's bytes, hashed once, are decoded as text mode reads
    a file: newlines translated, and the same message at the same byte."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(pieces=st.lists(st.sampled_from([b"a", b"\r", b"\n", b"\r\n", b"\xc3\xa9", b"\xff",
                                            b"\xc3", b"\xe2\x82", b"\xed\xa0\x80"]), max_size=12))
    def test_read_text_reads_as_text_mode(self, pieces, tmp_path_factory):
        path = tmp_path_factory.mktemp("decode") / "file.txt"
        path.write_bytes(b"".join(pieces))
        try:
            expected = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            with pytest.raises(NotUtf8) as raised:
                read_text(path, "file")
            assert str(raised.value) == f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})"
        else:
            assert read_text(path, "file") == expected

    def test_crlf_document(self, fee, capsys):
        text = fee.document.read_text(encoding="utf-8")
        fee.document.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        for argv in (["inspect", "--graph", str(fee.document)], query_argv(fee)):
            expected = without_sidecar(argv, capsys)
            assert expected[0] == 0
            assert run(argv, capsys) == expected
            assert run(argv, capsys) == expected
        # A lone carriage return moves the JSON error's line and column.
        fee.document.write_bytes(b'{\r\r  "edges": [\r\n  ]\r  , ]')
        argv = ["inspect", "--graph", str(fee.document)]
        expected = without_sidecar(argv, capsys)
        assert expected[0] == 1 and "line 5 column 5" in expected[2]
        assert run(argv, capsys) == expected

    def test_document_with_a_bad_byte(self, fee, capsys):
        data = fee.document.read_bytes()
        fee.document.write_bytes(data[:1000] + b"\xff" + data[1000:])
        argv = ["inspect", "--graph", str(fee.document)]
        expected = without_sidecar(argv, capsys)
        assert expected == (1, "", f"error: {fee.document}: not UTF-8 "
                                    "(invalid start byte at byte 1000)\n")
        assert run(argv, capsys) == expected
        assert not cache_dir(fee).exists()
