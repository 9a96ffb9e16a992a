"""The CLI on mutated input files: every command that reads a mutated
manifest, graph document, alias, gold, vector or config file ends in an
answer (exit 0) or in one `error:` line (exit 1). No exception escapes
`cli.main`.

Each file is read into a tree (a JSON value; the vector file as a list
of lines, each a list of tokens), mutated one to three times, written
back and run through the commands that read it:
- replace a subtree with a value of a wrong type, a non-finite float, a
  lone surrogate, a 5 000-digit integer or 200 000 open brackets;
- delete a subtree;
- duplicate a subtree beside itself;
- append a lone surrogate to a string, written as the escape `\ud800`;
- insert bytes that are not UTF-8 into the written file.

The output streams are the ones a terminal gets: strict UTF-8 for
stdout, `backslashreplace` for stderr.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
from pathlib import Path
from unittest import mock

import pytest

from conftest import FEE_QUESTION, FIXTURE_DIR
from sgkr.cli import main

# Written into a JSON document as themselves, not as JSON strings.
_RAW_TOKENS = {"\x00long-integer\x00": "9" * 5_000, "\x00deep\x00": "[" * 200_000}

_JSON_VALUES = [None, True, False, 0, -1, 1.5, 10**18, "", "x", "\ud800", "fee \ud800 rate",
                [], ["x"], {}, {"x": 1}, float("nan"), float("inf"), float("-inf"),
                *_RAW_TOKENS]
_VECTOR_TOKENS = ["", "x", "0", "-1", "nan", "inf", "-inf", "1e999", "9" * 5_000,
                  "\ud800", "compute_fee", FEE_QUESTION]
_NOT_UTF8 = [b"\xff", b"\xc3", b"\xed\xa0\x80"]


def _subtrees(tree, path=()):
    """(path, subtree) for every subtree, the root first; a path is the
    keys and indexes that lead to the subtree."""
    yield path, tree
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _subtrees(value, path + (key,))
    elif isinstance(tree, list):
        for index, value in enumerate(tree):
            yield from _subtrees(value, path + (index,))


def _mutate(tree, path, op, value):
    """`tree` with one mutation at `path`; the root can only be replaced."""
    if not path:
        return copy.deepcopy(value)
    tree = copy.deepcopy(tree)
    parent = tree
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "replace":
        parent[key] = copy.deepcopy(value)
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:
        parent[f"{key} copy"] = copy.deepcopy(parent[key])
    return tree


def _json_text(tree) -> str:
    text = json.dumps(tree, indent=1)
    for token, raw in _RAW_TOKENS.items():
        text = text.replace(json.dumps(token), raw)
    return text


def _vector_tree(text: str) -> list:
    return [[name, *payload.split()] for name, _, payload in
            (line.partition("\t") for line in text.splitlines())]


def _vector_text(tree) -> str:
    """Each line's first token, then a tab and the others, if any."""
    lines = []
    for line in tree if isinstance(tree, list) else [tree]:
        name, *components = map(str, line) if isinstance(line, list) and line else [str(line)]
        lines.append("\t".join([name, " ".join(components)]) if components else name)
    return "\n".join(lines) + "\n"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out.flush()
    err.flush()
    return code, out.buffer.getvalue().decode(), err.buffer.getvalue().decode()


def test_mutated_inputs_end_in_answer_or_error(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    for source in ("q1_average_fee.py", "q2_scheme_costs.py"):
        shutil.copy(FIXTURE_DIR / source, tmp_path / source)
    graph = str(tmp_path / "graph.json")
    built = str(tmp_path / "built.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build", "--manifest", str(FIXTURE_DIR / "manifest.json"),
                     "--graph", graph]) == 0
    files = {name: str(FIXTURE_DIR / f"{name}.json") for name in ("manifest", "aliases", "gold")}
    files.update(graph=graph, vectors=str(FIXTURE_DIR / "vectors.txt"))
    config = {"graph": graph, "aliases": files["aliases"], "gold": files["gold"],
              "vectors": files["vectors"], "methods": "sgkr,lexical,vectors", "k": 3,
              "max_depth": 16, "max_paths": 64}
    trees = {kind: json.loads(Path(path).read_text(encoding="utf-8"))
             for kind, path in files.items() if kind != "vectors"}
    trees["vectors"] = _vector_tree(Path(files["vectors"]).read_text(encoding="utf-8"))
    trees["config"] = config

    def commands(kind: str, mutated: str) -> list[list[str]]:
        paths = dict(files, **{kind: mutated})
        query = ["query", "--graph", paths["graph"], "--aliases", paths["aliases"],
                 "--question", FEE_QUESTION]
        evaluate = ["eval", "--graph", paths["graph"], "--aliases", paths["aliases"],
                    "--gold", paths["gold"], "--vectors", paths["vectors"],
                    "--methods", "sgkr,lexical,vectors"]
        return {
            "manifest": [["build", "--manifest", mutated, "--graph", built]],
            "graph": [query, evaluate, ["inspect", "--graph", mutated]],
            "aliases": [query, evaluate],
            "gold": [evaluate],
            "vectors": [evaluate],
            "config": [["query", "--question", FEE_QUESTION], ["eval"], ["inspect"]],
        }[kind]

    @hypothesis.settings(max_examples=800, deadline=None, database=None, derandomize=True)
    @hypothesis.given(st.data())
    def check(data):
        kind = data.draw(st.sampled_from(sorted(trees)), label="kind")
        tree = trees[kind]
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            subtrees = dict(_subtrees(tree))
            op = data.draw(st.sampled_from(["replace", "delete", "duplicate", "escape"]),
                           label="op")
            strings = [path for path, value in subtrees.items() if type(value) is str]
            if op == "escape" and strings:
                # A lone surrogate appended to a string keeps the file's
                # structure valid.
                path = data.draw(st.sampled_from(strings), label="path")
                tree = _mutate(tree, path, "replace", subtrees[path] + "\ud800")
                continue
            path = data.draw(st.sampled_from(list(subtrees)), label="path")
            pool = _VECTOR_TOKENS if kind == "vectors" else _JSON_VALUES
            value = data.draw(st.sampled_from(pool), label="value")
            tree = _mutate(tree, path, "replace" if op == "escape" else op, value)
        text = _vector_text(tree) if kind == "vectors" else _json_text(tree)
        document = text.encode("utf-8", "surrogatepass")
        if data.draw(st.integers(0, 4), label="not UTF-8") == 0:
            at = data.draw(st.integers(0, len(document)), label="at")
            document = document[:at] + data.draw(st.sampled_from(_NOT_UTF8)) + document[at:]
        mutated = tmp_path / f"mutated-{kind}"
        mutated.write_bytes(document)

        runs = commands(kind, str(mutated))
        env = {"SGKR_CONFIG": str(mutated)} if kind == "config" else {}
        with mock.patch.dict(os.environ, env):
            if kind != "config":
                os.environ.pop("SGKR_CONFIG", None)
            while runs:
                argv = runs.pop(0)
                code, out, err = _run(argv)
                assert code == 0 or (code == 1 and err.splitlines()[-1].startswith("error:")), \
                    (argv, code, err[-500:])
                # A graph built from a mutated manifest is queried and listed.
                if argv[0] == "build" and code == 0:
                    runs += [["query", "--graph", built, "--question", FEE_QUESTION],
                             ["inspect", "--graph", built]]

    check()
