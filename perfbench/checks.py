"""Correctness checks whose failures count against `failed_share`.

* The bundled fee corpus must reproduce its `sgkr eval` table and its
  prompt block.
* On a seeded sample of small random graphs, `find_paths` must return the
  first `max_paths` paths of the exhaustive oracle in tests/oracles.py,
  ordered by (length, node ids).
* Every path a workload retrieves must be a simple path from a source to
  a target that follows the traversal rules, in the documented order.
* Each workload's outputs must match the digest recorded for its seed.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

from sgkr import cli, context, graph as graphmod, retriever, tagger

FEE_QUESTION = "What is the most expensive MCC for a transaction of 5 euros, in general?"
FEE_F1 = {"sgkr": "1.000", "lexical": "0.753", "vectors": "0.384"}
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tree_digest(directory: Path) -> str:
    """Digest of every file under `directory`, names and contents."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(directory).as_posix().encode("utf-8") + b"\0")
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`cli.main` in-process, returning its exit code and standard output."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}


def fee_corpus(root: Path, work: Path) -> list[str]:
    """Problems with the fee corpus case study; empty when it holds."""
    fixtures = root / "fixtures" / "fee_corpus"
    doc = work / "fee_graph.json"
    problems = []
    code, _ = run_cli(["build", "--manifest", str(fixtures / "manifest.json"), "--graph", str(doc)])
    if code != 0:
        return [f"fee build exited {code}"]
    code, out = run_cli([
        "eval", "--graph", str(doc), "--gold", str(fixtures / "gold.json"),
        "--aliases", str(fixtures / "aliases.json"), "--methods", "sgkr,lexical,vectors",
        "--vectors", str(fixtures / "vectors.txt"), "--k", "5", "--format", "structured",
    ])
    if code != 0:
        return [f"fee eval exited {code}"]
    table = json.loads(out)
    for method, expected in FEE_F1.items():
        got = f"{table[method]['mean_f1']:.3f}"
        if got != expected:
            problems.append(f"fee eval: {method} F1 {got} != {expected}")
    g = graphmod.deserialize(doc.read_text(encoding="utf-8"))
    vocab = tagger.build_vocabulary(g, tagger.load_aliases(fixtures / "aliases.json"))
    result = retriever.retrieve(g, tagger.extract_tags(FEE_QUESTION, vocab))
    block = context.render_prompt_block(context.assemble_context(result, g))
    if sha256(block) != load_digests().get("fee_prompt_block"):
        problems.append("fee prompt block differs from the recorded one")
    return problems


def _load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("sgkr_bench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def oracle_sample(root: Path, seed: int, count: int = 60) -> list[str]:
    """Compare `find_paths` with the exhaustive oracle on `count` seeded
    random graphs, under a wide and a tight path limit."""
    oracles = _load_oracles(root)
    rng = random.Random(seed)
    problems = []
    for index in range(count):
        g, sources, targets = oracles.random_io_graph(rng, max_kc=8)
        for limits in (retriever.RetrievalLimits(), retriever.RetrievalLimits(max_depth=4, max_paths=3)):
            expected = sorted(oracles.oracle_simple_paths(g, sources, targets, limits.max_depth),
                              key=lambda nodes: (len(nodes), nodes))[:limits.max_paths]
            got = [path.nodes for path in retriever.find_paths(g, sources, targets, limits)]
            if got != expected:
                problems.append(f"oracle graph {index}: paths differ under {limits}")
    return problems


def path_problems(g: graphmod.DependencyGraph, result: retriever.RetrievalResult,
                  tagset: tagger.TagSet, limits: retriever.RetrievalLimits) -> list[str]:
    """Structural check of one retrieval against the traversal rules."""
    if result.fallback:
        return [] if tagset.fallback and not result.paths else ["fallback mismatch"]
    sources = {g.io_node_id(label, graphmod.INPUT) for label in tagset.inputs}
    targets = {g.io_node_id(label, graphmod.OUTPUT) for label in tagset.outputs}
    problems = []
    keys = [(len(path.nodes), path.nodes) for path in result.paths]
    if keys != sorted(keys):
        problems.append("paths out of order")
    if len(result.paths) > limits.max_paths:
        problems.append("more paths than max_paths")
    for path in result.paths:
        nodes = path.nodes
        if nodes[0] not in sources or nodes[-1] not in targets or len(set(nodes)) != len(nodes):
            problems.append(f"bad endpoints or repeated node in {nodes}")
        if len(nodes) - 1 > limits.max_depth or any(n in targets for n in nodes[:-1]):
            problems.append(f"path too long or passes a target: {nodes}")
        for (a, b), step in zip(zip(nodes, nodes[1:]), path.edges):
            stored = graphmod.Edge(step.src, step.dst, step.type)
            walked = (step.dst, step.src) if step.reversed else (step.src, step.dst)
            if stored not in g.edges or walked != (a, b) or (step.reversed and step.type != graphmod.CALL):
                problems.append(f"bad step {a} -> {b}")
    if set().union(*(p.nodes for p in result.paths)) != set(result.subgraph_nodes):
        problems.append("subgraph is not the union of path nodes")
    return problems
