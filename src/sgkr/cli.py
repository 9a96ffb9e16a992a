"""Command-line front door: build graphs, query them, evaluate retrievers,
and inspect graph documents.

A JSON config file named by the SGKR_CONFIG environment variable supplies
defaults; explicit flags always win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import get_type_hints

from . import baselines, context, corpus, graph as graphmod, retriever, tagger
from .errors import SgkrError

CONFIG_ENV_VAR = "SGKR_CONFIG"


@dataclass
class Config:
    manifest: str | None = None
    graph: str | None = None
    max_depth: int = 16
    max_paths: int = 64
    aliases: str | None = None
    k: int = 5
    vectors: str | None = None
    gold: str | None = None
    methods: str = "sgkr,lexical"


def _load_config() -> Config:
    config = Config()
    config_path = os.environ.get(CONFIG_ENV_VAR)
    if not config_path:
        return config
    try:
        raw = json.loads(corpus.read_text(Path(config_path)))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SgkrError(f"config file {config_path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SgkrError(f"config file {config_path} must contain a JSON object")
    types = get_type_hints(Config)
    unknown = set(raw) - set(types)
    if unknown:
        raise SgkrError(f"config file {config_path}: unknown fields {sorted(unknown)}")
    for key, value in raw.items():
        expected = types[key]
        # bool is a subclass of int, but `true` is no depth or budget.
        if isinstance(value, bool) or not isinstance(value, expected):
            expected_name = getattr(expected, "__name__", str(expected))
            raise SgkrError(f"config file {config_path}: field {key!r} must be {expected_name}, "
                            f"not {json.dumps(value)}")
        setattr(config, key, value)
    return config


def _merge(config: Config, args: argparse.Namespace) -> Config:
    for field in fields(Config):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(config, field.name, value)
    return config


def _load_graph(path: str | None) -> graphmod.DependencyGraph:
    if not path:
        raise SgkrError("no graph document given (--graph)")
    graph_path = Path(path)
    if not graph_path.is_file():
        raise SgkrError(f"graph document not found: {graph_path}")
    return graphmod.deserialize(corpus.read_text(graph_path))


def _build_vocab(g: graphmod.DependencyGraph, aliases_path: str | None) -> tagger.TagVocabulary:
    aliases = tagger.load_aliases(aliases_path) if aliases_path else None
    return tagger.build_vocabulary(g, aliases)


def _limits(config: Config) -> retriever.RetrievalLimits:
    try:
        return retriever.RetrievalLimits(max_depth=config.max_depth, max_paths=config.max_paths)
    except ValueError as exc:
        raise SgkrError(str(exc)) from exc


def cmd_build(config: Config, out) -> int:
    if not config.manifest:
        raise SgkrError("no manifest given (--manifest)")
    if not config.graph:
        raise SgkrError("no output path given (--graph)")
    built = graphmod.build_graph(corpus.load_corpus(config.manifest))
    report = graphmod.validate_graph(built)
    for violation in report.violations:
        print(f"warning: {violation}", file=sys.stderr)
    Path(config.graph).write_text(graphmod.serialize(built), encoding="utf-8")

    # Each merged node absorbed one pre-merge node per extra origin entry.
    merged_away = sum(len(node.origin_entries) for node in built.kc_nodes.values()) \
        - len(built.kc_nodes)
    print(f"built graph: {len(built.kc_nodes)} kc-nodes, {len(built.io_nodes)} io-nodes, "
          f"{len(built.edges)} edges; duplicate nodes merged: {merged_away}", file=out)
    print(f"call cycles: {len(report.cycles)}", file=out)
    for cycle in report.cycles:
        print("  cycle: " + " -> ".join(cycle), file=out)
    print(f"wrote {config.graph}", file=out)
    return 0


def cmd_query(config: Config, question: str, output_format: str, out) -> int:
    g = _load_graph(config.graph)
    vocab = _build_vocab(g, config.aliases)
    tagset = tagger.extract_tags(question, vocab)
    result = retriever.retrieve(g, tagset, _limits(config))
    bundle = context.assemble_context(result, g)

    if output_format == "structured":
        payload = context.bundle_to_dict(bundle)
        payload["fallback"] = result.fallback
        payload["inputs"] = sorted(tagset.inputs)
        payload["outputs"] = sorted(tagset.outputs)
        payload["retrieved_kc_count"] = len(retriever.retrieved_kc_names(result, g))
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
        return 0

    if result.fallback:
        print("FALLBACK", file=out)
    elif not result.paths or result.stats.truncated_by_budget:
        note = (f"search stopped after {len(result.paths)} paths" if result.paths
                else "no dependency paths found")
        if result.stats.truncated_by_depth:
            note += " (depth limit reached)"
        if result.stats.truncated_by_budget:
            note += " (work budget reached)"
        print(f"note: {note}", file=out)
    print(context.render_prompt_block(bundle), file=out, end="")
    return 0


def cmd_eval(config: Config, output_format: str, out) -> int:
    g = _load_graph(config.graph)
    if not config.gold:
        raise SgkrError("no gold file given (--gold)")
    gold = baselines.load_gold(config.gold)
    if not gold:
        raise SgkrError(f"gold file {config.gold} contains no questions")
    known_names = {node.function_name for node in g.kc_nodes.values()}
    for annotation in gold:
        stray = (annotation.needed | annotation.unneeded) - known_names
        if stray:
            raise SgkrError(
                f"gold question {annotation.question!r} references unknown functions "
                f"{sorted(stray)}"
            )

    methods = [m.strip() for m in config.methods.split(",") if m.strip()]
    if not methods:
        raise SgkrError("no methods given (--methods)")
    if config.k < 1:
        raise SgkrError("baseline budget k must be >= 1")
    vectors = baselines.load_vectors(config.vectors) if config.vectors else None
    limits = _limits(config)

    reports: dict[str, baselines.EvalReport] = {}
    for method in methods:
        results: dict[str, frozenset[str]] = {}
        if method == "sgkr":
            vocab = _build_vocab(g, config.aliases)
            for annotation in gold:
                tagset = tagger.extract_tags(annotation.question, vocab)
                retrieval = retriever.retrieve(g, tagset, limits)
                if retrieval.stats.truncated_by_budget:
                    print(f"note: search for {annotation.question!r} stopped at the work budget",
                          file=sys.stderr)
                results[annotation.question] = frozenset(
                    retriever.retrieved_kc_names(retrieval, g))
        elif method in ("lexical", "vectors"):
            if method == "vectors" and vectors is None:
                raise SgkrError("method 'vectors' requires --vectors")
            for annotation in gold:
                names = baselines.retrieve_topk(
                    annotation.question, g, config.k, scorer=method, vectors=vectors)
                results[annotation.question] = frozenset(names)
        else:
            raise SgkrError(f"unknown method {method!r} (expected sgkr, lexical, vectors)")
        reports[method] = baselines.evaluate(results, gold)

    if output_format == "structured":
        payload = {method: baselines.eval_report_to_dict(report)
                   for method, report in reports.items()}
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        print(baselines.format_eval_table(reports), file=out, end="")
    return 0


def cmd_inspect(config: Config, dot: bool, output_format: str, out) -> int:
    g = _load_graph(config.graph)
    if dot:
        print(graphmod.to_dot(g), file=out, end="")
        return 0
    if output_format == "structured":
        print(graphmod.serialize(g), file=out, end="")
        return 0
    print(f"kc-nodes ({len(g.kc_nodes)}):", file=out)
    for _, node in sorted(g.kc_nodes.items()):
        origins = ",".join(node.origin_entries)
        print(f"  {node.function_name}  [{node.node_id}; from {origins}]", file=out)
    print(f"io-nodes ({len(g.io_nodes)}):", file=out)
    for _, node in sorted(g.io_nodes.items()):
        print(f"  {node.label}  [{node.kind}]", file=out)
    print(f"edges ({len(g.edges)}):", file=out)
    for edge in sorted(g.edges):
        print(f"  {edge.src} -{edge.type}-> {edge.dst}", file=out)
    return 0


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgkr",
        description="Build, query, evaluate and inspect knowledge-code dependency graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--graph", help="graph document path")
        p.add_argument("--max-depth", dest="max_depth", type=int,
                       help="longest dependency path searched, in edges")
        p.add_argument("--max-paths", dest="max_paths", type=int, help="path count limit")
        p.add_argument("--aliases", help="alias file path")
        p.add_argument("--format", choices=("text", "structured"), default="text",
                       help="output format")

    p_build = sub.add_parser("build", help="build a graph document from a corpus manifest")
    p_build.add_argument("--manifest", help="corpus manifest path")
    p_build.add_argument("--graph", help="output graph document path")

    p_query = sub.add_parser("query", help="retrieve context for a question")
    add_common(p_query)
    p_query.add_argument("--question", required=True)

    p_eval = sub.add_parser("eval", help="score retrieval methods against gold annotations")
    add_common(p_eval)
    p_eval.add_argument("--gold", help="gold annotation file")
    p_eval.add_argument("--methods", help="comma-separated: sgkr, lexical, vectors")
    p_eval.add_argument("--k", type=int, help="baseline retrieval budget")
    p_eval.add_argument("--vectors", help="vector file for the vectors scorer")

    p_inspect = sub.add_parser("inspect", help="list a graph document's contents")
    add_common(p_inspect)
    p_inspect.add_argument("--dot", action="store_true", help="emit a Graphviz document")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _make_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge(_load_config(), args)
        if args.command == "build":
            return cmd_build(config, sys.stdout)
        if args.command == "query":
            return cmd_query(config, args.question, args.format, sys.stdout)
        if args.command == "eval":
            return cmd_eval(config, args.format, sys.stdout)
        if args.command == "inspect":
            return cmd_inspect(config, args.dot, args.format, sys.stdout)
        parser.error(f"unknown command {args.command!r}")
    except SgkrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
