"""Command-line front door: build graphs, query them, evaluate retrievers,
and inspect graph documents.

A JSON config file named by the SGKR_CONFIG environment variable supplies
defaults; explicit flags always win.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

from . import context, corpus, graph as graphmod, retriever, tagger
from .errors import SgkrError

CONFIG_ENV_VAR = "SGKR_CONFIG"

_DEFAULTS = {
    "manifest": None,
    "graph": None,
    **retriever.RetrievalLimits()._asdict(),  # max_depth, max_paths
    "aliases": None,
    "k": 5,
    "vectors": None,
    "gold": None,
    "methods": "sgkr,lexical",
}
# A key that defaults to None takes a string or null; any other takes its
# default's type.
_CONFIG_FIELDS = {key: (str, type(None)) if default is None else type(default)
                  for key, default in _DEFAULTS.items()}


def _load_config() -> dict:
    config_path = os.environ.get(CONFIG_ENV_VAR)
    if not config_path:
        return _DEFAULTS
    raw = corpus.read_json(Path(config_path), SgkrError, "config file")
    if type(raw) is dict:
        raw = {**_DEFAULTS, **raw}
    return corpus.check(raw, _CONFIG_FIELDS, f"config file {config_path}", SgkrError)


def _load_graph(path: str | None) -> graphmod.DependencyGraph:
    if not path:
        raise SgkrError("no graph document given (--graph)")
    return graphmod.load(path)


def _build_vocab(g: graphmod.DependencyGraph, aliases_path: str | None) -> tagger.TagVocabulary:
    aliases = tagger.load_aliases(aliases_path) if aliases_path else None
    return tagger.build_vocabulary(g, aliases)


def _limits(args: argparse.Namespace) -> retriever.RetrievalLimits:
    try:
        return retriever.RetrievalLimits(max_depth=args.max_depth, max_paths=args.max_paths)
    except ValueError as exc:
        raise SgkrError(str(exc)) from exc


def cmd_build(args: argparse.Namespace, out) -> int:
    if not args.manifest:
        raise SgkrError("no manifest given (--manifest)")
    if not args.graph:
        raise SgkrError("no output path given (--graph)")
    built = graphmod.build_graph(corpus.load_corpus(args.manifest))
    report = graphmod.validate_graph(built)
    for violation in report.violations:
        print(f"warning: {violation}", file=sys.stderr)

    # Each merged node absorbed one pre-merge node per extra origin entry.
    merged_away = sum(len(node.origin_entries) for node in built.kc_nodes.values()) \
        - len(built.kc_nodes)
    print(f"built graph: {len(built.kc_nodes)} kc-nodes, {len(built.io_nodes)} io-nodes, "
          f"{len(built.edges)} edges; duplicate nodes merged: {merged_away}", file=out)
    print(f"call cycles: {len(report.cycles)}", file=out)
    for cycle in report.cycles:
        print("  cycle: " + " -> ".join(cycle), file=out)
    # Written only once the summary has printed, so a summary the output
    # stream cannot encode leaves no document behind.
    Path(args.graph).write_text(graphmod.serialize(built), encoding="utf-8")
    print(f"wrote {args.graph}", file=out)
    return 0


def cmd_query(args: argparse.Namespace, out) -> int:
    limits = _limits(args)
    g = _load_graph(args.graph)
    vocab = _build_vocab(g, args.aliases)
    tagset = tagger.extract_tags(args.question, vocab)
    result = retriever.retrieve(g, tagset, limits)
    bundle = context.assemble_context(result, g)

    if args.format == "structured":
        payload = context.bundle_to_dict(bundle)
        payload["fallback"] = result.fallback
        payload["inputs"] = sorted(tagset.inputs)
        payload["outputs"] = sorted(tagset.outputs)
        payload["retrieved_kc_count"] = len(bundle.knowledge_texts)
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


def cmd_eval(args: argparse.Namespace, out) -> int:
    from . import baselines  # only `eval` ranks by similarity

    # The flags are checked before any file is read, so a bad one fails at once.
    methods = list(dict.fromkeys(m.strip() for m in args.methods.split(",") if m.strip()))
    if not methods:
        raise SgkrError("no methods given (--methods)")
    for method in methods:
        if method not in ("sgkr", "lexical", "vectors"):
            raise SgkrError(f"unknown method {method!r} (expected sgkr, lexical, vectors)")
    if "vectors" in methods and not args.vectors:
        raise SgkrError("method 'vectors' requires --vectors")
    if args.k < 1:
        raise SgkrError("baseline budget k must be >= 1")
    if not args.gold:
        raise SgkrError("no gold file given (--gold)")
    limits = _limits(args)
    g = _load_graph(args.graph)
    gold = baselines.load_gold(args.gold)
    if not gold:
        raise SgkrError(f"gold file {args.gold} contains no questions")
    known_names = {node.function_name for node in g.kc_nodes.values()}
    for annotation in gold:
        stray = (annotation.needed | annotation.unneeded) - known_names
        if stray:
            raise SgkrError(
                f"gold question {annotation.question!r} references unknown functions "
                f"{sorted(stray)}"
            )

    vectors = baselines.load_vectors(args.vectors) if args.vectors else None

    def retrieved(method: str, question: str) -> frozenset[str]:
        if method != "sgkr":
            return frozenset(baselines.retrieve_topk(question, g, args.k, scorer=method,
                                                     vectors=vectors))
        retrieval = retriever.retrieve(g, tagger.extract_tags(question, vocab), limits)
        if retrieval.stats.truncated_by_budget:
            print(f"note: search for {question!r} stopped at the work budget", file=sys.stderr)
        return frozenset(retriever.retrieved_kc_names(retrieval, g))

    reports: dict[str, baselines.EvalReport] = {}
    for method in methods:
        if method == "sgkr":
            vocab = _build_vocab(g, args.aliases)
        results = {annotation.question: retrieved(method, annotation.question)
                   for annotation in gold}
        reports[method] = baselines.evaluate(results, gold)

    if args.format == "structured":
        payload = {method: baselines.eval_report_to_dict(report)
                   for method, report in reports.items()}
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    else:
        print(baselines.format_eval_table(reports), file=out, end="")
    return 0


def cmd_inspect(args: argparse.Namespace, out) -> int:
    g = _load_graph(args.graph)
    if args.dot:
        print(graphmod.to_dot(g), file=out, end="")
        return 0
    if args.format == "structured":
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

    def add_graph_flags(p: argparse.ArgumentParser, *,
                        search: bool) -> argparse._MutuallyExclusiveGroup:
        p.add_argument("--graph", help="graph document path")
        if search:
            p.add_argument("--max-depth", type=int,
                           help="longest dependency path searched, in edges")
            p.add_argument("--max-paths", type=int, help="path count limit")
            p.add_argument("--aliases", help="alias file path")
        # Unset means text. A default of None, which no argument spells, has
        # argparse count `--format text` as given when `inspect --dot` is too.
        formats = p.add_mutually_exclusive_group()
        formats.add_argument("--format", choices=("text", "structured"), help="output format")
        return formats

    p_build = sub.add_parser("build", help="build a graph document from a corpus manifest")
    p_build.set_defaults(run=cmd_build)
    p_build.add_argument("--manifest", help="corpus manifest path")
    p_build.add_argument("--graph", help="output graph document path")

    p_query = sub.add_parser("query", help="retrieve context for a question")
    p_query.set_defaults(run=cmd_query)
    add_graph_flags(p_query, search=True)
    p_query.add_argument("--question", required=True)

    p_eval = sub.add_parser("eval", help="score retrieval methods against gold annotations")
    p_eval.set_defaults(run=cmd_eval)
    add_graph_flags(p_eval, search=True)
    p_eval.add_argument("--gold", help="gold annotation file")
    p_eval.add_argument("--methods", help="comma-separated: sgkr, lexical, vectors")
    p_eval.add_argument("--k", type=int, help="baseline retrieval budget")
    p_eval.add_argument("--vectors", help="vector file for the vectors scorer")

    p_inspect = sub.add_parser("inspect", help="list a graph document's contents")
    p_inspect.set_defaults(run=cmd_inspect)
    add_graph_flags(p_inspect, search=False).add_argument(
        "--dot", action="store_true", help="emit a Graphviz document")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    # A command makes a fixed amount of cyclic garbage whatever its input,
    # and the graph it loads holds no cycles, so collector passes over it
    # would find nothing: the collector is off while the command runs.
    collector_enabled = gc.isenabled()
    gc.disable()
    # Text the output stream cannot encode, such as a lone surrogate that a
    # JSON input spelled as an escape, is printed as its backslash escape.
    # `reconfigure` flushes the stream, so a closed pipe can fail it.
    out = sys.stdout
    errors = out.errors if hasattr(out, "reconfigure") else None
    try:
        if errors is not None:
            out.reconfigure(errors="backslashreplace")
        try:
            for key, value in _load_config().items():
                if getattr(args, key, None) is None:
                    setattr(args, key, value)
            return args.run(args, out)
        finally:
            if errors is not None:
                out.reconfigure(errors=errors)
    # A stream that cannot be reconfigured may still fail to encode.
    except (SgkrError, OSError, UnicodeEncodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collector_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
