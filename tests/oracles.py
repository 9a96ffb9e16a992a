"""Independent reference implementations and random-instance generators.

These deliberately avoid the library's own traversal and merge code so
that tests compare two separately written routes to the same answer.
"""

from __future__ import annotations

import ast
import json
import math
import random
import re
import warnings
from collections import Counter, defaultdict
from typing import Sequence

from sgkr.baselines import BM25_B, BM25_K1
from sgkr.context import ContextBundle
from sgkr.corpus import KEYWORDS
from sgkr.graph import (
    CALL,
    EDGE_TYPES,
    FEEDS,
    FORMAT_VERSION,
    INPUT,
    OUTPUT,
    YIELDS,
    DependencyGraph,
    Edge,
    IoNode,
    KnowledgeCodeNode,
)
from sgkr.errors import FormatVersionMismatch, ParseError, SchemaViolation
from sgkr.parser import FunctionDef
from sgkr.retriever import DependencyPath, PathEdge, RetrievalResult
from sgkr.tagger import TagSet, TagVocabulary

KNOWLEDGE_SEP = "\n\n"


def oracle_merge(graph: DependencyGraph) -> DependencyGraph:
    """Relabel-and-deduplicate reference for duplicate-name merging."""
    order = list(graph.kc_nodes.values())
    canon: dict[str, str] = {}
    for node in order:
        canon.setdefault(node.function_name, node.node_id)
    relabel = {node.node_id: canon[node.function_name] for node in order}

    # Each keeper's origin entries, knowledge texts and variant bodies.
    gathered: dict[str, tuple[list[str], list[str], list[str]]] = {
        node.node_id: (list(node.origin_entries), [node.knowledge], list(node.variants))
        for node in order if relabel[node.node_id] == node.node_id
    }
    for node in order:
        target = relabel[node.node_id]
        if target == node.node_id:
            continue
        origins, texts, variants = gathered[target]
        for origin in node.origin_entries:
            if origin not in origins:
                origins.append(origin)
        if node.knowledge and node.knowledge not in KNOWLEDGE_SEP.join(texts).split(KNOWLEDGE_SEP):
            texts.append(node.knowledge)
        for body in (node.code,) + node.variants:
            if body != graph.kc_nodes[target].code and body not in variants:
                variants.append(body)
    merged = {
        target: KnowledgeCodeNode(
            node_id=target,
            function_name=graph.kc_nodes[target].function_name,
            code=graph.kc_nodes[target].code,
            knowledge=KNOWLEDGE_SEP.join(texts),
            origin_entries=tuple(origins),
            variants=tuple(variants),
        )
        for target, (origins, texts, variants) in gathered.items()
    }

    edges = {
        type(edge)(relabel.get(edge.src, edge.src), relabel.get(edge.dst, edge.dst), edge.type)
        for edge in graph.edges
    }
    return DependencyGraph(kc_nodes=merged, io_nodes=dict(graph.io_nodes), edges=edges)


def oracle_simple_paths(
    graph: DependencyGraph,
    sources: list[str],
    targets: list[str],
    max_depth: int,
) -> set[tuple[str, ...]]:
    """Exhaustive DFS enumeration of simple source->target paths under the
    traversal orientation rules (CALL both ways, FEEDS/YIELDS forward)."""
    neighbors: dict[str, set[str]] = defaultdict(set)
    for edge in graph.edges:
        neighbors[edge.src].add(edge.dst)
        if edge.type == CALL:
            neighbors[edge.dst].add(edge.src)

    target_set = set(targets)
    results: set[tuple[str, ...]] = set()

    def walk(node: str, path: list[str]) -> None:
        if node in target_set:
            if len(path) > 1:
                results.add(tuple(path))
            return
        if len(path) - 1 >= max_depth:
            return
        for nxt in neighbors[node]:
            if nxt not in path:
                walk(nxt, path + [nxt])

    for source in sources:
        walk(source, [source])
    return results


def oracle_bfs_paths(
    graph: DependencyGraph,
    sources: list[str],
    targets: list[str],
    max_depth: int,
    max_paths: int,
) -> tuple[list[DependencyPath], bool]:
    """The retired layer-by-layer breadth-first path search: every partial
    simple path is kept, one layer per edge, and each layer's completed
    paths are sorted by node-id sequence. Returns the paths and whether
    the path cap truncated the search (a completed path was dropped, or
    partial paths remained when the cap was reached)."""
    raw: dict[str, dict[str, tuple[Edge, bool]]] = {}

    def offer(node: str, neighbor: str, edge: Edge, rev: bool) -> None:
        slot = raw.setdefault(node, {})
        current = slot.get(neighbor)
        if current is None or (current[1] and not rev):
            slot[neighbor] = (edge, rev)

    for edge in sorted(graph.edges):
        offer(edge.src, edge.dst, edge, False)
        if edge.type == CALL:
            offer(edge.dst, edge.src, edge, True)
    moves = {node: [(nbr, *data) for nbr, data in sorted(slot.items())]
             for node, slot in raw.items()}

    target_ids = set(targets)
    truncated = False
    found: list[DependencyPath] = []
    frontier: list[tuple[tuple[str, ...], tuple[PathEdge, ...]]] = [
        ((source,), ()) for source in sorted(set(sources))
    ]
    depth = 0
    while frontier and len(found) < max_paths and depth < max_depth:
        depth += 1
        next_frontier = []
        completed_here = []
        for nodes, edges in frontier:
            for neighbor, edge, rev in moves.get(nodes[-1], []):
                if neighbor in nodes:
                    continue
                step = PathEdge(src=edge.src, dst=edge.dst, type=edge.type, reversed=rev)
                extended = (nodes + (neighbor,), edges + (step,))
                if neighbor in target_ids:
                    completed_here.append(extended)
                else:
                    next_frontier.append(extended)
        completed_here.sort(key=lambda item: item[0])
        for nodes, edges in completed_here:
            if len(found) >= max_paths:
                truncated = True
                break
            found.append(DependencyPath(nodes=nodes, edges=edges))
        frontier = next_frontier

    if frontier and len(found) >= max_paths:
        truncated = True
    return found, truncated


def oracle_reachable(graph: DependencyGraph, start: str) -> set[str]:
    """Forward reachability over stored edge directions (no CALL reversal),
    used for merge connectivity properties."""
    neighbors: dict[str, set[str]] = defaultdict(set)
    for edge in graph.edges:
        neighbors[edge.src].add(edge.dst)
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for nxt in neighbors[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def random_premerge_graph(rng: random.Random, max_entries: int = 4, max_funcs: int = 8) -> DependencyGraph:
    """A pre-merge graph with duplicate function names planted across
    fake entries (up to max_entries * max_funcs <= 30 or so nodes)."""
    kc_nodes: dict[str, KnowledgeCodeNode] = {}
    edges: set[Edge] = set()
    n_entries = rng.randint(1, max_entries)
    name_pool = [f"f{i}" for i in range(max_funcs)]
    for entry_index in range(n_entries):
        entry_id = f"e{entry_index}"
        chosen = rng.sample(name_pool, rng.randint(1, max_funcs))
        for name in chosen:
            kc_nodes[f"kc:{entry_id}:{name}"] = KnowledgeCodeNode(
                node_id=f"kc:{entry_id}:{name}",
                function_name=name,
                code=f"def {name}():\n    pass  # {entry_id} v{rng.randint(0, 2)}",
                knowledge=rng.choice([f"about {name}", f"notes on {name} from {entry_id}"]),
                origin_entries=(entry_id,),
            )
        for caller in chosen:
            for callee in chosen:
                if caller != callee and rng.random() < 0.25:
                    edges.add(Edge(f"kc:{entry_id}:{caller}", f"kc:{entry_id}:{callee}", CALL))
    return DependencyGraph(kc_nodes=kc_nodes, edges=edges)


def random_io_graph(rng: random.Random, max_kc: int = 8) -> tuple[DependencyGraph, list[str], list[str]]:
    """A merged-style graph (unique names) with random CALL edges and
    random I/O attachments; returns (graph, source ids, target ids)."""
    kc_nodes: dict[str, KnowledgeCodeNode] = {}
    io_nodes: dict[str, IoNode] = {}
    edges: set[Edge] = set()
    n_kc = rng.randint(2, max_kc)
    kc_ids = []
    for i in range(n_kc):
        node_id = f"kc:e0:f{i}"
        kc_ids.append(node_id)
        kc_nodes[node_id] = KnowledgeCodeNode(
            node_id=node_id,
            function_name=f"f{i}",
            code=f"def f{i}():\n    pass",
            knowledge=f"about f{i}",
            origin_entries=("e0",),
        )
    for src in kc_ids:
        for dst in kc_ids:
            if src != dst and rng.random() < 0.25:
                edges.add(Edge(src, dst, CALL))

    # I/O nodes may anchor at several functions (multiple FEEDS/YIELDS),
    # like labels shared across corpus entries.
    sources, targets = [], []
    for i in range(rng.randint(1, 2)):
        label = f"in{i}"
        node_id = f"io:{INPUT}:{label}"
        io_nodes[node_id] = IoNode(node_id=node_id, label=label, kind=INPUT)
        for anchor in rng.sample(kc_ids, min(len(kc_ids), rng.randint(1, 3))):
            edges.add(Edge(node_id, anchor, FEEDS))
        sources.append(node_id)
    for i in range(rng.randint(1, 2)):
        label = f"out{i}"
        node_id = f"io:{OUTPUT}:{label}"
        io_nodes[node_id] = IoNode(node_id=node_id, label=label, kind=OUTPUT)
        for anchor in rng.sample(kc_ids, min(len(kc_ids), rng.randint(1, 3))):
            edges.add(Edge(anchor, node_id, YIELDS))
        targets.append(node_id)
    return DependencyGraph(kc_nodes=kc_nodes, io_nodes=io_nodes, edges=edges), sources, targets


def add_malformed_edges(rng: random.Random, graph: DependencyGraph, count: int = 6) -> DependencyGraph:
    """The graph with `count` edges of a random type between random nodes
    added, I/O nodes included and either way round: a FEEDS edge into an
    input, a YIELDS edge out of an output, a CALL edge touching an I/O
    node, self-loops."""
    nodes = sorted([*graph.kc_nodes, *graph.io_nodes])
    added = [Edge(rng.choice(nodes), rng.choice(nodes), rng.choice((CALL, FEEDS, YIELDS)))
             for _ in range(count)]
    return graph._replace(edges=graph.edges | set(added))


def oracle_call_cycles(graph: DependencyGraph) -> list[tuple[str, ...]]:
    """Every simple CALL cycle, each rooted at its smallest node id so it
    is listed exactly once. Exponential in the worst case and recursive
    per path step: only for small graphs."""
    adjacency: dict[str, list[str]] = {nid: [] for nid in graph.kc_nodes}
    for edge in graph.edges:
        if edge.type == CALL and edge.src in adjacency and edge.dst in adjacency:
            adjacency[edge.src].append(edge.dst)
    for nid in adjacency:
        adjacency[nid] = sorted(set(adjacency[nid]))

    cycles: list[tuple[str, ...]] = []

    def explore(root: str, node: str, path: list[str], visited: set[str]) -> None:
        for successor in adjacency[node]:
            if successor == root:
                cycles.append(tuple(path + [root]))
            elif successor > root and successor not in visited:
                explore(root, successor, path + [successor], visited | {successor})

    for root in sorted(adjacency):
        explore(root, root, [root], {root})
    return cycles


def oracle_cyclic_components(graph: DependencyGraph) -> set[frozenset[str]]:
    """Strongly connected components of the CALL edges that contain a
    cycle, by mutual reachability: quadratic, but independent of Tarjan."""
    calls = DependencyGraph(kc_nodes=graph.kc_nodes,
                            edges={edge for edge in graph.edges if edge.type == CALL})
    reach = {nid: oracle_reachable(calls, nid) for nid in graph.kc_nodes}
    components = set()
    for nid in graph.kc_nodes:
        members = frozenset(other for other in reach[nid] if nid in reach[other])
        if len(members) > 1 or (nid, nid, CALL) in calls.edges:
            components.add(members)
    return components


def random_call_graph(rng: random.Random, max_kc: int = 9) -> DependencyGraph:
    """Knowledge-code nodes in shuffled insertion order with random CALL
    edges, self-loops included, at a random density."""
    kc_ids = [f"kc:e0:f{i}" for i in range(rng.randint(0, max_kc))]
    rng.shuffle(kc_ids)
    kc_nodes = {}
    for node_id in kc_ids:
        name = node_id.rsplit(":", 1)[1]
        kc_nodes[node_id] = KnowledgeCodeNode(
            node_id=node_id, function_name=name, code=f"def {name}():\n    pass",
            knowledge=f"about {name}", origin_entries=("e0",),
        )
    density = rng.choice((0.05, 0.15, 0.3))
    edges = {Edge(src, dst, CALL) for src in kc_ids for dst in kc_ids if rng.random() < density}
    return DependencyGraph(kc_nodes=kc_nodes, edges=edges)


_ORACLE_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_ORACLE_HEADER_RE = re.compile(
    r"^(?P<indent>[ \t]*)def\s+(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"\s*\((?P<params>[^()#]*)\)\s*:\s*(?:#.*)?$"
)


def _oracle_indent_width(line: str) -> int:
    return len(line) - len(line.lstrip(" \t"))


def _oracle_scan_calls(line: str, line_no: int) -> list[str]:
    """Callee names on one line, one character at a time."""
    calls = []
    i = 0
    prev_token = ""
    while i < len(line):
        ch = line[i]
        if ch == "#":
            break
        if ch in "'\"":
            closing = line.find(ch, i + 1)
            if closing == -1:
                raise ParseError("unterminated string literal", line_no, i + 1)
            i = closing + 1
            prev_token = ""
            continue
        match = _ORACLE_IDENT_RE.match(line, i)
        if match:
            name = match.group()
            end = match.end()
            is_attribute = i > 0 and line[i - 1] == "."
            is_call = end < len(line) and line[end] == "("
            if is_call and not is_attribute and name not in KEYWORDS and prev_token != "def":
                calls.append(name)
            prev_token = name
            i = end
            continue
        if not ch.isspace():
            prev_token = ""
        i += 1
    return calls


def _oracle_parse_header(line: str, line_no: int) -> tuple[str, str, tuple[str, ...]]:
    match = _ORACLE_HEADER_RE.match(line)
    if not match:
        raise ParseError("bad definition header", line_no, _oracle_indent_width(line) + 1)
    params_text = match.group("params").strip()
    params = []
    if params_text:
        for piece_index, piece in enumerate(params_text.split(",")):
            piece = piece.strip()
            if not _ORACLE_IDENT_RE.fullmatch(piece):
                col = _oracle_piece_column(line, piece_index)
                raise ParseError(f"bad parameter {piece!r}", line_no, col)
            params.append(piece)
    return match.group("indent"), match.group("name"), tuple(params)


def _oracle_piece_column(line: str, piece_index: int) -> int:
    """1-based column of a header's `piece_index`-th parameter: its first
    non-blank character, or the comma or bracket ending it when blank."""
    i = line.index("(") + 1
    for _ in range(piece_index):
        i = line.index(",", i) + 1
    while line[i].isspace():
        i += 1
    return i + 1


def oracle_extract_functions(source_text: str) -> list[FunctionDef]:
    """The retired two-pass parser. Pass 1 validates every header and
    scans forward from each one for its body line range; pass 2 gives
    each line to the innermost definition whose range covers it and
    scans it for calls. Every header error is raised before any other
    error, and a comment-only line at or left of a header's indentation
    ends that definition's body."""
    lines = source_text.split("\n")
    starts = [0]
    for i, ch in enumerate(source_text):
        if ch == "\n":
            starts.append(i + 1)

    headers = []  # (index, line_no, indent, name, params)
    for idx, line in enumerate(lines):
        if re.match(r"^[ \t]*def\b", line):
            indent, name, params = _oracle_parse_header(line, idx + 1)
            headers.append((idx, idx + 1, len(indent), name, params))

    defs: list[dict] = []
    for idx, line_no, indent, name, params in headers:
        first_body = None
        last_body = None
        scan = idx + 1
        while scan < len(lines):
            line = lines[scan]
            if not line.strip():
                scan += 1
                continue
            if _oracle_indent_width(line) <= indent:
                break
            if first_body is None:
                first_body = scan
            last_body = scan
            scan += 1
        if first_body is None:
            raise ParseError(f"definition of {name!r} has no body", line_no, indent + 1)
        defs.append({
            "name": name, "params": params,
            "header_idx": idx, "first": first_body, "last": last_body,
        })

    # Definitions appear in header order, so a nested def always comes
    # after its encloser and overwrites the ownership of its own range.
    owner = [-1] * len(lines)
    for d_index, d in enumerate(defs):
        for line_idx in range(d["first"], d["last"] + 1):
            owner[line_idx] = d_index

    header_lines = {d["header_idx"] for d in defs}
    for d_index, d in enumerate(defs):
        calls: list[str] = []
        seen: set[str] = set()
        for line_idx in range(d["first"], d["last"] + 1):
            if owner[line_idx] != d_index or line_idx in header_lines:
                continue
            for name in _oracle_scan_calls(lines[line_idx], line_idx + 1):
                if name not in seen:
                    seen.add(name)
                    calls.append(name)
        d["calls"] = tuple(calls)

    result = []
    for d in defs:
        body_start = starts[d["first"]]
        body_end = starts[d["last"]] + len(lines[d["last"]])
        result.append(FunctionDef(
            name=d["name"],
            params=d["params"],
            body_text=source_text[body_start:body_end],
            calls=d["calls"],
            text=source_text[starts[d["header_idx"]]:body_end],
        ))
    return result


def ast_functions(source_text: str) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]] | None:
    """The standard-library parser's view of a source: (name, parameters,
    direct callees) of every `def`, nested ones included, in source order,
    or None where `ast.parse` rejects the source. A function's callees are
    the names of the `ast.Name` calls in its own body, nested definitions
    left out, deduplicated in source order."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a warning is no rejection
            tree = ast.parse(source_text)
    except SyntaxError:
        return None
    found = []
    for fn in sorted((node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)),
                     key=lambda node: node.lineno):
        calls, todo = [], list(fn.body)
        while todo:
            node = todo.pop()
            if isinstance(node, ast.FunctionDef):
                continue
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                calls.append(node)
            todo.extend(ast.iter_child_nodes(node))
        calls.sort(key=lambda call: (call.lineno, call.col_offset))
        found.append((fn.name, tuple(arg.arg for arg in fn.args.args),
                      tuple(dict.fromkeys(call.func.id for call in calls))))
    return found


def oracle_normalize_label(text: str) -> str:
    """The two-pass label normalizer: punctuation made spaces, then every
    whitespace run collapsed to one space and the ends stripped."""
    cleaned = re.sub(r"[^\w\s]", " ", text.lower())
    return re.sub(r"\s+", " ", cleaned).strip()


def oracle_label_tokens(text: str) -> tuple[str, ...]:
    """Tokens of the normalized text: punctuation, case and whitespace runs
    normalized away first, then split on single spaces."""
    normalized = oracle_normalize_label(text)
    return tuple(normalized.split(" ")) if normalized else ()


def oracle_match_side(tokens: tuple[str, ...], side: dict[str, tuple[str, ...]]) -> frozenset[str]:
    """The retired per-question matcher: every label and alias is a token
    pattern, tried longest first (ties broken lexically) and slid over the
    question left to right; a matched span is consumed, so a shorter
    pattern cannot reuse it."""
    patterns: list[tuple[tuple[str, ...], str]] = []
    for label, aliases in side.items():
        patterns.append((oracle_label_tokens(label), label))
        for alias in aliases:
            patterns.append((oracle_label_tokens(alias), label))
    patterns.sort(key=lambda item: (-len(item[0]), item[0], item[1]))

    consumed = [False] * len(tokens)
    matched: set[str] = set()
    for pattern, label in patterns:
        width = len(pattern)
        if width == 0:
            continue
        i = 0
        while i + width <= len(tokens):
            window = tokens[i:i + width]
            if window == pattern and not any(consumed[i:i + width]):
                consumed[i:i + width] = [True] * width
                matched.add(label)
                i += width
            else:
                i += 1
    return frozenset(matched)


def oracle_extract_tags(question: str, vocab: TagVocabulary) -> TagSet:
    tokens = oracle_label_tokens(question)
    inputs = oracle_match_side(tokens, vocab.inputs)
    outputs = oracle_match_side(tokens, vocab.outputs)
    return TagSet(inputs=inputs, outputs=outputs, fallback=not inputs or not outputs)


def oracle_topological_names(result: RetrievalResult, graph: DependencyGraph) -> list[str]:
    """The retired context order: a scan of every graph edge for the CALL
    edges inside the subgraph, then at each step the smallest (name, id)
    among the nodes whose callees are all placed, or among all remaining
    nodes when none is."""
    kc_ids = [nid for nid in result.subgraph_nodes if nid in graph.kc_nodes]
    names = {nid: graph.kc_nodes[nid].function_name for nid in kc_ids}
    id_set = set(kc_ids)

    pending = {nid: 0 for nid in kc_ids}
    callers: dict[str, list[str]] = {nid: [] for nid in kc_ids}
    for edge in graph.edges:
        if edge.type == CALL and edge.src in id_set and edge.dst in id_set:
            pending[edge.src] += 1
            callers[edge.dst].append(edge.src)

    ordered: list[str] = []
    remaining = set(kc_ids)
    while remaining:
        ready = [nid for nid in remaining if pending[nid] == 0]
        pool = ready if ready else list(remaining)
        chosen = min(pool, key=lambda nid: (names[nid], nid))
        ordered.append(chosen)
        remaining.discard(chosen)
        for caller in callers[chosen]:
            if caller in remaining:
                pending[caller] -= 1
    return [names[nid] for nid in ordered]


def oracle_assemble_context(result: RetrievalResult, graph: DependencyGraph) -> ContextBundle:
    """The retired bundle assembly: every name resolves through a map over
    all knowledge-code nodes, so a repeated name takes its last node."""
    if result.fallback:
        return ContextBundle(knowledge_texts=(), code_examples=(), source_paths=())
    by_name = {node.function_name: node for node in graph.kc_nodes.values()}
    ordered = oracle_topological_names(result, graph)
    return ContextBundle(
        knowledge_texts=tuple((name, by_name[name].knowledge) for name in ordered),
        code_examples=tuple((name, by_name[name].code) for name in ordered),
        source_paths=result.paths,
    )


_ORACLE_WORD_RE = re.compile(r"\w+")


def oracle_text_tokens(text: str) -> list[str]:
    """The retired text tokenizer: `\\w+` runs of the lowercased text,
    each split on `_`."""
    tokens = []
    for word in _ORACLE_WORD_RE.findall(text.lower()):
        tokens.extend(part for part in word.split("_") if part)
    return tokens


def oracle_code_identifier_tokens(code: str) -> list[str]:
    """The retired code tokenizer: `\\w+` runs of the code as written,
    keywords and digit runs dropped, each lowercased and split on `_`."""
    return [part for word in _ORACLE_WORD_RE.findall(code)
            if word not in KEYWORDS and not word.isdigit()
            for part in word.lower().split("_") if part]


def oracle_node_document_tokens(node: KnowledgeCodeNode) -> list[str]:
    return (oracle_text_tokens(node.function_name) + oracle_text_tokens(node.knowledge)
            + oracle_code_identifier_tokens(node.code))


def oracle_bm25_rank(nodes: Sequence[KnowledgeCodeNode], question: str) -> list[tuple[str, float]]:
    """The retired document-major Okapi ranker: every document's token
    list and one `Counter` per name (the last node of a repeated name
    wins), then a per-document sum over the question's terms for every
    node, sorted by score, ties by name."""
    names = [node.function_name for node in nodes]
    docs = [oracle_node_document_tokens(node) for node in nodes]
    term_freqs = {name: Counter(doc) for name, doc in zip(names, docs)}
    doc_lens = {name: len(doc) for name, doc in zip(names, docs)}
    n_docs = len(docs)
    avgdl = (sum(doc_lens.values()) / n_docs) if n_docs else 0.0
    doc_freq: Counter[str] = Counter()
    for doc in docs:
        doc_freq.update(set(doc))
    idf = {term: math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
           for term, df in doc_freq.items()}

    def score(terms: list[str], name: str) -> float:
        term_freq, doc_len = term_freqs[name], doc_lens[name]
        if not doc_len or not avgdl:
            return 0.0
        norm = BM25_K1 * (1.0 - BM25_B + BM25_B * doc_len / avgdl)
        total = 0.0
        for term in terms:
            freq = term_freq.get(term)
            if not freq:
                continue
            total += idf[term] * freq * (BM25_K1 + 1.0) / (freq + norm)
        return total

    terms = oracle_text_tokens(question)
    scored = [(name, score(terms, name)) for name in names]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def oracle_serialize(graph: DependencyGraph) -> str:
    """The retired writer: the whole document as one JSON value, written
    by `json.dumps` with sorted keys and a two-space indent."""
    document = {
        "format_version": FORMAT_VERSION,
        "kc_nodes": [
            {
                "node_id": node.node_id,
                "function_name": node.function_name,
                "code": node.code,
                "knowledge": node.knowledge,
                "origin_entries": list(node.origin_entries),
                "variants": list(node.variants),
            }
            for _, node in sorted(graph.kc_nodes.items())
        ],
        "io_nodes": [
            {"node_id": node.node_id, "label": node.label, "kind": node.kind}
            for _, node in sorted(graph.io_nodes.items())
        ],
        "edges": [
            {"src": edge.src, "dst": edge.dst, "type": edge.type}
            for edge in sorted(graph.edges)
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


_ORACLE_KC_FIELDS = {"node_id": str, "function_name": str, "code": str, "knowledge": str,
                     "origin_entries": list, "variants": list}
_ORACLE_IO_NODE_FIELDS = {"node_id": str, "label": str, "kind": str}
_ORACLE_EDGE_FIELDS = {"src": str, "dst": str, "type": str}
_ORACLE_DOC_FIELDS = {"format_version": object, "kc_nodes": list, "io_nodes": list,
                      "edges": list}


def _oracle_check_fields(record: object, expected: dict[str, type], where: str) -> dict:
    if not isinstance(record, dict):
        raise SchemaViolation(f"{where}: expected an object")
    if record.keys() != expected.keys():
        raise SchemaViolation(f"{where}: fields {sorted(record)} != {sorted(expected)}")
    for name, kind in expected.items():
        if not isinstance(record[name], kind):
            raise SchemaViolation(f"{where}: {name!r} must be a {kind.__name__}")
    return record


def oracle_deserialize(document: str) -> DependencyGraph:
    """The retired reader: `_oracle_check_fields` on every record, then
    the record's own checks, then keyword construction."""
    try:
        raw = json.loads(document)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaViolation(f"not valid JSON: {exc}") from exc
    raw = _oracle_check_fields(raw, _ORACLE_DOC_FIELDS, "document")
    if raw["format_version"] != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"unsupported format version {raw['format_version']!r} "
            f"(expected {FORMAT_VERSION!r})"
        )
    kc_nodes: dict[str, KnowledgeCodeNode] = {}
    io_nodes: dict[str, IoNode] = {}
    edges: set[Edge] = set()
    for i, record in enumerate(raw["kc_nodes"]):
        record = _oracle_check_fields(record, _ORACLE_KC_FIELDS, f"kc_nodes[{i}]")
        if not all(isinstance(text, str) for text in record["origin_entries"] + record["variants"]):
            raise SchemaViolation(f"kc_nodes[{i}]: origin_entries and variants must hold strings")
        kc_nodes[record["node_id"]] = KnowledgeCodeNode(
            node_id=record["node_id"],
            function_name=record["function_name"],
            code=record["code"],
            knowledge=record["knowledge"],
            origin_entries=tuple(record["origin_entries"]),
            variants=tuple(record["variants"]),
        )
    for i, record in enumerate(raw["io_nodes"]):
        record = _oracle_check_fields(record, _ORACLE_IO_NODE_FIELDS, f"io_nodes[{i}]")
        if record["kind"] not in (INPUT, OUTPUT):
            raise SchemaViolation(f"io_nodes[{i}]: bad kind {record['kind']!r}")
        io_nodes[record["node_id"]] = IoNode(**record)
    known = kc_nodes.keys() | io_nodes.keys()
    if len(known) < len(raw["kc_nodes"]) + len(raw["io_nodes"]):
        seen: set[str] = set()
        for record in raw["kc_nodes"] + raw["io_nodes"]:
            if record["node_id"] in seen:
                raise SchemaViolation(f"duplicate node_id {record['node_id']!r}")
            seen.add(record["node_id"])
    for i, record in enumerate(raw["edges"]):
        record = _oracle_check_fields(record, _ORACLE_EDGE_FIELDS, f"edges[{i}]")
        edge = Edge(record["src"], record["dst"], record["type"])
        if edge.type not in EDGE_TYPES:
            raise SchemaViolation(f"edges[{i}]: bad type {edge.type!r}")
        if edge.src not in known or edge.dst not in known:
            raise SchemaViolation(f"edges[{i}]: dangling endpoint")
        edges.add(edge)
    return DependencyGraph(kc_nodes=kc_nodes, io_nodes=io_nodes, edges=edges)
