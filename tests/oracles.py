"""Independent reference implementations and random-instance generators.

These deliberately avoid the library's own traversal and merge code so
that tests compare two separately written routes to the same answer.
"""

from __future__ import annotations

import random
import re
from collections import defaultdict

from sgkr.graph import (
    CALL,
    FEEDS,
    INPUT,
    OUTPUT,
    YIELDS,
    DependencyGraph,
    Edge,
    IoNode,
    KnowledgeCodeNode,
)
from sgkr.errors import ParseError
from sgkr.parser import KEYWORDS, FunctionDef
from sgkr.retriever import DependencyPath, PathEdge

KNOWLEDGE_SEP = "\n\n"


def oracle_merge(graph: DependencyGraph) -> DependencyGraph:
    """Relabel-and-deduplicate reference for duplicate-name merging."""
    order = list(graph.kc_nodes.values())
    canon: dict[str, str] = {}
    for node in order:
        canon.setdefault(node.function_name, node.node_id)
    relabel = {node.node_id: canon[node.function_name] for node in order}

    merged: dict[str, KnowledgeCodeNode] = {}
    for node in order:
        target = relabel[node.node_id]
        if target == node.node_id:
            merged[target] = KnowledgeCodeNode(
                node_id=node.node_id,
                function_name=node.function_name,
                code=node.code,
                knowledge=node.knowledge,
                origin_entries=tuple(node.origin_entries),
                variants=tuple(node.variants),
            )
    for node in order:
        target = relabel[node.node_id]
        if target == node.node_id:
            continue
        keeper = merged[target]
        origins = list(keeper.origin_entries)
        for origin in node.origin_entries:
            if origin not in origins:
                origins.append(origin)
        keeper.origin_entries = tuple(origins)
        if node.knowledge and node.knowledge not in keeper.knowledge.split(KNOWLEDGE_SEP):
            keeper.knowledge = keeper.knowledge + KNOWLEDGE_SEP + node.knowledge
        for body in (node.code,) + node.variants:
            if body != keeper.code and body not in keeper.variants:
                keeper.variants = keeper.variants + (body,)

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
    graph = DependencyGraph()
    n_entries = rng.randint(1, max_entries)
    name_pool = [f"f{i}" for i in range(max_funcs)]
    for entry_index in range(n_entries):
        entry_id = f"e{entry_index}"
        chosen = rng.sample(name_pool, rng.randint(1, max_funcs))
        for name in chosen:
            graph.add_kc_node(KnowledgeCodeNode(
                node_id=f"kc:{entry_id}:{name}",
                function_name=name,
                code=f"def {name}():\n    pass  # {entry_id} v{rng.randint(0, 2)}",
                knowledge=rng.choice([f"about {name}", f"notes on {name} from {entry_id}"]),
                origin_entries=(entry_id,),
            ))
        for caller in chosen:
            for callee in chosen:
                if caller != callee and rng.random() < 0.25:
                    graph.add_edge(f"kc:{entry_id}:{caller}", f"kc:{entry_id}:{callee}", CALL)
    return graph


def random_io_graph(rng: random.Random, max_kc: int = 8) -> tuple[DependencyGraph, list[str], list[str]]:
    """A merged-style graph (unique names) with random CALL edges and
    random I/O attachments; returns (graph, source ids, target ids)."""
    graph = DependencyGraph()
    n_kc = rng.randint(2, max_kc)
    kc_ids = []
    for i in range(n_kc):
        node_id = f"kc:e0:f{i}"
        kc_ids.append(node_id)
        graph.add_kc_node(KnowledgeCodeNode(
            node_id=node_id,
            function_name=f"f{i}",
            code=f"def f{i}():\n    pass",
            knowledge=f"about f{i}",
            origin_entries=("e0",),
        ))
    for src in kc_ids:
        for dst in kc_ids:
            if src != dst and rng.random() < 0.25:
                graph.add_edge(src, dst, CALL)

    # I/O nodes may anchor at several functions (multiple FEEDS/YIELDS),
    # like labels shared across corpus entries.
    sources, targets = [], []
    for i in range(rng.randint(1, 2)):
        label = f"in{i}"
        node_id = graph.io_node_id(label, INPUT)
        graph.add_io_node(IoNode(node_id=node_id, label=label, kind=INPUT))
        for anchor in rng.sample(kc_ids, min(len(kc_ids), rng.randint(1, 3))):
            graph.add_edge(node_id, anchor, FEEDS)
        sources.append(node_id)
    for i in range(rng.randint(1, 2)):
        label = f"out{i}"
        node_id = graph.io_node_id(label, OUTPUT)
        graph.add_io_node(IoNode(node_id=node_id, label=label, kind=OUTPUT))
        for anchor in rng.sample(kc_ids, min(len(kc_ids), rng.randint(1, 3))):
            graph.add_edge(anchor, node_id, YIELDS)
        targets.append(node_id)
    return graph, sources, targets


def add_malformed_edges(rng: random.Random, graph: DependencyGraph, count: int = 6) -> None:
    """Add `count` edges of a random type between random nodes, I/O nodes
    included and either way round: a FEEDS edge into an input, a YIELDS
    edge out of an output, a CALL edge touching an I/O node, self-loops."""
    nodes = sorted([*graph.kc_nodes, *graph.io_nodes])
    for _ in range(count):
        graph.add_edge(rng.choice(nodes), rng.choice(nodes), rng.choice((CALL, FEEDS, YIELDS)))


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
    graph = DependencyGraph()
    kc_ids = [f"kc:e0:f{i}" for i in range(rng.randint(0, max_kc))]
    rng.shuffle(kc_ids)
    for node_id in kc_ids:
        name = node_id.rsplit(":", 1)[1]
        graph.add_kc_node(KnowledgeCodeNode(
            node_id=node_id, function_name=name, code=f"def {name}():\n    pass",
            knowledge=f"about {name}", origin_entries=("e0",),
        ))
    density = rng.choice((0.05, 0.15, 0.3))
    for src in kc_ids:
        for dst in kc_ids:
            if rng.random() < density:
                graph.add_edge(src, dst, CALL)
    return graph


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
        for piece in params_text.split(","):
            piece = piece.strip()
            if not _ORACLE_IDENT_RE.fullmatch(piece):
                col = line.index(match.group("params")) + 1
                raise ParseError(f"bad parameter {piece!r}", line_no, col)
            params.append(piece)
    return match.group("indent"), match.group("name"), tuple(params)


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
