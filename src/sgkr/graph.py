"""The knowledge-code dependency graph and its construction pipeline.

Construction runs in three steps: assemble one node per (entry, function)
pair with intra-entry call edges, merge nodes that share a function name
into a single canonical node, then insert semantic I/O nodes and attach
them to their anchor functions. The merged graph is what retrieval runs
against and what gets persisted.

Nodes and graphs are read-only once made. Each step, like `deserialize`,
fills local dicts and a set and makes its graph once; a changed node or
graph is a new one, made with `dataclasses.replace`.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

from .corpus import Corpus, IoSpec
from .errors import (
    AnchorNotFound,
    FormatVersionMismatch,
    KnowledgeBindingError,
    SchemaViolation,
)
from .parser import TraceFragment, build_trace_fragment

CALL = "CALL"
FEEDS = "FEEDS"
YIELDS = "YIELDS"
EDGE_TYPES = frozenset({CALL, FEEDS, YIELDS})

INPUT = "input"
OUTPUT = "output"

FORMAT_VERSION = "1"

_KNOWLEDGE_SEPARATOR = "\n\n"


class Edge(NamedTuple):
    src: str
    dst: str
    type: str


@dataclass(frozen=True)
class KnowledgeCodeNode:
    """A function bound to its domain-knowledge text.

    `origin_entries` lists the corpus entries the function appeared in;
    `variants` keeps alternative bodies seen for the same name after
    merging (the canonical body stays in `code`).
    """

    node_id: str
    function_name: str
    code: str
    knowledge: str
    origin_entries: tuple[str, ...]
    variants: tuple[str, ...] = ()


@dataclass(frozen=True)
class IoNode:
    node_id: str
    label: str
    kind: str  # INPUT or OUTPUT


@dataclass(frozen=True)
class DependencyGraph:
    """Directed graph over knowledge-code nodes and semantic I/O nodes.

    Edge types: CALL (function -> function it calls), FEEDS (input I/O
    node -> consuming function), YIELDS (function -> output I/O node).

    Read-only once made: the node maps are read-only views of private
    copies and the edges a frozenset. `dataclasses.replace(graph, ...)`
    makes a changed graph, which starts with an empty cache.
    """

    kc_nodes: Mapping[str, KnowledgeCodeNode] = field(default_factory=dict)
    io_nodes: Mapping[str, IoNode] = field(default_factory=dict)
    edges: frozenset[Edge] = frozenset()
    # Structures derived from the graph and memoized on it by the module
    # that owns them (the retriever's traversal index, the lexical ranker).
    cache: dict[str, object] = field(default_factory=dict, init=False, repr=False,
                                     compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kc_nodes", MappingProxyType(dict(self.kc_nodes)))
        object.__setattr__(self, "io_nodes", MappingProxyType(dict(self.io_nodes)))
        object.__setattr__(self, "edges", frozenset(self.edges))

    def has_node(self, node_id: str) -> bool:
        return node_id in self.kc_nodes or node_id in self.io_nodes

    def io_node_id(self, label: str, kind: str) -> str:
        return f"io:{kind}:{label}"


@dataclass(frozen=True)
class GraphReport:
    """Validation outcome: invariant violations plus one witness CALL
    cycle per strongly connected component that has a cycle, sorted. Each
    witness starts at its component's smallest node id and is written as
    a node sequence closing on that node."""

    violations: tuple[str, ...]
    cycles: tuple[tuple[str, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.violations and not self.cycles


def kc_node_id(entry_id: str, function_name: str) -> str:
    return f"kc:{entry_id}:{function_name}"


def _placeholder_knowledge(function_name: str, body_text: str) -> str:
    first_line = next((ln.strip() for ln in body_text.split("\n") if ln.strip()), "")
    return f"function {function_name}: {first_line}"


def assemble_raw_graph(fragments: Iterable[TraceFragment], corpus: Corpus) -> DependencyGraph:
    """Build the pre-merge graph: one node per (entry, function) pair,
    CALL edges from each fragment, knowledge attached from the entry's
    annotations (or a generated one-line description)."""
    knowledge_by_entry = {entry.entry_id: entry.knowledge_map for entry in corpus.entries}
    kc_nodes: dict[str, KnowledgeCodeNode] = {}
    edges: set[Edge] = set()
    for fragment in fragments:
        knowledge_map = knowledge_by_entry.get(fragment.entry_id, {})
        defined = {fn.name for fn in fragment.functions}
        for annotated in knowledge_map:
            if annotated not in defined:
                raise KnowledgeBindingError(
                    f"entry {fragment.entry_id!r} annotates unknown function {annotated!r}"
                )
        for fn in fragment.functions:
            node_id = kc_node_id(fragment.entry_id, fn.name)
            existing = kc_nodes.get(node_id)
            if existing is not None:
                # Same name defined twice in one entry: first definition
                # wins, later differing bodies are kept as variants.
                if fn.text != existing.code and fn.text not in existing.variants:
                    kc_nodes[node_id] = replace(existing, variants=existing.variants + (fn.text,))
                continue
            knowledge = knowledge_map.get(fn.name, "").strip()
            if not knowledge:
                knowledge = _placeholder_knowledge(fn.name, fn.body_text)
            kc_nodes[node_id] = KnowledgeCodeNode(
                node_id=node_id,
                function_name=fn.name,
                code=fn.text,
                knowledge=knowledge,
                origin_entries=(fragment.entry_id,),
            )
        for caller, callee in fragment.call_edges:
            edges.add(Edge(
                kc_node_id(fragment.entry_id, caller),
                kc_node_id(fragment.entry_id, callee),
                CALL,
            ))
    return DependencyGraph(kc_nodes=kc_nodes, edges=edges)


def merge_identical(graph: DependencyGraph) -> DependencyGraph:
    """Collapse knowledge-code nodes that share a function name.

    The canonical node is the first one in node insertion order (corpus
    entry order, then source order). Every edge touching a duplicate is
    redirected to the canonical node and the edge set deduplicated.
    Origin entries are unioned; differing knowledge texts are appended in
    entry order; differing bodies land in `variants`.
    """
    canonical_by_name: dict[str, str] = {}
    redirect: dict[str, str] = {}
    merged_kc: dict[str, KnowledgeCodeNode] = {}

    for node in graph.kc_nodes.values():
        canon_id = canonical_by_name.get(node.function_name)
        if canon_id is None:
            canonical_by_name[node.function_name] = node.node_id
            redirect[node.node_id] = node.node_id
            merged_kc[node.node_id] = node
            continue
        redirect[node.node_id] = canon_id
        canon = merged_kc[canon_id]
        origins = canon.origin_entries
        for origin in node.origin_entries:
            if origin not in origins:
                origins += (origin,)
        knowledge = canon.knowledge
        if node.knowledge and node.knowledge not in knowledge.split(_KNOWLEDGE_SEPARATOR):
            knowledge += _KNOWLEDGE_SEPARATOR + node.knowledge
        variants = canon.variants
        for body in (node.code,) + node.variants:
            if body != canon.code and body not in variants:
                variants += (body,)
        merged_kc[canon_id] = replace(canon, origin_entries=origins, knowledge=knowledge,
                                      variants=variants)

    edges = {Edge(redirect.get(edge.src, edge.src), redirect.get(edge.dst, edge.dst), edge.type)
             for edge in graph.edges}
    return replace(graph, kc_nodes=merged_kc, edges=edges)


def insert_io_nodes(graph: DependencyGraph, io_specs: Iterable[IoSpec]) -> DependencyGraph:
    """Insert one I/O node per distinct (label, kind) and attach it to its
    anchor function: FEEDS for inputs, YIELDS for outputs. Repeated labels
    reuse the node and accumulate edges."""
    io_nodes = dict(graph.io_nodes)
    edges = set(graph.edges)
    anchor_ids: dict[str, str] = {}
    for node in graph.kc_nodes.values():
        anchor_ids.setdefault(node.function_name, node.node_id)

    for spec in io_specs:
        for kind, decls in ((INPUT, spec.inputs), (OUTPUT, spec.outputs)):
            for decl in decls:
                anchor_id = anchor_ids.get(decl.anchor)
                if anchor_id is None:
                    raise AnchorNotFound(
                        f"{kind} label {decl.label!r} anchors at {decl.anchor!r}, "
                        "which is not in the graph"
                    )
                io_id = graph.io_node_id(decl.label, kind)
                if io_id not in io_nodes:
                    io_nodes[io_id] = IoNode(node_id=io_id, label=decl.label, kind=kind)
                if kind == INPUT:
                    edges.add(Edge(io_id, anchor_id, FEEDS))
                else:
                    edges.add(Edge(anchor_id, io_id, YIELDS))
    return replace(graph, io_nodes=io_nodes, edges=edges)


def build_graph(corpus: Corpus) -> DependencyGraph:
    """Full pipeline: parse every entry, assemble, merge, insert I/O nodes."""
    fragments = [build_trace_fragment(entry) for entry in corpus.entries]
    raw = assemble_raw_graph(fragments, corpus)
    merged = merge_identical(raw)
    return insert_io_nodes(merged, [entry.io_spec for entry in corpus.entries])


def _call_cycles(graph: DependencyGraph) -> list[tuple[str, ...]]:
    """One witness cycle per strongly connected component of the CALL
    subgraph that contains a cycle (two or more nodes, or one node calling
    itself), sorted. The components come from an iterative Tarjan pass,
    linear in the graph; each witness is a shortest cycle through the
    component's smallest node id (successors sorted), so it is one of the
    graph's simple cycles and does not depend on set or dict order."""
    successors: dict[str, set[str]] = {nid: set() for nid in graph.kc_nodes}
    for edge in graph.edges:
        if edge.type == CALL and edge.src in successors and edge.dst in successors:
            successors[edge.src].add(edge.dst)

    # A node whose component is complete gets an index past every live
    # one, so it can no longer lower `low` and needs no on-stack flag.
    done = len(successors)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    cycles: list[tuple[str, ...]] = []
    for start in successors:
        if start in index:
            continue
        index[start] = low[start] = len(index)
        stack.append(start)
        work = [(start, iter(successors[start]))]
        while work:
            node, pending = work[-1]
            for nxt in pending:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    work.append((nxt, iter(successors[nxt])))
                    break
                low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[node])
                if low[node] == index[node]:
                    component: set[str] = set()
                    while node not in component:
                        component.add(stack.pop())
                    for member in component:
                        index[member] = done
                    if len(component) > 1 or node in successors[node]:
                        cycles.append(_shortest_cycle(min(component), component, successors))
    return sorted(cycles)


def _shortest_cycle(root: str, component: set[str],
                    successors: dict[str, set[str]]) -> tuple[str, ...]:
    """Breadth-first search over sorted successors inside `component`
    for the shortest way back to `root`, which lies on a cycle there."""
    parent: dict[str, str] = {}
    queue = deque([root])
    while True:
        node = queue.popleft()
        for nxt in sorted(successors[node] & component):
            if nxt == root:
                path = [root]
                while node != root:
                    path.append(node)
                    node = parent[node]
                return (root,) + tuple(reversed(path))
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)


def validate_graph(graph: DependencyGraph) -> GraphReport:
    """Check structural invariants and find the cyclic strongly connected
    components of the CALL edges, one witness cycle each, in one linear
    pass. An empty report means the graph is a well-formed DAG over its
    CALL edges."""
    violations: list[str] = []

    names_seen: dict[str, str] = {}
    for node in graph.kc_nodes.values():
        if not node.knowledge:
            violations.append(f"kc node {node.node_id} has empty knowledge")
        prior = names_seen.get(node.function_name)
        if prior is not None:
            violations.append(
                f"duplicate function name {node.function_name!r} ({prior}, {node.node_id})"
            )
        names_seen[node.function_name] = node.node_id

    for node in graph.io_nodes.values():
        if not node.label:
            violations.append(f"io node {node.node_id} has empty label")
        if node.kind not in (INPUT, OUTPUT):
            violations.append(f"io node {node.node_id} has bad kind {node.kind!r}")

    in_degree = {nid: 0 for nid in graph.io_nodes}
    out_degree = {nid: 0 for nid in graph.io_nodes}
    for edge in sorted(graph.edges):
        if edge.type not in EDGE_TYPES:
            violations.append(f"edge {edge} has unknown type")
            continue
        for endpoint in (edge.src, edge.dst):
            if not graph.has_node(endpoint):
                violations.append(f"edge {edge} references missing node {endpoint}")
        if not graph.has_node(edge.src) or not graph.has_node(edge.dst):
            continue
        if edge.type == CALL:
            if edge.src not in graph.kc_nodes or edge.dst not in graph.kc_nodes:
                violations.append(f"CALL edge {edge} must connect kc nodes")
        elif edge.type == FEEDS:
            src = graph.io_nodes.get(edge.src)
            if src is None or src.kind != INPUT or edge.dst not in graph.kc_nodes:
                violations.append(f"FEEDS edge {edge} must run input io -> kc")
        elif edge.type == YIELDS:
            dst = graph.io_nodes.get(edge.dst)
            if dst is None or dst.kind != OUTPUT or edge.src not in graph.kc_nodes:
                violations.append(f"YIELDS edge {edge} must run kc -> output io")
        if edge.src in out_degree:
            out_degree[edge.src] += 1
        if edge.dst in in_degree:
            in_degree[edge.dst] += 1

    for node in graph.io_nodes.values():
        if node.kind == INPUT and out_degree.get(node.node_id, 0) < 1:
            violations.append(f"input io node {node.node_id} is unattached")
        if node.kind == OUTPUT and in_degree.get(node.node_id, 0) < 1:
            violations.append(f"output io node {node.node_id} is unattached")

    return GraphReport(violations=tuple(violations), cycles=tuple(_call_cycles(graph)))


def serialize(graph: DependencyGraph) -> str:
    """Canonical graph document: nodes and edges sorted, stable JSON
    layout, so equal graphs serialize to byte-identical text."""
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


# Each record's fields and their JSON types.
_KC_FIELDS = {"node_id": str, "function_name": str, "code": str, "knowledge": str,
              "origin_entries": list, "variants": list}
_IO_NODE_FIELDS = {"node_id": str, "label": str, "kind": str}
_EDGE_FIELDS = {"src": str, "dst": str, "type": str}
_DOC_FIELDS = {"format_version": object, "kc_nodes": list, "io_nodes": list, "edges": list}


def _check_fields(record: object, expected: dict[str, type], where: str) -> dict:
    if not isinstance(record, dict):
        raise SchemaViolation(f"{where}: expected an object")
    if record.keys() != expected.keys():
        raise SchemaViolation(f"{where}: fields {sorted(record)} != {sorted(expected)}")
    for name, kind in expected.items():
        if not isinstance(record[name], kind):
            raise SchemaViolation(f"{where}: {name!r} must be a {kind.__name__}")
    return record


def deserialize(document: str) -> DependencyGraph:
    """Parse a graph document produced by `serialize`. Raises
    SchemaViolation on a missing, unknown or wrongly typed field and on a
    node id given twice."""
    try:
        raw = json.loads(document)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SchemaViolation(f"not valid JSON: {exc}") from exc
    raw = _check_fields(raw, _DOC_FIELDS, "document")
    if raw["format_version"] != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"unsupported format version {raw['format_version']!r} "
            f"(expected {FORMAT_VERSION!r})"
        )
    kc_nodes: dict[str, KnowledgeCodeNode] = {}
    io_nodes: dict[str, IoNode] = {}
    edges: set[Edge] = set()
    for i, record in enumerate(raw["kc_nodes"]):
        record = _check_fields(record, _KC_FIELDS, f"kc_nodes[{i}]")
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
        record = _check_fields(record, _IO_NODE_FIELDS, f"io_nodes[{i}]")
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
        record = _check_fields(record, _EDGE_FIELDS, f"edges[{i}]")
        edge = Edge(record["src"], record["dst"], record["type"])
        if edge.type not in EDGE_TYPES:
            raise SchemaViolation(f"edges[{i}]: bad type {edge.type!r}")
        if edge.src not in known or edge.dst not in known:
            raise SchemaViolation(f"edges[{i}]: dangling endpoint")
        edges.add(edge)
    return DependencyGraph(kc_nodes=kc_nodes, io_nodes=io_nodes, edges=edges)


def to_dot(graph: DependencyGraph) -> str:
    """Graphviz export for inspection: kc nodes as boxes labeled by
    function name, io nodes as ellipses labeled by tag label."""
    def quote(text: str) -> str:
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = ["digraph dependency_graph {"]
    for node_id, node in sorted(graph.kc_nodes.items()):
        lines.append(f"  {quote(node_id)} [label={quote(node.function_name)}, shape=box];")
    for node_id, node in sorted(graph.io_nodes.items()):
        label = f"{node.label} ({node.kind})"
        lines.append(f"  {quote(node_id)} [label={quote(label)}, shape=ellipse];")
    for edge in sorted(graph.edges):
        lines.append(f"  {quote(edge.src)} -> {quote(edge.dst)} [label={quote(edge.type)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
