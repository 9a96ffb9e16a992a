"""The knowledge-code dependency graph and its construction pipeline.

Construction runs in three steps: assemble one node per (entry, function)
pair with intra-entry call edges, merge nodes that share a function name
into a single canonical node, then insert semantic I/O nodes and attach
them to their anchor functions. The merged graph is what retrieval runs
against and what gets persisted.

Nodes and graphs are read-only once made: nodes are `NamedTuple` records.
Each step, like `deserialize`, fills local dicts and an edge collection
and makes its graph once; a changed node or graph is a new one, made with
its `_replace` method.
"""

from __future__ import annotations

import json
import re
from collections import deque
from functools import partial
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, TypeVar

from .corpus import Corpus, IoSpec, check, decode_text, read_bytes
from .errors import (
    AnchorNotFound,
    FormatVersionMismatch,
    KnowledgeBindingError,
    SchemaViolation,
)

if TYPE_CHECKING:
    from .parser import TraceFragment

T = TypeVar("T")

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


class KnowledgeCodeNode(NamedTuple):
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


class IoNode(NamedTuple):
    node_id: str
    label: str
    kind: str  # INPUT or OUTPUT


class _ReadOnly:
    """Base of the classes whose `__init__` sets every attribute with
    `object.__setattr__`; setting or deleting one later raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


class DependencyGraph(_ReadOnly):
    """Directed graph over knowledge-code nodes and semantic I/O nodes.

    Edge types: CALL (function -> function it calls), FEEDS (input I/O
    node -> consuming function), YIELDS (function -> output I/O node).

    Read-only once made: the node maps are read-only views of private
    copies and the edges a frozenset. Graphs are equal when their nodes
    and edges are. `graph._replace(...)` makes a changed graph, which
    starts with an empty cache and has no sidecar.
    """

    __slots__ = ("kc_nodes", "io_nodes", "edges", "cache", "sidecar")

    def __init__(self, kc_nodes: Mapping[str, KnowledgeCodeNode] = MappingProxyType({}),
                 io_nodes: Mapping[str, IoNode] = MappingProxyType({}),
                 edges: Iterable[Edge] = frozenset()):
        init = object.__setattr__
        init(self, "kc_nodes", MappingProxyType(dict(kc_nodes)))
        init(self, "io_nodes", MappingProxyType(dict(io_nodes)))
        init(self, "edges", frozenset(edges))
        # Structures derived from the graph, memoized on it by `derived`.
        init(self, "cache", {})
        # The sidecar of the document `load` read the graph from, if any.
        init(self, "sidecar", None)

    def __eq__(self, other: object) -> bool:
        if type(other) is not DependencyGraph:
            return NotImplemented
        return (self.kc_nodes == other.kc_nodes and self.io_nodes == other.io_nodes
                and self.edges == other.edges)

    def _replace(self, **changes: object) -> DependencyGraph:
        fields = {"kc_nodes": self.kc_nodes, "io_nodes": self.io_nodes, "edges": self.edges}
        return DependencyGraph(**{**fields, **changes})

    def derived(self, name: str, build: Callable[[DependencyGraph], T],
                freeze: Callable[[T], object] | None = None,
                thaw: Callable[[DependencyGraph, object], T] | None = None) -> T:
        """The structure `name` derived from this graph, `build(graph)`,
        made on first use and memoized in `cache`. One given `freeze` and
        `thaw` is kept in the section `name` of the graph's sidecar: it is
        `thaw(graph, payload)` of a trusted section, and otherwise the
        built one's `freeze(value)` is written there."""
        value = self.cache.get(name)
        if value is None:
            sidecar = self.sidecar if freeze is not None else None
            if sidecar is not None:
                value = sidecar.read(name, partial(thaw, self))
            if value is None:
                value = build(self)
                if sidecar is not None:
                    sidecar.write(name, freeze(value))
            self.cache[name] = value
        return value

    def has_node(self, node_id: str) -> bool:
        return node_id in self.kc_nodes or node_id in self.io_nodes

    def io_node_id(self, label: str, kind: str) -> str:
        return f"io:{kind}:{label}"


class GraphReport(NamedTuple):
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
    # The first line that is not blank, stripped.
    first_line = body_text.lstrip().partition("\n")[0].rstrip()
    return f"function {function_name}: {first_line}"


def assemble_raw_graph(fragments: Iterable[TraceFragment], corpus: Corpus) -> DependencyGraph:
    """Build the pre-merge graph: one node per (entry, function) pair,
    CALL edges from each fragment, knowledge attached from the entry's
    annotations (or a generated one-line description). A name an entry
    defines more than once keeps its first definition; its later
    differing bodies are the node's `variants`."""
    knowledge_by_entry = {entry.entry_id: entry.knowledge_map for entry in corpus.entries}
    kc_nodes: dict[str, KnowledgeCodeNode] = {}
    bodies: dict[str, dict[str, None]] = {}  # node id -> its bodies, for an id defined twice
    edges: set[Edge] = set()
    for fragment in fragments:
        entry_id = fragment.entry_id
        knowledge_map = knowledge_by_entry.get(entry_id, {})
        defined = {fn.name for fn in fragment.functions}
        for annotated in knowledge_map:
            if annotated not in defined:
                raise KnowledgeBindingError(
                    f"entry {entry_id!r} annotates unknown function {annotated!r}"
                )
        origin = (entry_id,)
        for fn in fragment.functions:
            node_id = kc_node_id(entry_id, fn.name)
            existing = kc_nodes.get(node_id)
            if existing is not None:
                bodies.setdefault(node_id, {existing.code: None})[fn.text] = None
                continue
            knowledge = (knowledge_map.get(fn.name, "").strip()
                         or _placeholder_knowledge(fn.name, fn.body_text))
            kc_nodes[node_id] = KnowledgeCodeNode(node_id, fn.name, fn.text, knowledge, origin)
        for caller, callee in fragment.call_edges:
            edges.add(Edge(kc_node_id(entry_id, caller), kc_node_id(entry_id, callee), CALL))
    for node_id, codes in bodies.items():
        kc_nodes[node_id] = kc_nodes[node_id]._replace(variants=tuple(codes)[1:])
    return DependencyGraph(kc_nodes=kc_nodes, edges=edges)


class _Merge:
    """The distinct origin entries, bodies and knowledge paragraphs of one
    repeated function name's nodes, in the order `add` first meets them."""

    __slots__ = ("canon", "origins", "bodies", "paragraphs")

    def __init__(self, canon: KnowledgeCodeNode):
        self.canon = canon
        self.origins, self.bodies, self.paragraphs = {}, {}, {}
        self.add(canon)

    def add(self, node: KnowledgeCodeNode) -> None:
        self.origins.update(dict.fromkeys(node.origin_entries))
        self.bodies.update(dict.fromkeys((node.code,) + node.variants))
        if node.knowledge:
            self.paragraphs.update(dict.fromkeys(node.knowledge.split(_KNOWLEDGE_SEPARATOR)))

    def node(self) -> KnowledgeCodeNode:
        return self.canon._replace(
            knowledge=_KNOWLEDGE_SEPARATOR.join(self.paragraphs),
            origin_entries=tuple(self.origins),
            variants=tuple(self.bodies)[1:],
        )


def merge_identical(graph: DependencyGraph) -> DependencyGraph:
    """Collapse knowledge-code nodes that share a function name.

    The canonical node is the first one in node insertion order (corpus
    entry order, then source order). Every edge touching a duplicate is
    redirected to the canonical node and the edge set deduplicated.
    A repeated name gathers, from the canonical node first and then from
    each copy in node order, each distinct origin entry, body and knowledge
    paragraph once. A paragraph is a piece of a note split on a blank line
    (an empty note has none); the merged node's `knowledge` is its
    paragraphs joined by a blank line, and its `variants` are its bodies
    after its own code.

    Linear in the size of the merged nodes: a name seen a second time
    starts one accumulator, and each merged node is made once, at the end.
    """
    first: dict[str, KnowledgeCodeNode] = {}  # function name -> canonical node
    # Node id -> canonical id, for every node: the edges then hold the
    # nodes' own id strings, and a lookup of an id that is the same object
    # as the key it meets needs no string comparison.
    redirect: dict[str, str] = {}
    merges: dict[str, _Merge] = {}  # function name -> accumulator, for a repeated name
    for node in graph.kc_nodes.values():
        canon = first.setdefault(node.function_name, node)
        redirect[node.node_id] = canon.node_id
        if canon is node:
            continue
        merge = merges.get(node.function_name)
        if merge is None:
            merge = merges[node.function_name] = _Merge(canon)
        merge.add(node)

    kc_nodes = {node.node_id: node for node in first.values()}
    for merge in merges.values():
        kc_nodes[merge.canon.node_id] = merge.node()
    edges = {Edge(redirect.get(edge.src, edge.src), redirect.get(edge.dst, edge.dst), edge.type)
             for edge in graph.edges}
    return graph._replace(kc_nodes=kc_nodes, edges=edges)


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
                    io_nodes[io_id] = IoNode(io_id, decl.label, kind)
                if kind == INPUT:
                    edges.add(Edge(io_id, anchor_id, FEEDS))
                else:
                    edges.add(Edge(anchor_id, io_id, YIELDS))
    return graph._replace(io_nodes=io_nodes, edges=edges)


def build_graph(corpus: Corpus) -> DependencyGraph:
    """Full pipeline: parse every entry, assemble, merge, insert I/O nodes."""
    from .parser import build_trace_fragment  # only a build parses source

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


def _json_array(items: list[str], indent: str) -> list[str]:
    """The pieces of the JSON array `json.dumps(..., indent=2)` writes at
    `indent` for the encoded `items`: one item a line, two spaces in from
    the brackets. Pieces, not one string, so that the document is the
    only large string the writer makes."""
    if not items:
        return ["[]"]
    inner = indent + "  "
    pieces = [",\n" + inner] * (2 * len(items) + 1)
    pieces[1::2] = items
    pieces[0] = "[\n" + inner
    pieces[-1] = "\n" + indent + "]"
    return pieces


def _json_strings(texts: tuple[str, ...]) -> str:
    """A list of strings as `json.dumps(..., indent=2)` writes it inside a
    top-level array's record."""
    return "".join(_json_array(list(map(encode_basestring_ascii, texts)), "      "))


# A high surrogate directly followed by a low one. JSON reads the pair back
# as one character, so a node id holding one would load changed: sorted
# elsewhere, or equal to another id. No loaded graph holds such an id.
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def serialize(graph: DependencyGraph) -> str:
    """Canonical graph document: nodes and edges sorted, stable JSON
    layout, so equal graphs serialize to byte-identical text.

    The layout is the one `json.dumps(document, indent=2, sort_keys=True)`
    writes, filled in record by record with the `json` module's own
    ASCII string encoder.

    A node id that holds a surrogate pair raises SchemaViolation."""
    ids = [*graph.kc_nodes, *graph.io_nodes]
    if _SURROGATE_PAIR.search("\0".join(ids)):
        node_id = next(filter(_SURROGATE_PAIR.search, ids))
        raise SchemaViolation(f"node id {node_id!r} holds a surrogate pair, "
                              "which JSON reads back as one character")
    q = encode_basestring_ascii
    kc_nodes = [
        f'{{\n      "code": {q(node.code)},\n'
        f'      "function_name": {q(node.function_name)},\n'
        f'      "knowledge": {q(node.knowledge)},\n'
        f'      "node_id": {q(node.node_id)},\n'
        f'      "origin_entries": {_json_strings(node.origin_entries)},\n'
        f'      "variants": {_json_strings(node.variants)}\n    }}'
        for _, node in sorted(graph.kc_nodes.items())
    ]
    io_nodes = [
        f'{{\n      "kind": {q(node.kind)},\n      "label": {q(node.label)},\n'
        f'      "node_id": {q(node.node_id)}\n    }}'
        for _, node in sorted(graph.io_nodes.items())
    ]
    edges = [
        f'{{\n      "dst": {q(edge.dst)},\n      "src": {q(edge.src)},\n'
        f'      "type": {q(edge.type)}\n    }}'
        for edge in sorted(graph.edges)
    ]
    return "".join([
        '{\n  "edges": ', *_json_array(edges, "  "),
        ',\n  "format_version": ', q(FORMAT_VERSION),
        ',\n  "io_nodes": ', *_json_array(io_nodes, "  "),
        ',\n  "kc_nodes": ', *_json_array(kc_nodes, "  "), "\n}\n",
    ])


# Each record's fields and their JSON types, and a getter of the fields'
# values in that order.
_KC_FIELDS = {"node_id": str, "function_name": str, "code": str, "knowledge": str,
              "origin_entries": list, "variants": list}
_IO_NODE_FIELDS = {"node_id": str, "label": str, "kind": str}
_EDGE_FIELDS = {"src": str, "dst": str, "type": str}
_DOC_FIELDS = {"format_version": object, "kc_nodes": list, "io_nodes": list, "edges": list}
_kc_values = itemgetter(*_KC_FIELDS)
_io_node_values = itemgetter(*_IO_NODE_FIELDS)
_edge_values = itemgetter(*_EDGE_FIELDS)


def deserialize(document: str) -> DependencyGraph:
    """Parse a graph document produced by `serialize`. Raises
    SchemaViolation on a missing, unknown or wrongly typed field and on a
    node id given twice.

    Each record is checked inline, in one pass, by the tests `check`
    makes; `check` itself runs only on a record that fails, to raise the
    message. Any text `json.loads` refuses is a SchemaViolation too.
    Records are made with `tuple.__new__`: `_make` without its arity check."""
    try:
        raw = json.loads(document)
    except (ValueError, RecursionError) as exc:
        raise SchemaViolation(f"not valid JSON: {exc}") from exc
    check(raw, _DOC_FIELDS, "document", SchemaViolation)
    if raw["format_version"] != FORMAT_VERSION:
        raise FormatVersionMismatch(
            f"unsupported format version {raw['format_version']!r} "
            f"(expected {FORMAT_VERSION!r})"
        )
    kc_nodes: dict[str, KnowledgeCodeNode] = {}
    kc_keys = _KC_FIELDS.keys()
    for i, record in enumerate(raw["kc_nodes"]):
        if type(record) is dict and record.keys() == kc_keys:
            node_id, name, code, knowledge, origins, variants = _kc_values(record)
            if (type(node_id) is str and type(name) is str and type(code) is str
                    and type(knowledge) is str and type(origins) is list
                    and type(variants) is list):
                for text in origins + variants:
                    if type(text) is not str:
                        break
                else:
                    kc_nodes[node_id] = tuple.__new__(KnowledgeCodeNode, (
                        node_id, name, code, knowledge, tuple(origins), tuple(variants)))
                    continue
        check(record, _KC_FIELDS, f"kc_nodes[{i}]", SchemaViolation)
        raise SchemaViolation(f"kc_nodes[{i}]: origin_entries and variants must hold strings")
    io_nodes: dict[str, IoNode] = {}
    io_keys = _IO_NODE_FIELDS.keys()
    for i, record in enumerate(raw["io_nodes"]):
        if type(record) is dict and record.keys() == io_keys:
            values = node_id, label, kind = _io_node_values(record)
            if (type(node_id) is str and type(label) is str and type(kind) is str
                    and (kind == INPUT or kind == OUTPUT)):
                io_nodes[node_id] = tuple.__new__(IoNode, values)
                continue
        check(record, _IO_NODE_FIELDS, f"io_nodes[{i}]", SchemaViolation)
        raise SchemaViolation(f"io_nodes[{i}]: bad kind {record['kind']!r}")
    known = kc_nodes.keys() | io_nodes.keys()
    if len(known) < len(raw["kc_nodes"]) + len(raw["io_nodes"]):
        seen: set[str] = set()
        for record in raw["kc_nodes"] + raw["io_nodes"]:
            if record["node_id"] in seen:
                raise SchemaViolation(f"duplicate node_id {record['node_id']!r}")
            seen.add(record["node_id"])
    edges: list[Edge] = []
    edge_keys = _EDGE_FIELDS.keys()
    for i, record in enumerate(raw["edges"]):
        if type(record) is dict and record.keys() == edge_keys:
            values = src, dst, kind = _edge_values(record)
            if (type(src) is str and type(dst) is str and type(kind) is str
                    and kind in EDGE_TYPES and src in known and dst in known):
                edges.append(tuple.__new__(Edge, values))
                continue
        check(record, _EDGE_FIELDS, f"edges[{i}]", SchemaViolation)
        if record["type"] not in EDGE_TYPES:
            raise SchemaViolation(f"edges[{i}]: bad type {record['type']!r}")
        raise SchemaViolation(f"edges[{i}]: dangling endpoint")
    return DependencyGraph(kc_nodes=kc_nodes, io_nodes=io_nodes, edges=frozenset(edges))


def load(path: str | Path) -> DependencyGraph:
    """The graph of the document at `path`, equal to what `deserialize`
    reads from it and in the same order, with the document's sidecar
    (see `sgkr.sidecar`), in which `DependencyGraph.derived` keeps the
    structures derived from the graph. The parsed graph is kept there
    too, as the section `graph`: an unchanged document is not parsed
    again. A missing document raises MissingFile, and one that is not
    UTF-8 NotUtf8."""
    from . import sidecar  # only the CLI keeps sidecars

    path = Path(path)
    data = read_bytes(path, "graph document")
    side = sidecar.Sidecar(path, data) if sidecar.SUPPORTED else None
    graph = side.read("graph", _thaw_graph) if side is not None else None
    if graph is None:
        text = decode_text(data, path)
        del data  # not held while the document is parsed
        graph = deserialize(text)
        if side is not None:
            side.write("graph", _freeze_graph(graph))
    object.__setattr__(graph, "sidecar", side)
    return graph


def _freeze_graph(graph: DependencyGraph) -> tuple:
    """The graph section's payload: the fields of each kind of record as
    columns, with the records in the graph's order."""
    return tuple(tuple(zip(*records)) or ((),) * len(kind._fields)
                 for records, kind in ((graph.kc_nodes.values(), KnowledgeCodeNode),
                                       (graph.io_nodes.values(), IoNode),
                                       (graph.edges, Edge)))


# The type of each column of the graph section's payload; each item of a
# tuple is a str.
_COLUMN_TYPES = ((str, str, str, str, tuple, tuple), (str, str, str), (str, str, str))


def _holds(column: tuple, kind: type) -> bool:
    return (set(map(type, column)) <= {kind}
            and (kind is str or set(map(type, chain.from_iterable(column))) <= {str}))


def _thaw_graph(payload: tuple) -> DependencyGraph:
    """The graph whose section payload `_freeze_graph` made. A payload of
    another shape raises ValueError or TypeError."""
    if not all(len(columns) == len(kinds) and all(map(_holds, columns, kinds))
               for columns, kinds in zip(payload, _COLUMN_TYPES, strict=True)):
        raise ValueError("graph section of the wrong shape")
    kc_columns, io_columns, edge_columns = payload
    kc_nodes = map(partial(tuple.__new__, KnowledgeCodeNode), zip(*kc_columns, strict=True))
    io_nodes = map(partial(tuple.__new__, IoNode), zip(*io_columns, strict=True))
    edges = map(partial(tuple.__new__, Edge), zip(*edge_columns, strict=True))
    return DependencyGraph(kc_nodes=dict(zip(kc_columns[0], list(kc_nodes))),
                           io_nodes=dict(zip(io_columns[0], list(io_nodes))),
                           edges=frozenset(edges))


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
