"""BFS retrieval of dependency paths between semantic input and output nodes.

Traversal rules: CALL edges may be walked in either direction (a caller
and its callee depend on each other's knowledge), FEEDS and YIELDS edges
only in their stored direction. Paths are simple (no repeated node), so
recursive call cycles terminate. Discovery is breadth-first: paths come
out shortest first, ties ordered by their node-id sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import UnknownNode
from .graph import CALL, DependencyGraph, Edge
from .tagger import TagSet


@dataclass(frozen=True)
class RetrievalLimits:
    max_depth: int = 16
    max_paths: int = 64


@dataclass(frozen=True)
class PathEdge:
    """One traversed edge. `src`/`dst` keep the stored direction;
    `reversed` is True when the step walked the edge backwards."""

    src: str
    dst: str
    type: str
    reversed: bool


@dataclass(frozen=True)
class DependencyPath:
    nodes: tuple[str, ...]
    edges: tuple[PathEdge, ...]


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    paths_found: int = 0
    truncated_by_paths: bool = False
    truncated_by_depth: bool = False


@dataclass
class RetrievalResult:
    paths: tuple[DependencyPath, ...]
    subgraph_nodes: frozenset[str]
    fallback: bool
    stats: SearchStats = field(default_factory=SearchStats)


def _moves(graph: DependencyGraph) -> dict[str, list[tuple[str, Edge, bool]]]:
    """Traversal adjacency: node -> sorted (neighbor, stored edge,
    walked-in-reverse) triples. When both directions of a CALL pair
    exist, the forward edge is preferred."""
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

    return {
        node: [(nbr, data[0], data[1]) for nbr, data in sorted(slot.items())]
        for node, slot in raw.items()
    }


def find_paths(
    graph: DependencyGraph,
    sources: Iterable[str],
    targets: Iterable[str],
    limits: RetrievalLimits = RetrievalLimits(),
    stats: SearchStats | None = None,
) -> list[DependencyPath]:
    """All simple paths from any source to any target within the limits.

    Returned shortest first; equal-length paths are ordered by node-id
    sequence. Once `max_paths` paths are collected the search stops and
    the truncation flag is set on `stats`.
    """
    source_ids = sorted(set(sources))
    target_ids = set(targets)
    for node_id in [*source_ids, *target_ids]:
        if not graph.has_node(node_id):
            raise UnknownNode(f"node {node_id!r} is not in the graph")
    if stats is None:
        stats = SearchStats()

    moves = _moves(graph)
    found: list[DependencyPath] = []
    frontier: list[tuple[tuple[str, ...], tuple[PathEdge, ...]]] = [
        ((source,), ()) for source in source_ids
    ]
    depth = 0
    while frontier and len(found) < limits.max_paths:
        if depth >= limits.max_depth:
            stats.truncated_by_depth = True
            break
        depth += 1
        next_frontier = []
        completed_here = []
        for nodes, edges in frontier:
            stats.nodes_expanded += 1
            tail = nodes[-1]
            for neighbor, edge, rev in moves.get(tail, []):
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
            if len(found) >= limits.max_paths:
                stats.truncated_by_paths = True
                break
            found.append(DependencyPath(nodes=nodes, edges=edges))
        frontier = next_frontier

    if frontier and len(found) >= limits.max_paths:
        stats.truncated_by_paths = True
    stats.paths_found = len(found)
    return found


def retrieve(
    graph: DependencyGraph,
    tagset: TagSet,
    limits: RetrievalLimits = RetrievalLimits(),
) -> RetrievalResult:
    """Resolve a tag set to I/O nodes, find dependency paths, and take
    the union of path nodes as the retrieved subgraph. A fallback tag
    set short-circuits to an empty result."""
    stats = SearchStats()
    if tagset.fallback:
        return RetrievalResult(paths=(), subgraph_nodes=frozenset(), fallback=True, stats=stats)

    sources = [graph.io_node_id(label, "input") for label in sorted(tagset.inputs)]
    targets = [graph.io_node_id(label, "output") for label in sorted(tagset.outputs)]
    paths = find_paths(graph, sources, targets, limits, stats)
    union: set[str] = set()
    for path in paths:
        union.update(path.nodes)
    return RetrievalResult(
        paths=tuple(paths),
        subgraph_nodes=frozenset(union),
        fallback=False,
        stats=stats,
    )


def retrieved_kc_names(result: RetrievalResult, graph: DependencyGraph) -> list[str]:
    """Function names of the retrieved knowledge-code nodes, sorted.
    Semantic I/O nodes never appear here."""
    return sorted(
        graph.kc_nodes[node_id].function_name
        for node_id in result.subgraph_nodes
        if node_id in graph.kc_nodes
    )
