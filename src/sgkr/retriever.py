"""Dependency-path search between semantic input and output nodes.

Traversal rules: CALL edges may be walked in either direction (a caller
and its callee depend on each other's knowledge), FEEDS and YIELDS edges
only in their stored direction. Paths are simple (no repeated node), so
recursive call cycles terminate, and a path ends at the first target it
reaches.

The search is iterative deepening (Korf 1985). For each length L = 1, 2,
..., `max_depth` a depth-first walk from the sorted sources over sorted
neighbours emits the paths of exactly L edges, so paths come out shortest
first, ties ordered by their node-id sequence. A breadth-first search
backwards from the targets gives every node its walk distance to the
nearest target; a step whose depth plus that distance exceeds L is
pruned. The distance ignores simplicity, so it never overestimates and no
path is lost; the layers are computed only as far as the current L needs.
Deepening stops after the first level that pruned nothing, at the path
cap, or after `_MAX_EXPANSIONS` node expansions. The traversal adjacency
is built once per graph as a `TraversalIndex` and reused while the
graph's edge set stays equal to the one it was built from.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import UnknownNode
from .graph import CALL, EDGE_TYPES, DependencyGraph, Edge
from .tagger import TagSet


# Node expansions after which a search stops. Far above the largest count
# measured on the fee corpus and the benchmark workloads (199), it bounds
# the work of a question on a dense call knot.
_MAX_EXPANSIONS = 100_000

_EDGE_KINDS = tuple(sorted(EDGE_TYPES))


@dataclass(frozen=True)
class RetrievalLimits:
    max_depth: int = 16
    max_paths: int = 64

    def __post_init__(self) -> None:
        if min(self.max_depth, self.max_paths) < 1:
            raise ValueError(f"retrieval limits must be positive: {self}")


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
    """Search work and why the search stopped.

    `nodes_expanded` counts the nodes whose neighbours the depth-first
    walks scanned, over every deepening level. `truncated_by_paths`: the
    path cap was reached while a longer walk or a further path of the same
    length remained. `truncated_by_depth`: a target was reachable, ignoring
    simplicity, but only beyond `max_depth`. `truncated_by_budget`: the
    search stopped after `_MAX_EXPANSIONS` expansions, so the paths are a
    prefix of the full answer."""

    nodes_expanded: int = 0
    paths_found: int = 0
    truncated_by_paths: bool = False
    truncated_by_depth: bool = False
    truncated_by_budget: bool = False


@dataclass
class RetrievalResult:
    paths: tuple[DependencyPath, ...]
    subgraph_nodes: frozenset[str]
    fallback: bool
    stats: SearchStats = field(default_factory=SearchStats)


@dataclass
class TraversalIndex:
    """Traversal adjacency of one edge set: `moves` maps a node to its
    walkable neighbours, sorted; `preds` maps a node to the nodes that can
    step onto it. `steps` remembers the `PathEdge` of each step a returned
    path has used: building them anew made up half of a question's
    retrieval time on the query benchmark."""

    edges: frozenset[Edge]
    moves: dict[str, tuple[str, ...]]
    preds: dict[str, list[str]]
    steps: dict[tuple[str, str], PathEdge] = field(default_factory=dict)

    def step(self, node: str, neighbor: str) -> PathEdge:
        """The edge a step walks: a stored edge from `node` to `neighbor`
        (the smallest type), else a CALL edge walked backwards."""
        walked = self.steps.get((node, neighbor))
        if walked is None:
            for kind in _EDGE_KINDS:
                if (node, neighbor, kind) in self.edges:
                    walked = PathEdge(src=node, dst=neighbor, type=kind, reversed=False)
                    break
            else:
                walked = PathEdge(src=neighbor, dst=node, type=CALL, reversed=True)
            self.steps[node, neighbor] = walked
        return walked


def _build_index(edges: frozenset[Edge]) -> TraversalIndex:
    moves: dict[str, list[str]] = defaultdict(list)
    preds: dict[str, list[str]] = defaultdict(list)
    for src, dst, kind in edges:
        moves[src].append(dst)
        preds[dst].append(src)
        if kind == CALL:
            moves[dst].append(src)
            preds[src].append(dst)
    return TraversalIndex(
        edges=edges,
        moves={node: tuple(sorted(set(nodes))) for node, nodes in moves.items()},
        preds=dict(preds),
    )


def traversal_index(graph: DependencyGraph) -> TraversalIndex:
    """The graph's traversal index, built on first use and rebuilt when
    `graph.edges` no longer equals the edge set it was built from."""
    index = graph.traversal_cache
    if index is None or graph.edges != index.edges:
        index = _build_index(frozenset(graph.edges))
        graph.traversal_cache = index
    return index


class _BudgetSpent(Exception):
    """The search reached `_MAX_EXPANSIONS` expansions."""


class _Search:
    """State shared by the deepening levels of one `find_paths` call."""

    def __init__(self, index: TraversalIndex, targets: set[str]):
        self.moves = index.moves
        self.preds = index.preds
        self.targets = targets
        self.expanded = 0
        # Walk distance to the nearest target, known up to `reach`; `layer`
        # holds the nodes at distance `reach` and is empty once every node
        # that reaches a target has its distance.
        self.dist = dict.fromkeys(targets, 0)
        self.layer = list(targets)
        self.reach = 0
        # Set by a level that ran to its end: a step was pruned, or may
        # have been (its distance is not known yet).
        self.pruned = False

    def extend(self, reach: float) -> None:
        """Know every distance up to `reach`, one backward layer at a time."""
        dist, preds = self.dist, self.preds
        while self.layer and self.reach < reach:
            self.reach += 1
            layer = []
            for node in self.layer:
                for pred in preds.get(node, ()):
                    if pred not in dist:
                        dist[pred] = self.reach
                        layer.append(pred)
            self.layer = layer

    def expand(self) -> None:
        if self.expanded == _MAX_EXPANSIONS:
            raise _BudgetSpent
        self.expanded += 1

    def walks(self, sources: list[str], length: int, prune: bool = True) -> Iterator[tuple[str, ...]]:
        """Yield, in order, the simple walks of exactly `length` edges from
        a source that touch no target before their last node. With `prune`
        a step whose depth plus distance exceeds `length` is skipped, so
        every walk ends at a target, and a walk run to its end records in
        `pruned` whether it skipped one."""
        moves, targets, dist = self.moves, self.targets, self.dist
        unsure = bool(self.layer)  # an unknown distance may still be finite
        pruned = False
        for source in sources:
            if prune:
                gap = dist.get(source)
                if gap is None or gap > length:
                    pruned = pruned or gap is not None or unsure
                    continue
            self.expand()
            path = [source]
            on_path = {source}
            stack = [iter(moves.get(source, ()))]
            while stack:
                for neighbor in stack[-1]:
                    if neighbor in on_path:
                        continue
                    depth = len(path)
                    if prune:
                        gap = dist.get(neighbor)
                        if gap is None or depth + gap > length:
                            pruned = pruned or gap is not None or unsure
                            continue
                    if depth == length:
                        yield (*path, neighbor)
                        continue
                    if neighbor in targets:
                        continue
                    self.expand()
                    path.append(neighbor)
                    on_path.add(neighbor)
                    stack.append(iter(moves.get(neighbor, ())))
                    break
                else:
                    stack.pop()
                    on_path.discard(path.pop())
        if prune:
            self.pruned = pruned


def find_paths(
    graph: DependencyGraph,
    sources: Iterable[str],
    targets: Iterable[str],
    limits: RetrievalLimits = RetrievalLimits(),
    stats: SearchStats | None = None,
) -> list[DependencyPath]:
    """All simple paths from any source to any target within the limits.

    Returned shortest first; equal-length paths are ordered by node-id
    sequence. The search stops at `max_paths` paths or `_MAX_EXPANSIONS`
    expansions and records why on `stats`.
    """
    source_ids = sorted(set(sources))
    target_ids = set(targets)
    for node_id in [*source_ids, *target_ids]:
        if not graph.has_node(node_id):
            raise UnknownNode(f"node {node_id!r} is not in the graph")
    if stats is None:
        stats = SearchStats()

    index = traversal_index(graph)
    search = _Search(index, target_ids)
    found: list[tuple[str, ...]] = []
    try:
        for length in range(1, limits.max_depth + 1):
            # The last level needs every distance to tell an unreachable
            # target from one beyond `max_depth`.
            search.extend(length if length < limits.max_depth else float("inf"))
            for nodes in search.walks(source_ids, length):
                if len(found) == limits.max_paths:
                    stats.truncated_by_paths = True
                    break
                found.append(nodes)
            if len(found) == limits.max_paths:
                # Truncated if a further path of this length turned up, or
                # if a walk of this length that misses every target could
                # still grow into a longer path. The answer is complete
                # either way, so a probe cut off by the budget counts as
                # the cap.
                if not stats.truncated_by_paths:
                    try:
                        stats.truncated_by_paths = any(
                            nodes[-1] not in target_ids
                            for nodes in search.walks(source_ids, length, prune=False))
                    except _BudgetSpent:
                        stats.truncated_by_paths = True
                break
            if not search.pruned:
                break
        else:
            stats.truncated_by_depth = True
    except _BudgetSpent:
        stats.truncated_by_budget = True

    stats.nodes_expanded += search.expanded
    stats.paths_found = len(found)
    return [DependencyPath(nodes=nodes, edges=tuple(index.step(node, neighbor)
                                                    for node, neighbor in zip(nodes, nodes[1:])))
            for nodes in found]


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
