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
cap, or when the next expansion would take the search past `_MAX_SCANS`
neighbour scans. Search work is counted in scans, one per neighbour an
expansion fetches, because each expansion scans every neighbour of its
node: a budget of expansions bounds nothing on a node of high degree. The
traversal adjacency is built once per graph, which is read-only, as a
`TraversalIndex`.

A search that has scanned twice as many neighbours as the graph has edges
(at most half the budget, so the switch comes first on any graph)
confines itself to the biconnected blocks between its endpoints (Hopcroft
& Tarjan 1973). Take the undirected graph over the interior nodes, those
with a move in and a move out: every simple path between two of its nodes
stays inside the blocks on the block-cut-tree path between them. So the
distance table is rebuilt over the sources, the targets and the blocks on
tree paths from a source's successor to a target's predecessor, and the
level in progress is walked again; the same distance test then prunes
every other node. The blocks are found once per index, in O(V + E), which
is why cheap searches never pay for them. Paths and their order do not
change, since no simple path leaves those blocks.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from types import SimpleNamespace
from typing import Iterable, Iterator, NamedTuple

from .errors import UnknownNode
from .graph import CALL, EDGE_TYPES, DependencyGraph, Edge
from .tagger import TagSet


# Neighbour scans a search may make; it stops before the expansion that
# would pass them. It bounds the work of a question on a dense call knot.
# On the fee corpus and the benchmark workloads (seeds 0-99) the largest
# count is 46 175, by a `cli` gold question: 19 060 scans before the block
# filter switches on (its graph has 10 101 edges), the rest within the
# block of its entry, whose steps share a hub of ~3 000 neighbours.
_MAX_SCANS = 1_000_000

_EDGE_KINDS = tuple(sorted(EDGE_TYPES))


class _Limits(NamedTuple):
    max_depth: int = 16
    max_paths: int = 64


class RetrievalLimits(_Limits):
    """Search limits; a subclass, so that making one checks them."""

    __slots__ = ()

    def __new__(cls, max_depth: int = 16, max_paths: int = 64) -> RetrievalLimits:
        self = super().__new__(cls, max_depth, max_paths)
        if min(max_depth, max_paths) < 1:
            raise ValueError(f"retrieval limits must be positive: {self}")
        return self

    @classmethod
    def _make(cls, iterable: Iterable[int]) -> RetrievalLimits:
        return cls(*iterable)  # so that `_replace` checks the limits too


class PathEdge(NamedTuple):
    """One traversed edge. `src`/`dst` keep the stored direction;
    `reversed` is True when the step walked the edge backwards."""

    src: str
    dst: str
    type: str
    reversed: bool


class DependencyPath(NamedTuple):
    nodes: tuple[str, ...]
    edges: tuple[PathEdge, ...]


class SearchStats(SimpleNamespace):
    """Search work and why the search stopped.

    `nodes_expanded` counts the nodes whose neighbours the depth-first
    walks scanned, and `edges_scanned` the neighbours they scanned, one
    per entry of each expanded node's move list; both run over every
    deepening level, a level walked again after the block filter switched
    on included. `truncated_by_paths`: the path cap was reached while a
    longer walk or a further path of the same length remained.
    `truncated_by_depth`: the depth limit may have hidden a longer simple
    path, i.e. every level up to `max_depth` pruned a step from which a
    target was reachable, ignoring simplicity; it is never False while
    such a path exists, unless the path cap or the budget stopped the
    search. `truncated_by_budget`: the next expansion would have passed
    `_MAX_SCANS` scans, so the paths are a prefix of the full answer."""

    def __init__(self, nodes_expanded: int = 0, edges_scanned: int = 0, paths_found: int = 0,
                 truncated_by_paths: bool = False, truncated_by_depth: bool = False,
                 truncated_by_budget: bool = False):
        super().__init__(nodes_expanded=nodes_expanded, edges_scanned=edges_scanned,
                         paths_found=paths_found, truncated_by_paths=truncated_by_paths,
                         truncated_by_depth=truncated_by_depth,
                         truncated_by_budget=truncated_by_budget)


class RetrievalResult(NamedTuple):
    paths: tuple[DependencyPath, ...]
    subgraph_nodes: frozenset[str]
    fallback: bool
    stats: SearchStats


class TraversalIndex:
    """Traversal adjacency of one edge set: `moves` maps a node to its
    walkable neighbours, sorted; `preds` maps a node to the nodes that can
    step onto it. `steps` remembers the `PathEdge` of each step a returned
    path has used: building them anew made up half of a question's
    retrieval time on the query benchmark. `blocks`, for the block
    filter, is built on first use."""

    def __init__(self, edges: frozenset[Edge]):
        moves: dict[str, list[str]] = defaultdict(list)
        preds: dict[str, list[str]] = defaultdict(list)
        for src, dst, kind in edges:
            moves[src].append(dst)
            preds[dst].append(src)
            if kind == CALL:
                moves[dst].append(src)
                preds[src].append(dst)
        self.edges = edges
        self.moves = {node: tuple(sorted(set(nodes))) for node, nodes in moves.items()}
        self.preds = dict(preds)
        self.steps: dict[tuple[str, str], PathEdge] = {}

    @cached_property
    def blocks(self) -> BlockTree:
        return BlockTree.build(self.moves, self.preds)

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


class BlockTree(NamedTuple):
    """The biconnected blocks of the undirected graph over interior nodes
    (a move in and a move out), as the block-cut tree rooted at one node
    per connected component. `members` lists each block's nodes with its
    head, the node it hangs from, last; a block comes after every block
    below it. `roots` gives each block's component root."""

    members: tuple[tuple[str, ...], ...]
    roots: tuple[str, ...]

    @classmethod
    def build(cls, moves: dict[str, tuple[str, ...]], preds: dict[str, list[str]]) -> BlockTree:
        """Hopcroft-Tarjan, with an explicit stack instead of recursion."""
        interior = moves.keys() & preds.keys()
        members: list[tuple[str, ...]] = []
        roots: list[str] = []
        order: dict[str, int] = {}
        low: dict[str, int] = {}
        for root in interior:
            if root in order:
                continue
            order[root] = low[root] = len(order)
            # Discovered nodes not yet in a block, and the depth-first path
            # as (node, neighbours left, the node's place on `stack`).
            stack = [root]
            walk = [(root, iter({*moves[root], *preds[root]}), 0)]
            while walk:
                node, todo, place = walk[-1]
                for nxt in todo:
                    if nxt not in interior or nxt == node:
                        continue
                    if nxt not in order:
                        order[nxt] = low[nxt] = len(order)
                        walk.append((nxt, iter({*moves[nxt], *preds[nxt]}), len(stack)))
                        stack.append(nxt)
                        break
                    low[node] = min(low[node], order[nxt])
                else:
                    walk.pop()
                    if walk:
                        head = walk[-1][0]
                        low[head] = min(low[head], low[node])
                        if low[node] >= order[head]:
                            members.append((*stack[place:], head))
                            roots.append(root)
                            del stack[place:]
        return cls(members=tuple(members), roots=tuple(roots))

    def between(self, starts: set[str], ends: set[str]) -> set[str]:
        """The nodes of every block on a tree path from a node of `starts`
        to a node of `ends`, plus the nodes in both sets."""
        # Marks below each node, counted children first: a vertex's count
        # covers the blocks that hang from it, a root's its whole component.
        up_starts = dict.fromkeys(starts, 1)
        up_ends = dict.fromkeys(ends, 1)
        for *rest, head in self.members:
            up_starts[head] = up_starts.get(head, 0) + sum(up_starts.get(node, 0) for node in rest)
            up_ends[head] = up_ends.get(head, 0) + sum(up_ends.get(node, 0) for node in rest)
        # A block is on such a path when the subtree below one of its
        # members holds a start and an end lies outside it, or the reverse.
        allowed = starts & ends
        for block, root in zip(self.members, self.roots):
            total_starts, total_ends = up_starts.get(root, 0), up_ends.get(root, 0)
            for node in block[:-1]:
                below_starts, below_ends = up_starts.get(node, 0), up_ends.get(node, 0)
                if (below_starts and total_ends - below_ends
                        or below_ends and total_starts - below_starts):
                    allowed.update(block)
                    break
        return allowed


def traversal_index(graph: DependencyGraph) -> TraversalIndex:
    """The graph's traversal index, built on first use."""
    index = graph.cache.get("traversal")
    if index is None:
        index = graph.cache["traversal"] = TraversalIndex(graph.edges)
    return index


def _filter_point(index: TraversalIndex) -> float:
    """Scans after which a search switches the block filter on: twice the
    edge count, at most half the budget, so that the filter switches on
    before the budget runs out. With the switch at the edge count, most
    searches of the benchmark's `query` workload would switch it on and
    walk a level again; at twice the edge count, none does."""
    return min(2 * len(index.edges), _MAX_SCANS // 2)


class _BudgetSpent(Exception):
    """The next expansion would have passed `_MAX_SCANS` scans."""


class _Confine(Exception):
    """The search reached its filter point."""


class _Search:
    """State shared by the deepening levels of one `find_paths` call."""

    def __init__(self, index: TraversalIndex, targets: set[str]):
        self.index = index
        self.moves = index.moves
        self.preds = index.preds
        self.targets = targets
        # Work so far; `walks` counts in locals and writes them back.
        self.expanded = self.scanned = 0
        # Scans that the walk may not pass: the budget, or earlier the
        # filter point.
        self.stop_at = min(_MAX_SCANS, _filter_point(index))
        # The nodes a path may use, once the block filter is on.
        self.allowed: set[str] | None = None
        self.reset()
        # Set by a level that ran to its end: a step was pruned, or may
        # have been (its distance is not known yet).
        self.pruned = False

    def reset(self) -> None:
        # Walk distance to the nearest target, known up to `reach`; `layer`
        # holds the nodes at distance `reach` and is empty once every node
        # that reaches a target has its distance.
        self.dist = dict.fromkeys(self.targets, 0)
        self.layer = list(self.targets)
        self.reach = 0

    def confine(self, sources: list[str]) -> None:
        """Switch the block filter on: forget every distance, and give
        distances from now on only to the nodes of the blocks between a
        source's successor and a target's predecessor."""
        starts = {node for source in sources for node in self.moves.get(source, ())}
        ends = {node for target in self.targets for node in self.preds.get(target, ())}
        self.allowed = self.index.blocks.between(starts, ends)
        self.allowed.update(sources, self.targets)
        self.stop_at = _MAX_SCANS
        self.reset()

    def extend(self, reach: float) -> None:
        """Know every distance up to `reach`, one backward layer at a time."""
        dist, preds, allowed = self.dist, self.preds, self.allowed
        while self.layer and self.reach < reach:
            self.reach += 1
            layer = []
            for node in self.layer:
                for pred in preds.get(node, ()):
                    if pred not in dist and (allowed is None or pred in allowed):
                        dist[pred] = self.reach
                        layer.append(pred)
            self.layer = layer

    def stop(self, expanded: int, scanned: int) -> None:
        """Keep the work a walk did, and end it at `stop_at`."""
        self.expanded, self.scanned = expanded, scanned
        raise _BudgetSpent if self.stop_at == _MAX_SCANS else _Confine

    def walks(self, sources: list[str], length: int, prune: bool = True) -> Iterator[tuple[str, ...]]:
        """Yield, in order, the simple walks of exactly `length` edges from
        a source that touch no target before their last node. With `prune`
        a step whose depth plus distance exceeds `length` is skipped, so
        every walk ends at a target, and a walk run to its end records in
        `pruned` whether it skipped one."""
        moves, targets, dist = self.moves, self.targets, self.dist
        # The work counters are locals, written back before the walk yields
        # or stops, as its caller may then leave it.
        expanded, scanned, stop_at = self.expanded, self.scanned, self.stop_at
        unsure = bool(self.layer)  # an unknown distance may still be finite
        pruned = False
        for source in sources:
            if prune:
                gap = dist.get(source)
                if gap is None or gap > length:
                    pruned = pruned or gap is not None or unsure
                    continue
            todo = moves.get(source, ())
            scanned += len(todo)
            if scanned > stop_at:
                self.stop(expanded, scanned - len(todo))
            expanded += 1
            path = [source]
            on_path = {source}
            stack = [iter(todo)]
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
                        self.expanded, self.scanned = expanded, scanned
                        yield (*path, neighbor)
                        continue
                    if neighbor in targets:
                        continue
                    todo = moves.get(neighbor, ())
                    scanned += len(todo)
                    if scanned > stop_at:
                        self.stop(expanded, scanned - len(todo))
                    expanded += 1
                    path.append(neighbor)
                    on_path.add(neighbor)
                    stack.append(iter(todo))
                    break
                else:
                    stack.pop()
                    on_path.discard(path.pop())
        self.expanded, self.scanned = expanded, scanned
        if prune:
            self.pruned = pruned


def _deepen(search: _Search, sources: list[str], length: int, limits: RetrievalLimits,
            found: list[tuple[str, ...]], stats: SearchStats) -> bool:
    """Add the paths of exactly `length` edges to `found`; True when the
    search is finished, at the path cap or after a level that pruned
    nothing."""
    # The last level needs every distance to tell an unreachable target
    # from one beyond `max_depth`.
    search.extend(length if length < limits.max_depth else float("inf"))
    for nodes in search.walks(sources, length):
        if len(found) == limits.max_paths:
            stats.truncated_by_paths = True
            return True
        found.append(nodes)
    if len(found) == limits.max_paths:
        # Truncated if a walk of this length that misses every target
        # could still grow into a longer path. The answer is complete
        # either way, so a probe cut off by the budget counts as the cap.
        try:
            stats.truncated_by_paths = any(
                nodes[-1] not in search.targets
                for nodes in search.walks(sources, length, prune=False))
        except _BudgetSpent:
            stats.truncated_by_paths = True
        return True
    return not search.pruned


def find_paths(
    graph: DependencyGraph,
    sources: Iterable[str],
    targets: Iterable[str],
    limits: RetrievalLimits = RetrievalLimits(),
    stats: SearchStats | None = None,
) -> list[DependencyPath]:
    """All simple paths from any source to any target within the limits.

    Returned shortest first; equal-length paths are ordered by node-id
    sequence. The search stops at `max_paths` paths or at `_MAX_SCANS`
    neighbour scans and records why on `stats`.
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
            done = len(found)
            try:
                finished = _deepen(search, source_ids, length, limits, found, stats)
            except _Confine:
                # The filter keeps every path, in the same order: walk this
                # level again over the blocks between the ends.
                del found[done:]
                search.confine(source_ids)
                finished = _deepen(search, source_ids, length, limits, found, stats)
            if finished:
                break
        else:
            stats.truncated_by_depth = True
    except _BudgetSpent:
        stats.truncated_by_budget = True

    stats.nodes_expanded += search.expanded
    stats.edges_scanned += search.scanned
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
    paths = tuple(find_paths(graph, sources, targets, limits, stats))
    subgraph = frozenset().union(*(path.nodes for path in paths))
    return RetrievalResult(paths=paths, subgraph_nodes=subgraph, fallback=False, stats=stats)


def retrieved_kc_names(result: RetrievalResult, graph: DependencyGraph) -> list[str]:
    """Function names of the retrieved knowledge-code nodes, sorted.
    Semantic I/O nodes never appear here."""
    return sorted(
        graph.kc_nodes[node_id].function_name
        for node_id in result.subgraph_nodes
        if node_id in graph.kc_nodes
    )
