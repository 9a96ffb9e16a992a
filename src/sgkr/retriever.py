"""Dependency-path search between semantic input and output nodes.

Traversal rules: CALL edges may be walked in either direction (a caller
and its callee depend on each other's knowledge), FEEDS and YIELDS edges
only in their stored direction. Paths are simple (no repeated node), so
recursive call cycles terminate, and a path ends at the first target it
reaches: a source that is also a target starts no path.

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
node: a budget of expansions bounds nothing on a node of high degree.
The paths kept are bounded the same way, on a count of their own: the
search stops before the path that would take the nodes of the kept
paths past `_MAX_SCANS`, since a path found at the last level costs no
scan. The traversal adjacency is built once per graph, which is
read-only, as a `TraversalIndex`.

A search may confine itself to the biconnected blocks between its
endpoints (Hopcroft & Tarjan 1973). Take the undirected graph over the
interior nodes, those with a move in and a move out: every simple path
between two of its nodes stays inside the blocks on the block-cut-tree
path between them. Confined, a search's distance table covers only the
sources, the targets and the blocks on tree paths from a source's
successor to a target's predecessor, and its adjacency is cut to that
set. The blocks are found once per graph, in O(V + E), and the blocks
between the ends by climbing the tree from the marked nodes only. Before
its first expansion a search confines itself at once when one of its
ends' components splits into more than one block; the split components
are counted once per graph, so the decision costs a lookup per component
the ends touch. Any other search confines itself once it has scanned
twice as many neighbours as the graph has edges (at most half the
budget, so the switch comes first on any graph): the distance table is
refilled, the adjacency cut, and the walk goes on from where it is; the
same distance test then prunes every other node that a walk begun before
the switch still scans. Paths and their order do not change, since no
simple path leaves those blocks.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import partial
from itertools import chain
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import UnknownNode
from .graph import CALL, EDGE_TYPES, INPUT, OUTPUT, DependencyGraph, Edge, _maps_to
from .tagger import TagSet


# Neighbour scans a search may make; it stops before the expansion that
# would pass them. It bounds the work of a question on a dense call knot.
# On the fee corpus and the benchmark workloads (seeds 0-99) the largest
# count is 1 691, by a `query` question (seed 31); the `cli` questions,
# confined from the start, scan at most 344. It bounds the nodes of the
# kept paths too, counted apart.
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
    per entry of each expanded node's move list (cut to the allowed nodes
    once the block filter is on); both run over every deepening level.
    `truncated_by_paths`: the path cap was reached while a longer walk or
    a further path of the same length remained.
    `truncated_by_depth`: the depth limit may have hidden a longer simple
    path, i.e. every level up to `max_depth` pruned a step from which a
    target was reachable, ignoring simplicity; it is never False while
    such a path exists, unless the path cap or the budget stopped the
    search; in the level where the block filter switches on, steps pruned
    before the switch count by their distance in the whole graph.
    `truncated_by_budget`: the next expansion would have passed
    `_MAX_SCANS` scans, or the next path would have taken the nodes of
    the kept paths past `_MAX_SCANS`, so the paths are a prefix of the
    full answer."""

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


class _Memo(dict):
    """A dict that fills a missing key with `compute(key)`, once."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable):
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _walked_edge(edges: frozenset[Edge], step: tuple[str, str]) -> PathEdge:
    """The edge a step walks: a stored edge from its node to its neighbour
    (the smallest type), else a CALL edge walked backwards."""
    node, neighbor = step
    for kind in _EDGE_KINDS:
        if (node, neighbor, kind) in edges:
            return PathEdge(src=node, dst=neighbor, type=kind, reversed=False)
    return PathEdge(src=neighbor, dst=node, type=CALL, reversed=True)


def _callees(moves: dict[str, tuple[str, ...]], edges: frozenset[Edge],
             node: str) -> tuple[str, ...]:
    """The neighbours `node` reaches by a stored CALL edge, in move order."""
    return tuple(neighbor for neighbor in moves.get(node, ())
                 if (node, neighbor, CALL) in edges)


class TraversalIndex:
    """Traversal adjacency of one edge set: `moves` maps a node to its
    walkable neighbours, sorted; `preds` maps a node to the nodes that can
    step onto it. Two memos fill in on first use: `steps` maps a step
    (node, neighbour) to its `PathEdge`, and `callees` maps a node to the
    neighbours it calls. They hold the edges and moves, never the index,
    so that dropping the graph frees the index without the collector."""

    def __init__(self, edges: frozenset[Edge], moves: dict[str, tuple[str, ...]],
                 preds: dict[str, list[str]]):
        self.edges = edges
        self.moves = moves
        self.preds = preds
        self.steps: dict[tuple[str, str], PathEdge] = _Memo(partial(_walked_edge, edges))
        self.callees: dict[str, tuple[str, ...]] = _Memo(partial(_callees, moves, edges))

    @classmethod
    def build(cls, graph: DependencyGraph) -> TraversalIndex:
        moves: dict[str, list[str]] = defaultdict(list)
        preds: dict[str, list[str]] = defaultdict(list)
        for src, dst, kind in graph.edges:
            moves[src].append(dst)
            preds[dst].append(src)
            if kind == CALL:
                moves[dst].append(src)
                preds[src].append(dst)
        return cls(graph.edges, {node: tuple(sorted(set(nodes))) for node, nodes in moves.items()},
                   dict(preds))

    def freeze(self) -> tuple[dict, dict]:
        return self.moves, self.preds

    @classmethod
    def thaw(cls, graph: DependencyGraph, payload: tuple[dict, dict]) -> TraversalIndex:
        moves, preds = payload
        if not (_maps_to(moves, tuple) and _maps_to(preds, list)):
            raise ValueError("traversal section of the wrong shape")
        return cls(graph.edges, moves, preds)


class BlockTree(NamedTuple):
    """The biconnected blocks of the undirected graph over interior nodes
    (a move in and a move out), as the block-cut tree rooted at one node
    per connected component. `members` lists each block's nodes with its
    head, the node it hangs from, last; a block comes after every block
    below it. `roots` gives each block's component root, and `parent`
    each node but a root the block it is a member of below that block's
    head: its parent in the tree."""

    members: tuple[tuple[str, ...], ...]
    roots: tuple[str, ...]
    parent: dict[str, int]

    @classmethod
    def build(cls, graph: DependencyGraph) -> BlockTree:
        """Hopcroft-Tarjan, with an explicit stack instead of recursion,
        over the graph's traversal index."""
        index = traversal_index(graph)
        moves, preds = index.moves, index.preds
        interior = moves.keys() & preds.keys()
        members: list[tuple[str, ...]] = []
        roots: list[str] = []
        parent: dict[str, int] = {}
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
                            block = (*stack[place:], head)
                            parent.update(dict.fromkeys(block[:-1], len(members)))
                            members.append(block)
                            roots.append(root)
                            del stack[place:]
        return cls(members=tuple(members), roots=tuple(roots), parent=parent)

    def freeze(self) -> tuple:
        return tuple(self)

    @classmethod
    def thaw(cls, graph: DependencyGraph, payload: tuple) -> BlockTree:
        members, roots, parent = payload
        if not (type(members) is tuple and set(map(type, members)) <= {tuple}
                and set(map(type, chain.from_iterable(members))) <= {str}
                and type(roots) is tuple and set(map(type, roots)) <= {str}
                and len(roots) == len(members) and type(parent) is dict
                and set(map(type, parent)) <= {str} and set(map(type, parent.values())) <= {int}):
            raise ValueError("block section of the wrong shape")
        return cls(members, roots, parent)

    def between(self, starts: set[str], ends: set[str]) -> set[str]:
        """The nodes of every block on a tree path from a node of `starts`
        to a node of `ends`, plus the nodes in both sets.

        Only the tree paths up from the marked nodes are walked. A node
        carries marks when it is marked or heads a block that a climb
        touched; each touched block lists its members that carry marks."""
        members, parent = self.members, self.parent
        carriers: dict[int, list[str]] = {}  # touched block -> its members that carry marks
        climb = list(starts | ends)
        carrying = set(climb)
        for node in climb:  # grows as heads are met: each node once
            block = parent.get(node)
            if block is None:
                continue
            carriers.setdefault(block, []).append(node)
            head = members[block][-1]
            if head not in carrying:
                carrying.add(head)
                climb.append(head)
        # Marks at or below each node that carries some, as (starts, ends),
        # summed children first: a block comes after every block below it,
        # so a head's sum is whole before its own block is summed, and a
        # root's covers its whole component.
        below = {node: (node in starts, node in ends) for node in carrying}
        for block in sorted(carriers):
            head = members[block][-1]
            head_starts, head_ends = below[head]
            for node in carriers[block]:
                node_starts, node_ends = below[node]
                head_starts += node_starts
                head_ends += node_ends
            below[head] = head_starts, head_ends
        # A block is on such a path when the subtree below one of its
        # members holds a start and an end lies outside it, or the reverse.
        allowed = starts & ends
        for block, nodes in carriers.items():
            total_starts, total_ends = below[self.roots[block]]
            for node in nodes:
                below_starts, below_ends = below[node]
                if (below_starts and total_ends - below_ends
                        or below_ends and total_starts - below_starts):
                    allowed.update(members[block])
                    break
        return allowed


def traversal_index(graph: DependencyGraph) -> TraversalIndex:
    """The graph's traversal index, built on first use."""
    return graph.derived("traversal", TraversalIndex.build, TraversalIndex.freeze,
                         TraversalIndex.thaw)


def block_tree(graph: DependencyGraph) -> BlockTree:
    """The graph's block tree, built on first use."""
    return graph.derived("blocks", BlockTree.build, BlockTree.freeze, BlockTree.thaw)


def _filter_point(index: TraversalIndex) -> float:
    """Scans after which a search not confined from the start switches the
    block filter on: twice the edge count, at most half the budget, so
    that the filter switches on before the budget runs out."""
    return min(2 * len(index.edges), _MAX_SCANS // 2)


def _confined_at_once(graph: DependencyGraph, marked: set[str]) -> bool:
    """Whether a search confines itself to the blocks between its ends
    from its first expansion: when a node of `marked` lies in a component
    of more than one block. A node's component is that of the block it
    hangs in, or the one it roots; the split components are counted once
    per graph, so each search looks up only its own nodes."""
    tree = block_tree(graph)
    roots, parent = tree.roots, tree.parent
    split = graph.derived("split", _split_components)
    return not split.isdisjoint(roots[parent[node]] if node in parent else node
                                for node in marked)


def _split_components(graph: DependencyGraph) -> set[str]:
    """The roots of the components of more than one block."""
    counts = Counter(block_tree(graph).roots)
    return {root for root, count in counts.items() if count > 1}


class _BudgetSpent(Exception):
    """The next expansion would have passed `_MAX_SCANS` scans, or the next
    path `_MAX_SCANS` kept path nodes."""


class _Search:
    """State shared by the deepening levels of one `find_paths` call."""

    def __init__(self, graph: DependencyGraph, sources: list[str], targets: set[str]):
        self.graph = graph
        self.index = index = traversal_index(graph)
        # The pruned walk's adjacency: the index's, cut to the allowed
        # nodes once the block filter is on.
        self.moves = index.moves
        self.preds = index.preds
        self.sources = sources
        self.targets = targets
        # Work so far; `walks` counts in locals and writes them back.
        self.expanded = self.scanned = 0
        # The nodes of the paths found so far.
        self.kept = 0
        # Walk distance to the nearest target, known up to `reach`; `layer`
        # holds the nodes at distance `reach` and is empty once every node
        # that reaches a target has its distance. `goal` is the reach the
        # current level asked for.
        self.dist = dict.fromkeys(targets, 0)
        self.layer = list(targets)
        self.reach = self.goal = 0
        # Set by a level that ran to its end: a step was pruned, or may
        # have been (its distance is not known yet).
        self.pruned = False
        # Every simple path runs from a source's successor to a target's
        # predecessor, within the blocks between them or through a node of
        # both kinds.
        self.starts = {node for source in sources for node in self.moves.get(source, ())}
        self.ends = {node for target in targets for node in self.preds.get(target, ())}
        # Scans that the walk may not pass: the budget, or earlier the
        # filter point of a search not confined from the start.
        if _confined_at_once(graph, self.starts | self.ends):
            self.confine()
        else:
            self.stop_at = min(_MAX_SCANS, _filter_point(index))

    def extend(self, goal: float) -> None:
        """Know every distance up to `goal`, one backward layer at a time."""
        self.goal = goal
        dist, preds = self.dist, self.preds
        while self.layer and self.reach < goal:
            self.reach += 1
            layer = []
            for node in self.layer:
                for pred in preds.get(node, ()):
                    if pred not in dist:
                        dist[pred] = self.reach
                        layer.append(pred)
            self.layer = layer

    def confine(self) -> None:
        """Switch the block filter on: cut `moves` and `preds` to the
        sources, the targets and the blocks between `starts` and `ends`,
        refill `dist` in place with the distances within them, and lift
        `stop_at` to the budget."""
        moves, preds = self.index.moves, self.index.preds
        allowed = block_tree(self.graph).between(self.starts, self.ends)
        allowed.update(self.sources, self.targets)
        self.moves = {node: tuple(filter(allowed.__contains__, moves[node]))
                      for node in allowed & moves.keys()}
        self.preds = {node: tuple(filter(allowed.__contains__, preds[node]))
                      for node in allowed & preds.keys()}
        self.stop_at = _MAX_SCANS
        self.dist.clear()
        self.dist.update(dict.fromkeys(self.targets, 0))
        self.layer, self.reach = list(self.targets), 0
        self.extend(self.goal)

    def stop(self, scanned: int) -> tuple[float, bool]:
        """The walk's exit at an expansion that would pass `stop_at`, to
        `scanned` scans: past the budget, end the search before it. Else
        switch the block filter on, and give the walk its new `stop_at`
        and `unsure`."""
        if scanned > _MAX_SCANS:
            raise _BudgetSpent
        self.confine()
        return self.stop_at, bool(self.layer)

    def walks(self, length: int, prune: bool = True) -> Iterator[tuple[str, ...]]:
        """Yield, in order, the simple walks of exactly `length` edges from
        a source that touch no target before their last node. With `prune`
        a step whose depth plus distance exceeds `length` is skipped, so
        every walk ends at a target, and a walk run to its end records in
        `pruned` whether it skipped one. Without it the walk keeps every
        move, block filter or not."""
        moves = self.moves if prune else self.index.moves
        targets, dist = self.targets, self.dist
        expanded, scanned, stop_at = self.expanded, self.scanned, self.stop_at
        unsure = bool(self.layer)  # an unknown distance may still be finite
        pruned = False
        # The bottom frame's moves are the sources. The counters are written
        # back however the walk ends: CPython closes a dropped walk at once.
        path: list[str] = []
        on_path: set[str] = set()
        stack = [iter(self.sources)]
        try:
            while stack:
                # Edges a walk has left after its step from the path's end.
                room = length - len(path)
                for neighbor in stack[-1]:
                    if neighbor in on_path:
                        continue
                    if prune:
                        gap = dist.get(neighbor)
                        if gap is None or gap > room:
                            pruned = pruned or gap is not None or unsure
                            continue
                    if not room:
                        yield (*path, neighbor)
                        continue
                    if neighbor in targets:
                        continue
                    todo = moves.get(neighbor, ())
                    if scanned + len(todo) > stop_at:
                        stop_at, unsure = self.stop(scanned + len(todo))
                        if prune:
                            moves = self.moves
                    scanned += len(todo)
                    expanded += 1
                    path.append(neighbor)
                    on_path.add(neighbor)
                    stack.append(iter(todo))
                    break
                else:
                    stack.pop()
                    if path:
                        on_path.discard(path.pop())
        finally:
            self.expanded, self.scanned = expanded, scanned
        if prune:
            self.pruned = pruned


def _deepen(search: _Search, length: int, limits: RetrievalLimits,
            found: list[tuple[str, ...]], stats: SearchStats) -> bool:
    """Add the paths of exactly `length` edges to `found`; True when the
    search is finished, at the path cap or after a level that pruned
    nothing."""
    # The last level needs every distance to tell an unreachable target
    # from one beyond `max_depth`.
    search.extend(length if length < limits.max_depth else float("inf"))
    for nodes in search.walks(length):
        if len(found) == limits.max_paths:
            stats.truncated_by_paths = True
            return True
        if search.kept + len(nodes) > _MAX_SCANS:
            raise _BudgetSpent
        search.kept += len(nodes)
        found.append(nodes)
    if len(found) == limits.max_paths:
        # Truncated if a walk of this length that misses every target
        # could still grow into a longer path. The answer is complete
        # either way, so a probe cut off by the budget counts as the cap.
        try:
            stats.truncated_by_paths = any(
                nodes[-1] not in search.targets
                for nodes in search.walks(length, prune=False))
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
    sequence. A source that is also a target starts no path. The search
    stops at `max_paths` paths, at `_MAX_SCANS` neighbour scans or at
    `_MAX_SCANS` nodes of the paths found, and records why on `stats`.
    """
    source_ids = sorted(set(sources))
    target_ids = set(targets)
    for node_id in [*source_ids, *target_ids]:
        if not graph.has_node(node_id):
            raise UnknownNode(f"node {node_id!r} is not in the graph")
    if stats is None:
        stats = SearchStats()

    search = _Search(graph, source_ids, target_ids)
    found: list[tuple[str, ...]] = []
    try:
        for length in range(1, limits.max_depth + 1):
            if _deepen(search, length, limits, found, stats):
                break
        else:
            stats.truncated_by_depth = True
    except _BudgetSpent:
        stats.truncated_by_budget = True

    stats.nodes_expanded += search.expanded
    stats.edges_scanned += search.scanned
    stats.paths_found = len(found)
    step = search.index.steps.__getitem__
    return [tuple.__new__(DependencyPath, (nodes, tuple(map(step, zip(nodes, nodes[1:])))))
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

    sources = [graph.io_node_id(label, INPUT) for label in sorted(tagset.inputs)]
    targets = [graph.io_node_id(label, OUTPUT) for label in sorted(tagset.outputs)]
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
