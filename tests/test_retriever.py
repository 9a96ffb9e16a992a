from __future__ import annotations

import gc
import itertools
import random
import time
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conftest import FEE_NEEDED, FEE_QUESTION, FEE_UNNEEDED
from oracles import (
    add_malformed_edges,
    oracle_between,
    oracle_bfs_paths,
    oracle_simple_paths,
    random_io_graph,
)
from sgkr import load_corpus, retriever
from sgkr.context import assemble_context
from sgkr.errors import UnknownNode
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
    build_graph,
    serialize,
    validate_graph,
)
from sgkr.retriever import (
    RetrievalLimits,
    SearchStats,
    find_paths,
    retrieve,
    retrieved_kc_names,
)
from sgkr.tagger import TagSet, build_vocabulary, extract_tags, load_aliases

WIDE_LIMITS = RetrievalLimits(max_depth=16, max_paths=10**6)


def chain_graph():
    """input -> f1 -> f2 -> output where f1 calls f2 and f2 yields."""
    return DependencyGraph(
        kc_nodes={f"kc:e:{name}": KnowledgeCodeNode(
            node_id=f"kc:e:{name}", function_name=name,
            code=f"def {name}():\n    pass", knowledge=name, origin_entries=("e",),
        ) for name in ("f1", "f2")},
        io_nodes={"io:input:start": IoNode(node_id="io:input:start", label="start", kind=INPUT),
                  "io:output:end": IoNode(node_id="io:output:end", label="end", kind=OUTPUT)},
        edges={Edge("kc:e:f1", "kc:e:f2", CALL), Edge("io:input:start", "kc:e:f1", FEEDS),
               Edge("kc:e:f2", "io:output:end", YIELDS)},
    )


class TestFindPaths:
    def test_simple_chain(self):
        paths = find_paths(chain_graph(), ["io:input:start"], ["io:output:end"])
        assert [p.nodes for p in paths] == [
            ("io:input:start", "kc:e:f1", "kc:e:f2", "io:output:end"),
        ]

    def test_edge_orientation_flags(self):
        graph = chain_graph()
        path = find_paths(graph, ["io:input:start"], ["io:output:end"])[0]
        assert [(e.type, e.reversed) for e in path.edges] == [
            (FEEDS, False), (CALL, False), (YIELDS, False),
        ]

    def test_reverse_call_traversal(self):
        # The input feeds the callee, the caller yields the output: the
        # CALL edge must be walked against its stored direction.
        graph = chain_graph()
        graph = graph._replace(edges={e for e in graph.edges if e.type == CALL} | {
            Edge("io:input:start", "kc:e:f2", FEEDS), Edge("kc:e:f1", "io:output:end", YIELDS)})
        paths = find_paths(graph, ["io:input:start"], ["io:output:end"])
        assert [p.nodes for p in paths] == [
            ("io:input:start", "kc:e:f2", "kc:e:f1", "io:output:end"),
        ]
        call_step = paths[0].edges[1]
        assert call_step.reversed
        assert (call_step.src, call_step.dst) == ("kc:e:f1", "kc:e:f2")

    def test_disconnected_no_paths(self):
        graph = chain_graph()
        graph = graph._replace(
            kc_nodes={**graph.kc_nodes, "kc:e:island": KnowledgeCodeNode(
                node_id="kc:e:island", function_name="island",
                code="def island():\n    pass", knowledge="island", origin_entries=("e",),
            )},
            io_nodes={**graph.io_nodes,
                      "io:output:far": IoNode(node_id="io:output:far", label="far", kind=OUTPUT)},
            edges=graph.edges | {Edge("kc:e:island", "io:output:far", YIELDS)},
        )
        assert find_paths(graph, ["io:input:start"], ["io:output:far"]) == []

    def test_unknown_node(self):
        with pytest.raises(UnknownNode):
            find_paths(chain_graph(), ["io:input:ghost"], ["io:output:end"])

    def test_depth_limit(self):
        graph = chain_graph()
        limits = RetrievalLimits(max_depth=2, max_paths=10)
        stats_paths = find_paths(graph, ["io:input:start"], ["io:output:end"], limits)
        assert stats_paths == []

    def test_max_paths_truncation_flag(self):
        graph, sources, targets = random_io_graph(random.Random(123), max_kc=6)
        all_paths = find_paths(graph, sources, targets, WIDE_LIMITS)
        if len(all_paths) > 1:
            from sgkr.retriever import SearchStats
            stats = SearchStats()
            limited = find_paths(graph, sources, targets,
                                 RetrievalLimits(max_depth=16, max_paths=1), stats)
            assert len(limited) == 1
            assert stats.truncated_by_paths

    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(20240811)
        for _ in range(150):
            graph, sources, targets = random_io_graph(rng)
            got = {p.nodes for p in find_paths(graph, sources, targets, WIDE_LIMITS)}
            expected = oracle_simple_paths(graph, sources, targets, WIDE_LIMITS.max_depth)
            assert got == expected

    def test_paths_sorted_by_length_then_nodes(self):
        rng = random.Random(99)
        for _ in range(50):
            graph, sources, targets = random_io_graph(rng)
            paths = find_paths(graph, sources, targets, WIDE_LIMITS)
            keys = [(len(p.nodes), p.nodes) for p in paths]
            assert keys == sorted(keys)

    def test_path_invariants(self):
        rng = random.Random(5)
        for _ in range(50):
            graph, sources, targets = random_io_graph(rng)
            for path in find_paths(graph, sources, targets, WIDE_LIMITS):
                assert path.nodes[0] in sources
                assert path.nodes[-1] in targets
                assert len(set(path.nodes)) == len(path.nodes)
                for interior in path.nodes[1:-1]:
                    assert interior in graph.kc_nodes


def kc_graph(names, calls, feeds, yields):
    """kc nodes `names`, CALL edges `calls`, one input feeding each of
    `feeds` and one output yielded by each of `yields`."""
    return DependencyGraph(
        kc_nodes={name: KnowledgeCodeNode(
            node_id=name, function_name=name, code=f"def {name}():\n    pass",
            knowledge=name, origin_entries=("e",),
        ) for name in names},
        io_nodes={"io:input:in": IoNode(node_id="io:input:in", label="in", kind=INPUT),
                  "io:output:out": IoNode(node_id="io:output:out", label="out", kind=OUTPUT)},
        edges={Edge(src, dst, CALL) for src, dst in calls}
        | {Edge("io:input:in", name, FEEDS) for name in feeds}
        | {Edge(name, "io:output:out", YIELDS) for name in yields},
    )


class TestAgainstRetiredSearch:
    """The deepening search against the retired breadth-first search it
    replaced: same paths, same edge orientation, same path-cap flag."""

    @pytest.mark.parametrize("max_depth, max_paths", [(16, 64), (4, 3), (2, 1), (16, 10**6)])
    def test_matches_retired_bfs(self, max_depth, max_paths):
        rng = random.Random(7100 + max_depth * 31 + max_paths % 97)
        limits = RetrievalLimits(max_depth=max_depth, max_paths=max_paths)
        for _ in range(1000):
            graph, sources, targets = random_io_graph(rng)
            stats = SearchStats()
            got = find_paths(graph, sources, targets, limits, stats)
            expected, truncated = oracle_bfs_paths(graph, sources, targets, max_depth, max_paths)
            assert got == expected
            assert stats.truncated_by_paths == truncated
            assert not stats.truncated_by_budget
            assert stats.paths_found == len(got)

    def test_unreachable_target_in_call_grid_expands_nothing(self):
        # A 10 x 3 grid of calls that the input reaches and the output
        # does not: the breadth-first search walked all its simple paths.
        cells = [f"g{row}_{col}" for row in range(10) for col in range(3)]
        calls = [(f"g{r}_{c}", f"g{r}_{c + 1}") for r in range(10) for c in range(2)]
        calls += [(f"g{r}_{c}", f"g{r + 1}_{c}") for r in range(9) for c in range(3)]
        graph = kc_graph(cells + ["island"], calls, feeds=["g0_0"], yields=["island"])
        stats = SearchStats()
        assert find_paths(graph, ["io:input:in"], ["io:output:out"], stats=stats) == []
        assert stats == SearchStats()

    def test_unreachable_target_with_deep_component_sets_no_flag(self):
        # The output's side is a chain longer than `max_depth`, so the
        # backward distance layers are not used up at the last level.
        chain = [f"c{i}" for i in range(8)]
        graph = kc_graph(chain + ["lone"], list(zip(chain, chain[1:])),
                         feeds=["lone"], yields=["c0"])
        stats = SearchStats()
        limits = RetrievalLimits(max_depth=3, max_paths=10)
        assert find_paths(graph, ["io:input:in"], ["io:output:out"], limits, stats) == []
        assert stats == SearchStats()

    def test_target_beyond_max_depth_sets_depth_flag(self):
        names = [f"c{i}" for i in range(6)]
        graph = kc_graph(names, list(zip(names, names[1:])), feeds=["c0"], yields=["c5"])
        stats = SearchStats()
        limits = RetrievalLimits(max_depth=6, max_paths=10)
        assert find_paths(graph, ["io:input:in"], ["io:output:out"], limits, stats) == []
        assert stats.truncated_by_depth
        assert not stats.truncated_by_paths and not stats.truncated_by_budget
        stats = SearchStats()
        limits = RetrievalLimits(max_depth=7, max_paths=10)
        assert len(find_paths(graph, ["io:input:in"], ["io:output:out"], limits, stats)) == 1
        assert not stats.truncated_by_depth

    def test_dense_knot_stops_at_work_budget(self, monkeypatch):
        names = [f"k{i:02d}" for i in range(16)]
        graph = kc_graph(names, list(itertools.permutations(names, 2)),
                         feeds=["k00"], yields=["k15"])
        monkeypatch.setattr(retriever, "_MAX_SCANS", 75_000)
        limits = RetrievalLimits(max_paths=10**6)
        stats = SearchStats()
        started = time.perf_counter()
        paths = find_paths(graph, ["io:input:in"], ["io:output:out"], limits, stats)
        assert time.perf_counter() - started < 1.0
        assert stats.truncated_by_budget
        # The next expansion, of at most 16 neighbours, would pass the budget.
        assert 75_000 - 16 < stats.edges_scanned <= 75_000
        assert paths and stats.paths_found == len(paths)
        # What was returned is the start of the full, unbudgeted answer.
        assert paths == find_paths(graph, ["io:input:in"], ["io:output:out"],
                                   RetrievalLimits(max_paths=len(paths)))

    def test_budget_spent_after_exact_cap_counts_as_path_cap(self, monkeypatch, filter_never):
        # The one path of three edges fills the cap after 32 scans, of the
        # input, k00 and k15; the probe for a longer walk then scans the
        # input and runs out of budget before k00's 15 neighbours.
        names = [f"k{i:02d}" for i in range(16)]
        graph = kc_graph(names, list(itertools.permutations(names, 2)),
                         feeds=["k00"], yields=["k15"])
        monkeypatch.setattr(retriever, "_MAX_SCANS", 40)
        stats = SearchStats()
        paths = find_paths(graph, ["io:input:in"], ["io:output:out"],
                           RetrievalLimits(max_paths=1), stats)
        expected, truncated = oracle_bfs_paths(graph, ["io:input:in"], ["io:output:out"], 16, 1)
        assert paths == expected
        assert [p.nodes for p in paths] == [("io:input:in", "k00", "k15", "io:output:out")]
        assert (stats.nodes_expanded, stats.edges_scanned) == (4, 33)
        assert stats.truncated_by_paths and truncated
        assert not stats.truncated_by_budget

    def test_edge_mutation_seen_by_next_retrieve(self):
        graph = chain_graph()
        tags = TagSet(inputs=frozenset({"start"}), outputs=frozenset({"end"}), fallback=False)
        one_path = [("io:input:start", "kc:e:f1", "kc:e:f2", "io:output:end")]
        assert [p.nodes for p in retrieve(graph, tags).paths] == one_path
        with pytest.raises(AttributeError):
            graph.edges.add(Edge("io:input:start", "kc:e:f2", FEEDS))
        widened = graph._replace(edges=graph.edges | {Edge("io:input:start", "kc:e:f2", FEEDS)})
        assert [p.nodes for p in retrieve(widened, tags).paths] == [
            ("io:input:start", "kc:e:f2", "io:output:end"),
        ] + one_path
        cut = widened._replace(edges=widened.edges - {Edge("kc:e:f2", "io:output:end", YIELDS)})
        assert retrieve(cut, tags).paths == ()
        assert [p.nodes for p in retrieve(graph, tags).paths] == one_path
        assert len(retrieve(widened, tags).paths) == 2


def hub_graph(entries):
    """Shaped like the benchmark's cli corpus: each entry has three steps
    that call one shared hub and a root that calls its steps; a topic
    input feeds and a topic output leaves every root, and the entry's own
    input feeds its first step while its own output leaves the second."""
    names = ["hub"] + [f"{kind}{i}" for i in range(entries) for kind in ("s", "t", "u", "r")]
    labels = [("topic", INPUT), ("topic", OUTPUT)] + [
        (f"{side}{i}", kind) for i in range(entries)
        for side, kind in (("in", INPUT), ("out", OUTPUT))]
    edges = set()
    for i in range(entries):
        for step in (f"s{i}", f"t{i}", f"u{i}"):
            edges |= {Edge(step, "hub", CALL), Edge(f"r{i}", step, CALL)}
        edges |= {Edge("io:input:topic", f"r{i}", FEEDS), Edge(f"r{i}", "io:output:topic", YIELDS),
                  Edge(f"io:input:in{i}", f"s{i}", FEEDS),
                  Edge(f"t{i}", f"io:output:out{i}", YIELDS)}
    return DependencyGraph(
        kc_nodes={name: KnowledgeCodeNode(
            node_id=name, function_name=name, code=f"def {name}():\n    pass",
            knowledge=name, origin_entries=("e",),
        ) for name in names},
        io_nodes={f"io:{kind}:{label}": IoNode(node_id=f"io:{kind}:{label}", label=label, kind=kind)
                  for label, kind in labels},
        edges=edges,
    )


def force_filter(monkeypatch, point):
    """Confine every search to the blocks between its ends from its first
    expansion when `point` is None; else confine none from the start, and
    switch the block filter on once `point` scans are passed."""
    monkeypatch.setattr(retriever, "_confined_at_once", lambda *args: point is None)
    if point is not None:
        monkeypatch.setattr(retriever, "_filter_point", lambda index: point)


@pytest.fixture()
def filter_from_start(monkeypatch):
    force_filter(monkeypatch, None)


# Scans after which the oracle tests switch the block filter on mid-walk:
# at the first expansion, or part-way through a level; and None, the
# search confined from the start.
SWITCH_POINTS = (0, 1, 5, 40)
FILTERS = (*SWITCH_POINTS, None)


@pytest.fixture()
def filter_never(monkeypatch):
    force_filter(monkeypatch, float("inf"))


@pytest.fixture()
def never_at_once(monkeypatch):
    """No search is confined from the start: a search confines itself only
    at the filter point."""
    monkeypatch.setattr(retriever, "_confined_at_once", lambda *args: False)


class TestBlockFilter:
    """The search confined to the biconnected blocks between its ends
    must give what the unconfined search gives."""

    @pytest.mark.parametrize("max_depth, max_paths", [(16, 64), (4, 3), (2, 1), (16, 10**6)])
    def test_matches_retired_bfs(self, monkeypatch, max_depth, max_paths):
        rng = random.Random(8200 + max_depth * 31 + max_paths % 97)
        limits = RetrievalLimits(max_depth=max_depth, max_paths=max_paths)
        for _ in range(1000):
            graph, sources, targets = random_io_graph(rng)
            expected, truncated = oracle_bfs_paths(graph, sources, targets, max_depth, max_paths)
            for point in FILTERS:
                force_filter(monkeypatch, point)
                stats = SearchStats()
                assert find_paths(graph, sources, targets, limits, stats) == expected
                assert stats.truncated_by_paths == truncated

    def test_matches_retired_bfs_with_malformed_edges(self, filter_from_start):
        rng = random.Random(8301)
        for case in range(1000):
            graph, sources, targets = random_io_graph(rng)
            graph = add_malformed_edges(rng, graph)
            max_depth, max_paths = [(16, 64), (4, 3), (2, 1), (16, 10**6)][case % 4]
            stats = SearchStats()
            got = find_paths(graph, sources, targets, RetrievalLimits(max_depth, max_paths), stats)
            expected, truncated = oracle_bfs_paths(graph, sources, targets, max_depth, max_paths)
            assert got == expected
            assert stats.truncated_by_paths == truncated

    def test_blocks_match_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(8402)
        for _ in range(300):
            graph, _, _ = random_io_graph(rng)
            graph = add_malformed_edges(rng, graph, count=rng.randint(0, 6))
            index = retriever.traversal_index(graph)
            interior = index.moves.keys() & index.preds.keys()
            undirected = nx.Graph()
            undirected.add_nodes_from(interior)
            undirected.add_edges_from(
                (node, nxt) for node in interior for nxt in index.moves[node]
                if nxt in interior and nxt != node)
            expected = {frozenset(block) for block in nx.biconnected_components(undirected)}
            assert {frozenset(block) for block in retriever.block_tree(graph).members} == expected

    def test_hub_and_spoke_completes_with_filter(self, monkeypatch):
        graph = hub_graph(30)
        ends = ["io:input:in7"], ["io:output:out7"]
        expected, _ = oracle_bfs_paths(graph, *ends, 16, 64)
        assert [len(path.nodes) for path in expected] == [5, 5, 7, 7]
        monkeypatch.setattr(retriever, "_MAX_SCANS", 5_000)
        with monkeypatch.context() as patch:
            force_filter(patch, float("inf"))
            stats = SearchStats()
            assert find_paths(graph, *ends, stats=stats) == expected
            assert stats.truncated_by_budget
        # Confined at the filter point, or, as the entry's blocks hold few of
        # the graph's nodes, from the start.
        with monkeypatch.context() as patch:
            patch.setattr(retriever, "_confined_at_once", lambda *args: False)
            stats = SearchStats()
            assert find_paths(graph, *ends, stats=stats) == expected
            assert stats == SearchStats(nodes_expanded=stats.nodes_expanded,
                                        edges_scanned=stats.edges_scanned, paths_found=4)
            assert 2 * len(graph.edges) <= stats.edges_scanned < 5_000
        stats = SearchStats()
        assert find_paths(graph, *ends, stats=stats) == expected
        assert stats == SearchStats(nodes_expanded=stats.nodes_expanded,
                                    edges_scanned=stats.edges_scanned, paths_found=4)
        assert stats.edges_scanned < len(graph.edges)

    def test_chain_hanging_off_the_anchor_is_not_a_depth_truncation(self, filter_never):
        # input -> a -> output, and a 20-node call chain hanging off `a`:
        # no longer path exists, but every level prunes a step into the
        # chain, whose distance to the output ignores simplicity.
        chain = ["a"] + [f"c{i:02d}" for i in range(20)]
        graph = kc_graph(chain, list(zip(chain, chain[1:])), feeds=["a"], yields=["a"])
        stats = SearchStats()
        assert len(find_paths(graph, ["io:input:in"], ["io:output:out"], stats=stats)) == 1
        assert stats.truncated_by_depth and stats.nodes_expanded == 79

    def test_chain_hanging_off_the_anchor_with_filter(self):
        # 22 edges: the search crosses the filter point at 44 scans, and the
        # chain is no block between the input's successor and the output's
        # predecessor.
        chain = ["a"] + [f"c{i:02d}" for i in range(20)]
        graph = kc_graph(chain, list(zip(chain, chain[1:])), feeds=["a"], yields=["a"])
        stats = SearchStats()
        paths = find_paths(graph, ["io:input:in"], ["io:output:out"], stats=stats)
        assert [p.nodes for p in paths] == [("io:input:in", "a", "io:output:out")]
        assert not stats.truncated_by_depth
        assert "blocks" in graph.cache

    @pytest.mark.parametrize("filter_point", [*FILTERS, "default"])
    def test_depth_flag_never_misses_a_longer_path(self, monkeypatch, filter_point):
        if filter_point != "default":
            force_filter(monkeypatch, filter_point)
        rng = random.Random(8503)
        for case in range(1500):
            graph, sources, targets = random_io_graph(rng)
            if case % 2:
                graph = add_malformed_edges(rng, graph)
            max_depth = 1 + case % 5
            stats = SearchStats()
            find_paths(graph, sources, targets, RetrievalLimits(max_depth, 10**6), stats)
            longest = max(map(len, oracle_simple_paths(graph, sources, targets, 32)), default=0)
            if longest - 1 > max_depth:
                assert stats.truncated_by_depth


class TestEndsThatOverlap:
    """Sources that are also targets, which `retrieve` never asks for: such
    a source starts no path, and a path from another source ends at it, as
    in the exhaustive enumeration. The retired breadth-first search expands
    such a source, so it is compared on disjoint ends only."""

    def test_source_that_is_a_target_starts_no_path(self):
        graph = kc_graph(["x", "a", "b", "y"], [("x", "a"), ("a", "b"), ("b", "y")], [], [])
        assert find_paths(graph, ["a"], ["a", "y"]) == []
        assert [path.nodes for path in find_paths(graph, ["x", "a"], ["a", "y"])] == [("x", "a")]

    @pytest.mark.parametrize("max_depth, max_paths", [(16, 64), (3, 4), (16, 10**6)])
    def test_matches_exhaustive_enumeration(self, monkeypatch, max_depth, max_paths):
        rng = random.Random(9100 + max_depth + max_paths % 97)
        limits = RetrievalLimits(max_depth, max_paths)
        for _ in range(300):
            graph, sources, targets = random_io_graph(rng)
            sources += rng.sample(sorted(graph.kc_nodes), rng.randint(0, 2))
            targets += rng.sample(sources, rng.randint(1, len(sources)))
            expected = sorted(oracle_simple_paths(graph, sources, targets, max_depth),
                              key=lambda nodes: (len(nodes), nodes))[:max_paths]
            for point in (float("inf"), *FILTERS):
                force_filter(monkeypatch, point)
                got = find_paths(graph, sources, targets, limits)
                assert [path.nodes for path in got] == expected


def knot_graph(width):
    """A call knot: `k0` ... `k9`, where each `k_i` calls every `k_j` with
    j > i and yields `width` outputs of its own, and `a`, which calls `k0`
    and is the only function between the input and the output."""
    knot = [f"k{i}" for i in range(10)]
    graph = kc_graph(knot + ["a"], list(itertools.combinations(knot, 2)) + [("a", "k0")],
                     feeds=["a"], yields=["a"])
    own = {f"io:output:{name}o{j}": name for name in knot for j in range(width)}
    return graph._replace(
        io_nodes={**graph.io_nodes, **{node_id: IoNode(node_id=node_id, label=node_id[10:],
                                                       kind=OUTPUT) for node_id in own}},
        edges=graph.edges | {Edge(name, node_id, YIELDS) for node_id, name in own.items()})


class TestSearchWork:
    """Search work is counted in neighbour scans: the block filter
    switches on at twice the edge count, and the budget bounds time."""

    def test_knot_finishes_within_a_few_scans_per_edge(self, monkeypatch):
        # The knot is one block and `a` another, and no block lies between
        # the ends, which are both `a`: the search is confined from the
        # start; without that, at the filter point.
        graph = knot_graph(3_000)
        assert len(graph.edges) == 30_048
        for at_once, bound in ((True, 1), (False, 3)):
            monkeypatch.setattr(retriever, "_confined_at_once", lambda *args: at_once)
            stats = SearchStats()
            paths = find_paths(graph, ["io:input:in"], ["io:output:out"], stats=stats)
            assert [p.nodes for p in paths] == [("io:input:in", "a", "io:output:out")]
            assert not (stats.truncated_by_budget or stats.truncated_by_depth)
            assert stats.edges_scanned <= bound * len(graph.edges)

    def test_single_block_component_is_never_confined(self, monkeypatch, perfbench_gen,
                                                      tmp_path):
        decisions = []
        decide = retriever._confined_at_once
        monkeypatch.setattr(retriever, "_confined_at_once", lambda *args: (
            decisions.append(decide(*args)), decisions[-1])[1])
        graph = chain_graph()
        stats = SearchStats()
        assert len(find_paths(graph, ["io:input:start"], ["io:output:end"], stats=stats)) == 1
        assert stats.edges_scanned < 2 * len(graph.edges)
        assert decisions == [False]
        # A call knot is one block, whichever of its nodes the ends touch.
        names = [f"k{i}" for i in range(6)]
        knot = kc_graph(names, list(itertools.combinations(names, 2)),
                        feeds=["k0", "k3"], yields=["k5"])
        assert len(retriever.block_tree(knot).members) == 1
        find_paths(knot, ["io:input:in"], ["io:output:out"])
        assert decisions == [False, False]
        # The `query` workload's components are one block each (seed 5, at
        # the benchmark's own size).
        data = perfbench_gen.query_workload(random.Random(5), tmp_path)
        graph = build_graph(load_corpus(data.manifest))
        vocab = build_vocabulary(graph, load_aliases(data.aliases) if data.aliases else None)
        tree = retriever.block_tree(graph)
        assert len(set(tree.roots)) == len(tree.roots)
        decisions.clear()
        for question in data.questions:
            retrieve(graph, extract_tags(question, vocab))
        assert decisions and not any(decisions)

    def test_component_of_several_blocks_is_confined(self):
        # A chain of calls x0 - x1 - ... - x9, each link its own block, is
        # confined from the start however far apart its ends are; a call
        # knot beside it, one block, is not, unless the ends reach the
        # chain too.
        names = [f"x{i}" for i in range(10)]
        knot = [f"k{i}" for i in range(4)]
        calls = list(zip(names, names[1:])) + list(itertools.combinations(knot, 2))
        for feeds, yields, confined in ((["x0"], ["x3"], True), (["x0"], ["x9"], True),
                                        (["k0"], ["k3"], False), (["k0", "x4"], ["k3"], True)):
            graph = kc_graph(names + knot, calls, feeds=feeds, yields=yields)
            assert len(retriever.block_tree(graph).members) == 10
            assert retriever._confined_at_once(graph, {*feeds, *yields}) is confined

    def test_filter_switches_on_before_a_budget_below_twice_the_edges(self, monkeypatch,
                                                                        never_at_once):
        graph = knot_graph(300)
        monkeypatch.setattr(retriever, "_MAX_SCANS", len(graph.edges))
        ends = ["io:input:in"], ["io:output:out"]
        with monkeypatch.context() as patch:
            patch.setattr(retriever, "_filter_point", lambda index: float("inf"))
            stats = SearchStats()
            find_paths(graph, *ends, stats=stats)
            assert stats.truncated_by_budget
        stats = SearchStats()
        paths = find_paths(graph, *ends, stats=stats)
        assert [p.nodes for p in paths] == [("io:input:in", "a", "io:output:out")]
        assert not stats.truncated_by_budget
        assert stats.edges_scanned <= len(graph.edges)
        assert "blocks" in graph.cache

    def test_scans_are_the_move_counts_of_the_expanded_nodes(self, filter_never):
        # The input feeds `a` and `b`; `a` yields the output, and so does
        # `c`, which `b` calls. Level 2 expands the input and `a`; level 3
        # walks again from the input, through `a` to a dead end at the
        # output, and through `b` and `c`.
        graph = kc_graph(["a", "b", "c"], [("b", "c")], feeds=["a", "b"], yields=["a", "c"])
        stats = SearchStats()
        paths = find_paths(graph, ["io:input:in"], ["io:output:out"], stats=stats)
        assert [p.nodes for p in paths] == [("io:input:in", "a", "io:output:out"),
                                            ("io:input:in", "b", "c", "io:output:out")]
        moves = retriever.traversal_index(graph).moves
        expanded = ["io:input:in", "a", "io:input:in", "a", "b", "c"]
        assert stats.nodes_expanded == len(expanded)
        assert stats.edges_scanned == sum(len(moves[node]) for node in expanded) == 9

    def test_budget_holds_across_the_switch(self, monkeypatch):
        # Small call knots, with the budget at most one expansion past the
        # filter point: the expansion that reaches the filter point may
        # pass the budget too, and then the search stops before it.
        rng = random.Random(8605)
        for case in range(3000):
            graph, sources, targets = random_io_graph(rng, max_kc=6, calls=0.6)
            point = rng.randint(1, 40)
            budget = point + rng.randint(0, 6)
            force_filter(monkeypatch, point)
            monkeypatch.setattr(retriever, "_MAX_SCANS", budget)
            max_depth, max_paths = [(16, 10**6), (4, 3), (16, 64)][case % 3]
            stats = SearchStats()
            got = find_paths(graph, sources, targets, RetrievalLimits(max_depth, max_paths), stats)
            assert stats.edges_scanned <= budget
            expected, _ = oracle_bfs_paths(graph, sources, targets, max_depth, max_paths)
            if stats.truncated_by_budget:
                assert got == expected[:len(got)]
            else:
                assert got == expected


def on_path_reference(graph, sources, targets):
    """The functions in the blocks between the sources' successors and
    the targets' predecessors."""
    index = retriever.traversal_index(graph)
    starts = {node for source in sources for node in index.moves.get(source, ())}
    ends = {node for target in targets for node in index.preds.get(target, ())}
    return retriever.block_tree(graph).between(starts, ends) & graph.kc_nodes.keys()


@st.composite
def io_graphs(draw):
    """(graph, sources, targets): up to 8 functions with random CALL
    edges, and one or two inputs and outputs anchored at 1-3 of them."""
    names = [f"f{i}" for i in range(draw(st.integers(2, 8)))]
    ids = [f"kc:e0:{name}" for name in names]
    calls = draw(st.sets(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=20))
    anchors = st.lists(st.sets(st.sampled_from(ids), min_size=1, max_size=3), min_size=1,
                       max_size=2)
    feeds, yields = draw(anchors), draw(anchors)
    sources = [f"io:{INPUT}:in{i}" for i in range(len(feeds))]
    targets = [f"io:{OUTPUT}:out{i}" for i in range(len(yields))]
    graph = DependencyGraph(
        kc_nodes={node_id: KnowledgeCodeNode(
            node_id=node_id, function_name=name, code=f"def {name}():\n    pass",
            knowledge=f"about {name}", origin_entries=("e0",)) for name, node_id in zip(names, ids)},
        io_nodes={node_id: IoNode(node_id=node_id, label=node_id.rsplit(":", 1)[1], kind=kind)
                  for kind, io_ids in ((INPUT, sources), (OUTPUT, targets)) for node_id in io_ids},
        edges={Edge(src, dst, CALL) for src, dst in calls if src != dst}
        | {Edge(source, anchor, FEEDS) for source, fed in zip(sources, feeds) for anchor in fed}
        | {Edge(anchor, target, YIELDS) for target, fed in zip(targets, yields) for anchor in fed},
    )
    return graph, sources, targets


class TestReferenceSets:
    """On a graph `validate_graph` accepts, a function lies on a simple
    source -> target path exactly when it is in the blocks between the
    sources' successors and the targets' predecessors. So the retrieved
    functions are that set when no limit cut the search short, and a
    subset of it when one did."""

    @staticmethod
    def check(graph, sources, targets, limits):
        assert not validate_graph(graph).violations
        stats = SearchStats()
        paths = find_paths(graph, sources, targets, limits, stats)
        retrieved = {node for path in paths for node in path.nodes} & graph.kc_nodes.keys()
        reference = on_path_reference(graph, sources, targets)
        if stats.truncated_by_paths or stats.truncated_by_depth or stats.truncated_by_budget:
            assert retrieved <= reference
        else:
            assert retrieved == reference

    @pytest.mark.parametrize("max_depth, max_paths", [(16, 64), (3, 4), (40, 10**7)])
    def test_random_io_graphs(self, max_depth, max_paths):
        rng = random.Random(8600 + max_depth)
        for _ in range(1000):
            self.check(*random_io_graph(rng), RetrievalLimits(max_depth, max_paths))

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(io_graphs(), st.sampled_from([(16, 64), (3, 4), (40, 10**7)]))
    def test_hypothesis_graphs(self, case, limits):
        self.check(*case, RetrievalLimits(*limits))

    def test_small_benchmark_workloads(self, small_workloads):
        for graph, vocab, questions, _ in small_workloads.values():
            for question in questions:
                tags = extract_tags(question, vocab)
                if not tags.fallback:
                    self.check(graph, [graph.io_node_id(label, INPUT) for label in tags.inputs],
                               [graph.io_node_id(label, OUTPUT) for label in tags.outputs],
                               RetrievalLimits())

    def test_networkx_simple_paths(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(8701)
        for _ in range(500):
            graph, sources, targets = random_io_graph(rng, max_kc=8)
            index = retriever.traversal_index(graph)
            walks = nx.DiGraph([(node, nxt) for node, moves in index.moves.items()
                                for nxt in moves])
            on_path = {node for source in sources for target in targets
                       if walks.has_node(source) and walks.has_node(target)
                       for path in nx.all_simple_paths(walks, source, target) for node in path}
            assert on_path & graph.kc_nodes.keys() == on_path_reference(graph, sources, targets)


class TestBetween:
    """`BlockTree.between` climbs the tree from the marked nodes only; its
    allowed set is that of the bottom-up rule, which walks every block.
    A search with those ends is confined from the start when a block that
    holds one of them lies in a component of more than one block."""

    @staticmethod
    def check(graph, starts, ends):
        tree = retriever.block_tree(graph)
        assert tree.between(starts, ends) == oracle_between(tree.members, tree.roots, starts, ends)
        # The decision: some block that holds a marked node lies in a
        # component of more than one block.
        marked = starts | ends
        split = {root for root in tree.roots if tree.roots.count(root) > 1}
        assert retriever._confined_at_once(graph, marked) == any(
            root in split for block, root in zip(tree.members, tree.roots)
            if not marked.isdisjoint(block))

    @pytest.mark.parametrize("max_kc, calls", [(8, 0.25), (30, 0.06), (30, 0.15)])
    def test_random_marks_on_random_graphs(self, max_kc, calls):
        rng = random.Random(8800 + max_kc + int(calls * 100))
        for case in range(400):
            graph, _, _ = random_io_graph(rng, max_kc=max_kc, calls=calls)
            if case % 2:
                graph = add_malformed_edges(rng, graph, count=rng.randint(1, 6))
            nodes = sorted([*graph.kc_nodes, *graph.io_nodes, "nowhere"])
            for _ in range(5):
                starts = set(rng.sample(nodes, rng.randint(0, min(6, len(nodes)))))
                ends = set(rng.sample(nodes, rng.randint(0, min(6, len(nodes)))))
                self.check(graph, starts, ends)

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(io_graphs(), st.data())
    def test_hypothesis_marks(self, case, data):
        graph = case[0]
        nodes = st.sets(st.sampled_from(sorted([*graph.kc_nodes, *graph.io_nodes])), max_size=6)
        self.check(graph, data.draw(nodes), data.draw(nodes))

    def test_hub_graph_marks(self):
        graph = hub_graph(40)
        rng = random.Random(8810)
        nodes = sorted(graph.kc_nodes)
        for _ in range(200):
            self.check(graph, set(rng.sample(nodes, rng.randint(1, 8))),
                       set(rng.sample(nodes, rng.randint(1, 8))))


def shared_output_knot(functions, outputs):
    """`functions` functions, each calling every later one, all yielding
    the same `outputs` outputs; one input feeds the first. Returns the
    graph, its input and its outputs."""
    knot = [f"k{i}" for i in range(functions)]
    graph = kc_graph(knot, list(itertools.combinations(knot, 2)), feeds=[knot[0]], yields=[])
    targets = [f"io:output:o{j}" for j in range(outputs)]
    return graph._replace(
        io_nodes={"io:input:in": graph.io_nodes["io:input:in"],
                  **{node_id: IoNode(node_id=node_id, label=node_id[10:], kind=OUTPUT)
                     for node_id in targets}},
        edges=graph.edges | {Edge(name, node_id, YIELDS) for name in knot for node_id in targets},
    ), ["io:input:in"], targets


class TestKeptPathBound:
    """The nodes of the kept paths count against `_MAX_SCANS` on their own:
    a path found at the last level costs no scan, so on a knot of shared
    outputs the paths outgrow the scans. The search stops, with
    `truncated_by_budget`, before the path that would pass the bound."""

    def test_search_stops_before_the_path_that_passes_the_bound(self, monkeypatch,
                                                                 filter_never):
        graph, sources, targets = shared_output_knot(5, 20)
        limits = RetrievalLimits(max_paths=10**8)
        full_stats = SearchStats()
        full = find_paths(graph, sources, targets, limits, full_stats)
        nodes = sum(len(path.nodes) for path in full)
        bound = nodes // 2
        assert full_stats.edges_scanned < bound and not full_stats.truncated_by_budget
        monkeypatch.setattr(retriever, "_MAX_SCANS", bound)
        stats = SearchStats()
        kept = find_paths(graph, sources, targets, limits, stats)
        kept_nodes = sum(len(path.nodes) for path in kept)
        assert stats.truncated_by_budget and stats.paths_found == len(kept)
        assert kept == full[:len(kept)]
        assert kept_nodes <= bound < kept_nodes + len(full[len(kept)].nodes)

    def test_search_at_the_bound_is_unchanged(self, monkeypatch, filter_never):
        graph, sources, targets = shared_output_knot(5, 20)
        limits = RetrievalLimits(max_paths=10**8)
        full_stats = SearchStats()
        full = find_paths(graph, sources, targets, limits, full_stats)
        monkeypatch.setattr(retriever, "_MAX_SCANS", sum(len(path.nodes) for path in full))
        stats = SearchStats()
        assert find_paths(graph, sources, targets, limits, stats) == full
        assert stats == full_stats

    def test_retrieve_reports_the_budget(self, monkeypatch):
        graph, _, _ = shared_output_knot(4, 30)
        monkeypatch.setattr(retriever, "_MAX_SCANS", 500)
        tags = TagSet(inputs=frozenset({"in"}),
                      outputs=frozenset(f"o{j}" for j in range(30)), fallback=False)
        result = retrieve(graph, tags, RetrievalLimits(max_paths=10**8))
        assert result.stats.truncated_by_budget
        assert 0 < sum(len(path.nodes) for path in result.paths) <= 500


class TestRetrieve:
    def test_fee_question_exact_subgraph(self, fee_graph, fee_vocab):
        tags = extract_tags(FEE_QUESTION, fee_vocab)
        result = retrieve(fee_graph, tags)
        assert set(retrieved_kc_names(result, fee_graph)) == FEE_NEEDED
        assert not set(retrieved_kc_names(result, fee_graph)) & FEE_UNNEEDED

    def test_fallback_tagset_gives_empty_result(self, fee_graph):
        tags = TagSet(inputs=frozenset(), outputs=frozenset(), fallback=True)
        result = retrieve(fee_graph, tags)
        assert result.fallback
        assert result.paths == ()
        assert result.subgraph_nodes == frozenset()

    def test_union_is_exactly_path_nodes(self, fee_graph, fee_vocab):
        tags = extract_tags(FEE_QUESTION, fee_vocab)
        result = retrieve(fee_graph, tags)
        expected = set()
        for path in result.paths:
            expected.update(path.nodes)
        assert result.subgraph_nodes == expected

    def test_two_inputs_sharing_one_output_union_counts_once(self):
        graph = chain_graph()
        graph = graph._replace(
            io_nodes={**graph.io_nodes,
                      "io:input:alt": IoNode(node_id="io:input:alt", label="alt", kind=INPUT)},
            edges=graph.edges | {Edge("io:input:alt", "kc:e:f2", FEEDS)},
        )
        tags = TagSet(inputs=frozenset({"start", "alt"}),
                      outputs=frozenset({"end"}), fallback=False)
        result = retrieve(graph, tags)
        assert len(result.paths) == 2
        assert result.subgraph_nodes == {
            "io:input:start", "io:input:alt", "kc:e:f1", "kc:e:f2", "io:output:end",
        }

    def test_read_only(self, fee_graph, fee_vocab):
        before = serialize(fee_graph)
        retrieve(fee_graph, extract_tags(FEE_QUESTION, fee_vocab))
        assert serialize(fee_graph) == before

    def test_kc_count_excludes_io_nodes(self, fee_graph, fee_vocab):
        tags = extract_tags(FEE_QUESTION, fee_vocab)
        result = retrieve(fee_graph, tags)
        io_in_subgraph = [n for n in result.subgraph_nodes if n in fee_graph.io_nodes]
        assert len(retrieved_kc_names(result, fee_graph)) == \
            len(result.subgraph_nodes) - len(io_in_subgraph)
        assert len(retrieved_kc_names(result, fee_graph)) == 5

    def test_stats_populated(self, fee_graph, fee_vocab):
        result = retrieve(fee_graph, extract_tags(FEE_QUESTION, fee_vocab))
        assert result.stats.paths_found == len(result.paths) == 3
        assert result.stats.nodes_expanded > 0
        assert not result.stats.truncated_by_paths

    def test_index_is_freed_with_its_graph(self, fee_corpus, fee_vocab):
        # The index's memos hold its edges and moves, not the index, so
        # dropping the graph frees the index without the collector.
        enabled = gc.isenabled()
        gc.disable()
        try:
            graph = build_graph(fee_corpus)
            result = retrieve(graph, extract_tags(FEE_QUESTION, fee_vocab))
            assert assemble_context(result, graph).knowledge_texts
            index = retriever.traversal_index(graph)
            assert retriever.block_tree(graph).members
            assert index.steps and index.callees
            freed = weakref.ref(index)
            del graph, result, index
            assert freed() is None
        finally:
            if enabled:
                gc.enable()
