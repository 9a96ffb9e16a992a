"""The benchmark's seeded generators, run at a small size: the search work
each workload's questions cost must not move unnoticed. Only work
counters are asserted, never a time."""

from __future__ import annotations

import pytest

from sgkr import extract_tags, retrieve

# (nodes_expanded, edges_scanned, paths_found, subgraph_kc) summed over
# every question. A change to the tagger, the path search or the generators
# that moves one of them shows here; update them only with a change that
# means to move them.
RECORDED = {
    "query": (2814, 7306, 273, 504),
    "cli": (6045, 50723, 648, 155),
}


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_work_counters_unchanged(small_workloads, name):
    graph, vocab, questions, _ = small_workloads[name]
    expanded = scanned = paths = kc = 0
    for question in questions:
        result = retrieve(graph, extract_tags(question, vocab))
        expanded += result.stats.nodes_expanded
        scanned += result.stats.edges_scanned
        paths += result.stats.paths_found
        kc += sum(1 for node in result.subgraph_nodes if node in graph.kc_nodes)
    assert (expanded, scanned, paths, kc) == RECORDED[name]
