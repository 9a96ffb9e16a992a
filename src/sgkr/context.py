"""Assembly of retrieved subgraphs into prompt-ready context bundles.

A bundle pairs every retrieved function with its knowledge text, ordered
so that callees precede their callers (reading the code bottom-up), and
renders into the two fixed prompt sections a downstream model consumes.

The order is Kahn's algorithm over the CALL edges inside the subgraph,
with a heap keyed (function name, node id): of the nodes whose callees
are all placed, the smallest comes next. When none is ready (a recursive
knot, or a function that calls itself) the smallest remaining node comes
next, its callees placed or not. The edges are read from the subgraph
nodes' neighbours in the graph's memoized traversal index, so the order
costs time in the subgraph and its neighbourhood, not in the graph's
edges.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graph import CALL, DependencyGraph
from .retriever import DependencyPath, RetrievalResult, traversal_index

KNOWLEDGE_HEADER = "Following domain knowledge and context should be helpful:"
FUNCTIONS_HEADER = "Here are some example functions that you may refer to:"


@dataclass(frozen=True)
class ContextBundle:
    """Knowledge texts and code examples for one retrieval, plus the
    dependency paths that produced them. Both lists share the same
    function-name order."""

    knowledge_texts: tuple[tuple[str, str], ...]
    code_examples: tuple[tuple[str, str], ...]
    source_paths: tuple[DependencyPath, ...]


def _topological_order(result: RetrievalResult, graph: DependencyGraph) -> list[str]:
    """Subgraph knowledge-code node ids with callees before callers, ties
    and any recursive knots broken by (function name, node id)."""
    kc_nodes = graph.kc_nodes
    keys = {nid: (kc_nodes[nid].function_name, nid)
            for nid in result.subgraph_nodes if nid in kc_nodes}
    index = traversal_index(graph)

    # Pending callee count per node, over CALL edges inside the subgraph.
    pending = dict.fromkeys(keys, 0)
    callers: dict[str, list[str]] = {nid: [] for nid in keys}
    for nid in keys:
        for neighbor in index.moves.get(nid, ()):
            if neighbor in keys and (nid, neighbor, CALL) in index.edges:
                pending[nid] += 1
                callers[neighbor].append(nid)

    ready = [keys[nid] for nid, count in pending.items() if count == 0]
    heapq.heapify(ready)
    ordered: list[str] = []
    while keys:
        # A knot: nothing is ready, so the smallest remaining node goes next.
        _, chosen = heapq.heappop(ready) if ready else min(keys.values())
        ordered.append(chosen)
        del keys[chosen]
        for caller in callers[chosen]:
            if caller in keys:
                pending[caller] -= 1
                if pending[caller] == 0:
                    heapq.heappush(ready, keys[caller])
    return ordered


def assemble_context(result: RetrievalResult, graph: DependencyGraph) -> ContextBundle:
    """One (knowledge, code) entry per retrieved knowledge-code node, each
    from that node itself; I/O nodes are ignored. A fallback result gives
    an empty bundle."""
    if result.fallback:
        return ContextBundle(knowledge_texts=(), code_examples=(), source_paths=())

    nodes = [graph.kc_nodes[nid] for nid in _topological_order(result, graph)]
    return ContextBundle(
        knowledge_texts=tuple((node.function_name, node.knowledge) for node in nodes),
        code_examples=tuple((node.function_name, node.code) for node in nodes),
        source_paths=result.paths,
    )


def render_prompt_block(bundle: ContextBundle) -> str:
    """Plain-text rendering: the knowledge section then the function
    section, each under its fixed header. Deterministic byte-for-byte."""
    parts = [KNOWLEDGE_HEADER, ""]
    for name, knowledge in bundle.knowledge_texts:
        parts.append(f"{name}: {knowledge}")
        parts.append("")
    parts.append(FUNCTIONS_HEADER)
    parts.append("")
    for _, code in bundle.code_examples:
        parts.append(code)
        parts.append("")
    while parts and parts[-1] == "":
        parts.pop()
    return "\n".join(parts) + "\n"


def bundle_to_dict(bundle: ContextBundle) -> dict:
    """Structured export mirroring the bundle fields, for programmatic
    consumers."""
    return {
        "knowledge": [
            {"function_name": name, "knowledge": text}
            for name, text in bundle.knowledge_texts
        ],
        "functions": [
            {"function_name": name, "code": code}
            for name, code in bundle.code_examples
        ],
        "paths": [list(path.nodes) for path in bundle.source_paths],
    }
