# Online retrieval walkthrough: extract I/O tags from a question, find
# dependency paths between the matched input and output nodes, and turn
# the retrieved subgraph into a prompt-ready context block.

from pathlib import Path

from sgkr import (
    assemble_context,
    build_graph,
    build_vocabulary,
    extract_tags,
    load_aliases,
    load_corpus,
    render_prompt_block,
    retrieve,
    retrieved_kc_names,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "fee_corpus"

graph = build_graph(load_corpus(FIXTURES / "manifest.json"))
vocab = build_vocabulary(graph, load_aliases(FIXTURES / "aliases.json"))
print("input labels: ", sorted(vocab.inputs))
print("output labels:", sorted(vocab.outputs))

# ---- 1. Tag extraction ------------------------------------------------------
# Labels (and their aliases) match as contiguous token runs of the
# normalized question; "transaction" is an alias for "transaction amount".
question = "What is the most expensive MCC for a transaction of 5 euros, in general?"
tags = extract_tags(question, vocab)
print(f"\nquestion: {question}")
print(f"  matched inputs:  {sorted(tags.inputs)}")
print(f"  matched outputs: {sorted(tags.outputs)}")

# ---- 2. Path discovery ------------------------------------------------------
# Iterative deepening walks CALL edges in both directions (data flows
# callee -> caller) and I/O attachment edges forwards only; paths come out
# shortest first. A step that cannot reach an output within the current
# length is pruned, so the expansion count is the nodes whose neighbours
# the search actually scanned, summed over the deepening levels, and the
# scan count those neighbours. Once a search has scanned twice as many
# neighbours as the graph has edges (2 x 17 here), it confines itself to
# the biconnected blocks between its input and output and walks the level
# in progress again; the counts include that second walk.
result = retrieve(graph, tags)
print(f"\n{len(result.paths)} dependency paths ({result.stats.nodes_expanded} expansions, "
      f"{result.stats.edges_scanned} neighbour scans):")
for path in result.paths:
    print("  " + " -> ".join(path.nodes))
print("retrieved functions:", retrieved_kc_names(result, graph))

# ---- 3. Context construction -------------------------------------------------
# The union of path nodes, minus the I/O nodes, becomes the context:
# knowledge texts plus code examples, callees listed before callers.
bundle = assemble_context(result, graph)
print("\n" + "=" * 72)
print(render_prompt_block(bundle))

# ---- 4. Fallback behavior ------------------------------------------------------
# A question that matches no input or no output tag retrieves nothing.
vague = extract_tags("What should I have for lunch?", vocab)
empty = retrieve(graph, vague)
print("=" * 72)
print(f"vague question -> fallback={empty.fallback}, paths={len(empty.paths)}")
