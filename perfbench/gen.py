"""Seeded corpus generators for the benchmark workloads.

Every generator takes a `random.Random` built from the workload seed and
writes only ordinary sgkr inputs to disk: a manifest with its source
files, and where the workload needs them an alias file, a gold file, a
vector file and a question list. The program under test sees nothing
else. Sources use the restricted grammar for real: comments, string
literals holding parentheses and `#`, dotted calls, library calls,
nested definitions and self-recursion.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Words for identifiers and labels. None of them is a tagger stop word
# used by the question templates below, so labels only match where they
# are meant to.
VERBS = (
    "load", "parse", "clean", "merge", "split", "score", "rank", "group",
    "filter", "count", "scale", "weigh", "match", "price", "bucket", "join",
    "index", "sample", "reduce", "expand", "align", "clip", "blend", "trace",
)
NOUNS = (
    "fee", "rule", "card", "scheme", "merchant", "rate", "amount", "batch",
    "ledger", "refund", "payout", "invoice", "region", "account", "tier",
    "volume", "channel", "device", "partner", "quota", "limit", "window",
    "bonus", "margin", "budget", "claim", "policy", "order", "basket", "coupon",
)
LABEL_WORDS = (
    "acquirer", "issuer", "terminal", "chargeback", "settlement", "currency",
    "country", "category", "capture", "delay", "fraud", "dispute", "monthly",
    "daily", "weekly", "gross", "net", "fixed", "variable", "domestic",
    "foreign", "premium", "basic", "credit", "debit", "cash", "online",
    "retail", "wholesale", "hotel", "airline", "fuel", "grocery", "pharmacy",
    "transit", "parking", "tuition", "utility", "insurance", "subscription",
    "intake", "outflow", "reserve", "threshold", "spread", "yield", "ratio",
    "median", "peak", "floor", "ceiling", "drift", "surge",
)
ISLAND_LABEL = "orphan relic"  # words outside LABEL_WORDS
QUESTION_TEMPLATES = (
    "What is the {out} given the {inp}?",
    "Compute the {out} for a {inp} of 120 units.",
    "How does the {inp} change the {out} in general?",
    "Report the {out} using the {inp}, please.",
)
FALLBACK_TEMPLATES = (
    "What is the {out} overall?",
    "Summarise the {inp} for last year.",
    "Which quarter had the longest queue?",
)


@dataclass
class Entry:
    """One generated solution: ordered function specs plus annotations."""

    entry_id: str
    functions: list[dict] = field(default_factory=list)  # name, calls, nested, recursive
    inputs: list[tuple[str, str]] = field(default_factory=list)  # (label, anchor)
    outputs: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class Workload:
    """What a generator wrote, plus the shape it reports."""

    manifest: Path
    questions: list[str] = field(default_factory=list)
    aliases: Path | None = None
    gold: Path | None = None
    vectors: Path | None = None
    shape: dict = field(default_factory=dict)


def _identifiers(rng: random.Random, count: int) -> list[str]:
    """`count` distinct verb_noun[_noun] names in seeded order."""
    names: list[str] = []
    seen: set[str] = set()
    while len(names) < count:
        parts = [rng.choice(VERBS), rng.choice(NOUNS)]
        if len(seen) > len(VERBS) * len(NOUNS) // 2:
            parts.append(rng.choice(NOUNS))
        name = "_".join(parts)
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


def _labels(rng: random.Random, count: int, kind: str, words: int = 2) -> list[str]:
    """`count` distinct multi-word labels. Input and output labels draw on
    disjoint halves of the word list, so a question's input label never
    matches as an output or the other way round."""
    half = len(LABEL_WORDS) // 2
    vocabulary = LABEL_WORDS[:half] if kind == "input" else LABEL_WORDS[half:]
    labels: list[str] = []
    seen: set[str] = set()
    while len(labels) < count:
        label = " ".join(rng.sample(vocabulary, words))
        if label not in seen:
            seen.add(label)
            labels.append(label)
    return labels


def _function_source(rng: random.Random, spec: dict) -> str:
    """Restricted-grammar source of one function. Only the names in
    spec["calls"] appear as calls of defined functions; everything else
    is a library call, a dotted call, a comment or a string."""
    name = spec["name"]
    lines = [f"def {name}(rows, cfg):  # entry step"]
    if spec.get("nested"):
        inner = spec["nested"]
        lines += [
            f"    def {inner}(row):",
            "        # nested key: returns the sort field",
            "        return row.get('key', 0)",
            f"    keyed = [{inner}(row) for row in rows]",
        ]
    else:
        lines.append("    keyed = list(rows)")
    lines.append(f'    note = "{rng.choice(NOUNS)} (bps) # not a comment, not_a_call()"')
    lines.append(f"    # {rng.choice(VERBS)}_{rng.choice(NOUNS)}(rows) stays a comment")
    for callee in spec["calls"]:
        lines.append(f"    keyed = {callee}(keyed, cfg)")
    if spec.get("recursive"):
        lines += [
            "    if cfg.get('depth', 0) > 0:",
            f"        keyed = {name}(keyed, dict(cfg, depth=cfg['depth'] - 1))",
        ]
    lines += [
        "    total = math.fsum(len(str(row)) for row in keyed)",
        "    cfg.logger.debug(note)",
        "    return sorted(keyed, key=str)[:max(1, int(total) % 7 + 1)]",
    ]
    return "\n".join(lines)


def _write_corpus(directory: Path, name: str, entries: list[Entry], rng: random.Random) -> Path:
    """Write one source file per entry and the manifest that lists them.
    About half of the functions carry knowledge text; the rest get the
    library's generated one-line description."""
    directory.mkdir(parents=True, exist_ok=True)
    manifest_entries = []
    for entry in entries:
        sources = [_function_source(rng, spec) for spec in entry.functions]
        source = "\n\n\n".join(sources) + "\n"
        (directory / f"{entry.entry_id}.py").write_text(source, encoding="utf-8")
        knowledge = {
            spec["name"]: f"{spec['name'].replace('_', ' ')} applies the "
                          f"{rng.choice(LABEL_WORDS)} {rng.choice(NOUNS)} convention."
            for spec in entry.functions if rng.random() < 0.5
        }
        manifest_entries.append({
            "id": entry.entry_id,
            "source": f"{entry.entry_id}.py",
            "inputs": [{"label": lbl, "anchor": anc} for lbl, anc in entry.inputs],
            "outputs": [{"label": lbl, "anchor": anc} for lbl, anc in entry.outputs],
            "knowledge": knowledge,
        })
    manifest = directory / "manifest.json"
    document = {"corpus_name": name, "version": "1", "entries": manifest_entries}
    manifest.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return manifest


def _balanced(rng: random.Random, items: list, count: int) -> list:
    """`count` picks from `items`, each item used equally often (within
    one), in seeded order. Balanced picks keep the merged graph's degree
    profile the same from seed to seed; only the wiring changes."""
    picks = []
    while len(picks) < count:
        batch = list(items)
        rng.shuffle(batch)
        picks.extend(batch)
    picks = picks[:count]
    rng.shuffle(picks)
    return picks


def _chain_entries(
    rng: random.Random,
    n_entries: int,
    pools: list[list[str]],
    in_labels: list[str],
    out_labels: list[str],
    id_prefix: str,
) -> list[Entry]:
    """DAG-shaped pipelines: one function per level, each calling the next
    level and, in three entries of ten, also the level after. Level names
    come from shared pools, so they merge across entries; calls only go
    to deeper levels, so merging alone keeps the call graph acyclic. The
    input feeds the deepest function (or, in one entry of three, the one
    above it) and the output leaves the top one, several hops away. One
    entry in twenty makes its deepest function self-recursive; one in ten
    nests the same small key helper in every one of its functions."""
    depth = len(pools)
    columns = [_balanced(rng, pool, n_entries) for pool in pools]
    ins, outs = _balanced(rng, in_labels, n_entries), _balanced(rng, out_labels, n_entries)
    skips = _balanced(rng, [True] * 3 + [False] * 7, n_entries * depth)
    entries = []
    for index in range(n_entries):
        entry = Entry(entry_id=f"{id_prefix}{index:05d}")
        chain = [column[index] for column in columns]
        specs = []
        for level in reversed(range(depth)):
            calls = [chain[level + 1]] if level + 1 < depth else []
            if level + 2 < depth and skips[index * depth + level]:
                calls.append(chain[level + 2])
            specs.append({
                "name": chain[level],
                "calls": calls,
                "recursive": level == depth - 1 and index % 20 == 0,
                "nested": f"key_{NOUNS[index % len(NOUNS)]}" if index % 10 == 5 else None,
            })
        entry.functions = specs
        entry.inputs = [(ins[index], chain[depth - 1 - (index % 3 == 2)])]
        entry.outputs = [(outs[index], chain[0])]
        entries.append(entry)
    return entries


def _question(rng: random.Random, inputs: list[str], outputs: list[str]) -> str:
    template = rng.choice(QUESTION_TEMPLATES)
    return template.format(inp=" and the ".join(inputs), out=" and the ".join(outputs))


def _island_entries(rng: random.Random, rows: int, width: int, label: str,
                    id_prefix: str) -> list[Entry]:
    """A `rows` x `width` grid of calls (down each column, across each row)
    that only merging joins up: entry i defines rows i and i + 1. Its input
    label feeds one corner and its output label leaves the opposite one;
    nothing else connects to it, so a search from the input enumerates
    every simple path in the grid and stops at the depth limit. The grid is the same for every seed, so
    that search costs the same too."""
    verb = rng.choice(VERBS)
    name = [[f"island_{verb}_{i:02d}_{j}" for j in range(width)] for i in range(rows)]
    entries = []
    for i in range(rows - 1):
        entry = Entry(entry_id=f"{id_prefix}{i:03d}")
        last = i == rows - 2
        for r in (i, i + 1):
            for j in range(width):
                calls = [name[r + 1][j]] if r == i else []
                if j + 1 < width and (r == i or last):
                    calls.append(name[r][j + 1])
                entry.functions.append({"name": name[r][j], "calls": calls})
        entry.inputs = [(label, name[0][0])]
        entry.outputs = [(f"{label} summary", name[rows - 1][width - 1])]
        entries.append(entry)
    return entries


def query_workload(rng: random.Random, directory: Path, n_entries: int = 150,
                   pool: int = 50, depth: int = 4, n_questions: int = 160,
                   n_labels: int = 12) -> Workload:
    """The hot read path: one graph of a few hundred merged functions and
    a seeded question mix. Shares: 75 % connected (a fifth of them with a
    second label), 15 % fallback (a side with no label), 10 %
    disconnected (an input that only reaches an isolated grid)."""
    names = _identifiers(rng, pool * depth)
    pools = [names[i * pool:(i + 1) * pool] for i in range(depth)]
    in_labels = _labels(rng, n_labels, "input")
    out_labels = _labels(rng, n_labels, "output", words=3)
    entries = _chain_entries(rng, n_entries, pools, in_labels, out_labels, "q")
    entries += _island_entries(rng, 10, 3, ISLAND_LABEL, "z")
    manifest = _write_corpus(directory, "bench-query", entries, rng)

    main = entries[:n_entries]
    used_in = sorted({lbl for e in main for lbl, _ in e.inputs})
    used_out = sorted({lbl for e in main for lbl, _ in e.outputs})
    n_fallback, n_disconnected = round(0.15 * n_questions), round(0.10 * n_questions)
    n_connected = n_questions - n_fallback - n_disconnected
    n_multi = round(0.2 * n_connected)
    kinds = (["multi_label"] * n_multi + ["connected"] * (n_connected - n_multi)
             + ["fallback"] * n_fallback + ["disconnected"] * n_disconnected)
    rng.shuffle(kinds)
    asked = iter(_balanced(rng, main, n_connected))
    questions = []
    for kind in kinds:
        if kind in ("connected", "multi_label"):
            entry = next(asked)
            inputs, outputs = [entry.inputs[0][0]], [entry.outputs[0][0]]
            if kind == "multi_label":
                side, labels = (inputs, used_in) if len(questions) % 2 else (outputs, used_out)
                side.append(rng.choice([lbl for lbl in labels if lbl not in side]))
            questions.append(_question(rng, inputs, outputs))
        elif kind == "fallback":
            template = rng.choice(FALLBACK_TEMPLATES)
            questions.append(template.format(inp=rng.choice(used_in), out=rng.choice(used_out)))
        else:
            questions.append(_question(rng, [ISLAND_LABEL], [rng.choice(used_out)]))
    qfile = directory / "questions.json"
    qfile.write_text(json.dumps(questions, indent=1) + "\n", encoding="utf-8")
    shares = {kind: round(kinds.count(kind) / n_questions, 3) for kind in sorted(set(kinds))}
    return Workload(manifest=manifest, questions=questions,
                    shape={"entries": len(entries), "questions": n_questions, "mix": shares})


def cli_workload(rng: random.Random, directory: Path, n_entries: int = 1000,
                 n_topics: int = 12, n_questions: int = 12, n_gold: int = 3,
                 dimension: int = 16) -> Workload:
    """The cold path: a wide, shallow corpus in which every entry's steps
    call one shared hub helper. It gives a graph document of several MB,
    a vocabulary of one specific input and output label per entry plus
    aliases, a gold set and a vector file. Each entry also carries the
    input and output label of its topic, anchored at its top function,
    and questions ask for a topic: every topic has more than `max_paths`
    two-hop paths, so the search stops before it reaches the hub."""
    hub = "normalize_rows"
    specific_in = _labels(rng, n_entries, "input", words=3)
    specific_out = _labels(rng, n_entries, "output", words=3)
    topic_in = _labels(rng, n_topics, "input", words=2)
    topic_out = _labels(rng, n_topics, "output", words=2)
    topics = _balanced(rng, list(range(n_topics)), n_entries)
    entries = []
    for index in range(n_entries):
        entry = Entry(entry_id=f"c{index:05d}")
        steps = [f"{verb}_{rng.choice(NOUNS)}_{index:05d}" for verb in rng.sample(VERBS, 3)]
        root = f"solve_c{index:05d}"
        entry.functions = [{"name": hub, "calls": [], "recursive": index == 0}]
        entry.functions += [{"name": step, "calls": [hub]} for step in steps]
        entry.functions.append({"name": root, "calls": steps,
                                "nested": f"key_rank_{index:05d}" if index % 10 == 5 else None})
        topic = topics[index]
        entry.inputs = [(topic_in[topic], root), (specific_in[index], steps[index % 3])]
        entry.outputs = [(topic_out[topic], root), (specific_out[index], steps[(index + 1) % 3])]
        entries.append(entry)
    manifest = _write_corpus(directory, "bench-cli", entries, rng)

    alias_targets = rng.sample(specific_in, n_entries // 4) + topic_in[: n_topics // 2]
    aliases = {f"{label} variant": {"label": label, "kind": "input"} for label in alias_targets}
    alias_file = directory / "aliases.json"
    alias_file.write_text(json.dumps(aliases, indent=1) + "\n", encoding="utf-8")

    questions = []
    for topic in rng.sample(range(n_topics), n_questions - 1):
        label = topic_in[topic]
        if f"{label} variant" in aliases:
            label += " variant"
        questions.append(_question(rng, [label], [topic_out[topic]]))
    questions.append(FALLBACK_TEMPLATES[0].format(out=topic_out[0]))
    (directory / "questions.json").write_text(json.dumps(questions, indent=1) + "\n",
                                              encoding="utf-8")

    all_names = [hub] + [name for e in entries for spec in e.functions[1:]
                         for name in (spec["name"], spec.get("nested")) if name]
    gold = []
    for entry in rng.sample(entries, n_gold):
        needed = sorted({spec["name"] for spec in entry.functions})
        unneeded = sorted(set(rng.sample(all_names, 8)) - set(needed))
        question = _question(rng, [entry.inputs[1][0]], [entry.outputs[1][0]])
        gold.append({"question": question, "needed": needed, "unneeded": unneeded})
    gold_file = directory / "gold.json"
    gold_file.write_text(json.dumps(gold, indent=1) + "\n", encoding="utf-8")

    lines = [str(dimension)]
    for name in all_names + [record["question"] for record in gold]:
        values = " ".join(f"{rng.uniform(-1, 1):.4f}" for _ in range(dimension))
        lines.append(f"{name}\t{values}")
    vector_file = directory / "vectors.txt"
    vector_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Workload(manifest=manifest, questions=questions,
                    aliases=alias_file, gold=gold_file, vectors=vector_file,
                    shape={"entries": n_entries, "questions": n_questions, "gold": n_gold,
                           "aliases": len(aliases),
                           "mix": {"connected": round((n_questions - 1) / n_questions, 3),
                                   "fallback": round(1 / n_questions, 3)}})
