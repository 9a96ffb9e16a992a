#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark for sgkr.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload {query,cli} --seed N --seconds S --trace {0,1}

The workload's inputs are generated from the seed into .perfbench_work/,
sgkr is imported from src/ and its CLI started as `python -m sgkr` with
src/ on PYTHONPATH. One client runs a closed loop for S seconds. Every
output is checked. Human-readable lines come first; the last line is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See perfbench/README.md for what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_REPS = 8  # half before the timed loop, half after it
SUBPROCESS_TIMEOUT_S = 120
CLI_EVERY = 10  # query workload: one cold `sgkr query` after this many in-process questions
EVAL_EVERY = 12  # cli workload: one `sgkr eval` before this many cold queries
# End-to-end medians are reported at the machine speed at which one pass of
# `_calibration_loop` takes CALIBRATION_MS; see `Bench.speed_factor`.
CALIBRATION_MS = 2.5

LAYER_TIMES = (
    "corpus.load", "parser.fragment", "graph.assemble", "graph.merge", "graph.insert_io",
    "graph.validate", "graph.serialize", "graph.deserialize", "tagger.vocab",
)
COUNTER_UNITS = {
    "parser.functions": "count", "parser.call_edges": "count", "graph.merged_away": "count",
    "graph.document_bytes": "bytes", "graph.cycles": "count", "tagger.fallback_share": "share",
    "retriever.nodes_expanded": "count", "retriever.paths_found": "count",
    "retriever.paths_per_expansion": "ratio", "retriever.truncated_paths_share": "share",
    "retriever.truncated_depth_share": "share", "retriever.subgraph_kc": "count",
    "context.rendered_bytes": "bytes",
}
LAYERS = ("corpus", "parser", "graph", "tagger", "retriever", "context", "baselines", "cli",
          "request")


def _fatal(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _git_rev() -> str:
    """The checked-out commit, read from .git without running git (the
    benchmark reads nothing outside its checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _calibration_loop() -> None:
    """Fixed pure-Python work of the kinds sgkr does: dict, tuple and
    string operations and a sort."""
    table: dict[int, tuple[int, ...]] = {}
    keys = []
    for i in range(6000):
        key = (i * 7919) % 997
        table[key] = table.get(key, ()) + (i,)
        if i % 50 == 0:
            keys.append(f"{key}x")
    sorted(keys)
    tuple(table.items())


class Bench:
    """State of one run: the tracer, operation counts, timings and the
    numbers the report prints."""

    def __init__(self, args: argparse.Namespace, work: Path):
        from tracing import Tracer

        self.args = args
        self.work = work
        self.tracer = Tracer(False)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Timed samples, in wall time.
        self.op_ms: list[float] = []
        self.cli_ms: list[float] = []
        self.setup_s: list[float] = []
        self.calibration_ms: list[float] = []
        self.counters: dict[str, float] = {}
        self.notes: dict[str, object] = {}
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + pythonpath if pythonpath else ""))

    def check(self, what: str, problems: list[str]) -> None:
        """Count one operation; it fails when it reported problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {problem}" for problem in problems[:3])

    def calibrate(self) -> None:
        """Time one pass of the calibration loop, after an untimed pass
        that warms the caches the previous operation may have left cold."""
        _calibration_loop()
        started = time.perf_counter()
        _calibration_loop()
        self.calibration_ms.append((time.perf_counter() - started) * 1e3)

    def speed_factor(self) -> float:
        """CALIBRATION_MS over the median of the run's calibration passes.
        The machine's speed drifts between runs minutes apart by far more
        than it does within one run; multiplying a run's medians by this
        one factor cancels most of that, while a change to sgkr moves them
        as it moves wall time."""
        return CALIBRATION_MS / statistics.median(self.calibration_ms)

    def attempt(self, samples: list[float], what: str, op, *args) -> None:
        """Run one operation, after one calibration pass, and append its
        milliseconds to `samples`. An exception from the program under
        test counts as a failed operation, and the run goes on."""
        self.calibrate()
        try:
            ms = op(*args)
        except Exception as exc:
            self.check(what, [f"{type(exc).__name__}: {exc}"])
            return
        samples.append(ms)

    def timed_setups(self, workload, count: int) -> None:
        """Run the workload's set-up `count` times, each after a
        calibration pass, appending seconds."""
        for _ in range(count):
            self.calibrate()
            started = time.perf_counter()
            workload.setup()
            self.setup_s.append(time.perf_counter() - started)

    def python(self, argv: list[str]) -> tuple[float, int, str, str]:
        """Run a fresh interpreter with src/ on its path; wall ms, exit
        code, stdout, stderr. The child is killed and reaped on timeout."""
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        return (time.perf_counter() - started) * 1e3, proc.returncode, proc.stdout, proc.stderr

    def warm_up(self) -> None:
        """One interpreter start that imports the CLI, so later cold starts
        find compiled bytecode and warm file caches."""
        _, code, _, err = self.python(["-c", "import sgkr.cli"])
        if code != 0:
            raise RuntimeError(f"cannot import sgkr.cli in a subprocess: {err.strip()}")

    def deadline_loop(self, seconds: float):
        """Yield operation indices until `seconds` have passed (at least one)."""
        end = time.perf_counter() + seconds
        index = 0
        while index == 0 or time.perf_counter() < end:
            yield index
            index += 1


# ---------------------------------------------------------------- query

class QueryWorkload:
    """The hot read path: seeded questions against one graph that is
    built and loaded during set-up; every `CLI_EVERY` questions one cold
    `sgkr query` subprocess asks the next question of the cycle."""

    op_name = "one question: extract_tags, retrieve, assemble_context, render_prompt_block"
    cli_name = "cold `sgkr query` subprocess"
    aliases = {"op_p50_ms": "query_p50_ms", "op_tail_ms": "query_tail_ms",
               "ops_per_s": "queries_per_s"}

    def __init__(self, bench: Bench):
        from sgkr import retriever

        self.bench = bench
        self.limits = retriever.RetrievalLimits()
        self.first: dict[int, str] = {}  # question index -> result digest
        self.stats: dict[int, dict] = {}
        self.blocks: dict[int, str] = {}
        self.cli_out: dict[int, str] = {}

    def generate(self, directory: Path):
        import gen

        return gen.query_workload(random.Random(self.bench.args.seed), directory)

    @property
    def doc(self) -> Path:
        return self.data.manifest.parent / "graph.json"

    def setup(self) -> None:
        """The set-up that `setup_s` times: build the graph from the
        generated manifest, write its document, build the vocabulary and
        start one interpreter that imports the CLI."""
        from sgkr import corpus, graph, tagger

        self.graph = graph.build_graph(corpus.load_corpus(self.data.manifest))
        self.doc.write_text(graph.serialize(self.graph), encoding="utf-8")
        aliases = tagger.load_aliases(self.data.aliases) if self.data.aliases else None
        self.vocab = tagger.build_vocabulary(self.graph, aliases)
        self.bench.warm_up()

    def describe(self) -> None:
        from sgkr import graph

        self.data.shape.update(
            merged_functions=len(self.graph.kc_nodes),
            call_edges=sum(1 for edge in self.graph.edges if edge.type == graph.CALL),
            labels=len(self.vocab.inputs) + len(self.vocab.outputs),
        )

    def answer(self, question: str, g, vocab):
        from sgkr import context, retriever, tagger

        span = self.bench.tracer.span
        with span("request.query"):
            with span("tagger.extract"):
                tags = tagger.extract_tags(question, vocab)
            with span("retriever.retrieve"):
                result = retriever.retrieve(g, tags, self.limits)
            with span("context.assemble"):
                bundle = context.assemble_context(result, g)
            with span("context.render"):
                block = context.render_prompt_block(bundle)
        return tags, result, block

    def record(self, index: int, tags, result, block: str) -> None:
        """Check one answer: the first answer to a question is checked
        against the traversal rules, later ones against the first."""
        from checks import path_problems, sha256

        digest = sha256(json.dumps([[list(p.nodes) for p in result.paths], block]))
        if index not in self.first:
            self.first[index] = digest
            self.blocks[index] = block
            kc = sum(1 for node in result.subgraph_nodes if node in self.graph.kc_nodes)
            self.stats[index] = {
                "expanded": result.stats.nodes_expanded, "paths": result.stats.paths_found,
                "by_paths": result.stats.truncated_by_paths,
                "by_depth": result.stats.truncated_by_depth,
                "fallback": result.fallback, "kc": kc, "bytes": len(block.encode("utf-8")),
            }
            self.bench.check("query", path_problems(self.graph, result, tags, self.limits))
        else:
            self.bench.check("query", [] if digest == self.first[index]
                             else ["answer differs from the first answer to the same question"])

    def op(self, index: int) -> float:
        question = self.data.questions[index]
        started = time.perf_counter()
        tags, result, block = self.answer(question, self.graph, self.vocab)
        ms = (time.perf_counter() - started) * 1e3
        self.record(index, tags, result, block)
        return ms

    def cli_argv(self, question: str) -> list[str]:
        argv = ["query", "--graph", str(self.doc), "--question", question]
        if self.data.aliases:
            argv += ["--aliases", str(self.data.aliases)]
        return argv

    def cli_op(self, index: int) -> float:
        """One cold `sgkr query`. Its output must end with the prompt block
        the in-process pipeline renders for the question, after at most a
        FALLBACK or note line, and must repeat exactly on later runs."""
        question = self.data.questions[index]
        if index not in self.blocks:
            self.record(index, *self.answer(question, self.graph, self.vocab))
        ms, code, out, err = self.bench.python(["-m", "sgkr", *self.cli_argv(question)])
        problems = [f"exit {code}: {err.strip()[:200]}"] if code != 0 else []
        block = self.blocks[index]
        head = out[:len(out) - len(block)]
        if not problems and (not out.endswith(block) or head not in ("", "FALLBACK\n")
                             and not (head.startswith("note: ") and head.count("\n") == 1)):
            problems.append("cold `sgkr query` output is not the in-process prompt block")
        if self.cli_out.setdefault(index, out) != out:
            problems.append("cold `sgkr query` output differs from its first run")
        self.bench.check("sgkr query", problems)
        return ms

    def run(self, seconds: float, with_cli: bool) -> None:
        bench, n = self.bench, len(self.data.questions)
        for step in bench.deadline_loop(seconds):
            bench.attempt(bench.op_ms, "query", self.op, step % n)
            if with_cli and step % CLI_EVERY == CLI_EVERY - 1:
                bench.attempt(bench.cli_ms, "sgkr query", self.cli_op, (step // CLI_EVERY) % n)
        if with_cli and step < CLI_EVERY - 1:
            bench.attempt(bench.cli_ms, "sgkr query", self.cli_op, 0)

    def finish_pass(self) -> None:
        """Answer, untimed, any question the timed loop did not reach, so
        the counters and the digest always cover the whole question set."""
        for index, question in enumerate(self.data.questions):
            if index not in self.first:
                try:
                    self.record(index, *self.answer(question, self.graph, self.vocab))
                except Exception as exc:
                    self.bench.check("query", [f"{type(exc).__name__}: {exc}"])

    def retrieval_counters(self) -> None:
        rows = [self.stats[i] for i in sorted(self.stats)]
        asked = [row for row in rows if not row["fallback"]]
        expanded = sum(row["expanded"] for row in rows)
        paths = sum(row["paths"] for row in rows)
        self.bench.counters.update({
            "tagger.fallback_share": sum(row["fallback"] for row in rows) / max(len(rows), 1),
            "retriever.nodes_expanded": expanded,
            "retriever.paths_found": paths,
            "retriever.paths_per_expansion": paths / expanded if expanded else 0.0,
            "retriever.truncated_paths_share":
                sum(row["by_paths"] for row in asked) / len(asked) if asked else 0.0,
            "retriever.truncated_depth_share":
                sum(row["by_depth"] for row in asked) / len(asked) if asked else 0.0,
            "retriever.subgraph_kc": sum(row["kc"] for row in rows),
            "context.rendered_bytes": sum(row["bytes"] for row in rows),
        })

    def digest(self) -> str:
        from checks import sha256

        self.finish_pass()
        self.retrieval_counters()
        return sha256("".join(self.first.get(i, "missing") for i in range(len(self.data.questions))))


# ---------------------------------------------------------------- cli

class CliWorkload(QueryWorkload):
    """The cold path: every operation is a fresh process. Cold `sgkr
    query` runs are the main operation; one `sgkr eval` over the gold set
    with all three methods runs before every `EVAL_EVERY` queries."""

    op_name = "cold `sgkr query` subprocess"
    cli_name = "`sgkr eval --methods sgkr,lexical,vectors` subprocess"
    aliases = {"op_p50_ms": "cli_query_p50_ms", "op_tail_ms": "cli_query_tail_ms",
               "cli_p50_ms": "cli_eval_s (x1000)"}

    def __init__(self, bench: Bench):
        super().__init__(bench)
        self.eval_out: str | None = None

    def generate(self, directory: Path):
        import gen

        return gen.cli_workload(random.Random(self.bench.args.seed), directory)

    def eval_argv(self) -> list[str]:
        return ["eval", "--graph", str(self.doc), "--gold", str(self.data.gold),
                "--aliases", str(self.data.aliases), "--methods", "sgkr,lexical,vectors",
                "--vectors", str(self.data.vectors), "--k", "5"]

    def eval_op(self) -> float:
        ms, code, out, err = self.bench.python(["-m", "sgkr", *self.eval_argv()])
        problems = [f"exit {code}: {err.strip()[:200]}"] if code != 0 else []
        if not problems:
            if self.eval_out is None:
                rows = out.splitlines()[2:]
                methods = [row.split()[0] for row in rows]
                scores = [float(cell) for row in rows for cell in row.split()[1:4]]
                if methods != ["sgkr", "lexical", "vectors"] or not all(0 <= s <= 1 for s in scores):
                    problems.append(f"unexpected eval table: {out!r}")
                self.eval_out = out
            elif out != self.eval_out:
                problems.append("`sgkr eval` output differs from the first eval")
        self.bench.check("sgkr eval", problems)
        return ms

    def run(self, seconds: float, with_cli: bool) -> None:
        bench, n = self.bench, len(self.data.questions)
        for step in bench.deadline_loop(seconds):
            if with_cli and step % EVAL_EVERY == 0:
                bench.attempt(bench.cli_ms, "sgkr eval", self.eval_op)
            bench.attempt(bench.op_ms, "sgkr query", self.cli_op, step % n)

    def load(self):
        """Deserialize the graph document and build the vocabulary, as
        every `sgkr query` and `sgkr eval` process does."""
        from sgkr import graph, tagger

        span = self.bench.tracer.span
        with span("graph.deserialize"):
            g = graph.deserialize(self.doc.read_text(encoding="utf-8"))
        with span("tagger.vocab"):
            vocab = tagger.build_vocabulary(g, tagger.load_aliases(self.data.aliases))
        return g, vocab

    def replica_query(self, question: str):
        """What `sgkr query` does, driven through the public functions so
        that each layer gets its own span."""
        with self.bench.tracer.span("request.cli_query"):
            return self.answer(question, *self.load())

    def replica_eval(self) -> None:
        """What `sgkr eval --methods sgkr,lexical,vectors` does, through
        the public functions."""
        from sgkr import baselines, retriever, tagger

        span = self.bench.tracer.span
        with span("request.eval"):
            g, vocab = self.load()
            gold = baselines.load_gold(self.data.gold)
            vectors = baselines.load_vectors(self.data.vectors)
            results: dict[str, dict] = {"sgkr": {}, "lexical": {}, "vectors": {}}
            for annotation in gold:
                with span("tagger.extract"):
                    tags = tagger.extract_tags(annotation.question, vocab)
                with span("retriever.retrieve"):
                    found = retriever.retrieve(g, tags, self.limits)
                results["sgkr"][annotation.question] = frozenset(
                    retriever.retrieved_kc_names(found, g))
                for scorer in ("lexical", "vectors"):
                    with span("baselines.topk"):
                        results[scorer][annotation.question] = frozenset(baselines.retrieve_topk(
                            annotation.question, g, 5, scorer=scorer, vectors=vectors))
            for method in results:
                with span("baselines.evaluate"):
                    baselines.evaluate(results[method], gold)

    def digest(self) -> str:
        from checks import run_cli, sha256

        if self.eval_out is None:
            self.eval_out = run_cli(self.eval_argv())[1]
        return sha256(super().digest() + self.eval_out)


# ---------------------------------------------------------------- runs

def untraced(bench: Bench, workload) -> dict:
    from tracing import median, tail

    workload.run(bench.args.seconds, with_cli=True)
    op_ms, cli_ms = bench.op_ms, bench.cli_ms
    # The tail stays in wall time: it is set by the machine's slow state,
    # whose latency varies less from run to run than the medians do, and
    # scaling it by the run's factor widened its spread (see README.md).
    p_tail, tail_label = tail(op_ms)
    ops_per_s = len(op_ms) / (sum(op_ms) / 1e3) if op_ms else 0.0
    bench.notes["op_tail percentile"] = tail_label
    bench.notes["samples"] = {"op": len(op_ms), "cli": len(cli_ms)}
    bench.notes["calibration ms p50"] = median(bench.calibration_ms)
    bench.notes["wall"] = {  # the figures the speed factor scales, before scaling
        "op_p50_ms": median(op_ms), "ops_per_s": ops_per_s, "cli_p50_ms": median(cli_ms),
    }
    factor = bench.speed_factor()
    rss_who = resource.RUSAGE_CHILDREN if bench.args.workload == "cli" else resource.RUSAGE_SELF
    return {
        "op_p50_ms": (median(op_ms) * factor, "ms"),
        "op_tail_ms": (p_tail, "ms"),
        "ops_per_s": (ops_per_s / factor, "1/s"),
        "cli_p50_ms": (median(cli_ms) * factor, "ms"),
        "peak_rss_mib": (resource.getrusage(rss_who).ru_maxrss / 1024, "MiB"),
    }


def traced_load(bench: Bench, data) -> None:
    """One traced load of a workload's corpus through every build layer,
    then deserialization and vocabulary as a query loads them. The build's
    exact counters come from the public return values."""
    from sgkr import corpus, graph, parser, tagger

    span = bench.tracer.span
    bench.tracer.request = "load"
    with span("request.load"):
        with span("corpus.load"):
            loaded = corpus.load_corpus(data.manifest)
        fragments = []
        for entry in loaded.entries:
            with span("parser.fragment"):
                fragments.append(parser.build_trace_fragment(entry))
        with span("graph.assemble"):
            raw = graph.assemble_raw_graph(fragments, loaded)
        with span("graph.merge"):
            merged = graph.merge_identical(raw)
        with span("graph.insert_io"):
            built = graph.insert_io_nodes(merged, [entry.io_spec for entry in loaded.entries])
        with span("graph.validate"):
            report = graph.validate_graph(built)
        with span("graph.serialize"):
            document = graph.serialize(built)
        with span("graph.deserialize"):
            reloaded = graph.deserialize(document)
        with span("tagger.vocab"):
            tagger.build_vocabulary(reloaded, tagger.load_aliases(data.aliases) if data.aliases else None)
    bench.check("traced load", list(report.violations))
    bench.counters.update({
        "parser.functions": sum(len(f.functions) for f in fragments),
        "parser.call_edges": sum(len(f.call_edges) for f in fragments),
        "graph.merged_away": len(raw.kc_nodes) - len(built.kc_nodes),
        "graph.document_bytes": len(document.encode("utf-8")),
        "graph.cycles": len(report.cycles),
    })


def traced(bench: Bench, workload) -> dict:
    """Half the time untraced, half traced, over the operation that runs
    in-process (for `cli`, the in-process replica of `sgkr query`); then
    one traced pass over the remaining layer calls."""
    from checks import run_cli
    from tracing import median, tail

    kind = bench.args.workload
    half = bench.args.seconds / 2
    n = len(workload.data.questions)

    def replica(index: int) -> float:
        started = time.perf_counter()
        answer = workload.replica_query(workload.data.questions[index])
        ms = (time.perf_counter() - started) * 1e3
        workload.record(index, *answer)
        return ms

    def loop(seconds: float) -> list[float]:
        times: list[float] = []
        op = workload.op if kind == "query" else replica
        for step in bench.deadline_loop(seconds):
            bench.tracer.request = f"op-{len(bench.tracer.spans)}"
            bench.attempt(times, kind, op, step % n)
        return times

    plain = loop(half)
    bench.tracer.enabled = True
    timed = loop(half)
    traced_ops = len(timed)
    loop_spans = len(bench.tracer.spans)

    traced_load(bench, workload.data)
    if kind == "cli":
        span = bench.tracer.span
        bench.tracer.request = "eval"
        workload.replica_eval()
        for index in range(3):
            bench.tracer.request = f"cli-{index}"
            with span("cli.startup"):
                bench.python(["-c", "import sgkr.cli"])
            with span("cli.inprocess_query"):
                run_cli(workload.cli_argv(workload.data.questions[index]))
    bench.check("traced run", [] if traced_ops and plain else ["no operation completed"])

    tr = bench.tracer
    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYER_TIMES:
        metrics[f"{name}_ms"] = (median(tr.per_request(name)), "ms")
    metrics["tagger.extract_us"] = (median(tr.per_call("tagger.extract")) * 1e3, "us")
    retrieve = tr.per_call("retriever.retrieve")
    metrics["retriever.retrieve_p50_ms"] = (median(retrieve), "ms")
    metrics["retriever.retrieve_tail_ms"] = (tail(retrieve)[0], "ms")
    for name in ("context.assemble", "context.render", "baselines.topk", "baselines.evaluate",
                 "cli.startup", "cli.inprocess_query"):
        metrics[f"{name}_ms"] = (median(tr.per_call(name)), "ms")
    self_ms = tr.self_ms_by_layer(0, loop_spans)
    for layer in LAYERS:
        metrics[f"self.{layer}_ms"] = (self_ms.get(layer, 0.0) / max(traced_ops, 1), "ms")
    overhead = median(timed) - median(plain)
    metrics["trace.overhead_ms"] = (overhead, "ms")
    metrics["trace.overhead_share"] = (overhead / median(plain) if plain else 0.0, "share")
    bench.notes["traced ops"] = {"untraced": len(plain), "traced": traced_ops,
                                 "spans": len(tr.spans)}
    return metrics


WORKLOADS = {"query": QueryWorkload, "cli": CliWorkload}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        _fatal("--seconds must be positive")
    for needed in (SRC / "sgkr" / "__init__.py", ROOT / "tests" / "oracles.py",
                   ROOT / "fixtures" / "fee_corpus" / "manifest.json"):
        if not needed.is_file():
            _fatal(f"{needed.relative_to(ROOT)} is missing: run from a full sgkr checkout")
    sys.path.insert(0, str(SRC))
    import sgkr

    if Path(sgkr.__file__).resolve().parent != (SRC / "sgkr").resolve():
        _fatal(f"imported sgkr from {sgkr.__file__}, not from this checkout")

    import checks
    from tracing import median

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(args, work)
    workload = WORKLOADS[args.workload](bench)
    print(f"# sgkr benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment: git {_git_rev()}; python {platform.python_version()}; "
          f"nproc {os.cpu_count()}; loadavg {' '.join(f'{x:.2f}' for x in os.getloadavg())}")
    try:
        workload.data = workload.generate(work / "inputs")
        workload.generate(work / "inputs-again")
        bench.check("seeded inputs", [] if checks.tree_digest(work / "inputs")
                    == checks.tree_digest(work / "inputs-again")
                    else ["one seed generated different inputs"])
        shutil.rmtree(work / "inputs-again")

        # Set-ups are timed half before and half after the timed loop, so
        # that their median, like the loop's, samples the machine's speed
        # over the whole run rather than in a burst at its start.
        bench.timed_setups(workload, SETUP_REPS // 2)
        bench.check("fee corpus", checks.fee_corpus(ROOT, work))
        bench.check("oracle sample", checks.oracle_sample(ROOT, args.seed))

        if args.trace:
            metrics = traced(bench, workload)
        else:
            metrics = untraced(bench, workload)
            bench.timed_setups(workload, SETUP_REPS - SETUP_REPS // 2)
            metrics["setup_s"] = (median(bench.setup_s) * bench.speed_factor(), "s")
            bench.notes["wall"]["setup_s"] = median(bench.setup_s)
        print(f"# setup: {len(bench.setup_s)} set-ups, wall seconds "
              f"{[round(s, 3) for s in bench.setup_s]}")

        digest = workload.digest()
        workload.describe()
        print(f"# shape: {json.dumps(workload.data.shape, sort_keys=True)}")
        recorded = checks.load_digests().get(args.workload, {}).get(str(args.seed))
        if recorded is None:
            print(f"# digest: {digest} (NOT CHECKED: no reference recorded for seed {args.seed})")
        else:
            bench.check("reference digest", [] if recorded == digest
                        else [f"outputs digest {digest} != recorded {recorded}"])
            print(f"# digest: {digest} ({'matches' if recorded == digest else 'DIFFERS FROM'} "
                  f"the reference)")
        if args.trace:
            for name, value in bench.counters.items():
                metrics[name] = (value, COUNTER_UNITS[name])
            for name in COUNTER_UNITS:
                metrics.setdefault(name, (0.0, COUNTER_UNITS[name]))
            bench.tracer.write(WORK_ROOT / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            print(f"# counters: {json.dumps(bench.counters, sort_keys=True)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# operation: {workload.op_name}; cli operation: {workload.cli_name}")
    print(f"# also named: {json.dumps(workload.aliases)}")
    print(f"# notes: {json.dumps(bench.notes, sort_keys=True)}")
    print(f"# failed_share: {bench.failed / bench.attempted:.4f} "
          f"({bench.failed} of {bench.attempted} operations)")
    for problem in bench.problems[:20]:
        print(f"# problem: {problem}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
