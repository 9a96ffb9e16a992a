#!/usr/bin/env python3
"""Record the reference digests that run.py checks outputs against.

    python3 perfbench/record.py --seeds 0-99 [--workloads query,cli]

For each workload and seed it generates the inputs, computes the outputs
once (every question's paths and prompt block; for `cli` also the `sgkr
eval` output) and stores their digest in perfbench/digests.json, together
with the fee corpus prompt block's digest. Run it only on a commit whose
outputs are known to be right.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="a range such as 0-99")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    args = parser.parse_args()
    low, _, high = args.seeds.partition("-")
    seeds = range(int(low), int(high or low) + 1)
    sys.path.insert(0, str(run.SRC))
    import checks
    from sgkr import context, retriever, tagger
    from sgkr.corpus import load_corpus
    from sgkr.graph import build_graph

    digests = checks.load_digests()
    fixtures = run.ROOT / "fixtures" / "fee_corpus"
    fee = build_graph(load_corpus(fixtures / "manifest.json"))
    vocab = tagger.build_vocabulary(fee, tagger.load_aliases(fixtures / "aliases.json"))
    result = retriever.retrieve(fee, tagger.extract_tags(checks.FEE_QUESTION, vocab))
    digests["fee_prompt_block"] = checks.sha256(
        context.render_prompt_block(context.assemble_context(result, fee)))
    for name in args.workloads.split(","):
        for seed in seeds:
            work = run.WORK_ROOT / f"record-{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                bench = run.Bench(argparse.Namespace(workload=name, seed=seed), work)
                workload = run.WORKLOADS[name](bench)
                workload.data = workload.generate(work / "inputs")
                workload.setup()
                digest = workload.digest()
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if bench.failed:
                print(f"{name} seed {seed}: checks failed: {bench.problems}", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = digest
            checks.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
            print(f"{name} seed {seed}: {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
