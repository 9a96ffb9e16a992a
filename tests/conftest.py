from __future__ import annotations

import random
import sys
import types
from pathlib import Path

import pytest

from sgkr import build_graph, build_vocabulary, load_aliases, load_corpus

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures" / "fee_corpus"

FEE_QUESTION = "What is the most expensive MCC for a transaction of 5 euros, in general?"

FEE_NEEDED = {"rule_applies", "find_all_mccs", "sum_fee", "most_expensive", "compute_fee"}
FEE_UNNEEDED = {
    "average_fee", "output_average_fee", "merchant_matches_fee",
    "match_fee_conditions", "match_capture_delay", "cheapest_card_scheme",
    "get_mcc_code_from_dsp",
}


@pytest.fixture(scope="session")
def fixture_dir() -> Path:
    return FIXTURE_DIR


@pytest.fixture(scope="session")
def fee_corpus():
    return load_corpus(FIXTURE_DIR / "manifest.json")


@pytest.fixture(scope="session")
def fee_graph(fee_corpus):
    return build_graph(fee_corpus)


@pytest.fixture(scope="session")
def fee_vocab(fee_graph):
    return build_vocabulary(fee_graph, load_aliases(FIXTURE_DIR / "aliases.json"))


GENERATOR = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
# Small sizes of the benchmark's two workloads, one seed each.
SMALL_WORKLOADS = {"query": {"n_entries": 30}, "cli": {"n_entries": 40}}


@pytest.fixture(scope="session")
def perfbench_gen():
    """The benchmark's generator module, executed from its source; the
    file is only read, and no bytecode is written next to it."""
    module = types.ModuleType("perfbench_gen")
    module.__file__ = str(GENERATOR)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    exec(compile(GENERATOR.read_text(encoding="utf-8"), str(GENERATOR), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="session")
def small_workloads(perfbench_gen, tmp_path_factory):
    """name -> (graph, vocabulary, questions, generated workload) for each
    benchmark workload generated at a small size from seed 5."""
    loaded = {}
    for name, sizes in SMALL_WORKLOADS.items():
        generate = getattr(perfbench_gen, f"{name}_workload")
        data = generate(random.Random(5), tmp_path_factory.mktemp(name), **sizes)
        graph = build_graph(load_corpus(data.manifest))
        aliases = load_aliases(data.aliases) if data.aliases else None
        loaded[name] = (graph, build_vocabulary(graph, aliases), data.questions, data)
    return loaded
