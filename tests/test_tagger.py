from __future__ import annotations

import random
import time

import pytest

from conftest import FEE_QUESTION
from oracles import oracle_extract_tags
from sgkr.baselines import load_gold
from sgkr.corpus import label_tokens
from sgkr.errors import AliasCollision, SchemaViolation
from sgkr.graph import INPUT, OUTPUT, DependencyGraph, IoNode
from sgkr.tagger import TagVocabulary, build_vocabulary, extract_tags


def graph_with_labels(inputs, outputs):
    labels = [(label, INPUT) for label in inputs] + [(label, OUTPUT) for label in outputs]
    return DependencyGraph(io_nodes={f"io:{kind}:{label}": IoNode(
        node_id=f"io:{kind}:{label}", label=label, kind=kind) for label, kind in labels})


class TestBuildVocabulary:
    def test_labels_collected_by_kind(self):
        vocab = build_vocabulary(graph_with_labels(["mcc"], ["fee"]))
        assert set(vocab.inputs) == {"mcc"}
        assert set(vocab.outputs) == {"fee"}

    def test_alias_merged(self):
        graph = graph_with_labels(["mcc"], ["fee"])
        vocab = build_vocabulary(graph, {
            "merchant category code": {"label": "mcc", "kind": "input"},
        })
        assert vocab.inputs["mcc"] == ("merchant category code",)

    def test_alias_collision(self):
        graph = graph_with_labels(["mcc", "merchant"], ["fee"])
        with pytest.raises(AliasCollision):
            build_vocabulary(graph, {
                "the code": {"label": "mcc", "kind": "input"},
                "The Code": {"label": "merchant", "kind": "input"},
            })

    def test_alias_shadowing_label_rejected(self):
        graph = graph_with_labels(["mcc", "merchant"], ["fee"])
        with pytest.raises(AliasCollision):
            build_vocabulary(graph, {"merchant": {"label": "mcc", "kind": "input"}})

    def test_alias_to_unknown_label_rejected(self):
        graph = graph_with_labels(["mcc"], ["fee"])
        with pytest.raises(SchemaViolation):
            build_vocabulary(graph, {"x": {"label": "nope", "kind": "input"}})

    def test_same_alias_both_kinds_allowed(self):
        graph = graph_with_labels(["total"], ["total"])
        vocab = build_vocabulary(graph, {
            "sum": {"label": "total", "kind": "input"},
        })
        assert vocab.inputs["total"] == ("sum",)
        assert vocab.outputs["total"] == ()

    def test_fee_vocabulary_contains_expected_labels(self, fee_vocab):
        assert "most expensive mcc" in fee_vocab.outputs
        assert set(fee_vocab.inputs) == {"mcc", "transaction amount", "merchant"}

    def test_maps_read_only(self):
        inputs = {"mcc": ()}
        vocab = TagVocabulary(inputs=inputs, outputs={"fee": ()})
        with pytest.raises(TypeError):
            vocab.inputs["merchant"] = ()
        inputs["merchant"] = ()
        assert set(vocab.inputs) == {"mcc"}
        assert extract_tags("merchant fee", vocab).inputs == frozenset()


class TestExtractTags:
    def test_fee_question(self, fee_vocab):
        tags = extract_tags(FEE_QUESTION, fee_vocab)
        assert tags.inputs >= {"mcc", "transaction amount"}
        assert tags.outputs >= {"most expensive mcc"}
        assert not tags.fallback

    def test_unrelated_question_falls_back(self, fee_vocab):
        tags = extract_tags("Hello there", fee_vocab)
        assert tags.inputs == frozenset()
        assert tags.outputs == frozenset()
        assert tags.fallback

    def test_inputs_only_is_fallback(self):
        vocab = TagVocabulary(inputs={"mcc": ()}, outputs={"fee": ()})
        tags = extract_tags("which mcc?", vocab)
        assert tags.inputs == {"mcc"}
        assert tags.fallback

    def test_case_and_punctuation_insensitive(self):
        vocab = TagVocabulary(inputs={"account type": ()}, outputs={"fee": ()})
        tags = extract_tags("What FEE applies to this Account-Type?", vocab)
        assert tags.inputs == {"account type"}
        assert tags.outputs == {"fee"}

    def test_two_labels_both_match(self):
        vocab = TagVocabulary(
            inputs={"account type": ()},
            outputs={"average fee": ()},
        )
        question = "What is the average fee for this account type?"
        tags = extract_tags(question, vocab)
        # Brute-force window check agrees.
        tokens = label_tokens(question)
        for label in ("account type", "average fee"):
            pattern = label_tokens(label)
            windows = [tokens[i:i + len(pattern)] for i in range(len(tokens))]
            assert pattern in windows
        assert tags.inputs == {"account type"}
        assert tags.outputs == {"average fee"}

    def test_longer_label_consumes_span_within_kind(self):
        vocab = TagVocabulary(inputs={"account type": (), "account": ()}, outputs={"fee": ()})
        tags = extract_tags("fee by account type", vocab)
        assert tags.inputs == {"account type"}

    def test_shorter_label_still_matches_leftover_span(self):
        vocab = TagVocabulary(inputs={"account type": (), "account": ()}, outputs={"fee": ()})
        tags = extract_tags("fee by account type for my account", vocab)
        assert tags.inputs == {"account type", "account"}

    def test_input_and_output_match_same_span(self, fee_vocab):
        # "mcc" (input) sits inside "most expensive mcc" (output); the two
        # kinds are matched independently so both hit.
        tags = extract_tags("most expensive mcc", fee_vocab)
        assert "mcc" in tags.inputs
        assert "most expensive mcc" in tags.outputs

    def test_deterministic(self, fee_vocab):
        first = extract_tags(FEE_QUESTION, fee_vocab)
        second = extract_tags(FEE_QUESTION, fee_vocab)
        assert first == second

    def test_long_question_on_a_large_vocabulary(self):
        # 2 000 labels x 9 000 tokens: the retired matcher slid every label
        # over the question and took seconds.
        vocab = TagVocabulary(inputs={f"w{i} w{i + 1}": () for i in range(2000)},
                              outputs={f"v{i}": () for i in range(2000)})
        rng = random.Random(14)
        question = " ".join(rng.choice(("w", "v")) + str(rng.randrange(2001))
                            for _ in range(9000))
        started = time.perf_counter()
        tags = extract_tags(question, vocab)
        assert time.perf_counter() - started < 1.0
        tokens = question.split()
        assert tags.outputs == {token for token in tokens if token in vocab.outputs}
        assert tags.inputs <= {f"{a} {b}" for a, b in zip(tokens, tokens[1:])}


class TestMonotonicity:
    def test_appending_unrelated_text_never_removes_matches(self):
        rng = random.Random(20250811)
        vocab_words = ["alpha", "beta", "gamma", "delta", "epsilon"]
        noise_words = ["zig", "zag", "quux", "wobble"]
        for _ in range(200):
            inputs = {}
            outputs = {}
            for _ in range(rng.randint(1, 3)):
                label = " ".join(rng.sample(vocab_words, rng.randint(1, 2)))
                inputs[label] = ()
            for _ in range(rng.randint(1, 3)):
                label = " ".join(rng.sample(vocab_words, rng.randint(1, 2)))
                outputs[label] = ()
            vocab = TagVocabulary(inputs=inputs, outputs=outputs)
            question = " ".join(rng.choices(vocab_words + noise_words, k=rng.randint(3, 10)))
            suffix = " ".join(rng.choices(noise_words, k=rng.randint(1, 5)))
            base = extract_tags(question, vocab)
            extended = extract_tags(question + " " + suffix, vocab)
            assert base.inputs <= extended.inputs
            assert base.outputs <= extended.outputs


def word_soup(rng, vocab, count, length, noise=("zig", "quux", "the", "of")):
    """Questions strung from the vocabulary's own words plus noise, so
    labels overlap, repeat and cut across each other."""
    words = sorted({word for side in (vocab.inputs, vocab.outputs)
                    for label, aliases in side.items()
                    for text in (label, *aliases) for word in label_tokens(text)})
    pool = words + list(noise)
    return [" ".join(rng.choices(pool, k=rng.randint(0, length))) for _ in range(count)]


class TestAgainstRetiredMatcher:
    """The compiled tables against the retired per-question matcher
    (`oracles.oracle_match_side`)."""

    def test_fee_vocabulary(self, fee_vocab, fixture_dir):
        questions = [FEE_QUESTION]
        questions += [gold.question for gold in load_gold(fixture_dir / "gold.json")]
        questions += word_soup(random.Random(11), fee_vocab, 2000, 12)
        for question in questions:
            assert extract_tags(question, fee_vocab) == oracle_extract_tags(question, fee_vocab)

    @pytest.mark.parametrize("name", ["query", "cli"])
    def test_benchmark_vocabularies(self, small_workloads, name):
        _, vocab, questions, data = small_workloads[name]
        questions = list(questions) + word_soup(random.Random(12), vocab, 300, 20)
        if data.gold:
            questions += [gold.question for gold in load_gold(data.gold)]
        for question in questions:
            assert extract_tags(question, vocab) == oracle_extract_tags(question, vocab)

    def test_same_width_overlap_goes_to_the_lexically_first_pattern(self):
        # "b a" comes first in the question, "a b" first lexically.
        vocab = TagVocabulary(inputs={"b a": (), "a b": ()}, outputs={})
        assert extract_tags("b a b", vocab).inputs == {"a b"}
        assert oracle_extract_tags("b a b", vocab).inputs == {"a b"}

    def test_shared_token_tuple_goes_to_the_smallest_label(self):
        vocab = TagVocabulary(inputs={"fee-rate": (), "Fee Rate": (), "rate": ("fee rate",)},
                              outputs={})
        assert extract_tags("the fee rate", vocab).inputs == {"Fee Rate"}
        assert oracle_extract_tags("the fee rate", vocab).inputs == {"Fee Rate"}

    def test_generated_vocabularies(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        words = st.sampled_from(["a", "b", "c", "d"])
        # Separators and case that normalize away, so distinct label
        # strings can share one token tuple; "-" alone has no tokens.
        separators = st.sampled_from([" ", "-", ", ", "\t", "\xa0 ", "?\u2003"])
        texts = st.builds(
            lambda tokens, sep, upper: sep.join(t.upper() if upper else t for t in tokens),
            st.lists(words, min_size=1, max_size=3), separators, st.booleans()) | st.just("-")
        sides = st.dictionaries(texts, st.lists(texts, max_size=2).map(tuple), max_size=5)
        questions = st.builds(str.join, separators,
                              st.lists(st.sampled_from(["a", "b", "c", "d", "x"]), max_size=14))

        @hypothesis.settings(max_examples=300, deadline=None, database=None,
                             derandomize=True)
        @hypothesis.given(sides, sides, questions)
        def check(inputs, outputs, question):
            vocab = TagVocabulary(inputs=inputs, outputs=outputs)
            assert extract_tags(question, vocab) == oracle_extract_tags(question, vocab)

        check()
