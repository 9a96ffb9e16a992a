from __future__ import annotations

import random
import re

import pytest
from oracles import oracle_extract_functions

from sgkr.corpus import CorpusEntry, IoSpec
from sgkr.errors import ParseError
from sgkr.parser import build_trace_fragment, extract_functions


class TestExtractFunctions:
    def test_two_defs_with_one_call(self):
        source = "def a():\n    return 1\n\ndef b():\n    a()\n"
        defs = extract_functions(source)
        assert [fn.name for fn in defs] == ["a", "b"]
        assert defs[1].calls == ("a",)

    def test_empty_source(self):
        assert extract_functions("") == []

    def test_params_parsed(self):
        defs = extract_functions("def f(a, b, c):\n    return a\n")
        assert defs[0].params == ("a", "b", "c")

    def test_body_is_exact_substring(self):
        source = "def f(x):\n    y = x + 1\n    return y\n"
        fn = extract_functions(source)[0]
        assert fn.body_text in source
        assert fn.body_text == "    y = x + 1\n    return y"
        assert fn.text == source.rstrip("\n")

    def test_determinism(self):
        source = "def a(x):\n    return helper(x)\n\ndef helper(x):\n    return x\n"
        assert extract_functions(source) == extract_functions(source)

    def test_calls_in_strings_ignored(self):
        source = 'def f():\n    s = "g(1)"\n    t = \'h(2)\'\n    return s\n'
        assert extract_functions(source)[0].calls == ()

    def test_calls_in_comments_ignored(self):
        source = "def f():\n    x = 1  # g(x) would be wrong\n    return x\n"
        assert extract_functions(source)[0].calls == ()

    def test_dotted_calls_are_not_calls(self):
        source = "def f(xs):\n    xs.append(1)\n    return xs\n"
        assert extract_functions(source)[0].calls == ()

    def test_keywords_are_not_calls(self):
        source = "def f(x):\n    if(x):\n        return(x)\n    return not(x)\n"
        assert extract_functions(source)[0].calls == ()

    def test_duplicate_calls_first_occurrence_order(self):
        source = "def f(x):\n    b(x)\n    a(x)\n    b(x)\n"
        assert extract_functions(source)[0].calls == ("b", "a")

    def test_recursive_call_recorded(self):
        source = "def f(x):\n    return f(x - 1)\n"
        assert extract_functions(source)[0].calls == ("f",)

    def test_nested_defs_flattened(self):
        source = (
            "def outer(x):\n"
            "    def inner(y):\n"
            "        return helper(y)\n"
            "    return inner(x)\n"
        )
        defs = extract_functions(source)
        assert [fn.name for fn in defs] == ["outer", "inner"]
        # The call inside `inner` belongs to `inner`; `outer` only calls inner.
        assert defs[0].calls == ("inner",)
        assert defs[1].calls == ("helper",)

    def test_blank_lines_inside_body(self):
        source = "def f(x):\n    a = 1\n\n    return a\n\ndef g():\n    return 2\n"
        defs = extract_functions(source)
        assert [fn.name for fn in defs] == ["f", "g"]
        assert defs[0].body_text == "    a = 1\n\n    return a"

    def test_mid_body_comment_at_column_zero_keeps_the_body(self):
        source = "def f(x):\n    y = g(x)\n# note\n    return h(y)\n"
        fn = extract_functions(source)[0]
        assert fn.calls == ("g", "h")
        assert fn.body_text == "    y = g(x)\n# note\n    return h(y)"

    def test_comment_between_header_and_body(self):
        source = "def f(x):\n# note\n    return g(x)\n"
        fn = extract_functions(source)[0]
        assert fn.calls == ("g",)
        assert fn.body_text == "    return g(x)"
        assert fn.text == source.rstrip("\n")

    def test_trailing_shallow_comment_stays_outside(self):
        source = "def f(x):\n    return g(x)\n# end of f\n\ndef h():\n    return 1\n"
        defs = extract_functions(source)
        assert [fn.name for fn in defs] == ["f", "h"]
        assert defs[0].body_text == "    return g(x)"
        assert defs[0].text == "def f(x):\n    return g(x)"

    def test_fee_fixture_entry_one(self, fee_corpus):
        defs = extract_functions(fee_corpus.entries[0].source_text)
        assert {fn.name for fn in defs} == {
            "rule_applies", "compute_fee", "sum_fee",
            "average_fee", "output_average_fee", "find_all_mccs",
        }
        by_name = {fn.name: fn for fn in defs}
        assert by_name["compute_fee"].calls == ("rule_applies",)
        assert by_name["sum_fee"].calls == ("find_all_mccs", "compute_fee")
        assert by_name["average_fee"].calls == ("sum_fee",)
        assert by_name["output_average_fee"].calls[0] == "average_fee"
        assert by_name["rule_applies"].calls == ()
        assert by_name["find_all_mccs"].calls == ()


class TestParseErrors:
    def test_definition_without_body(self):
        with pytest.raises(ParseError) as err:
            extract_functions("def f(x):\n")
        assert err.value.line == 1

    def test_bad_header(self):
        with pytest.raises(ParseError):
            extract_functions("def 123(x):\n    return x\n")

    def test_missing_colon(self):
        with pytest.raises(ParseError):
            extract_functions("def f(x)\n    return x\n")

    def test_bad_parameter(self):
        with pytest.raises(ParseError):
            extract_functions("def f(x=3):\n    return x\n")

    @pytest.mark.parametrize("header, col", [
        ("def f(f f):", 7),          # the piece, not the name `f` before it
        ("def g(a, 9):", 10),        # the bad piece, not the first one
        ("  def h( a ,  , b):", 15),  # a blank piece: the comma that ends it
    ])
    def test_bad_parameter_column_is_the_bad_piece(self, header, col):
        source = header + "\n    pass\n"
        for parse in (extract_functions, oracle_extract_functions):
            with pytest.raises(ParseError) as err:
                parse(source)
            assert (err.value.line, err.value.col) == (1, col)

    def test_unterminated_string(self):
        with pytest.raises(ParseError) as err:
            extract_functions('def f():\n    s = "oops\n    return s\n')
        assert err.value.line == 2

    def test_first_error_in_source_order(self):
        source = 'def f():\n    s = "oops\n    return s\n\ndef 9(x):\n    return x\n'
        with pytest.raises(ParseError) as err:
            extract_functions(source)
        assert (err.value.line, err.value.col) == (2, 9)


def call_edges(source: str) -> tuple[tuple[str, str], ...]:
    entry = CorpusEntry(entry_id="e", source_text=source,
                        io_spec=IoSpec(inputs=(), outputs=()), knowledge_map={})
    return build_trace_fragment(entry).call_edges


class TestExtractCalls:
    """A function's calls become edges only to functions its entry defines."""

    def test_filters_to_defined_names(self):
        source = ("def f(y, z):\n    x = helper(y)\n    helper(z)\n    return len(x)\n\n"
                  "def helper(v):\n    return v\n")
        assert call_edges(source) == (("f", "helper"),)

    def test_external_names_dropped(self):
        assert call_edges("def f(xs):\n    return len(xs)\n") == ()

    def test_fixture_most_expensive(self, fee_corpus):
        # Both solutions in one entry, so find_all_mccs is defined too.
        source = fee_corpus.entries[1].source_text + "\n" + fee_corpus.entries[0].source_text
        assert [callee for caller, callee in call_edges(source) if caller == "most_expensive"] \
            == ["compute_fee", "find_all_mccs"]


class TestBuildTraceFragment:
    def test_single_function_no_calls(self, tmp_path):
        from sgkr.corpus import CorpusEntry, IoDecl, IoSpec
        entry = CorpusEntry(
            entry_id="e", source_text="def a(x):\n    return x\n",
            io_spec=IoSpec(inputs=(IoDecl("x", "a"),), outputs=(IoDecl("y", "a"),)),
            knowledge_map={},
        )
        fragment = build_trace_fragment(entry)
        assert len(fragment.functions) == 1
        assert fragment.call_edges == ()

    def test_chain(self):
        from sgkr.corpus import CorpusEntry, IoDecl, IoSpec
        source = "def a():\n    b()\n\ndef b():\n    c()\n\ndef c():\n    return 1\n"
        entry = CorpusEntry(
            entry_id="e", source_text=source,
            io_spec=IoSpec(inputs=(IoDecl("x", "a"),), outputs=(IoDecl("y", "c"),)),
            knowledge_map={},
        )
        fragment = build_trace_fragment(entry)
        assert len(fragment.functions) == 3
        assert fragment.call_edges == (("a", "b"), ("b", "c"))

    def test_cross_entry_calls_dropped(self, fee_corpus):
        # Entry two references find_all_mccs without defining it, so no
        # edge for it may appear in the fragment.
        fragment = build_trace_fragment(fee_corpus.entries[1])
        callees = {callee for _, callee in fragment.call_edges}
        assert "find_all_mccs" not in callees
        assert "rule_applies" not in callees

    def test_fixture_fragments_cover_twelve_names(self, fee_corpus):
        names = set()
        for entry in fee_corpus.entries:
            names.update(fn.name for fn in build_trace_fragment(entry).functions)
        assert len(names) == 12


def generate_program(rng: random.Random):
    """Random program in the restricted grammar with known call edges.

    Returns (source, functions, planted_edges). Distractor call-looking
    text is planted inside strings and comments.
    """
    n = rng.randint(1, 6)
    names = [f"fn{i}" for i in range(n)]
    lines = []
    planted: set[tuple[str, str]] = set()
    for i, name in enumerate(names):
        params = ", ".join(f"p{j}" for j in range(rng.randint(0, 3)))
        lines.append(f"def {name}({params}):")
        body_statements = rng.randint(1, 4)
        for _ in range(body_statements):
            kind = rng.random()
            if kind < 0.45 and n > 1:
                callee = rng.choice(names)
                lines.append(f"    x = {callee}(1)")
                planted.add((name, callee))
            elif kind < 0.6:
                fake = rng.choice(names)
                lines.append(f'    s = "{fake}(1)"')
            elif kind < 0.75:
                fake = rng.choice(names)
                lines.append(f"    y = 1  # call {fake}(2) here")
            else:
                lines.append(f"    z = {rng.randint(0, 9)}")
        lines.append("    return 0")
        if rng.random() < 0.5:
            lines.append("")
    return "\n".join(lines) + "\n", names, planted


class TestGrammarCompleteness:
    def test_random_programs_report_exactly_planted_edges(self):
        rng = random.Random(20240811)
        for _ in range(300):
            source, names, planted = generate_program(rng)
            defs = extract_functions(source)
            assert [fn.name for fn in defs] == names
            assert set(call_edges(source)) == planted, source

    def test_soundness_every_call_token_present(self, fee_corpus):
        for entry in fee_corpus.entries:
            for fn in extract_functions(entry.source_text):
                for callee in fn.calls:
                    assert re.search(rf"\b{callee}\(", fn.body_text)


def parse_outcome(parse, source: str):
    """("ok", definitions) or ("error", (line, col))."""
    try:
        return "ok", parse(source)
    except ParseError as err:
        return "error", (err.line, err.col)


HEADER_POOL = (
    "def f(x):", "def g():", "def h(a, b):  # takes two", "def\tk( a ):",
    "def 9(x):", "def f(x)", "def f(x=1):", "def(", "def f(a,):", 'def f("):',
)
BODY_POOL = (
    "x = g(1)", "return h(x)", 's = "f(1)"', "t = 'oops", "y = 1  # g(2)",
    "9abc(1)", "obj.m(2)", "not(x)", "u = \"a\" + k(3)", "q = 'a' 'b' f(",
    "def g ( x ):", "defx = 1", "", "   ",
)
INDENT_POOL = ("", "  ", "    ", "\t", "        ", "\t\t")
# Deeper than any header above; shallow comments have their own tests.
DEEP_COMMENT = " " * 12 + "# note g(1) 'x"


def fuzz_source(rng: random.Random) -> str:
    lines = []
    for _ in range(rng.randint(0, 10)):
        kind = rng.random()
        if kind < 0.3:
            lines.append(rng.choice(INDENT_POOL) + rng.choice(HEADER_POOL))
        elif kind < 0.9:
            lines.append(rng.choice(INDENT_POOL) + rng.choice(BODY_POOL))
        else:
            lines.append(DEEP_COMMENT)
    return "\n".join(lines) + rng.choice(("", "\n", "\n\n"))


class TestAgainstRetiredParser:
    """The one-pass parser against the retired two-pass one
    (`oracles.oracle_extract_functions`)."""

    def test_fee_sources(self, fee_corpus):
        for entry in fee_corpus.entries:
            source = entry.source_text
            assert extract_functions(source) == oracle_extract_functions(source)

    def test_generated_programs(self):
        rng = random.Random(20240811)
        for _ in range(300):
            source, _, _ = generate_program(rng)
            assert extract_functions(source) == oracle_extract_functions(source)

    def test_fuzzed_sources(self):
        rng = random.Random(5)
        outcomes = set()
        for _ in range(20_000):
            source = fuzz_source(rng)
            new, expected = parse_outcome(extract_functions, source), parse_outcome(
                oracle_extract_functions, source)
            assert new[0] == expected[0], source
            if new[0] == "ok":
                assert new == expected, source
            else:
                # The one-pass parser reports the first error in source
                # order; the retired one reported header errors first.
                assert new[1] <= expected[1], source
            outcomes.add(new[0])
        assert outcomes == {"ok", "error"}
