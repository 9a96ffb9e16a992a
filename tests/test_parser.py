from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings, strategies as st
from oracles import RETIRED_TOKEN_RE, ast_functions, oracle_extract_functions

from sgkr.corpus import CorpusEntry, IoSpec, load_corpus
from sgkr.errors import ParseError
from sgkr.parser import _TOKEN_RE, build_trace_fragment, extract_functions


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


class TestContinuationLines:
    """A line that starts inside an open bracket or after a backslash
    continues the line before it, whatever its indentation."""

    @pytest.mark.parametrize("source, calls", [
        ("def f(x):\n    y = (\n1)\n    return g(y)\n", ("g",)),
        ("def f(x):\n    y = {\n    'k': x,\n}\n    return g(y)\n", ("g",)),
        ("def f(x):\n    return g(x) \\\n+ h(x)\n", ("g", "h")),
    ])
    def test_continuation_at_column_zero_keeps_the_body(self, source, calls):
        fn, = extract_functions(source)
        assert fn.calls == calls
        assert fn.text == source.rstrip("\n")

    def test_calls_go_to_the_innermost_open_definition(self):
        source = ("def outer(x):\n"
                  "    def inner(y):\n"
                  "        return g(\n"
                  "h(y))\n"
                  "    return k(x)\n")
        outer, inner = extract_functions(source)
        assert (outer.calls, inner.calls) == (("k",), ("g", "h"))
        assert inner.body_text == "        return g(\nh(y))"


class TestEscapesAndContinuedStrings:
    """A backslash escapes the next character in a string; a string whose
    line ends in an unescaped backslash goes on on the next line, which is
    read only after the closing quote."""

    @pytest.mark.parametrize("source, calls", [
        ("def f(x):\n    s = 'it\\'s'\n    return g(s)\n", ("g",)),
        ('def f(x):\n    s = "a\\\\" + g(1)  # h(\n', ("g",)),
        ("def f(x):\n    s = 'a \\\n b'\n    return g(s)\n", ("g",)),
        ("def f(x):\n    s = 'a \\\n h(1) b' + k(2)\n    return g(s)\n", ("k", "g")),
        ("def f(x):\n    s = g('a \\\n  \\' \\\n)', x\n)\n    return h(s)\n", ("g", "h")),
    ], ids=["escaped-quote", "escaped-backslash", "continued", "call-after-quote", "twice"])
    def test_calls_match_ast(self, source, calls):
        fn, = extract_functions(source)
        assert fn.calls == calls
        assert fn.text == source.rstrip("\n")
        assert [(fn.name, fn.params, fn.calls)] == ast_functions(source)

    def test_continued_string_outside_definitions_is_no_code(self):
        source = "X = 'a \\\ndef f(x): b'\ndef f(x):\n    return g(x)\n"
        assert [(fn.name, fn.calls) for fn in extract_functions(source)] == [("f", ("g",))]
        assert ast_functions(source) == [("f", ("x",), ("g",))]
        # Where the next line neither closes nor continues it, the string ends there.
        source = "X = 'a \\\nb\ndef f(x):\n    return g(x)\n"
        assert [(fn.name, fn.calls) for fn in extract_functions(source)] == [("f", ("g",))]

    @pytest.mark.parametrize("source", [
        "def f(x):\n    s = 'a \\\n",
        "def f(x):\n    s = 'a \\",
        "def f(x):\n    s = 'a \\\n\n    return g(s)\n",
        "def f(x):\n    s = 'a \\\n    b\n    return g(s)\n",
        "def f(x):\n    s = 'a \\\\\n    b'\n",
    ], ids=["end-of-input", "no-newline", "blank-line", "never-closed", "escaped-backslash"])
    def test_unclosed_continued_string_is_error(self, source):
        with pytest.raises(ParseError) as err:
            extract_functions(source)
        assert "unterminated string literal" in str(err.value)
        assert (err.value.line, err.value.col) == (2, 9)
        assert ast_functions(source) is None

    def test_triple_quoted_string_spanning_lines_is_error(self):
        with pytest.raises(ParseError) as err:
            extract_functions('def f():\n    """doc\n    g(1)"""\n    return h()\n')
        assert "unterminated string literal" in str(err.value)


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

    @pytest.mark.parametrize("source, message, position", [
        ("def f(x):\n    return g(x\n", "'(' was never closed", (2, 13)),
        ("def f(x):\n    return g(x))\n", "unmatched ')'", (2, 16)),
        ("def f(x):\n    return [g(x))\n", "unmatched ')'", (2, 17)),
        ("def f(x):\n    y = x \\\n\n    return y\n", "backslash before a blank line", (2, 11)),
        ("def f(x):\n    return x \\", "backslash before a blank line", (2, 14)),
        ("def f(x):\n    y = (\ndef g(x):\n    return x)\n", "definition inside a continued line",
         (3, 1)),
    ])
    def test_bracket_and_backslash_errors(self, source, message, position):
        with pytest.raises(ParseError) as err:
            extract_functions(source)
        assert message in str(err.value)
        assert (err.value.line, err.value.col) == position

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


def lines_close_their_brackets(source: str) -> bool:
    """Whether each line closes the round brackets it opens outside
    strings and comments (the fuzz pools hold no other brackets)."""
    for line in source.split("\n"):
        code = re.sub(r"#.*|\"[^\"]*\"|'[^']*'", "", line)
        if code.count("(") != code.count(")"):
            return False
    return True


def assert_agrees_with_ast(source: str, outcome) -> None:
    """Where the parser accepts a source, so does `ast.parse`, with the
    same functions, parameters and callees."""
    if outcome[0] == "ok":
        assert [(fn.name, fn.params, fn.calls) for fn in outcome[1]] == ast_functions(source), \
            source


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
            new = parse_outcome(extract_functions, source)
            if not lines_close_their_brackets(source):
                # The retired parser read no bracket across lines.
                assert_agrees_with_ast(source, new)
                outcomes.add(new[0])
                continue
            expected = parse_outcome(oracle_extract_functions, source)
            assert new[0] == expected[0], source
            if new[0] == "ok":
                assert new == expected, source
            else:
                # The one-pass parser reports the first error in source
                # order; the retired one reported header errors first.
                assert new[1] <= expected[1], source
            outcomes.add(new[0])
        assert outcomes == {"ok", "error"}


# Sources in the grammar for the differential test against `ast`. Known
# differences stay out: a space before a call's bracket (`g (x)` is no
# call here), a call on anything but a plain name, triple-quoted strings,
# and code `ast` rejects but the line-oriented grammar cannot see, such
# as an incomplete expression.
NAMES = ("x", "y", "p0", "obj", "1", "22")
PLAIN_STRINGS = ('"g(1)"', "'(['", '"# h(2)"', "')'", '"a]}"', "''")
STRINGS = (*PLAIN_STRINGS,
           r"'it\'s g('", r'"\"h(\""', r"'a\\'",  # escaped quotes, an escaped backslash
           "'a \\\n  g(1) b'", '"(\\\\\\\n)"', "'x \\\ndef g(y): '")  # continued strings
CALLEES = ("g", "h", "k", "f0", "f1", "print")
# Where a bracket may break its line: to any column, after a comment.
INSIDE_BREAKS = ("", "", "", " ", "\n", "\n    ", "\n            ", "  # h(\n  ")
BACKSLASH_BREAKS = (" \\\n", " \\\n        ")


@st.composite
def expressions(draw, depth=0, strings=STRINGS):
    kind = draw(st.integers(0, 8 if depth < 3 else 2))
    if kind == 0:
        return draw(st.sampled_from(NAMES))
    if kind == 1:
        return draw(st.sampled_from(strings))
    if kind == 2:
        return draw(st.sampled_from(NAMES[:4])) + ".m()"
    brk = st.sampled_from(INSIDE_BREAKS)
    if kind in (3, 4):
        items = draw(st.lists(expressions(depth + 1, strings), max_size=3))
        joined = ",".join(draw(brk) + item for item in items) + draw(brk)
        return (draw(st.sampled_from(CALLEES)) + "(" + joined + ")") if kind == 3 \
            else ("[" + joined + "]")
    if kind == 5:
        return "(" + draw(brk) + draw(expressions(depth + 1, strings)) + draw(brk) + ")"
    if kind == 6:
        return "{" + draw(brk) + "'k': " + draw(expressions(depth + 1, strings)) + draw(brk) + "}"
    if kind == 7:
        return "(not(" + draw(expressions(depth + 1, strings)) + "))"
    operator = " +" + draw(st.sampled_from((" ", *BACKSLASH_BREAKS)))
    return draw(expressions(depth + 1, strings)) + operator + draw(expressions(depth + 1, strings))


@st.composite
def blocks(draw, indent, depth=0):
    """Statement lines at `indent`, at least one of them code."""
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        lines.extend(draw(st.lists(st.sampled_from(("", "# note g(9)", "  # k(")), max_size=1)))
        kind = draw(st.integers(0, 4 if depth < 2 else 2))
        pad = " " * indent
        if kind == 0:
            lines.append(pad + "x = " + draw(expressions()))
        elif kind == 1:
            lines.append(pad + "return " + draw(expressions()))
        elif kind == 2:
            lines.append(pad + draw(expressions()))
        elif kind == 3:
            lines.append(pad + "if " + draw(expressions()) + ":")
            lines.extend(draw(blocks(indent + 4, depth + 1)))
        else:
            lines.extend(draw(definitions(indent, depth + 1)))
    return lines


@st.composite
def definitions(draw, indent=0, depth=0):
    name = draw(st.sampled_from(("f0", "f1", "f2")))
    params = ", ".join(draw(st.lists(st.sampled_from(("x", "y", "p0")), max_size=2, unique=True)))
    comment = draw(st.sampled_from(("", "  # takes g(")))
    return [" " * indent + f"def {name}({params}):{comment}", *draw(blocks(indent + 4, depth))]


@st.composite
def programs(draw, table_strings=STRINGS):
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            lines.append("TABLE = " + draw(expressions(strings=table_strings)))
        lines.extend(draw(definitions()))
    return "\n".join(lines) + "\n"


class TestAgainstAst:
    """The parser against the standard-library `ast`, on sources in the
    grammar with continuation lines."""

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(programs())
    def test_programs(self, source):
        outcome = parse_outcome(extract_functions, source)
        assert outcome[0] == "ok", source
        assert_agrees_with_ast(source, outcome)

    # A bracket put right after a backslash in a string changes where the
    # string ends. Outside definitions the parser tolerates a string that
    # never closes, and `ast` does not, so module-level lines here hold
    # strings without backslashes.
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(programs(table_strings=PLAIN_STRINGS), st.data())
    def test_one_bracket_changed(self, source, data):
        """Deleting, replacing or adding one bracket: where the parser
        still accepts (the bracket sat in a string or comment), `ast`
        agrees."""
        at = data.draw(st.sampled_from([i for i, c in enumerate(source) if c in "()[]{}"]))
        put = data.draw(st.sampled_from(("", ")", "]", "}", "(", "[", "{")))
        if data.draw(st.booleans()):
            at = data.draw(st.integers(0, len(source)))
            source = source[:at] + ")" + source[at:]
        else:
            source = source[:at] + put + source[at + 1:]
        assert_agrees_with_ast(source, parse_outcome(extract_functions, source))


def token_sequence(pattern, line: str, pos: int = 0):
    return [(token.span(), token.lastgroup, token.groupdict())
            for token in pattern.finditer(line, pos)]


# Pieces of the lines the token scan is tried on: quotes, comments,
# backslashes, brackets, dots, `def`, digits before letters, spaces and
# non-ASCII letters.
LINE_PIECES = ('"', "'", "#", "\\", "\\\\", "(", ")", "[", "]", "{", "}", ".", "def", "def ",
               "1e5(", "x", "f(", "g(a)", "_y1", " ", "\t", "é", "ß", ",", "=", "9")


class TestTokenScan:
    """The token pattern against the retired one (`oracles.RETIRED_TOKEN_RE`):
    the same spans, kinds and groups, token for token."""

    def test_corpus_lines(self, fee_corpus, small_workloads):
        corpora = [fee_corpus, *(load_corpus(data.manifest) for *_, data in small_workloads.values())]
        lines = [line for corpus in corpora for entry in corpus.entries
                 for line in entry.source_text.split("\n")]
        assert len(lines) > 2000
        for line in lines:
            assert token_sequence(_TOKEN_RE, line) == token_sequence(RETIRED_TOKEN_RE, line), line

    @settings(max_examples=1000, derandomize=True, database=None, deadline=None)
    @given(st.lists(st.sampled_from(LINE_PIECES), max_size=12).map("".join), st.data())
    def test_built_lines(self, line, data):
        pos = data.draw(st.integers(0, len(line)))
        for start in (0, pos):
            assert token_sequence(_TOKEN_RE, line, start) == \
                token_sequence(RETIRED_TOKEN_RE, line, start), (line, start)
