import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vceval import (
    check_syntax,
    contains_core_token,
    extract_facts,
    identifier_tokens,
)
from vceval.errors import InvalidArgs
from vceval.syntax import decode_source, definition_names

from helpers import reference_definition_names


class TestCheckSyntax:
    @pytest.mark.parametrize(
        "code, expected",
        [
            ("x = 1\n", True),
            ("def f(:", False),
            ("with open(p) as f:\n    f.read()\n", True),
            ("", True),
            ("def f():\n    return 1\n", True),
            ("return 1", False),  # return outside a function
            ("x = (", False),
        ],
    )
    def test_examples(self, code, expected):
        assert check_syntax(code) is expected

    def test_agrees_with_extract_facts(self):
        snippets = [
            "x = 1\n",
            "def f(:",
            "",
            "with a:\n    pass",
            "for x in y\n    pass",
            "class C:\n    def m(self): ...",
            "'unterminated",
            "f'{x}'",
            "lambda: (yield)",
        ]
        for code in snippets:
            assert check_syntax(code) == extract_facts(code).is_valid

    @pytest.mark.parametrize("code", ["if x is 1:\n    pass\n", 's = "\\d"\n'])
    def test_subject_warnings_do_not_depend_on_the_warning_filter(self, code):
        # both compile with a warning; "-W error" must not make them invalid
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert check_syntax(code) is True
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert check_syntax(code) is True
        assert caught == []

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=120))
    def test_agreement_property(self, code):
        assert check_syntax(code) == extract_facts(code).is_valid

    @pytest.mark.parametrize("code", ["def f():\n    x: (y := 1)\n", "def f():\n    x: (yield)\n"])
    def test_judged_without_the_toolkits_future_flags(self, code):
        # Python compiles both; under "from __future__ import annotations"
        # (which vceval's own modules use) the annotation would be rejected
        assert check_syntax(code) is True
        assert extract_facts(code).is_valid is True

    @pytest.mark.parametrize(
        "code",
        [
            "break\n",
            "continue\n",
            "for x in y:\n    pass\nelse:\n    break\n",
            "def f():\n    await g()\n",
            "await g()\n",
            "nonlocal x\n",
            "def f(a, a):\n    pass\n",
            "from __future__ import braces\n",
            "x = 1\0\n",
            "(" * 250 + ")" * 250 + "\n",
        ],
        ids=[
            "break-outside-loop",
            "continue-outside-loop",
            "break-in-for-else",
            "await-in-plain-def",
            "await-at-module-level",
            "module-level-nonlocal",
            "duplicate-argument",
            "future-braces",
            "nul-byte",
            "250-nested-parentheses",
        ],
    )
    def test_compiler_stage_errors_rejected(self, code):
        # the parser alone accepts most of these; the compiler rejects them
        assert check_syntax(code) is False
        assert extract_facts(code).is_valid is False

    def test_too_deeply_nested_to_parse_is_invalid_not_fatal(self):
        # the 3.10+ parser raises a bare MemoryError ("too complex to parse")
        code = "-" * 10000 + "1\n"
        assert check_syntax(code) is False
        assert extract_facts(code).is_valid is False

    def test_deep_expression_compiles_without_a_tree(self):
        # The one known split between the two routes: Python compiles this
        # text, but before 3.12 building its syntax tree hits the recursion
        # limit, so extract_facts has no facts for it.
        code = "-" * 1000 + "1\n"
        assert check_syntax(code) is True
        assert extract_facts(code).is_valid is (sys.version_info >= (3, 12))


class TestExtractFacts:
    def test_dump_call_site(self):
        facts = extract_facts("json.dump(obj, f, indent=2)")
        assert facts.is_valid
        assert len(facts.call_sites) == 1
        site = facts.call_sites[0]
        assert site.callee_name == "dump"
        assert site.total_arg_count == 3
        assert site.keyword_names == frozenset({"indent"})
        assert site.line_index == 0

    def test_with_context_expression_counts_as_inside(self):
        facts = extract_facts("with open(p) as f:\n    pass\n")
        assert facts.has_with
        (site,) = facts.call_sites
        assert site.callee_name == "open"
        assert site.total_arg_count == 1
        assert site.line_index == 0

    def test_call_in_with_body_counts_as_inside(self):
        facts = extract_facts("with lock:\n    data = load(p)\n")
        (site,) = facts.call_sites
        assert site.callee_name == "load"
        assert site.line_index == 1

    def test_call_outside_with_not_inside(self):
        facts = extract_facts("f = open(p)\nwith lock:\n    pass\n")
        (site,) = facts.call_sites
        assert site.callee_name == "open"
        assert site.line_index == 0
        assert facts.has_with

    def test_empty_module(self):
        facts = extract_facts("")
        assert facts.is_valid
        assert identifier_tokens("") == []
        assert facts.call_sites == ()
        assert facts.has_with is False

    def test_invalid_code_falls_back_to_lexical_identifiers(self):
        facts = extract_facts("df.explode('A'\n")
        assert not facts.is_valid
        assert facts.call_sites == ()
        assert identifier_tokens("df.explode('A'\n") == ["df", "explode"]

    def test_star_args_count_one_each(self):
        (site,) = extract_facts("f(a, *rest, key=1, **extra)").call_sites
        assert site.total_arg_count == 4
        assert site.keyword_names == frozenset({"key"})

    def test_nested_attribute_callee_uses_terminal_name(self):
        (site,) = extract_facts("pd.DataFrame.from_records(rows)").call_sites
        assert site.callee_name == "from_records"

    def test_subscripted_callee_is_skipped(self):
        facts = extract_facts("handlers['x'](1)")
        assert facts.call_sites == ()

    def test_keyword_names_appear_in_identifiers(self):
        for code in [
            "json.dump(obj, f, indent=2)",
            "plot(data, axis=1, color=c)",
            "f(a, *rest, key=1)",
        ]:
            facts = extract_facts(code)
            for site in facts.call_sites:
                assert site.keyword_names <= set(identifier_tokens(code))


# Each compound statement whose blocks compile into the enclosing body; BODY
# marks the block that holds the definition.
_COMPOUND = {
    "if": "if x:\n    BODY\n",
    "elif": "if x:\n    pass\nelif y:\n    BODY\n",
    "else": "if x:\n    pass\nelse:\n    BODY\n",
    "try": "try:\n    BODY\nexcept E:\n    pass\n",
    "except": "try:\n    pass\nexcept E:\n    BODY\n",
    "try-else": "try:\n    pass\nexcept E:\n    pass\nelse:\n    BODY\n",
    "finally": "try:\n    pass\nfinally:\n    BODY\n",
    "with": "with m:\n    BODY\n",
    "for": "for i in r:\n    BODY\n",
    "for-else": "for i in r:\n    pass\nelse:\n    BODY\n",
    "while": "while x:\n    BODY\n",
    "while-else": "while x:\n    pass\nelse:\n    BODY\n",
    "match": "match x:\n    case 1:\n        BODY\n",
}
_TRY_STAR = "try:\n    pass\nexcept* E:\n    BODY\n"
_COMPOUND_CASES = [
    *_COMPOUND.values(),
    pytest.param(_TRY_STAR, marks=pytest.mark.skipif(sys.version_info < (3, 11), reason="3.11+")),
]
_COMPOUND_IDS = [*_COMPOUND, "try-star"]


def _fill(template: str, block: str) -> str:
    """template with BODY replaced by block, indented to BODY's column."""
    head, tail = template.split("BODY")
    indent = head[head.rindex("\n") + 1:]
    return head + textwrap.indent(block, indent)[len(indent):].rstrip("\n") + tail


class TestDefinitionNames:
    @pytest.mark.parametrize("template", _COMPOUND_CASES, ids=_COMPOUND_IDS)
    def test_module_level_definitions_under_compound_statements(self, template):
        function = _fill(template, "def f(): ...\n")
        cls = _fill(template, "class K:\n    def m(self): ...\n")
        assert definition_names(function) == reference_definition_names(function) == {"f"}
        assert definition_names(cls) == reference_definition_names(cls) == {"K", "K.m"}

    @pytest.mark.parametrize("template", _COMPOUND_CASES, ids=_COMPOUND_IDS)
    def test_methods_under_compound_statements_in_a_class(self, template):
        # a nested class under the block is still not counted
        block = "def f(self): ...\nclass N:\n    def g(self): ...\n"
        code = "class C:\n" + textwrap.indent(_fill(template, block), "    ")
        assert definition_names(code) == reference_definition_names(code) == {"C", "C.f"}

    def test_nested_classes_lambdas_and_comprehensions_not_counted(self):
        code = (
            "class C:\n"
            "    class N:\n"
            "        def m(self): ...\n"
            "    key = lambda self: 0\n"
            "    squares = [i * i for i in range(3)]\n"
            "    async def fetch(self): ...\n"
            "def outer():\n"
            "    def inner(): ...\n"
            "    return inner\n"
            "handler = lambda: 0\n"
            "pairs = {i: j for i, j in items}\n"
            "seen = {i for i in items}\n"
            "lazy = (i for i in items)\n"
        )
        assert definition_names(code) == reference_definition_names(code) == {
            "C", "C.fetch", "outer",
        }

    def test_invalid_text_has_no_names(self):
        assert definition_names("def f(:\n") is None
        assert definition_names("return 1\n") is None
        assert definition_names("") == frozenset()

    @pytest.mark.skipif(sys.version_info < (3, 12), reason="PEP 695 syntax is 3.12+")
    def test_generic_definitions_and_type_aliases(self):
        code = (
            "def f[T: int](x: T) -> T: ...\n"
            "class C[U]:\n"
            "    def m[V](self, v: V) -> U: ...\n"
            "    type A = list[U]\n"
            "type A = int\n"
        )
        expected = {"f", "C", "C.m", "A", "C.A"}
        assert definition_names(code) == reference_definition_names(code) == expected

    def test_dead_branch_counts_only_before_3_12(self):
        # from 3.12 the compiler emits no code for a constant-false branch
        code = "if False:\n    def dead(): ...\ndef live(): ...\n"
        if sys.version_info >= (3, 12):
            assert definition_names(code) == {"live"}
        else:
            assert definition_names(code) == {"live", "dead"}

    def test_debug_block_counts_under_python_O(self):
        # python -O would drop the block if compile() inherited its level
        src = str(Path(definition_names.__code__.co_filename).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        script = "import sys; from vceval.syntax import definition_names as d; print(sorted(d(sys.stdin.read())))"
        result = subprocess.run(
            [sys.executable, "-O", "-c", script],
            input="if __debug__:\n    def f(): ...\n",
            capture_output=True, text=True, env=env, check=True, timeout=60,
        )
        assert result.stdout == "['f']\n"

    def test_agrees_with_a_syntax_tree_walk_on_this_repository(self):
        root = Path(__file__).resolve().parents[1]
        paths = sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")])
        assert len(paths) > 10
        for path in paths:
            code = path.read_text(encoding="utf-8")
            names = definition_names(code)
            assert names is not None, path
            assert names == reference_definition_names(code), path


class TestIdentifierStream:
    def test_strings_and_comments_excluded(self):
        code = "name = 'not_an_identifier'  # trailing_comment_word\nother = 2\n"
        assert identifier_tokens(code) == ["name", "other"]

    def test_keywords_excluded(self):
        assert identifier_tokens("with open(p) as f:\n    pass\n") == ["open", "p", "f"]

    def test_triple_quoted_strings_excluded(self):
        code = 'x = """contains fake_name"""\ny = 1\n'
        assert identifier_tokens(code) == ["x", "y"]

    def test_fstring_interior_treated_as_string(self):
        assert identifier_tokens('msg = f"{value}"') == ["msg"]

    def test_unterminated_string_consumed_to_line_end(self):
        code = "x = 'oops\nnext_line = 1\n"
        assert identifier_tokens(code) == ["x", "next_line"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_comments_and_strings_end_at_every_line_terminator(self, newline):
        code = newline.join(["# c", "foo(x)", "s = 'unterminated", "bar = 1", ""])
        assert identifier_tokens(code) == ["foo", "x", "s", "bar"]

    def test_comment_ended_by_cr_hides_no_code(self):
        code = "# c\rfoo(x)\r"
        assert check_syntax(code)
        assert [site.callee_name for site in extract_facts(code).call_sites] == ["foo"]
        assert identifier_tokens(code) == ["foo", "x"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_backslash_newline_continues_a_string(self, newline):
        code = f"s = 'a\\{newline}b'; c = 1"
        assert check_syntax(code)
        assert identifier_tokens(code) == ["s", "c"]

    def test_string_prefixes_not_mistaken_for_identifiers(self):
        assert identifier_tokens("data = rb'abc'") == ["data"]

    def test_unicode_identifiers_lexed_whole(self):
        assert identifier_tokens("données = café(x)") == ["données", "café", "x"]
        assert identifier_tokens("x1 = _y2") == ["x1", "_y2"]


class TestTextMemo:
    """extract_facts and the identifier stream are memoized by text; a
    repeated call must look the same to its caller as a fresh one."""

    def test_each_call_returns_a_fresh_token_list(self):
        code = "df.explode(column)"
        first = identifier_tokens(code)
        first.append("injected")
        first[0] = "changed"
        assert identifier_tokens(code) == ["df", "explode", "column"]

    def test_repeated_facts_are_equal(self):
        code = "with lock:\n    json.dump(obj, f, indent=2)\n"
        first = extract_facts(code)
        assert extract_facts(code) == first
        assert first.has_with and first.call_sites[0].keyword_names == {"indent"}

    @pytest.mark.parametrize("code", ['s = "\\d"\n', "if x is 1:\n    pass\n"])
    def test_warning_text_judged_the_same_on_a_hit(self, code):
        # compiling either text warns; the first call fills the memo, the
        # second is a hit, and neither may depend on the warning filter
        extract_facts.cache_clear()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = extract_facts(code)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert extract_facts(code) == first
        assert first.is_valid is True
        assert caught == []


class TestDecodeSource:
    # a coding declaration (PEP 263) counts in a comment on line 1, or on
    # line 2 below a blank or comment line 1, as tokenize.detect_encoding reads it
    @pytest.mark.parametrize(
        "data, text",
        [
            pytest.param(
                b"# -*- coding: latin-1 -*-\nx = '\xe9'\n",
                "# -*- coding: latin-1 -*-\nx = '\u00e9'\n",
                id="latin-1",
            ),
            pytest.param(
                b"#!/bin/python\n# vim: set fileencoding=koi8-r :\r\nx = '\xd0'\r\n",
                "#!/bin/python\n# vim: set fileencoding=koi8-r :\nx = '\u043f'\n",
                id="koi8-r-on-line-2",
            ),
            pytest.param(
                b"\n# coding: latin-1\nx = '\xe9'\n",
                "\n# coding: latin-1\nx = '\u00e9'\n",
                id="below-a-blank-line",
            ),
            pytest.param(
                b"# coding: utf-8\n# coding: latin-1\nx = '\xc3\xa9'\n",
                "# coding: utf-8\n# coding: latin-1\nx = '\u00e9'\n",
                id="the-first-wins",
            ),
            pytest.param(
                b"\xef\xbb\xbf# coding: utf-8\nx = 1\n", "# coding: utf-8\nx = 1\n", id="bom-utf-8"
            ),
            # below code or on line 3 it is a comment, and the file is UTF-8,
            # which a lone \xe9 is not
            pytest.param(b"x = 1\n# coding: latin-1\nx = '\xe9'\n", None, id="below-code"),
            pytest.param(b"#\n#\n# coding: latin-1\nx = '\xe9'\n", None, id="on-line-3"),
            pytest.param(b"\xef\xbb\xbf# coding: latin-1\nx = 1\n", None, id="bom-latin-1"),
            pytest.param(b"# coding: nosuch\nx = 1\n", None, id="unknown-codec"),
            pytest.param(b"# coding: hex\nx = 1\n", None, id="not-a-text-codec"),
        ],
    )
    def test_coding_declarations(self, data, text):
        assert decode_source(data) == text


class TestContainsCoreToken:
    @pytest.mark.parametrize(
        "code, token, expected",
        [
            ("df.explode('A')", "explode", True),
            ("exploded = transform(x)", "explode", False),
            ("explode(explode(x))", "explode", True),
            ("s = 'explode'", "explode", False),
            ("# explode\nz = 1", "explode", False),
            ("", "explode", False),
            ("df.explode('A'", "explode", True),  # lexical fallback on invalid code
            ("données = café(x)", "café", True),
            ("données = café(x)", "es", False),  # not a piece of a longer name
        ],
    )
    def test_examples(self, code, token, expected):
        assert contains_core_token(code, token) is expected

    def test_agrees_with_identifier_stream(self):
        snippets = ["df.explode('A')", "exploded = f(x)", "a.b(c)", "def f(:"]
        for code in snippets:
            stream = set(identifier_tokens(code))
            for token in ["explode", "df", "f", "a", "zzz"]:
                assert contains_core_token(code, token) == (token in stream)

    def test_rejects_non_identifier_token(self):
        with pytest.raises(InvalidArgs):
            contains_core_token("x = 1", "a.b")
