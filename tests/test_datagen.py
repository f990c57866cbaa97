import random
import textwrap
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vceval.core_model import (
    MASK_SENTINELS,
    DataSource,
    Granularity,
    LifecycleTag,
    MetaInstance,
    TaskKind,
    parse_version,
)
from vceval.datagen import (
    FILTER_ALPHABETIC_RATIO,
    FILTER_AVG_LINE_LENGTH,
    FILTER_DECODE_ERROR,
    FILTER_MAX_LINE_LENGTH,
    FILTER_SYNTAX_ERROR,
    FilterVerdict,
    MaskSpec,
    build_migration_pair,
    categorize_migration,
    filter_corpus_file,
    filter_tree,
    mask_instance,
)
from vceval.errors import EvalError, InvalidArgs, SchemaViolation
from vceval.harness import EvaluationItem, run_scoring
from vceval.syntax import contains_core_token, identifier_tokens

from helpers import (
    COMPILER_ONLY_DECLARATIONS,
    DECLARED_CODECS,
    REFUSED_DECLARATIONS,
    make_reference_snippet,
    raises_exactly,
    write_tree,
)


def meta(code: str, version: str = "1.3.5", description: str = "demo") -> MetaInstance:
    return MetaInstance(
        library="pandas",
        version=parse_version(version),
        description=description,
        code=code,
        data_source=DataSource.LIBRARY_SOURCE,
        lifecycle_tag=LifecycleTag.GENERAL,
        release_date=date(2021, 12, 1),
    )


class TestMaskInstance:
    def test_token_mask(self):
        instance = mask_instance(
            meta("df.to_numpy()"),
            MaskSpec(Granularity.TOKEN, "i1", "to_numpy"),
        )
        assert instance.masked_code == "df.[token-mask]()"
        assert instance.reference == "to_numpy"
        assert instance.core_token == "to_numpy"
        assert instance.task is TaskKind.VSCC

    def test_unicode_token_mask(self):
        instance = mask_instance(
            meta("données = café(x)\n"),
            MaskSpec(Granularity.TOKEN, "i1", "café"),
        )
        assert instance.masked_code == "données = [token-mask](x)\n"
        assert instance.reference == "café"

    def test_token_mask_occurrence_index(self):
        code = "explode(explode(x))"
        first = mask_instance(meta(code), MaskSpec(Granularity.TOKEN, "i1", "explode"))
        second = mask_instance(
            meta(code), MaskSpec(Granularity.TOKEN, "i2", "explode", occurrence=1)
        )
        assert first.masked_code == "[token-mask](explode(x))"
        assert second.masked_code == "explode([token-mask](x))"

    def test_line_mask_replaces_full_line(self):
        code = "import pandas as pd\nresult = df.explode('A')\nprint(result)\n"
        instance = mask_instance(
            meta(code), MaskSpec(Granularity.LINE, "i1", "explode", line_index=1)
        )
        assert instance.masked_code == "import pandas as pd\n[line-mask]\nprint(result)\n"
        assert instance.reference == "result = df.explode('A')"

    def test_block_mask_spans_whole_lines(self):
        code = "import pandas as pd\ndf = pd.DataFrame(data)\nresult = df.explode('A')\nprint(result)\n"
        instance = mask_instance(
            meta(code), MaskSpec(Granularity.BLOCK, "i1", "explode", line_span=(1, 2))
        )
        assert instance.masked_code == "import pandas as pd\n[block-mask]\nprint(result)\n"
        assert instance.reference == "df = pd.DataFrame(data)\nresult = df.explode('A')"

    @pytest.mark.parametrize(
        "granularity, kwargs",
        [
            (Granularity.TOKEN, {}),
            (Granularity.LINE, {"line_index": 1}),
            (Granularity.BLOCK, {"line_span": (0, 1)}),
        ],
    )
    def test_round_trip_identity(self, granularity, kwargs):
        code = "import pandas as pd\nresult = df.explode('A')\nprint(result)\n"
        spec = MaskSpec(granularity, "i1", "explode", **kwargs)
        instance = mask_instance(meta(code), spec)
        sentinel = {"token": "[token-mask]", "line": "[line-mask]", "block": "[block-mask]"}[
            granularity.value
        ]
        assert instance.masked_code.replace(sentinel, instance.reference, 1) == code
        assert instance._replace() == instance  # rebuilt, so re-checked

    def test_unresolvable_targets(self):
        with raises_exactly(EvalError, "occurrence 0 of 'missing' not found (0 occurrence(s) present)"):
            mask_instance(meta("x = 1"), MaskSpec(Granularity.TOKEN, "i", "missing"))
        with raises_exactly(EvalError, "occurrence 5 of 'x' not found (1 occurrence(s) present)"):
            mask_instance(
                meta("x = 1"), MaskSpec(Granularity.TOKEN, "i", "x", occurrence=5)
            )
        with raises_exactly(EvalError, "line 4 outside 0..0"):
            mask_instance(meta("x = 1"), MaskSpec(Granularity.LINE, "i", "x", line_index=4))
        with raises_exactly(EvalError, "line span (0, 9) outside 0..0"):
            mask_instance(meta("x = 1"), MaskSpec(Granularity.BLOCK, "i", "x", line_span=(0, 9)))
        with raises_exactly(EvalError, "block masking needs a line_span"):
            mask_instance(meta("x = 1"), MaskSpec(Granularity.BLOCK, "i", "x"))

    def test_sentinel_collision(self):
        with raises_exactly(EvalError, "code already contains the literal sentinel '[token-mask]'"):
            mask_instance(
                meta("s = '[token-mask]'\nx = 1"), MaskSpec(Granularity.LINE, "i", "x", line_index=1)
            )

    def test_invalid_code_rejected(self):
        with pytest.raises(InvalidArgs):
            mask_instance(meta("def f(:"), MaskSpec(Granularity.TOKEN, "i", "f"))

    def test_token_occurrences_inside_strings_not_maskable(self):
        instance = mask_instance(
            meta("explode = '<explode>'"), MaskSpec(Granularity.TOKEN, "i", "explode")
        )
        assert instance.masked_code == "[token-mask] = '<explode>'"


class TestBuildMigrationPair:
    def test_minor_to_major_upgrade(self):
        m_i = meta("old_call()", version="1.3.2", description="shared purpose")
        m_j = meta("new_call()", version="2.0.0", description="shared purpose")
        instance, (direction, pattern) = build_migration_pair(m_i, m_j, "m1", "new_call")
        assert direction == "old_to_new"
        assert pattern == "minor_to_major"
        assert instance.source_code == "old_call()"
        assert instance.reference == "new_call()"
        assert instance.task is TaskKind.VACM
        assert instance.granularity is Granularity.BLOCK

    def test_major_to_minor_upgrade(self):
        m_i = meta("a()", version="2.0.0", description="d")
        m_j = meta("b()", version="2.1.3", description="d")
        _, category = build_migration_pair(m_i, m_j, "m1", "b")
        assert category == ("old_to_new", "major_to_minor")

    def test_swapped_arguments_transpose(self):
        m_i = meta("a()", version="1.3.2", description="d")
        m_j = meta("b()", version="2.0.0", description="d")
        _, forward = build_migration_pair(m_i, m_j, "f", "b")
        _, backward = build_migration_pair(m_j, m_i, "r", "a")
        assert forward == ("old_to_new", "minor_to_major")
        assert backward == ("new_to_old", "major_to_minor")

    def test_same_version_rejected(self):
        m = meta("a()", version="1.0")
        with raises_exactly(SchemaViolation, "versions must differ, both compare equal to '1.0'"):
            build_migration_pair(m, m, "m1", "a")

    def test_mismatched_library_and_description_listed(self):
        m_i = meta("a()", version="1.0", description="one")
        m_j = MetaInstance(
            library="numpy",
            version=parse_version("2.0"),
            description="two",
            code="b()",
            data_source=DataSource.LIBRARY_SOURCE,
        )
        with pytest.raises(SchemaViolation) as excinfo:
            build_migration_pair(m_i, m_j, "m1", "b")
        assert excinfo.value.violations == [
            "library mismatch: 'pandas' vs 'numpy'",
            "description mismatch",
        ]

    def test_provenance_comes_from_target(self):
        m_i = meta("a()", version="1.0", description="d")
        m_j = MetaInstance(
            library="pandas",
            version=parse_version("2.0"),
            description="d",
            code="b()",
            data_source=DataSource.STACK_OVERFLOW,
            release_date=date(2023, 5, 1),
        )
        instance, _ = build_migration_pair(m_i, m_j, "m1", "b")
        assert instance.data_source is DataSource.STACK_OVERFLOW
        assert instance.release_date == date(2023, 5, 1)


# headers that nest a snippet one level deep; None leaves it at module level
_NESTINGS = (None, "def wrapped():", "for item in items:", "with context() as handle:")


def nested_snippet(seed: int, header: str | None) -> tuple[str, str]:
    code, token = make_reference_snippet(random.Random(seed))
    if header is not None:
        code = header + "\n" + textwrap.indent(code, "    ")
    return code, token


def reference_scores(instance, metrics=("em", "ism", "pm")) -> dict[str, float]:
    """Aggregate metrics of the one sample equal to the reference."""
    item = EvaluationItem(instance, (instance.reference,), (None,))
    result = run_scoring([item], metrics, [1])
    return {row.metric: row.value for row in result.aggregates}


class TestBuiltInstancesScore:
    """Every instance the builders accept is scorable: a sample equal to its
    reference scores 1 on the static metrics.  cdc is not asserted, because
    a span that does not parse on its own (a return, a block header without
    its body) aborts cdc's reference check."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        header=st.sampled_from(_NESTINGS),
        granularity=st.sampled_from(Granularity),
        data=st.data(),
    )
    def test_accepted_mask_scores_one(self, seed, header, granularity, data):
        code, token = nested_snippet(seed, header)
        lines = code.split("\n")
        if granularity is Granularity.TOKEN:
            occurrences = identifier_tokens(code).count(token)
            spec = MaskSpec(
                granularity, "i", token, occurrence=data.draw(st.integers(0, occurrences - 1))
            )
            span = token
        else:
            first = data.draw(st.integers(0, len(lines) - 1))
            if granularity is Granularity.LINE:
                last = first
                spec = MaskSpec(granularity, "i", token, line_index=first)
            else:
                last = data.draw(st.integers(first, len(lines) - 1))
                spec = MaskSpec(granularity, "i", token, line_span=(first, last))
            span = "\n".join(lines[first : last + 1])
        try:
            instance = mask_instance(meta(code), spec)
        except EvalError as exc:
            assert str(exc).endswith(f"does not hold the core token {token!r}")
            assert not contains_core_token(span, token)
            return
        assert instance.reference == span
        assert reference_scores(instance) == {"em": 1.0, "ism": 1.0, "pm": 1.0}

    @settings(max_examples=60, deadline=None)
    @given(
        seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)),
        headers=st.tuples(st.sampled_from(_NESTINGS), st.sampled_from(_NESTINGS)),
        token_side=st.integers(0, 1),
    )
    def test_accepted_pair_scores_one(self, seeds, headers, token_side):
        (source, source_token), (target, target_token) = map(nested_snippet, seeds, headers)
        core_token = (source_token, target_token)[token_side]
        m_i = meta(source, version="1.3.2", description="shared")
        m_j = meta(target, version="2.0.0", description="shared")
        try:
            instance, _ = build_migration_pair(m_i, m_j, "p", core_token)
        except SchemaViolation as exc:
            assert exc.violations == [
                f"instance 'p': target code does not hold the core token {core_token!r}"
            ]
            assert not contains_core_token(target, core_token)
            return
        assert reference_scores(instance) == {"em": 1.0, "ism": 1.0, "pm": 1.0}


# module-level lines, so that cdc judges the masked span whole; the masked
# line ends in blanks and the block's last line in a tab
_TERMINATED_LINES = ["import pandas as pd", "", "out = df.explode('A')  ", "print(out)\t", ""]


class TestLineTerminators:
    """Masking ends lines at LF, CRLF or CR, as Python does: the reference
    of a line or block span carries no terminator, the masked code keeps
    every one, and a sample equal to the reference scores 1."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize(
        "granularity, kwargs, first, last",
        [
            (Granularity.LINE, {"line_index": 2}, 2, 2),
            (Granularity.BLOCK, {"line_span": (2, 3)}, 2, 3),
        ],
        ids=["line", "block"],
    )
    def test_mask_restores_code_and_scores_one(self, newline, granularity, kwargs, first, last):
        code = newline.join(_TERMINATED_LINES)
        instance = mask_instance(meta(code), MaskSpec(granularity, "i", "explode", **kwargs))
        sentinel = MASK_SENTINELS[granularity]
        assert instance.reference == newline.join(_TERMINATED_LINES[first : last + 1])
        assert instance.masked_code == newline.join(
            [*_TERMINATED_LINES[:first], sentinel, *_TERMINATED_LINES[last + 1 :]]
        )
        assert instance.masked_code.replace(sentinel, instance.reference, 1) == code
        metrics = ("em", "ism", "pm", "cdc")
        assert reference_scores(instance, metrics) == dict.fromkeys(metrics, 1.0)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_indented_block_scores_as_its_lf_form(self, newline):
        lines = ["def f(df):", "    out = df.explode('A')", "    print(out)", ""]
        spec = MaskSpec(Granularity.BLOCK, "i", "explode", line_span=(1, 2))
        metrics = ("em", "ism", "pm", "cdc")
        lf, other = (
            reference_scores(mask_instance(meta(nl.join(lines)), spec), metrics)
            for nl in ("\n", newline)
        )
        assert other == lf == dict.fromkeys(metrics, 1.0)

    def test_token_after_a_cr_ended_comment_is_maskable(self):
        code = "# c\rout = df.explode('A')\r"
        instance = mask_instance(meta(code), MaskSpec(Granularity.TOKEN, "i", "explode"))
        assert instance.masked_code == "# c\rout = df.[token-mask]('A')\r"


class TestCategorizeMigration:
    @pytest.mark.parametrize(
        "source, target, direction, pattern",
        [
            ("1.3.2", "2.0.0", "old_to_new", "minor_to_major"),
            ("2.0.0", "2.1.3", "old_to_new", "major_to_minor"),
            ("2.1.3", "2.0.0", "new_to_old", "minor_to_major"),
            ("2.0.0", "3.0.0", "old_to_new", "major_to_major"),
            ("1.2.1", "1.2.2", "old_to_new", "minor_to_minor"),
        ],
    )
    def test_examples(self, source, target, direction, pattern):
        labels = categorize_migration(parse_version(source), parse_version(target))
        assert labels == (direction, pattern)

    @pytest.mark.parametrize(
        "raw, label",
        [
            ("2.0.0", "major"),
            ("2.1.3", "minor"),
            ("3", "major"),
            ("3.0", "major"),
            ("0.1", "minor"),
            # the suffix does not count: 1.5rc1 parses as components (1,), suffix 5rc1
            ("2.0.0rc1", "major"),
            ("1.5rc1", "major"),
        ],
    )
    def test_endpoint_label(self, raw, label):
        endpoint, other = parse_version(raw), parse_version("99.1")
        assert categorize_migration(endpoint, other)[1] == f"{label}_to_minor"
        assert categorize_migration(other, endpoint)[1] == f"minor_to_{label}"

    def test_equal_versions_rejected(self):
        with raises_exactly(SchemaViolation, "versions must differ"):
            categorize_migration(parse_version("1.0"), parse_version("1.0.0"))


class TestFilterCorpusFile:
    def test_plain_file_keeps(self):
        assert filter_corpus_file("import os\n\nprint(os.name)\n") == FilterVerdict(())

    def test_avg_line_length_boundary(self):
        keep = "a" * 98 + "=1"      # exactly 100 characters
        reject = "a" * 99 + "=1"    # 101 characters
        assert filter_corpus_file(keep + "\n").keep
        assert filter_corpus_file(reject + "\n").reasons == (FILTER_AVG_LINE_LENGTH,)

    def test_max_line_length_boundary(self):
        short_lines = "\n".join(["c0000003=1"] * 19)
        at_limit = "b" * 998 + "=1" + "\n" + short_lines + "\n"
        over = "b" * 999 + "=1" + "\n" + short_lines + "\n"
        assert filter_corpus_file(at_limit).keep
        assert filter_corpus_file(over).reasons == (FILTER_MAX_LINE_LENGTH,)

    def test_alphabetic_ratio_boundary(self):
        def block(letter_counts):
            return "\n".join("a" * c + "=" + "1" * (99 - c) for c in letter_counts) + "\n"

        at_limit = block([24] * 9 + [34])   # 250 letters / 1000 characters
        below = block([24] * 9 + [33])      # 249 letters / 1000 characters
        assert filter_corpus_file(at_limit).keep
        assert filter_corpus_file(below).reasons == (FILTER_ALPHABETIC_RATIO,)

    def test_syntax_error_rejected(self):
        assert filter_corpus_file("def f(:\n").reasons == (FILTER_SYNTAX_ERROR,)

    def test_all_triggered_rules_listed(self):
        content = ("#" + "!" * 150 + "\n") * 3 + "def f(:\n"
        reasons = set(filter_corpus_file(content).reasons)
        assert FILTER_AVG_LINE_LENGTH in reasons
        assert FILTER_ALPHABETIC_RATIO in reasons
        assert FILTER_SYNTAX_ERROR in reasons

    def test_empty_file_keeps(self):
        assert filter_corpus_file("").keep

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_line_ends_give_the_lf_verdict(self, newline):
        # each line alone is short, but the twenty as one line would be
        # 1,499 characters long
        lines = [f"v{i:02d} = '{'x' * 66}'" for i in range(20)]
        assert {len(line) for line in lines} == {74}
        verdict = filter_corpus_file(newline.join(lines) + newline)
        assert verdict == filter_corpus_file("\n".join(lines) + "\n") == FilterVerdict(())

    @pytest.mark.parametrize("code", ["def f():\n    x: (y := 1)\n", "def f():\n    x: (yield)\n"])
    def test_judged_without_the_toolkits_future_flags(self, code):
        assert filter_corpus_file(code) == FilterVerdict(())

    def test_too_deeply_nested_file_is_a_syntax_error(self):
        # the parser raises MemoryError here; it must not escape the filter
        content = "value = (\n" + "-\n" * 10000 + "1)\n"
        assert filter_corpus_file(content).reasons == (FILTER_ALPHABETIC_RATIO, FILTER_SYNTAX_ERROR)

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(
            alphabet=st.one_of(
                st.sampled_from("aZ_ 0=\t\r\n(\u00e9\u4e2d\u6587\u00b2\u00bd\u0660\u02b0"),
                st.characters(),
            ),
            max_size=60,
        )
    )
    def test_alphabetic_ratio_matches_per_character_formula(self, content):
        body = [ch for ch in content if ch not in "\r\n"]
        expected = bool(body) and sum(ch.isalpha() for ch in body) / len(body) < 0.25
        assert (FILTER_ALPHABETIC_RATIO in filter_corpus_file(content).reasons) is expected

    def test_deterministic_and_idempotent(self):
        rng = random.Random(5)
        for _ in range(50):
            lines = [f"name_{rng.randint(0, 9)} = {rng.randint(0, 999)}" for _ in range(rng.randint(1, 9))]
            content = "\n".join(lines) + "\n"
            first = filter_corpus_file(content)
            assert filter_corpus_file(content) == first
            if first.keep:
                assert filter_corpus_file(content).keep


class TestFilterTree:
    def test_walks_sorted_and_reports(self, tmp_path):
        (tmp_path / "ok.py").write_text("import os\n")
        (tmp_path / "bad.py").write_text("def f(:\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "long.py").write_text("x" * 1500 + " = 1\n")
        results = filter_tree(tmp_path)
        assert [rel for rel, _ in results] == ["bad.py", "ok.py", "sub/long.py"]
        verdicts = dict(results)
        assert verdicts["ok.py"].keep
        assert verdicts["bad.py"].reasons == (FILTER_SYNTAX_ERROR,)
        assert FILTER_MAX_LINE_LENGTH in verdicts["sub/long.py"].reasons

    def test_byte_order_mark_is_not_part_of_the_text(self, tmp_path):
        # "x= 1" has 1 letter in 4 non-newline characters, the 0.25 ratio
        # that keeps; with the mark counted it would be 1 in 5 and not compile
        (tmp_path / "bom.py").write_bytes(b"\xef\xbb\xbfx= 1\n")
        ((rel, verdict),) = filter_tree(tmp_path)
        assert verdict == FilterVerdict(())

    def test_undecodable_file_rejected(self, tmp_path):
        (tmp_path / "binary.py").write_bytes(b"\xff\xfe\x00bad")
        ((rel, verdict),) = filter_tree(tmp_path)
        assert verdict.reasons == (FILTER_DECODE_ERROR,)

    def test_files_are_read_in_their_declared_codec(self, tmp_path):
        # filter needs text, so it decodes as tokenize does and refuses the
        # two files that only compile() reads (lifecycle reads them)
        write_tree(tmp_path, {**DECLARED_CODECS, **REFUSED_DECLARATIONS, **COMPILER_ONLY_DECLARATIONS})
        verdicts = {rel: verdict.reasons for rel, verdict in filter_tree(tmp_path)}
        assert verdicts == {
            "pkg/bom_latin1.py": (FILTER_DECODE_ERROR,),
            "pkg/cr.py": (FILTER_DECODE_ERROR,),
            "pkg/koi8_r.py": (),
            "pkg/latin1.py": (),
            "pkg/nosuch.py": (FILTER_DECODE_ERROR,),
            "pkg/shebang.py": (FILTER_DECODE_ERROR,),
        }
