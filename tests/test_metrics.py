import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vceval.errors import DegenerateSeries, InvalidArgs, InvalidReference
from vceval.metrics import (
    CdcVerdict,
    RuleResult,
    block_line_average,
    cdc_check,
    em_block,
    em_token,
    estimate_at_k,
    ism_line,
    pearson,
    pm_line,
    score_at_k,
    strip_code_fences,
)

from helpers import (
    brute_force_at_k,
    brute_force_subset_max,
    make_reference_snippet,
    perturb_generation,
    raises_exactly,
)

PASS = RuleResult.PASS
FAIL = RuleResult.FAIL
NA = RuleResult.NOT_APPLICABLE


class TestEstimateAtK:
    def test_spot_values(self):
        assert estimate_at_k(100, 100, 1) == 1.0
        assert estimate_at_k(6, 3, 1) == 0.5
        assert estimate_at_k(6, 3, 3) == 0.95

    def test_matches_brute_force_enumeration(self):
        for n in range(1, 9):
            for c in range(n + 1):
                for k in range(1, n + 1):
                    assert estimate_at_k(n, c, k) == pytest.approx(
                        brute_force_at_k(n, c, k), abs=1e-12
                    )

    def test_k_equals_one_is_exact_fraction(self):
        for n in range(1, 30):
            for c in range(n + 1):
                assert estimate_at_k(n, c, 1) == c / n

    def test_monotone_in_k_and_c(self):
        for n in (5, 8):
            for c in range(n):
                for k in range(1, n):
                    assert estimate_at_k(n, c, k + 1) >= estimate_at_k(n, c, k)
                    assert estimate_at_k(n, c + 1, k) >= estimate_at_k(n, c, k)

    def test_invalid_args(self):
        with raises_exactly(InvalidArgs, "k=4 exceeds sample count n=3"):
            estimate_at_k(3, 1, 4)
        with pytest.raises(InvalidArgs):
            estimate_at_k(3, 4, 1)
        with pytest.raises(InvalidArgs):
            estimate_at_k(3, 1, 0)


class TestScoreAtK:
    def test_all_equal_scores(self):
        for k in (1, 2, 3):
            assert score_at_k([0.4] * 5, k) == pytest.approx(0.4, abs=1e-12)

    def test_two_sample_example(self):
        assert score_at_k([0.2, 0.8], 1) == pytest.approx(0.5, abs=1e-12)
        assert score_at_k([0.2, 0.8], 2) == pytest.approx(0.8, abs=1e-12)

    @given(st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=8), st.data())
    def test_binary_reduction_equals_estimator(self, scores, data):
        k = data.draw(st.integers(1, len(scores)))
        ones = sum(1 for s in scores if s == 1.0)
        assert score_at_k(scores, k) == pytest.approx(
            estimate_at_k(len(scores), ones, k), abs=1e-12
        )

    @given(
        st.lists(st.floats(0, 1, allow_nan=False, allow_infinity=False), min_size=1, max_size=7),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_subset_max_enumeration(self, scores, data):
        k = data.draw(st.integers(1, len(scores)))
        assert score_at_k(scores, k) == pytest.approx(
            brute_force_subset_max(scores, k), abs=1e-9
        )

    def test_monotone_in_k(self):
        rng = random.Random(3)
        for _ in range(50):
            scores = [rng.random() for _ in range(6)]
            values = [score_at_k(scores, k) for k in range(1, 7)]
            assert values == sorted(values)

    def test_past_the_float_range_is_exact(self):
        # C(1199, 599) exceeds the float range, so the float sum overflows
        scores = [1.0] * 3 + [0.0] * 1197
        assert score_at_k(scores, 600) == estimate_at_k(1200, 3, 600)
        assert score_at_k([0.5] * 1200, 600) == 0.5

    def test_float_sum_is_exactly_rounded(self):
        # a plain left-to-right sum of ten 0.1s is 0.9999999999999999 before
        # Python 3.12, so the value would depend on the Python version
        assert score_at_k([0.1] * 10, 1) == 0.1

    def test_invalid_args(self):
        with raises_exactly(InvalidArgs, "k=2 exceeds sample count n=1"):
            score_at_k([1.0], 2)
        with raises_exactly(InvalidArgs, "need 1 <= k <= n, got n=0 k=0"):
            score_at_k([], 0)
        with raises_exactly(InvalidArgs, "need 1 <= k <= n, got n=2 k=0"):
            score_at_k([1.0, 0.0], 0)
        with pytest.raises(InvalidArgs):
            score_at_k([1.2], 1)
        with pytest.raises(InvalidArgs):
            score_at_k([], 1)
        for bad in (-0.1, float("nan"), float("inf")):
            with pytest.raises(InvalidArgs):
                score_at_k([0.5, bad], 1)
        # the range is judged on the distinct scores: one bad value among
        # many equal ones, and each of two NaN objects, is still seen
        first, second = float("nan"), float("nan")
        assert first is not second
        for scores in (
            *([0.5] * 99 + [bad] for bad in (float("nan"), -0.5, 1.5, float("inf"))),
            [first, 0.5, second],
            [first, second],
        ):
            with raises_exactly(InvalidArgs, "scores must lie in [0, 1]"):
                score_at_k(scores, 1)

    @staticmethod
    def unmemoized(per_sample, k):
        # the sum with one integer binomial per sample, as computed before
        # the rank weights were memoized
        n = len(per_sample)
        ordered = sorted(per_sample)
        try:
            weighted = math.fsum(
                map(operator.mul, ordered, map(math.comb, range(n), itertools.repeat(k - 1)))
            )
            return weighted / math.comb(n, k)
        except OverflowError:
            exact = sum(Fraction(s) * math.comb(i, k - 1) for i, s in enumerate(ordered))
            return float(exact / math.comb(n, k))

    @given(
        st.lists(st.floats(0, 1) | st.sampled_from([-0.0, 0.0, 1.0]), min_size=1, max_size=8)
        .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=200)),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_sorted_input_keeps_every_bit(self, scores, data):
        # scoring sorts its per-sample scores once and passes the sorted list
        # for every k; -0.0 and 0.0 keep their order through both sorts
        k = data.draw(st.integers(1, len(scores)))
        expected = self.unmemoized(scores, k).hex()
        assert score_at_k(scores, k).hex() == score_at_k(sorted(scores), k).hex() == expected

    def test_memoized_weights_keep_every_bit(self):
        rng = random.Random(11)
        for n in (1, 2, 7, 100, 333, 1049, 1050, 1200):
            for k in sorted({1, 3, 10, n // 2, n} & set(range(1, n + 1))):
                for draw in (rng.random, lambda: rng.choice((0.0, 0.25, 1.0))):
                    scores = [draw() for _ in range(n)]
                    # twice: the second call reads the cached weights
                    for _ in range(2):
                        assert score_at_k(scores, k).hex() == self.unmemoized(scores, k).hex()


class TestEmToken:
    @pytest.mark.parametrize(
        "generated, reference, expected",
        [
            ("to_numpy", "to_numpy", 1),
            ("as_matrix", "to_numpy", 0),
            ("  to_numpy\n", "to_numpy", 1),
            ("```\nto_numpy\n```", "to_numpy", 1),
            ("To_Numpy", "to_numpy", 0),  # case-sensitive
        ],
    )
    def test_examples(self, generated, reference, expected):
        assert em_token(generated, reference) == expected


class TestEmBlock:
    @pytest.mark.parametrize(
        "generated, token, expected",
        [
            ("df.explode('A')", "explode", 1),
            ("exploded = f(x)", "explode", 0),
            ("", "explode", 0),
        ],
    )
    def test_examples(self, generated, token, expected):
        assert em_block(generated, token) == expected


class TestStripCodeFences:
    def test_plain_fence(self):
        assert strip_code_fences("```\nto_numpy\n```").strip() == "to_numpy"

    def test_language_tag_dropped(self):
        assert strip_code_fences("```python\nx = 1\n```").strip() == "x = 1"

    def test_prose_outside_first_block_dropped(self):
        text = "Sure!\n```python\nx = 1\n```\nHope that helps."
        assert strip_code_fences(text).strip() == "x = 1"

    def test_single_line_fence_keeps_content(self):
        assert strip_code_fences("```to_numpy```") == "to_numpy"

    def test_unclosed_fence_runs_to_end(self):
        assert strip_code_fences("```python\nx = 1\n").strip() == "x = 1"

    def test_no_fence_unchanged(self):
        assert strip_code_fences("df.to_numpy()\n") == "df.to_numpy()\n"


class TestIsmLine:
    def test_identical_lines(self):
        assert ism_line("df.explode('A')", "df.explode('A')") == 1.0

    def test_string_literals_contribute_no_identifiers(self):
        assert ism_line("df.explode('B')", "df.explode('A')") == 1.0

    def test_partial_prefix(self):
        assert ism_line("np.linspace(5, dtype=3)", "np.arange(5, dtype=3)") == pytest.approx(1 / 3)

    def test_empty_reference(self):
        assert ism_line("", "") == 1.0
        assert ism_line("x", "") == 0.0
        assert ism_line("", "x = 1") == 0.0

    def test_bounded(self):
        assert 0.0 <= ism_line("a.b.c.d", "a.b") <= 1.0


class TestPmLine:
    def test_identical_lines(self):
        assert pm_line("df.explode('A')", "df.explode('A')") == 1.0

    def test_character_prefix(self):
        assert pm_line("df.explode('B')", "df.explode('A')") == pytest.approx(0.8)

    def test_no_shared_first_character(self):
        assert pm_line("np.arange(3)", "df.explode('A')") == 0.0

    def test_indentation_ignored(self):
        assert pm_line("    x = 1", "x = 1") == 1.0

    @pytest.mark.parametrize(
        "reference",
        ["x = 1  ", "x = 1\t", "x = 1\r", "  x = 1 \r\n"],
        ids=["blanks", "tab", "cr", "indented-crlf"],
    )
    def test_surrounding_whitespace_ignored(self, reference):
        # normalization strips a generation, so a reference line that ends
        # in blanks or a terminator must not cost a reference-equal sample
        assert pm_line("x = 1", reference) == 1.0
        assert pm_line(reference, "x = 1") == 1.0

    def test_inner_whitespace_counts(self):
        assert pm_line("x  = 1", "x = 1 ") == pytest.approx(0.4)

    def test_empty_reference(self):
        assert pm_line("", "   ") == 1.0
        assert pm_line("x", "") == 0.0


class TestBlockLineAverage:
    def test_identical_blocks(self):
        code = "a = 1\nb = f(a)\n"
        assert block_line_average(code, code, ism_line) == 1.0
        assert block_line_average(code, code, pm_line) == 1.0

    def test_missing_line_scores_zero(self):
        reference = "a = 1\nb = f(a)\n"
        generated = "a = 1\n"
        assert block_line_average(generated, reference, ism_line) == 0.5
        assert block_line_average(generated, reference, pm_line) == 0.5

    def test_surplus_lines_ignored(self):
        reference = "a = 1\nb = f(a)\n"
        generated = "a = 1\nb = f(a)\nextra = 2\n"
        assert block_line_average(generated, reference, pm_line) == 1.0

    def test_blank_and_comment_lines_skipped(self):
        reference = "a = 1\n\n# comment\nb = 2\n"
        generated = "a = 1\nb = 2\n"
        assert block_line_average(generated, reference, pm_line) == 1.0

    def test_empty_reference(self):
        assert block_line_average("", "", ism_line) == 1.0
        assert block_line_average("x = 1", "# only a comment", ism_line) == 0.0

    def test_float_sum_is_exactly_rounded(self):
        code = "".join(f"v{i} = {i}\n" for i in range(10))
        assert block_line_average(code, code, lambda generated, reference: 0.1) == 0.1

    @pytest.mark.parametrize(
        "separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
    )
    def test_a_separator_inside_a_string_does_not_end_a_line(self, separator):
        # two lines of Python; str.splitlines() would also break at separator
        reference = f's = "a{separator}b"\nt = f(x, y)'
        generated = f's = "a{separator}b"\nt = g(x, y)'
        assert block_line_average(generated, reference, ism_line) == (1 + 1 / 4) / 2
        assert block_line_average(generated, reference, pm_line) == (1 + 4 / 11) / 2

    @pytest.mark.parametrize("line_metric", [ism_line, pm_line], ids=["ism", "pm"])
    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_lines_match_their_lf_form(self, line_metric, newline):
        code = "a = 1\n\n# comment\nb = f(a, key=2)\n"
        other = code.replace("\n", newline)
        assert block_line_average(other, code, line_metric) == 1.0
        assert block_line_average(code, other, line_metric) == 1.0


def verdict_tuple(v: CdcVerdict):
    return (v.rule1_core_token, v.rule2_valid, v.rule3_arg_count, v.rule4_with, v.rule5_keywords)


class TestCdcCheck:
    def test_identity_passes_all(self):
        reference = "json.dump(obj, f, indent=2)"
        verdict = cdc_check(reference, reference, "dump")
        assert verdict_tuple(verdict) == (PASS, PASS, PASS, NA, PASS)
        assert verdict.overall

    def test_dropped_argument_and_keyword(self):
        verdict = cdc_check("json.dump(obj, f)", "json.dump(obj, f, indent=2)", "dump")
        assert verdict.rule3_arg_count is FAIL
        assert verdict.rule5_keywords is FAIL
        assert not verdict.overall

    def test_missing_with_statement(self):
        verdict = cdc_check(
            "f = open(p)\nf.read()\n", "with open(p) as f:\n    f.read()\n", "open"
        )
        assert verdict.rule4_with is FAIL
        assert not verdict.overall

    def test_invalid_generated_fails_applicable_rules(self):
        verdict = cdc_check("open(p", "open(p)", "open")
        assert verdict_tuple(verdict) == (PASS, FAIL, FAIL, NA, NA)

    def test_invalid_generated_without_applicable_facts(self):
        verdict = cdc_check("compute = ", "val = compute", "compute")
        assert verdict_tuple(verdict) == (PASS, FAIL, NA, NA, NA)
        assert not verdict.overall

    def test_argument_count_set_membership(self):
        reference = "f(1)\nf(1, 2)\n"
        assert cdc_check("f(9, 9)", reference, "f").rule3_arg_count is PASS
        assert cdc_check("f(1, 2, 3)", reference, "f").rule3_arg_count is FAIL

    def test_keyword_superset_passes(self):
        verdict = cdc_check("h(y=1, x=2)", "h(1, x=2)", "h")
        assert verdict.rule3_arg_count is PASS
        assert verdict.rule5_keywords is PASS
        assert verdict.overall

    def test_keywords_of_each_reference_site_must_be_covered(self):
        reference = "draw(x, y, color='r')\ndraw(x, width=2, style=s)\n"
        # each reference call's keywords, {color} and {width, style}, must be
        # used by some generated call; no generated call covers {width, style}
        partial = cdc_check("draw(x, color='b', width=1)", reference, "draw")
        assert partial.rule5_keywords is FAIL
        full = cdc_check("draw(a, color='b', width=1, style=t)", reference, "draw")
        assert full.rule5_keywords is PASS
        assert full.rule3_arg_count is FAIL  # 4 arguments, reference calls use 3

    def test_reference_sites_with_different_keywords_score_the_reference(self):
        # each reference call is covered by a generated call of its own, so
        # the reference passes against itself
        reference = "a = timedelta(hours=1)\nb = timedelta(minutes=1)\n"
        verdict = cdc_check(reference, reference, "timedelta")
        assert verdict.rule5_keywords is PASS
        assert verdict.overall
        swapped = "a = timedelta(minutes=2)\nb = timedelta(hours=2)\n"
        assert cdc_check(swapped, reference, "timedelta").overall
        assert cdc_check("a = timedelta(hours=2)\n", reference, "timedelta").rule5_keywords is FAIL

    def test_too_deeply_nested_generated_fails_rule2(self):
        # the parser raises MemoryError on the sample; only rule 2 and the
        # structural rules fail, and the run goes on
        verdict = cdc_check("f(" + "-" * 10000 + "1)", "f(1)", "f")
        assert verdict_tuple(verdict) == (PASS, FAIL, FAIL, NA, NA)
        assert not verdict.overall

    def test_overall_is_true_iff_no_rule_failed(self):
        for rules in itertools.product(RuleResult, repeat=5):
            assert CdcVerdict(*rules).overall == (RuleResult.FAIL not in rules)

    def test_invalid_reference_raises(self):
        with pytest.raises(InvalidReference):
            cdc_check("x = 1", "def f(:", "f")

    def test_deterministic(self):
        args = ("json.dump(obj, f)", "json.dump(obj, f, indent=2)", "dump")
        assert cdc_check(*args) == cdc_check(*args)

    def test_overall_implies_em_block(self):
        rng = random.Random(99)
        for _ in range(200):
            reference, token = make_reference_snippet(rng)
            generated = perturb_generation(rng, reference, token)
            verdict = cdc_check(generated, reference, token)
            if verdict.overall:
                assert em_block(generated, token) == 1


class TestCdcCheckInContext:
    """A span is judged in the program that head and tail complete, and
    rules 3-5 read only the span's own lines of each program."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_calls_and_with_outside_the_span_do_not_count(self, newline):
        head = newline.join(["with lock:", "    a = df.explode(1, axis=0)", ""])
        args = ("out = df.explode(1, 2, 3)", "out = df.explode(col, axis=0)", "explode", head, "\n")
        assert verdict_tuple(cdc_check(*args)) == (PASS, PASS, FAIL, NA, FAIL)

    def test_a_with_of_the_reference_span_must_be_in_the_sample_span(self):
        head = "def read(p, lock):\n"
        tail = "\n    with lock:\n        return data\n"
        reference = "    with open(p) as f:\n        data = load(f)"
        verdict = cdc_check("    f = open(p)\n    data = load(f)", reference, "open", head, tail)
        assert verdict_tuple(verdict) == (PASS, PASS, PASS, FAIL, NA)
        assert cdc_check(reference, reference, "open", head, tail).overall

    def test_a_span_that_is_no_program_alone_is_judged_in_its_program(self):
        head, tail = "def f(df):\n    for x in df:\n", "\n    return out\n"
        reference = "        out = df.explode(x)\n        break"
        assert cdc_check(reference, reference, "explode", head, tail).overall
        with raises_exactly(InvalidReference, "reference code must be syntactically valid"):
            cdc_check(reference, reference, "explode")
        sample = "        out = df.explode(x)\n    break"
        verdict = cdc_check(sample, reference, "explode", head, tail)
        assert verdict_tuple(verdict) == (PASS, FAIL, FAIL, NA, NA)

    def test_empty_head_and_tail_judge_the_spans_whole(self):
        args = ("with a:\n    f(1)\n", "with b:\n    f(2, k=3)\n", "f")
        assert cdc_check(*args, "", "") == cdc_check(*args)
        assert verdict_tuple(cdc_check(*args)) == (PASS, PASS, FAIL, PASS, FAIL)


class TestPearson:
    def test_worked_examples(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry(self):
        xs, ys = [1.0, 4.0, 2.0, 8.0], [0.5, 0.25, 1.0, 0.125]
        assert pearson(xs, ys) == pytest.approx(pearson(ys, xs), abs=1e-12)

    def test_affine_invariance(self):
        rng = random.Random(17)
        for _ in range(100):
            xs = [rng.random() for _ in range(10)]
            ys = [rng.random() for _ in range(10)]
            a, b = rng.uniform(0.1, 10), rng.uniform(-100, 100)
            scaled = [a * x + b for x in xs]
            assert pearson(scaled, ys) == pytest.approx(pearson(xs, ys), abs=1e-9)
            assert pearson(xs, [a * x + b for x in xs]) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "seed, expected",
        [
            (1, -0.059061799180099045),
            (5, -0.26382004901589945),
            (7, -0.03436966083525293),
            (8, 0.1944316023271894),
            (10, 0.25977565431315947),
            (11, 0.01427722044024729),
        ],
    )
    def test_same_bits_on_every_python(self, seed, expected):
        # statistics.correlation gives each of these a different last digit
        # on 3.11, 3.12 or 3.13
        rng = random.Random(seed)
        size = rng.randint(5, 40)
        xs = [rng.random() for _ in range(size)]
        ys = [rng.random() for _ in range(size)]
        assert pearson(xs, ys) == expected

    def test_degenerate_series(self):
        with pytest.raises(DegenerateSeries):
            pearson([1.0], [2.0])
        with pytest.raises(DegenerateSeries):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(InvalidArgs):
            pearson([1.0, 2.0], [1.0])
        with pytest.raises(InvalidArgs):
            pearson([1.0, float("nan")], [1.0, 2.0])

